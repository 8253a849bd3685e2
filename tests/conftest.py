from pathlib import Path

import pytest

from chainplan import (
    ExploitMatrix,
    ExploitRecord,
    compile_network,
    load_catalog,
    load_network,
    network_from_dict,
    parse_cpe,
    records_from_dict,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# the expected motivating-example chain, as emitted action ids
MOTIVATING_CHAIN = (
    "tcp_connect dmz attacker_host web_server a--drupal--drupal agent",
    "drupal_restful_web_service attacker_host web_server agent",
    "tcp_connect lan web_server db_server a--apache--couchdb agent",
    "apache_couchdb_arbitrary_command_execution web_server db_server agent",
    "linux_kernel_udp_fragmentation_offset_ufo_pe db_server agent",
)


@pytest.fixture(scope="session")
def motivating_network():
    return load_network(FIXTURES / "motivating_network.json")


@pytest.fixture(scope="session")
def motivating_matrix():
    return load_catalog(FIXTURES / "motivating_catalog.json")


@pytest.fixture(scope="session")
def bpf_matrix():
    return load_catalog(FIXTURES / "motivating_catalog_bpf.json")


def build_task(net, matrix):
    """The compiled (domain, problem, task) of a network and catalog."""
    return compile_network(net, matrix)[1:]


@pytest.fixture(scope="session")
def motivating_task(motivating_network, motivating_matrix):
    return build_task(motivating_network, motivating_matrix)


def fixture_pair(seed, **kwargs):
    """random_fixture output materialized into library objects."""
    from chainplan.synth import random_fixture

    net_dict, cat_dict = random_fixture(seed, **kwargs)
    net = network_from_dict(net_dict)
    matrix = ExploitMatrix(tuple(records_from_dict(cat_dict)))
    return net, matrix


def aix_invscout_record() -> ExploitRecord:
    """The AIX invscout record used for prompt golden-file checks."""
    return ExploitRecord(
        id="ibm_aix_invscout_cmd_injection",
        name="IBM AIX invscout Command Injection",
        source="metasploit",
        description=(
            "This module exploits a command injection vulnerability in IBM AIX "
            "invscout set-uid root utility present in AIX 7.2 and earlier. The "
            "undocumented -rpm argument can be used to install an RPM file; and "
            "the undocumented -o argument passes arguments to the rpm utility "
            "without validation, leading to command injection with effective-uid "
            "root privileges. This module has been tested successfully on AIX 7.2."
        ),
        cve_ids=("CVE-2023-28528",),
        cve_descriptions=(
            "IBM AIX 7.1, 7.2, 7.3, and VIOS 3.1 could allow a non-privileged "
            "local user to exploit a vulnerability in the invscout command to "
            "execute arbitrary commands.  IBM X-Force ID:  251207.",
        ),
        cvss_vectors=("CVSS:3.1/AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H",),
        vulnerable_configs=tuple(
            parse_cpe(uri)
            for uri in (
                "cpe:2.3:o:ibm:aix:7.1:*:*:*:*:*:*:*",
                "cpe:2.3:o:ibm:aix:7.2:*:*:*:*:*:*:*",
                "cpe:2.3:o:ibm:aix:7.3:*:*:*:*:*:*:*",
            )
        ),
    )
