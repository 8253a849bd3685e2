import copy
from pathlib import Path

import pytest
from hypothesis import strategies as st

from chainplan import (
    ExploitMatrix,
    ExploitRecord,
    PrivilegeLevel,
    compile_network,
    load_catalog,
    load_network,
    network_from_dict,
    parse_cpe,
    records_from_dict,
)
from chainplan.pddlgen import compromised_atom

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


def any_level_goal(host):
    """The sweep's goal for ``host`` as a CNF: compromised at any level."""
    return (frozenset(compromised_atom(host, level).render()
                      for level in PrivilegeLevel if level > PrivilegeLevel.NONE),)


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


# --- fuzzing decoded JSON documents ---------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)


def _paths(node, prefix=()):
    """The path of every member of ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_json(draw, doc, values=JSON_VALUES):
    """A copy of ``doc`` with one member replaced by a drawn value, deleted or,
    in a list, duplicated. The top level stays the object it was."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = draw(st.sampled_from(("replace", "delete", "duplicate")))
    if op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = draw(values)
    return doc


def resolves(doc, pointer: str) -> bool:
    """Whether every segment of ``pointer`` but the last names a member of ``doc``."""
    node = doc
    for segment in pointer.split("/")[1:-1]:
        if isinstance(node, list) and segment.isdigit() and int(segment) < len(node):
            node = node[int(segment)]
        elif isinstance(node, dict) and segment in node:
            node = node[segment]
        else:
            return False
    return True
