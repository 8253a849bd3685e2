import json
import statistics

import pytest
from hypothesis import assume, given, settings, strategies as st

from chainplan import (
    ExploitMatrix,
    PrivilegeLevel,
    compile_network,
    exploit_key,
    network_from_dict,
    records_from_dict,
)
from chainplan.analysis import (
    find_chains,
    privilege_sensitivity,
    sweep_targets,
    to_chain_report,
    transform_matrix,
)
from chainplan.pddlgen import parse_pddl, to_pddl
from chainplan.planner import Plan, ground
from chainplan.errors import UnknownExploit
from chainplan.synth import purdue_fixture, random_fixture

from conftest import FIXTURES, MOTIVATING_CHAIN, build_task, fixture_pair
from oracles import brute_force_minimal_sets, minimal_members, network_minimal_sets, \
    network_steps


def _matrix_with_distractor():
    """Planted catalog plus a PE that needs HIGH, feedable only by CouchDB."""
    data = json.loads((FIXTURES / "motivating_catalog.json").read_text())
    data["records"].append({
        "id": "kernel_service_config_pe",
        "name": "Kernel service misconfiguration escalation",
        "source": "other",
        "description": "Escalates from an administrative account to root.",
        "cves": [],
        "cvss_vectors": [],
        "vulnerable_configs": ["cpe:2.3:o:linux:linux_kernel:4.8.0:*:*:*:*:*:*:*"],
        "class": "PE_H_R",
    })
    return ExploitMatrix(tuple(records_from_dict(data)))


class TestChainReport:
    def test_motivating_report(self, motivating_task, motivating_matrix):
        _, _, task = motivating_task
        report = to_chain_report(Plan(steps=MOTIVATING_CHAIN), task, motivating_matrix)
        assert report.total_actions == 5
        assert report.chain_length_exploits == 3
        kinds = [s.kind for s in report.steps]
        assert kinds == ["connect", "rce", "connect", "rce", "pe"]
        privileges = [s.privilege_after for s in report.steps if s.kind != "connect"]
        assert privileges == [PrivilegeLevel.LOW, PrivilegeLevel.HIGH,
                              PrivilegeLevel.ROOT]
        targets = [s.to_host for s in report.steps if s.kind != "connect"]
        assert targets == ["web_server", "db_server", "db_server"]
        names = [s.exploit_name for s in report.steps if s.kind != "connect"]
        assert names[0] == "Drupal RESTful Web Services unserialize() RCE"

    def test_privilege_timeline_nondecreasing(self, motivating_network, bpf_matrix):
        _, _, task = build_task(motivating_network, bpf_matrix)
        from chainplan.planner import find_top_k

        for plan in find_top_k(task, 10):
            report = to_chain_report(plan, task, bpf_matrix)
            latest = {}
            for step in report.steps:
                if step.kind == "connect":
                    continue
                previous = latest.get(step.to_host, PrivilegeLevel.NONE)
                assert step.privilege_after >= previous
                latest[step.to_host] = step.privilege_after

    def test_empty_plan(self, motivating_task, motivating_matrix):
        _, _, task = motivating_task
        report = to_chain_report(Plan(steps=()), task, motivating_matrix)
        assert report.steps == ()
        assert report.total_actions == 0
        assert report.chain_length_exploits == 0

    def test_connect_only_plan(self, motivating_task, motivating_matrix):
        _, _, task = motivating_task
        report = to_chain_report(Plan(steps=MOTIVATING_CHAIN[:1]), task,
                                 motivating_matrix)
        assert report.chain_length_exploits == 0
        assert report.steps[0].kind == "connect"
        assert report.steps[0].protocol == "TCP"

    def test_unknown_exploit(self, motivating_task):
        _, _, task = motivating_task
        thin = ExploitMatrix(tuple(records_from_dict(
            json.loads((FIXTURES / "motivating_catalog.json").read_text())
        ))[:1])
        with pytest.raises(UnknownExploit):
            to_chain_report(Plan(steps=MOTIVATING_CHAIN), task, thin)

    def test_task_from_parsed_text_has_no_records(self, motivating_task,
                                                  motivating_matrix):
        domain, problem, _ = motivating_task
        parsed = ground(parse_pddl(to_pddl(domain)), parse_pddl(to_pddl(problem)))
        with pytest.raises(UnknownExploit, match="no catalog record id"):
            to_chain_report(Plan(steps=MOTIVATING_CHAIN), parsed, motivating_matrix)

    def test_json_shape(self, motivating_task, motivating_matrix):
        _, _, task = motivating_task
        payload = to_chain_report(Plan(steps=MOTIVATING_CHAIN), task,
                                  motivating_matrix).to_dict()
        assert payload["chain_length_exploits"] == 3
        assert payload["steps"][1]["privilege_after"] == "LOW"
        json.dumps(payload)


def _provenance_pair():
    """``dual`` matches two products, so its schemas are named
    ``dual__a--v--alpha`` and ``dual__a--v--beta``; a second, irrelevant
    record has exactly the first of those names as its id."""
    net = network_from_dict({
        "name": "provenance",
        "subnets": ["z"],
        "hosts": [
            {"name": "a0", "subnets": ["z"], "products": []},
            {"name": "h1", "subnets": ["z"], "products": [
                {"cpe": "cpe:2.3:a:v:alpha:1.0.0:*:*:*:*:*:*:*", "tcp_listen": True},
                {"cpe": "cpe:2.3:a:v:beta:1.0.0:*:*:*:*:*:*:*", "tcp_listen": True}]},
        ],
        "scenario": {"attacker_host": "a0", "goal_host": "h1", "goal_privilege": "LOW"},
    })
    base = {"source": "other", "description": "d", "cves": [], "cvss_vectors": []}
    matrix = ExploitMatrix(tuple(records_from_dict({"records": [
        {**base, "id": "dual", "name": "dual", "class": "RCE_TCP_N_L",
         "vulnerable_configs": ["cpe:2.3:a:v:alpha:1.0.0:*:*:*:*:*:*:*",
                                "cpe:2.3:a:v:beta:1.0.0:*:*:*:*:*:*:*"]},
        {**base, "id": "dual__a--v--alpha", "name": "impostor", "class": "RCE_TCP_N_H",
         "vulnerable_configs": ["cpe:2.3:o:microsoft:windows:10:*:*:*:*:*:*:*"]},
    ]})))
    return net, matrix


class TestProvenance:
    def test_steps_credit_the_record_that_emitted_them(self):
        net, matrix = _provenance_pair()
        search = find_chains(net, matrix, k=13)
        assert len(search.plans) == 2
        for plan in search.plans:
            steps = to_chain_report(plan, search.task, matrix).to_dict()["steps"]
            exploits = [s for s in steps if s["kind"] != "connect"]
            assert len(exploits) == 1
            for step in exploits:
                assert step["exploit_id"] == "dual"
                assert step["exploit_name"] == "dual"
                assert step["privilege_after"] == "LOW"


_LEVELS = (PrivilegeLevel.LOW, PrivilegeLevel.HIGH, PrivilegeLevel.ROOT)


def _reference_sweep(net, matrix, k):
    """A full compile and exhaustive search per (host, level), then the
    shortest k of the minimal exploit sets of the union, as a --no-meta
    sweep dict. Drained searches make the union every minimal chain at
    some level, so the reference does not inherit a per-level truncation."""
    per_host = {}
    for host in sorted(net.host_names()):
        if host == net.scenario.attacker_host:
            continue
        keys = set()
        for level in _LEVELS:
            search = find_chains(net.with_goal(host, level), matrix, k=10 ** 7,
                                 max_expansions=10 ** 7)
            keys |= {exploit_key(search.task, plan) for plan in search.plans}
        kept = sorted(minimal_members(keys), key=len)[:k]
        per_host[host] = {
            "plans": len(kept),
            "mean_chain_length": statistics.fmean(len(key) for key in kept)
            if kept else 0.0,
        }
    return {"per_host": per_host,
            "total": sum(row["plans"] for row in per_host.values())}


class TestCompileLog:
    def test_relevance_and_grounding_say_what_they_did(self, caplog):
        # 800 installed products are 25 distinct CPEs: the 86 records take
        # 2,033 match decisions, each against the distinct CPEs it may target
        net_dict, cat_dict = purdue_fixture(hosts=400)
        net = network_from_dict(net_dict)
        matrix = ExploitMatrix(tuple(records_from_dict(cat_dict)))
        with caplog.at_level("DEBUG", logger="chainplan"):
            compile_network(net, matrix)
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("chainplan.netmodel", "relevance: 86 records kept, 0 discarded; "
                                   "25 distinct CPEs, 2033 match decisions"),
            ("chainplan.planner", "ground: 90 schemas, 446 bindings tried, "
                                  "303 actions kept, 2763 atoms; exploration: 6 rounds, "
                                  "271 bindings offered, 153 exploits fired, "
                                  "118 instances left waiting"),
        ]


class TestSweepEquivalence:
    @pytest.mark.parametrize("k", [1, 13])
    def test_motivating(self, motivating_network, motivating_matrix, bpf_matrix, k):
        for matrix in (motivating_matrix, bpf_matrix):
            result = sweep_targets(motivating_network, matrix, k=k)
            assert result.to_dict(include_timing=False) == \
                _reference_sweep(motivating_network, matrix, k)

    @pytest.mark.parametrize("seed", range(16))
    def test_random_fixtures(self, seed):
        net, matrix = fixture_pair(seed)
        result = sweep_targets(net, matrix, k=13)
        assert result.to_dict(include_timing=False) == _reference_sweep(net, matrix, 13)

    def test_a_level_truncated_chain_is_counted(self):
        # h2's 13 shortest any-level chains are not among the 13 shortest of
        # any single level, so per-level top-13 lists held only 12 of them
        entry = sweep_targets(*fixture_pair(10), k=13).per_host["h2"]
        assert (entry.plans, entry.mean_chain_length) == (13, 25 / 13)

    def test_empty_domain_reports_zero_per_host(self, motivating_network):
        matrix = ExploitMatrix(tuple(records_from_dict({"records": [{
            "id": "smb", "name": "smb", "source": "other", "description": "d",
            "cves": [], "cvss_vectors": [], "class": "RCE_TCP_N_H",
            "vulnerable_configs": ["cpe:2.3:a:microsoft:smb:1.0:*:*:*:*:*:*:*"],
        }]})))
        result = sweep_targets(motivating_network, matrix, k=13)
        assert result.to_dict(include_timing=False) == \
            _reference_sweep(motivating_network, matrix, 13)
        assert result.total == 0


class TestSweep:
    def test_motivating_counts(self, motivating_network, motivating_matrix):
        result = sweep_targets(motivating_network, motivating_matrix, k=13)
        assert set(result.per_host) == {"web_server", "db_server"}
        assert result.per_host["db_server"].plans == 1
        assert result.per_host["web_server"].plans == 1
        assert result.per_host["web_server"].mean_chain_length == 1.0
        # the minimal db_server compromise stops after CouchDB (HIGH)
        assert result.per_host["db_server"].mean_chain_length == 2.0
        assert result.total == 2

    def test_counts_match_oracle(self, motivating_network, motivating_matrix):
        from chainplan import PrivilegeLevel

        result = sweep_targets(motivating_network, motivating_matrix, k=13)
        for host in ("web_server", "db_server"):
            union = set()
            for level in (PrivilegeLevel.LOW, PrivilegeLevel.HIGH,
                          PrivilegeLevel.ROOT):
                retargeted = motivating_network.with_goal(host, level)
                from chainplan.netmodel import select_relevant_exploits

                if not select_relevant_exploits(retargeted,
                                                motivating_matrix).relevant:
                    continue
                _, _, task = build_task(retargeted, motivating_matrix)
                union |= brute_force_minimal_sets(task)
            expected = len([key for key in union
                            if not any(other < key for other in union)])
            assert result.per_host[host].plans == expected

    def test_host_without_chains_reports_zero(self, motivating_network):
        thin = ExploitMatrix(tuple(records_from_dict(
            json.loads((FIXTURES / "motivating_catalog.json").read_text()))[:1]))
        # only the drupal exploit: db_server runs no matching product
        result = sweep_targets(motivating_network, thin, k=13)
        assert result.per_host["db_server"].plans == 0
        assert result.per_host["web_server"].plans == 1
        assert result.total == 1

    def test_total_is_sum(self):
        for seed in (2, 4, 6):
            net, matrix = fixture_pair(seed)
            result = sweep_targets(net, matrix, k=20)
            assert result.total == sum(e.plans for e in result.per_host.values())


class TestSensitivity:
    def test_transforms(self, motivating_matrix):
        ub = transform_matrix(motivating_matrix, "ub")
        assert ub.record("drupal_restful_web_service").exploit_class.acquired \
            is PrivilegeLevel.HIGH
        assert ub.record("apache_couchdb_arbitrary_command_execution") \
            .exploit_class.acquired is PrivilegeLevel.HIGH
        lb = transform_matrix(motivating_matrix, "lb")
        assert lb.record("apache_couchdb_arbitrary_command_execution") \
            .exploit_class.acquired is PrivilegeLevel.LOW
        # PE classes never touched
        assert lb.record("linux_kernel_udp_fragmentation_offset_ufo_pe") \
            .exploit_class.acquired is PrivilegeLevel.ROOT

    def test_ub_noop_when_no_low_grants(self):
        data = json.loads((FIXTURES / "motivating_catalog.json").read_text())
        data["records"] = [r for r in data["records"]
                           if r["class"] != "RCE_TCP_N_L"]
        matrix = ExploitMatrix(tuple(records_from_dict(data)))
        assert transform_matrix(matrix, "ub") == matrix

    def test_lb_skips_degenerate_shift(self):
        data = {"records": [{
            "id": "auth_rce", "name": "x", "source": "other", "description": "d",
            "cves": [], "cvss_vectors": [],
            "vulnerable_configs": ["cpe:2.3:a:v:p:1.0.0:*:*:*:*:*:*:*"],
            "class": "RCE_TCP_L_H",
        }]}
        matrix = ExploitMatrix(tuple(records_from_dict(data)))
        # lowering acquired to LOW would invert required < acquired: skipped
        assert transform_matrix(matrix, "lb") == matrix

    def test_mode_validation(self, motivating_matrix):
        with pytest.raises(ValueError):
            transform_matrix(motivating_matrix, "sideways")

    def test_lb_removes_high_dependent_chain(self, motivating_network):
        matrix = _matrix_with_distractor()
        baseline = find_chains(motivating_network, matrix, k=50)
        keys = {exploit_key(baseline.task, p) for p in baseline.plans}
        assert keys == brute_force_minimal_sets(baseline.task)
        assert len(keys) == 2

        result = privilege_sensitivity(motivating_network, matrix, k=50)
        assert result.baseline == 2
        assert result.lower_bound == 1
        assert result.upper_bound == 2
        # the surviving LB chain is the one that does not need HIGH
        lb_matrix = transform_matrix(matrix, "lb")
        lb = find_chains(motivating_network, lb_matrix, k=50)
        lb_keys = {exploit_key(lb.task, p) for p in lb.plans}
        assert lb_keys == brute_force_minimal_sets(lb.task)
        (surviving,) = lb_keys
        assert any("udp_fragmentation" in step for step in surviving)

    def test_direction_on_random_fixtures(self):
        from chainplan.netmodel import select_relevant_exploits

        checked = 0
        seed = 0
        while checked < 25 and seed < 400:
            seed += 1
            net, matrix = fixture_pair(seed, homogeneous_services=True)
            if not select_relevant_exploits(net, matrix).relevant:
                continue
            _, _, task = build_task(net, matrix)
            if len(task.exploit_actions) > 14:
                continue
            result = privilege_sensitivity(net, matrix, k=10**6)
            assert result.lower_bound <= result.baseline <= result.upper_bound
            checked += 1
        assert checked == 25


# --- the network model against the planner ------------------------------------

# version strings split to concrete, partial and wildcard triples: "2" is
# 2.0.0, "2.x" is (2, *, 0), "2.1.0a" is (2, 1, *), and "*" and "-" are all
# wildcards
_VERSIONS = ("1.0.0", "2.0.0", "2.1.0", "2", "2.1", "2.x", "x.1.0", "2.1.0a", "*", "-")
_EXTRAS = ("*", "-", "sp1", "sp2")


@st.composite
def mutated_fixtures(draw):
    """A small ``random_fixture`` pair, as its network and catalog documents,
    whose installed products and vulnerable configs may get another version,
    update or edition, with a drawn goal privilege."""
    net_dict, cat_dict = random_fixture(draw(st.integers(0, 10 ** 6)), max_hosts=4)

    def mutate(uri):
        fields = uri.split(":")
        fields[5] = draw(st.just(fields[5]) | st.sampled_from(_VERSIONS))
        for i in (6, 7):  # update, edition
            fields[i] = draw(st.just(fields[i]) | st.sampled_from(_EXTRAS))
        return ":".join(fields)

    for host in net_dict["hosts"]:
        for product in host["products"]:
            product["cpe"] = mutate(product["cpe"])
    for record in cat_dict["records"]:
        record["vulnerable_configs"] = [mutate(uri) for uri in record["vulnerable_configs"]]
    net_dict["scenario"]["goal_privilege"] = draw(st.sampled_from(("LOW", "HIGH", "ROOT")))
    return net_dict, cat_dict


def _chain_steps(net, matrix):
    """Every chain ``find_chains`` returns, as its set of (record id, from
    host, to host) exploit steps."""
    search = find_chains(net, matrix, k=10 ** 6)
    return {frozenset((step.exploit_id, step.from_host, step.to_host)
                      for step in to_chain_report(plan, search.task, matrix).steps
                      if step.kind != "connect")
            for plan in search.plans}


def _web2_pair(installed, config):
    """The motivating network plus a dmz host ``web2`` whose drupal listens on
    TCP, with goal web2 at LOW; the drupal exploit's config is ``config``."""
    net_dict = json.loads((FIXTURES / "motivating_network.json").read_text())
    net_dict["hosts"].append({"name": "web2", "subnets": ["dmz"], "products": [
        {"cpe": f"cpe:2.3:a:drupal:drupal:{installed}:*:*:*:*:*:*:*", "tcp_listen": True}]})
    net_dict["scenario"].update(goal_host="web2", goal_privilege="LOW")
    cat_dict = json.loads((FIXTURES / "motivating_catalog.json").read_text())
    cat_dict["records"][0]["vulnerable_configs"] = [
        f"cpe:2.3:a:drupal:drupal:{config}:*:*:*:*:*:*:*"]
    return network_from_dict(net_dict), ExploitMatrix(tuple(records_from_dict(cat_dict)))


class TestNetworkOracle:
    @pytest.mark.parametrize("installed,config,expected", [
        # config 8.6.9a splits to (8, 6, *): it matches web_server's 8.6.9,
        # never web2's 8.7.0
        ("8.7.0", "8.6.9a", set()),
        # web2's 8.6.9a is (8, 6, *), which config 8.6.9 matches: web2 falls
        # from the attacker's host, or from web_server once that falls
        ("8.6.9a", "8.6.9",
         {frozenset({("drupal_restful_web_service", "attacker_host", "web2")}),
          frozenset({("drupal_restful_web_service", "attacker_host", "web_server"),
                     ("drupal_restful_web_service", "web_server", "web2")})}),
    ])
    def test_partial_versions(self, installed, config, expected):
        net, matrix = _web2_pair(installed, config)
        assert network_minimal_sets(net, matrix) == expected
        assert _chain_steps(net, matrix) == expected

    @settings(max_examples=300, deadline=None)
    @given(docs=mutated_fixtures())
    def test_mutated_random_fixtures(self, docs):
        net = network_from_dict(docs[0])
        matrix = ExploitMatrix(tuple(records_from_dict(docs[1])))
        # the brute force tries every subset of the steps
        assume(len(network_steps(net, matrix)) <= 12)
        assert _chain_steps(net, matrix) == network_minimal_sets(net, matrix)
