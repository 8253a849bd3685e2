"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Timing-sensitive checks use generous bounds meant for commodity
hardware.
"""
import json
import random
import time
from collections import Counter

from chainplan import (
    ExploitMatrix,
    PrivilegeLevel,
    apply,
    check_plan,
    cli,
    exploit_key,
    find_plan,
    find_top_k,
    ground,
    network_from_dict,
    records_from_dict,
)
from chainplan.analysis import find_chains, privilege_sensitivity, transform_matrix
from chainplan.classifier import build_prompt, default_few_shots, evaluate, \
    extract_required_privilege
from chainplan.netmodel import select_relevant_exploits
from chainplan.pddlgen import (
    CONNECT_ACTIONS,
    Atom,
    compromised_atom,
    emit_domain,
    emit_problem,
    parse_pddl,
    to_pddl,
)
from chainplan.planner import applicable_actions
from chainplan.synth import purdue_fixture, random_fixture

from conftest import FIXTURES, MOTIVATING_CHAIN, aix_invscout_record, any_level_goal, \
    build_task
from oracles import brute_force_minimal_sets, cvss_required_privilege_letter, minimal_members
from test_classifier import CVSS_TABLE, _LETTER
from test_pddlgen import EXPECTED_COUCHDB

NETWORK = str(FIXTURES / "motivating_network.json")
CATALOG = str(FIXTURES / "motivating_catalog.json")


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_c1_motivating_chain_reproduction(capsys, motivating_network,
                                          motivating_matrix):
    start = time.perf_counter()
    search = find_chains(motivating_network, motivating_matrix, k=13)
    elapsed = time.perf_counter() - start
    assert [p.steps for p in search.plans] == [MOTIVATING_CHAIN]
    assert elapsed < 1.0

    code = cli.main(["plan", "--network", NETWORK, "--catalog", CATALOG,
                     "--k", "13", "--format", "json", "--no-meta"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert tuple(s["action"] for s in payload["chains"][0]["steps"]) \
        == MOTIVATING_CHAIN
    with capsys.disabled():
        _report("1", f"exact 5-step chain reproduced in {elapsed:.3f}s")


def test_c2_alternative_chain_discovery(motivating_network, bpf_matrix):
    _, _, task = build_task(motivating_network, bpf_matrix)
    plans = find_top_k(task, 13)
    assert len(plans) == 2
    prefixes = {p.steps[:-1] for p in plans}
    assert len(prefixes) == 1  # the two chains differ only in the final PE
    assert {p.steps[-1] for p in plans} == {
        "linux_kernel_udp_fragmentation_offset_ufo_pe db_server agent",
        "bpf_sign_extension_priv_esc db_server agent",
    }
    assert {exploit_key(task, p) for p in plans} == brute_force_minimal_sets(task)
    _report("2", "bpf variant yields exactly 2 chains differing in the final PE")


def test_c3_oracle_equivalence():
    start = time.perf_counter()
    qualifying = compared = non_empty = any_level = 0
    seed = 0
    while qualifying < 200:
        seed += 1
        assert seed < 2000, "generator did not produce enough qualifying tasks"
        net_dict, cat_dict = random_fixture(seed)
        net = network_from_dict(net_dict)
        matrix = ExploitMatrix(tuple(records_from_dict(cat_dict)))
        relevance = select_relevant_exploits(net, matrix)
        if not relevance.relevant:
            continue
        task = ground(emit_domain(relevance, matrix, net), emit_problem(net))
        if len(task.exploit_actions) > 12 or len(net.hosts) > 6:
            continue
        qualifying += 1
        # (task, goal CNF or None for the task's, oracle): the default goal,
        # then each target at every level, and at any level as the sweep asks
        searches = [(task, None, brute_force_minimal_sets(task))]
        for host in sorted(net.host_names()):
            if host == net.scenario.attacker_host:
                continue
            per_level = []
            for level in (PrivilegeLevel.LOW, PrivilegeLevel.HIGH, PrivilegeLevel.ROOT):
                goal_task = task.with_goal((compromised_atom(host, level).render(),))
                per_level.append(brute_force_minimal_sets(goal_task))
                searches.append((goal_task, None, per_level[-1]))
            any_level_oracle = minimal_members(set().union(*per_level))
            searches.append((task, any_level_goal(host), any_level_oracle))
        for goal_task, goal, oracle in searches:
            keys = {exploit_key(goal_task, p)
                    for p in find_top_k(goal_task, 10 ** 6, goal=goal)}
            assert keys == oracle, f"seed {seed} disagrees on {goal or sorted(goal_task.goal)}"
            compared += 1
            non_empty += bool(keys)
            any_level += goal is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert non_empty >= 400
    assert any_level >= 400
    _report("3", f"top-k equals brute force on {qualifying} random tasks "
                 f"({compared} goals, {any_level} of them any-level, {non_empty} with plans) "
                 f"in {elapsed:.1f}s")


def test_c4_sensitivity_direction(motivating_network):
    # randomized direction check
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        assert seed < 2000
        net_dict, cat_dict = random_fixture(seed, homogeneous_services=True)
        net = network_from_dict(net_dict)
        matrix = ExploitMatrix(tuple(records_from_dict(cat_dict)))
        relevance = select_relevant_exploits(net, matrix)
        if not relevance.relevant:
            continue
        task = ground(emit_domain(relevance, matrix, net), emit_problem(net))
        if len(task.exploit_actions) > 14:
            continue
        result = privilege_sensitivity(net, matrix, k=10 ** 6)
        assert result.lower_bound <= result.baseline <= result.upper_bound, \
            f"seed {seed}: {result}"
        checked += 1

    # the LB transform removes the HIGH-dependent chain from the distractor fixture
    data = json.loads((FIXTURES / "motivating_catalog.json").read_text())
    data["records"].append({
        "id": "kernel_service_config_pe", "name": "x", "source": "other",
        "description": "d", "cves": [], "cvss_vectors": [],
        "vulnerable_configs": ["cpe:2.3:o:linux:linux_kernel:4.8.0:*:*:*:*:*:*:*"],
        "class": "PE_H_R",
    })
    matrix = ExploitMatrix(tuple(records_from_dict(data)))
    baseline = find_chains(motivating_network, matrix, k=50)
    assert {exploit_key(baseline.task, p) for p in baseline.plans} \
        == brute_force_minimal_sets(baseline.task)
    lb = find_chains(motivating_network, transform_matrix(matrix, "lb"), k=50)
    assert {exploit_key(lb.task, p) for p in lb.plans} \
        == brute_force_minimal_sets(lb.task)
    assert len(baseline.plans) == 2 and len(lb.plans) == 1
    _report("4", f"LB <= baseline <= UB on {checked} fixtures; "
                 "LB removes the HIGH-dependent chain")


def _canonical_schema(schema):
    """Precondition clause multiset + effects under positional param renaming."""
    rename = {name: f"?p{i}" for i, (name, _) in enumerate(schema.parameters)}

    def atom(a):
        return (a.name,) + tuple(rename.get(arg, arg) for arg in a.args)

    clauses = Counter(frozenset(atom(a) for a in clause)
                      for clause in schema.precondition)
    return clauses, tuple(atom(a) for a in schema.effects), \
        tuple(kind for _, kind in schema.parameters)


def test_c5_pddl_fidelity(motivating_network, motivating_matrix):
    relevance = select_relevant_exploits(motivating_network, motivating_matrix)
    domain = emit_domain(relevance, motivating_matrix, motivating_network)
    problem = emit_problem(motivating_network)

    couch = {a.name: a for a in domain.actions}[
        "apache_couchdb_arbitrary_command_execution"]
    assert _canonical_schema(couch) == _canonical_schema(EXPECTED_COUCHDB)

    init = {a.render() for a in problem.init}
    listing_atoms = {
        "(is_compromised attacker_host agent ROOT_PRIVILEGES)",
        "(connected_to_network attacker_host dmz)",
        "(connected_to_network web_server dmz)",
        "(connected_to_network web_server lan)",
        "(connected_to_network db_server lan)",
        "(has_product web_server o--canonical--ubuntu_linux)",
        "(has_version web_server o--canonical--ubuntu_linux ma16 mi4 pa0)",
        "(has_product web_server a--drupal--drupal)",
        "(has_version web_server a--drupal--drupal ma8 mi6 pa9)",
        "(TCP_listen web_server a--drupal--drupal)",
        "(has_product web_server a--php--php)",
        "(has_version web_server a--php--php ma7 mi0 pa33)",
        "(has_product db_server o--linux--linux_kernel)",
        "(has_version db_server o--linux--linux_kernel ma4 mi8 pa0)",
        "(has_product db_server a--apache--couchdb)",
        "(has_version db_server a--apache--couchdb ma2 mi0 pa0)",
        "(TCP_listen db_server a--apache--couchdb)",
    }
    assert listing_atoms <= init
    assert problem.goal == (
        Atom("is_compromised", ("db_server", "agent", "ROOT_PRIVILEGES")),)

    assert parse_pddl(to_pddl(domain)) == domain
    assert parse_pddl(to_pddl(problem)) == problem
    _report("5", "CouchDB action structurally matches; problem covers every "
                 "expected init atom; both documents round-trip")


def test_c6_scaling():
    net_dict, cat_dict = purdue_fixture(hosts=200)
    net = network_from_dict(net_dict)
    matrix = ExploitMatrix(tuple(records_from_dict(cat_dict)))
    assert sum(1 for h in net.hosts if h.name != net.scenario.attacker_host) == 200
    assert len(net.subnets) == 6

    relevance = select_relevant_exploits(net, matrix)
    domain = emit_domain(relevance, matrix, net)
    exploit_schemas = [a for a in domain.actions if a.name not in CONNECT_ACTIONS]
    assert len(exploit_schemas) >= 83

    problem = emit_problem(net)
    task = ground(domain, problem)

    start = time.perf_counter()
    plan = find_plan(task)
    single = time.perf_counter() - start
    assert plan is not None
    assert check_plan(task, plan)
    assert single < 10.0

    start = time.perf_counter()
    plans = find_top_k(task, 13)
    thirteen = time.perf_counter() - start
    assert len(plans) == 13
    assert thirteen < 60.0
    for p in plans:
        assert check_plan(task, p)
    _report("6", f"200 hosts / {len(exploit_schemas)} exploit schemas: first plan "
                 f"{single:.2f}s, 13 plans {thirteen:.2f}s")


def test_c7_classification_plumbing():
    bundle = build_prompt(aix_invscout_record(), default_few_shots())
    golden = (FIXTURES.parent / "tests" / "golden" / "prompt_aix.txt") \
        .read_text(encoding="utf-8")
    assert bundle.render_text().encode("utf-8") == golden.encode("utf-8")

    for vector, expected in CVSS_TABLE:
        got = extract_required_privilege([vector])
        assert got == (None if expected is None else _LETTER[expected])
        assert cvss_required_privilege_letter([vector]) == expected

    from chainplan import parse_class_name
    from chainplan.classifier import ClassificationOutcome

    truth = [("r1", parse_class_name("RCE_TCP_N_L")),
             ("r2", parse_class_name("RCE_TCP_N_H")),
             ("r3", parse_class_name("PE_L_R"))]
    predictions = [
        ClassificationOutcome("r1", parse_class_name("RCE_TCP_N_L"), "manual"),
        ClassificationOutcome("r2", parse_class_name("RCE_TCP_N_R"), "manual"),
        ClassificationOutcome("r3", parse_class_name("PE_L_R"), "manual"),
    ]
    report = evaluate(predictions, truth)
    assert abs(report.type.f1 - 1.0) < 1e-9
    assert abs(report.acquired.precision - 0.5) < 1e-9
    assert abs(report.acquired.recall - 2 / 3) < 1e-9
    assert abs(report.acquired.f1 - 5 / 9) < 1e-9
    assert abs(report.overall.f1 - 2 / 3) < 1e-9
    assert abs(report.overall.recall - 2 / 3) < 1e-9
    _report("7", "golden prompt byte-exact; 12-vector CVSS table and weighted "
                 "metrics match their oracles")


def test_c8_monotonicity_and_validation():
    rng = random.Random(2024)
    walks = 0
    plans_checked = 0
    seed = 0
    while walks < 1000:
        seed += 1
        assert seed < 4000
        net_dict, cat_dict = random_fixture(seed)
        net = network_from_dict(net_dict)
        matrix = ExploitMatrix(tuple(records_from_dict(cat_dict)))
        relevance = select_relevant_exploits(net, matrix)
        if not relevance.relevant:
            continue
        task = ground(emit_domain(relevance, matrix, net), emit_problem(net))
        for _ in range(6):
            state = frozenset(task.init)
            for _ in range(rng.randint(1, 10)):
                options = applicable_actions(task, state)
                if not options:
                    break
                successor = apply(state, rng.choice(options))
                assert len(successor) >= len(state)
                assert state <= successor
                state = successor
            walks += 1
        if len(task.exploit_actions) <= 24:
            for plan in find_top_k(task, 10):
                assert check_plan(task, plan)
                plans_checked += 1
    _report("8", f"{walks} applicable walks stayed monotone; "
                 f"{plans_checked} planner outputs validated")
