import dataclasses
import functools
import json
import random
import re
import stat
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from chainplan import (
    ExploitMatrix,
    PrivilegeLevel,
    apply,
    check_plan,
    exploit_key,
    find_plan,
    find_top_k,
    ground,
    is_applicable,
    load_catalog,
    load_network,
    network_from_dict,
    records_from_dict,
)
from chainplan import planner
from chainplan import cli
from chainplan.analysis import privilege_sensitivity, sweep_targets
from chainplan.netmodel import select_relevant_exploits
from chainplan.pddlgen import (
    CONNECT_ACTIONS,
    ActionSchema,
    Atom,
    PddlDocument,
    PlanFile,
    PlanStep,
    compromised_atom,
    parse_pddl,
    parse_plan,
    to_pddl,
)
from chainplan.planner import (
    ExternalPlannerConfig,
    GroundAction,
    Plan,
    PlanningTask,
    applicable_actions,
    match_plan,
    run_external,
)
from chainplan.synth import dense_fixture, purdue_fixture, random_fixture
from chainplan.errors import (
    ArityMismatch,
    InvalidExternalPlan,
    NotApplicable,
    PlannerTimeout,
    ProcessError,
    TypeMismatch,
    UnknownActionId,
)

from conftest import FIXTURES, MOTIVATING_CHAIN, any_level_goal, build_task, fixture_pair
from oracles import brute_force_any_of, brute_force_minimal_sets, naive_fired_exploits, \
    naive_ground_all, naive_ground_ids, saturate


class TestGround:
    def test_couchdb_only_from_web(self, motivating_task):
        _, _, task = motivating_task
        couch = [a for a in task.actions
                 if a.name == "apache_couchdb_arbitrary_command_execution"]
        assert [(a.args[0], a.args[1]) for a in couch] == [("web_server", "db_server")]

    @staticmethod
    def _reachable_part_of_full_grounding(domain, problem, task):
        # the ids are full grounding's exploits that fire under saturation,
        # plus the connects those exploits or the goal name
        assert {a.id for a in task.actions} == naive_ground_ids(domain, problem)
        # and an exploit full grounding gives that grounding left out never
        # fires in the fixpoint of every action full grounding gives
        full = naive_ground_all(domain, problem)
        left_out = {i for i, (is_connect, _, _) in full.items() if not is_connect} - {
            a.id for a in task.exploit_actions}
        assert not left_out & naive_fired_exploits(domain, problem)
        return left_out

    def test_matches_naive_oracle_motivating(self, motivating_task):
        self._reachable_part_of_full_grounding(*motivating_task)

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_matches_naive_oracle_random(self, seed):
        net, matrix = fixture_pair(seed)
        from chainplan.netmodel import select_relevant_exploits

        if not select_relevant_exploits(net, matrix).relevant:
            pytest.skip("nothing relevant")
        self._reachable_part_of_full_grounding(*build_task(net, matrix))

    def test_left_out_exploits_are_those_that_cannot_fire(self):
        # over every fixture the tests above sample, some exploit of full
        # grounding is left out, and some is kept
        left, kept = 0, 0
        for seed in [1, 2, 3, 5, 8, 13, 21, 34]:
            net, matrix = fixture_pair(seed)
            if not select_relevant_exploits(net, matrix).relevant:
                continue
            domain, problem, task = build_task(net, matrix)
            left += len(self._reachable_part_of_full_grounding(domain, problem, task))
            kept += len(task.exploit_actions)
        assert left > 0 and kept > 0

    def test_an_exploit_without_an_achieving_connect_stays_unknown(self, motivating_task):
        # attacker_host shares no subnet with db_server, so no connect gives
        # the connection the couchdb exploit needs: full grounding drops it
        domain, problem, task = motivating_task
        dropped = "apache_couchdb_arbitrary_command_execution attacker_host db_server agent"
        assert dropped not in naive_ground_all(domain, problem)
        with pytest.raises(UnknownActionId):
            task.action(dropped)
        assert task.action("apache_couchdb_arbitrary_command_execution web_server db_server "
                           "agent").precondition[1] == frozenset(
            {"(TCP_connected web_server db_server a--apache--couchdb)"})

    def test_id_is_stored_at_construction(self, motivating_task):
        _, _, task = motivating_task
        action = task.actions[0]
        assert vars(action)["id"] == " ".join((action.name,) + action.args)
        moved = dataclasses.replace(action, args=("x",) + action.args[1:])
        assert moved.id == " ".join((action.name, "x") + action.args[1:])

    # seeds whose full grounding has connects that no exploit needs
    @pytest.mark.parametrize("seed", [5, 8])
    def test_every_full_grounding_id_resolves(self, seed):
        domain, problem, task = build_task(*fixture_pair(seed))
        full = naive_ground_all(domain, problem)
        assert len(full) > len(task.actions)
        for action_id, (_, clauses, effects) in full.items():
            action = task.action(action_id)
            assert action.id == action_id
            assert action.precondition == tuple(
                frozenset("(" + " ".join(atom) + ")" for atom in clause) for clause in clauses)
            assert action.effects == tuple("(" + " ".join(atom) + ")" for atom in effects)

    @pytest.mark.parametrize("seed", [5, 8])
    def test_ids_full_grounding_rejects_stay_unknown(self, seed):
        domain, problem, task = build_task(*fixture_pair(seed))
        full = naive_ground_all(domain, problem)
        bad = []
        for action_id in full:
            name, *args = action_id.split(" ")
            bad += [" ".join([name, *args[:-1]]), action_id + " agent", name.upper()]
            if name in CONNECT_ACTIONS:
                args[-3] = args[-4]  # remote host := local host
                bad.append(" ".join([name, *args]))
                args[-2] = args[-4]  # a host where a product belongs
                bad.append(" ".join([name, *args]))
        assert bad and not set(bad) & set(full)
        for action_id in bad:
            with pytest.raises(UnknownActionId):
                task.action(action_id)

    def test_static_filter_prunes_absent_version(self, motivating_network):
        matrix = ExploitMatrix(tuple(records_from_dict({"records": [{
            "id": "couch_other_version", "name": "x", "source": "other",
            "description": "d", "cves": [], "cvss_vectors": [],
            # 2.x splits to (2, *, 0): it matches installed couchdb 2.0.0
            # only through the wildcard minor
            "vulnerable_configs": ["cpe:2.3:a:apache:couchdb:2.x:*:*:*:*:*:*:*"],
            "class": "RCE_TCP_N_H",
        }]})))
        domain, problem, task = build_task(motivating_network, matrix)
        # the schema's version clause is installed couchdb's 2.0.0, which the
        # static filter keeps on db_server alone. No foothold reaches it, so
        # grounding keeps no instance; the ids that resolve are full grounding's
        (schema,) = [a for a in domain.actions if a.name == "couch_other_version"]
        assert (Atom("has_version", ("?remote_host", "a--apache--couchdb", "ma2", "mi0",
                                     "pa0")),) in schema.precondition
        assert not task.exploit_actions
        hosts = motivating_network.host_names()
        resolved = {(local, remote) for local in hosts for remote in hosts
                    if task._resolver.resolve(f"couch_other_version {local} {remote} agent")}
        assert resolved == {("web_server", "db_server")}
        assert {i for i in naive_ground_all(domain, problem)
                if i.startswith("couch_other_version ")} == {
            "couch_other_version web_server db_server agent"}

    def test_no_self_connect(self, motivating_task):
        _, _, task = motivating_task
        for action in task.connect_actions:
            if action.name.endswith("_trusted"):
                assert action.args[0] != action.args[1]
            else:
                assert action.args[1] != action.args[2]

    def test_runtime_preconditions_are_fluent_only(self, motivating_task):
        _, _, task = motivating_task
        for action in task.actions:
            for clause in action.precondition:
                for atom in clause:
                    assert atom.split()[0].lstrip("(") in (
                        "is_compromised", "TCP_connected", "UDP_connected")

    def test_type_mismatch(self):
        domain = parse_pddl("""(define (domain d)
          (:requirements :strips :typing)
          (:predicates (p ?x - host))
          (:action a :parameters (?x - network)
            :precondition (p ?x)
            :effect (p ?x)))""")
        problem = parse_pddl("""(define (problem q) (:domain d)
          (:objects h1 - host n1 - network)
          (:init (p h1))
          (:goal (p h1)))""")
        with pytest.raises(TypeMismatch):
            ground(domain, problem)

    def test_arity_mismatch(self):
        domain = parse_pddl("""(define (domain d)
          (:requirements :strips :typing)
          (:predicates (p ?x - host))
          (:action a :parameters (?x - host)
            :precondition (p ?x ?x)
            :effect (p ?x)))""")
        problem = parse_pddl("""(define (problem q) (:domain d)
          (:objects h1 - host)
          (:init (p h1))
          (:goal (p h1)))""")
        with pytest.raises(ArityMismatch):
            ground(domain, problem)


    def test_exploit_source_names_the_record(self, motivating_task):
        _, _, task = motivating_task
        assert {a.source[1] for a in task.exploit_actions} == {
            "drupal_restful_web_service",
            "apache_couchdb_arbitrary_command_execution",
            "linux_kernel_udp_fragmentation_offset_ufo_pe",
        }

    def test_parsed_documents_carry_no_record(self, motivating_task):
        domain, problem, _ = motivating_task
        task = ground(parse_pddl(to_pddl(domain)), parse_pddl(to_pddl(problem)))
        assert {a.source[1] for a in task.exploit_actions} == {None}

    def test_repeated_init_atoms_ground_once(self, motivating_network, bpf_matrix):
        domain, problem, task = build_task(motivating_network, bpf_matrix)
        doubled = dataclasses.replace(problem, init=problem.init + problem.init)
        expected_plans = [p.steps for p in find_top_k(task, 5)]
        assert len(expected_plans) == 2
        for dom, prob in ((domain, doubled),
                          (parse_pddl(to_pddl(domain)), parse_pddl(to_pddl(doubled)))):
            again = ground(dom, prob)
            assert [a.id for a in again.actions] == [a.id for a in task.actions]
            assert [p.steps for p in find_top_k(again, 5)] == expected_plans


# names with format directives: a template that let one through would
# misrender or raise; ``hop{1}%s`` has a static clause of two atoms, and a
# ``tcp_connect`` instance achieves both goal atoms
_FORMAT_NAMES_DOMAIN = """(define (domain d%s{})
  (:requirements :strips :typing)
  (:types host tag)
  (:predicates (on%s ?h - host) (up{} ?h - host) (lk%s ?h - host ?g - host)
               (lab{0} ?h - host ?t - tag) (alt}{ ?h - host) (p% ?h - host))
  (:action hop{1}%s
    :parameters (?a{0} - host ?b% - host)
    :precondition (and (on%s ?a{0}) (lab{0} ?b% t{1}) (or (alt}{ ?a{0}) (p% ?b%))
                       (or (up{} ?a{0}) (p% ?a{0})))
    :effect (on%s ?b%))
  (:action tcp_connect
    :parameters (?local_host - host ?remote_host - host)
    :precondition (on%s ?local_host)
    :effect (and (up{} ?remote_host) (lk%s ?local_host ?remote_host))))"""
_FORMAT_NAMES_PROBLEM = """(define (problem q) (:domain d%s{})
  (:objects h1 h{2} h%s - host t{1} - tag)
  (:init (on%s h1) (lab{0} h{2} t{1}) (lab{0} h%s t{1}) (alt}{ h1) (p% h%s))
  (:goal (and (up{} h{2}) (lk%s h1 h{2}))))"""


class TestGroundTemplates:
    """Grounding from compiled schema templates gives what exhaustive
    grounding gives, whatever characters the names hold."""

    def test_format_directives_in_names(self, monkeypatch):
        domain = parse_pddl(_FORMAT_NAMES_DOMAIN)
        problem = parse_pddl(_FORMAT_NAMES_PROBLEM)
        built = []

        def counted(**fields):
            built.append(" ".join((fields["name"],) + fields["args"]))
            return GroundAction(**fields)

        monkeypatch.setattr(planner, "GroundAction", counted)
        task = ground(domain, problem)

        def rendered(clauses, effects):
            return (tuple(frozenset("(" + " ".join(atom) + ")" for atom in clause)
                          for clause in clauses),
                    tuple("(" + " ".join(atom) + ")" for atom in effects))

        full = naive_ground_all(domain, problem)
        assert {a.id for a in task.actions} == naive_ground_ids(domain, problem)
        # no hop can fire: each needs ``up{}`` on its first host, which only
        # a connect from a host a hop reaches gives. Only the connects that
        # achieve a goal atom are kept
        assert [a.id for a in task.actions] == ["tcp_connect h%s h{2}", "tcp_connect h1 h{2}"]
        # the four hops and four connects grounding left out resolve from their ids
        assert len(full) == len(task.actions) + 8
        for action_id, (_, clauses, effects) in full.items():
            action = task.action(action_id)
            assert (action.precondition, action.effects) == rendered(clauses, effects)
        assert task.action("hop{1}%s h1 h{2}").precondition == (
            frozenset({"(on%s h1)"}), frozenset({"(up{} h1)"}))
        assert task.init == {"(on%s h1)", "(lab{0} h{2} t{1})", "(lab{0} h%s t{1})",
                             "(alt}{ h1)", "(p% h%s)"}
        assert task.goal == {"(up{} h{2})", "(lk%s h1 h{2})"}
        # both effects of this connect are goal atoms; it was built once
        assert built.count("tcp_connect h1 h{2}") == 1
        assert len(task.actions) == len({a.id for a in task.actions})

    def test_format_directives_in_gates(self):
        # with ``p%`` on h1 the hops from h1 need no ``up{}``: they fire, and
        # the atoms they add are matched against the hops' gate, ``on%s``
        domain = parse_pddl(_FORMAT_NAMES_DOMAIN)
        problem = parse_pddl(_FORMAT_NAMES_PROBLEM.replace("(p% h%s))", "(p% h%s) (p% h1))"))
        task = ground(domain, problem)
        assert {a.id for a in task.actions} == naive_ground_ids(domain, problem)
        assert [a.id for a in task.exploit_actions] == [
            "hop{1}%s h%s h%s", "hop{1}%s h1 h%s", "hop{1}%s h1 h{2}", "hop{1}%s h{2} h%s"]
        # this hop waits on ``up{}``, which the connect from h1 gives
        assert task.action("hop{1}%s h{2} h%s").precondition == (
            frozenset({"(on%s h{2})"}), frozenset({"(up{} h{2})"}))


# a connect that needs what another connect gives: ``hop h1 h2`` needs
# ``link h1 h2``, whose connect needs ``up h1``, which a ``udp_connect`` from
# h1 gives
_CONNECT_CHAIN_DOMAIN = """(define (domain d)
  (:requirements :strips :typing)
  (:types host)
  (:predicates (on ?h - host) (up ?h - host) (link ?a - host ?b - host))
  (:action hop
    :parameters (?a - host ?b - host)
    :precondition (and (on ?a) (link ?a ?b))
    :effect (on ?b))
  (:action udp_connect
    :parameters (?local_host - host ?remote_host - host)
    :precondition (on ?local_host)
    :effect (up ?local_host))
  (:action tcp_connect
    :parameters (?local_host - host ?remote_host - host)
    :precondition (up ?local_host)
    :effect (link ?local_host ?remote_host)))"""
_CONNECT_CHAIN_PROBLEM = """(define (problem q) (:domain d)
  (:objects h1 h2 h3 - host)
  (:init (on h1))
  (:goal (on h3)))"""


# predicates of the random domains below, with their argument types
_RANDOM_PREDICATES = {"s1": ("host",), "s2": ("host", "host"), "s3": ("host", "tag"),
                      "f1": ("host",), "f2": ("host", "tag"), "f3": ("host", "host"),
                      "g1": ("host",),
                      "TCP_connected": ("host", "host"), "UDP_connected": ("host", "host")}


def _random_domain(seed):
    """A small (domain, problem) pair: exploit schemas whose clauses mix
    static and fluent atoms, connect schemas that achieve connection atoms
    or atoms exploits also need, and a random init and goal."""
    rng = random.Random(seed)
    objects = {"host": [f"h{i}" for i in range(rng.randint(2, 4))], "tag": ["t0", "t1"]}

    def atom(parameters, name=None):
        name = name or rng.choice(sorted(_RANDOM_PREDICATES))
        args = []
        for kind in _RANDOM_PREDICATES[name]:
            variables = [var for var, have in parameters if have == kind]
            args.append(rng.choice(variables) if variables and rng.random() < 0.8
                        else rng.choice(objects[kind]))
        return Atom(name, tuple(args))

    def clauses(parameters, low, high):
        return tuple(tuple(atom(parameters) for _ in range(rng.randint(1, 2)))
                     for _ in range(rng.randint(low, high)))

    schemas = []
    for number in range(rng.randint(1, 3)):
        parameters = (("?a", "host"), ("?b", "host")) + (
            (("?t", "tag"),) if rng.random() < 0.4 else ())
        precondition = clauses(parameters, 1, 4)
        effect = atom(parameters, rng.choice(["f1", "f2", "f3", "g1"]))
        schemas.append(ActionSchema(f"x{number}", parameters, precondition, (effect,), None))
    for name in rng.sample(["tcp_connect", "udp_connect", "tcp_connect_trusted"],
                           rng.randint(1, 3)):
        parameters = (("?local_host", "host"), ("?remote_host", "host"))
        effect = rng.choice(["TCP_connected", "UDP_connected", "g1"])
        schemas.append(ActionSchema(name, parameters, clauses(parameters, 0, 2), (Atom(
            effect, ("?remote_host",) if effect == "g1" else ("?local_host", "?remote_host")),),
            None))
    init = {Atom(name, tuple(rng.choice(objects[kind]) for kind in kinds))
            for name, kinds in _RANDOM_PREDICATES.items() for _ in range(rng.randint(0, 4))}
    domain = PddlDocument(kind="domain", name="d", actions=tuple(schemas), predicates=tuple(
        (name, tuple((f"?x{i}", kind) for i, kind in enumerate(kinds)))
        for name, kinds in _RANDOM_PREDICATES.items()))
    problem = PddlDocument(
        kind="problem", name="q", domain_name="d",
        objects=tuple((name, kind) for kind, names in objects.items() for name in names),
        init=tuple(sorted(init, key=lambda a: (a.name, a.args))),
        goal=(atom((), rng.choice(["f1", "g1", "TCP_connected"])),))
    return domain, problem


class TestReachableGrounding:
    """Grounding keeps the exploits the attacker can fire: on purdue, where
    more hosts add no foothold the attacker can reach, the task stays put."""

    def test_purdue_grounds_one_task_at_every_size(self):
        tasks = {}
        for hosts in (21, 200, 400):
            net, cat = purdue_fixture(hosts=hosts)
            tasks[hosts] = build_task(network_from_dict(net),
                                      ExploitMatrix(tuple(records_from_dict(cat))))[2]
        ids = {hosts: [a.id for a in task.actions] for hosts, task in tasks.items()}
        assert len(ids[21]) == 303 and ids[21] == ids[200] == ids[400]
        plans = {hosts: find_top_k(task, 13) for hosts, task in tasks.items()}
        assert len(plans[21]) == 13 and plans[21] == plans[200] == plans[400]
        # the default ``max_len``, the number of actions, stays above every
        # plan's length
        assert max(len(plan) for plan in plans[400]) < len(tasks[400].actions)

    def test_a_connect_can_wait_on_another_connect(self):
        domain = parse_pddl(_CONNECT_CHAIN_DOMAIN)
        problem = parse_pddl(_CONNECT_CHAIN_PROBLEM)
        task = ground(domain, problem)
        assert {a.id for a in task.actions} == naive_ground_ids(domain, problem)
        assert len(task.exploit_actions) == 6

    def test_random_domains_match_full_grounding(self):
        fired = left_out = 0
        for seed in range(400):
            domain, problem = _random_domain(seed)
            task = ground(domain, problem)
            assert {a.id for a in task.actions} == naive_ground_ids(domain, problem)
            assert len(task.actions) == len({a.id for a in task.actions})
            full = naive_ground_all(domain, problem)
            for action_id, (_, clauses, _) in full.items():
                assert task.action(action_id).precondition == tuple(
                    frozenset("(" + " ".join(atom) + ")" for atom in clause)
                    for clause in clauses)
            exploits = sum(1 for is_connect, _, _ in full.values() if not is_connect)
            fired += bool(task.exploit_actions)
            left_out += exploits > len(task.exploit_actions)
        # the check is not vacuous: many domains fire exploits and leave some out
        assert fired > 200 and left_out > 100

    @pytest.mark.parametrize("kind", ["random", "dense", "purdue"])
    def test_every_kept_exploit_fires_in_the_shared_fixpoint(self, kind):
        pairs = {"random": [random_fixture(seed) for seed in range(40)],
                 "dense": [dense_fixture(hosts) for hosts in (6, 10)],
                 "purdue": [purdue_fixture(hosts=21)]}[kind]
        tasks = 0
        for net, cat in pairs:
            net, matrix = network_from_dict(net), ExploitMatrix(tuple(records_from_dict(cat)))
            if not select_relevant_exploits(net, matrix).relevant:
                continue
            index = build_task(net, matrix)[2].search_index()
            assert all(planner._realize(clauses, needs, index.reached) is not None
                       for _, clauses, needs, _ in index.prepared)
            tasks += 1
        assert tasks


class TestWithGoal:
    def test_shares_the_compiled_task(self, motivating_task):
        _, _, task = motivating_task
        goal = compromised_atom("web_server", PrivilegeLevel.LOW).render()
        swapped = task.with_goal((goal,))
        assert swapped.goal == {goal}
        assert swapped.actions is task.actions
        assert swapped.init is task.init
        assert swapped._by_id is task._by_id
        assert swapped.atoms is task.atoms
        assert swapped.search_index() is task.search_index()
        assert task.goal == {"(is_compromised db_server agent ROOT_PRIVILEGES)"}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_recompiled_goal(self, seed):
        net, matrix = fixture_pair(seed)
        if not select_relevant_exploits(net, matrix).relevant:
            pytest.skip("nothing relevant")
        _, _, task = build_task(net, matrix)
        targets = [h for h in net.host_names() if h != net.scenario.attacker_host]
        for host in targets:
            for level in (PrivilegeLevel.LOW, PrivilegeLevel.HIGH, PrivilegeLevel.ROOT):
                _, _, expected = build_task(net.with_goal(host, level), matrix)
                swapped = task.with_goal((compromised_atom(host, level).render(),))
                assert swapped.goal == expected.goal
                assert swapped.init == expected.init
                assert swapped.actions == expected.actions
                assert find_top_k(swapped, 20) == find_top_k(expected, 20)

    @pytest.mark.parametrize("seed", [5, 8])
    def test_connection_goal_grounds_its_achievers(self, seed):
        domain, problem, task = build_task(*fixture_pair(seed))
        full = naive_ground_all(domain, problem)
        # ``with_goal`` adds connects only: a connection goal asks for no exploit
        left_out = sorted(i for i, (is_connect, _, _) in full.items()
                          if is_connect and i not in task._by_id)
        assert left_out
        shared = task.search_index()
        for action_id in left_out:
            goal = task.action(action_id).effects[0]
            name, *args = goal[1:-1].split(" ")
            fresh = ground(domain, dataclasses.replace(problem, goal=(Atom(name, tuple(args)),)))
            swapped = task.with_goal((goal,))
            assert action_id in {a.id for a in swapped.actions}
            assert swapped.actions == fresh.actions
            assert swapped.goal == fresh.goal
            # the task's index holds only its own actions: the added
            # connects need an index of their own
            assert swapped.search_index() is not shared
            assert swapped.search_index().ids == fresh.search_index().ids
            assert find_top_k(swapped, 20) == find_top_k(fresh, 20) \
                == find_top_k(task, 20, goal=(frozenset({goal}),))
        assert task.search_index() is shared


class TestSearchIndexSharing:
    """One search index per compiled task: every goal of a sweep reads the
    same one, and each of sensitivity's three compiles builds its own."""

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        builds = []
        build = planner._SearchIndex.__init__

        def counted(index, task):
            builds.append(task)
            build(index, task)

        monkeypatch.setattr(planner._SearchIndex, "__init__", counted)
        return builds

    @staticmethod
    def _purdue21():
        network, catalog = purdue_fixture(hosts=21)
        return network_from_dict(network), ExploitMatrix(tuple(records_from_dict(catalog)))

    def test_a_sweep_builds_one(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        assert sweep_targets(*self._purdue21(), 13).total == 163
        assert len(builds) == 1

    def test_sensitivity_builds_one_per_compile(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        privilege_sensitivity(*self._purdue21(), 13)
        assert len(builds) == 3

    def test_plan_builds_one(self, monkeypatch, tmp_path, capsys):
        network, catalog = purdue_fixture(hosts=21)
        paths = []
        for name, data in (("network", network), ("catalog", catalog)):
            paths += [f"--{name}", str(tmp_path / f"{name}.json")]
            (tmp_path / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
        builds = self._count_builds(monkeypatch)
        assert cli.main(["plan", "--k", "13", "--format", "json", "--no-meta", *paths]) == 0
        assert len(json.loads(capsys.readouterr().out)["chains"]) == 13
        assert len(builds) == 1


class TestApply:
    def test_couchdb_effect(self, motivating_task):
        _, _, task = motivating_task
        action = task.action(
            "apache_couchdb_arbitrary_command_execution web_server db_server agent")
        state = task.init | {
            "(TCP_connected web_server db_server a--apache--couchdb)",
            "(is_compromised web_server agent LOW_PRIVILEGES)",
        }
        after = apply(state, action)
        assert "(is_compromised db_server agent HIGH_PRIVILEGES)" in after
        assert "(is_compromised db_server agent HIGH_PRIVILEGES)" not in state

    def test_idempotent(self, motivating_task):
        _, _, task = motivating_task
        action = task.action(
            "tcp_connect dmz attacker_host web_server a--drupal--drupal agent")
        once = apply(task.init, action)
        assert apply(once, action) == once

    def test_not_applicable(self, motivating_task):
        _, _, task = motivating_task
        action = task.action(
            "apache_couchdb_arbitrary_command_execution web_server db_server agent")
        assert not is_applicable(task.init, action)
        with pytest.raises(NotApplicable):
            apply(task.init, action)


class TestFindPlan:
    def test_motivating_chain(self, motivating_task):
        _, _, task = motivating_task
        plan = find_plan(task)
        assert plan is not None
        assert plan.steps == MOTIVATING_CHAIN
        assert plan.cost == 5

    def test_goal_in_init_gives_empty_plan(self, motivating_task):
        domain, problem, _ = motivating_task
        from dataclasses import replace
        from chainplan.pddlgen import Atom

        trivial = replace(problem, goal=(
            Atom("is_compromised", ("attacker_host", "agent", "ROOT_PRIVILEGES")),))
        task = ground(domain, trivial)
        plan = find_plan(task)
        assert plan is not None and plan.steps == ()
        assert find_top_k(task, 5) == [Plan(steps=())]

    def test_unreachable_goal(self, motivating_network, motivating_matrix):
        retargeted = motivating_network.with_goal("web_server")
        # only the db_server has a root-granting exploit
        domain, problem, task = build_task(retargeted, motivating_matrix)
        assert find_plan(task) is None


class TestFindTopK:
    def test_two_chains_with_bpf(self, motivating_network, bpf_matrix):
        _, _, task = build_task(motivating_network, bpf_matrix)
        plans = find_top_k(task, 13)
        assert len(plans) == 2
        assert [p.steps[:4] for p in plans] == [plans[0].steps[:4]] * 2
        finals = {p.steps[-1] for p in plans}
        assert finals == {
            "bpf_sign_extension_priv_esc db_server agent",
            "linux_kernel_udp_fragmentation_offset_ufo_pe db_server agent",
        }
        # count verified independently
        assert {exploit_key(task, p) for p in plans} \
            == brute_force_minimal_sets(task)

    def test_k_one_matches_find_plan(self, motivating_task):
        _, _, task = motivating_task
        assert find_top_k(task, 1) == [find_plan(task)]

    def test_lengths_nondecreasing_and_valid(self):
        for seed in range(30):
            net, matrix = fixture_pair(seed)
            from chainplan.netmodel import select_relevant_exploits

            if not select_relevant_exploits(net, matrix).relevant:
                continue
            _, _, task = build_task(net, matrix)
            plans = find_top_k(task, 50)
            lengths = [p.cost for p in plans]
            assert lengths == sorted(lengths)
            for plan in plans:
                assert check_plan(task, plan)

    def test_plans_are_minimal(self, motivating_network, bpf_matrix):
        _, _, task = build_task(motivating_network, bpf_matrix)
        for plan in find_top_k(task, 10):
            for drop in range(len(plan.steps)):
                shorter = Plan(steps=plan.steps[:drop] + plan.steps[drop + 1:])
                assert not check_plan(task, shorter)

    def test_no_repeated_action(self):
        for seed in range(20):
            net, matrix = fixture_pair(seed)
            from chainplan.netmodel import select_relevant_exploits

            if not select_relevant_exploits(net, matrix).relevant:
                continue
            _, _, task = build_task(net, matrix)
            for plan in find_top_k(task, 20):
                assert len(set(plan.steps)) == len(plan.steps)

    def test_order_insensitive(self, motivating_network, bpf_matrix):
        _, _, task = build_task(motivating_network, bpf_matrix)
        keys = {exploit_key(task, p) for p in find_top_k(task, 20)}
        rng = random.Random(9)
        for _ in range(5):
            shuffled = list(task.actions)
            rng.shuffle(shuffled)
            permuted = PlanningTask(atoms=task.atoms, actions=tuple(shuffled),
                                    init=task.init, goal=task.goal)
            assert {exploit_key(permuted, p)
                    for p in find_top_k(permuted, 20)} == keys

    def test_max_len_bounds_search(self, motivating_task):
        _, _, task = motivating_task
        assert find_top_k(task, 5, max_len=4) == []
        assert len(find_top_k(task, 5, max_len=5)) == 1

    def test_k_validation(self, motivating_task):
        _, _, task = motivating_task
        with pytest.raises(ValueError):
            find_top_k(task, 0)

    def test_connection_goal_gives_a_connect_only_plan(self):
        _, _, task = build_task(*fixture_pair(8))
        swapped = task.with_goal(("(TCP_connected h0 h1 a--acme--webd)",))
        plans = find_top_k(swapped, 5)
        assert plans == [Plan(steps=("tcp_connect z0 h0 h1 a--acme--webd agent",))]
        # the oracle finds the empty set feasible, so it is the one minimal set
        assert {exploit_key(swapped, p) for p in plans} \
            == brute_force_minimal_sets(swapped) == {frozenset()}

    def test_connection_goals_match_the_oracle(self):
        goals = 0
        for _, task in _oracle_tasks(range(60)):
            for goal in sorted({e for a in task.connect_actions for e in a.effects}):
                swapped = task.with_goal((goal,))
                plans = find_top_k(swapped, 10 ** 6)
                assert {exploit_key(swapped, p) for p in plans} \
                    == brute_force_minimal_sets(swapped), goal
                assert [p.cost for p in plans] == sorted(p.cost for p in plans)
                assert all(check_plan(swapped, p) for p in plans)
                goals += bool(plans)
        assert goals > 20


def _oracle_tasks(seeds):
    """The random tasks small enough for the brute-force oracle: at most 12
    exploit actions on at most 6 hosts."""
    for seed in seeds:
        net, matrix = fixture_pair(seed)
        if not select_relevant_exploits(net, matrix).relevant or len(net.hosts) > 6:
            continue
        _, _, task = build_task(net, matrix)
        if len(task.exploit_actions) <= 12:
            yield seed, task


def _masks(search, task, plans) -> list[int]:
    """The plans' exploit sets as masks over the search's prepared exploits."""
    bit = {search.ids[p[0]]: 1 << i for i, p in enumerate(search.prepared)}
    return [functools.reduce(int.__or__, (bit[s] for s in exploit_key(task, plan)), 0)
            for plan in plans]


class TestCompletenessCertificate:
    """``_Search.complete`` answers True exactly when the plans found are
    every minimal exploit set, as the brute-force oracle counts them."""

    def test_agrees_with_the_oracle(self):
        answers = []
        for seed, task in _oracle_tasks(range(60)):
            net, _ = fixture_pair(seed)
            # (task, goal CNF or None for the task's, oracle)
            goals = [(task, None, brute_force_minimal_sets(task))]
            for host in sorted(net.host_names()):
                root = task.with_goal((compromised_atom(host, PrivilegeLevel.ROOT).render(),))
                goal = any_level_goal(host)
                goals += [(root, None, brute_force_minimal_sets(root)),
                          (task, goal, brute_force_any_of(task, goal[0]))]
            for goal_task, goal, oracle in goals:
                for budget in (1, 25, 100_000):
                    for k in (1, 13, 10 ** 6):
                        search = planner._Search(goal_task, goal)
                        plans = search.run(k, len(goal_task.actions), budget)
                        answer = search.complete(_masks(search, goal_task, plans))
                        if answer is not None:
                            found = {exploit_key(goal_task, p) for p in plans}
                            assert answer == (found == oracle), \
                                (seed, goal or goal_task.goal, budget, k)
                        answers.append((answer, bool(plans)))
        assert None not in {answer for answer, _ in answers}
        # complete with plans found, and incomplete with and without plans
        assert answers.count((True, True)) > 100
        assert answers.count((False, True)) > 20 and answers.count((False, False)) > 20

    def test_a_strict_prefix_has_more(self):
        checked = 0
        for seed, task in _oracle_tasks(range(60)):
            search = planner._Search(task)
            masks = _masks(search, task, search.run(10 ** 6, len(task.actions), 100_000))
            assert search.complete(masks) is True
            for size in range(len(masks)):
                assert search.complete(masks[:size]) is False, (seed, size)
                checked += 1
        assert checked > 20

    def test_a_stalled_search_stops_once_proved(self, caplog):
        # the 8th and last plan comes at expansion 26; the heap is not empty
        _, _, task = build_task(*fixture_pair(59))
        task = task.with_goal((compromised_atom("h2", PrivilegeLevel.HIGH).render(),))
        with caplog.at_level("DEBUG", logger="chainplan.planner"):
            plans = find_top_k(task, 10 ** 6)
        assert [r.getMessage() for r in caplog.records] == [
            "proved complete after 52 expansions with 8 plan(s)",
            "search: 8 plan(s), 52 expansions, 83 pushes"]
        assert {exploit_key(task, p) for p in plans} == brute_force_minimal_sets(task)

    def test_a_budget_stop_is_exact_once_proved(self, caplog):
        proved = 0
        for seed, task in _oracle_tasks(range(60)):
            oracle = brute_force_minimal_sets(task)
            for budget in range(1, 80):
                caplog.clear()
                with caplog.at_level("DEBUG", logger="chainplan.planner"):
                    plans = find_top_k(task, 10 ** 6, max_expansions=budget)
                messages = [r.getMessage() for r in caplog.records]
                if not any("enumeration stopped" in m for m in messages):
                    assert {exploit_key(task, p) for p in plans} == oracle, (seed, budget)
                    proved += any(m.startswith("proved complete") for m in messages)
        assert proved >= 4

    def test_an_empty_plan_is_complete(self, motivating_task):
        domain, problem, _ = motivating_task
        task = ground(domain, dataclasses.replace(problem, goal=(
            Atom("is_compromised", ("attacker_host", "agent", "ROOT_PRIVILEGES")),)))
        search = planner._Search(task)
        assert search.complete([0]) is True
        assert search.complete([]) is False

    def test_an_unreachable_goal_stops_before_expanding(self, motivating_task, caplog):
        # db_server ROOT makes exploits relevant, but no action grants
        # web_server ROOT: the empty family is complete, so not even a budget
        # of one expansion is spent, and no budget stop is reported
        _, _, task = motivating_task
        goal = tuple(frozenset((compromised_atom(host, PrivilegeLevel.ROOT).render(),))
                     for host in ("web_server", "db_server"))
        assert planner._Search(task, goal).complete(()) is True
        with caplog.at_level("DEBUG", logger="chainplan.planner"):
            assert find_top_k(task, 13, max_expansions=1, goal=goal) == []
        assert [r.getMessage() for r in caplog.records] == [
            "search: 0 plan(s), 0 expansions, 0 pushes"]


class TestSuccessorTable:
    """The search keys each exploit's step by ``delta & support``. That is
    exact only if applicability, the inserted connects and the vacuous-step
    test read no delta bit outside the exploit's support."""

    @staticmethod
    def _gated_connect_task():
        """A connect gated on an atom that only another exploit adds. In
        compiled tasks a connect is gated on the local foothold, which the
        exploit that needs the connection also requires."""
        beacon, link = "(beacon h0)", "(TCP_connected h0 h1 p)"
        goal = "(is_compromised h1 agent ROOT_PRIVILEGES)"
        actions = (
            GroundAction("plant", ("h0", "agent"), ("exploit", "plant"), (), (beacon,)),
            GroundAction("tcp_connect", ("z0", "h0", "h1", "p", "agent"), ("connect", "tcp"),
                         (frozenset({beacon}),), (link,)),
            GroundAction("rce", ("h0", "h1", "agent"), ("exploit", "rce"),
                         (frozenset({link}),), (goal,)),
        )
        return PlanningTask(atoms=(beacon, link, goal), actions=actions,
                            init=frozenset(), goal=frozenset({goal}))

    @staticmethod
    def _searches():
        yield planner._Search(TestSuccessorTable._gated_connect_task())
        network, catalog = purdue_fixture(hosts=21)
        _, _, task = build_task(network_from_dict(network),
                                ExploitMatrix(tuple(records_from_dict(catalog))))
        goal = compromised_atom("data2", PrivilegeLevel.ROOT).render()
        yield planner._Search(task.with_goal((goal,)))
        for _, task in _oracle_tasks(range(60)):
            yield planner._Search(task)

    def test_a_step_reads_only_its_support(self):
        rng = random.Random(10)
        checked = applicable = 0
        for search in self._searches():
            width = len(search.by_gate)
            for index, (_, clauses, needs, effects) in enumerate(search.prepared):
                support = search.support[index]
                for density in (0.25, 0.5, 0.75) * 20:
                    delta = sum(1 << bit for bit in range(width) if rng.random() < density)
                    key = delta & support
                    assert planner._realize(clauses, needs, delta) \
                        == planner._realize(clauses, needs, key)
                    assert (effects & delta == effects) == (effects & key == effects)
                    successor = search.successor(index, delta)
                    assert successor == search.successor(index, key)
                    checked += 1
                    applicable += successor is not None
        assert checked > 5000 and applicable > 1000

    def test_a_gated_connect_is_inserted(self):
        assert find_top_k(self._gated_connect_task(), 5) == [Plan(steps=(
            "plant h0 agent", "tcp_connect z0 h0 h1 p agent", "rce h0 h1 agent"))]


class TestDistanceBound:
    """The search keys its heap on length + h, where h is the least ``dist``
    over a delta's bits and the root. The plans and their order are those
    of a uniform-cost search only if h is consistent: a step never lowers it
    by more than the steps it appends, and it is 0 wherever the goal holds."""

    @staticmethod
    def _searches():
        yield from TestSuccessorTable._searches()
        # connection goals: the goal's need may be one no prepared exploit
        # has, so only the goal's own achiever edges bound the steps to it
        for _, task in _oracle_tasks(range(60)):
            for goal in sorted({e for a in task.connect_actions for e in a.effects}):
                yield planner._Search(task.with_goal((goal,)))
        yield planner._Search(TestDistanceBound._purdue21_connection())

    @staticmethod
    def _purdue21_connection():
        network, catalog = purdue_fixture(hosts=21)
        task = build_task(network_from_dict(network),
                          ExploitMatrix(tuple(records_from_dict(catalog))))[2]
        return task.with_goal(("(TCP_connected web_server2 data1 a--apache--couchdb)",))

    def test_the_root_is_finite_where_the_goal_is_reachable(self):
        reachable = 0
        for search in self._searches():
            if search.complete(()) is False:
                assert search.dist[-1] < float("inf")
                reachable += 1
        assert reachable > 50

    def test_relevant_exploits_are_those_the_pass_reaches(self):
        # one backward pass gives both: an exploit is relevant exactly when
        # one of its effect bits has a finite dist, and a bit's dist is
        # finite exactly when the pass reaches it from the goal, through
        # the relevant exploits' clauses and needs and the needs' connects
        def bits(mask):
            return {i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1"}

        walked = 0
        for search in self._searches():
            if not search.reachable or search.finish(0) is not None:
                continue
            root = len(search.dist) - 1
            finite = {bit for bit, d in enumerate(search.dist) if d < float("inf")}
            reached = set().union(*map(bits, search.goal),
                                  *(bits(need) for need, _ in search.goal_needs))
            for i, (_, clauses, needs, effects) in enumerate(search.prepared):
                relevant = bool(search.relevant >> i & 1)
                assert relevant == bool(bits(effects) & finite)
                if relevant:
                    reached |= set().union(*map(bits, clauses)) or {root}
                    reached |= set().union(*(bits(need) for need, _ in needs))
            chains = {bits(need).pop(): chain for need, chain in search.goal_needs}
            pending = list(reached)
            while pending:
                bit = pending.pop()
                for _, clauses in chains.get(bit) or search.index.achievers.get(bit, ()):
                    for source in set().union(*map(bits, clauses)) or {root}:
                        if source not in reached:
                            reached.add(source)
                            pending.append(source)
            assert finite == reached
            walked += 1
        assert walked > 30

    def test_a_connection_goal_keeps_length_order(self):
        # the connect to data1 needs a foothold on web_server2, which only
        # exploits reach; plans come shortest first and none holds another
        goal = self._purdue21_connection()
        plans = find_top_k(goal, 13)
        assert [p.cost for p in plans] == [3, 5, 5, 7, 7]
        sets = [exploit_key(goal, p) for p in plans]
        assert not any(a < b for a in sets for b in sets)

    def test_h_is_consistent(self):
        rng = random.Random(18)
        checked = goals = 0
        for search in self._searches():
            dist, width = search.dist, len(search.by_gate)

            def h(delta):
                return min([dist[-1]] + [dist[b] for b in range(width) if delta >> b & 1])

            for index in range(len(search.prepared)):
                for density in (0.1, 0.25, 0.5) * 10:
                    delta = sum(1 << bit for bit in range(width) if rng.random() < density)
                    if search.finish(delta) is not None:
                        assert h(delta) == 0
                        goals += 1
                    successor = search.successor(index, delta)
                    if successor is None:
                        continue
                    tail, added, reach = successor
                    assert reach == min(dist[b] for b in range(width) if added >> b & 1)
                    assert h(delta) <= len(tail) + h(delta | added)
                    checked += 1
        assert checked > 1000 and goals > 100


class TestDenseNetwork:
    """``dense_fixture``: every host is a pivot, so a uniform-cost search
    pushes every exploit set shorter than the k-th plan."""

    @staticmethod
    def _task(hosts):
        network, catalog = dense_fixture(hosts)
        return build_task(network_from_dict(network),
                          ExploitMatrix(tuple(records_from_dict(catalog))))[2]

    def test_plans_equal_the_oracle(self):
        # brute force over 4 hosts' 18 exploits already takes ~20 s
        task = self._task(3)
        plans = find_top_k(task, 10 ** 6)
        assert len(plans) == 2
        assert {exploit_key(task, p) for p in plans} == brute_force_minimal_sets(task)

    def test_fifty_hosts_keep_their_order_with_few_pushes(self):
        # dense50_order.json holds the 13 plans of the uniform-cost search,
        # which pushed 396,967 entries and popped 4,567 to find them; A* with
        # every child pushed took 4,410 pushes, and partial expansion 129
        task = self._task(50)
        search = planner._Search(task)
        plans = search.run(13, len(task.actions), 100_000)
        golden = json.loads((Path(__file__).resolve().parent / "golden" / "dense50_order.json")
                            .read_text(encoding="utf-8"))
        assert [list(plan.steps) for plan in plans] == golden
        assert search.pushes <= 500 and search.expansions <= 100

    def test_the_purdue21_sweep_pushes_few(self, monkeypatch):
        # its 21 searches pushed 71,411 entries and popped 8,855 with every
        # child pushed; partial expansion pushes 10,809 and expands 4,922 sets
        # and its completeness checks make 39 ``reaches`` calls; each search
        # opening with its own reachability test made 60
        counts = []
        reaches = []
        run, reach = planner._Search.run, planner._Search.reaches

        def counted(search, *args):
            plans = run(search, *args)
            counts.append((search.pushes, search.expansions))
            return plans

        def counted_reach(search, allowed):
            reaches.append(allowed)
            return reach(search, allowed)

        monkeypatch.setattr(planner._Search, "run", counted)
        monkeypatch.setattr(planner._Search, "reaches", counted_reach)
        network, catalog = purdue_fixture(hosts=21)
        sweep_targets(network_from_dict(network),
                      ExploitMatrix(tuple(records_from_dict(catalog))), 13)
        assert len(counts) == 21
        assert sum(pushes for pushes, _ in counts) <= 15_000
        assert sum(expansions for _, expansions in counts) <= 8_855
        assert len(reaches) <= 39

    def test_counters_of_a_search_that_never_expands(self, motivating_task):
        _, _, task = motivating_task
        goal = (frozenset((compromised_atom("web_server", PrivilegeLevel.ROOT).render(),)),)
        search = planner._Search(task, goal)
        assert search.run(13, len(task.actions), 1) == []
        assert (search.expansions, search.pushes) == (0, 0)


def _relevant_by_passes(task, goal, open_only=False):
    """Backward relevance closure from the atoms of the CNF ``goal``, by
    repeated passes over every action. With ``open_only`` it follows only
    the clauses init leaves open, of the goal and of each action."""
    def followed(clauses):
        return [c for c in clauses if not open_only or c.isdisjoint(task.init)]

    relevant_atoms = {atom for clause in followed(goal) for atom in clause}
    relevant_ids = set()
    changed = True
    while changed:
        changed = False
        for action in task.actions:
            if action.id not in relevant_ids \
                    and any(effect in relevant_atoms for effect in action.effects):
                relevant_ids.add(action.id)
                changed = True
                for clause in followed(action.precondition):
                    relevant_atoms.update(clause)
    return relevant_ids


def _exploit_mask(search, ids) -> int:
    """The exploits of ``ids`` as a mask over the search's prepared exploits."""
    return sum(1 << i for i, prepared in enumerate(search.prepared)
               if search.ids[prepared[0]] in ids)


# the fixtures the shared reachability fixpoint is checked on
_FIXTURES = {"purdue": lambda hosts: purdue_fixture(hosts=hosts), "random": random_fixture,
             "dense": dense_fixture}
_FIXTURE_SIZES = ([("purdue", hosts) for hosts in (21, 40, 80, 200)]
                  + [("random", seed) for seed in range(40)]
                  + [("dense", hosts) for hosts in range(6, 21)])


class TestSearchSetUp:
    """A goal's relevant exploits are the closure that follows only the
    clauses init leaves open, found by repeated passes, and lie inside the
    closure over every clause. The task's shared reachability fixpoint
    agrees with the oracle's saturation and with each goal's own fixpoint
    over its relevant exploits."""

    @staticmethod
    def _check_relevant(task, goal, search):
        own = _relevant_by_passes(task, goal, open_only=True)
        assert own <= _relevant_by_passes(task, goal)
        if search.reachable:
            assert search.relevant == _exploit_mask(search, own), goal
        return own

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_repeated_passes(self, seed):
        net, matrix = fixture_pair(seed)
        if not select_relevant_exploits(net, matrix).relevant:
            pytest.skip("nothing relevant")
        _, _, task = build_task(net, matrix)
        reached = saturate(task.init, task.actions)
        for host in net.host_names():
            low, root = (compromised_atom(host, level).render()
                         for level in (PrivilegeLevel.LOW, PrivilegeLevel.ROOT))
            for goal in ([{low}], [{root}], any_level_goal(host)):
                search = planner._Search(task, goal)
                self._check_relevant(task, goal, search)
                unreachable = any(reached.isdisjoint(clause) for clause in goal)
                assert search.complete(()) is unreachable, (host, goal)

    def test_connection_goals_match_repeated_passes(self):
        relevant = 0
        for _, task in _oracle_tasks(range(60)):
            for atom in sorted({e for a in task.connect_actions for e in a.effects}):
                goal = (frozenset((atom,)),)
                search = planner._Search(task, goal)
                self._check_relevant(task, goal, search)
                relevant += search.relevant != 0
        assert relevant > 20

    @pytest.mark.parametrize("kind,size", _FIXTURE_SIZES)
    def test_the_shared_fixpoint_agrees(self, kind, size):
        network, catalog = _FIXTURES[kind](size)
        net = network_from_dict(network)
        matrix = ExploitMatrix(tuple(records_from_dict(catalog)))
        if not select_relevant_exploits(net, matrix).relevant:
            pytest.skip("nothing relevant")
        _, _, task = build_task(net, matrix)
        reached = saturate(task.init, task.actions)
        index = task.search_index()
        reachable = 0
        for host in sorted(net.host_names()):
            low, root = (compromised_atom(host, level).render()
                         for level in (PrivilegeLevel.LOW, PrivilegeLevel.ROOT))
            for goal in ([frozenset({low})], [frozenset({root})], any_level_goal(host)):
                search = planner._Search(task, goal)
                assert search.index is index
                own = _exploit_mask(search, self._check_relevant(task, goal, search))
                expected = not any(reached.isdisjoint(clause) for clause in goal)
                assert search.reachable is expected is search.reaches(own), (host, goal)
                reachable += expected
        assert reachable > 0


class TestCheckPlan:
    def test_motivating_valid(self, motivating_task):
        _, _, task = motivating_task
        assert check_plan(task, Plan(steps=MOTIVATING_CHAIN))

    def test_swapped_connect_breaks_foothold(self, motivating_task):
        # moving the lan connect before the drupal exploit leaves web_server
        # uncompromised, so the connect's foothold clause fails
        _, _, task = motivating_task
        steps = list(MOTIVATING_CHAIN)
        steps[1], steps[2] = steps[2], steps[1]
        verdict = check_plan(task, Plan(steps=tuple(steps)))
        assert not verdict
        assert verdict.step_index == 1
        assert "is_compromised web_server" in verdict.reason

    def test_missing_first_connect(self, motivating_task):
        _, _, task = motivating_task
        verdict = check_plan(task, Plan(steps=MOTIVATING_CHAIN[1:]))
        assert not verdict
        assert verdict.step_index == 0
        assert "TCP_connected" in verdict.reason

    def test_valid_but_goal_missing(self, motivating_task):
        _, _, task = motivating_task
        verdict = check_plan(task, Plan(steps=MOTIVATING_CHAIN[:4]))
        assert not verdict
        assert "goal not reached" in verdict.reason

    def test_unknown_action(self, motivating_task):
        _, _, task = motivating_task
        with pytest.raises(UnknownActionId):
            check_plan(task, Plan(steps=("ghost a b",)))


# --- external planner adapter -------------------------------------------------


class TestMatchPlan:
    def test_reports_first_unknown_step(self, motivating_task):
        _, _, task = motivating_task
        parsed = parse_plan(f"({MOTIVATING_CHAIN[0]})\n(Ghost A b)\n(other x)\n")
        with pytest.raises(UnknownActionId, match="unknown action 'Ghost A b'"):
            match_plan(task, parsed)

    def test_case_clash_resolves_as_full_grounding(self, motivating_matrix):
        # db_server runs a patched couchdb, so grounding keeps only the connect
        # to DB_SERVER; both ids fold to one text, and as in an index over full
        # grounding, the last of them in action order wins it
        data = json.loads((FIXTURES / "motivating_network.json").read_text())
        db = data["hosts"][2]
        data["hosts"].append(dict(db, name="DB_SERVER"))
        db["products"] = [dict(db["products"][1],
                               cpe="cpe:2.3:a:apache:couchdb:9.9.9:*:*:*:*:*:*:*")]
        domain, problem, task = build_task(network_from_dict(data), motivating_matrix)
        kept = "tcp_connect lan web_server DB_SERVER a--apache--couchdb agent"
        left_out = "tcp_connect lan web_server db_server a--apache--couchdb agent"
        assert kept in task._by_id and left_out not in task._by_id
        assert left_out in naive_ground_all(domain, problem)
        assert match_plan(task, parse_plan(f"({kept.upper()})\n")).steps == (left_out,)


@functools.cache
def _full_grounding(source):
    """A compiled task, plus the index ``match_plan`` would use over every id
    full grounding gives (the last in action order wins a case clash), and
    the schema names and objects of its documents."""
    if source == "motivating":
        pair = (load_network(FIXTURES / "motivating_network.json"),
                load_catalog(FIXTURES / "motivating_catalog.json"))
    else:
        pair = fixture_pair(int(source))
    domain, problem, task = build_task(*pair)
    index = {}
    for action_id in sorted(naive_ground_all(domain, problem), key=lambda i: i.split(" ")):
        index[action_id.lower()] = action_id
    names = sorted(s.name for s in domain.actions)
    objects = sorted(name for name, _ in problem.objects + domain.constants)
    return task, index, names, objects


@st.composite
def _step_texts(draw, source):
    """(name, args) of a plan step: a full-grounding id, or schema names and
    objects in any arity, self-connects, junk tokens; each in random case."""
    _, index, names, objects = _full_grounding(source)
    junk = st.text(max_size=8)
    if draw(st.booleans()):
        name, *args = draw(st.sampled_from(sorted(index.values()))).split(" ")
    else:
        name = draw(st.sampled_from(names) | junk)
        args = draw(st.lists(st.sampled_from(objects) | junk, max_size=6))
    if name in CONNECT_ACTIONS and len(args) >= 4 and draw(st.booleans()):
        args[-3] = args[-4]
    if args and draw(st.booleans()):
        args[draw(st.integers(0, len(args) - 1))] = draw(junk)
    tokens = [name, *args]
    if draw(st.booleans()):
        tokens = [token[:-1] if draw(st.booleans()) else token
                  for token in tokens[:draw(st.integers(1, len(tokens)))]]

    def recase(token):
        return "".join(c.upper() if draw(st.booleans()) else c for c in token)

    return recase(tokens[0]), tuple(recase(t) for t in tokens[1:])


class TestMatchPlanFuzz:
    @pytest.mark.parametrize("source", ["motivating", "8"])
    @given(data=st.data())
    def test_agrees_with_full_grounding(self, source, data):
        task, index, _, _ = _full_grounding(source)
        name, args = data.draw(_step_texts(source))
        want = index.get(" ".join((name,) + args).lower())
        try:
            got = match_plan(task, PlanFile(steps=(PlanStep(name, args),))).steps[0]
        except UnknownActionId:
            got = None
        assert got == want


def _write_script(path, body):
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


@pytest.fixture
def motivating_texts(motivating_task):
    domain, problem, _ = motivating_task
    return to_pddl(domain), to_pddl(problem)


PLAN_TEXT = "\n".join(f"{step} (1)" for step in MOTIVATING_CHAIN) + "\n"


class TestRunExternal:
    def test_single_valid_plan(self, tmp_path, motivating_texts):
        domain_text, problem_text = motivating_texts
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            cat > "$3" <<'PLAN'
{PLAN_TEXT}PLAN
            exit 0
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        plans = run_external(domain_text, problem_text, config)
        assert [p.steps for p in plans] == [MOTIVATING_CHAIN]

    def test_documents_are_written_into_the_planners_directory(self, tmp_path,
                                                                motivating_texts):
        domain_text, problem_text = motivating_texts
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            here=$(pwd -P)
            [ "$(cd "$(dirname "$1")" && pwd -P)" = "$here" ] || exit 5
            [ "$(cd "$(dirname "$2")" && pwd -P)" = "$here" ] || exit 5
            cp "$1" {tmp_path}/seen_domain.pddl
            cp "$2" {tmp_path}/seen_problem.pddl
            cat > "$3" <<'PLAN'
{PLAN_TEXT}PLAN
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        plans = run_external(domain_text, problem_text, config)
        assert [p.steps for p in plans] == [MOTIVATING_CHAIN]
        assert (tmp_path / "seen_domain.pddl").read_text() == domain_text
        assert (tmp_path / "seen_problem.pddl").read_text() == problem_text

    def test_numbered_plan_files(self, tmp_path, motivating_texts):
        domain_text, problem_text = motivating_texts
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            for i in 1 2 3; do
              cat > "$3.$i" <<'PLAN'
{PLAN_TEXT}PLAN
            done
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        plans = run_external(domain_text, problem_text, config)
        assert len(plans) == 3

    def test_directories_matching_the_glob_are_skipped(self, tmp_path, motivating_texts):
        domain_text, problem_text = motivating_texts
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            mkdir "$3.d"
            cat > "$3" <<'PLAN'
{PLAN_TEXT}PLAN
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        plans = run_external(domain_text, problem_text, config)
        assert [p.steps for p in plans] == [MOTIVATING_CHAIN]

    def test_invalid_plan_reported(self, tmp_path, motivating_texts):
        domain_text, problem_text = motivating_texts
        script = tmp_path / "planner.sh"
        _write_script(script, """\
            echo "ghost_action a b (1)" > "$3"
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        with pytest.raises(InvalidExternalPlan):
            run_external(domain_text, problem_text, config)

    def test_inapplicable_plan_reported(self, tmp_path, motivating_texts):
        domain_text, problem_text = motivating_texts
        truncated = "\n".join(f"{s} (1)" for s in MOTIVATING_CHAIN[1:]) + "\n"
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            cat > "$3" <<'PLAN'
{truncated}PLAN
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        with pytest.raises(InvalidExternalPlan):
            run_external(domain_text, problem_text, config)

    def test_process_error(self, tmp_path, motivating_texts):
        domain_text, problem_text = motivating_texts
        script = tmp_path / "planner.sh"
        _write_script(script, 'echo "boom" >&2\nexit 4\n')
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        with pytest.raises(ProcessError):
            run_external(domain_text, problem_text, config)

    @pytest.mark.parametrize("command, message", [
        ("", "planner command is empty"),
        ("true {nope}", "unknown placeholder {nope}"),
        ("true {0}", "cannot build planner command"),
        ("true {", "cannot build planner command"),
        ("true 'open", "cannot build planner command"),
        ("true {domain.nope}", "cannot build planner command"),
    ])
    def test_unbuildable_command(self, motivating_texts, command, message):
        domain_text, problem_text = motivating_texts
        with pytest.raises(ProcessError, match=re.escape(message)):
            run_external(domain_text, problem_text, ExternalPlannerConfig(command))

    def test_unlaunchable_command(self, tmp_path, motivating_texts):
        domain_text, problem_text = motivating_texts
        script = tmp_path / "planner.sh"
        script.write_text("#!/bin/sh\n")  # not executable
        config = ExternalPlannerConfig(command=f"{script} {{domain}}", timeout_s=30)
        with pytest.raises(ProcessError, match="cannot launch external planner"):
            run_external(domain_text, problem_text, config)

    def test_timeout(self, tmp_path, motivating_texts):
        domain_text, problem_text = motivating_texts
        script = tmp_path / "planner.sh"
        _write_script(script, "sleep 5\n")
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=0.3)
        with pytest.raises(PlannerTimeout):
            run_external(domain_text, problem_text, config)

    def test_case_insensitive_step_matching(self, tmp_path, motivating_texts):
        domain_text, problem_text = motivating_texts
        upper = PLAN_TEXT.replace("tcp_connect", "TCP_CONNECT")
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            cat > "$3" <<'PLAN'
{upper}PLAN
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        plans = run_external(domain_text, problem_text, config)
        assert plans[0].steps == MOTIVATING_CHAIN


class TestMonotonicity:
    def test_random_walks_never_shrink_state(self):
        rng = random.Random(17)
        walks = 0
        seed = 0
        while walks < 100:
            seed += 1
            net, matrix = fixture_pair(seed)
            from chainplan.netmodel import select_relevant_exploits

            if not select_relevant_exploits(net, matrix).relevant:
                continue
            _, _, task = build_task(net, matrix)
            for _ in range(4):
                state = frozenset(task.init)
                for _ in range(rng.randint(1, 8)):
                    options = applicable_actions(task, state)
                    if not options:
                        break
                    after = apply(state, rng.choice(options))
                    assert state <= after
                    assert len(after) >= len(state)
                    state = after
                walks += 1
