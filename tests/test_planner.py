import random
import re
import stat
import textwrap

import pytest

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
    records_from_dict,
)
from chainplan import planner
from chainplan.netmodel import select_relevant_exploits
from chainplan.pddlgen import compromised_atom, parse_pddl, parse_plan, to_pddl
from chainplan.planner import (
    ExternalPlannerConfig,
    Plan,
    PlanningTask,
    applicable_actions,
    match_plan,
    run_external,
)
from chainplan.errors import (
    ArityMismatch,
    InvalidExternalPlan,
    NotApplicable,
    PlannerTimeout,
    ProcessError,
    TypeMismatch,
    UnknownActionId,
)

from conftest import MOTIVATING_CHAIN, build_task, fixture_pair
from oracles import brute_force_minimal_sets, naive_ground_ids, saturate


class TestGround:
    def test_couchdb_only_from_web(self, motivating_task):
        _, _, task = motivating_task
        couch = [a for a in task.actions
                 if a.name == "apache_couchdb_arbitrary_command_execution"]
        assert [(a.args[0], a.args[1]) for a in couch] == [("web_server", "db_server")]

    def test_matches_naive_oracle_motivating(self, motivating_task):
        domain, problem, task = motivating_task
        assert {a.id for a in task.actions} == naive_ground_ids(domain, problem)

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_matches_naive_oracle_random(self, seed):
        net, matrix = fixture_pair(seed)
        from chainplan.netmodel import select_relevant_exploits

        if not select_relevant_exploits(net, matrix).relevant:
            pytest.skip("nothing relevant")
        domain, problem, task = build_task(net, matrix)
        assert {a.id for a in task.actions} == naive_ground_ids(domain, problem)

    def test_static_filter_prunes_absent_version(self, motivating_network):
        matrix = ExploitMatrix(tuple(records_from_dict({"records": [{
            "id": "couch_other_version", "name": "x", "source": "other",
            "description": "d", "cves": [], "cvss_vectors": [],
            # matches installed couchdb only through the wildcard minor
            "vulnerable_configs": ["cpe:2.3:a:apache:couchdb:2:*:*:*:*:*:*:*"],
            "class": "RCE_TCP_N_H",
        }]})))
        domain, problem, task = build_task(motivating_network, matrix)
        # has_version pruned from the schema (config 2.* vs installed 2.0.0),
        # so the instantiation survives on the has_product static alone
        assert any(a.name == "couch_other_version" for a in task.actions)

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


def _relevant_by_passes(task):
    """Backward relevance closure by repeated passes over every action."""
    relevant_atoms = set(task.goal)
    relevant_ids = set()
    changed = True
    while changed:
        changed = False
        for action in task.actions:
            if action.id not in relevant_ids \
                    and any(effect in relevant_atoms for effect in action.effects):
                relevant_ids.add(action.id)
                changed = True
                for clause in action.precondition:
                    relevant_atoms.update(clause)
    return relevant_ids


class TestSearchSetUp:
    """The worklist set-up helpers return what repeated-pass fixpoints do."""

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_repeated_passes(self, seed):
        net, matrix = fixture_pair(seed)
        if not select_relevant_exploits(net, matrix).relevant:
            pytest.skip("nothing relevant")
        _, _, task = build_task(net, matrix)
        assert planner._saturate(task) == saturate(task.init, task.actions)
        for host in net.host_names():
            for level in (PrivilegeLevel.LOW, PrivilegeLevel.ROOT):
                swapped = task.with_goal((compromised_atom(host, level).render(),))
                assert planner._relevant_action_ids(swapped) == _relevant_by_passes(swapped)


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


def _write_script(path, body):
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


@pytest.fixture
def motivating_files(tmp_path, motivating_task):
    domain, problem, task = motivating_task
    domain_path = tmp_path / "in_domain.pddl"
    problem_path = tmp_path / "in_problem.pddl"
    domain_path.write_text(to_pddl(domain))
    problem_path.write_text(to_pddl(problem))
    return domain_path, problem_path, task


PLAN_TEXT = "\n".join(f"{step} (1)" for step in MOTIVATING_CHAIN) + "\n"


class TestRunExternal:
    def test_single_valid_plan(self, tmp_path, motivating_files):
        domain_path, problem_path, _ = motivating_files
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            cat > "$3" <<'PLAN'
{PLAN_TEXT}PLAN
            exit 0
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        plans = run_external(domain_path, problem_path, config)
        assert [p.steps for p in plans] == [MOTIVATING_CHAIN]

    def test_numbered_plan_files(self, tmp_path, motivating_files):
        domain_path, problem_path, _ = motivating_files
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            for i in 1 2 3; do
              cat > "$3.$i" <<'PLAN'
{PLAN_TEXT}PLAN
            done
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        plans = run_external(domain_path, problem_path, config)
        assert len(plans) == 3

    def test_invalid_plan_reported(self, tmp_path, motivating_files):
        domain_path, problem_path, _ = motivating_files
        script = tmp_path / "planner.sh"
        _write_script(script, """\
            echo "ghost_action a b (1)" > "$3"
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        with pytest.raises(InvalidExternalPlan):
            run_external(domain_path, problem_path, config)

    def test_inapplicable_plan_reported(self, tmp_path, motivating_files):
        domain_path, problem_path, _ = motivating_files
        truncated = "\n".join(f"{s} (1)" for s in MOTIVATING_CHAIN[1:]) + "\n"
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            cat > "$3" <<'PLAN'
{truncated}PLAN
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        with pytest.raises(InvalidExternalPlan):
            run_external(domain_path, problem_path, config)

    def test_process_error(self, tmp_path, motivating_files):
        domain_path, problem_path, _ = motivating_files
        script = tmp_path / "planner.sh"
        _write_script(script, 'echo "boom" >&2\nexit 4\n')
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        with pytest.raises(ProcessError):
            run_external(domain_path, problem_path, config)

    @pytest.mark.parametrize("command, message", [
        ("", "planner command is empty"),
        ("true {nope}", "unknown placeholder {nope}"),
        ("true {0}", "cannot build planner command"),
        ("true {", "cannot build planner command"),
        ("true 'open", "cannot build planner command"),
        ("true {domain.nope}", "cannot build planner command"),
    ])
    def test_unbuildable_command(self, motivating_files, command, message):
        domain_path, problem_path, _ = motivating_files
        with pytest.raises(ProcessError, match=re.escape(message)):
            run_external(domain_path, problem_path, ExternalPlannerConfig(command))

    def test_unlaunchable_command(self, tmp_path, motivating_files):
        domain_path, problem_path, _ = motivating_files
        script = tmp_path / "planner.sh"
        script.write_text("#!/bin/sh\n")  # not executable
        config = ExternalPlannerConfig(command=f"{script} {{domain}}", timeout_s=30)
        with pytest.raises(ProcessError, match="cannot launch external planner"):
            run_external(domain_path, problem_path, config)

    def test_timeout(self, tmp_path, motivating_files):
        domain_path, problem_path, _ = motivating_files
        script = tmp_path / "planner.sh"
        _write_script(script, "sleep 5\n")
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=0.3)
        with pytest.raises(PlannerTimeout):
            run_external(domain_path, problem_path, config)

    def test_case_insensitive_step_matching(self, tmp_path, motivating_files):
        domain_path, problem_path, _ = motivating_files
        upper = PLAN_TEXT.replace("tcp_connect", "TCP_CONNECT")
        script = tmp_path / "planner.sh"
        _write_script(script, f"""\
            cat > "$3" <<'PLAN'
{upper}PLAN
            """)
        config = ExternalPlannerConfig(
            command=f"{script} {{domain}} {{problem}} {{plan_out}}", timeout_s=30)
        plans = run_external(domain_path, problem_path, config)
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
