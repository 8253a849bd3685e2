"""Output checks that do not rely on the search.

Chains are judged against the grounded task with a counter-based saturation
of their own (a different algorithm from the planner's repeated-pass
``_saturate``): a chain's exploit set must reach the goal together with all
connect actions, and must stop reaching it when any one exploit is removed.
This is the feasibility and minimality test of ``tests/oracles.py``, made
fast enough to run on every output; the full brute-force oracle is not.
"""
from __future__ import annotations

import math

from chainplan.catalog import load_catalog
from chainplan.errors import EmptyDomain
from chainplan.netmodel import load_network, select_relevant_exploits
from chainplan.pddlgen import emit_domain, emit_problem
from chainplan.planner import ground


class Saturator:
    """Delete-free reachability over a chosen subset of a task's actions."""

    def __init__(self, task):
        self.task = task
        self.index = {action.id: i for i, action in enumerate(task.actions)}
        self.connects = [i for i, action in enumerate(task.actions)
                         if action.source[0] == "connect"]
        self.watch: dict[str, list[tuple[int, int]]] = {}
        for i, action in enumerate(task.actions):
            for j, clause in enumerate(action.precondition):
                for atom in clause:
                    self.watch.setdefault(atom, []).append((i, j))

    def closure(self, allowed) -> set:
        actions = self.task.actions
        missing = {i: len(actions[i].precondition) for i in allowed}
        done: set[tuple[int, int]] = set()
        state: set[str] = set()
        queue = list(self.task.init)
        for i, count in missing.items():
            if count == 0:
                queue.extend(actions[i].effects)
        while queue:
            atom = queue.pop()
            if atom in state:
                continue
            state.add(atom)
            for i, j in self.watch.get(atom, ()):
                if i not in missing or (i, j) in done:
                    continue
                done.add((i, j))
                missing[i] -= 1
                if missing[i] == 0:
                    queue.extend(actions[i].effects)
        return state

    def reaches_goal(self, exploits) -> bool:
        return self.task.goal <= self.closure(list(exploits) + self.connects)


def compile_task(network_path, catalog_path):
    """The grounded task for one network/catalog pair, or None if empty."""
    net = load_network(network_path)
    matrix = load_catalog(catalog_path)
    relevance = select_relevant_exploits(net, matrix)
    if not relevance.relevant:
        return None
    try:
        domain = emit_domain(relevance, matrix, net)
    except EmptyDomain:
        return None
    return ground(domain, emit_problem(net))


def _simulate(task, step_ids) -> str | None:
    """Run the steps in order from init; the first problem found, or None."""
    state = set(task.init)
    for number, step_id in enumerate(step_ids, start=1):
        action = task.action(step_id)
        for clause in action.precondition:
            if not clause & state:
                return f"step {number} ({step_id}) is not applicable"
        state.update(action.effects)
    if not task.goal <= state:
        return "the steps do not reach the goal"
    return None


def check_chains(payload: dict, saturator: Saturator | None, k: int) -> list[str]:
    """Problems with a ``plan --format json`` payload; empty when correct.

    ``saturator`` is None when the inputs compile to no task, in which case
    the only correct answer is zero chains.
    """
    chains = payload.get("chains")
    if not isinstance(chains, list) or payload.get("count") != len(chains):
        return ["count does not match the chains listed"]
    if len(chains) > k:
        return [f"{len(chains)} chains exceed k={k}"]
    if saturator is None:
        return [] if not chains else ["chains reported for a task with no actions"]
    task = saturator.task
    if not chains:
        everything = range(len(task.actions))
        if task.goal <= saturator.closure(everything):
            return ["zero chains reported but the goal is reachable"]
        return []
    problems = []
    seen: set[frozenset] = set()
    previous_length = 0
    for number, chain in enumerate(chains, start=1):
        steps = [step["action"] for step in chain["steps"]]
        unknown = [s for s in steps if s not in saturator.index]
        if unknown:
            problems.append(f"chain {number}: unknown action {unknown[0]!r}")
            continue
        if chain["total_actions"] != len(steps):
            problems.append(f"chain {number}: total_actions is not the step count")
        if len(steps) < previous_length:
            problems.append(f"chain {number}: shorter than the chain before it")
        previous_length = len(steps)
        exploits = frozenset(saturator.index[s] for s in steps
                             if task.action(s).source[0] == "exploit")
        if chain["chain_length_exploits"] != len(exploits):
            problems.append(f"chain {number}: chain_length_exploits is not the exploit count")
        if exploits in seen:
            problems.append(f"chain {number}: repeats an earlier chain's exploit set")
        seen.add(exploits)
        order_problem = _simulate(task, steps)
        if order_problem:
            problems.append(f"chain {number}: {order_problem}")
        if not saturator.reaches_goal(exploits):
            problems.append(f"chain {number}: its exploits cannot reach the goal")
        elif any(saturator.reaches_goal(exploits - {e}) for e in exploits):
            problems.append(f"chain {number}: not minimal, an exploit can be dropped")
    return problems


def check_sweep(payload: dict, expected: dict) -> list[str]:
    """Per-host counts and mean lengths must equal the recorded values."""
    per_host = payload.get("per_host", {})
    problems = []
    if set(per_host) != set(expected["per_host"]):
        problems.append("the swept hosts differ from the recorded ones")
    for host, want in expected["per_host"].items():
        got = per_host.get(host)
        if got is None:
            continue
        if got["plans"] != want["plans"]:
            problems.append(f"{host}: {got['plans']} plans, recorded {want['plans']}")
        if not math.isclose(got["mean_chain_length"], want["mean_chain_length"],
                            rel_tol=1e-12):
            problems.append(f"{host}: mean_chain_length {got['mean_chain_length']}, "
                            f"recorded {want['mean_chain_length']}")
    if payload.get("total") != expected["total"]:
        problems.append(f"total {payload.get('total')}, recorded {expected['total']}")
    return problems


def check_external(payload: dict, plan_files: list[list[str]]) -> list[str]:
    """The chains must be the plan files handed to the stub planner, in order."""
    chains = [[step["action"] for step in chain["steps"]]
              for chain in payload.get("chains", [])]
    if payload.get("count") != len(chains):
        return ["count does not match the chains listed"]
    if chains != plan_files:
        return [f"{len(chains)} chains differ from the {len(plan_files)} plan files"]
    return []
