"""Golden search order: the plans find_top_k returns, step by step and in order.

``tests/golden/search_order.json`` pins the step ids of every plan on
``random_fixture(0..29)`` for k in {1, 13} and several expansion budgets,
and a single-atom search at LOW, HIGH and ROOT for every target host of
purdue@21, at the sweep's default k and budget, where data1's ROOT search
is proved complete with 5 plans long before the budget. Those per-level
searches are the ones the sweep ran before it asked for each host at any
level in one search; they stay as orders of ``find_top_k`` on one-atom
goals. Unless a budget stops it, a search returns the plans the string-set
search that preceded the interned core returned; a budget stop can fall
later, and ``test_budget_stops_are_prefixes`` checks that it still returns
a prefix of the unbudgeted order.

``tests/golden/sweep_order.json`` pins, for ``random_fixture(0..39)``, the
plans of every host's any-level goal (the clause ``sweep_targets`` asks
for) at the sweep's k with the default budget, which none of them reaches.
Both files are written by running this module as a script:

    PYTHONPATH=src python tests/test_search_order.py
"""
import json
import sys
from pathlib import Path

import pytest

from chainplan import (
    ExploitMatrix,
    PrivilegeLevel,
    find_top_k,
    network_from_dict,
    records_from_dict,
)
from chainplan.analysis import compile_network
from chainplan.errors import EmptyDomain
from chainplan.pddlgen import compromised_atom
from chainplan.synth import purdue_fixture, random_fixture
from conftest import any_level_goal

GOLDEN = Path(__file__).resolve().parent / "golden" / "search_order.json"
SWEEP_GOLDEN = GOLDEN.with_name("sweep_order.json")
RANDOM_SEEDS = range(30)
SWEEP_SEEDS = range(40)
KS = (1, 13)
BUDGETS = (1, 25, 100_000)
SWEEP_K = 13
SWEEP_BUDGET = 20_000


def _task(network: dict, catalog: dict):
    net = network_from_dict(network)
    try:
        *_, task = compile_network(net, ExploitMatrix(tuple(records_from_dict(catalog))))
    except EmptyDomain:
        return net, None
    return net, task


def _steps(plans) -> list[list[str]]:
    return [list(plan.steps) for plan in plans]


def random_orders(seed: int) -> dict:
    _, task = _task(*random_fixture(seed))
    if task is None:
        return {}
    return {f"k={k} budget={budget}": _steps(find_top_k(task, k, max_expansions=budget))
            for k in KS for budget in BUDGETS}


def purdue21_sweep_orders() -> dict:
    net, task = _task(*purdue_fixture(hosts=21))
    out = {}
    for host in sorted(net.host_names()):
        if host == net.scenario.attacker_host:
            continue
        for level in (PrivilegeLevel.LOW, PrivilegeLevel.HIGH, PrivilegeLevel.ROOT):
            goal = compromised_atom(host, level).render()
            out[f"{host} {level.name}"] = _steps(
                find_top_k(task.with_goal((goal,)), SWEEP_K, max_expansions=SWEEP_BUDGET))
    return out


def random_sweep_orders(seed: int) -> dict:
    net, task = _task(*random_fixture(seed))
    if task is None:
        return {}
    return {host: _steps(find_top_k(task, SWEEP_K, goal=any_level_goal(host)))
            for host in sorted(net.host_names()) if host != net.scenario.attacker_host}


def capture() -> dict:
    return {"random": {str(seed): random_orders(seed) for seed in RANDOM_SEEDS},
            "purdue21_sweep": purdue21_sweep_orders()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_fixture_order(golden, seed):
    assert random_orders(seed) == golden["random"][str(seed)]


@pytest.fixture(scope="module")
def sweep_golden() -> dict:
    return json.loads(SWEEP_GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_random_fixture_sweep_order(sweep_golden, seed):
    assert random_sweep_orders(seed) == sweep_golden[str(seed)]


def test_budget_stops_are_prefixes():
    # a search stopped at its budget returns the first plans of the order an
    # unbudgeted search returns, however far it got
    stopped = 0
    for seed in RANDOM_SEEDS:
        _, task = _task(*random_fixture(seed))
        if task is None:
            continue
        for k in KS:
            full = find_top_k(task, k)
            for budget in (1, 25):
                plans = find_top_k(task, k, max_expansions=budget)
                assert plans == full[:len(plans)], (seed, k, budget)
                stopped += len(plans) < len(full)
    assert stopped > 20


def test_purdue21_sweep_order(golden, caplog):
    with caplog.at_level("DEBUG", logger="chainplan.planner"):
        orders = purdue21_sweep_orders()
    assert orders == golden["purdue21_sweep"]
    # no search stops at the budget; four ROOT searches are proved complete
    # with 5 plans before their heaps drain: data1's, then web_server1..3's
    messages = [r.getMessage() for r in caplog.records if r.name == "chainplan.planner"]
    assert not [m for m in messages if "enumeration stopped" in m]
    assert [m for m in messages if m.startswith("proved complete")] == [
        f"proved complete after {n} expansions with 5 plan(s)" for n in (530, 96, 92, 82)]
    assert [len(orders[f"{host} ROOT"]) for host in
            ("data1", "web_server1", "web_server2", "web_server3")] == [5] * 4


if __name__ == "__main__":
    for path, orders in ((GOLDEN, capture()),
                         (SWEEP_GOLDEN, {str(seed): random_sweep_orders(seed)
                                         for seed in SWEEP_SEEDS})):
        text = json.dumps(orders, indent=0, sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(text)} bytes)", file=sys.stderr)
