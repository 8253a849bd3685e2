"""Golden search order: the plans find_top_k returns, step by step and in order.

``tests/golden/search_order.json`` pins the step ids of every plan on
``random_fixture(0..29)`` for k in {1, 13} and several expansion budgets,
and the three per-level searches of every host in a purdue@21 sweep at the
sweep's default budget, where data1's search stops at the budget. The file
was written by the string-set search that preceded the interned core, by
running this module as a script:

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

GOLDEN = Path(__file__).resolve().parent / "golden" / "search_order.json"
RANDOM_SEEDS = range(30)
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


def capture() -> dict:
    return {"random": {str(seed): random_orders(seed) for seed in RANDOM_SEEDS},
            "purdue21_sweep": purdue21_sweep_orders()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_fixture_order(golden, seed):
    assert random_orders(seed) == golden["random"][str(seed)]


def test_purdue21_sweep_order(golden, caplog):
    orders = purdue21_sweep_orders()
    assert orders == golden["purdue21_sweep"]
    # only data1's ROOT search stops at the budget, with 5 plans
    stops = [r for r in caplog.records if "enumeration stopped" in r.getMessage()]
    assert [r.getMessage() for r in stops] == [
        f"plan enumeration stopped after {SWEEP_BUDGET} expansions with 5 plan(s); "
        "raise max_expansions for exhaustive results"]
    assert len(orders["data1 ROOT"]) == 5


if __name__ == "__main__":
    text = json.dumps(capture(), indent=0, sort_keys=True)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(text)} bytes)", file=sys.stderr)
