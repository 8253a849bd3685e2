"""The benchmark's four workloads: inputs, query command lines and checks.

Every workload is a closed loop of one client: the next query starts when
the previous one returns. ``setup`` writes a workload's first round of
inputs under a directory, from the seed alone, and returns how to make each
round and how to check an output. A round is one query for the workloads
with a single input, and BATCH_POOL queries for ``batch_random``. Why each
workload was chosen, its sizes and the recorded sweep values are in
``workloads.json``.
"""
from __future__ import annotations

import json
import random
import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable

from chainplan.analysis import find_chains
from chainplan.catalog import ExploitMatrix, records_from_dict
from chainplan.netmodel import network_from_dict
from chainplan.synth import purdue_fixture, random_fixture

import checks

K = 13
BATCH_POOL = 200
SPEC = json.loads((Path(__file__).with_name("workloads.json")).read_text(encoding="utf-8"))


@dataclass
class Prepared:
    """``round(r)`` writes round ``r``'s inputs and returns its queries as
    (input key, argv) pairs; ``check_payload(key, payload)`` lists what is
    wrong with one query's JSON output."""

    round: Callable[[int], list[tuple[Hashable, list[str]]]]
    check_payload: Callable[[Hashable, dict], list[str]]

    def check(self, key: Hashable, stdout: str) -> list[str]:
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        return self.check_payload(key, payload)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int], Prepared]
    traced_queries: int


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _plan_argv(network: str, catalog: str, *extra: str) -> list[str]:
    return ["plan", "--network", network, "--catalog", catalog,
            *extra, "--format", "json", "--no-meta"]


class _ChainChecker:
    """Checks plan outputs; each input's task is compiled once, when first needed."""

    def __init__(self, inputs: dict[Hashable, tuple[str, str]]):
        self.inputs = inputs
        self.saturators: dict[Hashable, checks.Saturator | None] = {}

    def __call__(self, key: Hashable, payload: dict) -> list[str]:
        if key not in self.saturators:
            task = checks.compile_task(*self.inputs[key])
            self.saturators[key] = None if task is None else checks.Saturator(task)
        return checks.check_chains(payload, self.saturators[key], K)


def setup_plan_purdue400(work: Path, seed: int) -> Prepared:
    network, catalog = purdue_fixture(hosts=400, seed=seed)
    inputs = {0: (_write(work / "network.json", network), _write(work / "catalog.json", catalog))}
    argv = _plan_argv(*inputs[0], "--k", str(K))
    return Prepared(lambda r: [(0, argv)], _ChainChecker(inputs))


def setup_sweep_purdue21(work: Path, seed: int) -> Prepared:
    network, catalog = purdue_fixture(hosts=21, seed=seed)
    argv = ["sweep", "--network", _write(work / "network.json", network),
            "--catalog", _write(work / "catalog.json", catalog),
            "--k", str(K), "--format", "json", "--no-meta"]
    expected = SPEC["workloads"]["sweep_purdue21"]["expected"]
    return Prepared(lambda r: [(0, argv)], lambda key, payload: checks.check_sweep(payload, expected))


def _prefixed(network: dict, catalog: dict, tag: str) -> tuple[dict, dict]:
    """The same inventory under new names: every host name and exploit id
    gets the prefix ``tag``. A common prefix keeps every name's sort order,
    so the program does the same work on the copy."""
    host = {h["name"]: f"{tag}_{h['name']}" for h in network["hosts"]}
    scenario = dict(network["scenario"])
    scenario["attacker_host"] = host[scenario["attacker_host"]]
    scenario["goal_host"] = host[scenario["goal_host"]]
    network = dict(network, name=f"{tag}_{network['name']}", scenario=scenario,
                   hosts=[dict(h, name=host[h["name"]]) for h in network["hosts"]],
                   trusted_channels=[[host[a], host[b]] for a, b in network["trusted_channels"]])
    records = [dict(r, id=f"{tag}_{r['id']}") for r in catalog["records"]]
    return network, {"records": records}


def setup_batch_random(work: Path, seed: int) -> Prepared:
    """Rounds over the same BATCH_POOL inventories, random_fixture(0..),
    in a seed-shuffled order, each round under names no other round or seed
    uses. Every run thus plays whole rounds of one fixed mix: the mix's cost
    is dominated by a few dense tasks, and pools drawn per seed differ in
    them by far more than the run-to-run noise.

    Round 0's outputs are checked in full; a later round's output must be
    round 0's output for the same inventory, under that round's names.
    """
    order = random.Random(seed).sample(range(BATCH_POOL), BATCH_POOL)
    base = [random_fixture(i) for i in order]
    inputs: dict[Hashable, tuple[str, str]] = {}
    rounds: dict[int, list] = {}

    def tag(r: int) -> str:
        return f"r{r}s{seed}".replace("-", "n")

    def write_round(r: int) -> list:
        if r not in rounds:
            queries = []
            for i, (network, catalog) in zip(order, base):
                network, catalog = _prefixed(network, catalog, tag(r))
                inputs[r, i] = (_write(work / f"network-{tag(r)}-{i}.json", network),
                                _write(work / f"catalog-{tag(r)}-{i}.json", catalog))
                queries.append(((r, i), _plan_argv(*inputs[r, i], "--k", str(K))))
            rounds[r] = queries
        return rounds[r]

    full_check = _ChainChecker(inputs)
    verified: dict[int, tuple[str, list[str]]] = {}  # inventory -> round-0 output, problems

    def check(key, payload: dict) -> list[str]:
        r, i = key
        text = json.dumps(payload, sort_keys=True)
        if r != 0 and i in verified:
            expected, problems = verified[i]
            if text.replace(f"{tag(r)}_", f"{tag(0)}_") != expected:
                return ["output differs from round 0's output for the same inventory"]
            return problems
        problems = full_check(key, payload)
        if r == 0:
            verified[i] = (text, problems)
        return problems

    write_round(0)
    return Prepared(write_round, check)


def setup_external_purdue21(work: Path, seed: int) -> Prepared:
    network, catalog = purdue_fixture(hosts=21, seed=seed)
    search = find_chains(network_from_dict(network),
                         ExploitMatrix(tuple(records_from_dict(catalog))), K)
    plans = [list(plan.steps) for plan in search.plans]
    plan_dir = work / "plans"
    plan_dir.mkdir()
    for number, steps in enumerate(plans, start=1):
        (plan_dir / f"plan.{number}").write_text(
            "".join(f"({step})\n" for step in steps), encoding="utf-8")
    # The stub "planner" copies the prepared plan files into its working
    # directory, where the adapter collects plan* files.
    copy = f"cp {shlex.quote(str(plan_dir))}/plan.* ."
    config = {"external": {"command": f"sh -c {shlex.quote(copy)}", "timeout_s": 60}}
    argv = _plan_argv(_write(work / "network.json", network),
                      _write(work / "catalog.json", catalog),
                      "--planner", "external", "--config", _write(work / "config.json", config))
    return Prepared(lambda r: [(0, argv)], lambda key, payload: checks.check_external(payload, plans))


WORKLOADS = {
    w.name: w for w in (
        Workload("plan_purdue400", setup_plan_purdue400, traced_queries=1),
        Workload("sweep_purdue21", setup_sweep_purdue21, traced_queries=1),
        Workload("batch_random", setup_batch_random, traced_queries=BATCH_POOL),
        Workload("external_purdue21", setup_external_purdue21, traced_queries=5),
    )
}
