"""Tests of the benchmark itself: its output checks and its tracer.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run

run.load_program()

import checks  # noqa: E402  (needs chainplan on the path)
import workloads  # noqa: E402
from chainplan import cli  # noqa: E402
from tracer import TRACED  # noqa: E402


@pytest.fixture(scope="module")
def plan21(tmp_path_factory):
    """The checker for a plan query on the 21-host Purdue network, and its output."""
    work = tmp_path_factory.mktemp("plan21")
    network, catalog = workloads.purdue_fixture(hosts=21)
    inputs = {0: (workloads._write(work / "n.json", network),
                  workloads._write(work / "c.json", catalog))}
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(workloads._plan_argv(*inputs[0], "--k", "13")) == 0
    return workloads._ChainChecker(inputs), json.loads(out.getvalue())


def test_checker_accepts_the_program_output(plan21):
    check, payload = plan21
    assert payload["count"] == 13
    assert check(0, payload) == []


def test_checker_rejects_a_chain_with_an_exploit_step_dropped(plan21):
    check, payload = plan21
    broken = copy.deepcopy(payload)
    steps = broken["chains"][0]["steps"]
    dropped = next(i for i, step in enumerate(steps) if step["kind"] != "connect")
    del steps[dropped]
    problems = check(0, broken)
    assert any("chain 1: its exploits cannot reach the goal" in p for p in problems)


def test_checker_rejects_a_duplicated_chain(plan21):
    check, payload = plan21
    broken = copy.deepcopy(payload)
    broken["chains"].insert(1, copy.deepcopy(broken["chains"][0]))
    broken["chains"].pop()  # keep the count at k
    problems = check(0, broken)
    assert any("chain 2: repeats an earlier chain's exploit set" in p for p in problems)


def test_checker_rejects_a_non_minimal_chain(plan21):
    check, payload = plan21
    first, second = payload["chains"][:2]
    seen = {step["action"] for step in first["steps"]}
    # the first chain followed by the second's missing steps: it reaches the
    # goal, but its exploit set is a strict superset of a feasible one
    steps = first["steps"] + [s for s in second["steps"] if s["action"] not in seen]
    padded = {"count": 1, "chains": [{
        "steps": steps, "total_actions": len(steps),
        "chain_length_exploits": sum(1 for s in steps if s["kind"] != "connect"),
    }]}
    assert check(0, padded) == ["chain 1: not minimal, an exploit can be dropped"]


def test_checker_rejects_a_wrong_sweep_count():
    expected = workloads.SPEC["workloads"]["sweep_purdue21"]["expected"]
    payload = {"per_host": copy.deepcopy(expected["per_host"]), "total": expected["total"]}
    assert checks.check_sweep(payload, expected) == []
    payload["per_host"]["data1"]["plans"] += 1
    payload["total"] += 1
    problems = checks.check_sweep(payload, expected)
    assert "data1: 6 plans, recorded 5" in problems
    assert f"total {expected['total'] + 1}, recorded {expected['total']}" in problems


def test_checker_rejects_chains_that_differ_from_the_plan_files():
    plans = [["a x", "b y"], ["c z"]]
    payload = {"count": 2, "chains": [{"steps": [{"action": a} for a in p]} for p in plans]}
    assert checks.check_external(payload, plans) == []
    assert checks.check_external(payload, plans[:1]) != []


def test_batch_later_rounds_must_match_round_0(tmp_path):
    batch = workloads.setup_batch_random(tmp_path, 5)
    payloads = {}
    for r in (0, 1):
        for key, argv in batch.round(r)[:20]:
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.main(argv) in (0, 3)
            payloads[key] = json.loads(out.getvalue())
            assert batch.check_payload(key, payloads[key]) == []
    key = next(k for k in payloads if k[0] == 1 and payloads[k]["count"] > 1)
    payloads[key]["chains"].pop()
    payloads[key]["count"] -= 1
    assert batch.check_payload(key, payloads[key]) == [
        "output differs from round 0's output for the same inventory"]


def _traced_bindings() -> dict:
    """Every chainplan module attribute holding a traced function."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "chainplan" or name.startswith("chainplan."):
            for fnames in TRACED.values():
                for fname in fnames:
                    if hasattr(module, fname):
                        found[(name, fname)] = getattr(module, fname)
    return found


@pytest.fixture(scope="module")
def external(tmp_path_factory):
    return workloads.setup_external_purdue21(tmp_path_factory.mktemp("external"), 7)


def test_traced_run_restores_every_wrapped_attribute(external):
    before = _traced_bindings()
    assert ("chainplan.cli", "ground") in before
    assert ("chainplan.planner", "parse_pddl") in before
    tracer, records, _ = run.traced_run(cli, external, 1)
    after = _traced_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert records[0][2] == 0
    # the spans did see the calls made through the importing modules' bindings
    sites = {span.site for span in tracer.spans}
    assert {"cli.main", "cli.run_external", "cli.ground", "planner.ground",
            "planner.parse_pddl"} <= sites


def _counts(tracer) -> list[dict]:
    return [{k: v for k, v in tally.items() if not k.endswith("_s")}
            for tally in tracer.tallies]


def test_per_layer_counts_repeat_exactly(external, tmp_path):
    first, _, _ = run.traced_run(cli, external, 2)
    second, _, _ = run.traced_run(cli, external, 2)
    assert _counts(first) == _counts(second)
    assert _counts(first)[0]["planner.ground.calls"] == 2
    assert _counts(first)[0]["pddlgen.parse_pddl.calls"] == 2

    batch = workloads.setup_batch_random(tmp_path, 3)
    first, _, _ = run.traced_run(cli, batch, 25)
    second, _, _ = run.traced_run(cli, batch, 25)
    assert _counts(first) == _counts(second)
    assert sum(c.get("planner.plans", 0) for c in _counts(first)) > 0


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
