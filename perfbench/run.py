"""chainplan benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload plan_purdue400 --seed 7 --seconds 20 --trace 0

Runs ``chainplan.cli.main(argv)`` in this process, as one client in a closed
loop, on inputs generated from ``--seed`` by ``chainplan.synth`` and written
to JSON files before timing (``workloads.py``; why each workload was chosen,
and its sizes, are in ``workloads.json``). The loop plays whole rounds of
the workload's queries until ``--seconds`` of them have been timed. Every
output is checked after timing; a query fails if it raised, exited 1 or 2,
or failed its check (exit 3, zero chains, is a success).

``--trace 0`` reports the end-to-end metrics of that loop:

- ``query_p50_s``, ``query_p90_s``: median and nearest-rank 90th percentile
  of the query wall times (the sample count is ``attempted``);
- ``throughput_qps``: successful queries per second of timed wall time;
- ``peak_rss_mb``: peak resident memory of this process after the loop;
- ``setup_s``: the median time for a fresh interpreter to start and import
  chainplan, plus the median time to generate and write the inputs, each
  taken over SETUP_REPEATS tries.

``--trace 1`` runs the same loop, then the workload's first queries again
with spans around each pipeline stage (``tracer.py``), and reports the
per-layer metrics as means per traced query. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A table of the metrics goes to standard error; the spans and a copy of the
result, stamped with the Python version, CPU count and git SHA, go to
``.perfbench_work/`` at the checkout root.

The program is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with code 1 and prints no result.

Only the benchmark's own process and its children are measured: no CPU
pinning, cache dropping or other machine settings are used.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
NOTE = ("only the benchmark's own process and its children are measured; "
        "no CPU pinning, cache dropping or machine settings")


def load_program() -> None:
    """Import chainplan from this checkout's src/, and from nowhere else."""
    if not (SRC / "chainplan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no chainplan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chainplan.cli

    if Path(chainplan.cli.__file__).resolve().parent != SRC / "chainplan":
        raise SystemExit(f"perfbench: chainplan was imported from {chainplan.cli.__file__}")


def startup_s() -> float:
    """Wall time for a fresh interpreter to start and import chainplan.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import chainplan.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_query(main, argv) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code, stdout, error) of one in-process CLI call."""
    out = io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a query that raises is a failed query
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), error


def verdict(prepared, key, code, stdout: str, error, cache: dict) -> list[str]:
    """Why a query failed; empty when it succeeded. Exit 3 (zero chains) is success."""
    if error is not None:
        return [error]
    if code not in (0, 3):
        return [f"exit code {code}"]
    if (key, stdout) not in cache:
        cache[key, stdout] = prepared.check(key, stdout)
    return cache[key, stdout]


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def timed_loop(cli, prepared, seconds: float):
    """Whole rounds of queries until the timed part reaches ``seconds``.

    Writing a round's inputs is not timed. Returns the records
    (input key, seconds, exit code, stdout, error) and the timed wall time.
    """
    records = []
    timed = 0.0
    for r in itertools.count():
        queries = prepared.round(r)
        start = time.perf_counter()
        for key, argv in queries:
            records.append((key,) + run_query(cli.main, argv))
        timed += time.perf_counter() - start
        if timed >= seconds:
            return records, timed


def traced_run(cli, prepared, queries: int):
    """Re-run the first ``queries`` queries of the loop with spans around each stage."""
    from chainplan.pddlgen import CONNECT_ACTIONS

    from tracer import Tracer, self_times

    def on_ground(tracer, args, kwargs, task):
        tracer.add("planner.ground_actions", len(task.actions))
        tracer.add("planner.atoms", len(task.atoms))

    def on_find_top_k(tracer, args, kwargs, plans):
        tracer.add("planner.plans", len(plans))

    def on_emit_domain(tracer, args, kwargs, domain):
        tracer.add("pddlgen.schemas",
                   sum(1 for a in domain.actions if a.name not in CONNECT_ACTIONS))

    def on_to_pddl(tracer, args, kwargs, text):
        tracer.add("pddlgen.pddl_bytes", len(text.encode("utf-8")))

    def on_select(tracer, args, kwargs, relevance):
        tracer.add("netmodel.kept", len(relevance.relevant))
        tracer.add("netmodel.discarded", relevance.discarded_count)

    def on_sweep(tracer, args, kwargs, result):
        tracer.add("analysis.sweep_total", result.total)

    def probe_search(tracer, original, args, kwargs):
        # on the task about to be searched: set-up alone (saturation,
        # relevance closure, one expansion), then the search for one plan
        task = args[0] if args else kwargs["task"]
        planner_log = logging.getLogger("chainplan.planner")
        planner_log.disabled = True  # the probe's budget stop is not the query's
        try:
            start = time.perf_counter()
            original(task, 1, max_expansions=1)
            tracer.add("planner.search_setup_s", time.perf_counter() - start)
            start = time.perf_counter()
            original(task, 1)
            tracer.add("planner.first_plan_s", time.perf_counter() - start)
        finally:
            planner_log.disabled = False

    tracer = Tracer(
        observe={"planner.ground": on_ground, "planner.find_top_k": on_find_top_k,
                 "pddlgen.emit_domain": on_emit_domain, "pddlgen.to_pddl": on_to_pddl,
                 "netmodel.select_relevant_exploits": on_select,
                 "analysis.sweep_targets": on_sweep},
        probe={"planner.find_top_k": probe_search},
    )
    stream = itertools.chain.from_iterable(prepared.round(r) for r in itertools.count())
    records = []
    with tracer:
        for key, argv in itertools.islice(stream, queries):
            tracer.begin_query()
            start = tracer.now()
            _, code, stdout, error = run_query(cli.main, argv)
            records.append((key, tracer.now() - start, code, stdout, error))
    return tracer, records, self_times(tracer.spans, queries)


def layer_metrics(tracer, durations, selfs, untraced_p50: float) -> dict:
    """Every per-layer metric, as a mean per traced query.

    Sizes of what a stage made (ground actions, atoms, schemas, exploits
    kept and discarded) are means per call of that stage. The search
    set-up and first-plan times are the probes of ``traced_run``;
    ``planner.enumerate_s`` is find_top_k's self time minus the set-up
    probe. ``analysis.sweep_kept_ratio`` is the chains a sweep kept over
    the plans its searches returned, 0 when no sweep ran.
    """
    queries = len(selfs)

    def mean(values) -> float:
        return sum(values) / queries

    def tally(name: str) -> float:
        return mean(t.get(name, 0) for t in tracer.tallies)

    def self_s(name: str) -> float:
        return mean(s.get(name, 0.0) for s in selfs)

    def per_call(name: str, calls: str) -> float:
        total_calls = sum(t.get(calls, 0) for t in tracer.tallies)
        return sum(t.get(name, 0) for t in tracer.tallies) / total_calls if total_calls else 0.0

    plans = tally("planner.plans")
    sweep_total = tally("analysis.sweep_total")
    values = {
        "planner.ground.self_s": (self_s("planner.ground"), "s"),
        "planner.ground.calls": (tally("planner.ground.calls"), "count"),
        "planner.ground_actions": (per_call("planner.ground_actions", "planner.ground.calls"), "count"),
        "planner.atoms": (per_call("planner.atoms", "planner.ground.calls"), "count"),
        "planner.find_top_k.self_s": (self_s("planner.find_top_k"), "s"),
        "planner.find_top_k.calls": (tally("planner.find_top_k.calls"), "count"),
        "planner.search_setup_s": (tally("planner.search_setup_s"), "s"),
        "planner.enumerate_s": (self_s("planner.find_top_k") - tally("planner.search_setup_s"), "s"),
        "planner.first_plan_s": (tally("planner.first_plan_s"), "s"),
        "planner.plans": (plans, "count"),
        "planner.truncated": (tally("planner.truncated"), "count"),
        "planner.run_external.self_s": (self_s("planner.run_external"), "s"),
        "planner.check_plan.self_s": (self_s("planner.check_plan"), "s"),
        "pddlgen.emit_domain.self_s": (self_s("pddlgen.emit_domain"), "s"),
        "pddlgen.emit_problem.self_s": (self_s("pddlgen.emit_problem"), "s"),
        "pddlgen.to_pddl.self_s": (self_s("pddlgen.to_pddl"), "s"),
        "pddlgen.parse_pddl.self_s": (self_s("pddlgen.parse_pddl"), "s"),
        "pddlgen.parse_pddl.calls": (tally("pddlgen.parse_pddl.calls"), "count"),
        "pddlgen.parse_plan.self_s": (self_s("pddlgen.parse_plan"), "s"),
        "pddlgen.resolve_exploit_action.self_s": (self_s("pddlgen.resolve_exploit_action"), "s"),
        "pddlgen.resolve_exploit_action.calls": (tally("pddlgen.resolve_exploit_action.calls"), "count"),
        "pddlgen.schemas": (per_call("pddlgen.schemas", "pddlgen.emit_domain.calls"), "count"),
        "pddlgen.pddl_bytes": (tally("pddlgen.pddl_bytes"), "bytes"),
        "netmodel.load_network.self_s": (self_s("netmodel.load_network"), "s"),
        "netmodel.select_relevant_exploits.self_s": (self_s("netmodel.select_relevant_exploits"), "s"),
        "netmodel.kept": (per_call("netmodel.kept", "netmodel.select_relevant_exploits.calls"), "count"),
        "netmodel.discarded": (per_call("netmodel.discarded", "netmodel.select_relevant_exploits.calls"), "count"),
        "catalog.load_catalog.self_s": (self_s("catalog.load_catalog"), "s"),
        "analysis.find_chains.calls": (tally("analysis.find_chains.calls"), "count"),
        "analysis.sweep_targets.self_s": (self_s("analysis.sweep_targets"), "s"),
        "analysis.sweep_total": (sweep_total, "count"),
        "analysis.sweep_kept_ratio": (sweep_total / plans if sweep_total and plans else 0.0, "ratio"),
        "analysis.to_chain_report.self_s": (self_s("analysis.to_chain_report"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.queries": (queries, "count"),
        "trace.overhead_ratio": (statistics.median(durations) / untraced_p50, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from chainplan import cli

    from workloads import SPEC, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    run_dir = WORK / f"run-{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(run_dir / "tmp")  # the program's temporary files stay in the checkout
    try:
        startup_times = [startup_s() for _ in range(SETUP_REPEATS)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            inputs = run_dir / "inputs"
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir()
            start = time.perf_counter()
            prepared = workload.setup(inputs, args.seed)
            setup_times.append(time.perf_counter() - start)
        setup_s = statistics.median(startup_times) + statistics.median(setup_times)

        records, wall = timed_loop(cli, prepared, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        durations = [r[1] for r in records]
        p50 = statistics.median(durations)

        cache: dict = {}
        failures = {}
        for number, (key, _, code, stdout, error) in enumerate(records):
            problems = verdict(prepared, key, code, stdout, error, cache)
            if problems:
                failures[number] = problems
        completed = len(records) - len(failures)

        if args.trace:
            tracer, traced, selfs = traced_run(cli, prepared, workload.traced_queries)
            untraced_out = {key: stdout for key, _, _, stdout, _ in records}
            for number, (key, _, code, stdout, error) in enumerate(traced):
                problems = verdict(prepared, key, code, stdout, error, cache)
                if not problems and key in untraced_out and stdout != untraced_out[key]:
                    problems = ["traced output differs from the untraced output"]
                if problems:
                    failures[f"traced {number}"] = problems
            metrics = layer_metrics(tracer, [r[1] for r in traced], selfs, p50)
            (WORK / f"spans-{workload.name}-seed{args.seed}.json").write_text(
                json.dumps([s.to_dict() for s in tracer.spans]), encoding="utf-8")
        else:
            metrics = {
                "query_p50_s": {"value": p50, "unit": "s"},
                "query_p90_s": {"value": percentile(durations, 0.90), "unit": "s"},
                "throughput_qps": {"value": completed / wall, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(records) + (workload.traced_queries if args.trace else 0)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    stamp = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "queries": len(records), "timed_wall_s": wall,
        "query_s": durations,
        "failed_ratio": len(failures) / attempted,
        "startup_s": startup_times, "input_setup_s": setup_times,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "git_sha": git_sha(), "note": NOTE,
        "workload_spec": {k: v for k, v in SPEC["workloads"][workload.name].items()
                          if k != "expected"},
        "run_s": time.perf_counter() - process_start,
    }
    (WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "failures": {str(k): v for k, v in failures.items()},
                    **result}, indent=2), encoding="utf-8")
    for number, problems in list(failures.items())[:5]:
        print(f"perfbench: query {number} failed: {'; '.join(problems[:3])}", file=sys.stderr)
    print(f"perfbench: {workload.name} seed={args.seed} queries={len(records)} "
          f"failed_ratio={stamp['failed_ratio']:g} python={stamp['python']} "
          f"cpus={stamp['cpu_count']} sha={stamp['git_sha']}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
