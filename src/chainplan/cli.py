"""Command-line front end: classify catalogs, emit PDDL, plan, sweep,
run the privilege sensitivity analysis, and validate plan files.

Exit codes: 0 success (>= 1 chain for planning commands), 3 planning
succeeded but found zero chains, 2 external planner timeout, 1 any other
error.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import analysis, classifier
from .catalog import PrivilegeLevel, load_catalog, load_records, save_records
from .errors import ChainplanError, PlannerTimeout, ProcessError, SchemaError, UnknownActionId
from .netmodel import load_network
from .pddlgen import parse_plan, read_utf8, to_pddl
from .planner import ExternalPlannerConfig, check_plan, ground, match_plan, run_external

logger = logging.getLogger(__name__)

API_KEY_ENV = "CHAINPLAN_API_KEY"


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except ValueError as exc:
            raise SchemaError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise SchemaError(f"config {path}: top level must be a JSON object")
    return config


def _config_section(path: str | None, name: str, string_keys: tuple[str, ...]) -> dict:
    """The config file's ``name`` section: an object whose ``string_keys``, if set, are strings."""
    section = _load_config(path).get(name, {})
    if not isinstance(section, dict):
        raise SchemaError(f"must be an object in config {path}", f"/{name}")
    for key in string_keys:
        if not isinstance(section.get(key, ""), str):
            raise SchemaError(f"must be a string in config {path}", f"/{name}/{key}")
    return section


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ChainplanError(f"missing required option --{name.replace('_', '-')}")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _meta() -> dict:
    return {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "tool": "chainplan"}


# --- classify -----------------------------------------------------------------


def _llm_config(path: str | None) -> dict:
    """The config file's ``llm`` section, type-checked."""
    llm = _config_section(path, "llm", ("endpoint", "model"))
    parallelism = llm.get("parallelism", 1)
    if isinstance(parallelism, bool) or not isinstance(parallelism, int) or parallelism < 1:
        raise SchemaError(f"must be an integer >= 1 in config {path}", "/llm/parallelism")
    return llm


def cmd_classify(args) -> int:
    _require(args, "catalog", "out")
    records = load_records(args.catalog)
    config = _llm_config(args.config)
    unclassified = [r for r in records if r.exploit_class is None]

    outcomes = []
    if args.offline:
        if unclassified:
            logger.warning("%d records remain unclassified in offline mode",
                           len(unclassified))
        classified = records
    else:
        endpoint = args.endpoint or config.get("endpoint")
        model = args.model or config.get("model")
        api_key = os.environ.get(API_KEY_ENV)
        if not endpoint or not model:
            raise ChainplanError(
                "LLM endpoint/model not configured (flags or config llm.endpoint/llm.model)"
            )
        if not api_key:
            raise ChainplanError(f"missing API key: set {API_KEY_ENV} or use --offline")
        client = classifier.HttpLlmEndpoint(endpoint=endpoint, model=model, api_key=api_key)
        parallelism = args.parallelism or config.get("parallelism", 4)
        shots = classifier.default_few_shots()

        def classify_one(record):
            return classifier.classify_llm(record, client, shots,
                                           cache_dir=args.cache_dir)

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(classify_one, unclassified))
        by_id = {o.record_id: o for o in outcomes}
        classified = [
            r if r.exploit_class is not None else r.with_class(by_id[r.id].predicted)
            for r in records
        ]

    save_records(classified, args.out)
    summary = {
        "records": len(records),
        "already_classified": len(records) - len(unclassified),
        "newly_classified": len(outcomes),
        "unclassified": sum(1 for r in classified if r.exploit_class is None),
        "out": str(args.out),
    }
    if args.format == "json":
        _print_json(summary)
    else:
        print(f"classified catalog written to {args.out} "
              f"({summary['newly_classified']} new, "
              f"{summary['already_classified']} preserved)")
    return 0


# --- emit-pddl -----------------------------------------------------------------


def cmd_emit_pddl(args) -> int:
    _require(args, "network", "catalog")
    relevance, domain, problem = analysis.emit_documents(load_network(args.network),
                                                         load_catalog(args.catalog))
    domain_text = to_pddl(domain)
    problem_text = to_pddl(problem)
    if args.stdout:
        print(domain_text, end="")
        print(problem_text, end="")
    else:
        outdir = Path(args.out or ".")
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "domain.pddl").write_text(domain_text, encoding="utf-8")
        (outdir / "problem.pddl").write_text(problem_text, encoding="utf-8")
        print(f"wrote {outdir / 'domain.pddl'} and {outdir / 'problem.pddl'}",
              file=sys.stderr)
    print(f"relevant exploits: {len(relevance.relevant)} kept, "
          f"{relevance.discarded_count} discarded", file=sys.stderr)
    return 0


# --- plan ----------------------------------------------------------------------


def _chain_payload(plans, task, matrix, relevance, no_meta: bool) -> dict:
    reports = [analysis.to_chain_report(p, task, matrix) for p in plans]
    payload = {
        "count": len(reports),
        "chains": [r.to_dict() for r in reports],
        "relevance": {
            "kept": len(relevance.relevant),
            "discarded": relevance.discarded_count,
        },
    }
    if not no_meta:
        payload["meta"] = _meta()
    return payload


def _print_chains_text(payload: dict) -> None:
    if not payload["chains"]:
        print("no chains found")
        return
    for index, chain in enumerate(payload["chains"], start=1):
        print(f"chain {index}: {chain['total_actions']} actions, "
              f"{chain['chain_length_exploits']} exploits")
        for number, step in enumerate(chain["steps"], start=1):
            if step["kind"] == "connect":
                print(f"  {number}. {step['action']}  "
                      f"[{step['protocol']} connect {step['from_host']} -> {step['to_host']}]")
            else:
                grants = step["privilege_after"]
                print(f"  {number}. {step['action']}  "
                      f"[{step['kind'].upper()} {step['from_host']} -> {step['to_host']}"
                      f" grants {grants}]")
        print()


def _retarget(net, args):
    if args.target:
        goal_priv = PrivilegeLevel.parse(args.goal_priv) if args.goal_priv else None
        return net.with_goal(args.target, goal_priv)
    if args.goal_priv:
        return net.with_goal(net.scenario.goal_host, PrivilegeLevel.parse(args.goal_priv))
    return net


def _external_config(path: str | None) -> ExternalPlannerConfig:
    """The config file's ``external`` section, type-checked."""
    external = _config_section(path, "external", ("command", "plan_glob"))
    if "command" not in external:
        raise ChainplanError("external planner requires config key external.command")
    timeout_s = external.get("timeout_s", 300.0)
    # subprocess waits through poll(), whose timeout is at most 2**31 - 1 milliseconds
    if isinstance(timeout_s, bool) or not isinstance(timeout_s, (int, float)) \
            or not 0 < timeout_s <= 2_147_483:
        raise SchemaError(f"must be a positive number of seconds, at most 2147483, "
                          f"in config {path}", "/external/timeout_s")
    plan_glob = external.get("plan_glob", "plan*")
    parts = Path(plan_glob).parts
    # Path.glob rejects some of these with a raw error; ".." would leave the run's directory
    if not parts or Path(plan_glob).is_absolute() or ".." in parts \
            or any("**" in part and part != "**" for part in parts):
        raise SchemaError(f"must be a relative pattern inside the planner's directory "
                          f"in config {path}", "/external/plan_glob")
    config = ExternalPlannerConfig(
        command=external["command"],
        timeout_s=float(timeout_s),
        plan_glob=plan_glob,
    )
    try:
        config.argv(Path())
    except ProcessError as exc:
        raise SchemaError(f"{exc} in config {path}", "/external/command") from None
    return config


def cmd_plan(args) -> int:
    _require(args, "network", "catalog")
    net = _retarget(load_network(args.network), args)
    matrix = load_catalog(args.catalog)

    if args.planner == "external":
        config = _external_config(args.config)
        relevance, domain, problem = analysis.emit_documents(net, matrix)
        plans = run_external(to_pddl(domain), to_pddl(problem), config)
        # the reports need the record ids, which the task run_external grounds
        # from the text does not carry; ground only once plans are in
        task = ground(domain, problem)
    else:
        search = analysis.find_chains(net, matrix, args.k, max_len=args.max_len,
                                      max_expansions=args.max_expansions)
        relevance, task, plans = search.relevance, search.task, search.plans

    payload = _chain_payload(plans, task, matrix, relevance, args.no_meta)
    if args.format == "json":
        _print_json(payload)
    else:
        _print_chains_text(payload)
    return 0 if plans else 3


# --- sweep / sensitivity ----------------------------------------------------------


def cmd_sweep(args) -> int:
    _require(args, "network", "catalog")
    net = load_network(args.network)
    matrix = load_catalog(args.catalog)
    result = analysis.sweep_targets(net, matrix, args.k, max_len=args.max_len,
                                    max_expansions=args.max_expansions)
    payload = result.to_dict(include_timing=not args.no_meta)
    if not args.no_meta:
        payload["meta"] = _meta()
    if args.format == "json":
        _print_json(payload)
    else:
        for host, row in payload["per_host"].items():
            timing = f"  {row['duration_s']:.3f}s" if "duration_s" in row else ""
            print(f"{host}: {row['plans']} chains "
                  f"(mean exploits {row['mean_chain_length']:.1f}){timing}")
        print(f"total: {payload['total']}")
    return 0 if result.total > 0 else 3


def cmd_sensitivity(args) -> int:
    _require(args, "network", "catalog")
    net = load_network(args.network)
    matrix = load_catalog(args.catalog)
    result = analysis.privilege_sensitivity(net, matrix, args.k, max_len=args.max_len,
                                            max_expansions=args.max_expansions)
    payload = result.to_dict()
    if not args.no_meta:
        payload["meta"] = _meta()
    if args.format == "json":
        _print_json(payload)
    else:
        print(f"baseline: {result.baseline} chains")
        print(f"upper bound (LOW grants raised to HIGH): {result.upper_bound} chains")
        print(f"lower bound (HIGH grants demoted to LOW): {result.lower_bound} chains")
    return 0


# --- validate-plan -----------------------------------------------------------------


def cmd_validate_plan(args) -> int:
    _require(args, "network", "catalog")
    net = _retarget(load_network(args.network), args)
    *_, task = analysis.compile_network(net, load_catalog(args.catalog))
    parsed = parse_plan(read_utf8(args.plan))
    try:
        plan = match_plan(task, parsed)
    except UnknownActionId as exc:
        verdict = {"valid": False, "reason": str(exc)}
    else:
        result = check_plan(task, plan)
        verdict = {"valid": result.valid, "reason": result.reason,
                   "failed_step": result.step_index}
    if args.format == "json":
        _print_json(verdict)
    else:
        print("valid plan" if verdict["valid"] else f"invalid plan: {verdict['reason']}")
    return 0 if verdict["valid"] else 3


# --- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, since exit code 2 means an external planner timeout."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainplan",
        description="Discover multi-step PE/RCE exploit chains in a declared network",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--network", help="network JSON file")
    common.add_argument("--catalog", help="exploit catalog JSON file")
    common.add_argument("--out", help="output directory or file")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--config", help="config JSON file")
    common.add_argument("--no-meta", action="store_true",
                        help="omit timestamps/timings for reproducible output")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="label unclassified catalog records")
    p.add_argument("--offline", action="store_true",
                   help="no LLM calls; keep existing labels")
    p.add_argument("--endpoint", help="chat-completions endpoint URL")
    p.add_argument("--model", help="model identifier")
    p.add_argument("--parallelism", type=_positive_int, help="concurrent LLM calls")
    p.add_argument("--cache-dir", help="outcome cache directory")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("emit-pddl", parents=[common],
                       help="write domain.pddl and problem.pddl")
    p.add_argument("--stdout", action="store_true",
                   help="stream both documents to stdout")
    p.set_defaults(func=cmd_emit_pddl)

    p = sub.add_parser("plan", parents=[common], help="enumerate exploit chains")
    p.add_argument("--k", type=_positive_int, default=1,
                   help="number of chains to search for")
    p.add_argument("--max-len", type=_positive_int, default=None, help="plan length bound")
    p.add_argument("--max-expansions", type=_positive_int, default=100_000,
                   help="search effort budget: exploit sets expanded")
    p.add_argument("--planner", choices=("embedded", "external"), default="embedded")
    p.add_argument("--target", help="override the goal host")
    p.add_argument("--goal-priv", help="override the goal privilege (NONE/LOW/HIGH/ROOT)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", parents=[common],
                       help="re-plan against every candidate goal host")
    p.add_argument("--k", type=_positive_int, default=13)
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.add_argument("--max-expansions", type=_positive_int, default=20_000,
                   help="search effort budget per goal: exploit sets expanded")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sensitivity", parents=[common],
                       help="plan counts under privilege UB/LB transforms")
    p.add_argument("--k", type=_positive_int, default=13)
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.add_argument("--max-expansions", type=_positive_int, default=100_000,
                   help="search effort budget per scenario: exploit sets expanded")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("validate-plan", parents=[common],
                       help="check a plan file against the grounded task")
    p.add_argument("--plan", required=True, help="plan file to validate")
    p.add_argument("--target", help="override the goal host")
    p.add_argument("--goal-priv", help="override the goal privilege")
    p.set_defaults(func=cmd_validate_plan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except PlannerTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChainplanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
