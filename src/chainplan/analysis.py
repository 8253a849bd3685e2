"""Chain reports and the experiment procedures built on top of the planner:
per-target sweeps, privilege upper/lower-bound sensitivity, and timing.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

from .catalog import (
    ExploitMatrix,
    ExploitRecord,
    ExploitType,
    PrivilegeLevel,
)
from .errors import EmptyDomain, UnknownClass
from .netmodel import NetworkSpec, RelevanceResult, select_relevant_exploits
from .pddlgen import (
    CONNECT_ACTIONS,
    PddlDocument,
    compromised_atom,
    emit_domain,
    emit_problem,
    resolve_exploit_action,
)
from .planner import Plan, PlanningTask, exploit_key, find_top_k, ground

# --- pipeline -------------------------------------------------------------------


def emit_documents(net: NetworkSpec, matrix: ExploitMatrix
                   ) -> tuple[RelevanceResult, PddlDocument, PddlDocument]:
    """Relevance, then the domain and problem documents. Raises EmptyDomain,
    carrying the relevance result, when no exploit is relevant."""
    relevance = select_relevant_exploits(net, matrix)
    return relevance, emit_domain(relevance, matrix, net), emit_problem(net)


def compile_network(net: NetworkSpec, matrix: ExploitMatrix
                    ) -> tuple[RelevanceResult, PddlDocument, PddlDocument, PlanningTask]:
    """``emit_documents`` plus the ground task. Only the goal atom depends on
    the scenario's goal: retarget with ``PlanningTask.with_goal`` instead of
    compiling again."""
    relevance, domain, problem = emit_documents(net, matrix)
    return relevance, domain, problem, ground(domain, problem)


@dataclass(frozen=True)
class ChainSearch:
    """Everything produced by one end-to-end planning run."""

    plans: tuple[Plan, ...]
    task: PlanningTask | None
    relevance: RelevanceResult
    domain: PddlDocument | None
    problem: PddlDocument | None


def find_chains(net: NetworkSpec, matrix: ExploitMatrix, k: int,
                max_len: int | None = None,
                max_expansions: int = 100_000) -> ChainSearch:
    """Compile, then enumerate the top-k chains, in one call."""
    try:
        relevance, domain, problem, task = compile_network(net, matrix)
    except EmptyDomain as exc:
        return ChainSearch(plans=(), task=None, relevance=exc.relevance,
                           domain=None, problem=None)
    plans = find_top_k(task, k, max_len=max_len, max_expansions=max_expansions)
    return ChainSearch(plans=tuple(plans), task=task, relevance=relevance,
                       domain=domain, problem=problem)


# --- chain reports ----------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    action: str
    kind: str  # connect | rce | pe
    from_host: str | None
    to_host: str
    protocol: str | None = None
    exploit_id: str | None = None
    exploit_name: str | None = None
    privilege_after: PrivilegeLevel | None = None

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "kind": self.kind,
            "from_host": self.from_host,
            "to_host": self.to_host,
            "protocol": self.protocol,
            "exploit_id": self.exploit_id,
            "exploit_name": self.exploit_name,
            "privilege_after": None if self.privilege_after is None
            else self.privilege_after.name,
        }


@dataclass(frozen=True)
class ChainReport:
    steps: tuple[ChainStep, ...]
    chain_length_exploits: int
    total_actions: int

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "chain_length_exploits": self.chain_length_exploits,
            "total_actions": self.total_actions,
        }


def to_chain_report(plan: Plan, task: PlanningTask, matrix: ExploitMatrix) -> ChainReport:
    """Annotate a plan with per-step hosts, protocols and acquired privileges."""
    steps = []
    for step_id in plan.steps:
        action = task.action(step_id)
        if action.source[0] == "connect":
            protocol = CONNECT_ACTIONS[action.name].value
            # trusted variant has no network argument
            if action.name.endswith("_trusted"):
                from_host, to_host = action.args[0], action.args[1]
            else:
                from_host, to_host = action.args[1], action.args[2]
            steps.append(ChainStep(
                action=step_id, kind="connect", from_host=from_host,
                to_host=to_host, protocol=protocol,
            ))
            continue
        record = resolve_exploit_action(action.source[1], matrix)
        cls = record.exploit_class
        if cls.exploit_type is ExploitType.PE:
            steps.append(ChainStep(
                action=step_id, kind="pe", from_host=action.args[0],
                to_host=action.args[0], exploit_id=record.id,
                exploit_name=record.name, privilege_after=cls.acquired,
            ))
        else:
            steps.append(ChainStep(
                action=step_id, kind="rce", from_host=action.args[0],
                to_host=action.args[1], protocol=cls.protocol.value,
                exploit_id=record.id, exploit_name=record.name,
                privilege_after=cls.acquired,
            ))
    exploit_count = sum(1 for s in steps if s.kind != "connect")
    return ChainReport(
        steps=tuple(steps),
        chain_length_exploits=exploit_count,
        total_actions=len(steps),
    )


# --- target sweep --------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    plans: int
    mean_chain_length: float
    duration_s: float


@dataclass(frozen=True)
class SweepResult:
    per_host: dict

    @property
    def total(self) -> int:
        return sum(entry.plans for entry in self.per_host.values())

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {}
        for host, entry in self.per_host.items():
            row = {"plans": entry.plans, "mean_chain_length": entry.mean_chain_length}
            if include_timing:
                row["duration_s"] = entry.duration_s
            out[host] = row
        return {"per_host": out, "total": self.total}


_SWEEP_LEVELS = (PrivilegeLevel.LOW, PrivilegeLevel.HIGH, PrivilegeLevel.ROOT)


def sweep_targets(net: NetworkSpec, matrix: ExploitMatrix, k: int,
                  max_len: int | None = None,
                  max_expansions: int = 20_000) -> SweepResult:
    """Re-plan once per candidate goal host (every host but the attacker's).

    A chain counts when it compromises the target at any privilege level:
    the state is purely propositional, so this is computed by planning once
    per privilege goal (one compile, retargeted ``with_goal``) and keeping
    the minimal exploit sets of the union. Hosts with no chains are reported
    with a zero count; results are keyed and ordered by host name. The
    default search budget is modest because a sweep runs three searches per
    host; raise it for exhaustive counts on dense networks. A host's
    ``duration_s`` times its searches only, not the shared compile.
    """
    try:
        *_, task = compile_network(net, matrix)
    except EmptyDomain:  # nothing relevant: every host reports zero chains
        task = None
    per_host = {}
    for host in sorted(net.host_names()):
        if host == net.scenario.attacker_host:
            continue
        start = time.perf_counter()
        keys: dict = {}
        for level in _SWEEP_LEVELS if task is not None else ():
            goal = compromised_atom(host, level).render()
            plans = find_top_k(task.with_goal((goal,)), k, max_len=max_len,
                               max_expansions=max_expansions)
            for plan in plans:
                keys.setdefault(exploit_key(task, plan), plan)
        minimal = [key for key in keys
                   if not any(other < key for other in keys)]
        minimal.sort(key=len)
        duration = time.perf_counter() - start
        kept = minimal[:k]
        per_host[host] = SweepEntry(
            plans=len(kept),
            mean_chain_length=statistics.fmean(len(key) for key in kept)
            if kept else 0.0,
            duration_s=duration,
        )
    return SweepResult(per_host=per_host)


# --- privilege sensitivity -------------------------------------------------------


def _shift_acquired(record: ExploitRecord, target: PrivilegeLevel) -> ExploitRecord:
    cls = record.exploit_class
    try:
        shifted = replace(cls, acquired=target)
    except UnknownClass:
        # e.g. lowering RCE_*_L_H would invert the required<acquired order
        return record
    return record.with_class(shifted)


def transform_matrix(matrix: ExploitMatrix, mode: str) -> ExploitMatrix:
    """UB: RCE exploits acquiring LOW are granted HIGH; LB: RCE exploits
    acquiring HIGH are demoted to LOW. ROOT grants and PE classes are never
    touched, and a shift that would break the class invariants is skipped.
    """
    if mode not in ("ub", "lb"):
        raise ValueError(f"mode must be 'ub' or 'lb', got {mode!r}")
    records = []
    for record in matrix:
        cls = record.exploit_class
        if cls.exploit_type is ExploitType.RCE:
            if mode == "ub" and cls.acquired is PrivilegeLevel.LOW:
                record = _shift_acquired(record, PrivilegeLevel.HIGH)
            elif mode == "lb" and cls.acquired is PrivilegeLevel.HIGH:
                record = _shift_acquired(record, PrivilegeLevel.LOW)
        records.append(record)
    return ExploitMatrix(tuple(records))


@dataclass(frozen=True)
class SensitivityResult:
    baseline: int
    upper_bound: int
    lower_bound: int

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "upper_bound": self.upper_bound,
            "lower_bound": self.lower_bound,
        }


def privilege_sensitivity(net: NetworkSpec, matrix: ExploitMatrix, k: int,
                          max_len: int | None = None,
                          max_expansions: int = 100_000) -> SensitivityResult:
    """Plan counts under the baseline matrix and its UB/LB transforms."""
    counts = {}
    for label, variant in (
        ("baseline", matrix),
        ("ub", transform_matrix(matrix, "ub")),
        ("lb", transform_matrix(matrix, "lb")),
    ):
        search = find_chains(net, variant, k, max_len=max_len,
                             max_expansions=max_expansions)
        counts[label] = len(search.plans)
    return SensitivityResult(
        baseline=counts["baseline"],
        upper_bound=counts["ub"],
        lower_bound=counts["lb"],
    )


# --- timing ------------------------------------------------------------------


@dataclass(frozen=True)
class TimingStats:
    mean_s: float
    std_s: float
    runs: int

    def to_dict(self) -> dict:
        return {"mean_s": self.mean_s, "std_s": self.std_s, "runs": self.runs}


def timing_harness(runs: int, job) -> TimingStats:
    """Wall-clock mean and sample standard deviation of ``job()`` over ``runs``."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        job()
        samples.append(time.perf_counter() - start)
    std = statistics.stdev(samples) if runs > 1 else 0.0
    return TimingStats(mean_s=statistics.fmean(samples), std_s=std, runs=runs)
