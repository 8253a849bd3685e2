"""Delete-free planning: grounding, transition semantics, top-K enumeration.

The task is monotonic (add-only effects), so states only grow along a plan.
Grounding evaluates static configuration facts against the initial state and
keeps only fluent preconditions; the search then enumerates minimal plans in
nondecreasing length order, deduplicated by their set of exploit actions
(connect steps are interleaving noise and excluded from the key).
"""
from __future__ import annotations

import heapq
import logging
import re
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import (
    ArityMismatch,
    InvalidExternalPlan,
    NotApplicable,
    PlannerTimeout,
    ProcessError,
    TypeMismatch,
    UnknownActionId,
)
from .pddlgen import CONNECT_ACTIONS, Atom, PddlDocument, PlanFile, parse_pddl, parse_plan

logger = logging.getLogger(__name__)


def atom_str(name: str, args) -> str:
    return "(" + " ".join((name,) + tuple(args)) + ")"


@dataclass(frozen=True)
class GroundAction:
    """A grounded action with positive-CNF precondition and add-only effects.

    ``precondition`` holds only the clauses that were not already settled by
    static facts at grounding time; each clause is a non-empty disjunction.
    """

    name: str
    args: tuple[str, ...]
    source: tuple[str, str | None]  # ("exploit", record id) | ("connect", "tcp"/"udp")
    precondition: tuple[frozenset[str], ...]
    effects: tuple[str, ...]

    @property
    def id(self) -> str:
        return " ".join((self.name,) + self.args)


@dataclass(frozen=True)
class PlanningTask:
    """The (atoms, actions, init, goal) tuple of a monotonic planning task."""

    atoms: tuple[str, ...]
    actions: tuple[GroundAction, ...]
    init: frozenset[str]
    goal: frozenset[str]
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self._by_id:
            object.__setattr__(self, "_by_id", {a.id: a for a in self.actions})

    def action(self, action_id: str) -> GroundAction:
        try:
            return self._by_id[action_id]
        except KeyError:
            raise UnknownActionId(f"unknown action {action_id!r}") from None

    def with_goal(self, goal_atoms) -> "PlanningTask":
        """The same task with another goal. Grounding does not depend on it, so
        atoms (the universe as grounded), actions, init and the id index are shared."""
        return replace(self, goal=frozenset(goal_atoms), _by_id=self._by_id)

    @property
    def exploit_actions(self) -> tuple[GroundAction, ...]:
        return tuple(a for a in self.actions if a.source[0] == "exploit")

    @property
    def connect_actions(self) -> tuple[GroundAction, ...]:
        return tuple(a for a in self.actions if a.source[0] == "connect")


@dataclass(frozen=True)
class Plan:
    """An ordered exploit chain; unit action costs, so cost == length."""

    steps: tuple[str, ...]

    @property
    def cost(self) -> int:
        return len(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def exploit_key(task: PlanningTask, plan: Plan) -> frozenset:
    """Dedup key: the set of exploit-sourced actions in the plan."""
    return frozenset(s for s in plan.steps if task.action(s).source[0] == "exploit")


# --- grounding -----------------------------------------------------------------

def _schema_source(schema) -> tuple[str, str | None]:
    if schema.name in CONNECT_ACTIONS:
        return ("connect", CONNECT_ACTIONS[schema.name].value.lower())
    return ("exploit", schema.record_id)


def _check_schema_types(schema, predicates, object_types):
    param_types = dict(schema.parameters)
    atoms = [a for clause in schema.precondition for a in clause]
    atoms += list(schema.effects)
    for atom in atoms:
        if atom.name not in predicates:
            raise TypeMismatch(f"action {schema.name}: undeclared predicate {atom.name!r}")
        decl = predicates[atom.name]
        if len(atom.args) != len(decl):
            raise ArityMismatch(
                f"action {schema.name}: {atom.name} expects {len(decl)} args, "
                f"got {len(atom.args)}"
            )
        for arg, (_, want) in zip(atom.args, decl):
            if arg.startswith("?"):
                have = param_types.get(arg)
                if have is None:
                    raise TypeMismatch(f"action {schema.name}: unbound variable {arg}")
            else:
                have = object_types.get(arg)
                if have is None:
                    raise TypeMismatch(f"action {schema.name}: unknown constant {arg!r}")
            if have != want:
                raise TypeMismatch(
                    f"action {schema.name}: {atom.name} wants {want}, {arg} is {have}"
                )


class _FactIndex:
    """Per-predicate fact lists with lazy (position, value) indexes."""

    def __init__(self, init_by_pred: dict):
        self.by_pred = init_by_pred
        self._positional: dict[tuple, dict] = {}

    def candidates(self, atom: Atom, binding: dict):
        """Smallest fact list consistent with the bound positions of ``atom``."""
        facts = self.by_pred.get(atom.name, ())
        best = facts
        for position, pattern in enumerate(atom.args):
            value = binding.get(pattern) if pattern.startswith("?") else pattern
            if value is None:
                continue
            key = (atom.name, position)
            index = self._positional.get(key)
            if index is None:
                index = {}
                for fact in facts:
                    index.setdefault(fact[position], []).append(fact)
                self._positional[key] = index
            bucket = index.get(value, ())
            if len(bucket) < len(best):
                best = bucket
        return best


def _bindings(schema, fluents, facts: "_FactIndex", objects_by_type):
    """Enumerate parameter bindings consistent with the static singleton atoms."""
    constraints = [
        clause[0] for clause in schema.precondition
        if len(clause) == 1 and clause[0].name not in fluents
    ]

    def solve(index: int, binding: dict):
        if index == len(constraints):
            yield binding
            return
        atom = constraints[index]
        for fact_args in facts.candidates(atom, binding):
            new = dict(binding)
            ok = True
            for pattern, value in zip(atom.args, fact_args):
                if pattern.startswith("?"):
                    bound = new.get(pattern)
                    if bound is None:
                        new[pattern] = value
                    elif bound != value:
                        ok = False
                        break
                elif pattern != value:
                    ok = False
                    break
            if ok:
                yield from solve(index + 1, new)

    for partial in solve(0, {}):
        free = [(v, t) for v, t in schema.parameters if v not in partial]

        def expand(index: int, binding: dict):
            if index == len(free):
                yield dict(binding)
                return
            var, kind = free[index]
            for obj in objects_by_type.get(kind, ()):
                binding[var] = obj
                yield from expand(index + 1, binding)
            binding.pop(var, None)

        yield from expand(0, dict(partial))


def ground(domain: PddlDocument, problem: PddlDocument) -> PlanningTask:
    """Instantiate action schemas over the problem's typed objects.

    Static facts (configuration, topology, listeners, trusted channels) are
    settled against init: instantiations with an unsatisfiable static clause
    are dropped and satisfied static clauses are removed, so the remaining
    preconditions reference only fluent atoms. Connect actions never connect
    a host to itself, and exploit instantiations whose required connection
    atom has no achiever are dropped as unreachable.
    """
    predicates = dict(domain.predicates)
    object_types: dict[str, str] = {}
    objects_by_type: dict[str, list[str]] = {}
    for name, kind in problem.objects + domain.constants:
        previous = object_types.get(name)
        if previous is not None and previous != kind:
            raise TypeMismatch(f"object {name!r} declared both {previous} and {kind}")
        if previous is None:
            object_types[name] = kind
            objects_by_type.setdefault(kind, []).append(name)

    def check_ground_atom(atom: Atom, where: str):
        if atom.name not in predicates:
            raise TypeMismatch(f"{where}: undeclared predicate {atom.name!r}")
        decl = predicates[atom.name]
        if len(atom.args) != len(decl):
            raise ArityMismatch(f"{where}: {atom.name} expects {len(decl)} args")
        for arg, (_, want) in zip(atom.args, decl):
            have = object_types.get(arg)
            if have is None:
                raise TypeMismatch(f"{where}: unknown object {arg!r}")
            if have != want:
                raise TypeMismatch(f"{where}: {atom.name} wants {want}, {arg} is {have}")

    init_by_pred: dict[str, list[tuple[str, ...]]] = {}
    init_set = set()
    for atom in problem.init:
        check_ground_atom(atom, ":init")
        init_by_pred.setdefault(atom.name, []).append(atom.args)
        init_set.add(atom_str(atom.name, atom.args))
    for atom in problem.goal:
        check_ground_atom(atom, ":goal")

    fluents = {a.name for schema in domain.actions for a in schema.effects}
    facts = _FactIndex(init_by_pred)

    actions: list[GroundAction] = []
    for schema in domain.actions:
        _check_schema_types(schema, predicates, object_types)
        source = _schema_source(schema)
        for binding in _bindings(schema, fluents, facts, objects_by_type):
            if source[0] == "connect" and \
                    binding.get("?local_host") == binding.get("?remote_host"):
                continue

            def inst(atom: Atom) -> str:
                return atom_str(atom.name, tuple(binding.get(a, a) for a in atom.args))

            runtime: list[frozenset[str]] = []
            dead = False
            for clause in schema.precondition:
                static_hit = False
                fluent_atoms = []
                for atom in clause:
                    text = inst(atom)
                    if atom.name in fluents:
                        fluent_atoms.append(text)
                    elif text in init_set:
                        static_hit = True
                        break
                if static_hit:
                    continue
                if not fluent_atoms:
                    dead = True
                    break
                runtime.append(frozenset(fluent_atoms))
            if dead:
                continue
            actions.append(GroundAction(
                name=schema.name,
                args=tuple(binding[v] for v, _ in schema.parameters),
                source=source,
                precondition=tuple(runtime),
                effects=tuple(inst(a) for a in schema.effects),
            ))

    # connection atoms are achievable only through init or a connect action
    achievable = {a for a in init_set if a.startswith("(TCP_connected ")
                  or a.startswith("(UDP_connected ")}
    for action in actions:
        if action.source[0] == "connect":
            achievable.update(action.effects)

    def conn_possible(action: GroundAction) -> bool:
        for clause in action.precondition:
            possible = False
            for atom in clause:
                if atom.startswith("(TCP_connected ") or atom.startswith("(UDP_connected "):
                    if atom in achievable:
                        possible = True
                        break
                else:
                    possible = True
                    break
            if not possible:
                return False
        return True

    actions = [a for a in actions if a.source[0] == "connect" or conn_possible(a)]
    actions.sort(key=lambda a: (a.name, a.args))

    universe = set(init_set)
    for atom in problem.goal:
        universe.add(atom_str(atom.name, atom.args))
    for action in actions:
        for clause in action.precondition:
            universe.update(clause)
        universe.update(action.effects)

    return PlanningTask(
        atoms=tuple(sorted(universe)),
        actions=tuple(actions),
        init=frozenset(init_set),
        goal=frozenset(atom_str(a.name, a.args) for a in problem.goal),
    )


# --- transition semantics ---------------------------------------------------

def is_applicable(state, action: GroundAction) -> bool:
    """True iff every precondition clause has at least one member in state."""
    return all(clause & state for clause in action.precondition)


def apply(state, action: GroundAction) -> frozenset:
    """Successor state ``state ∪ effects``; the input state is not mutated."""
    if not is_applicable(state, action):
        raise NotApplicable(f"{action.id} is not applicable")
    return frozenset(state) | set(action.effects)


def applicable_actions(task: PlanningTask, state) -> list[GroundAction]:
    return [a for a in task.actions if is_applicable(state, a)]


# --- plan validation ----------------------------------------------------------

def match_plan(task: PlanningTask, parsed: PlanFile) -> Plan:
    """Resolve plan-file steps to action ids, ignoring case. Raises
    UnknownActionId naming the first step that matches no action."""
    by_lower = {a.id.lower(): a.id for a in task.actions}
    steps = []
    for step in parsed.steps:
        text = " ".join((step.name,) + step.args)
        action_id = by_lower.get(text.lower())
        if action_id is None:
            raise UnknownActionId(f"unknown action {text!r}")
        steps.append(action_id)
    return Plan(steps=tuple(steps))


@dataclass(frozen=True)
class PlanCheck:
    valid: bool
    step_index: int | None = None
    action_id: str | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def check_plan(task: PlanningTask, plan: Plan) -> PlanCheck:
    """Simulate the plan from init; report the first violated clause."""
    state = set(task.init)
    for index, step in enumerate(plan.steps):
        action = task.action(step)
        for clause in action.precondition:
            if not clause & state:
                return PlanCheck(
                    valid=False, step_index=index, action_id=step,
                    reason="unsatisfied clause: " + " or ".join(sorted(clause)),
                )
        state.update(action.effects)
    missing = task.goal - state
    if missing:
        return PlanCheck(valid=False, reason="goal not reached: "
                                             + " ".join(sorted(missing)))
    return PlanCheck(valid=True)


# --- search --------------------------------------------------------------------

def _is_connected_atom(atom: str) -> bool:
    return atom.startswith("(TCP_connected ") or atom.startswith("(UDP_connected ")


def _saturate(task: PlanningTask) -> frozenset:
    """Delete-free reachability fixpoint over all actions."""
    state = set(task.init)
    pending = list(task.actions)
    changed = True
    while changed:
        changed = False
        remaining = []
        for action in pending:
            if all(clause & state for clause in action.precondition):
                before = len(state)
                state.update(action.effects)
                if len(state) != before:
                    changed = True
            else:
                remaining.append(action)
        pending = remaining
    return frozenset(state)


def _relevant_action_ids(task: PlanningTask) -> set:
    """Backward relevance closure from the goal.

    An action outside the closure cannot contribute to any goal derivation,
    so a minimal plan never contains it; restricting enumeration to the
    closure is lossless for minimal-plan enumeration.
    """
    relevant_atoms = set(task.goal)
    relevant_ids: set[str] = set()
    changed = True
    while changed:
        changed = False
        for action in task.actions:
            if action.id in relevant_ids:
                continue
            if any(effect in relevant_atoms for effect in action.effects):
                relevant_ids.add(action.id)
                changed = True
                for clause in action.precondition:
                    relevant_atoms.update(clause)
    return relevant_ids


class _Search:
    """Uniform-cost enumeration of minimal plans over exploit-action sets.

    Connect actions are pure enablers (their only effect is a connection
    atom), so the search branches on exploit actions and inserts the
    lexicographically first applicable connect step whenever a needed
    connection atom is missing. States are tracked as deltas over init.
    Only goal-relevant exploits are branched on; anything else cannot occur
    in a minimal plan.
    """

    def __init__(self, task: PlanningTask):
        self.task = task
        self.goal_missing = task.goal - task.init
        self.goal_reachable = self.goal_missing <= _saturate(task)
        relevant = _relevant_action_ids(task)

        self.connects = []
        for action in sorted(task.connect_actions, key=lambda a: (a.name, a.args)):
            clauses = tuple(c for c in action.precondition if not c & task.init)
            self.connects.append((action, clauses))
        self.achievers: dict[str, list] = {}
        for action, clauses in self.connects:
            for effect in action.effects:
                self.achievers.setdefault(effect, []).append((action, clauses))

        self.prepared = []
        for action in sorted(task.exploit_actions, key=lambda a: (a.name, a.args)):
            if action.id not in relevant:
                continue
            clauses = []
            conn_needs = []
            for clause in action.precondition:
                if clause & task.init:
                    continue
                if len(clause) == 1 and _is_connected_atom(next(iter(clause))):
                    conn_needs.append(next(iter(clause)))
                    continue
                clauses.append(clause)
            self.prepared.append((action, tuple(clauses), tuple(conn_needs)))

        self.always = [item for item in self.prepared if not item[1]]
        self.by_gate: dict[str, list] = {}
        for item in self.prepared:
            if item[1]:
                for atom in item[1][0]:
                    self.by_gate.setdefault(atom, []).append(item)

    def candidates(self, delta: frozenset):
        seen = set()
        out = []
        for item in self.always:
            seen.add(item[0].id)
            out.append(item)
        for atom in delta:
            for item in self.by_gate.get(atom, ()):
                if item[0].id not in seen:
                    seen.add(item[0].id)
                    out.append(item)
        out.sort(key=lambda item: (item[0].name, item[0].args))
        return out

    def realize(self, item, delta: frozenset):
        """Connect insertions + applicability for one exploit in one state.

        Returns (inserts, added_atoms) or None when inapplicable.
        """
        action, clauses, conn_needs = item
        for clause in clauses:
            if not clause & delta:
                return None
        inserts = []
        added = []
        for atom in conn_needs:
            if atom in delta or atom in added:
                continue
            chosen = None
            for connect, connect_clauses in self.achievers.get(atom, ()):
                if all(c & delta for c in connect_clauses):
                    chosen = connect
                    break
            if chosen is None:
                return None
            inserts.append(chosen)
            added.append(atom)
        return inserts, added

    def run(self, k: int, max_len: int, max_expansions: int):
        if not self.goal_reachable:
            return []
        plans: list[Plan] = []
        recorded: list[frozenset] = []
        visited: set[frozenset] = set()
        counter = 0
        popped = 0
        heap = [(0, (), counter, frozenset(), frozenset())]
        while heap and len(plans) < k:
            popped += 1
            if popped > max_expansions:
                logger.warning(
                    "plan enumeration stopped after %d expansions with %d plan(s); "
                    "raise max_expansions for exhaustive results", max_expansions,
                    len(plans))
                break
            cost, steps, _, exploit_set, delta = heapq.heappop(heap)
            if exploit_set in visited:
                continue
            visited.add(exploit_set)
            if self.goal_missing <= delta:
                if not any(r <= exploit_set for r in recorded):
                    recorded.append(exploit_set)
                    plans.append(Plan(steps=steps))
                continue
            if any(r <= exploit_set for r in recorded):
                continue
            for item in self.candidates(delta):
                action = item[0]
                if action.id in exploit_set:
                    continue
                state_now = delta  # effects already present make the step vacuous
                if all(e in state_now or e in self.task.init for e in action.effects):
                    continue
                realized = self.realize(item, delta)
                if realized is None:
                    continue
                inserts, added = realized
                child_steps = steps + tuple(c.id for c in inserts) + (action.id,)
                if len(child_steps) > max_len:
                    continue
                child_set = exploit_set | {action.id}
                if child_set in visited:
                    continue
                if any(r <= child_set for r in recorded):
                    continue
                child_delta = delta | set(added) | set(action.effects)
                counter += 1
                heapq.heappush(heap, (len(child_steps), child_steps, counter,
                                      child_set, child_delta))
        return plans


def find_top_k(task: PlanningTask, k: int, max_len: int | None = None,
               max_expansions: int = 100_000) -> list[Plan]:
    """Up to ``k`` minimal plans, nondecreasing in length, deduplicated by
    exploit-action set.

    ``max_len`` bounds total plan length (default: the number of grounded
    actions). ``max_expansions`` caps search effort: results are exhaustive
    whenever the search finishes within the budget (small tasks exhaust in
    well under a thousand expansions); on very dense tasks a warning is
    logged and the plans found so far are returned.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = max_len if max_len is not None else len(task.actions)
    return _Search(task).run(k, bound, max_expansions)


def find_plan(task: PlanningTask, max_len: int | None = None) -> Plan | None:
    """A shortest plan, or None when the goal is unreachable."""
    plans = find_top_k(task, 1, max_len=max_len)
    return plans[0] if plans else None


# --- external planners -----------------------------------------------------------

@dataclass(frozen=True)
class ExternalPlannerConfig:
    """Command template with {domain} {problem} {plan_out} placeholders."""

    command: str
    timeout_s: float = 300.0
    plan_glob: str = "plan*"


_NUM_SUFFIX_RE = re.compile(r"\.(\d+)$")


def _plan_file_order(path: Path) -> tuple:
    match = _NUM_SUFFIX_RE.search(path.name)
    if match:
        return (path.name[: match.start()], 1, int(match.group(1)))
    return (path.name, 0, 0)


def run_external(domain_path, problem_path, config: ExternalPlannerConfig) -> list[Plan]:
    """Run an external planner and validate everything it produced.

    All plan files matching ``plan_glob`` (base name plus .1, .2, ...
    suffixes) are parsed and simulated against the internally grounded task;
    a parsed plan that fails validation raises InvalidExternalPlan rather
    than being silently dropped.
    """
    domain_text = Path(domain_path).read_text(encoding="utf-8")
    problem_text = Path(problem_path).read_text(encoding="utf-8")
    task = ground(parse_pddl(domain_text), parse_pddl(problem_text))

    with tempfile.TemporaryDirectory(prefix="chainplan-") as tmp:
        workdir = Path(tmp)
        domain_copy = workdir / "domain.pddl"
        problem_copy = workdir / "problem.pddl"
        shutil.copyfile(domain_path, domain_copy)
        shutil.copyfile(problem_path, problem_copy)
        plan_out = workdir / "plan"
        command = config.command.format(
            domain=domain_copy, problem=problem_copy, plan_out=plan_out
        )
        try:
            proc = subprocess.run(
                shlex.split(command), cwd=workdir, capture_output=True,
                text=True, timeout=config.timeout_s,
            )
        except subprocess.TimeoutExpired:
            raise PlannerTimeout(
                f"external planner exceeded {config.timeout_s}s"
            ) from None

        files = sorted(workdir.glob(config.plan_glob), key=_plan_file_order)
        files = [f for f in files if f.name not in ("domain.pddl", "problem.pddl")]
        if not files:
            raise ProcessError(
                f"external planner exited {proc.returncode} with no plan "
                f"(stderr: {proc.stderr.strip()[:300]})"
            )
        if proc.returncode != 0:
            logger.warning("external planner exited %d but produced plan files",
                           proc.returncode)

        plans = []
        for plan_path in files:
            parsed = parse_plan(plan_path.read_text(encoding="utf-8"))
            try:
                plan = match_plan(task, parsed)
            except UnknownActionId as exc:
                raise InvalidExternalPlan(f"{plan_path.name}: {exc}") from None
            verdict = check_plan(task, plan)
            if not verdict:
                raise InvalidExternalPlan(f"{plan_path.name}: {verdict.reason}")
            plans.append(plan)
    return plans
