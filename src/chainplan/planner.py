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


def _is_connected_atom(atom: str) -> bool:
    return atom.startswith("(TCP_connected ") or atom.startswith("(UDP_connected ")


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
    achievable = {a for a in init_set if _is_connected_atom(a)}
    for action in actions:
        if action.source[0] == "connect":
            achievable.update(action.effects)

    def conn_possible(action: GroundAction) -> bool:
        for clause in action.precondition:
            possible = False
            for atom in clause:
                if _is_connected_atom(atom):
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

def _saturate(task: PlanningTask) -> frozenset:
    """Delete-free reachability fixpoint over all actions.

    One worklist pass: every action counts its clauses that init leaves
    unsatisfied, and each atom watches the clauses it would satisfy. An
    action fires once its count reaches zero.
    """
    state = set(task.init)
    unsatisfied: list[int] = []  # per action
    owner: list[int] = []  # per watched clause: its action
    watchers: dict[str, list[int]] = {}  # atom -> watched clauses
    ready = []
    for index, action in enumerate(task.actions):
        count = 0
        for clause in action.precondition:
            if clause.isdisjoint(state):
                for atom in clause:
                    watchers.setdefault(atom, []).append(len(owner))
                owner.append(index)
                count += 1
        unsatisfied.append(count)
        if not count:
            ready.append(index)
    satisfied = [False] * len(owner)
    while ready:
        for effect in task.actions[ready.pop()].effects:
            if effect in state:
                continue
            state.add(effect)
            for clause in watchers.get(effect, ()):
                if not satisfied[clause]:
                    satisfied[clause] = True
                    index = owner[clause]
                    unsatisfied[index] -= 1
                    if not unsatisfied[index]:
                        ready.append(index)
    return frozenset(state)


def _relevant_action_ids(task: PlanningTask) -> set:
    """Backward relevance closure from the goal.

    An action outside the closure cannot contribute to any goal derivation,
    so a minimal plan never contains it; restricting enumeration to the
    closure is lossless for minimal-plan enumeration. One worklist pass over
    an atom -> achievers index.
    """
    achievers: dict[str, list[int]] = {}
    for index, action in enumerate(task.actions):
        for effect in action.effects:
            achievers.setdefault(effect, []).append(index)
    relevant_atoms = set(task.goal)
    pending = list(relevant_atoms)
    relevant: set[int] = set()
    while pending:
        for index in achievers.get(pending.pop(), ()):
            if index in relevant:
                continue
            relevant.add(index)
            for clause in task.actions[index].precondition:
                for atom in clause:
                    if atom not in relevant_atoms:
                        relevant_atoms.add(atom)
                        pending.append(atom)
    return {task.actions[index].id for index in relevant}


class _Search:
    """Uniform-cost enumeration of minimal plans over exploit-action sets.

    Connect actions are pure enablers (their only effect is a connection
    atom), so the search branches on exploit actions and inserts the
    lexicographically first applicable connect step whenever a needed
    connection atom is missing. States are tracked as deltas over init.
    Only goal-relevant exploits are branched on; anything else cannot occur
    in a minimal plan.

    The search runs on ints. The atoms that can enter a delta (the goal's,
    and the clause atoms, connection needs and effects of the relevant
    exploits) each get a bit, so a delta and a clause are masks; an
    exploit set is a mask over the prepared exploits. Init atoms need no
    bit: clauses that init satisfies are dropped. A step is the action's
    rank in the id order of the actions a plan can hold, so heap entries
    order and tie-break exactly as their id strings would.
    """

    def __init__(self, task: PlanningTask):
        init = task.init
        missing = task.goal - init
        self.goal_reachable = missing <= _saturate(task)
        relevant = _relevant_action_ids(task)

        exploits = []  # (id, clauses, connection needs, effects), as atoms
        for action in sorted(task.exploit_actions, key=lambda a: (a.name, a.args)):
            action_id = action.id
            if action_id not in relevant:
                continue
            clauses = []
            conn_needs = []
            for clause in action.precondition:
                if not clause.isdisjoint(init):
                    continue
                if len(clause) == 1 and _is_connected_atom(next(iter(clause))):
                    conn_needs.append(next(iter(clause)))
                else:
                    clauses.append(clause)
            effects = [e for e in action.effects if e not in init]
            exploits.append((action_id, clauses, conn_needs, effects))

        position: dict[str, int] = {}  # atom -> its bit
        for atom in missing:
            position.setdefault(atom, len(position))
        for _, clauses, conn_needs, effects in exploits:
            for atoms in (*clauses, conn_needs, effects):
                for atom in atoms:
                    position.setdefault(atom, len(position))

        def mask(atoms) -> int:
            # an atom without a bit never enters a delta, so it adds nothing
            out = 0
            for atom in atoms:
                if atom in position:
                    out |= 1 << position[atom]
            return out

        needed = {atom for _, _, conn_needs, _ in exploits for atom in conn_needs}
        achievers: dict[str, list] = {}  # needed atom -> [(id, clause masks)]
        for action in sorted((a for a in task.connect_actions
                              if not needed.isdisjoint(a.effects)),
                             key=lambda a: (a.name, a.args)):
            clauses = tuple(mask(c) for c in action.precondition if c.isdisjoint(init))
            if all(clauses):  # an empty mask is a clause no delta satisfies
                for effect in needed.intersection(action.effects):
                    achievers.setdefault(effect, []).append((action.id, clauses))

        self.goal = mask(missing)
        self.ids = sorted({e[0] for e in exploits}
                          | {c[0] for chain in achievers.values() for c in chain})
        rank = {action_id: r for r, action_id in enumerate(self.ids)}
        self.prepared = []  # (rank, clause masks, ((need mask, achievers), ...), effects)
        self.always = 0  # exploits with no clause to gate on
        self.by_gate = [0] * len(position)  # bit -> exploits whose first clause holds it
        for index, (action_id, clauses, conn_needs, effects) in enumerate(exploits):
            needs = tuple((mask((atom,)),
                           tuple((rank[c], cc) for c, cc in achievers.get(atom, ())))
                          for atom in conn_needs)
            self.prepared.append((rank[action_id], tuple(mask(c) for c in clauses), needs,
                                  mask(effects)))
            if not clauses:
                self.always |= 1 << index
            for atom in clauses[0] if clauses else ():
                self.by_gate[position[atom]] |= 1 << index

    @staticmethod
    def realize(clauses, needs, delta: int):
        """Connect insertions + applicability for one exploit in one state.

        Returns (inserted ranks, added atom mask) or None when inapplicable.
        """
        for clause in clauses:
            if not clause & delta:
                return None
        inserts = ()
        added = 0
        for need, achievers in needs:
            if need & (delta | added):
                continue
            for step, clauses in achievers:
                if all(c & delta for c in clauses):
                    break
            else:
                return None
            inserts += (step,)
            added |= need
        return inserts, added

    def run(self, k: int, max_len: int, max_expansions: int):
        if not self.goal_reachable:
            return []
        goal, prepared, by_gate, realize = self.goal, self.prepared, self.by_gate, self.realize
        plans: list[Plan] = []
        recorded: list[int] = []
        visited: set[int] = set()
        counter = 0
        popped = 0
        heap = [(0, (), counter, 0, 0)]
        while heap and len(plans) < k:
            popped += 1
            if popped > max_expansions:
                logger.warning(
                    "plan enumeration stopped after %d expansions with %d plan(s); "
                    "raise max_expansions for exhaustive results", max_expansions,
                    len(plans))
                break
            _, steps, _, exploit_set, delta = heapq.heappop(heap)
            if exploit_set in visited:
                continue
            visited.add(exploit_set)
            if delta & goal == goal:
                if not any(r & exploit_set == r for r in recorded):
                    recorded.append(exploit_set)
                    plans.append(Plan(steps=tuple(self.ids[s] for s in steps)))
                continue
            # what each recorded exploit set adds to this one: a child, one
            # exploit more, is subsumed exactly when a record adds that alone
            lacking = {r & ~exploit_set for r in recorded}
            if 0 in lacking:
                continue
            candidates = self.always
            gates = delta
            while gates:  # bit loops are inlined: this is the hot path
                low = gates & -gates
                candidates |= by_gate[low.bit_length() - 1]
                gates ^= low
            candidates &= ~exploit_set
            while candidates:  # lowest bit first, so in prepared order
                flag = candidates & -candidates
                candidates ^= flag
                step, clauses, needs, effects = prepared[flag.bit_length() - 1]
                if effects & delta == effects:  # the step is vacuous
                    continue
                realized = realize(clauses, needs, delta)
                if realized is None:
                    continue
                inserts, added = realized
                child_steps = steps + inserts + (step,)
                if len(child_steps) > max_len:
                    continue
                child_set = exploit_set | flag
                if child_set in visited or flag in lacking:
                    continue
                counter += 1
                heapq.heappush(heap, (len(child_steps), child_steps, counter,
                                      child_set, delta | added | effects))
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

    def argv(self, workdir: Path) -> list[str]:
        """The command for a run in ``workdir``: placeholders filled, split shell-style."""
        try:
            argv = shlex.split(self.command.format(
                domain=workdir / "domain.pddl", problem=workdir / "problem.pddl",
                plan_out=workdir / "plan"))
        except KeyError as exc:
            raise ProcessError(f"unknown placeholder {{{exc.args[0]}}} in planner command "
                               "(use {domain}, {problem}, {plan_out})") from None
        except (IndexError, AttributeError, TypeError, ValueError) as exc:
            raise ProcessError(f"cannot build planner command: {exc}") from None
        if not argv:
            raise ProcessError("planner command is empty")
        return argv


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
        argv = config.argv(workdir)
        shutil.copyfile(domain_path, workdir / "domain.pddl")
        shutil.copyfile(problem_path, workdir / "problem.pddl")
        try:
            proc = subprocess.run(
                argv, cwd=workdir, capture_output=True,
                text=True, timeout=config.timeout_s,
            )
        except subprocess.TimeoutExpired:
            raise PlannerTimeout(
                f"external planner exceeded {config.timeout_s}s"
            ) from None
        except OSError as exc:
            raise ProcessError(f"cannot launch external planner: {exc}") from None

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
