"""Delete-free planning: grounding, transition semantics, top-K enumeration.

The task is monotonic (add-only effects), so states only grow along a plan.
Grounding evaluates static configuration facts against the initial state and
keeps only fluent preconditions; the search then enumerates minimal plans in
nondecreasing length order, deduplicated by their set of exploit actions
(connect steps are interleaving noise and excluded from the key).
"""
from __future__ import annotations

import functools
import heapq
import itertools
import logging
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import (
    ArityMismatch,
    InvalidExternalPlan,
    NotApplicable,
    PddlSyntaxError,
    PlannerTimeout,
    ProcessError,
    TypeMismatch,
    UnknownActionId,
)
from .pddlgen import (CONNECT_ACTIONS, Atom, PddlDocument, PlanFile, parse_pddl, parse_plan,
                      read_utf8)

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
    id: str = field(init=False, repr=False, compare=False)  # name and args, space-joined

    def __post_init__(self):
        object.__setattr__(self, "id", " ".join((self.name,) + self.args))


@dataclass(frozen=True)
class PlanningTask:
    """The (atoms, actions, init, goal) tuple of a monotonic planning task."""

    atoms: tuple[str, ...]
    actions: tuple[GroundAction, ...]
    init: frozenset[str]
    goal: frozenset[str]
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)
    # grounds the instances that ``ground`` left out; None for a hand-built task
    _resolver: "_Grounder | None" = field(default=None, repr=False, compare=False)
    # the search index once built (``search_index``): at most one entry
    _index: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if not self._by_id:
            object.__setattr__(self, "_by_id", {a.id: a for a in self.actions})

    def action(self, action_id: str) -> GroundAction:
        """The action with this id: grounded, or one that full grounding gives,
        grounded on demand."""
        action = self._by_id.get(action_id)
        if action is None and self._resolver is not None:
            action = self._resolver.resolve(action_id)
        if action is None:
            raise UnknownActionId(f"unknown action {action_id!r}")
        return action

    def with_goal(self, goal_atoms) -> "PlanningTask":
        """The same task with another goal. Atoms (the universe as grounded),
        actions, init, the id index and the search index are shared, unless
        the goal names an atom a left-out connect achieves: those connects
        are added, as a fresh ``ground`` with this goal would keep them, and
        the new task builds its own indexes."""
        goal = frozenset(goal_atoms)
        extra = [] if self._resolver is None else \
            [a for a in self._resolver.achievers(goal) if a.id not in self._by_id]
        if not extra:
            return replace(self, goal=goal, _by_id=self._by_id, _index=self._index)
        universe = set(self.atoms)
        for action in extra:
            universe.update(*action.precondition, action.effects)
        return replace(self, atoms=tuple(sorted(universe)), goal=goal, _by_id={}, _index=[],
                       actions=tuple(sorted(self.actions + tuple(extra), key=_action_order)))

    def search_index(self) -> "_SearchIndex":
        """What every search of this task shares, whatever its goal: built on
        first use, and kept for the tasks ``with_goal`` derives with the same
        actions."""
        if not self._index:
            self._index.append(_SearchIndex(self))
        return self._index[0]

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
        self._sets: dict[str, set] = {}

    def fact_set(self, name: str) -> set:
        """The facts of ``name`` as a set of argument tuples."""
        known = self._sets.get(name)
        if known is None:
            known = self._sets[name] = set(self.by_pred.get(name, ()))
        return known

    def candidates(self, name: str, known) -> list:
        """Smallest fact list of ``name`` consistent with ``known``, its
        (position, value) pairs."""
        facts = best = self.by_pred.get(name, ())
        for position, value in known:
            key = (name, position)
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


def _template(atom: Atom, position: dict) -> str:
    """``atom`` as a ``str.format`` template over an argument tuple: a
    parameter becomes its position there, and braces in names are doubled."""
    parts = [atom.name.replace("{", "{{").replace("}", "}}")]
    for arg in atom.args:
        parts.append("{%d}" % position[arg] if arg in position
                     else arg.replace("{", "{{").replace("}", "}}"))
    return "(" + " ".join(parts) + ")"


class _Schema:
    """An action schema compiled for one ``ground`` call: its static join,
    planned once per lead atom, and its clauses and effects as format
    templates over the action's argument tuple, in parameter order, so that
    instantiating one builds only the strings it keeps or checks."""

    def __init__(self, schema, fluents, init_set):
        self.schema = schema
        self.source = _schema_source(schema)
        self.init_set = init_set
        self.variables = tuple(var for var, _ in schema.parameters)
        self.fluents = fluents
        self.position = {var: i for i, var in enumerate(self.variables)}
        # a connect never joins a host to itself: the positions of its two
        # ends; () when it names neither (both read as None, so every instance
        # is dropped), None when it names one or is no connect
        ends = tuple(self.position[var] for var in ("?local_host", "?remote_host")
                     if var in self.position)
        self.ends = ends if self.source[0] == "connect" and len(ends) != 1 else None
        self._plans: dict = {}  # lead atom or None -> ``_plan``

    def _plan(self, lead: Atom | None) -> tuple[list, tuple[str, ...], list, list[int]]:
        """The static join, planned: (steps, the variables they bind in row
        order, the parameters left free, and per parameter its column in a
        row followed by one object per free parameter).

        A step is a constraint's predicate, whether it is ``lead``, its
        positions known when it is joined as (position, row slot or None,
        constant), the positions of the variables it binds, and the pairs of
        positions that repeat one of those variables. A step that binds none
        is a membership test."""
        constraints = [(clause[0], False) for clause in self.schema.precondition
                       if len(clause) == 1 and clause[0].name not in self.fluents]
        if lead is not None:
            constraints.insert(0, (lead, True))
        steps = []
        slot: dict[str, int] = {}  # a variable bound so far -> its slot in a row
        for atom, is_lead in constraints:
            known, first, same = [], {}, []
            for i, arg in enumerate(atom.args):
                if not arg.startswith("?"):
                    known.append((i, None, arg))
                elif arg in slot:
                    known.append((i, slot[arg], None))
                elif arg in first:
                    same.append((i, first[arg]))
                else:
                    first[arg] = i
            for var in first:
                slot[var] = len(slot)
            steps.append((atom.name, is_lead, known, list(first.values()), same))
        free = [(v, t) for v, t in self.schema.parameters if v not in slot]
        # a parameter listed twice gathers its last column
        column = {v: i for i, v in enumerate(list(slot) + [v for v, _ in free])}
        return steps, tuple(slot), free, [column[v] for v, _ in self.schema.parameters]

    def join(self, facts: _FactIndex, lead=None) -> tuple[tuple[str, ...], list[tuple]]:
        """The static join: (the variables it binds, one row of their values
        per partial binding consistent with the static singleton atoms).

        ``lead``, an (atom, fact index) pair, is joined first when given: then
        only bindings that make the atom one of those facts come out. The join
        extends all partial bindings by one constraint at a time, so they bind
        the same variables; a constraint with every variable bound by then is
        a membership test. Its steps are planned once per lead atom.
        """
        lead_atom, lead_index = lead if lead is not None else (None, None)
        plan = self._plans.get(lead_atom)
        if plan is None:
            plan = self._plans[lead_atom] = self._plan(lead_atom)
        steps, order = plan[0], plan[1]
        for name, is_lead, _, _, _ in steps:
            if name not in (lead_index if is_lead else facts).by_pred:
                return order, []  # a predicate without facts: nothing can bind
        rows = [()]
        for name, is_lead, known, fresh, same in steps:
            index = lead_index if is_lead else facts
            if not fresh:  # ``known`` holds every position, in order
                present = index.fact_set(name)
                rows = [row for row in rows if tuple(
                    [c if s is None else row[s] for _, s, c in known]) in present]
                continue
            grown = []
            for row in rows:
                values = [(i, c if s is None else row[s]) for i, s, c in known]
                for fact in index.candidates(name, values):
                    for i, value in values:
                        if fact[i] != value:
                            break
                    else:
                        if not same or all(fact[i] == fact[j] for i, j in same):
                            grown.append(row + tuple([fact[i] for i in fresh]))
            rows = grown
        return order, rows

    def bindings(self, facts: _FactIndex, objects_by_type, lead=None) -> list[tuple[str, ...]]:
        """Argument tuples, in parameter order, consistent with the static
        singleton atoms: the rows of ``join``, where the parameters it leaves
        unbound range over their type. A parameter listed twice takes the
        value bound last, as in a dict."""
        _, heads = self.join(facts, lead)
        _, _, free, gather = self._plans[lead[0] if lead is not None else None]
        pools = [objects_by_type.get(t, ()) for _, t in free]
        return [tuple([row[i] for i in gather])
                for head in heads for objects in itertools.product(*pools)
                for row in (head + objects,)]

    def _clause(self, clause) -> tuple[tuple, tuple]:
        fluent, static = [], []
        for atom in clause:
            (fluent if atom.name in self.fluents else static).append(
                _template(atom, self.position).format)
        return tuple(fluent), tuple(static)

    @functools.cached_property
    def unjoined(self) -> tuple[tuple[tuple, tuple], ...]:
        """(fluent atoms, static atoms) of the clauses that a binding from
        ``bindings`` still has to check: all but the static singletons it
        joins against init. It reads only ``?`` arguments as parameters, and
        one named without ``?`` is substituted here, so that clause is kept.
        Compiled on first use, as a schema the exploration never offers a
        binding needs none."""
        return tuple(
            self._clause(clause) for clause in self.schema.precondition
            if len(clause) > 1 or clause[0].name in self.fluents or not all(
                arg.startswith("?") or arg not in self.position for arg in clause[0].args))

    @functools.cached_property
    def effects(self) -> tuple:
        return tuple(_template(atom, self.position).format for atom in self.schema.effects)

    @functools.cached_property
    def clauses(self) -> tuple[tuple[tuple, tuple], ...]:
        """(fluent atoms, static atoms) of every clause, for a binding that
        no join has checked: compiled on first use."""
        return tuple(self._clause(clause) for clause in self.schema.precondition)

    def instantiate(self, args: tuple[str, ...], joined: bool) -> GroundAction | None:
        """The ground action of ``args``, or None when grounding drops it: a
        connect from a host to itself, or a static clause that init
        falsifies. Static clauses that init satisfies are left out of the
        precondition. ``joined`` says that ``args`` came from ``bindings``,
        which has made every static singleton a fact of init already."""
        if self.ends is not None and (not self.ends or args[self.ends[0]] == args[self.ends[1]]):
            return None
        runtime: list[frozenset[str]] = []
        for fluent, static in self.unjoined if joined else self.clauses:
            if static and any(atom(*args) in self.init_set for atom in static):
                continue
            if not fluent:
                return None
            runtime.append(frozenset([atom(*args) for atom in fluent]))
        return GroundAction(
            name=self.schema.name,
            args=args,
            source=self.source,
            precondition=tuple(runtime),
            effects=tuple([atom(*args) for atom in self.effects]),
        )


def _action_order(action: GroundAction) -> tuple:
    return (action.name, action.args)


def _is_connected_atom(atom: str) -> bool:
    return atom.startswith("(TCP_connected ") or atom.startswith("(UDP_connected ")


def _gate_shape(parameters, order: tuple, pattern: tuple, objects_by_type) -> tuple:
    """How an atom that matches a gate atom extends the static join's rows
    into bindings. ``order`` holds the variables the join binds, in row
    order, and ``pattern`` the gate atom's arguments, with None for a
    constant.

    The shape is (the positions of the atom's variables the join binds,
    their slots in a row, the positions of those the join leaves unbound,
    per parameter its column in a row followed by those unbound values and
    one object per parameter that neither binds, and every combination of
    such objects). A variable is read at its first position: a binding from
    an atom that repeats it with another value waits on the gate clause like
    any other."""
    first: dict[str, int] = {}
    for i, var in enumerate(pattern):
        if var is not None:
            first.setdefault(var, i)
    key = [v for v in first if v in order]
    values = [v for v in first if v not in order]
    free = {v: t for v, t in parameters if v not in order and v not in first}
    column = {v: i for i, v in enumerate(list(order) + values + list(free))}
    return (tuple([first[v] for v in key]), tuple([order.index(v) for v in key]),
            tuple([first[v] for v in values]), [column[v] for v, _ in parameters],
            list(itertools.product(*[objects_by_type.get(t, ()) for t in free.values()])))


class _Grounder:
    """Grounds a domain's schemas by the rules of full grounding: the
    exploits the attacker can fire, with the connects they or the goal name
    (``explore``), and on demand the connects that achieve given atoms (one
    join per connect schema effect) or the one instance, exploit or connect,
    that an id names."""

    def __init__(self, schemas, predicates, fluents, facts, objects_by_type,
                 object_types, init_set):
        self.schemas = {s.name: s for s in schemas}
        self.exploits = [s for s in schemas if s.name not in CONNECT_ACTIONS]
        self.fluents = fluents
        self.init_set = init_set
        # compiled so far, by name: the connects, and the schemas of ids resolved
        self._compiled: dict[str, _Schema] = {}
        self.connects = [self.compiled(s.name) for s in schemas if s.name in CONNECT_ACTIONS]
        # declared argument types of the predicates connects achieve
        self.achieved = {a.name: tuple(kind for _, kind in predicates[a.name])
                         for c in self.connects for a in c.schema.effects}
        self.facts = facts
        self.tried = 0  # bindings instantiated by ``achievers`` so far
        self.objects_by_type = objects_by_type
        self.object_types = object_types
        self._folded: tuple[dict, dict] | None = None

    def compiled(self, name: str) -> _Schema | None:
        """The schema of this name, compiled on first use; None if there is none."""
        compiled = self._compiled.get(name)
        if compiled is None and name in self.schemas:
            compiled = self._compiled[name] = _Schema(self.schemas[name], self.fluents,
                                                      self.init_set)
        return compiled

    def achievers(self, atoms) -> list[GroundAction]:
        """Every connect instance with an effect among ``atoms``."""
        wanted: dict[str, list[tuple[str, ...]]] = {}
        for atom in atoms:
            # the predicate; find gives -1 for an atom without arguments
            kinds = self.achieved.get(atom[1:atom.find(" ")])
            if kinds is None:
                continue
            name, *args = atom[1:-1].split(" ")
            if len(args) == len(kinds) and all(
                    self.object_types.get(arg) == kind for arg, kind in zip(args, kinds)):
                wanted.setdefault(name, []).append(tuple(args))
        return self._achievers(wanted)

    def _achievers(self, wanted: dict[str, list[tuple[str, ...]]]) -> list[GroundAction]:
        """Every connect instance with an effect among ``wanted``: typed
        argument tuples, by predicate."""
        if not wanted:
            return []
        index = _FactIndex(wanted)
        out = []
        for compiled in self.connects:
            seen = set()  # one binding can achieve several wanted atoms
            for effect in compiled.schema.effects:
                if effect.name not in wanted:
                    continue
                for args in compiled.bindings(self.facts, self.objects_by_type,
                                              lead=(effect, index)):
                    if args in seen:
                        continue
                    seen.add(args)
                    action = compiled.instantiate(args, joined=True)
                    if action is not None:
                        out.append(action)
            self.tried += len(seen)
        return out

    def explore(self, goal) -> tuple[list[GroundAction], tuple[int, int, int, int, int]]:
        """(actions, counts): the exploits that can fire from init, and the
        connects with an effect in ``goal`` or in a fired exploit's clause,
        in no order; and the bindings instantiated, the rounds, the bindings
        offered, the exploits fired and the instances left waiting.

        A relaxed forward exploration that grounds as it goes, as Fast
        Downward's translator does (Helmert, AIJ 2009), run as a semi-naive
        Datalog fixpoint (Ou, Govindavajhala & Appel, USENIX Security 2005).
        An exploit schema's gate is its first clause made only of fluent
        atoms that no connect achieves: in chainplan's domain, the foothold.
        Its static join runs once, its rows bucketed by the values of the
        gate's variables the join binds. Each atom reached is offered once to
        the gate atoms of its predicate and constants, and a match extends
        the rows of its bucket into bindings; a schema without a gate is
        joined in full up front. Each new binding is instantiated once and
        waits on a count of its open clauses. An open clause atom that a
        connect achieves (in chainplan's domain, a connection atom) asks for
        those connects, in one batch per round, and they wait on their own
        clauses. An instance fires once every clause holds; the atoms it adds
        are offered in the next round. So an exploit fires exactly when it
        fires in the delete-free fixpoint of every action full grounding
        gives.
        """
        reached = set(self.init_set)
        instances: list[GroundAction] = []  # every instance built, by slot
        missing: list[int] = []  # per slot: its clauses that do not hold yet
        owner: list[int] = []  # per open clause: its instance's slot, or -1 once it holds
        watch: dict[str, list[int]] = {}  # atom -> the open clauses it satisfies
        ready: list[int] = []  # slots whose clauses all hold, to fire
        # the open-clause atoms looked at so far; of those, the ones a connect
        # achieves whose achievers are yet to be asked for, as argument tuples
        # by predicate (typed by construction)
        asked: set[str] = set()
        requests: dict[str, list[tuple[str, ...]]] = {}
        connects: dict[str, GroundAction] = {}
        fired: list[GroundAction] = []
        tried = offered = 0
        achieved = self.achieved

        def add(action: GroundAction):
            slot = len(instances)
            instances.append(action)
            count = 0
            for clause in action.precondition:
                if not clause.isdisjoint(reached):
                    continue
                for atom in clause:
                    watch.setdefault(atom, []).append(len(owner))
                    if atom not in asked:
                        asked.add(atom)
                        # the predicate; find gives -1 for an atom without arguments
                        name = atom[1:atom.find(" ")]
                        if name in achieved:
                            requests.setdefault(name, []).append(
                                tuple(atom[1:-1].split(" ")[1:]))
                owner.append(slot)
                count += 1
            missing.append(count)
            if not count:
                ready.append(slot)

        # predicate -> {constant positions -> {their values -> entries}}. An
        # entry is one gate atom's: (its schema compiled, the schema's
        # bindings offered so far, the values of the atom's variables matched
        # so far, the shape's key positions, the join's rows by the values at
        # its key slots, and the rest of the shape)
        gates: dict[str, dict[tuple, dict[tuple, list]]] = {}
        shapes: dict[tuple, tuple] = {}  # (parameters, join order, pattern) -> ``_gate_shape``
        for schema in self.exploits:
            # compiled for this exploration alone: the task keeps none of it
            compiled = _Schema(schema, self.fluents, self.init_set)
            gate = next((clause for clause in schema.precondition if all(
                atom.name in self.fluents and atom.name not in achieved for atom in clause)),
                None)
            if gate is None:
                for args in compiled.bindings(self.facts, self.objects_by_type):
                    tried += 1
                    action = compiled.instantiate(args, joined=True)
                    if action is not None:
                        add(action)
                continue
            order, rows = compiled.join(self.facts)
            if not rows:
                continue
            seen: set[tuple] = set()
            # one entry per pattern: gate atoms that differ only in constants share it
            entries: dict[tuple, tuple] = {}
            for atom in gate:
                pattern = tuple([arg if arg in compiled.position else None for arg in atom.args])
                entry = entries.get(pattern)
                if entry is None:
                    shape = shapes.get((schema.parameters, order, pattern))
                    if shape is None:
                        shape = shapes[schema.parameters, order, pattern] = _gate_shape(
                            schema.parameters, order, pattern, self.objects_by_type)
                    key, where, values, gather, combos = shape
                    bucket: dict[tuple, list] = {}
                    for row in rows:
                        bucket.setdefault(tuple([row[i] for i in where]), []).append(row)
                    entry = entries[pattern] = (
                        compiled, seen, set(), key, bucket, values, gather, combos)
                constants = tuple([i for i, var in enumerate(pattern) if var is None])
                gates.setdefault(atom.name, {}).setdefault(constants, {}).setdefault(
                    tuple([atom.args[i] for i in constants]), []).append(entry)

        def offer(name: str, args):
            nonlocal tried, offered
            for positions, table in gates[name].items():
                for compiled, seen, done, key, bucket, values, gather, combos in table.get(
                        tuple([args[i] for i in positions]), ()):
                    known = tuple([args[i] for i in key])
                    heads = bucket.get(known)
                    if heads is None:
                        continue
                    tail = tuple([args[i] for i in values])
                    if known + tail in done:  # another atom of the gate matched so
                        continue
                    done.add(known + tail)
                    for head in heads:
                        for objects in combos:
                            row = head + tail + objects
                            binding = tuple([row[i] for i in gather])
                            offered += 1
                            if binding in seen:
                                continue
                            seen.add(binding)
                            tried += 1
                            action = compiled.instantiate(binding, joined=True)
                            if action is not None:
                                add(action)

        def fire() -> list:
            """Fire every ready instance, and those it readies: the atoms
            added that a gate may match."""
            fresh = []
            while ready:
                action = instances[ready.pop()]
                fired.append(action)
                for effect in action.effects:
                    if effect in reached:
                        continue
                    reached.add(effect)
                    for clause in watch.pop(effect, ()):
                        slot = owner[clause]
                        if slot >= 0:
                            owner[clause] = -1
                            missing[slot] -= 1
                            if not missing[slot]:
                                ready.append(slot)
                    name = effect[1:effect.find(" ")]
                    if name in gates:
                        fresh.append((name, effect[1:-1].split(" ")[1:]))
            return fresh

        fresh = [(name, args) for name in gates for args in self.facts.by_pred.get(name, ())]
        rounds = 0
        while True:
            rounds += 1
            for name, args in fresh:
                offer(name, args)
            if requests:
                batch = dict(requests)
                requests.clear()  # what the connects built now ask for waits a round
                for action in self._achievers(batch):
                    if action.id not in connects:
                        connects[action.id] = action
                        add(action)
            fresh = fire()
            if not fresh and not requests:
                break

        exploits = [a for a in fired if a.source[0] == "exploit"]
        wanted = set(goal)
        for action in exploits:
            wanted.update(*action.precondition)
        kept = exploits + [a for a in connects.values() if not wanted.isdisjoint(a.effects)]
        kept += [a for a in self.achievers(wanted - asked) if a.id not in connects]
        return kept, (tried, rounds, offered, len(exploits), len(instances) - len(fired))

    def resolve(self, action_id) -> GroundAction | None:
        """The instance full grounding would give this id, or None. Full
        grounding drops an exploit with a clause of connection atoms that
        neither init nor any connect achieves."""
        if not isinstance(action_id, str):
            return None
        name, *args = action_id.split(" ")
        compiled = self.compiled(name)
        if compiled is None or len(args) != len(compiled.schema.parameters) or any(
                self.object_types.get(arg) != kind
                for arg, (_, kind) in zip(args, compiled.schema.parameters)):
            return None
        binding = dict(zip(compiled.variables, args))  # a parameter named twice: its last
        action = compiled.instantiate(tuple([binding[var] for var in compiled.variables]),
                                      joined=False)
        if action is None or compiled.source[0] == "connect":
            return action
        for clause in action.precondition:
            if all(_is_connected_atom(atom) and atom not in self.init_set for atom in clause) \
                    and not self.achievers(clause):
                return None
        return action

    def resolve_folded(self, text: str, grounded) -> list[str]:
        """The ids not in ``grounded`` that lower-case to ``text``
        (lower-cased) and resolve."""
        if self._folded is None:
            names: dict[str, list[str]] = {}
            for name in self.schemas:
                names.setdefault(name.lower(), []).append(name)
            objects: dict[str, list[str]] = {}
            for obj in self.object_types:
                objects.setdefault(obj.lower(), []).append(obj)
            self._folded = (names, objects)
        names, objects = self._folded
        name, *args = text.split(" ")
        options = [names.get(name, ())] + [objects.get(arg, ()) for arg in args]
        return [action_id for action_id in map(" ".join, itertools.product(*options))
                if action_id not in grounded and self.resolve(action_id) is not None]


def ground(domain: PddlDocument, problem: PddlDocument) -> PlanningTask:
    """Instantiate the action schemas the attacker can use over the
    problem's typed objects.

    Static facts (configuration, topology, listeners, trusted channels) are
    settled against init: instantiations with an unsatisfiable static clause
    are dropped and satisfied static clauses are removed, so the remaining
    preconditions reference only fluent atoms. Connect actions never connect
    a host to itself.

    Grounding is bounded by reachability (``_Grounder.explore``): a relaxed
    forward exploration from init, which does not depend on the goal,
    instantiates an exploit only once its foothold is reached, and keeps the
    exploits that can fire. A connect instance is kept when one of its
    effects is an atom in a kept exploit's precondition or in the goal. Any
    other id that full grounding would produce, exploit or connect, is still
    a valid id: ``PlanningTask.action`` and ``match_plan`` ground it from its
    id on a miss, by the same type, self-connect, static-clause and
    connection-achiever rules.

    Each schema is compiled once per call into format templates (``_Schema``),
    and the bindings of the static join are instantiated from those.
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
        text = atom_str(atom.name, atom.args)
        if text in init_set:  # a repeated atom would ground its bindings twice
            continue
        init_set.add(text)
        init_by_pred.setdefault(atom.name, []).append(atom.args)
    for atom in problem.goal:
        check_ground_atom(atom, ":goal")
    goal = frozenset(atom_str(a.name, a.args) for a in problem.goal)

    for schema in domain.actions:
        _check_schema_types(schema, predicates, object_types)
    fluents = {a.name for schema in domain.actions for a in schema.effects}
    grounder = _Grounder(domain.actions, predicates, fluents, _FactIndex(init_by_pred),
                         objects_by_type, object_types, init_set)
    actions, (tried, rounds, offered, fired, waiting) = grounder.explore(goal)
    actions.sort(key=_action_order)

    universe = set(init_set) | goal
    for action in actions:
        universe.update(*action.precondition, action.effects)
    logger.debug("ground: %d schemas, %d bindings tried, %d actions kept, %d atoms; "
                 "exploration: %d rounds, %d bindings offered, %d exploits fired, "
                 "%d instances left waiting", len(domain.actions), tried + grounder.tried,
                 len(actions), len(universe), rounds, offered, fired, waiting)

    return PlanningTask(
        atoms=tuple(sorted(universe)),
        actions=tuple(actions),
        init=frozenset(init_set),
        goal=goal,
        _resolver=grounder,
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
        folded = text.lower()
        found = [by_lower[folded]] if folded in by_lower else []
        if task._resolver is not None:
            found += task._resolver.resolve_folded(folded, task._by_id)
        if not found:
            raise UnknownActionId(f"unknown action {text!r}")
        # ids that differ only in case: the last in action order wins
        steps.append(max(found, key=lambda action_id: action_id.split(" ")))
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

def _flags(mask: int):
    """The set bits of ``mask``, lowest first, each as a one-bit int."""
    while mask:
        flag = mask & -mask
        yield flag
        mask ^= flag


# The most minimal hitting sets a completeness check tests. Each costs one
# fixpoint over the prepared exploits, and Berge's algorithm can grow the
# sets exponentially in the number of plans; the families a stalled search
# proves complete need a handful (6 for data1's ROOT search on purdue@21),
# so 64 keeps a check cheap next to the expansions it can save.
_HITTING_SET_CAP = 64


def _open_clauses(precondition, init) -> tuple[list, list]:
    """The clauses ``init`` leaves open: the others, and the single
    connection atoms, which become needs that ``_realize`` meets with a
    connect."""
    clauses, conn_needs = [], []
    for clause in precondition:
        if not clause.isdisjoint(init):
            continue
        if len(clause) == 1 and _is_connected_atom(next(iter(clause))):
            conn_needs.append(next(iter(clause)))
        else:
            clauses.append(clause)
    return clauses, conn_needs


def _connect_achievers(task: PlanningTask, needed: set, mask, rank: dict) -> dict:
    """Needed atom -> ((rank, clause masks), ...): the connects of ``task``
    that achieve it, in (name, args) order. A connect with an open clause
    that ``mask`` gives no bit is left out: no delta satisfies it."""
    achievers: dict[str, list] = {}
    for action in sorted((a for a in task.connect_actions if not needed.isdisjoint(a.effects)),
                         key=_action_order):
        clauses = tuple(mask(c) for c in action.precondition if c.isdisjoint(task.init))
        if all(clauses):
            for effect in needed.intersection(action.effects):
                achievers.setdefault(effect, []).append((rank[action.id], clauses))
    return {atom: tuple(chain) for atom, chain in achievers.items()}


def _realize(clauses, needs, delta: int):
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


class _SearchIndex:
    """The half of a search that does not depend on the goal, built once per
    task (``PlanningTask.search_index``) and read by every goal's ``_Search``.

    Every exploit of the task is prepared, in (name, args) order: the
    clauses init leaves open as masks, its connection needs with the
    connects that achieve them, and its effects outside init as a mask. The
    atoms that can enter a delta (the exploits' clause atoms, needs and
    effects) each get a bit. A step is the action's rank in the id order of
    all the task's actions; a search that holds a subset of them orders and
    tie-breaks its heap entries as their id strings would. ``reached`` is
    the delta of one delete-free fixpoint over every exploit (Ou,
    Govindavajhala & Appel, USENIX Security 2005): a goal it does not
    satisfy has no plan. ``by_effect`` and ``achievers`` (keyed by need bit)
    are the backward edges each goal's ``_Search._backward_pass`` walks.
    """

    def __init__(self, task: PlanningTask):
        init = task.init
        position = self.position = {}  # atom -> its bit

        def bits(atoms) -> int:  # a new atom gets the next bit
            out = 0
            for atom in atoms:
                out |= 1 << position.setdefault(atom, len(position))
            return out

        exploits = []  # (id, clause masks, ((need mask, atom), ...), effect mask)
        for action in sorted(task.exploit_actions, key=_action_order):
            clauses, conn_needs = _open_clauses(action.precondition, init)
            exploits.append((action.id, tuple([bits(c) for c in clauses]),
                             tuple([(bits((atom,)), atom) for atom in conn_needs]),
                             bits([e for e in action.effects if e not in init])))
        self.ids = sorted(action.id for action in task.actions)
        rank = {action_id: r for r, action_id in enumerate(self.ids)}
        needed = {atom for _, _, conn_needs, _ in exploits for _, atom in conn_needs}
        # need bit -> the connects that achieve it
        self.achievers = {position[atom]: chain for atom, chain in
                          _connect_achievers(task, needed, self.mask, rank).items()}

        self.prepared = []  # (rank, clause masks, ((need mask, achievers), ...), effects)
        self.support = []  # per prepared exploit: the delta bits its step reads
        self.always = 0  # exploits with no clause to gate on
        self.by_gate = [0] * len(position)  # bit -> exploits whose first clause holds it
        # bit -> the exploits whose effects hold it, as index lists: one mask
        # per bit as wide as every exploit would cost megabytes on purdue@400
        self.by_effect = {}
        for index, (action_id, clauses, conn_needs, effects) in enumerate(exploits):
            needs = tuple([(need, self.achievers.get(position[atom], ()))
                           for need, atom in conn_needs])
            self.prepared.append((rank[action_id], clauses, needs, effects))
            support = effects
            for clause in clauses:
                support |= clause
            for need, chain in needs:
                support |= need
                for _, achiever_clauses in chain:
                    for clause in achiever_clauses:
                        support |= clause
            self.support.append(support)
            if not clauses:
                self.always |= 1 << index
            for flag in _flags(clauses[0] if clauses else 0):
                self.by_gate[flag.bit_length() - 1] |= 1 << index
            for flag in _flags(effects):
                self.by_effect.setdefault(flag.bit_length() - 1, []).append(index)
        self.reached = self.closure((1 << len(self.prepared)) - 1)

    def mask(self, atoms) -> int:
        """The bits of ``atoms``: one without a bit never enters a delta, so
        it adds nothing."""
        out = 0
        for atom in atoms:
            if atom in self.position:
                out |= 1 << self.position[atom]
        return out

    def closure(self, allowed: int) -> int:
        """The delta that the prepared exploits in ``allowed``, a mask, reach
        from init: one delete-free fixpoint under the search's applicability
        and connect rules. Each pass tries only the exploits whose first
        clause the delta gates (``by_gate``), as ``_Search.run`` does."""
        prepared, by_gate = self.prepared, self.by_gate
        delta = gated = 0  # the delta's bits whose exploits are in ``candidates``
        candidates = self.always
        grown = True
        while grown:
            grown = False
            fresh = delta & ~gated
            gated = delta
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                candidates |= by_gate[low.bit_length() - 1]
            rest = allowed & candidates
            while rest:
                flag = rest & -rest
                rest ^= flag
                _, clauses, needs, effects = prepared[flag.bit_length() - 1]
                realized = _realize(clauses, needs, delta)
                if realized is not None:
                    delta |= realized[1] | effects
                    allowed ^= flag
                    grown = True
        return delta


class _Search:
    """A* enumeration of minimal plans over exploit-action sets: one goal's
    view of its task's ``_SearchIndex``.

    Connect actions are pure enablers (their only effect is a connection
    atom), so the search branches on exploit actions and inserts the
    lexicographically first applicable connect step whenever a connection
    atom an exploit or the goal needs is missing. States are tracked as
    deltas over init. Only goal-relevant exploits are branched on (the
    ``relevant`` mask, which ``_backward_pass`` finds with the distances);
    anything else cannot occur in a minimal plan. The goal is a CNF and is
    prepared as an exploit's precondition is; goal atoms without an index
    bit get bits after the index's. A goal that holds with connects alone
    (``finish(0)``) needs no exploit, so its view skips the backward pass.

    The search runs on ints: a delta and a clause are masks over the
    index's atom bits, and an exploit set is a mask over its prepared
    exploits. Init atoms need no bit: clauses that init satisfies are
    dropped. A goal that the index's ``reached`` delta does not satisfy is
    unreachable: its view skips the backward pass, and ``run`` returns no
    plan without expanding anything.

    ``run`` memoizes each exploit's step in a successor table keyed by
    ``delta & support``, the only bits the step reads; a hit is the child
    a recomputation would give, so the pushes and the pop order are those
    of the search without it.

    The heap is keyed on ``(length + h, steps, counter)`` (Hart, Nilsson &
    Raphael, IEEE TSSC 1968). h is the least ``dist`` over a delta's bits
    and the root, a consistent lower bound on the steps left that is 0
    wherever the goal holds. Every entry of one exploit set has the same
    delta, so the same h: each set's first-popped steps, the plans and their
    order are those of a uniform-cost search on ``(length, steps)``, which
    pops every set shorter than the k-th plan; this one pops fewer.

    Expansion is partial (Yoshizumi, Miura & Ishida, AAAI 2000): a set
    pushes only the children whose key equals its own, and re-enters the
    heap once, keyed on the least key of the rest, to push those when the
    frontier gets there. A re-entry's steps are a proper prefix of each
    deferred child's, so it pops before any of them would have, and a child
    is skipped at its push only where its pop would have been skipped; the
    first pop of every set, and with it the plans and their order, are
    those of the search that pushes every child at once. After ``run``,
    ``expansions`` counts the exploit sets expanded (first pops; stale and
    re-entry pops are not counted) and ``pushes`` its heap pushes.
    """

    def __init__(self, task: PlanningTask, goal=None):
        if goal is None:
            goal = tuple(frozenset((atom,)) for atom in sorted(task.goal))
        else:  # with any connect a goal atom needs that grounding left out
            task = task.with_goal(frozenset().union(*goal))
        index = self.index = task.search_index()
        self.prepared, self.support, self.by_gate, self.ids = (
            index.prepared, index.support, index.by_gate, index.ids)

        goal_clauses, goal_conns = _open_clauses(goal, task.init)
        extra: dict[str, int] = {}  # goal atom without an index bit -> its bit
        for atom in itertools.chain(*goal_clauses, goal_conns):
            if atom not in index.position:
                extra.setdefault(atom, len(index.position) + len(extra))

        def mask(atoms) -> int:
            out = index.mask(atoms)
            for atom in atoms:
                if atom in extra:
                    out |= 1 << extra[atom]
            return out

        # a goal need that no exploit has: its achievers, as the index finds them
        needs = [(mask((atom,)), atom) for atom in goal_conns]
        missing = {atom for need, atom in needs if need.bit_length() - 1 not in index.achievers}
        found = _connect_achievers(task, missing, mask, {
            action_id: r for r, action_id in enumerate(self.ids)}) if missing else {}
        self.goal = tuple(mask(c) for c in goal_clauses)
        self.goal_needs = tuple((need, index.achievers.get(need.bit_length() - 1)
                                 or found.get(atom, ())) for need, atom in needs)
        width = len(index.position) + len(extra)
        self.reachable = self.finish(index.reached) is not None
        if not self.reachable or self.finish(0) is not None:
            # no plan, or one without exploits: the search never expands
            self.relevant = self.always = 0
            self.dist = [0] * (width + 1)
            return
        self.relevant, self.dist = self._backward_pass(width)
        self.always = index.always & self.relevant

    def _backward_pass(self, width: int) -> tuple[int, list]:
        """(relevant, dist): the exploits that can occur in a minimal plan, as
        a mask, and per bit, plus a root slot at ``width``, a lower bound on
        the steps left to the goal from a state that holds the bit's atom.

        One backward 0-1 BFS over the index's bits from the goal's clause and
        need bits, at distance 0. When an effect bit is reached at d, each
        exploit that adds it (``by_effect``) and was not reached before
        becomes relevant, and its clause and need bits get d + 1; one with no
        open clause gives d + 1 to the root. When a need bit is reached at d,
        the clause bits of the connects that meet it get d (the root, for a
        connect with no open clause). So an exploit is relevant exactly when
        one of its effect bits has a finite ``dist``. An exploit left out
        adds only atoms that no goal derivation needs, so a minimal plan
        never holds it. The bound is the path relaxation behind h_max (Bonet &
        Geffner, AIJ 2001).
        """
        prepared, by_effect, achievers = self.prepared, self.index.by_effect, self.index.achievers
        root = width
        chains = {need.bit_length() - 1: chain for need, chain in self.goal_needs}

        def bits(masks) -> list:
            return [m.bit_length() - 1 for mask in masks for m in _flags(mask)]

        seen = bytearray(len(prepared) // 8 + 1)  # the reached exploits, bit e % 8 of byte e // 8
        dist = [float("inf")] * (width + 1)
        level = []
        for bit in bits(self.goal) + list(chains):
            if dist[bit]:  # once: goal clauses can share a bit
                dist[bit] = 0
                level.append(bit)
        d = 0
        while level:
            later = []
            for bit in level:  # grows while it is walked: weight-0 edges stay on it
                if dist[bit] != d:
                    continue  # each bit is walked once, at its least distance
                for _, clauses in chains.get(bit) or achievers.get(bit, ()):
                    for source in bits(clauses) or [root]:
                        if d < dist[source]:
                            dist[source] = d
                            level.append(source)
                for e in by_effect.get(bit, ()):
                    if seen[e >> 3] >> (e & 7) & 1:
                        continue
                    seen[e >> 3] |= 1 << (e & 7)
                    _, clauses, needs, _ = prepared[e]
                    for source in (bits(clauses) or [root]) + bits(need for need, _ in needs):
                        if d + 1 < dist[source]:
                            dist[source] = d + 1
                            later.append(source)
            level, d = later, d + 1
        return int.from_bytes(seen, "little"), dist

    def successor(self, index: int, delta: int):
        """(steps appended, atoms added, least ``dist`` over the atoms added)
        when prepared exploit ``index`` is taken in ``delta``, or None when it
        is inapplicable or vacuous. It reads only the bits of
        ``support[index]``."""
        step, clauses, needs, effects = self.prepared[index]
        if effects & delta == effects:
            return None
        realized = _realize(clauses, needs, delta)
        if realized is None:
            return None
        inserts, added = realized
        added |= effects
        reach = min(self.dist[flag.bit_length() - 1] for flag in _flags(added))
        return inserts + (step,), added, reach

    def finish(self, delta: int):
        """The goal test: (inserted ranks, added atom mask) that complete the
        goal in this state, connects inserted as ``realize`` inserts them,
        or None when the goal does not hold."""
        return _realize(self.goal, self.goal_needs, delta)

    def reaches(self, allowed: int) -> bool:
        """Whether the goal can be reached with only the prepared exploits in
        ``allowed``, a mask (``_SearchIndex.closure``)."""
        return self.finish(self.index.closure(allowed)) is not None

    def complete(self, recorded) -> bool | None:
        """Whether the exploit sets in ``recorded`` (masks over the prepared
        exploits) hold every plan the search can still find, or None past
        ``_HITTING_SET_CAP`` minimal hitting sets.

        A plan the search would record holds no recorded set, so it avoids
        some minimal hitting set H of them; hence the family is complete
        exactly when no H leaves the goal reachable. The minimal hitting sets
        come from Berge's incremental algorithm: a set that misses a new
        member grows by each of its exploits, and a grown set is kept unless
        a set that already hit the member lies inside it.
        """
        hitting = [0]
        for member in recorded:
            kept = [h for h in hitting if h & member]
            grown = []
            for h in hitting:
                bits = 0 if h & member else member
                while bits:
                    low = bits & -bits
                    bits ^= low
                    if not any(g & (h | low) == g for g in kept):
                        grown.append(h | low)
            hitting = kept + grown
            if len(hitting) > _HITTING_SET_CAP:
                return None
        return not any(self.reaches(self.relevant & ~h) for h in hitting)

    def _proved(self, recorded, expansions: int) -> bool:
        if self.complete(recorded) is not True:
            return False
        logger.debug("proved complete after %d expansions with %d plan(s)", expansions,
                     len(recorded))
        return True

    def run(self, k: int, max_len: int, max_expansions: int):
        """Up to ``k`` minimal plans of at most ``max_len`` steps, in order,
        after at most ``max_expansions`` exploit sets expanded."""
        self.expansions = self.pushes = 0
        if not self.reachable:
            return []
        by_gate, support, successor, finish, relevant = (
            self.by_gate, self.support, self.successor, self.finish, self.relevant)
        # successor table: per exploit, delta & support -> successor(...)
        tables = [{} for _ in support]
        plans: list[Plan] = []
        recorded: list[int] = []
        visited: set[int] = set()
        counter = 0
        expanded = 0
        found_at = 0  # expansions when the last plan was recorded
        unchecked = False  # no completeness check has seen the latest plan yet
        # an entry is (length + h, steps, counter, exploit set, delta, deferred),
        # where h, the least ``dist`` over delta's bits and the root, bounds
        # the steps left; the goal is reachable here, so the root's h is finite
        # and a child's, never above its parent's, is too. ``deferred`` is None
        # on a set's own entry, and (h, exploit flags) on a re-entry of an
        # expanded set, keyed on the least key among the children it has yet
        # to push
        heap = [(self.dist[-1], (), counter, 0, 0, None)]
        while heap and len(plans) < k:
            key, steps, _, exploit_set, delta, deferred = heapq.heappop(heap)
            if deferred is None:
                if exploit_set in visited:
                    continue
                # once a search has gone as long without a plan as it took to
                # find the last one, check whether its plans are all there are
                if unchecked and expanded == 2 * found_at:
                    unchecked = False
                    if self._proved(recorded, expanded):
                        break
                if expanded == max_expansions:
                    if not (unchecked and self._proved(recorded, max_expansions)):
                        logger.warning(
                            "plan enumeration stopped after %d expansions with %d plan(s); "
                            "raise max_expansions for exhaustive results", max_expansions,
                            len(plans))
                    break
                expanded += 1
                visited.add(exploit_set)
                finished = finish(delta)
                if finished is not None and len(steps) + len(finished[0]) <= max_len:
                    if not any(r & exploit_set == r for r in recorded):
                        recorded.append(exploit_set)
                        plans.append(Plan(steps=tuple(self.ids[s] for s in steps + finished[0])))
                        found_at = expanded
                        unchecked = True
                    continue
                h = key - len(steps)
                candidates = self.always
                gates = delta
                while gates:  # bit loops are inlined: this is the hot path
                    low = gates & -gates
                    candidates |= by_gate[low.bit_length() - 1]
                    gates ^= low
                candidates &= relevant & ~exploit_set
            else:
                h, candidates = deferred
            # what each recorded exploit set adds to this one: a child, one
            # exploit more, is subsumed exactly when a record adds that alone
            lacking = {r & ~exploit_set for r in recorded}
            if 0 in lacking:
                continue
            depth = len(steps)
            later = 0  # the children whose key is above this entry's
            later_key = None
            while candidates:  # lowest bit first, so in prepared order
                flag = candidates & -candidates
                candidates ^= flag
                index = flag.bit_length() - 1
                read = delta & support[index]
                try:
                    entry = tables[index][read]
                except KeyError:
                    entry = tables[index][read] = successor(index, read)
                if entry is None:
                    continue
                tail, added, reach = entry
                length = depth + len(tail)
                if length > max_len:
                    continue
                child_key = length + (reach if reach < h else h)
                if child_key > key:
                    later |= flag
                    if later_key is None or child_key < later_key:
                        later_key = child_key
                    continue
                child_set = exploit_set | flag
                if child_set in visited or flag in lacking:
                    continue
                counter += 1
                heapq.heappush(heap, (child_key, steps + tail, counter, child_set,
                                      delta | added, None))
            if later:
                # its steps are a proper prefix of every deferred child's, so
                # it pops before any of them would have
                counter += 1
                heapq.heappush(heap, (later_key, steps, counter, exploit_set, delta,
                                      (h, later)))
        self.expansions, self.pushes = expanded, counter
        return plans


def find_top_k(task: PlanningTask, k: int, max_len: int | None = None,
               max_expansions: int = 100_000, *, goal=None) -> list[Plan]:
    """Up to ``k`` minimal plans, nondecreasing in length, deduplicated by
    exploit-action set.

    ``goal`` is a CNF, clauses of atoms of which one must hold, prepared as
    an exploit's precondition is (default: one clause per atom of
    ``task.goal``). A clause of several privilege atoms asks for a host
    compromised at any of those levels in one search.

    The search is A*, keyed on length plus a lower bound on the steps left;
    it returns what a uniform-cost search over the same exploit sets would,
    after fewer expansions. Expansion is partial: an expanded set pushes
    only the children at its own key and comes back for the rest when the
    search reaches their keys, so children that would never pop are never
    pushed. One DEBUG line on ``chainplan.planner`` gives the plans,
    expansions and pushes of the search.

    The goal-independent set-up (prepared exploits, atom bits and one
    reachability fixpoint) is the task's ``search_index``, built on the
    first search and shared by every later one on the task or on a
    ``with_goal`` of it. A goal that fixpoint does not reach returns no plan
    without a search. For any other goal one backward pass over the index
    gives both the lower bound and the exploits the search branches on.

    ``max_len`` bounds total plan length (default: the number of grounded
    actions: 303 on ``purdue_fixture`` at 21 to 1,000 hosts, as grounding
    keeps only the exploits that can fire and the connects they or the goal
    need, and still above any plan's length, since a minimal plan holds each
    kept action at most once). ``max_expansions`` caps search effort,
    counted in exploit sets expanded. Results are exact when the search
    drains its heap within the budget (small tasks do in well under a
    thousand expansions), or when a completeness check proves the
    plans found are every minimal plan: a search with fewer than ``k`` plans
    checks once it has gone as long without a plan as it took to find its
    last one, and at a budget stop.
    Otherwise a warning is logged and the plans found so far are returned:
    always the first plans of the order an unbudgeted search returns.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = max_len if max_len is not None else len(task.actions)
    search = _Search(task, goal)
    plans = search.run(k, bound, max_expansions)
    logger.debug("search: %d plan(s), %d expansions, %d pushes", len(plans),
                 search.expansions, search.pushes)
    return plans


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


def run_external(domain_text: str, problem_text: str,
                 config: ExternalPlannerConfig) -> list[Plan]:
    """Run an external planner on PDDL text and validate everything it produced.

    The two documents are written once, as ``domain.pddl`` and
    ``problem.pddl``, into a fresh working directory where the planner runs;
    the task the plans are checked against is grounded from the same text.
    All plan files matching ``plan_glob`` (base name plus .1, .2, ...
    suffixes) are parsed and simulated against that task. A plan file that
    does not parse or fails validation raises InvalidExternalPlan naming the
    file, rather than being silently dropped.
    """
    task = ground(parse_pddl(domain_text), parse_pddl(problem_text))

    with tempfile.TemporaryDirectory(prefix="chainplan-") as tmp:
        workdir = Path(tmp)
        argv = config.argv(workdir)
        (workdir / "domain.pddl").write_text(domain_text, encoding="utf-8")
        (workdir / "problem.pddl").write_text(problem_text, encoding="utf-8")
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
        files = [f for f in files
                 if f.is_file() and f.name not in ("domain.pddl", "problem.pddl")]
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
            text = read_utf8(plan_path, plan_path.name)
            try:
                plan = match_plan(task, parse_plan(text))
            except (PddlSyntaxError, UnknownActionId) as exc:
                raise InvalidExternalPlan(f"{plan_path.name}: {exc}") from None
            verdict = check_plan(task, plan)
            if not verdict:
                raise InvalidExternalPlan(f"{plan_path.name}: {verdict.reason}")
            plans.append(plan)
    return plans
