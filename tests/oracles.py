"""Independent oracles used by the test suite.

These deliberately re-derive results through different algorithms than the
library: set-saturation feasibility instead of plan search, the network
model interpreted directly instead of through PDDL, relevance matched per
host and product instead of per distinct CPE, exhaustive cross-product
grounding instead of join-based grounding, a regex pull instead of the CVSS
metric parser, and a character-by-character scan instead of the PDDL
tokenizer's regex.
"""
from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from chainplan import ExploitType, PrivilegeLevel, Protocol, cpe_matches


# --- delete-free feasibility by saturation -----------------------------------

def saturate(init, actions):
    """Fixpoint of repeatedly applying any action whose clauses are satisfied."""
    state = set(init)
    pending = list(actions)
    changed = True
    while changed:
        changed = False
        remaining = []
        for action in pending:
            if all(any(atom in state for atom in clause) for clause in action.precondition):
                before = len(state)
                state.update(action.effects)
                if len(state) != before:
                    changed = True
            else:
                remaining.append(action)
        pending = remaining
    return state


def feasible(task, exploit_subset, connects):
    allowed = list(exploit_subset) + list(connects)
    return task.goal <= saturate(task.init, allowed)


def minimal_feasible_sets(items, is_feasible):
    """All minimal subsets of ``items`` (each with an ``id``) that
    ``is_feasible`` accepts, as frozensets of ids, by trying every subset in
    order of size.

    Feasibility must be monotone in the set, as it is in a delete-free task:
    nothing is feasible when all items together are not, and a feasible
    empty set is the one minimal set.
    """
    if not is_feasible(items):
        return set()
    if is_feasible(()):
        return {frozenset()}
    minimal: list[frozenset] = []
    for size in range(1, len(items) + 1):
        for combo in itertools.combinations(items, size):
            ids = frozenset(item.id for item in combo)
            if any(m <= ids for m in minimal):
                continue
            if is_feasible(combo):
                minimal.append(ids)
    return set(minimal)


def brute_force_minimal_sets(task):
    """All minimal feasible exploit-action sets, as frozensets of action ids."""
    exploits = sorted((a for a in task.actions if a.source[0] == "exploit"),
                      key=lambda a: a.id)
    connects = [a for a in task.actions if a.source[0] == "connect"]
    return minimal_feasible_sets(exploits, lambda combo: feasible(task, combo, connects))


def minimal_members(family):
    """The members of a family of sets that hold no other member."""
    return {key for key in family if not any(other < key for other in family)}


def brute_force_any_of(task, atoms):
    """All minimal exploit sets that reach any one of ``atoms``: the minimal
    members of the union of each atom's ``brute_force_minimal_sets``."""
    return minimal_members(set().union(
        *(brute_force_minimal_sets(task.with_goal((atom,))) for atom in atoms)))


# --- relevance, one match decision per (record, host, product) ------------------

def naive_relevance(net, matrix):
    """The ``RelevanceResult`` of matching every record against every
    candidate product of every host: the listeners on the record's protocol
    for an RCE record, the installed products for a PE record."""
    from chainplan.netmodel import RelevanceResult, RelevantExploit

    relevant = []
    for record in matrix:
        cls = record.exploit_class
        matches = []
        for host in net.hosts:
            if cls.exploit_type is ExploitType.RCE:
                candidates = host.listeners(cls.protocol)
            else:
                candidates = host.products
            for instance in candidates:
                if any(cpe_matches(config, instance.cpe)
                       for config in record.vulnerable_configs):
                    matches.append((host.name, instance))
        if matches:
            relevant.append(RelevantExploit(record.id, tuple(matches)))
    return RelevanceResult(relevant=tuple(relevant),
                           discarded_count=len(matrix) - len(relevant))


# --- the network model, interpreted without PDDL ------------------------------

def reachable_products(net, source):
    """Listening services the ``source`` host can reach, as (host, product, protocol).

    A host is reachable when it shares a subnet with source or a trusted
    channel (source, host) exists; the source itself is excluded.
    """
    net.host(source)
    out = []
    for host in net.hosts:
        if host.name == source or not net.can_connect(source, host.name):
            continue
        for protocol in Protocol:
            for instance in host.listeners(protocol):
                out.append((host.name, instance, protocol))
    return out


class NetworkStep(NamedTuple):
    """One exploit step of the network model. ``id`` is (record id, from
    host, to host); a state is a set of (host, privilege) pairs, each
    precondition clause a set of pairs of which the state must hold one."""

    id: tuple[str, str, str]
    precondition: tuple[frozenset, ...]
    effects: tuple[tuple[str, PrivilegeLevel], ...]


def _held(host, levels) -> frozenset:
    return frozenset((host, level) for level in levels)


def network_steps(net, matrix) -> list[NetworkStep]:
    """Every exploit step the network model allows, sorted by id.

    A PE record applies on a host that installs a product some vulnerable
    config ``cpe_matches``, held at a level in [required, acquired). An RCE
    record runs from a source held at max(required, LOW) or above against a
    target the source can reach that listens, on the record's protocol, with
    a matched product; when required >= LOW the target must already be held
    at required or above. Either grants the acquired level on the target.
    """
    steps = set()
    for record in matrix:
        cls = record.exploit_class

        def vulnerable(instance):
            return any(cpe_matches(config, instance.cpe)
                       for config in record.vulnerable_configs)

        if cls.exploit_type is ExploitType.PE:
            span = [p for p in PrivilegeLevel if cls.required <= p < cls.acquired]
            for host in net.hosts:
                if any(vulnerable(instance) for instance in host.products):
                    steps.add(NetworkStep((record.id, host.name, host.name),
                                          (_held(host.name, span),),
                                          ((host.name, cls.acquired),)))
            continue
        floor = max(cls.required, PrivilegeLevel.LOW)
        for source in net.host_names():
            for target, instance, protocol in reachable_products(net, source):
                if protocol is not cls.protocol or not vulnerable(instance):
                    continue
                clauses = [_held(source, [p for p in PrivilegeLevel if p >= floor])]
                if cls.required >= PrivilegeLevel.LOW:
                    clauses.append(_held(target, [p for p in PrivilegeLevel
                                                  if p >= cls.required]))
                steps.add(NetworkStep((record.id, source, target), tuple(clauses),
                                      ((target, cls.acquired),)))
    return sorted(steps)


def network_minimal_sets(net, matrix):
    """All minimal sets of (record id, from host, to host) steps that take
    the attacker from its scenario privilege to the goal host held at the
    goal privilege. Steps that never fire with every step allowed cannot be
    in a minimal set, so the brute force runs over the others."""
    scenario = net.scenario
    init = {(scenario.attacker_host, scenario.attacker_privilege)}
    goal = (scenario.goal_host, scenario.goal_privilege)
    steps = network_steps(net, matrix)
    final = saturate(init, steps)
    fired = [s for s in steps if all(clause & final for clause in s.precondition)]
    return minimal_feasible_sets(fired, lambda combo: goal in saturate(init, combo))


# --- exhaustive grounding ------------------------------------------------------

def naive_ground_all(domain, problem):
    """Every action id full grounding gives: cross-product enumeration +
    static filtering, with the kept actions' fluent clauses and effects.

    Static clauses must be satisfiable in init, connect actions never
    connect a host to itself, and exploit instantiations whose connection
    atom has no achiever are dropped. Returns {id: (is_connect, fluent
    clauses, effects)}, atoms as tuples.
    """
    from chainplan.pddlgen import CONNECT_ACTIONS

    objects_by_type: dict[str, list[str]] = {}
    for name, kind in problem.objects + domain.constants:
        objects_by_type.setdefault(kind, []).append(name)
    init = {(a.name,) + a.args for a in problem.init}
    fluents = {a.name for schema in domain.actions for a in schema.effects}

    grounded = {}  # id -> (is_connect, fluent clauses, effects)
    for schema in domain.actions:
        is_connect = schema.name in CONNECT_ACTIONS
        pools = [objects_by_type.get(kind, []) for _, kind in schema.parameters]
        names = [var for var, _ in schema.parameters]
        for combo in itertools.product(*pools):
            binding = dict(zip(names, combo))
            if is_connect and binding["?local_host"] == binding["?remote_host"]:
                continue

            def ground_atom(atom):
                return (atom.name,) + tuple(binding.get(a, a) for a in atom.args)

            ok = True
            fluent_clauses = []
            for clause in schema.precondition:
                static = [ground_atom(a) for a in clause if a.name not in fluents]
                fluent = [ground_atom(a) for a in clause if a.name in fluents]
                if static and any(g in init for g in static):
                    continue
                if not fluent:
                    ok = False
                    break
                fluent_clauses.append(fluent)
            if not ok:
                continue
            action_id = " ".join((schema.name,) + combo)
            grounded[action_id] = (is_connect, fluent_clauses,
                                   [ground_atom(a) for a in schema.effects])

    achievable = {a for a in init if a[0] in ("TCP_connected", "UDP_connected")}
    for action_id, (is_connect, _, effects) in grounded.items():
        if is_connect:
            achievable.update(effects)

    def clause_possible(clause) -> bool:
        return any(
            g[0] not in ("TCP_connected", "UDP_connected") or g in achievable
            for g in clause
        )

    return {
        action_id: entry
        for action_id, entry in grounded.items()
        if entry[0] or all(clause_possible(c) for c in entry[1])
    }


class _FullAction(NamedTuple):
    precondition: list
    effects: list


def naive_fired_exploits(domain, problem):
    """The exploit ids of full grounding whose clauses all hold in the
    ``saturate`` fixpoint of every action full grounding gives."""
    full = naive_ground_all(domain, problem)
    init = {(a.name,) + a.args for a in problem.init}
    final = saturate(init, [_FullAction(clauses, effects)
                            for _, clauses, effects in full.values()])
    return {action_id for action_id, (is_connect, clauses, _) in full.items()
            if not is_connect and all(set(clause) & final for clause in clauses)}


def naive_ground_ids(domain, problem):
    """The ground action ids of the grounding contract: full grounding's
    exploits that fire under ``saturate``, and the connects with an effect
    in one of their clauses or in the goal."""
    full = naive_ground_all(domain, problem)
    fired = naive_fired_exploits(domain, problem)
    needed = {(a.name,) + a.args for a in problem.goal}
    for action_id in fired:
        needed.update(atom for clause in full[action_id][1] for atom in clause)
    return fired | {action_id for action_id, (is_connect, _, effects) in full.items()
                    if is_connect and needed.intersection(effects)}


# --- CVSS -----------------------------------------------------------------------

_PR_RE = re.compile(r"(?:^|/)PR:([A-Za-z])(?:/|$)")


def cvss_required_privilege_letter(vectors):
    """PR letter of the first CVSS 3.x vector, by direct regex extraction."""
    for raw in vectors:
        if not raw.strip().upper().startswith(("CVSS:3.0/", "CVSS:3.1/")):
            continue
        match = _PR_RE.search(raw)
        if match and match.group(1).upper() in "NLH":
            return match.group(1).upper()
    return None


# --- weighted metrics (hand formula) ---------------------------------------------

def weighted_prf(pairs):
    """(precision, recall, f1) weighted by true-label support; independent
    re-implementation used to cross-check hand-frozen values."""
    labels = sorted({t for _, t in pairs})
    total = len(pairs)
    precision = recall = f1 = 0.0
    for label in labels:
        tp = sum(1 for p, t in pairs if p == label and t == label)
        fp = sum(1 for p, t in pairs if p == label and t != label)
        support = sum(1 for _, t in pairs if t == label)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / support
        f = 2 * p * r / (p + r) if p + r else 0.0
        precision += support / total * p
        recall += support / total * r
        f1 += support / total * f
    return precision, recall, f1


# --- PDDL tokens, one character at a time -------------------------------------

def tokenize(text):
    """``(text, line, column)`` of each PDDL token: parentheses, and symbols
    running to the next space, tab, carriage return, newline, parenthesis or
    ``;``. A ``;`` comment runs to the end of its line."""
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
        elif ch in " \t\r":
            column += 1
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append((ch, line, column))
            column += 1
            i += 1
        else:
            start = i
            start_col = column
            while i < len(text) and text[i] not in " \t\r\n();":
                i += 1
                column += 1
            tokens.append((text[start:i], line, start_col))
    return tokens
