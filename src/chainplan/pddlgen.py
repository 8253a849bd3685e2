"""Typed-STRIPS PDDL generation and parsing for the exploit-chain model.

Emits a problem file from a network description and a domain file from the
relevant exploits, parses the same subset back (round-trip identity on
generated documents), and parses external planner plan files.

The supported subset is deliberately small: :strips :typing
:disjunctive-preconditions, positive preconditions (conjunction of atoms and
disjunctions of atoms), and add-only effects.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .catalog import (
    ExploitMatrix,
    ExploitRecord,
    ExploitType,
    PrivilegeLevel,
    Protocol,
    cpe_matches,
    product_token,
    split_version,
)
from .errors import (
    CollisionError,
    EmptyDomain,
    PddlSyntaxError,
    UnknownExploit,
    UnsupportedFeature,
)
from .netmodel import NetworkSpec, RelevanceResult

DOMAIN_NAME = "exploit_chains"

SUPPORTED_REQUIREMENTS = ("strips", "typing", "disjunctive-preconditions")

# (name, parent) in declaration order
PDDL_TYPES = tuple(
    (t, "object")
    for t in (
        "network", "agent", "host", "privilege",
        "product", "version", "update", "edition", "language",
        "sw_edition", "target_sw", "target_hw", "other",
        "major", "minor", "patch",
    )
)

EXTRA_ATTRS = ("update", "edition", "language", "sw_edition", "target_sw", "target_hw", "other")
_EXTRA_PREFIX = {
    "update": "up", "edition": "ed", "language": "lang", "sw_edition": "swed",
    "target_sw": "tsw", "target_hw": "thw", "other": "oth",
}

PDDL_PREDICATES = (
    ("is_compromised", (("?h", "host"), ("?a", "agent"), ("?p", "privilege"))),
    ("TCP_listen", (("?h", "host"), ("?p", "product"))),
    ("UDP_listen", (("?h", "host"), ("?p", "product"))),
    ("TCP_connected", (("?src", "host"), ("?dst", "host"), ("?p", "product"))),
    ("UDP_connected", (("?src", "host"), ("?dst", "host"), ("?p", "product"))),
    ("connected_to_network", (("?h", "host"), ("?n", "network"))),
    ("trusted_channel", (("?src", "host"), ("?dst", "host"))),
    ("has_product", (("?h", "host"), ("?p", "product"))),
    ("has_version", (("?h", "host"), ("?p", "product"), ("?ma", "major"),
                     ("?mi", "minor"), ("?pa", "patch"))),
) + tuple(
    (f"has_{attr}", (("?h", "host"), ("?p", "product"), ("?v", attr)))
    for attr in EXTRA_ATTRS
)

# connect schema name -> protocol
CONNECT_ACTIONS = {
    "tcp_connect": Protocol.TCP,
    "tcp_connect_trusted": Protocol.TCP,
    "udp_connect": Protocol.UDP,
    "udp_connect_trusted": Protocol.UDP,
}

_IDENT_BAD_RE = re.compile(r"[^a-z0-9_-]")


# --- AST ------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple[str, ...]

    def render(self) -> str:
        return "(" + " ".join((self.name,) + self.args) + ")"


# A precondition is a conjunction of clauses; each clause is a non-empty
# disjunction of atoms (singleton = plain atom).
Clause = tuple[Atom, ...]


@dataclass(frozen=True)
class ActionSchema:
    name: str
    parameters: tuple[tuple[str, str], ...]  # (?var, type)
    precondition: tuple[Clause, ...]
    effects: tuple[Atom, ...]
    # the catalog record an exploit schema came from; None for connect schemas
    # and parsed text. Never rendered, ignored by equality.
    record_id: str | None = field(compare=False)


@dataclass(frozen=True)
class PddlDocument:
    kind: str  # "domain" | "problem"
    name: str
    requirements: tuple[str, ...] = ()
    types: tuple[tuple[str, str], ...] = ()
    predicates: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()
    constants: tuple[tuple[str, str], ...] = ()
    actions: tuple[ActionSchema, ...] = ()
    domain_name: str = ""
    objects: tuple[tuple[str, str], ...] = ()
    init: tuple[Atom, ...] = ()
    goal: tuple[Atom, ...] = ()


@dataclass(frozen=True)
class PlanStep:
    name: str
    args: tuple[str, ...]
    cost: int = 1


@dataclass(frozen=True)
class PlanFile:
    steps: tuple[PlanStep, ...]
    total_cost: int | None = None


# --- identifiers ------------------------------------------------------------

def sanitize_action_name(record_id: str) -> str:
    token = _IDENT_BAD_RE.sub("_", record_id.lower())
    if not token or not token[0].isalpha():
        token = "x" + token
    return token


def sanitize_value(value: str) -> str:
    token = _IDENT_BAD_RE.sub("_", value.lower())
    if not token or not token[0].isalpha():
        token = "v" + token
    return token


def _extra_token(attr: str, value: str) -> str:
    return f"{_EXTRA_PREFIX[attr]}-{sanitize_value(value)}"


class _IdentRegistry:
    """Collision-checked identifier namespace within one document."""

    def __init__(self):
        self._owners: dict[str, str] = {}

    def claim(self, ident: str, owner: str) -> str:
        previous = self._owners.get(ident)
        if previous is not None and previous != owner:
            raise CollisionError(
                f"identifier {ident!r} produced by both {previous!r} and {owner!r}"
            )
        self._owners[ident] = owner
        return ident


def sanitize_product(cpe, registry: _IdentRegistry | None = None) -> str:
    """``<part>--<vendor>--<product>`` PDDL identifier for a concrete product."""
    token = product_token(cpe)
    if registry is not None:
        registry.claim(token, f"{cpe.part}:{cpe.vendor}:{cpe.product}")
    return token


# --- problem emission ----------------------------------------------------------

def _version_objects(values, prefix: str) -> list[tuple[str, str]]:
    kind = {"ma": "major", "mi": "minor", "pa": "patch"}[prefix]
    return [(f"{prefix}{v}", kind) for v in sorted(values)]


def _config_atoms(host: str, token: str, cpe, version) -> list[Atom]:
    """has_version for a fully numeric triple (wildcard components have no
    object to name), then one has_<attr> per concrete extra attribute."""
    atoms = []
    if version.is_concrete:
        atoms.append(Atom("has_version", (host, token, f"ma{version.major}",
                                          f"mi{version.minor}", f"pa{version.patch}")))
    for attr in EXTRA_ATTRS:
        value = getattr(cpe, attr)
        if isinstance(value, str):
            atoms.append(Atom(f"has_{attr}", (host, token, _extra_token(attr, value))))
    return atoms


def compromised_atom(host: str, privilege: PrivilegeLevel) -> Atom:
    """The scenario goal: ``host`` compromised at ``privilege``."""
    return Atom("is_compromised", (host, "agent", privilege.pddl_name))


def emit_problem(net: NetworkSpec) -> PddlDocument:
    """Build the problem document: objects, configuration facts, scenario."""
    registry = _IdentRegistry()
    for name in net.subnets + net.host_names():
        registry.claim(name, f"network:{name}")
    registry.claim("agent", "builtin:agent")
    for level in PrivilegeLevel:
        registry.claim(level.pddl_name, f"builtin:{level.name}")

    products: dict[str, str] = {}
    majors, minors, patches = set(), set(), set()
    extras: dict[str, set] = {attr: set() for attr in EXTRA_ATTRS}
    for host in net.hosts:
        for instance in host.products:
            token = sanitize_product(instance.cpe, registry)
            products[token] = token
            if instance.version.is_concrete:
                majors.add(instance.version.major)
                minors.add(instance.version.minor)
                patches.add(instance.version.patch)
            for attr in EXTRA_ATTRS:
                value = getattr(instance.cpe, attr)
                if isinstance(value, str):
                    extras[attr].add(value)

    objects: list[tuple[str, str]] = [("agent", "agent")]
    objects += [(h, "host") for h in net.host_names()]
    objects += [(s, "network") for s in net.subnets]
    objects += [(p.pddl_name, "privilege") for p in PrivilegeLevel]
    objects += [(token, "product") for token in sorted(products)]
    objects += _version_objects(majors, "ma")
    objects += _version_objects(minors, "mi")
    objects += _version_objects(patches, "pa")
    for attr in EXTRA_ATTRS:
        for value in sorted(extras[attr]):
            token = registry.claim(_extra_token(attr, value), f"{attr}:{value}")
            objects.append((token, attr))

    init: list[Atom] = []
    scenario = net.scenario
    init.append(Atom("is_compromised",
                     (scenario.attacker_host, "agent", scenario.attacker_privilege.pddl_name)))
    for host in net.hosts:
        for subnet in host.subnets:
            init.append(Atom("connected_to_network", (host.name, subnet)))
    for host in net.hosts:
        for instance in host.products:
            token = product_token(instance.cpe)
            init.append(Atom("has_product", (host.name, token)))
            init.extend(_config_atoms(host.name, token, instance.cpe, instance.version))
            if instance in host.tcp_listen:
                init.append(Atom("TCP_listen", (host.name, token)))
            if instance in host.udp_listen:
                init.append(Atom("UDP_listen", (host.name, token)))
    for src, dst in net.trusted_channels:
        init.append(Atom("trusted_channel", (src, dst)))

    return PddlDocument(
        kind="problem",
        name=net.name,
        domain_name=DOMAIN_NAME,
        objects=tuple(objects),
        init=tuple(dict.fromkeys(init)),
        goal=(compromised_atom(scenario.goal_host, scenario.goal_privilege),),
    )


# --- domain emission -----------------------------------------------------------

def _privilege_disjunction(var: str, levels) -> Clause:
    return tuple(Atom("is_compromised", (var, "?agent", p.pddl_name)) for p in levels)


def _foothold(var: str) -> Clause:
    return _privilege_disjunction(var, (PrivilegeLevel.LOW, PrivilegeLevel.HIGH,
                                        PrivilegeLevel.ROOT))


def _connect_schemas() -> list[ActionSchema]:
    schemas = []
    for proto in Protocol:
        listen = f"{proto.value}_listen"
        connected = f"{proto.value}_connected"
        base = f"{proto.value.lower()}_connect"
        schemas.append(ActionSchema(
            name=base,
            parameters=(("?network", "network"), ("?local_host", "host"),
                        ("?remote_host", "host"), ("?product", "product"),
                        ("?agent", "agent")),
            precondition=(
                (Atom("connected_to_network", ("?local_host", "?network")),),
                (Atom("connected_to_network", ("?remote_host", "?network")),),
                (Atom(listen, ("?remote_host", "?product")),),
                _foothold("?local_host"),
            ),
            effects=(Atom(connected, ("?local_host", "?remote_host", "?product")),),
            record_id=None,
        ))
        schemas.append(ActionSchema(
            name=f"{base}_trusted",
            parameters=(("?local_host", "host"), ("?remote_host", "host"),
                        ("?product", "product"), ("?agent", "agent")),
            precondition=(
                (Atom("trusted_channel", ("?local_host", "?remote_host")),),
                (Atom(listen, ("?remote_host", "?product")),),
                _foothold("?local_host"),
            ),
            effects=(Atom(connected, ("?local_host", "?remote_host", "?product")),),
            record_id=None,
        ))
    return schemas


def _config_clauses(record: ExploitRecord, matches, host_var: str, init_index: set):
    """Per-product configuration clauses, pruned to facts the problem contains.

    Returns ``{(token, extras_signature): clauses}`` where each value is the
    ordered clause list (has_product, optional version disjunction, extras).
    Configurations that matched only through wildcards contribute no version
    constraint; such an unconstrained alternative subsumes the others.
    """
    grouped: dict[tuple[str, tuple], dict] = {}
    for _, instance in matches:
        token = product_token(instance.cpe)
        for config in record.vulnerable_configs:
            if not cpe_matches(config, instance.cpe):
                continue
            present = [atom for atom in _config_atoms(host_var, token, config,
                                                      split_version(config.version))
                       if (atom.name,) + atom.args[1:] in init_index]
            versions = [atom for atom in present if atom.name == "has_version"]
            extra_atoms = [atom for atom in present if atom.name != "has_version"]
            signature = tuple(a.render() for a in extra_atoms)
            key = (token, signature)
            entry = grouped.setdefault(key, {
                "token": token,
                "extras": tuple(extra_atoms),
                "versions": set(),
                "unconstrained": False,
            })
            if versions:
                entry["versions"].update(versions)
            else:
                entry["unconstrained"] = True

    out = {}
    for key, entry in sorted(grouped.items()):
        clauses: list[Clause] = [(Atom("has_product", (host_var, entry["token"])),)]
        if not entry["unconstrained"] and entry["versions"]:
            clauses.append(tuple(sorted(entry["versions"], key=lambda a: a.args)))
        clauses.extend((atom,) for atom in entry["extras"])
        out[key] = clauses
    return out


def _exploit_schema(record: ExploitRecord, name: str, config_clauses) -> ActionSchema:
    cls = record.exploit_class
    if cls.exploit_type is ExploitType.PE:
        span = [p for p in PrivilegeLevel if cls.required <= p < cls.acquired]
        precondition = [_privilege_disjunction("?host", span)]
        precondition += [
            tuple(Atom(a.name, a.args) for a in clause) for clause in config_clauses
        ]
        return ActionSchema(
            name=name,
            parameters=(("?host", "host"), ("?agent", "agent")),
            precondition=tuple(precondition),
            effects=(Atom("is_compromised", ("?host", "?agent", cls.acquired.pddl_name)),),
            record_id=record.id,
        )

    token = config_clauses[0][0].args[1]  # has_product argument
    local_floor = max(cls.required, PrivilegeLevel.LOW)
    local_span = [p for p in PrivilegeLevel if p >= local_floor]
    precondition = [_privilege_disjunction("?local_host", local_span)]
    precondition.append((
        Atom(f"{cls.protocol.value}_connected", ("?local_host", "?remote_host", token)),
    ))
    if cls.required >= PrivilegeLevel.LOW:
        remote_span = [p for p in PrivilegeLevel if p >= cls.required]
        precondition.append(_privilege_disjunction("?remote_host", remote_span))
    precondition.extend(config_clauses)
    return ActionSchema(
        name=name,
        parameters=(("?local_host", "host"), ("?remote_host", "host"), ("?agent", "agent")),
        precondition=tuple(precondition),
        effects=(Atom("is_compromised", ("?remote_host", "?agent", cls.acquired.pddl_name)),),
        record_id=record.id,
    )


def emit_domain(relevant: RelevanceResult, matrix: ExploitMatrix,
                net: NetworkSpec) -> PddlDocument:
    """Build the domain document: one action per relevant exploit, plus the
    four connectivity schemas.

    PE exploits become single-host actions whose privilege disjunction spans
    [required, acquired); RCE exploits become local/remote actions gated on a
    protocol-specific connection to the matched product. Configuration
    preconditions are pruned to facts present in the paired problem.
    An exploit matching several products (or incompatible extra-attribute
    sets) yields one action per group, suffixed deterministically.
    """
    if not relevant.relevant:
        raise EmptyDomain("no relevant exploit for this network", relevant)

    # the problem's configuration facts, with the host dropped
    init_index = {(fact.name,) + fact.args[1:]
                  for host in net.hosts for instance in host.products
                  for fact in _config_atoms(host.name, product_token(instance.cpe),
                                            instance.cpe, instance.version)}

    registry = _IdentRegistry()
    actions = _connect_schemas()
    for schema in actions:
        registry.claim(schema.name, "builtin:connect")

    for entry in relevant.relevant:
        record = matrix.record(entry.exploit_id)
        host_var = "?host" if record.exploit_class.exploit_type is ExploitType.PE \
            else "?remote_host"
        groups = _config_clauses(record, entry.matches, host_var, init_index)
        if not groups:
            continue
        base = sanitize_action_name(record.id)
        multi = len(groups) > 1
        seen_names: dict[str, int] = {}
        for group_no, ((token, _signature), clauses) in enumerate(groups.items()):
            name = base if not multi else f"{base}__{token}"
            count = seen_names.get(name, 0) + 1
            seen_names[name] = count
            if count > 1:
                name = f"{name}_{count}"
            registry.claim(name, f"exploit:{record.id}:group{group_no}")
            actions.append(_exploit_schema(record, name, clauses))

    return PddlDocument(
        kind="domain",
        name=DOMAIN_NAME,
        requirements=SUPPORTED_REQUIREMENTS,
        types=PDDL_TYPES,
        predicates=PDDL_PREDICATES,
        actions=tuple(actions),
    )


def resolve_exploit_action(record_id: str | None, matrix: ExploitMatrix) -> ExploitRecord:
    """The catalog record an exploit action was emitted from, by the record
    id its schema carries (None for schemas parsed from text)."""
    if record_id is None:
        raise UnknownExploit("exploit action parsed from text has no catalog record "
                             "id: report on a task grounded from emit_domain's output")
    try:
        return matrix.record(record_id)
    except KeyError:
        raise UnknownExploit(f"no catalog record {record_id!r}") from None


# --- text emission ---------------------------------------------------------

def _typed_list_lines(entries, indent: str) -> list[str]:
    """Group consecutive same-type entries into ``a b c - type`` lines."""
    lines = []
    run: list[str] = []
    run_type: str | None = None
    for name, kind in entries:
        if kind != run_type and run:
            lines.append(f"{indent}{' '.join(run)} - {run_type}")
            run = []
        run_type = kind
        run.append(name)
    if run:
        lines.append(f"{indent}{' '.join(run)} - {run_type}")
    return lines


def _render_clause(clause: Clause) -> str:
    if len(clause) == 1:
        return clause[0].render()
    return "(or " + " ".join(a.render() for a in clause) + ")"


def _render_precondition(clauses, indent: str) -> list[str]:
    if len(clauses) == 1:
        return [f"{indent}:precondition {_render_clause(clauses[0])}"]
    lines = [f"{indent}:precondition (and"]
    for clause in clauses:
        if len(clause) == 1:
            lines.append(f"{indent}  {clause[0].render()}")
        else:
            lines.append(f"{indent}  (or")
            for atom in clause:
                lines.append(f"{indent}    {atom.render()}")
            lines.append(f"{indent}  )")
    lines.append(f"{indent})")
    return lines


def _render_effects(effects, indent: str) -> str:
    if len(effects) == 1:
        return f"{indent}:effect {effects[0].render()}"
    return f"{indent}:effect (and " + " ".join(a.render() for a in effects) + ")"


def to_pddl(doc: PddlDocument) -> str:
    """Serialize a document; two-space indent, one init atom per line."""
    lines: list[str] = []
    if doc.kind == "domain":
        lines.append(f"(define (domain {doc.name})")
        if doc.requirements:
            lines.append("  (:requirements " + " ".join(f":{r}" for r in doc.requirements) + ")")
        if doc.types:
            lines.append("  (:types")
            lines += _typed_list_lines(doc.types, "    ")
            lines.append("  )")
        if doc.constants:
            lines.append("  (:constants")
            lines += _typed_list_lines(doc.constants, "    ")
            lines.append("  )")
        if doc.predicates:
            lines.append("  (:predicates")
            for name, params in doc.predicates:
                rendered = " ".join(f"{v} - {t}" for v, t in params)
                lines.append(f"    ({name} {rendered})" if params else f"    ({name})")
            lines.append("  )")
        for action in doc.actions:
            lines.append(f"  (:action {action.name}")
            params = " ".join(f"{v} - {t}" for v, t in action.parameters)
            lines.append(f"    :parameters ({params})")
            lines += _render_precondition(action.precondition, "    ")
            lines.append(_render_effects(action.effects, "    "))
            lines.append("  )")
        lines.append(")")
    else:
        lines.append(f"(define (problem {doc.name})")
        lines.append(f"  (:domain {doc.domain_name})")
        if doc.objects:
            lines.append("  (:objects")
            lines += _typed_list_lines(doc.objects, "    ")
            lines.append("  )")
        lines.append("  (:init")
        for atom in doc.init:
            lines.append(f"    {atom.render()}")
        lines.append("  )")
        if len(doc.goal) == 1:
            lines.append(f"  (:goal {doc.goal[0].render()})")
        else:
            lines.append("  (:goal (and " + " ".join(a.render() for a in doc.goal) + "))")
        lines.append(")")
    return "\n".join(lines) + "\n"


# --- parsing -----------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
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
            tokens.append(_Token(ch, line, column))
            column += 1
            i += 1
        else:
            start = i
            start_col = column
            while i < len(text) and text[i] not in " \t\r\n();":
                i += 1
                column += 1
            tokens.append(_Token(text[start:i], line, start_col))
    return tokens


def _read_sexpr(tokens: list[_Token], pos: int):
    """The s-expression starting at ``pos`` (a token, or a list of nodes) and
    the position after it. Iterative, so nesting depth is not bounded by the
    interpreter's recursion limit."""
    open_lists: list[tuple[_Token, list]] = []  # (opening parenthesis, items so far)
    while pos < len(tokens):
        token = tokens[pos]
        pos += 1
        if token.text == "(":
            open_lists.append((token, []))
            continue
        if token.text == ")":
            if not open_lists:
                raise PddlSyntaxError("unexpected ')'", token.line, token.column)
            node = open_lists.pop()[1]
        else:
            node = token
        if not open_lists:
            return node, pos
        open_lists[-1][1].append(node)
    if open_lists:
        opening = open_lists[-1][0]
        raise PddlSyntaxError("unbalanced parenthesis", opening.line, opening.column)
    raise PddlSyntaxError("unexpected end of input", 0, 0)


def _expect_symbol(node, context: str) -> _Token:
    if not isinstance(node, _Token):
        raise PddlSyntaxError(f"expected a symbol in {context}", 0, 0)
    return node


def _parse_typed_list(nodes, context: str) -> tuple[tuple[str, str], ...]:
    if isinstance(nodes, _Token):
        raise PddlSyntaxError(f"expected a list in {context}", nodes.line, nodes.column)
    out = []
    pending: list[str] = []
    i = 0
    while i < len(nodes):
        token = _expect_symbol(nodes[i], context)
        if token.text == "-":
            if i + 1 >= len(nodes):
                raise PddlSyntaxError(f"dangling '-' in {context}", token.line, token.column)
            kind = _expect_symbol(nodes[i + 1], context).text
            out += [(name, kind) for name in pending]
            pending = []
            i += 2
        else:
            pending.append(token.text)
            i += 1
    out += [(name, "object") for name in pending]
    return tuple(out)


_FORBIDDEN_HEADS = {"not", "forall", "exists", "when", "imply", "increase",
                    "decrease", "assign", "="}


def _parse_atom(node, context: str) -> Atom:
    if isinstance(node, _Token):
        raise PddlSyntaxError(f"expected an atom in {context}", node.line, node.column)
    if not node:
        raise PddlSyntaxError(f"empty atom in {context}", 0, 0)
    head = _expect_symbol(node[0], context)
    if head.text in _FORBIDDEN_HEADS:
        raise UnsupportedFeature(f"{head.text!r} is outside the delete-free subset "
                                 f"(line {head.line})")
    args = tuple(_expect_symbol(n, context).text for n in node[1:])
    return Atom(head.text, args)


def _parse_clause(node, context: str) -> Clause:
    if isinstance(node, list) and node and isinstance(node[0], _Token) \
            and node[0].text == "or":
        return tuple(_parse_atom(n, context) for n in node[1:])
    return (_parse_atom(node, context),)


def _parse_precondition(node) -> tuple[Clause, ...]:
    if isinstance(node, list) and node and isinstance(node[0], _Token) \
            and node[0].text == "and":
        return tuple(_parse_clause(n, "precondition") for n in node[1:])
    return (_parse_clause(node, "precondition"),)


def _parse_effects(node) -> tuple[Atom, ...]:
    if isinstance(node, list) and node and isinstance(node[0], _Token) \
            and node[0].text == "and":
        return tuple(_parse_atom(n, "effect") for n in node[1:])
    return (_parse_atom(node, "effect"),)


def _parse_action(nodes) -> ActionSchema:
    name = _expect_symbol(nodes[0], ":action").text
    fields = {}
    i = 1
    while i < len(nodes):
        key = _expect_symbol(nodes[i], ":action").text
        if key not in (":parameters", ":precondition", ":effect"):
            raise UnsupportedFeature(f"unsupported action field {key!r}")
        if i + 1 >= len(nodes):
            raise PddlSyntaxError(f"missing value for {key}", 0, 0)
        fields[key] = nodes[i + 1]
        i += 2
    if ":effect" not in fields:
        raise PddlSyntaxError(f"action {name} has no effect", 0, 0)
    parameters = _parse_typed_list(fields.get(":parameters", []), f"action {name}")
    precondition = _parse_precondition(fields[":precondition"]) \
        if ":precondition" in fields else ()
    return ActionSchema(
        name=name,
        parameters=parameters,
        precondition=precondition,
        effects=_parse_effects(fields[":effect"]),
        record_id=None,
    )


def parse_pddl(text: str) -> PddlDocument:
    """Parse a domain or problem file within the supported subset."""
    tokens = _tokenize(text)
    if not tokens:
        raise PddlSyntaxError("empty document", 1, 1)
    sexpr, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        extra = tokens[pos]
        raise PddlSyntaxError("trailing content after document", extra.line, extra.column)
    if not (isinstance(sexpr, list) and sexpr
            and isinstance(sexpr[0], _Token) and sexpr[0].text == "define"):
        raise PddlSyntaxError("document must start with (define ...)", 1, 1)
    if len(sexpr) < 2:
        raise PddlSyntaxError("missing (domain ...) or (problem ...) header",
                              sexpr[0].line, sexpr[0].column)
    header = sexpr[1]
    if not (isinstance(header, list) and len(header) == 2):
        raise PddlSyntaxError("malformed (domain ...) or (problem ...) header", 1, 1)
    kind = _expect_symbol(header[0], "header").text
    name = _expect_symbol(header[1], "header").text
    if kind not in ("domain", "problem"):
        raise PddlSyntaxError(f"unknown document kind {kind!r}", header[0].line,
                              header[0].column)

    requirements: tuple[str, ...] = ()
    types: tuple[tuple[str, str], ...] = ()
    constants: tuple[tuple[str, str], ...] = ()
    predicates = []
    actions = []
    domain_name = ""
    objects: tuple[tuple[str, str], ...] = ()
    init = []
    goal: tuple[Atom, ...] = ()

    for section in sexpr[2:]:
        if not (isinstance(section, list) and section and isinstance(section[0], _Token)):
            raise PddlSyntaxError("malformed section", 1, 1)
        head = section[0]
        body = section[1:]
        if head.text == ":requirements":
            reqs = []
            for node in body:
                token = _expect_symbol(node, ":requirements").text.lstrip(":")
                if token not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeature(f"requirement :{token} is not supported")
                reqs.append(token)
            requirements = tuple(reqs)
        elif head.text == ":types":
            types = _parse_typed_list(body, ":types")
        elif head.text == ":constants":
            constants = _parse_typed_list(body, ":constants")
        elif head.text == ":predicates":
            for node in body:
                if isinstance(node, _Token) or not node:
                    raise PddlSyntaxError("malformed predicate", head.line, head.column)
                pred_name = _expect_symbol(node[0], ":predicates").text
                predicates.append((pred_name, _parse_typed_list(node[1:], pred_name)))
        elif not body and head.text in (":action", ":domain"):
            raise PddlSyntaxError(f"{head.text} needs a name", head.line, head.column)
        elif head.text == ":action":
            actions.append(_parse_action(body))
        elif head.text == ":domain":
            domain_name = _expect_symbol(body[0], ":domain").text
        elif head.text == ":objects":
            objects = _parse_typed_list(body, ":objects")
        elif head.text == ":init":
            init = [_parse_atom(node, ":init") for node in body]
        elif head.text == ":goal":
            if len(body) != 1:
                raise PddlSyntaxError(":goal takes one formula", head.line, head.column)
            node = body[0]
            if isinstance(node, list) and node and isinstance(node[0], _Token) \
                    and node[0].text == "and":
                goal = tuple(_parse_atom(n, ":goal") for n in node[1:])
            else:
                goal = (_parse_atom(node, ":goal"),)
        else:
            raise UnsupportedFeature(f"section {head.text!r} is not supported "
                                     f"(line {head.line})")

    if kind == "domain":
        return PddlDocument(
            kind="domain", name=name, requirements=requirements, types=types,
            predicates=tuple(predicates), constants=constants, actions=tuple(actions),
        )
    return PddlDocument(
        kind="problem", name=name, domain_name=domain_name,
        objects=objects, init=tuple(init), goal=goal,
    )


# --- plan files ----------------------------------------------------------------

_COST_COMMENT_RE = re.compile(r";\s*cost\s*=\s*(\d+)")
_STEP_COST_RE = re.compile(r"\((\d+)\)\s*$")


def parse_plan(text: str) -> PlanFile:
    """Parse a plan file: one action per line, bare or parenthesized, with an
    optional trailing ``(N)`` step cost and ``; cost = N`` comment lines."""
    steps = []
    total_cost = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            match = _COST_COMMENT_RE.search(line)
            if match:
                total_cost = int(match.group(1))
            continue
        cost = 1
        match = _STEP_COST_RE.search(line)
        if match:
            cost = int(match.group(1))
            if cost <= 0:
                raise PddlSyntaxError("step cost must be positive", line_no, 1)
            line = line[:match.start()].strip()
        if line.startswith("("):
            if not line.endswith(")"):
                raise PddlSyntaxError("unbalanced parenthesis in plan step", line_no, 1)
            line = line[1:-1].strip()
        if not line:
            raise PddlSyntaxError("empty plan step", line_no, 1)
        parts = line.split()
        if any(ch in token for token in parts for ch in "()"):
            raise PddlSyntaxError("malformed plan step", line_no, 1)
        steps.append(PlanStep(name=parts[0], args=tuple(parts[1:]), cost=cost))
    return PlanFile(steps=tuple(steps), total_cost=total_cost)
