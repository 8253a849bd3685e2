"""Declarative network description and exploit relevance selection.

A network is subnets + hosts (each a product stack with exposed services),
directed trusted channels that pierce segmentation, and an attacker/goal
scenario. Relevance selection picks the catalog exploits that can actually
fire somewhere in the network, which keeps the generated planning domain
small.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace

from .catalog import (
    Cpe,
    ExploitMatrix,
    ExploitType,
    PrivilegeLevel,
    Protocol,
    VersionTriple,
    cpe_matches,
    parse_cpe,
    product_token,
    split_version,
)
from .errors import DanglingReference, SchemaError, UnknownClass, UnknownHost

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
_RESERVED_NAMES = {"agent"} | {p.pddl_name.lower() for p in PrivilegeLevel}


@dataclass(frozen=True)
class ProductInstance:
    """One installed product on a host; part/vendor/product are concrete."""

    cpe: Cpe
    version: VersionTriple

    def __post_init__(self):
        for attr in ("part", "vendor", "product"):
            if not isinstance(getattr(self.cpe, attr), str):
                raise SchemaError(f"product {self.cpe} must have concrete {attr}")

    @property
    def token(self) -> str:
        return product_token(self.cpe)

    @classmethod
    def from_cpe(cls, cpe: Cpe) -> "ProductInstance":
        return cls(cpe=cpe, version=split_version(cpe.version))


@dataclass(frozen=True)
class Host:
    name: str
    subnets: tuple[str, ...]
    products: tuple[ProductInstance, ...] = ()
    tcp_listen: tuple[ProductInstance, ...] = ()
    udp_listen: tuple[ProductInstance, ...] = ()

    def __post_init__(self):
        if not self.subnets:
            raise SchemaError(f"host {self.name!r} belongs to no subnet")
        for listener in self.tcp_listen + self.udp_listen:
            if listener not in self.products:
                raise DanglingReference(
                    f"host {self.name!r} listens on {listener.token} which it does not install"
                )

    def listeners(self, protocol: Protocol) -> tuple[ProductInstance, ...]:
        return self.tcp_listen if protocol is Protocol.TCP else self.udp_listen


@dataclass(frozen=True)
class Scenario:
    attacker_host: str
    goal_host: str
    attacker_privilege: PrivilegeLevel = PrivilegeLevel.ROOT
    goal_privilege: PrivilegeLevel = PrivilegeLevel.ROOT


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    subnets: tuple[str, ...]
    hosts: tuple[Host, ...]
    trusted_channels: tuple[tuple[str, str], ...]
    scenario: Scenario
    _by_name: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.hosts:
            raise SchemaError("network declares no hosts")
        names = {}
        all_names = set(self.subnets)
        if len(all_names) != len(self.subnets):
            raise SchemaError("duplicate subnet name")
        for host in self.hosts:
            if host.name in names:
                raise SchemaError(f"duplicate host name {host.name!r}")
            if host.name in all_names:
                raise SchemaError(f"host name {host.name!r} collides with a subnet name")
            names[host.name] = host
            all_names.add(host.name)
            for subnet in host.subnets:
                if subnet not in self.subnets:
                    raise DanglingReference(
                        f"host {host.name!r} references unknown subnet {subnet!r}"
                    )
        for ident in sorted(all_names):
            if not _NAME_RE.fullmatch(ident):
                raise SchemaError(f"name {ident!r} is not a valid identifier")
            if ident.lower() in _RESERVED_NAMES:
                raise SchemaError(f"name {ident!r} is reserved")
        for src, dst in self.trusted_channels:
            if src not in names:
                raise DanglingReference(f"trusted channel references unknown host {src!r}")
            if dst not in names:
                raise DanglingReference(f"trusted channel references unknown host {dst!r}")
            if src == dst:
                raise SchemaError(f"trusted channel from {src!r} to itself")
        for attr in ("attacker_host", "goal_host"):
            if getattr(self.scenario, attr) not in names:
                raise DanglingReference(
                    f"scenario references unknown host {getattr(self.scenario, attr)!r}"
                )
        if self.scenario.attacker_host == self.scenario.goal_host:
            raise SchemaError("attacker host and goal host must differ")
        object.__setattr__(self, "_by_name", names)

    def host(self, name: str) -> Host:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownHost(f"unknown host {name!r}") from None

    def host_names(self) -> tuple[str, ...]:
        return tuple(h.name for h in self.hosts)

    def with_goal(self, goal_host: str, goal_privilege: PrivilegeLevel | None = None) -> "NetworkSpec":
        scenario = replace(
            self.scenario,
            goal_host=goal_host,
            goal_privilege=goal_privilege or self.scenario.goal_privilege,
        )
        return replace(self, scenario=scenario, _by_name={})

    def can_connect(self, src: str, dst: str) -> bool:
        """True iff src can open connections to dst (shared subnet or trusted channel)."""
        if src == dst:
            return False
        a, b = self.host(src), self.host(dst)
        return bool(set(a.subnets) & set(b.subnets)) or (src, dst) in self.trusted_channels


# --- JSON loading -------------------------------------------------------------

def _product_from_json(obj, pointer: str) -> tuple[ProductInstance, bool, bool]:
    if not isinstance(obj, dict) or "cpe" not in obj:
        raise SchemaError("product entry must be an object with a 'cpe' key", pointer)
    try:
        cpe = parse_cpe(obj["cpe"])
    except Exception as exc:
        raise SchemaError(str(exc), f"{pointer}/cpe") from exc
    try:
        instance = ProductInstance.from_cpe(cpe)
    except SchemaError as exc:
        raise SchemaError(str(exc), f"{pointer}/cpe") from exc
    return instance, bool(obj.get("tcp_listen", False)), bool(obj.get("udp_listen", False))


def _resolve_listen(host_name: str, tokens, products, pointer: str) -> list[ProductInstance]:
    resolved = []
    by_token = {p.token: p for p in products}
    by_cpe = {str(p.cpe): p for p in products}
    for i, token in enumerate(tokens):
        hit = by_token.get(token) or by_cpe.get(token)
        if hit is None:
            raise DanglingReference(
                f"host {host_name!r} listen entry {token!r} matches no installed product "
                f"({pointer}/{i})"
            )
        resolved.append(hit)
    return resolved


def _typed(obj: dict, key: str, kind, default, pointer: str, what: str):
    """``obj[key]`` (or ``default``) if it is a ``kind``; SchemaError otherwise."""
    value = obj.get(key, default)
    if not isinstance(value, kind):
        raise SchemaError(f"{key} must be {what}", f"{pointer}/{key}")
    return value


def _names(obj: dict, key: str, pointer: str) -> list:
    value = _typed(obj, key, list, [], pointer, "a list of names")
    if not all(isinstance(item, str) for item in value):
        raise SchemaError(f"{key} must be a list of names", f"{pointer}/{key}")
    return value


def _privilege(obj: dict, key: str) -> PrivilegeLevel:
    text = _typed(obj, key, str, "ROOT", "/scenario", "a privilege level name")
    try:
        return PrivilegeLevel.parse(text)
    except UnknownClass as exc:
        raise SchemaError(str(exc), f"/scenario/{key}") from None


def network_from_dict(data: dict) -> NetworkSpec:
    """Validate and build a NetworkSpec from a decoded network document."""
    if not isinstance(data, dict):
        raise SchemaError("network must be a JSON object")
    for key in ("subnets", "hosts", "scenario"):
        if key not in data:
            raise SchemaError(f"missing required key {key!r}", f"/{key}")
    subnets = _names(data, "subnets", "")

    hosts = []
    for i, obj in enumerate(_typed(data, "hosts", list, [], "", "a list of host objects")):
        pointer = f"/hosts/{i}"
        if not isinstance(obj, dict) or "name" not in obj:
            raise SchemaError("host entry must be an object with a 'name'", pointer)
        _typed(obj, "name", str, "", pointer, "a string")
        products, tcp, udp = [], [], []
        for j, product_obj in enumerate(_typed(obj, "products", list, [], pointer,
                                               "a list of product objects")):
            instance, tcp_flag, udp_flag = _product_from_json(
                product_obj, f"{pointer}/products/{j}"
            )
            products.append(instance)
            if tcp_flag:
                tcp.append(instance)
            if udp_flag:
                udp.append(instance)
        tcp += _resolve_listen(obj["name"], _names(obj, "tcp_listen", pointer), products,
                               f"{pointer}/tcp_listen")
        udp += _resolve_listen(obj["name"], _names(obj, "udp_listen", pointer), products,
                               f"{pointer}/udp_listen")
        hosts.append(Host(
            name=obj["name"],
            subnets=tuple(_names(obj, "subnets", pointer)),
            products=tuple(products),
            tcp_listen=tuple(dict.fromkeys(tcp)),
            udp_listen=tuple(dict.fromkeys(udp)),
        ))

    scenario_obj = data["scenario"]
    if not isinstance(scenario_obj, dict):
        raise SchemaError("scenario must be an object", "/scenario")
    for key in ("attacker_host", "goal_host"):
        if key not in scenario_obj:
            raise SchemaError(f"missing required key {key!r}", f"/scenario/{key}")
        _typed(scenario_obj, key, str, "", "/scenario", "a host name")
    scenario = Scenario(
        attacker_host=scenario_obj["attacker_host"],
        goal_host=scenario_obj["goal_host"],
        attacker_privilege=_privilege(scenario_obj, "attacker_privilege"),
        goal_privilege=_privilege(scenario_obj, "goal_privilege"),
    )

    channels = []
    for i, pair in enumerate(_typed(data, "trusted_channels", list, [], "",
                                    "a list of [src, dst] pairs")):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(name, str) for name in pair)):
            raise SchemaError("trusted channel must be a [src, dst] pair of host names",
                              f"/trusted_channels/{i}")
        channels.append((pair[0], pair[1]))

    return NetworkSpec(
        name=_typed(data, "name", str, "network", "", "a string"),
        subnets=tuple(subnets),
        hosts=tuple(hosts),
        trusted_channels=tuple(channels),
        scenario=scenario,
    )


def load_network(path) -> NetworkSpec:
    """Load and validate a network JSON document."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return network_from_dict(data)


# --- relevance ----------------------------------------------------------------

@dataclass(frozen=True)
class RelevantExploit:
    exploit_id: str
    matches: tuple[tuple[str, ProductInstance], ...]  # (host name, installed product)


@dataclass(frozen=True)
class RelevanceResult:
    relevant: tuple[RelevantExploit, ...]
    discarded_count: int

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.exploit_id for r in self.relevant)


def _record_matches(record, host: Host) -> list[ProductInstance]:
    """Installed products on ``host`` that the exploit can target."""
    hits = []
    if record.exploit_class.exploit_type is ExploitType.RCE:
        candidates = host.listeners(record.exploit_class.protocol)
    else:
        candidates = host.products
    for instance in candidates:
        if any(cpe_matches(config, instance.cpe) for config in record.vulnerable_configs):
            hits.append(instance)
    return hits


def select_relevant_exploits(net: NetworkSpec, matrix: ExploitMatrix) -> RelevanceResult:
    """Pick the exploits some host is vulnerable to.

    An RCE exploit needs its matched product exposed on the exploit's
    protocol; a PE exploit only needs the product installed.
    """
    relevant = []
    for record in matrix:
        matches = []
        for host in net.hosts:
            for instance in _record_matches(record, host):
                matches.append((host.name, instance))
        if matches:
            relevant.append(RelevantExploit(record.id, tuple(matches)))
    return RelevanceResult(
        relevant=tuple(relevant),
        discarded_count=len(matrix) - len(relevant),
    )


def reachable_products(net: NetworkSpec, source: str) -> list[tuple[str, ProductInstance, Protocol]]:
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
