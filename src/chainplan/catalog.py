"""Exploit catalog: privilege/class algebra, CPE 2.3 parsing and matching.

The catalog is the shared vocabulary of the toolkit: exploit records with
their vulnerable configurations, the fixed 15-class exploit taxonomy, and
the CPE matching used to decide which exploits apply to which products.
All types here are immutable after construction and safe to share across
concurrent analyses.
"""
from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from pathlib import Path

from .errors import DuplicateId, MalformedCpe, SchemaError, UnknownClass

logger = logging.getLogger(__name__)

CVE_ID_RE = re.compile(r"CVE-\d{4}-\d{4,}")
_IDENT_BAD_RE = re.compile(r"[^a-z0-9_-]")


class PrivilegeLevel(IntEnum):
    """Attacker privilege on a host; totally ordered NONE < LOW < HIGH < ROOT."""

    NONE = 0
    LOW = 1
    HIGH = 2
    ROOT = 3

    @property
    def letter(self) -> str:
        return "NLHR"[self.value]

    @property
    def pddl_name(self) -> str:
        return f"{self.name}_PRIVILEGES"

    @classmethod
    def from_letter(cls, letter: str) -> "PrivilegeLevel":
        try:
            return {"N": cls.NONE, "L": cls.LOW, "H": cls.HIGH, "R": cls.ROOT}[letter.upper()]
        except KeyError:
            raise UnknownClass(f"unknown privilege letter {letter!r}") from None

    @classmethod
    def parse(cls, text: str) -> "PrivilegeLevel":
        token = text.strip().upper()
        if token in cls.__members__:
            return cls[token]
        if len(token) == 1:
            return cls.from_letter(token)
        raise UnknownClass(f"unknown privilege level {text!r}")


class ExploitType(Enum):
    PE = "PE"
    RCE = "RCE"


class Protocol(Enum):
    TCP = "TCP"
    UDP = "UDP"


_PE_REQUIRED = {PrivilegeLevel.LOW, PrivilegeLevel.HIGH}
_PE_ACQUIRED = {PrivilegeLevel.HIGH, PrivilegeLevel.ROOT}
_RCE_REQUIRED = {PrivilegeLevel.NONE, PrivilegeLevel.LOW, PrivilegeLevel.HIGH}
_RCE_ACQUIRED = {PrivilegeLevel.LOW, PrivilegeLevel.HIGH, PrivilegeLevel.ROOT}


@dataclass(frozen=True)
class ExploitClass:
    """One of the 15 (type, protocol, required, acquired) exploit labels."""

    exploit_type: ExploitType
    protocol: Protocol | None
    required: PrivilegeLevel
    acquired: PrivilegeLevel

    def __post_init__(self):
        if self.required >= self.acquired:
            raise UnknownClass(
                f"required privilege {self.required.name} must be below acquired {self.acquired.name}"
            )
        if self.exploit_type is ExploitType.PE:
            if self.protocol is not None:
                raise UnknownClass("PE classes carry no protocol")
            if self.required not in _PE_REQUIRED or self.acquired not in _PE_ACQUIRED:
                raise UnknownClass(
                    f"invalid PE privilege pair {self.required.letter}/{self.acquired.letter}"
                )
        else:
            if self.protocol is None:
                raise UnknownClass("RCE classes require a protocol")
            if self.required not in _RCE_REQUIRED or self.acquired not in _RCE_ACQUIRED:
                raise UnknownClass(
                    f"invalid RCE privilege pair {self.required.letter}/{self.acquired.letter}"
                )

    @property
    def name(self) -> str:
        return class_name(self)


def class_name(c: ExploitClass) -> str:
    """Canonical uppercase name, e.g. ``PE_L_R`` or ``RCE_TCP_N_H``."""
    if c.exploit_type is ExploitType.PE:
        return f"PE_{c.required.letter}_{c.acquired.letter}"
    return f"RCE_{c.protocol.value}_{c.required.letter}_{c.acquired.letter}"


def parse_class_name(name: str) -> ExploitClass:
    """Parse a canonical class name (case-insensitive) into an ExploitClass."""
    if not name or not name.strip():
        raise UnknownClass("empty class name")
    parts = name.strip().upper().split("_")
    try:
        if parts[0] == "PE" and len(parts) == 3:
            return ExploitClass(
                ExploitType.PE,
                None,
                PrivilegeLevel.from_letter(parts[1]),
                PrivilegeLevel.from_letter(parts[2]),
            )
        if parts[0] == "RCE" and len(parts) == 4 and parts[1] in ("TCP", "UDP"):
            return ExploitClass(
                ExploitType.RCE,
                Protocol[parts[1]],
                PrivilegeLevel.from_letter(parts[2]),
                PrivilegeLevel.from_letter(parts[3]),
            )
    except UnknownClass:
        raise UnknownClass(f"unknown exploit class {name!r}") from None
    raise UnknownClass(f"unknown exploit class {name!r}")


def all_classes() -> tuple[ExploitClass, ...]:
    """Every valid class, in canonical enumeration order (exactly 15)."""
    out = []
    for required in PrivilegeLevel:
        for acquired in PrivilegeLevel:
            for exploit_type in ExploitType:
                protocols = (None,) if exploit_type is ExploitType.PE else tuple(Protocol)
                for protocol in protocols:
                    try:
                        out.append(ExploitClass(exploit_type, protocol, required, acquired))
                    except UnknownClass:
                        continue
    return tuple(out)


# --- CPE 2.3 ---------------------------------------------------------------

class Wildcard(Enum):
    """The two CPE logical values: ANY (``*``) and NA (``-``)."""

    ANY = "*"
    NA = "-"


ANY = Wildcard.ANY
NA = Wildcard.NA

# str means a concrete (unescaped) value
Attribute = str | Wildcard

CPE_ATTRS = (
    "part", "vendor", "product", "version", "update", "edition",
    "language", "sw_edition", "target_sw", "target_hw", "other",
)


@dataclass(frozen=True)
class Cpe:
    """A parsed ``cpe:2.3`` descriptor (11 attributes)."""

    part: str | Wildcard = ANY
    vendor: str | Wildcard = ANY
    product: str | Wildcard = ANY
    version: str | Wildcard = ANY
    update: str | Wildcard = ANY
    edition: str | Wildcard = ANY
    language: str | Wildcard = ANY
    sw_edition: str | Wildcard = ANY
    target_sw: str | Wildcard = ANY
    target_hw: str | Wildcard = ANY
    other: str | Wildcard = ANY

    def __post_init__(self):
        if isinstance(self.part, str) and self.part not in ("a", "o", "h"):
            raise MalformedCpe(f"part must be a, o or h, got {self.part!r}")
        for attr in CPE_ATTRS:
            value = getattr(self, attr)
            if isinstance(value, str) and not value:
                raise MalformedCpe(f"empty value for {attr}")

    def attributes(self) -> tuple:
        return tuple(getattr(self, attr) for attr in CPE_ATTRS)

    def to_string(self) -> str:
        return cpe_to_string(self)

    def __str__(self) -> str:
        return cpe_to_string(self)


def _split_unescaped(text: str, sep: str) -> list[str]:
    """Split on ``sep`` while leaving backslash escape sequences intact."""
    fields, current, escaped = [], [], False
    for ch in text:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == sep:
            fields.append("".join(current))
            current = []
        else:
            current.append(ch)
    fields.append("".join(current))
    return fields


def _unescape(field_text: str) -> str:
    out, escaped = [], False
    for ch in field_text:
        if escaped:
            out.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        else:
            out.append(ch)
    return "".join(out)


def _escape(value: str) -> str:
    if value == "-":
        return "\\-"
    return value.replace("\\", "\\\\").replace(":", "\\:").replace("*", "\\*")


def parse_cpe(uri: str) -> Cpe:
    """Parse a ``cpe:2.3:`` formatted string into a Cpe.

    ``*`` maps to ANY, ``-`` to NA; backslash escapes inside values are
    resolved. Raises MalformedCpe on wrong prefix or field count.
    """
    if not uri.startswith("cpe:2.3:"):
        raise MalformedCpe(f"missing cpe:2.3: prefix in {uri!r}")
    fields = _split_unescaped(uri, ":")
    if len(fields) != 13:
        raise MalformedCpe(f"expected 13 colon-separated fields, got {len(fields)} in {uri!r}")
    values = {}
    for attr, raw in zip(CPE_ATTRS, fields[2:]):
        if raw == "*":
            values[attr] = ANY
        elif raw == "-":
            values[attr] = NA
        else:
            values[attr] = _unescape(raw)
    return Cpe(**values)


def cpe_to_string(cpe: Cpe) -> str:
    fields = []
    for value in cpe.attributes():
        if value is ANY:
            fields.append("*")
        elif value is NA:
            fields.append("-")
        else:
            fields.append(_escape(value))
    return "cpe:2.3:" + ":".join(fields)


def product_token(cpe: Cpe) -> str:
    """Stable ``<part>--<vendor>--<product>`` identifier for a concrete product.

    Lowercased; characters outside [a-z0-9_-] become ``_``.
    """
    for attr in ("part", "vendor", "product"):
        if not isinstance(getattr(cpe, attr), str):
            raise ValueError(f"product_token needs a concrete {attr}: {cpe}")
    raw = f"{cpe.part}--{cpe.vendor}--{cpe.product}".lower()
    return _IDENT_BAD_RE.sub("_", raw)


# --- version triples --------------------------------------------------------

_DIGITS_RE = re.compile(r"\d+")


@dataclass(frozen=True)
class VersionTriple:
    """(major, minor, patch) with None standing for a wildcard component."""

    major: int | None
    minor: int | None
    patch: int | None

    def components(self) -> tuple:
        return (self.major, self.minor, self.patch)

    @property
    def is_concrete(self) -> bool:
        return all(c is not None for c in self.components())

    def matches(self, other: "VersionTriple") -> bool:
        """Componentwise equality; a wildcard on either side matches anything."""
        return all(
            a is None or b is None or a == b
            for a, b in zip(self.components(), other.components())
        )


WILDCARD_TRIPLE = VersionTriple(None, None, None)


def split_version(value) -> VersionTriple:
    """Split a version attribute into a (major, minor, patch) triple.

    Total function: ANY/NA give all-wildcards, missing tokens default to 0,
    non-integer tokens become wildcards for that slot, and tokens beyond the
    third are dropped with a warning.
    """
    if isinstance(value, Wildcard):
        return WILDCARD_TRIPLE
    tokens = str(value).split(".")
    if len(tokens) > 3:
        logger.warning("version %r has %d components; truncating to 3", value, len(tokens))
        tokens = tokens[:3]
    slots = []
    for i in range(3):
        token = tokens[i] if i < len(tokens) else "0"
        slots.append(int(token) if _DIGITS_RE.fullmatch(token) else None)
    return VersionTriple(*slots)


def cpe_matches(pattern: Cpe, installed: Cpe) -> bool:
    """True iff ``installed`` satisfies the ``pattern`` descriptor.

    Per attribute: pattern ANY matches anything; both sides NA match;
    concrete values compare case-insensitively. The version attribute is
    compared through its (major, minor, patch) triple, where a wildcard
    component matches anything.
    """
    for attr in CPE_ATTRS:
        want = getattr(pattern, attr)
        have = getattr(installed, attr)
        if attr == "version":
            if not split_version(want).matches(split_version(have)):
                return False
            continue
        if want is ANY:
            continue
        if want is NA:
            if have is not NA:
                return False
            continue
        if not isinstance(have, str) or want.lower() != have.lower():
            return False
    return True


# --- exploit records ---------------------------------------------------------

@dataclass(frozen=True)
class ExploitRecord:
    """One known exploit, its vulnerable configurations and optional class label."""

    id: str
    name: str
    source: str
    description: str
    cve_ids: tuple[str, ...] = ()
    cve_descriptions: tuple[str, ...] = ()
    cvss_vectors: tuple[str, ...] = ()
    vulnerable_configs: tuple[Cpe, ...] = ()
    exploit_class: ExploitClass | None = None

    def __post_init__(self):
        if not self.id:
            raise SchemaError("record id must be non-empty")
        if len(self.cve_ids) != len(self.cve_descriptions):
            raise SchemaError(f"record {self.id}: cve id/description count mismatch")
        for cve in self.cve_ids:
            if not CVE_ID_RE.fullmatch(cve):
                raise SchemaError(f"record {self.id}: malformed CVE id {cve!r}")

    def with_class(self, exploit_class: ExploitClass) -> "ExploitRecord":
        return replace(self, exploit_class=exploit_class)


@dataclass(frozen=True)
class ExploitMatrix:
    """A fully classified exploit catalog with unique record ids."""

    records: tuple[ExploitRecord, ...]
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for i, record in enumerate(self.records):
            if record.id in index:
                raise DuplicateId(f"duplicate record id {record.id!r}", f"/records/{i}")
            if record.exploit_class is None:
                raise SchemaError(f"record {record.id!r} is unclassified")
            index[record.id] = record
        object.__setattr__(self, "_by_id", index)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_id

    def record(self, record_id: str) -> ExploitRecord:
        return self._by_id[record_id]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.records)


# --- catalog JSON ------------------------------------------------------------

def _require(obj: dict, key: str, kind, pointer: str):
    if key not in obj:
        raise SchemaError(f"missing required key {key!r}", pointer)
    value = obj[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{key!r} must be {kind.__name__}", f"{pointer}/{key}")
    return value


def _optional(obj: dict, key: str, kind, pointer: str):
    """``obj[key]``, or an empty ``kind`` when absent; it must be a ``kind``."""
    return _require(obj, key, kind, pointer) if key in obj else kind()


def _record_from_json(obj: dict, pointer: str) -> ExploitRecord:
    if not isinstance(obj, dict):
        raise SchemaError("record must be an object", pointer)
    record_id = _require(obj, "id", str, pointer)
    name = _require(obj, "name", str, pointer)
    source = _require(obj, "source", str, pointer)
    description = _require(obj, "description", str, pointer)

    cve_ids, cve_texts = [], []
    for i, cve in enumerate(_optional(obj, "cves", list, pointer)):
        if not isinstance(cve, dict):
            raise SchemaError("cve entry must be an object", f"{pointer}/cves/{i}")
        cve_id = _require(cve, "id", str, f"{pointer}/cves/{i}")
        if not CVE_ID_RE.fullmatch(cve_id):
            raise SchemaError(f"malformed CVE id {cve_id!r}", f"{pointer}/cves/{i}/id")
        cve_ids.append(cve_id)
        cve_texts.append(_optional(cve, "description", str, f"{pointer}/cves/{i}"))

    vectors = obj.get("cvss_vectors", [])
    if not isinstance(vectors, list) or not all(isinstance(v, str) for v in vectors):
        raise SchemaError("cvss_vectors must be a list of strings", f"{pointer}/cvss_vectors")

    configs = []
    for i, uri in enumerate(_optional(obj, "vulnerable_configs", list, pointer)):
        if not isinstance(uri, str):
            raise SchemaError("config must be a CPE string", f"{pointer}/vulnerable_configs/{i}")
        try:
            configs.append(parse_cpe(uri))
        except MalformedCpe as exc:
            raise SchemaError(str(exc), f"{pointer}/vulnerable_configs/{i}") from exc

    exploit_class = None
    if "class" in obj and obj["class"] is not None:
        if not isinstance(obj["class"], str):
            raise SchemaError("class must be a string", f"{pointer}/class")
        try:
            exploit_class = parse_class_name(obj["class"])
        except UnknownClass as exc:
            raise SchemaError(str(exc), f"{pointer}/class") from exc

    try:
        return ExploitRecord(
            id=record_id,
            name=name,
            source=source,
            description=description,
            cve_ids=tuple(cve_ids),
            cve_descriptions=tuple(cve_texts),
            cvss_vectors=tuple(vectors),
            vulnerable_configs=tuple(configs),
            exploit_class=exploit_class,
        )
    except SchemaError as exc:
        raise SchemaError(str(exc), pointer) from exc


def records_from_dict(data: dict) -> list[ExploitRecord]:
    """Build records from an already-decoded catalog document."""
    if not isinstance(data, dict):
        raise SchemaError("catalog must be a JSON object")
    records_json = _require(data, "records", list, "")
    records = []
    seen = set()
    for i, obj in enumerate(records_json):
        record = _record_from_json(obj, f"/records/{i}")
        if record.id in seen:
            raise DuplicateId(f"duplicate record id {record.id!r}", f"/records/{i}")
        seen.add(record.id)
        records.append(record)
    return records


def load_records(path) -> list[ExploitRecord]:
    """Load catalog records from JSON; records may be unclassified."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return records_from_dict(data)


def load_catalog(path) -> ExploitMatrix:
    """Load a fully classified catalog; unclassified records are an error."""
    records = load_records(path)
    for i, record in enumerate(records):
        if record.exploit_class is None:
            raise SchemaError("record is unclassified", f"/records/{i}/class")
    return ExploitMatrix(tuple(records))


def record_to_dict(record: ExploitRecord) -> dict:
    out = {
        "id": record.id,
        "name": record.name,
        "source": record.source,
        "description": record.description,
        "cves": [
            {"id": cve_id, "description": text}
            for cve_id, text in zip(record.cve_ids, record.cve_descriptions)
        ],
        "cvss_vectors": list(record.cvss_vectors),
        "vulnerable_configs": [cpe_to_string(c) for c in record.vulnerable_configs],
    }
    if record.exploit_class is not None:
        out["class"] = class_name(record.exploit_class)
    return out


def save_records(records, path) -> None:
    """Write records back out in the documented catalog JSON format."""
    payload = {"records": [record_to_dict(r) for r in records]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
