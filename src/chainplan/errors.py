"""Exception types shared across the toolkit."""


class ChainplanError(Exception):
    """Base class for all toolkit errors."""


# --- catalog ---------------------------------------------------------------

class CatalogError(ChainplanError):
    pass


class UnknownClass(CatalogError):
    """A class name is not one of the 15 canonical exploit classes."""


class MalformedCpe(CatalogError):
    """A CPE 2.3 string has the wrong prefix or field count."""


class SchemaError(ChainplanError):
    """A JSON document violates the documented schema.

    ``pointer`` is a JSON-pointer-style path to the offending field.
    """

    def __init__(self, message: str, pointer: str | None = None):
        super().__init__(message if pointer is None else f"{pointer}: {message}")
        self.pointer = pointer


class DuplicateId(CatalogError, SchemaError):
    """Two catalog records share an id; ``pointer`` names the later record."""


# --- classifier ------------------------------------------------------------

class MalformedVector(ChainplanError):
    """A CVSS vector string could not be parsed."""


class MissingDescription(ChainplanError):
    """Record has no exploit description to build a prompt from."""


class EndpointError(ChainplanError):
    """Transport or HTTP failure talking to the LLM endpoint."""


class UnparseableReply(ChainplanError):
    """Model reply was not a valid class name, even after one retry."""

    def __init__(self, record_id: str, replies: list[str]):
        super().__init__(f"{record_id}: unparseable model replies {replies!r}")
        self.record_id = record_id
        self.replies = replies


class MissingTruth(ChainplanError):
    """A prediction's record id has no ground-truth label."""


# --- netmodel --------------------------------------------------------------

class DanglingReference(SchemaError):
    """A network document references a host/subnet/product that does not exist."""


class UnknownHost(ChainplanError):
    pass


# --- pddlgen ---------------------------------------------------------------

class CollisionError(ChainplanError):
    """Two distinct inputs sanitize to the same PDDL identifier."""


class PddlSyntaxError(ChainplanError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnsupportedFeature(ChainplanError):
    """PDDL input uses a construct outside the supported delete-free subset."""


class EmptyDomain(ChainplanError):
    """No exploit in the catalog is relevant to the network (``relevance``)."""

    def __init__(self, message: str, relevance):
        super().__init__(message)
        self.relevance = relevance


# --- planner ---------------------------------------------------------------

class TypeMismatch(ChainplanError):
    pass


class ArityMismatch(ChainplanError):
    pass


class NotApplicable(ChainplanError):
    """Action preconditions are not satisfied in the given state."""


class UnknownActionId(ChainplanError):
    pass


class ProcessError(ChainplanError):
    """External planner could not be launched, or exited without producing a plan."""


class PlannerTimeout(ChainplanError):
    """External planner exceeded its configured timeout."""


class InvalidExternalPlan(ChainplanError):
    """External planner produced a plan that fails validation."""


# --- analysis --------------------------------------------------------------

class UnknownExploit(ChainplanError):
    """A plan step could not be traced back to a catalog record."""
