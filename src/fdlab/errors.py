"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FdlabError(Exception):
    """Base class for all fdlab errors."""


class SchemaError(FdlabError):
    """Unknown attribute, arity mismatch, or malformed schema."""


class ModelError(FdlabError):
    """Operation applied to an incompatible tuple/table model."""


class WorldLimitExceeded(FdlabError):
    """World enumeration produced more distinct worlds than the caller allowed."""

    def __init__(self, limit: int):
        super().__init__(f"distinct world count exceeds limit {limit}")
        self.limit = limit


class ValuationBudgetExceeded(FdlabError):
    """A valuation search or enumeration ran past its valuation cap."""

    def __init__(self, budget: int):
        super().__init__(f"valuation budget of {budget} exhausted before an exact answer")
        self.budget = budget


class ParseError(FdlabError):
    """Text input rejected; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


class PfdPreconditionError(FdlabError):
    """Input to the valuation algorithm fails a required dependency."""

    def __init__(self, fd):
        super().__init__(f"dependency not satisfied by the table: {fd}")
        self.fd = fd


class PfdRejected(FdlabError):
    """Tuple insert rejected by an enforcement index; carries the conflict."""

    def __init__(self, binding: tuple, stored: frozenset, offered: frozenset):
        super().__init__(
            f"binding {binding} maps to conflicting answer sets: "
            f"stored {sorted(stored)} vs offered {sorted(offered)}"
        )
        self.binding = binding
        self.stored = stored
        self.offered = offered


class IndexContractError(FdlabError):
    """Removal of a tuple the index never accepted."""


class ReductionError(FdlabError):
    """A matching instance cannot be turned into a table (uncoverable element)."""
