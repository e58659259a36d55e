"""Incremental pfd enforcement: a counter-backed map from lhs bindings to
rhs answer sets.

Each accepted tuple contributes, for every standard binding its lhs cells can
take, the answer set of rhs rows it selects under that binding, in the
binding pass's one canonical form for every tuple model (a product as its
rhs cells), so answers compare in O(|Y|); row sets are built only for
`entries()` and `Conflict`, by `semantics._rows`.  An insert is
rejected the moment any binding disagrees with the stored answer set, and a
rejected insert leaves the index untouched (all bindings are scanned before
any mutation), so updates can be done as remove-then-insert.  Counters track
how many tuples support a binding; an entry disappears when its counter
reaches zero.

Cost: one pass over the tuple's lhs bindings per check, insert or remove,
independent of the index size, by the binding pass built in `__init__`;
`insert(t)` right after `check(t)` of the same tuple object reuses that
pass, unless a write came between: every write drops the kept pass.  More
than DEFAULT_VALUATION_CAP lhs bindings of a tuple or rows of a listed answer
raise ValuationBudgetExceeded, and leave the index unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import IndexContractError, PfdRejected, SchemaError
from .model import Schema
from .semantics import FunctionalDependency, _binder, _fd_positions, _rows


@dataclass(frozen=True)
class Conflict:
    """Dry-run insert verdict: the first disagreeing binding."""

    binding: tuple
    stored: frozenset
    offered: frozenset


class PfdIndex:
    """Enforcement index for one dependency over one schema."""

    def __init__(self, fd: FunctionalDependency, schema: Schema):
        self.fd = fd
        self.schema = schema
        self._bind = _binder(*_fd_positions(schema, fd))
        self._entries: dict = {}  # binding -> [canonical answer, support count]
        self._last = (None, None, None)  # the last scan: (tuple, contributions, conflict), dropped by every write

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PfdIndex):
            return NotImplemented
        return self.fd == other.fd and self.schema == other.schema and self._entries == other._entries

    def entries(self) -> dict:
        """Snapshot: binding -> (answer set, support count)."""
        return {k: (_rows(answers), n) for k, (answers, n) in self._entries.items()}

    def _contributions(self, t) -> list:
        if t.schema.attributes != self.schema.attributes:
            raise SchemaError(f"tuple schema {t.schema.attributes} differs from index schema {self.schema.attributes}")
        return list(self._bind((t,)))

    def _scan(self, t) -> tuple:
        """The tuple's contributions and its first conflict with a stored
        entry (None if there is none), kept until the next scan or write."""
        last = self._last  # read once: a concurrent check may replace it
        if last[0] is t:
            return last[1:]
        contributions, conflict = self._contributions(t), None
        for _, b, answers in contributions:
            stored = self._entries.get(b, (None,))[0]
            if stored is not None and stored != answers:
                conflict = Conflict(b, _rows(stored), _rows(answers))
                break
        self._last = t, contributions, conflict
        return contributions, conflict

    def check(self, t) -> Optional[Conflict]:
        """Would `insert` reject this tuple?  Never mutates."""
        return self._scan(t)[1]

    def insert(self, t) -> None:
        """Accept or raise PfdRejected; rejection leaves the index unchanged."""
        contributions, conflict = self._scan(t)
        if conflict is not None:
            raise PfdRejected(conflict.binding, conflict.stored, conflict.offered)
        self._last = (None, None, None)
        for _, b, answers in contributions:
            self._entries.setdefault(b, [answers, 0])[1] += 1

    def remove(self, t) -> None:
        """Undo one prior insert of `t`; errors if `t` was never accepted."""
        contributions = self._contributions(t)
        entries = [self._entries.get(b) for _, b, _ in contributions]
        for (_, b, answers), entry in zip(contributions, entries):
            if entry is None or entry[0] != answers:
                raise IndexContractError(f"tuple was never inserted: no matching entry for binding {b}")
        self._last = (None, None, None)
        for (_, b, _), entry in zip(contributions, entries):
            entry[1] -= 1
            if not entry[1]:
                del self._entries[b]

    @classmethod
    def rebuild(cls, fd: FunctionalDependency, schema: Schema, tuples: Iterable) -> "PfdIndex":
        """Replay inserts on an empty index."""
        idx = cls(fd, schema)
        for t in tuples:
            idx.insert(t)
        return idx
