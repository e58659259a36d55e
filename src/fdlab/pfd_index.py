"""Incremental pfd enforcement: a counter-backed map from lhs bindings to
rhs answer sets.

Each accepted tuple contributes, for every standard binding its lhs cells can
take, the answer set of rhs rows it selects under that binding.  An insert is
rejected the moment any binding disagrees with the stored answer set, and a
rejected insert leaves the index untouched (all bindings are scanned before
any mutation), so updates can be done as remove-then-insert.  Counters track
how many tuples support a binding; an entry disappears when its counter
reaches zero.

Cost: check, insert and remove are linear in the tuple's lhs bindings,
independent of the index size; a tuple with more than DEFAULT_VALUATION_CAP
lhs bindings raises ValuationBudgetExceeded.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import IndexContractError, PfdRejected, SchemaError
from .model import Schema, VagueTuple
from .semantics import FunctionalDependency, _fd_positions, contributions


@dataclass
class Entry:
    answers: frozenset
    support: int


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
        self._positions = _fd_positions(schema, fd)
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PfdIndex):
            return NotImplemented
        return self.fd == other.fd and self.schema == other.schema and self.entries() == other.entries()

    def entries(self) -> dict:
        """Snapshot: binding -> (answer set, support count)."""
        return {k: (e.answers, e.support) for k, e in self._entries.items()}

    def _contributions(self, t) -> list:
        if t.schema != self.schema:
            raise SchemaError(f"tuple schema {t.schema.attributes} differs from index schema {self.schema.attributes}")
        return contributions(t, *self._positions)

    def _scan(self, t) -> tuple:
        """The tuple's contributions and its first conflict with a stored
        entry (None if there is none)."""
        contributions = self._contributions(t)
        for b, answers in contributions:
            entry = self._entries.get(b)
            if entry is not None and entry.answers != answers:
                return contributions, Conflict(b, entry.answers, answers)
        return contributions, None

    def check(self, t) -> Optional[Conflict]:
        """Would `insert` reject this tuple?  Never mutates."""
        return self._scan(t)[1]

    def insert(self, t) -> None:
        """Accept or raise PfdRejected; rejection leaves the index unchanged."""
        contributions, conflict = self._scan(t)
        if conflict is not None:
            raise PfdRejected(conflict.binding, conflict.stored, conflict.offered)
        for b, answers in contributions:
            entry = self._entries.get(b)
            if entry is None:
                self._entries[b] = Entry(answers, 1)
            else:
                entry.support += 1

    def remove(self, t) -> None:
        """Undo one prior insert of `t`; errors if `t` was never accepted."""
        contributions = self._contributions(t)
        for b, answers in contributions:
            entry = self._entries.get(b)
            if entry is None or entry.answers != answers:
                raise IndexContractError(
                    f"tuple was never inserted: no matching entry for binding {b}"
                )
        for b, _ in contributions:
            entry = self._entries[b]
            entry.support -= 1
            if entry.support == 0:
                del self._entries[b]

    @classmethod
    def rebuild(cls, fd: FunctionalDependency, schema: Schema, tuples: Iterable) -> "PfdIndex":
        """Replay inserts on an empty index."""
        idx = cls(fd, schema)
        for t in tuples:
            idx.insert(t)
        return idx


# ---------------------------------------------------------------------------
# Cost-contract benchmark
# ---------------------------------------------------------------------------


@dataclass
class BenchReport:
    """Per-size insert latency distribution, in nanoseconds."""

    fd: FunctionalDependency
    sizes: list = field(default_factory=list)
    medians_ns: dict = field(default_factory=dict)
    p90s_ns: dict = field(default_factory=dict)

    @property
    def median_spread(self) -> float:
        """max median / min median across table sizes."""
        values = [self.medians_ns[s] for s in self.sizes]
        return max(values) / min(values)

    def to_text(self) -> str:
        lines = [f"fd: {self.fd}", "probe: per-insert latency at fixed lhs valuation count"]
        for s in self.sizes:
            lines.append(
                f"size: {s} median_ns: {self.medians_ns[s]:.0f} p90_ns: {self.p90s_ns[s]:.0f}"
            )
        lines.append(f"median_spread: {self.median_spread:.3f}")
        return "\n".join(lines) + "\n"


def _bench_tuple(schema: Schema, tag: str, rng: random.Random) -> VagueTuple:
    # Fixed |t[X]| = 2 (two candidate lhs values), one rhs value.
    return VagueTuple(
        schema,
        (frozenset((f"x{tag}a", f"x{tag}b")), frozenset((f"y{rng.randrange(4)}",))),
    )


def bench_inserts(
    sizes: Iterable[int] = (100, 1_000, 10_000),
    probes: int = 200,
    seed: int = 0,
) -> BenchReport:
    """Median per-insert latency at several table sizes, fixed binding count.

    Contract under test: insert work depends on the number of lhs valuations
    of the tuple, not on how many tuples the index already holds.
    """
    schema = Schema(("X", "Y"))
    fd = FunctionalDependency({"X"}, {"Y"})
    rng = random.Random(seed)
    report = BenchReport(fd, sizes=list(sizes))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for size in report.sizes:
            idx = PfdIndex(fd, schema)
            for i in range(size):
                idx.insert(_bench_tuple(schema, f"base{size}_{i}", rng))
            samples = []
            for i in range(probes):
                probe = _bench_tuple(schema, f"probe{size}_{i}", rng)
                start = time.perf_counter_ns()
                idx.insert(probe)
                samples.append(time.perf_counter_ns() - start)
                idx.remove(probe)
            report.medians_ns[size] = statistics.median(samples)
            report.p90s_ns[size] = statistics.quantiles(samples, n=10)[-1]
    finally:
        if gc_was_enabled:
            gc.enable()
    return report
