"""Constructive valuation of vague tables plus the matching-problem reduction.

`seamless_valuation_pfd` turns a vague table whose PFDs all hold into one
standard world satisfying every one of them: the seed draws a random total
order on each attribute's values, and each tuple takes, in each cell, the
least value under its attribute's order.  Two such rows that share a binding
of an FD's lhs have equal answer sets under it (pfd), so equal cells on its
rhs outside the lhs, and so equal least values there: the world satisfies
the whole set.  Across seeds each cell's value is uniform over its
candidates, and equal cells always take equal values.  Cost: the pfd
precondition, then O(total cell size).

`generate_3dm_reduction` builds, from a 3-dimensional matching instance, a
vague table and three FDs whose joint (seamless) satisfiability is equivalent
to the instance having a perfect matching; `solve_3dm_bruteforce` is the
independent oracle used to cross-check that equivalence.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ModelError, ParseError, PfdPreconditionError, ReductionError
from .model import DEFAULT_VALUATION_CAP, Memo, Model, Schema, Table, VagueTuple, _world, check_value
from .semantics import FunctionalDependency, _cover, _pfd_holds, check_pfd

DEFAULT_SEED = 0


def seamless_valuation_rows(
    table: Table,
    fds: Iterable[FunctionalDependency],
    seed: int = DEFAULT_SEED,
) -> list:
    """One chosen standard row per table tuple, aligned with table order.

    Requires every FD to hold in the pfd sense: `_pfd_holds` on the cover,
    which may raise ValuationBudgetExceeded, then, if it fails, each FD in
    order, to raise PfdPreconditionError naming the first that does not.
    """
    if table.model is Model.DISJUNCTIVE:
        raise ModelError("the valuation algorithm is defined for vague tables")
    fds = list(fds)  # read twice when the cover fails
    for fd in () if _pfd_holds(table.tuples, _cover(table.schema, fds), DEFAULT_VALUATION_CAP) else fds:
        if not check_pfd(table, fd):  # the first FD that fails, in FD order
            raise PfdPreconditionError(fd)
    if table.model is Model.STANDARD:
        return [t.values for t in table.tuples]

    # Any total order per attribute will do; sorted first, so the shuffle does not depend on the hash seed.
    rng = random.Random(seed)
    ranks = []
    for column in zip(*(t.cells for t in table.tuples)):
        values = sorted(set().union(*column))
        rng.shuffle(values)
        ranks.append(dict(zip(values, range(len(values)))).__getitem__)
    return [tuple(min(c, key=rank) for c, rank in zip(t.cells, ranks)) for t in table.tuples]


def seamless_valuation_pfd(
    table: Table, fds: Iterable[FunctionalDependency], seed: int = DEFAULT_SEED
) -> Table:
    """A possible world of `table` satisfying every FD in the set standardly."""
    return _world(table.schema, seamless_valuation_rows(table, fds, seed=seed))


# ---------------------------------------------------------------------------
# 3-dimensional matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeDMInstance:
    """Disjoint element sets of equal size plus a set of covering triples."""

    x_elements: tuple
    y_elements: tuple
    z_elements: tuple
    triples: tuple

    def __init__(self, x_elements, y_elements, z_elements, triples):
        xs, ys, zs = (tuple(sorted(set(e))) for e in (x_elements, y_elements, z_elements))
        trs = tuple(dict.fromkeys(tuple(t) for t in triples))
        n = len(xs)
        if n < 1 or len(ys) != n or len(zs) != n:
            raise ValueError("element sets must be non-empty and equally sized")
        if set(xs) & set(ys) or set(ys) & set(zs) or set(xs) & set(zs):
            raise ValueError("element sets must be disjoint")
        for t in trs:
            if len(t) != 3 or t[0] not in xs or t[1] not in ys or t[2] not in zs:
                raise ValueError(f"triple {t} does not draw one element from each set")
        object.__setattr__(self, "x_elements", xs)
        object.__setattr__(self, "y_elements", ys)
        object.__setattr__(self, "z_elements", zs)
        object.__setattr__(self, "triples", trs)

    @property
    def n(self) -> int:
        return len(self.x_elements)

    def triple_ids(self) -> dict:
        """'t1'..'tk' in input order."""
        return {f"t{i + 1}": t for i, t in enumerate(self.triples)}


@dataclass(frozen=True)
class ReductionOutput:
    table: Table
    fds: tuple


def generate_3dm_reduction(inst: ThreeDMInstance) -> ReductionOutput:
    """Vague table over (X, Y, Z, T) whose seamless satisfiability under
    {X->T, Y->T, Z->T} matches the instance's matchability.

    One tuple per element; the element's own column is fixed, the other two
    element columns carry the full candidate sets, and the T column carries
    the identifiers of exactly the triples containing the element.  Each
    distinct element and triple id is checked once, in the order the rows
    use them, and each full cell is built once.
    """
    schema = Schema(("X", "Y", "Z", "T"))
    ids_by_triple = {t: tid for tid, t in inst.triple_ids().items()}
    full = (frozenset(inst.x_elements), frozenset(inst.y_elements), frozenset(inst.z_elements))

    def ids_containing(pos: int, element: str) -> frozenset:
        ids = frozenset(tid for t, tid in ids_by_triple.items() if t[pos] == element)
        if not ids:
            raise ReductionError(f"uncoverable element {element!r}: it appears in no triple")
        return ids

    value = Memo(check_value)
    checked = Memo(lambda cell: frozenset(map(value.__getitem__, cell)))
    rows = []
    for pos, elements in enumerate((inst.x_elements, inst.y_elements, inst.z_elements)):
        for e in elements:
            ids = ids_containing(pos, e)
            cells = list(full)
            cells[pos] = frozenset((e,))
            rows.append(VagueTuple(schema, tuple(map(checked.__getitem__, (*cells, ids))), checked=True))
    fds = tuple(
        FunctionalDependency(frozenset((a,)), frozenset(("T",))) for a in ("X", "Y", "Z")
    )
    return ReductionOutput(Table(schema, Model.VAGUE, rows), fds)


def solve_3dm_bruteforce(inst: ThreeDMInstance, max_n: int = 6) -> Optional[frozenset]:
    """Exhaustive search for a perfect matching; returns its triple ids."""
    if inst.n > max_n:
        raise ValueError(f"instance size {inst.n} exceeds the brute-force cap {max_n}")
    everything = set(inst.x_elements) | set(inst.y_elements) | set(inst.z_elements)
    ids = inst.triple_ids()
    for combo in itertools.combinations(sorted(ids), inst.n):
        covered = [e for tid in combo for e in ids[tid]]
        if len(set(covered)) == 3 * inst.n and set(covered) == everything:
            return frozenset(combo)
    return None


def parse_3dm(text: str) -> ThreeDMInstance:
    """Instance file: first line `n`, then one `x y z` triple per line.

    Element-set membership is inferred by column; the declared `n` must match
    the number of distinct elements seen in each column; columns sharing an
    element raise ParseError.
    """
    lines = [
        (i + 1, line.strip()) for i, line in enumerate(text.splitlines()) if line.strip()
    ]
    lines = [(no, line) for no, line in lines if not line.startswith("#")]
    if not lines:
        raise ParseError("empty instance file")
    no, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"expected the set size, got {head!r}", no) from None
    if n < 1:
        raise ParseError("set size must be at least 1", no)
    triples = []
    for no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected three whitespace-separated elements, got {line!r}", no)
        triples.append(tuple(parts))
    cols = [tuple(dict.fromkeys(t[i] for t in triples)) for i in range(3)]
    for i, name in enumerate(("first", "second", "third")):
        if len(cols[i]) != n:
            raise ParseError(
                f"{name} column names {len(cols[i])} distinct elements, expected {n}"
            )
    try:
        return ThreeDMInstance(cols[0], cols[1], cols[2], triples)
    except ValueError as exc:  # columns sharing an element
        raise ParseError(str(exc)) from None
