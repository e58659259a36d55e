"""Satisfaction checkers for functional dependencies over incomplete tables.

Six interpretations are supported:

* standard   -- classical FDs on standard tables only;
* strong     -- the FD holds in every possible world;
* weak       -- the FD holds in at least one possible world;
* pfd        -- for any two tuples and any shared lhs binding, the selected
                rhs answer sets coincide;
* vertical   -- pfd agreement plus a per-tuple product-form condition and a
                per-tuple multivalued dependency;
* rm         -- Raju-Majumdar style: rhs resemblance never drops below lhs
                resemblance (vague tables only).

Seamless satisfaction (one world satisfying a whole FD set at once) is a
set-level check and is exposed as `check_seamless`.  Checking it is
NP-complete, so it carries a search budget; its backtracking search keeps
each tuple's domain forward-checked through a `binding -> tuples` index and
takes the smallest one from a lazy heap.
Weak is seamless satisfaction of a one-FD set.  The standard, strong, pfd
and vertical checks share one core: `contributions` (a tuple's binding ->
answer set pairs) and `_first_disagreement` (one hash pass over them).  No
checker enumerates possible worlds.  rm scores only the pairs that share a
value on its most selective lhs attribute, found in a `value -> tuples`
index, and counts the pairs it compares against a cap.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Union

from .errors import ModelError, SchemaError, ValuationBudgetExceeded
from .model import (
    DEFAULT_VALUATION_CAP,
    DisjunctiveTuple,
    Model,
    StandardTuple,
    Table,
    VagueTuple,
    _world,
    to_disjunctive_tuple,
)


@dataclass(frozen=True)
class FunctionalDependency:
    """X -> Y over attribute names; sides may overlap or be empty."""

    lhs: frozenset
    rhs: frozenset

    def __init__(self, lhs: Iterable[str], rhs: Iterable[str]):
        object.__setattr__(self, "lhs", frozenset(lhs))
        object.__setattr__(self, "rhs", frozenset(rhs))

    def attributes(self) -> frozenset:
        return self.lhs | self.rhs

    def __str__(self) -> str:
        return f"{' '.join(sorted(self.lhs))} -> {' '.join(sorted(self.rhs))}"


class Semantics(str, Enum):
    STANDARD = "standard"
    STRONG = "strong"
    WEAK = "weak"
    SEAMLESS = "seamless"
    PFD = "pfd"
    VERTICAL = "vertical"
    RM = "rm"


# ---------------------------------------------------------------------------
# Selection: t[X=binding] and its projections
# ---------------------------------------------------------------------------


def _cells(t) -> tuple:
    """Uniform cell view of a standard or vague tuple: one set per attribute."""
    return t.cells if isinstance(t, VagueTuple) else tuple(frozenset((v,)) for v in t.values)


def _rows_under(t, x_pos: tuple, binding: tuple, y_pos: tuple):
    """The valuation rows of `t` with X = binding, in value order (X and Y as
    schema positions): a disjunctive tuple's sorted disjuncts that carry the
    binding; for a standard or vague tuple, the product of the bound value at
    X, the sorted cell at Y and the least value everywhere else.  Empty when
    a bound value is not in its cell."""
    if isinstance(t, DisjunctiveTuple):
        return [row for row in sorted(t.disjuncts) if tuple(row[i] for i in x_pos) == binding]
    cells = _cells(t)
    bound = dict(zip(x_pos, binding))
    if any(v not in cells[p] for p, v in bound.items()):
        return ()
    return itertools.product(*(
        (bound[p],) if p in bound else sorted(c) if p in y_pos else (min(c),) for p, c in enumerate(cells)
    ))


def answer_set(t, x_attrs: Iterable[str], binding: tuple, y_attrs: Iterable[str]) -> frozenset:
    """t[X=binding][Y]: selected valuations of t, projected on Y; the Y
    projection of `_rows_under`, so a vague tuple's cells outside X and Y
    contribute one value each."""
    x_pos = t.schema.positions(x_attrs)
    y_pos = t.schema.positions(y_attrs)
    return frozenset(tuple(row[i] for i in y_pos) for row in _rows_under(t, x_pos, binding, y_pos))


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of selecting t[X=binding] and projecting the survivors."""

    source: object
    x_attrs: tuple
    binding: tuple
    onto: tuple
    answers: frozenset


def select(t, x_attrs: Iterable[str], binding: tuple, onto: Optional[Iterable[str]] = None) -> SelectionResult:
    """t[X=binding], projected on `onto` (defaults to the full schema).  The
    binding gives one value per attribute of X, in schema order; any other
    length raises SchemaError."""
    onto_attrs = tuple(t.schema.attributes if onto is None else t.schema.restrict(onto).attributes)
    x_norm = tuple(t.schema.restrict(x_attrs).attributes)
    binding = tuple(binding)
    if len(binding) != len(x_norm):
        raise SchemaError(f"binding {binding} has {len(binding)} values for the {len(x_norm)} attributes {x_norm}")
    return SelectionResult(t, x_norm, binding, onto_attrs, answer_set(t, x_norm, binding, onto_attrs))


def contributions(t, x_pos: tuple, y_pos: tuple, cap: int = DEFAULT_VALUATION_CAP) -> list:
    """(binding, t[X=binding][Y]) for every lhs binding of `t` (X and Y as
    schema positions), in sorted binding order.  Linear in the bindings; a
    vague tuple with more than `cap` of them raises ValuationBudgetExceeded."""
    if isinstance(t, StandardTuple):
        return [(tuple(t.values[i] for i in x_pos), frozenset((tuple(t.values[i] for i in y_pos),)))]
    if isinstance(t, DisjunctiveTuple):
        groups = {}
        for row in t.disjuncts:
            groups.setdefault(tuple(row[i] for i in x_pos), set()).add(tuple(row[i] for i in y_pos))
        return [(b, frozenset(groups[b])) for b in sorted(groups)]
    lhs = [sorted(t.cells[i]) for i in x_pos]
    if math.prod(map(len, lhs)) > cap:
        raise ValuationBudgetExceeded(cap)
    rhs = [sorted(t.cells[i]) for i in y_pos]
    at = {p: k for k, p in enumerate(x_pos) if p in y_pos}
    if not at:  # the answer set is the same for every binding
        answers = frozenset(itertools.product(*rhs))
        return [(b, answers) for b in itertools.product(*lhs)]
    return [(b, frozenset(itertools.product(*((b[at[p]],) if p in at else c for p, c in zip(y_pos, rhs)))))
            for b in itertools.product(*lhs)]


def _first_disagreement(tuples: tuple, pairs_of, reason: str) -> Optional[Violation]:
    """Violation for the least (i, j, key), i < j, such that tuples i and j
    map `key` to different values under `pairs_of(t)` (key, value) pairs.

    The least pair for a key starts at the key's first holder f: if i and j
    disagree and f < i, f disagrees with one of them in an earlier pair.  So
    one pass keeping each key's first holder and first later disagreement
    suffices.  Linear in the number of pairs."""
    first, found = {}, {}
    for j, t in enumerate(tuples):
        for key, value in pairs_of(t):
            seen = first.get(key)
            if seen is None:
                first[key] = (j, value)
            elif seen[1] != value and key not in found:
                found[key] = seen[0], j
    if not found:
        return None
    i, j, key = min((i, j, key) for key, (i, j) in found.items())
    return Violation(reason, (tuples[i], tuples[j]), key)


# ---------------------------------------------------------------------------
# Violation evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """Machine-readable witness of a failed check."""

    reason: str
    tuples: tuple
    binding: Optional[tuple] = None
    note: str = ""

    def render(self) -> str:
        parts = [self.reason]
        parts.extend(f"t{i + 1}=({t.render()})" for i, t in enumerate(self.tuples))
        if self.binding is not None:
            parts.append(f"binding=({','.join(self.binding)})")
        if self.note:
            parts.append(self.note)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Standard / strong / weak
# ---------------------------------------------------------------------------


def _fd_positions(schema, fd: FunctionalDependency):
    return schema.positions(fd.lhs), schema.positions(fd.rhs)


def find_standard_violation(table: Table, fd: FunctionalDependency) -> Optional[Violation]:
    """First (t1, t2) in canonical order equal on X and different on Y.
    Linear in tuples (one hash pass)."""
    if table.model is not Model.STANDARD:
        raise ModelError("standard satisfaction is defined over standard tables only")
    x_pos, y_pos = _fd_positions(table.schema, fd)
    return _first_disagreement(table.tuples, lambda t: contributions(t, x_pos, y_pos), "pair-disagrees")


def check_standard(table: Table, fd: FunctionalDependency) -> bool:
    """Classical satisfaction: equal on X implies equal on Y.  Linear in tuples."""
    return find_standard_violation(table, fd) is None


def _require_within(table: Table, cap: int) -> None:
    """Raise ValuationBudgetExceeded if a tuple has more than `cap` valuations."""
    for t in table.tuples:
        if t.valuation_count() > cap:
            raise ValuationBudgetExceeded(cap)


def find_strong_violation(
    table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP
) -> Optional[Violation]:
    """Least (t1, t2, binding) such that some world gives the two tuples
    different rhs rows under the binding, witnessed by the least such pair of
    valuations: t1's least row under the binding, then t2's least row with
    another rhs row, or, when t2 has none, t2's least row and then t1's least
    with another.  Both rows are read from `_rows_under`.

    Valuations are independent per tuple, so a world violates the FD iff two
    distinct tuples share an lhs binding and their answer sets are not one and
    the same single row.  A larger answer set is replaced by a stand-in equal
    to nothing else, which turns that test into `_first_disagreement`'s.
    Linear in total lhs bindings; a tuple with more than `valuation_cap` lhs
    bindings raises ValuationBudgetExceeded."""
    x_pos, y_pos = _fd_positions(table.schema, fd)

    def pairs_of(t):
        return [(b, answers if len(answers) == 1 else object())
                for b, answers in contributions(t, x_pos, y_pos, valuation_cap)]

    hit = _first_disagreement(table.tuples, pairs_of, "world-pair-disagrees")
    if hit is None:
        return None
    (t1, t2), b = hit.tuples, hit.binding

    def least(t, avoid=None):
        """The first row of `t` under b whose Y projection is not `avoid`."""
        return next((row for row in _rows_under(t, x_pos, b, y_pos) if tuple(row[i] for i in y_pos) != avoid), None)

    u1 = least(t1)
    u2 = least(t2, tuple(u1[i] for i in y_pos))
    if u2 is None:  # t2's only rhs row under b is u1's
        u2 = least(t2)
        u1 = least(t1, tuple(u2[i] for i in y_pos))
    return Violation(hit.reason, tuple(StandardTuple(table.schema, u, checked=True) for u in (u1, u2)), b)


def check_strong(table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP) -> bool:
    """True iff every possible world satisfies the FD standardly.  Cost as
    `find_strong_violation`."""
    return find_strong_violation(table, fd, valuation_cap) is None


def check_weak(table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP) -> bool:
    """True iff some possible world satisfies the FD standardly: seamless
    satisfaction of the one-FD set.  Cost as `check_seamless`."""
    return check_seamless(table, [fd], valuation_cap) is not None


# ---------------------------------------------------------------------------
# Seamless satisfaction (NP-complete; pruned exhaustive search)
# ---------------------------------------------------------------------------


def _getter(pos: tuple):
    """Row projector onto `pos`: a scalar for one position, () for none."""
    return operator.itemgetter(*pos) if pos else lambda row: ()


def check_seamless(
    table: Table,
    fds: Iterable[FunctionalDependency],
    budget: int = DEFAULT_VALUATION_CAP,
) -> Optional[Table]:
    """A world satisfying every FD in the set at once, or None.

    Exhaustive backtracking over per-tuple valuations, kept on an explicit
    stack so that its depth is not bounded by the interpreter's.  Each
    unassigned tuple keeps its domain, the valuations compatible with the
    choices so far: a row that opens a new lhs binding re-filters only that
    binding's unassigned holders (forward checking over a `binding -> tuples`
    index), and backtracking undoes each frame's own row.  The smallest domain
    is branched on (fail-first, the lowest index on ties), and an empty one
    is a dead end; a lazy heap keyed by (domain size, at least 1; index)
    finds it.  After the first dead end, a row is no longer tried when it
    gives a binding an rhs value that a tuple with that single lhs binding
    cannot take.  Raises ValuationBudgetExceeded before the search if a
    tuple has more than `budget` valuations, and after `budget` candidate
    extensions.  Cost: exponential in tuples in the worst case (the problem
    is NP-complete); without backtracking, each new binding filters its
    holders once per FD, and each node costs O(log n) heap work per domain
    that changed.
    """
    fds = list(fds)
    getters = [tuple(map(_getter, _fd_positions(table.schema, fd))) for fd in fds]
    _require_within(table, budget)
    valuations = [list(t.valuations()) for t in table.tuples]
    domains = valuations.copy()  # lists are replaced, never changed in place
    # Per FD: binding -> the tuples with a valuation carrying it.  The entry
    # of a binding that a chosen row opened is away, in that row's undo log.
    holders = [dict() for _ in fds]
    for j, rows in enumerate(valuations):
        for h, (xg, _) in zip(holders, getters):
            for key in set(map(xg, rows)):
                h.setdefault(key, []).append(j)
    free = [True] * len(domains)
    # (max(len(domain), 1), index) for every free tuple, plus stale entries
    # that `branch` skips.  Sizes 0 and 1 share a key, so the first tuple
    # with at most one row comes out first, as a scan in index order finds it.
    heap = [(len(rows) or 1, j) for j, rows in enumerate(domains)]
    heapq.heapify(heap)
    attempts = 0
    # Per FD: binding -> the rhs values allowed by every tuple whose
    # valuations all carry that binding.  Any world gives such a tuple one of
    # them, so a row giving the binding another rhs value leads only to dead
    # ends and is not tried.  Filled at the first dead end, so a search that
    # never backtracks does not pay for it.
    allowed = []

    def fill_allowed():
        for xg, yg in getters:
            a = {}
            for rows in valuations:
                keys = set(map(xg, rows))
                if len(keys) == 1:
                    key = keys.pop()
                    ys = frozenset(map(yg, rows))
                    a[key] = a[key] & ys if key in a else ys
            allowed.append(a)

    def viable(row) -> bool:
        for a, (xg, yg) in zip(allowed, getters):
            ys = a.get(xg(row))
            if ys is not None and yg(row) not in ys:
                return False
        return True

    def push(row) -> list:
        """Choose `row`; return its undo log: (container, key, old value) for
        each binding it opened, taken out of `holders`, and each domain it shrank."""
        log = []
        for h, (xg, yg) in zip(holders, getters):
            key = xg(row)
            js = h.pop(key, None)
            if js is None:
                continue
            log.append((h, key, js))
            y = yg(row)
            for j in js:
                if free[j]:
                    kept = [r for r in domains[j] if xg(r) != key or yg(r) == y]
                    if len(kept) < len(domains[j]):
                        log.append((domains, j, domains[j]))
                        domains[j] = kept
                        heapq.heappush(heap, (len(kept) or 1, j))
        return log

    def undo(log):
        """Undo a `push`, last in, first out: a binding closes with its opener."""
        for container, key, old in reversed(log):
            container[key] = old
            if container is domains:
                heapq.heappush(heap, (len(old) or 1, key))

    def branch():
        """The tuple index to branch on, or None at a dead end."""
        if len(heap) > 4 * len(domains):  # keep a long search's heap O(n)
            heap[:] = [(len(rows) or 1, j) for j, rows in enumerate(domains) if free[j]]
            heapq.heapify(heap)
        while True:
            size, i = heap[0]
            if free[i] and size == (len(domains[i]) or 1):
                break
            heapq.heappop(heap)
        if domains[i]:
            return i
        if not allowed:
            fill_allowed()
        return None

    # One frame per branched tuple: [tuple index, its untried rows, its
    # current row, that row's undo log]; a fresh frame has no row, an empty log.
    stack = []
    while len(stack) < len(domains):
        node = branch()
        if node is not None:
            free[node] = False
            stack.append([node, filter(viable, domains[node]), None, ()])
        while stack:
            frame = stack[-1]
            undo(frame[3])
            row = next(frame[1], None)
            if row is not None:
                break
            i = stack.pop()[0]
            free[i] = True
            heapq.heappush(heap, (len(domains[i]) or 1, i))
        else:
            return None
        attempts += 1
        if attempts > budget:
            raise ValuationBudgetExceeded(budget)
        frame[2:] = row, push(row)
    return _world(table.schema, [frame[2] for frame in stack])


# ---------------------------------------------------------------------------
# PFD
# ---------------------------------------------------------------------------


def find_pfd_violation(
    table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP
) -> Optional[Violation]:
    """First (t1, t2, binding) in canonical order breaking answer-set equality.

    Linear in total lhs bindings; a tuple with more than `valuation_cap`
    lhs bindings raises ValuationBudgetExceeded."""
    x_pos, y_pos = _fd_positions(table.schema, fd)
    return _first_disagreement(
        table.tuples, lambda t: contributions(t, x_pos, y_pos, valuation_cap), "answer-sets-differ"
    )


def check_pfd(table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP) -> bool:
    """For any two tuples (identity included) and any shared lhs binding, the
    selected rhs answer sets must coincide.  Linear in total lhs bindings."""
    return find_pfd_violation(table, fd, valuation_cap) is None


# ---------------------------------------------------------------------------
# Vertical FDs
# ---------------------------------------------------------------------------


def find_vertical_violation(
    table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP
) -> Optional[Violation]:
    """Three conditions over the disjunctive form, read off the table's own
    tuples in that form's order (by sorted valuations): cross-tuple answer-set
    agreement; per tuple and lhs binding, Z = rhs-minus-lhs rows that are the
    product of their columns; and per tuple, the MVD lhs ->> Z (under each
    binding, the rows are the product of their Z and rest projections).  Only
    disjunctive tuples can break the per-tuple two, and only a reported tuple
    is converted.  Cost: linear in total valuations; a tuple with more than
    `valuation_cap` valuations raises ValuationBudgetExceeded."""
    _require_within(table, valuation_cap)
    tuples = sorted(table.tuples, key=lambda t: sorted(t.valuations()))
    x_pos, y_pos = _fd_positions(table.schema, fd)
    hit = _first_disagreement(tuples, lambda t: contributions(t, x_pos, y_pos, valuation_cap), "answer-sets-differ")
    if hit is not None:
        return Violation(hit.reason, tuple(map(to_disjunctive_tuple, hit.tuples)), hit.binding)
    if table.model is not Model.DISJUNCTIVE:  # a vague tuple's rows are the product of its cells
        return None
    z_pos = table.schema.positions(fd.rhs - fd.lhs)
    zw_pos = z_pos + tuple(p for p in range(len(table.schema)) if p not in x_pos and p not in z_pos)
    nz = len(z_pos)
    for t in tuples:
        groups = [(b, {row[:nz] for row in rows}, rows) for b, rows in contributions(t, x_pos, zw_pos, valuation_cap)]
        for b, z, _ in groups:
            if math.prod(len(set(column)) for column in zip(*z)) != len(z):
                return Violation("not-a-product", (to_disjunctive_tuple(t),), b)
        if any(len(z) * len({row[nz:] for row in rows}) != len(rows) for _, z, rows in groups):
            return Violation("mvd-fails", (to_disjunctive_tuple(t),))
    return None


def check_vertical(table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP) -> bool:
    """Vertical satisfaction, each tuple read as the disjunction of its
    valuations; the table is not converted.  Cost as `find_vertical_violation`."""
    return find_vertical_violation(table, fd, valuation_cap) is None


# ---------------------------------------------------------------------------
# Resemblance and Raju-Majumdar dependencies
# ---------------------------------------------------------------------------

MAX_RESEMBLANCE = "max"
MIN_RESEMBLANCE = "min"


def _known_variant(variant: str) -> None:
    if variant not in (MAX_RESEMBLANCE, MIN_RESEMBLANCE):
        raise ValueError(f"resemblance variant must be {MAX_RESEMBLANCE!r} or {MIN_RESEMBLANCE!r}, got {variant!r}")


def _overlap(c1: tuple, c2: tuple, pos: tuple, variant: str) -> float:
    """Least resemblance of the cells of c1 and c2 at positions `pos` (1.0
    for none); 0.0 at the first disjoint pair of cells."""
    least = 1.0
    for i in pos:
        inter = len(c1[i] & c2[i])
        if not inter:
            return 0.0
        ratios = inter / len(c1[i]), inter / len(c2[i])
        least = min(least, max(ratios) if variant == MAX_RESEMBLANCE else min(ratios))
    return least


def resemblance(a: Iterable[str], b: Iterable[str], variant: str = MAX_RESEMBLANCE) -> float:
    """Set-overlap score in [0,1]: 0 iff disjoint, 1 iff one side contains the
    other (for the max variant)."""
    _known_variant(variant)
    a, b = frozenset(a), frozenset(b)
    if not a or not b:
        raise ValueError("resemblance needs non-empty sets")
    return _overlap((a,), (b,), (0,), variant)


def tuple_resemblance(t1, t2, attrs: Iterable[str], variant: str = MAX_RESEMBLANCE) -> float:
    """Minimum per-attribute resemblance over `attrs` (1.0 for no attributes)."""
    _known_variant(variant)
    pos = t1.schema.positions(attrs)
    if isinstance(t1, DisjunctiveTuple) or isinstance(t2, DisjunctiveTuple):
        raise ModelError("tuple resemblance is defined for vague tuples")
    return _overlap(_cells(t1), _cells(t2), pos, variant)


def _rm_candidates(cells: list, x_pos: tuple):
    """later(i): the j > i, ascending, that share a value with tuple i on the
    lhs position kept below.  Blocking: a pair disjoint on some lhs position has lhs
    resemblance 0 and cannot violate, so no other pair needs scoring.  The
    position kept is the one whose `value -> tuples` buckets hold the fewest
    pairs.  With no lhs every pair has lhs resemblance 1 and is a candidate."""
    if not x_pos:
        return lambda i: range(i + 1, len(cells))
    indexes = []
    for p in x_pos:
        index = {}
        for j, c in enumerate(cells):
            for v in c[p]:
                index.setdefault(v, []).append(j)
        indexes.append((sum(len(bucket) ** 2 for bucket in index.values()), p, index))
    _, p, index = min(indexes)
    return lambda i: sorted({j for v in cells[i][p] for j in index[v] if j > i})


def find_rm_violation(
    table: Table, fd: FunctionalDependency, variant: str = MAX_RESEMBLANCE,
    pair_cap: int = DEFAULT_VALUATION_CAP,
) -> Optional[Violation]:
    """First pair in canonical order whose rhs resemblance drops below its lhs
    resemblance.  Only candidate pairs, those sharing a value on the most
    selective lhs position, are scored, in canonical order, so the first
    violation is the one a scan of all pairs finds.  Cost: O(n + candidate
    pairs), O(|X|+|Y|) per pair; an empty lhs makes every pair a candidate.
    More than `pair_cap` candidate pairs raise ValuationBudgetExceeded, and
    a variant other than "max" or "min" raises ValueError."""
    _known_variant(variant)
    if table.model is Model.DISJUNCTIVE:
        raise ModelError("rm satisfaction is defined over vague tables only")
    x_pos, y_pos = _fd_positions(table.schema, fd)
    tuples = table.tuples
    cells = [_cells(t) for t in tuples]
    later = _rm_candidates(cells, x_pos)
    pairs = 0
    # Identity pairs score 1 on both sides, so they can never violate.
    for i, c1 in enumerate(cells):
        near = later(i)
        pairs += len(near)
        if pairs > pair_cap:
            raise ValuationBudgetExceeded(pair_cap)
        for j in near:
            mx = _overlap(c1, cells[j], x_pos, variant)
            if mx and (my := _overlap(c1, cells[j], y_pos, variant)) < mx:
                return Violation("resemblance-drops", (tuples[i], tuples[j]), note=f"lhs={mx:.6g} rhs={my:.6g}")
    return None


def check_rm(
    table: Table, fd: FunctionalDependency, variant: str = MAX_RESEMBLANCE,
    pair_cap: int = DEFAULT_VALUATION_CAP,
) -> bool:
    """Resemblance of the rhs never drops below the resemblance of the lhs.
    Cost as `find_rm_violation`: linear in tuples plus candidate pairs."""
    return find_rm_violation(table, fd, variant, pair_cap) is None


# ---------------------------------------------------------------------------
# Uniform dispatcher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FdVerdict:
    """The verdict on `fds`: the whole set for seamless, one FD for every
    per-FD semantics.  Carries a violation or, for seamless and weak, the
    witness world if any."""

    fds: tuple
    semantics: Semantics
    holds: bool
    violation: Optional[Violation] = None
    witness: Optional[Table] = None

    def label(self) -> str:
        return "; ".join(map(str, self.fds))


@dataclass
class CheckReport:
    """Per-FD verdicts plus, for seamless and weak runs, the witness world if any."""

    model: Model
    semantics: Semantics
    verdicts: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def satisfied(self) -> bool:
        return all(v.holds for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "model": self.model.value,
            "semantics": self.semantics.value,
            "satisfied": self.satisfied,
            "verdicts": [
                {
                    "fd": v.label(),
                    "holds": v.holds,
                    "violation": v.violation.render() if v.violation else None,
                    "witness": [t.render() for t in v.witness.tuples] if v.witness is not None else None,
                }
                for v in self.verdicts
            ],
        }

    def to_text(self, timing: bool = False) -> str:
        lines = [
            f"model: {self.model.value}",
            f"semantics: {self.semantics.value}",
            f"satisfied: {'true' if self.satisfied else 'false'}",
        ]
        for v in self.verdicts:
            lines.append(f"fd: {v.label()}")
            lines.append(f"holds: {'true' if v.holds else 'false'}")
            if v.violation is not None:
                lines.append(f"violation: {v.violation.render()}")
            if v.witness is not None:
                lines.append("witness: " + "; ".join(t.render() for t in v.witness.tuples))
        if timing:
            lines.append(f"elapsed_ms: {self.elapsed_s * 1000:.3f}")
        return "\n".join(lines) + "\n"


# Per-FD finders, all called as finder(table, fd, valuation_cap).
_FINDERS = {
    Semantics.STANDARD: lambda table, fd, cap: find_standard_violation(table, fd),
    Semantics.STRONG: find_strong_violation,
    Semantics.PFD: find_pfd_violation,
    Semantics.VERTICAL: find_vertical_violation,
    Semantics.RM: lambda table, fd, cap: find_rm_violation(table, fd, pair_cap=cap),
}


def check(
    table: Table,
    fds: Union[FunctionalDependency, Iterable[FunctionalDependency]],
    semantics: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
) -> CheckReport:
    """Uniform entry point: one verdict per group of FDs, where seamless
    takes `fds` as one group and every other semantics takes each FD as its
    own.  Weak and seamless search for a witness world; the rest look for a
    violation with their `_FINDERS` entry."""
    semantics = Semantics(semantics)
    fds = (fds,) if isinstance(fds, FunctionalDependency) else tuple(fds)
    start = time.perf_counter()
    report = CheckReport(table.model, semantics)
    for group in [fds] if semantics is Semantics.SEAMLESS else [(fd,) for fd in fds]:
        if semantics in (Semantics.WEAK, Semantics.SEAMLESS):
            witness = check_seamless(table, group, budget=valuation_cap)
            report.verdicts.append(FdVerdict(group, semantics, witness is not None, witness=witness))
        else:
            v = _FINDERS[semantics](table, *group, valuation_cap)
            report.verdicts.append(FdVerdict(group, semantics, v is None, violation=v))
    report.elapsed_s = time.perf_counter() - start
    return report
