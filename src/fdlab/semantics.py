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
and vertical checks, `select` and `PfdIndex` share one core: `_binder`,
built once per FD and pass, walks the tuples as (index, binding, answer set)
triples, and `_first_disagreement` makes one hash pass over them.  Answers
have one canonical form, equal iff the row sets are (`_rows` lists them): a
standard or vague tuple's is its rhs cells (or its one row), O(|Y|), and
vertical on those tables is the pfd pass.  `_narrow` alone builds t[X=b]:
`select` runs the pass on it, and strong's witness rows are its valuations.
No checker enumerates possible worlds.  rm scores only the pairs sharing a
value on its most selective lhs attribute, found in a `value -> tuples`
index, and counts the pairs it compares against a cap.
"""

from __future__ import annotations

import functools
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
    _require_within,
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


def _narrow(t, x_pos: tuple, b: tuple, y_pos: tuple):
    """t[X=b] as one tuple (X and Y as schema positions), or None when t does
    not hold b: a vague t takes {b_k} at X and its least value at each position
    outside X and Y, a standard or disjunctive t becomes the disjunction of its
    rows with X = b.  Its valuations, in value order, are strong's witness rows."""
    if type(t) is VagueTuple:
        bound = dict(zip(x_pos, b))
        cells = tuple(frozenset((bound[p],)) if p in bound else c if p in y_pos else frozenset((min(c),))
                      for p, c in enumerate(t.cells))  # hashes every b_k, held or not
        held = all(v in t.cells[p] for p, v in bound.items())
        return VagueTuple(t.schema, cells, checked=True) if held else None
    rows = frozenset(r for r in t.valuations() if tuple(r[p] for p in x_pos) == b)
    return DisjunctiveTuple(t.schema, rows, checked=True) if rows else None


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of selecting t[X=binding] and projecting the survivors."""

    x_attrs: tuple
    binding: tuple
    onto: tuple
    answers: frozenset


def select(t, x_attrs: Iterable[str], binding: tuple, onto: Optional[Iterable[str]] = None) -> SelectionResult:
    """t[X=binding] projected on `onto` (default: the schema): `_rows` of the
    answer `_binder` gives `_narrow(t)`, O(size of t); a t not holding b
    answers empty.  Over DEFAULT_VALUATION_CAP lhs bindings of a vague t,
    whatever b is, or rows raise ValuationBudgetExceeded.  The binding has one
    value per attribute of X, in schema order; other lengths raise SchemaError."""
    y_pos = tuple(range(len(t.schema))) if onto is None else t.schema.positions(onto)
    x_pos = t.schema.positions(x_attrs)
    x_norm = tuple(t.schema.attributes[i] for i in x_pos)
    binding = tuple(binding)
    if len(binding) != len(x_norm):
        raise SchemaError(f"binding {binding} has {len(binding)} values for the {len(x_norm)} attributes {x_norm}")
    if type(t) is VagueTuple and math.prod(len(t.cells[p]) for p in x_pos) > DEFAULT_VALUATION_CAP:
        raise ValuationBudgetExceeded(DEFAULT_VALUATION_CAP)
    narrow = _narrow(t, x_pos, binding, y_pos)
    answer = next((a for _, _, a in _binder(x_pos, y_pos)(() if narrow is None else (narrow,))), frozenset())
    return SelectionResult(x_norm, binding, tuple(t.schema.attributes[i] for i in y_pos), _rows(answer))


def _getter(pos: tuple):
    """Row projector onto `pos`: a scalar for one position, () for none."""
    return operator.itemgetter(*pos) if pos else lambda row: ()


def _lhs_keys(model: Model, x_pos: tuple):
    """t -> the lhs bindings of a vague or disjunctive `model` tuple as `_getter(x_pos)` keys."""
    xg = _getter(x_pos)
    if model is Model.VAGUE:
        return (lambda t: xg(t.cells)) if len(x_pos) == 1 else lambda t: itertools.product(*xg(t.cells))
    return lambda t: set(map(xg, t.disjuncts))


def _product(cells: tuple):
    """The canonical answer for the product of non-empty cells: its one row
    when every cell is a singleton, else the cells."""
    return cells if sum(map(len, cells)) > len(cells) else next(zip(*cells), ())


def _answer(rows: set):
    """The canonical answer for a set of rows: its one row, else its column
    sets when it is their product, else the frozenset of rows."""
    if len(rows) == 1:
        return next(iter(rows))
    cells = tuple(map(frozenset, zip(*rows)))
    return cells if math.prod(map(len, cells)) == len(rows) else frozenset(rows)


def _one_row(answer) -> bool:
    return type(answer) is tuple and not (answer and type(answer[0]) is frozenset)


def _rows(answer) -> frozenset:
    """The set of rows a canonical answer stands for; a product of more than
    DEFAULT_VALUATION_CAP rows raises ValuationBudgetExceeded unbuilt."""
    if type(answer) is frozenset:
        return answer
    if _one_row(answer):
        return frozenset((answer,))
    if math.prod(map(len, answer)) > DEFAULT_VALUATION_CAP:
        raise ValuationBudgetExceeded(DEFAULT_VALUATION_CAP)
    return frozenset(itertools.product(*answer))


def _binder(x_pos: tuple, y_pos: tuple, cap: int = DEFAULT_VALUATION_CAP):
    """The pass `tuples -> ((j, binding, t[X=binding][Y]), ...)` for one FD
    (X and Y as schema positions): each tuple t = tuples[j] in turn, with
    every lhs binding of t in sorted order and its rhs answer set in one
    canonical form, so answers are equal iff their row sets are (`_rows`
    lists them): a set's one row, else its column sets when it is their
    product, as it is for any vague tuple, else its rows.  A vague tuple's
    answer is its rhs cells, a cell the lhs binds replaced by {b[k]}: O(|Y|),
    once per tuple when X and Y do not overlap, and then a one-attribute lhs
    binds its cell's values with no product.  Lazy and linear in the
    bindings; a vague tuple with more than `cap` of them raises
    ValuationBudgetExceeded when the pass reaches it.  One frame walks the
    whole pass, so a tuple costs no call; `_binder` runs once per FD and pass."""
    # Projectors to tuples: `_getter`, with a one-element slice for one position.
    xs, ys = (operator.itemgetter(slice(p[0], p[0] + 1)) if len(p) == 1 else _getter(p) for p in (x_pos, y_pos))
    at = [x_pos.index(p) if p in x_pos else None for p in y_pos] if set(x_pos) & set(y_pos) else None
    one = x_pos[0] if len(x_pos) == 1 and at is None else None

    def bind(tuples):
        for j, t in enumerate(tuples):
            kind = type(t)
            if kind is VagueTuple:
                cells = t.cells
                if one is not None:
                    cell = cells[one]
                    if len(cell) > cap:
                        raise ValuationBudgetExceeded(cap)
                    answer = _product(ys(cells))
                    for v in cell if len(cell) == 1 else sorted(cell):
                        yield j, (v,), answer
                    continue
                lhs = list(map(sorted, xs(cells)))
                if math.prod(map(len, lhs)) > cap:
                    raise ValuationBudgetExceeded(cap)
                rhs = ys(cells)
                answer = _product(rhs)  # every binding's when X and Y do not overlap
                for b in itertools.product(*lhs):
                    yield j, b, answer if at is None else _product(
                        tuple(c if k is None else frozenset((b[k],)) for k, c in zip(at, rhs)))
            elif kind is StandardTuple:
                yield j, xs(t.values), ys(t.values)
            else:
                groups = {}
                for row in t.disjuncts:
                    groups.setdefault(xs(row), set()).add(ys(row))
                for b in sorted(groups):
                    yield j, b, _answer(groups[b])

    return bind


def _cover(schema, fds: Iterable[FunctionalDependency]) -> list:
    """The FD set's cover as sorted (X, Y) position pairs, one per lhs X: the
    rhs its FDs unite, less X, unless the lhs sets strictly inside X give it
    all (as for trivial FDs).  A world satisfies the set iff it satisfies the
    cover; as pfds too, since X -> A gives XZ -> A.  Unknown names: SchemaError."""
    rhs = {}
    for x_pos, y_pos in (_fd_positions(schema, fd) for fd in fds):
        rhs.setdefault(frozenset(x_pos), set()).update(set(y_pos) - set(x_pos))
    return [(tuple(sorted(x)), tuple(sorted(y))) for x, y in rhs.items()
            if y - set().union(*(z for w, z in rhs.items() if w < x))]


def _pfd_holds(tuples: tuple, fds: list, cap: int) -> bool:
    """Whether each FD of `fds`, as (X, Y) schema positions, holds as a pfd
    on vague or standard `tuples`, where answers are products of cells: one
    pass per FD, up to the first binding two tuples answer differently.  A
    tuple met first with more than `cap` bindings of a lhs raises ValuationBudgetExceeded."""
    for x_pos, y_pos in fds:
        first = {}
        if any(first.setdefault(k, a) != a for _, k, a in _binder(x_pos, y_pos, cap)(tuples)):
            return False
    return True


def _first_disagreement(tuples: tuple, pairs, reason: str) -> Optional[Violation]:
    """Violation for the least (i, j, key), i < j, such that tuples i and j
    map `key` to different values in `pairs`, a `_binder` pass over `tuples`
    as (j, key, value) triples, j ascending.

    The least pair for a key starts at the key's first holder f: if i and j
    disagree and f < i, f disagrees with one of them in an earlier pair, and
    a key's later disagreements give larger pairs.  So one pass keeping each
    key's first holder and the least pair so far suffices, linear in pairs."""
    first, least = {}, None
    for j, key, value in pairs:
        seen = first.get(key)
        if seen is None:
            first[key] = (j, value)
        elif seen[1] != value and (least is None or (seen[0], j, key) < least):
            least = seen[0], j, key
    if least is None:
        return None
    i, j, key = least
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
    return _first_disagreement(table.tuples, _binder(x_pos, y_pos)(table.tuples), "pair-disagrees")


def check_standard(table: Table, fd: FunctionalDependency) -> bool:
    """Classical satisfaction: equal on X implies equal on Y.  Linear in tuples."""
    return find_standard_violation(table, fd) is None


def find_strong_violation(
    table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP
) -> Optional[Violation]:
    """Least (t1, t2, binding) such that some world gives the two tuples
    different rhs rows under the binding, witnessed by the least such pair of
    valuations: t1's least row under the binding, then t2's least row with
    another rhs row, or, when t2 has none, t2's least row and then t1's least
    with another.  Both rows are valuations of the tuple's `_narrow` to b.

    Valuations are independent per tuple, so a world violates the FD iff two
    distinct tuples share an lhs binding and their answer sets are not one and
    the same single row.  A larger answer set is replaced by a stand-in equal
    to nothing else, which turns that test into `_first_disagreement`'s.  The
    binding pass's answer form tells one row, every cell a singleton, in O(1).
    Linear in total lhs bindings; a tuple with more than `valuation_cap` lhs
    bindings raises ValuationBudgetExceeded."""
    x_pos, y_pos = _fd_positions(table.schema, fd)
    pairs = _binder(x_pos, y_pos, valuation_cap)(table.tuples)
    pairs = ((j, b, answer if _one_row(answer) else object()) for j, b, answer in pairs)
    hit = _first_disagreement(table.tuples, pairs, "world-pair-disagrees")
    if hit is None:
        return None
    (t1, t2), b = hit.tuples, hit.binding

    def least(t, avoid=None):
        """The first row of `t` under b whose Y projection is not `avoid`."""
        rows = _narrow(t, x_pos, b, y_pos).valuations()
        return next((row for row in rows if tuple(row[i] for i in y_pos) != avoid), None)

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


def check_seamless(
    table: Table,
    fds: Iterable[FunctionalDependency],
    budget: int = DEFAULT_VALUATION_CAP,
) -> Optional[Table]:
    """A world satisfying every FD in the set at once, or None.

    The set is read as its `_cover`, which has the same worlds, so trivial and
    implied FDs are neither tested nor searched.  The cover's pfd pass decides
    a standard table, its own only world.  If the cover holds as pfds on a
    vague table, the world of least valuations satisfies it (least rows sharing
    a binding have equal answer sets, so equal least rhs values) and is
    returned.  Otherwise, and on disjunctive tables, where pfd gives no joint
    world: exhaustive backtracking over per-tuple valuations, on an explicit
    stack so that its depth is not bounded by the interpreter's.  Each
    unassigned tuple keeps its domain, the valuations compatible with the
    choices so far: a row that opens a new lhs binding re-filters only that
    binding's unassigned holders (forward checking over a `binding -> tuples`
    index), and backtracking undoes each frame's own row.  The smallest domain
    is branched on (fail-first, the lowest index on ties), so an empty one, a
    dead end, is met as soon as it appears; a lazy heap keyed by (domain size,
    index) finds it.  After the first dead end, a row is no longer tried when
    it gives a binding an rhs value that a tuple with that single lhs binding
    cannot take.  A free-standing tuple, one that shares no lhs binding with
    another tuple under any cover FD, is in no conflict: it takes its least
    valuation outside the search, the row the search would end with.  On a
    vague or disjunctive table, raises ValuationBudgetExceeded if a tuple has
    more than `budget` bindings of a cover lhs, then, past the pfd test, if it
    has more valuations, and once the search tries more than `budget` rows.
    Cost: linear in the bindings of the cover's lhs sets; past the pfd test,
    exponential in the valuations of the tuples that are not free-standing, the
    only ones listed, in the worst case (the problem is NP-complete); without
    backtracking, each new binding filters its holders once per cover FD, and
    each node costs O(log n) heap work per domain that changed.
    """
    cover = _cover(table.schema, fds)
    tuples = table.tuples
    if table.model is Model.STANDARD:  # its own only world, which pfd decides exactly
        return table if _pfd_holds(tuples, cover, budget) else None
    # Each tuple's least valuation, `next(t.valuations())` without sorting a cell.
    least = (lambda t: tuple(map(min, t.cells))) if table.model is Model.VAGUE else lambda t: min(t.disjuncts)
    if table.model is Model.VAGUE and _pfd_holds(tuples, cover, budget):
        return _world(table.schema, map(least, tuples))
    getters = [tuple(map(_getter, p)) for p in cover]
    bindings = [_lhs_keys(table.model, x_pos) for x_pos, _ in cover]
    _require_within(tuples, budget)
    # Per FD: binding -> the tuples holding it.  The entry of a binding that
    # a chosen row opened is away, in that row's undo log.  free[j]: tuple j
    # is searched and unassigned.  A free-standing tuple, the only holder of
    # each of its bindings, is never searched: no row of it narrows a domain
    # or is narrowed.
    holders = [dict() for _ in cover]
    free = [False] * len(tuples)
    for j, t in enumerate(tuples):
        for h, keys in zip(holders, bindings):
            for key in keys(t):
                js = h.setdefault(key, [])
                if js:
                    free[js[0]] = free[j] = True
                js.append(j)
    # Only searched tuples' valuations are listed: a free-standing one's are (), so `fill_allowed` skips it.
    valuations = [list(t.valuations()) if searched else () for t, searched in zip(tuples, free)]
    domains = valuations.copy()  # lists are replaced, never changed in place
    alone = [least(t) for t, searched in zip(tuples, free) if not searched]
    depth = len(domains) - len(alone)
    # (len(domain), index) for every free tuple, plus stale entries that `branch` skips.
    heap = [(len(rows), j) for j, rows in enumerate(domains) if free[j]]
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
                        heapq.heappush(heap, (len(kept), j))
        return log

    def undo(log):
        """Undo a `push`, last in, first out: a binding closes with its opener."""
        for container, key, old in reversed(log):
            container[key] = old
            if container is domains:
                heapq.heappush(heap, (len(old), key))

    def branch():
        """The tuple index to branch on, or None at a dead end."""
        if len(heap) > 4 * len(domains):  # keep a long search's heap O(n)
            heap[:] = [(len(rows), j) for j, rows in enumerate(domains) if free[j]]
            heapq.heapify(heap)
        while True:
            size, i = heap[0]
            if free[i] and size == len(domains[i]):
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
    while len(stack) < depth:
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
            heapq.heappush(heap, (len(domains[i]), i))
        else:
            return None
        attempts += 1
        if attempts > budget:
            raise ValuationBudgetExceeded(budget)
        frame[2:] = row, push(row)
    return _world(table.schema, [frame[2] for frame in stack] + alone)


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
    return _first_disagreement(table.tuples, _binder(x_pos, y_pos, valuation_cap)(table.tuples), "answer-sets-differ")


def check_pfd(table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP) -> bool:
    """For any two tuples (identity included) and any shared lhs binding, the
    selected rhs answer sets must coincide.  Linear in total lhs bindings."""
    return find_pfd_violation(table, fd, valuation_cap) is None


# ---------------------------------------------------------------------------
# Vertical FDs
# ---------------------------------------------------------------------------


def _valuation_order(c1: tuple, c2: tuple) -> int:
    """Compare two vague tuples' valuation lists, their cells' sorted
    products, in O(cell sizes): < 0, 0 or > 0.  From the last cell on, s
    compares the lists over the cells so far: +-1 at a differing row, +-2
    when one is a proper prefix of the other (-2: the first one), which the
    next cell turns into a differing row unless the shorter list ends."""
    s = 0
    for x, y in zip(map(sorted, reversed(c1)), map(sorted, reversed(c2))):
        if s == 0 or x[0] != y[0]:
            s = 0 if x == y else -2 if y[:len(x)] == x else 2 if x[:len(y)] == y else -1 if x < y else 1
        elif s in (-2, 2) and len(x if s < 0 else y) > 1:
            s //= -2  # the shorter list goes on with a larger value
    return s


def find_vertical_violation(
    table: Table, fd: FunctionalDependency, valuation_cap: int = DEFAULT_VALUATION_CAP
) -> Optional[Violation]:
    """Three conditions over the disjunctive form, read off the table's own
    tuples: cross-tuple answer-set agreement; per tuple and lhs binding, Z =
    rhs-minus-lhs rows that are the product of their columns; and per tuple,
    the MVD lhs ->> Z (each binding's rows are the product of their Z and
    rest projections).  A vague or standard tuple's rows are the product of
    its cells, so there vertical is pfd: `_pfd_holds` decides a vague table,
    and only a violation sorts it into the disjunctive form's order (sorted
    valuations: `Table`'s order unless vague) and binds it again to report
    the first pair there.  Only reported tuples are converted.  Cost: linear
    in total lhs bindings, and in total valuations on disjunctive tables.
    `valuation_cap` bounds the lhs bindings per vague tuple and the valuations
    of each reported one; past it, ValuationBudgetExceeded is raised."""
    x_pos, y_pos = _fd_positions(table.schema, fd)
    tuples, vague = table.tuples, table.model is Model.VAGUE
    if vague:
        if _pfd_holds(tuples, [(x_pos, y_pos)], valuation_cap):
            return None
        by_valuations = functools.cmp_to_key(_valuation_order)  # after the least rows, which decide most pairs
        tuples = sorted(tuples, key=lambda t: (tuple(map(min, t.cells)), by_valuations(t.cells)))
    hit = _first_disagreement(tuples, _binder(x_pos, y_pos, valuation_cap)(tuples), "answer-sets-differ")
    if hit is not None:
        if vague:
            _require_within(hit.tuples, valuation_cap)
        return Violation(hit.reason, tuple(map(to_disjunctive_tuple, hit.tuples)), hit.binding)
    if table.model is not Model.DISJUNCTIVE:
        return None
    z_pos = table.schema.positions(fd.rhs - fd.lhs)
    zw_pos = z_pos + tuple(p for p in range(len(table.schema)) if p not in x_pos and p not in z_pos)
    nz = len(z_pos)
    for j, pairs in itertools.groupby(_binder(x_pos, zw_pos)(table.tuples), operator.itemgetter(0)):
        t = table.tuples[j]  # a product answer meets both conditions
        groups = [(b, {row[:nz] for row in rows}, rows) for _, b, rows in pairs if type(rows) is frozenset]
        for b, z, _ in groups:
            if type(_answer(z)) is frozenset:
                return Violation("not-a-product", (t,), b)
        if any(len(z) * len({row[nz:] for row in rows}) != len(rows) for _, z, rows in groups):
            return Violation("mvd-fails", (t,))
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
    denominator = min if variant == MAX_RESEMBLANCE else max  # max(a/x, a/y) is a/min(x, y), bit for bit
    least = 1.0
    for i in pos:
        inter = len(c1[i] & c2[i])
        if not inter:
            return 0.0
        least = min(least, inter / denominator(len(c1[i]), len(c2[i])))
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
    if t2.schema.attributes != t1.schema.attributes:
        raise SchemaError(f"tuple schema {t2.schema.attributes} differs from first tuple schema {t1.schema.attributes}")
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

    def to_dict(self, timing: bool = False) -> dict:
        out = {
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
        if timing:
            out["elapsed_ms"] = round(self.elapsed_s * 1000, 3)
        return out

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
    for fd in fds:  # an unknown attribute fails alike whatever the semantics, the cap and the FD order
        _fd_positions(table.schema, fd)
    start = time.perf_counter()
    report = CheckReport(table.model, semantics)
    for group in [fds] if semantics is Semantics.SEAMLESS else [(fd,) for fd in fds]:
        if semantics in (Semantics.WEAK, Semantics.SEAMLESS):
            witness = check_seamless(table, group, budget=valuation_cap)
            report.verdicts.append(FdVerdict(group, witness is not None, witness=witness))
        else:
            v = _FINDERS[semantics](table, *group, valuation_cap)
            report.verdicts.append(FdVerdict(group, v is None, violation=v))
    report.elapsed_s = time.perf_counter() - start
    return report
