"""Definitional (pairwise) checkers, kept as test oracles for the fast paths.

Each function follows its definition literally: every pair of tuples in
canonical order, identity pairs included, and every shared lhs binding.  The
library's finders must return the same `Violation` (reason, pair, binding,
note) while doing linear or hoisted work.
"""

import itertools

from fdlab import DisjunctiveTuple, Model, ModelError, StandardTuple, VagueTuple, resemblance
from fdlab.model import to_disjunctive
from fdlab.semantics import MAX_RESEMBLANCE, Violation, _mvd_holds


def _cell(t, i):
    return t.cells[i] if isinstance(t, VagueTuple) else frozenset((t.values[i],))


def bindings(t, attrs) -> frozenset:
    """t[X] as the set of standard value rows its valuations take on X."""
    pos = t.schema.positions(attrs)
    if isinstance(t, StandardTuple):
        return frozenset((tuple(t.values[i] for i in pos),))
    if isinstance(t, VagueTuple):
        return frozenset(itertools.product(*(sorted(t.cells[i]) for i in pos)))
    return frozenset(tuple(row[i] for i in pos) for row in t.disjuncts)


def answer_set(t, x_attrs, binding, y_attrs) -> frozenset:
    """t[X=binding][Y]: selected valuations of t, projected on Y."""
    x_pos = t.schema.positions(x_attrs)
    y_pos = t.schema.positions(y_attrs)
    if isinstance(t, DisjunctiveTuple):
        return frozenset(
            tuple(row[i] for i in y_pos)
            for row in t.disjuncts
            if tuple(row[i] for i in x_pos) == binding
        )
    bound = dict(zip(x_pos, binding))
    if any(bound[i] not in _cell(t, i) for i in x_pos):
        return frozenset()
    factors = [(bound[i],) if i in bound else sorted(_cell(t, i)) for i in y_pos]
    return frozenset(itertools.product(*factors))


def tuple_resemblance(t1, t2, attrs, variant=MAX_RESEMBLANCE) -> float:
    """Minimum per-attribute resemblance over `attrs` (1.0 for no attributes)."""
    pos = t1.schema.positions(attrs)
    return min((resemblance(_cell(t1, i), _cell(t2, i), variant) for i in pos), default=1.0)


def find_standard_violation(table, fd):
    if table.model is not Model.STANDARD:
        raise ModelError("standard satisfaction is defined over standard tables only")
    x_pos, y_pos = table.schema.positions(fd.lhs), table.schema.positions(fd.rhs)
    for i, t1 in enumerate(table.tuples):
        for t2 in table.tuples[i:]:
            k1 = tuple(t1.values[p] for p in x_pos)
            if k1 == tuple(t2.values[p] for p in x_pos):
                if tuple(t1.values[p] for p in y_pos) != tuple(t2.values[p] for p in y_pos):
                    return Violation("pair-disagrees", (t1, t2), k1)
    return None


def find_pfd_violation(table, fd):
    """First (t1, t2, binding) in canonical order breaking answer-set equality."""
    x_attrs = tuple(table.schema.restrict(fd.lhs).attributes)
    y_attrs = tuple(table.schema.restrict(fd.rhs).attributes)
    binds = [bindings(t, x_attrs) for t in table.tuples]
    for i, t1 in enumerate(table.tuples):
        for j in range(i, len(table.tuples)):
            t2 = table.tuples[j]
            for b in sorted(binds[i] & binds[j]):
                a1 = answer_set(t1, x_attrs, b, y_attrs)
                a2 = answer_set(t2, x_attrs, b, y_attrs)
                if a1 != a2:
                    return Violation("answer-sets-differ", (t1, t2), b)
    return None


def find_vertical_violation(table, fd):
    """Pairwise agreement, then per-binding product form, then the per-tuple MVD."""
    dt = to_disjunctive(table)
    x_attrs = tuple(dt.schema.restrict(fd.lhs).attributes)
    x_pos = dt.schema.positions(fd.lhs)
    rest_pos = dt.schema.positions(sorted(fd.rhs - fd.lhs))
    agreement = find_pfd_violation(dt, fd)
    if agreement is not None:
        return agreement
    for t in dt.tuples:
        for b in sorted(bindings(t, x_attrs)):
            selected = [row for row in sorted(t.disjuncts) if tuple(row[i] for i in x_pos) == b]
            projected = {tuple(row[i] for i in rest_pos) for row in selected}
            size = 1
            for i in rest_pos:
                size *= len({row[i] for row in selected})
            if size != len(projected):
                return Violation("not-a-product", (t,), b)
        if not _mvd_holds(t.disjuncts, x_pos, rest_pos):
            return Violation("mvd-fails", (t,))
    return None


def find_rm_violation(table, fd, variant=MAX_RESEMBLANCE):
    if table.model is Model.DISJUNCTIVE:
        raise ModelError("rm satisfaction is defined over vague tables only")
    for i, t1 in enumerate(table.tuples):
        for t2 in table.tuples[i:]:
            mx = tuple_resemblance(t1, t2, fd.lhs, variant)
            my = tuple_resemblance(t1, t2, fd.rhs, variant)
            if my < mx:
                return Violation("resemblance-drops", (t1, t2), note=f"lhs={mx:.6g} rhs={my:.6g}")
    return None


def check_pfd_decomposed(table, fd) -> bool:
    """Vague-table criterion: split the rhs into single attributes outside the
    lhs and require cell equality whenever the lhs cells can all agree.

    Equivalent to pfd satisfaction on vague tables; not valid for disjunctive
    ones.
    """
    if table.model is Model.DISJUNCTIVE:
        raise ModelError("the decomposed check is sound for vague tables only")
    x_pos = table.schema.positions(fd.lhs)
    rest_pos = table.schema.positions(sorted(fd.rhs - fd.lhs))
    for i, t1 in enumerate(table.tuples):
        for t2 in table.tuples[i + 1 :]:
            if all(_cell(t1, p) & _cell(t2, p) for p in x_pos):
                if any(_cell(t1, p) != _cell(t2, p) for p in rest_pos):
                    return False
    return True
