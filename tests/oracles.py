"""Definitional checkers, kept as test oracles for the fast paths.

Each function follows its definition literally: every pair of tuples in
canonical order, identity pairs included, and every shared lhs binding; or,
for strong and weak, every possible world.  The library's pairwise finders
must return the same `Violation` (reason, pair, binding, note) while doing
linear or hoisted work; strong and weak must return the same verdicts.  The
closure oracles repeat full passes over the FD list, and the proof checker
rebuilds each rule's conclusion and compares it whole.  The valuation's
precondition is tested FD by FD, and the one-sweep valuation shows why
picking a value per ambiguous cell must drag along every tuple linked to
it, not only those one sweep meets.  rm's
resemblance takes both overlap ratios of each pair of cells.  The row-set
index keeps every answer set whole, for any mix of tuple models.
"""

import itertools
import random

from fdlab import (
    DisjunctiveTuple, FunctionalDependency, Model, ModelError, PfdPreconditionError, StandardTuple, Table, VagueTuple,
    ValuationBudgetExceeded, check_pfd,
)
from fdlab.armstrong import (
    _RULES, AUGMENTATION, GIVEN, REFLEXIVITY, TRANSITIVITY, Derivation, DerivationStep,
)
from fdlab.model import to_disjunctive
from fdlab.semantics import DEFAULT_VALUATION_CAP, MAX_RESEMBLANCE, Violation
from fdlab.valuation import DEFAULT_SEED


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


def answer_rows(answer) -> frozenset:
    """The rows a binding pass's answer stands for: a frozenset is its rows,
    a tuple of value sets their product, a tuple of values one row."""
    if isinstance(answer, frozenset):
        return answer
    if answer and isinstance(answer[0], frozenset):
        return frozenset(itertools.product(*answer))
    return frozenset((answer,))


def canonical_answer(rows) -> object:
    """The one form the binding pass must give a non-empty row set: its one row;
    the tuple of its column sets when it is their product; else the rows."""
    rows = frozenset(rows)
    if len(rows) == 1:
        return next(iter(rows))
    columns = tuple(frozenset(row[i] for row in rows) for i in range(len(next(iter(rows)))))
    return columns if frozenset(itertools.product(*columns)) == rows else rows


class RowSetIndex:
    """`PfdIndex` by its definition: binding -> [row set, support count],
    each answer t[X=b][Y] built whole by `answer_set`, whatever the tuple's
    model.  `check` gives the first conflict as (binding, stored, offered)."""

    def __init__(self, fd, schema):
        self.x_attrs = tuple(schema.restrict(fd.lhs).attributes)
        self.y_attrs = tuple(schema.restrict(fd.rhs).attributes)
        self.table = {}

    def contributions(self, t):
        return [(b, answer_set(t, self.x_attrs, b, self.y_attrs)) for b in sorted(bindings(t, self.x_attrs))]

    def check(self, t):
        for b, answers in self.contributions(t):
            if b in self.table and self.table[b][0] != answers:
                return b, self.table[b][0], answers
        return None

    def insert(self, t):
        assert self.check(t) is None
        for b, answers in self.contributions(t):
            self.table.setdefault(b, [answers, 0])[1] += 1

    def remove(self, t):
        for b, _ in self.contributions(t):
            self.table[b][1] -= 1
            if not self.table[b][1]:
                del self.table[b]

    def entries(self) -> dict:
        return {b: tuple(entry) for b, entry in self.table.items()}


def resemblance(a, b, variant=MAX_RESEMBLANCE) -> float:
    """|a & b| / |a| and |a & b| / |b|: the larger for the max variant, the smaller for min."""
    ratios = len(a & b) / len(a), len(a & b) / len(b)
    return max(ratios) if variant == MAX_RESEMBLANCE else min(ratios)


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


def _mvd_holds(rows, x_pos, z_pos) -> bool:
    """X ->> Z over a small relation given as a set of value rows."""
    rows = set(rows)
    for u in rows:
        for v in rows:
            if tuple(u[i] for i in x_pos) != tuple(v[i] for i in x_pos):
                continue
            swap = list(v)
            for i in z_pos:
                swap[i] = u[i]
            if tuple(swap) not in rows:
                return False
    return True


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


def _world_rows_violate(rows, x_pos, y_pos):
    """First (u1, u2) in row order with equal X but different Y, else None."""
    seen = {}
    for row in rows:
        key = tuple(row[i] for i in x_pos)
        val = tuple(row[i] for i in y_pos)
        if key in seen:
            if seen[key][0] != val:
                return seen[key][1], row
        else:
            seen[key] = (val, row)
    return None


def _capped_worlds(table, cap):
    """Valuation worlds in deterministic order; raises once `cap` valuations
    have been consumed without the caller settling on an answer."""
    if any(t.valuation_count() > cap for t in table.tuples):
        raise ValuationBudgetExceeded(cap)
    choices = [[t.values] if isinstance(t, StandardTuple) else list(t.valuations()) for t in table.tuples]
    for count, combo in enumerate(itertools.product(*choices), start=1):
        if count > cap:
            raise ValuationBudgetExceeded(cap)
        yield Table.standard(table.schema, combo)


def find_strong_violation(table, fd, valuation_cap=DEFAULT_VALUATION_CAP):
    """First violating world (in valuation order) with its offending row pair."""
    x_pos, y_pos = table.schema.positions(fd.lhs), table.schema.positions(fd.rhs)
    for world in _capped_worlds(table, valuation_cap):
        hit = _world_rows_violate((t.values for t in world.tuples), x_pos, y_pos)
        if hit is not None:
            u1, u2 = (StandardTuple(table.schema, r) for r in hit)
            return Violation(
                "world-pair-disagrees",
                (u1, u2),
                tuple(u1.values[p] for p in x_pos),
                note="in world: " + "; ".join(t.render() for t in world.tuples),
            )
    return None


def find_least_strong_violation(table, fd):
    """The least (t1, t2, binding), t1 before t2, under which some world gives
    the two tuples different Y rows: both hold the binding, and their answer
    sets are not one and the same single row.  The witness is the least such
    pair of valuations, read from all valuations: t1's least row under the
    binding, then t2's least with another Y; when t2 has none, t2's least row
    and then t1's least with another Y."""
    x_attrs = tuple(table.schema.restrict(fd.lhs).attributes)
    y_attrs = tuple(table.schema.restrict(fd.rhs).attributes)
    x_pos, y_pos = table.schema.positions(fd.lhs), table.schema.positions(fd.rhs)

    def on(row, pos):
        return tuple(row[p] for p in pos)

    def least(t, b, avoid=None):
        return min((row for row in t.valuations() if on(row, x_pos) == b and on(row, y_pos) != avoid), default=None)

    binds = [bindings(t, x_attrs) for t in table.tuples]
    for i, t1 in enumerate(table.tuples):
        for j in range(i + 1, len(table.tuples)):
            t2 = table.tuples[j]
            for b in sorted(binds[i] & binds[j]):
                a1 = answer_set(t1, x_attrs, b, y_attrs)
                if len(a1) == 1 and a1 == answer_set(t2, x_attrs, b, y_attrs):
                    continue
                u1 = least(t1, b)
                u2 = least(t2, b, on(u1, y_pos))
                if u2 is None:
                    u2 = least(t2, b)
                    u1 = least(t1, b, on(u2, y_pos))
                return Violation("world-pair-disagrees", (StandardTuple(table.schema, u1), StandardTuple(table.schema, u2)), b)
    return None


def check_weak(table, fd, valuation_cap=DEFAULT_VALUATION_CAP) -> bool:
    """True iff some possible world satisfies the FD standardly."""
    x_pos, y_pos = table.schema.positions(fd.lhs), table.schema.positions(fd.rhs)
    for world in _capped_worlds(table, valuation_cap):
        if _world_rows_violate((t.values for t in world.tuples), x_pos, y_pos) is None:
            return True
    return False


def satisfiable(n, clauses) -> bool:
    """Brute-force SAT over n variables: some of the 2^n assignments meets
    every clause, given as (variables, positive) with the literals all of
    one sign."""
    return any(
        all(any(assignment[v] == positive for v in vs) for vs, positive in clauses)
        for assignment in itertools.product((False, True), repeat=n)
    )


def seamless_world(table, fds):
    """Fail-first backtracking without pruning: at every node, the lowest
    tuple with the fewest valuations compatible with the rows chosen so far
    (stopping at the first with one, failing at the first with none), its
    rows tried in valuation order.  The library's search must return the
    same world."""
    positions = [(table.schema.positions(f.lhs), table.schema.positions(f.rhs)) for f in fds]
    choices = [[t.values] if isinstance(t, StandardTuple) else list(t.valuations()) for t in table.tuples]
    chosen = []

    def compatible(row):
        return all(
            tuple(row[i] for i in x_pos) != tuple(c[i] for i in x_pos)
            or tuple(row[i] for i in y_pos) == tuple(c[i] for i in y_pos)
            for c in chosen
            for x_pos, y_pos in positions
        )

    def search(unassigned):
        if not unassigned:
            return True
        best = None
        for i in unassigned:
            rows = [r for r in choices[i] if compatible(r)]
            if not rows:
                return False
            if best is None or len(rows) < len(best[1]):
                best = i, rows
                if len(rows) == 1:
                    break
        rest = [i for i in unassigned if i != best[0]]
        for row in best[1]:
            chosen.append(row)
            if search(rest):
                return True
            chosen.pop()
        return False

    return Table.standard(table.schema, chosen) if search(list(range(len(choices)))) else None


def _sorted_fds(fds) -> list:
    """The distinct FDs, least first by (sorted lhs, sorted rhs)."""
    return sorted(set(fds), key=lambda f: (tuple(sorted(f.lhs)), tuple(sorted(f.rhs))))


def attribute_closure(fds, attrs) -> frozenset:
    """Full passes over the FD list until one adds nothing."""
    closure = set(attrs)
    ordered = _sorted_fds(fds)
    changed = True
    while changed:
        changed = False
        for f in ordered:
            if f.lhs <= closure and not f.rhs <= closure:
                closure |= f.rhs
                changed = True
    return frozenset(closure)


def firings(fds, fd):
    """The restart-from-the-top firing order: after every firing, the least
    FD whose lhs is covered and whose rhs is not fires next, until the target
    rhs is covered; None if it never is."""
    closure = frozenset(fd.lhs)
    ordered = _sorted_fds(fds)
    fired = []
    while not fd.rhs <= closure:
        f = next((f for f in ordered if f.lhs <= closure and not f.rhs <= closure), None)
        if f is None:
            return None
        fired.append(f)
        closure |= f.rhs
    return fired


def derive(fds, fd):
    """The proof `derive` must return.  Its support is a fixpoint: each
    needed use of an attribute outside X (in Y, or in the lhs of a cited FD)
    cites the last firing before that use whose rhs holds the attribute.
    Each cited lhs attribute is carried until the last cited FD whose lhs
    holds it, which a scan of the later cited FDs finds; Y's, to the end."""
    fired = firings(fds, fd)
    if fired is None:
        return None
    uses = [(len(fired), a) for a in fd.rhs - fd.lhs]
    support = set()
    while True:
        cited = {max(i for i in range(at) if a in fired[i].rhs) for at, a in uses}
        if cited == support:
            break
        support = cited
        uses = [(at, a) for at, a in uses if at == len(fired)]
        uses += [(i, a) for i in support for a in fired[i].lhs - fd.lhs]
    cited = [fired[i] for i in sorted(support)]
    if not cited:
        return Derivation(fd, (DerivationStep(REFLEXIVITY, fd),))
    k = len(cited)
    # Steps 0..k-1 cite the FDs, k is C_k -> Y, k+1..2k augment C_i-1 -> C_i.
    steps = [DerivationStep(GIVEN, f) for f in cited]
    carried, augmentations = frozenset(fd.lhs), []
    for i, f in enumerate(cited):
        later = set().union(*(g.lhs for g in cited[i + 1:]))
        z = frozenset(a for a in carried if a not in f.lhs or a in later or a in fd.rhs)
        augmentations.append(DerivationStep(AUGMENTATION, FunctionalDependency(carried, f.rhs | z), (i,), z))
        carried = f.rhs | z
    steps.append(DerivationStep(REFLEXIVITY, FunctionalDependency(carried, fd.rhs)))
    steps += augmentations
    chain = k + 1
    for aug in range(k + 2, 2 * k + 1):
        steps.append(DerivationStep(
            TRANSITIVITY, FunctionalDependency(fd.lhs, steps[aug].conclusion.rhs), (chain, aug)
        ))
        chain = len(steps) - 1
    steps.append(DerivationStep(TRANSITIVITY, FunctionalDependency(fd.lhs, fd.rhs), (chain, k)))
    return Derivation(fd, tuple(steps))


def check_derivation(fds, derivation) -> bool:
    """Replay each step by building the conclusion its rule gives and
    comparing it with the step's own (an FD of another class never equals
    it); `check_derivation` must give the same verdict, or raise the same
    exception type, without building them."""
    base = set(fds)
    seen = []
    for step in derivation.steps:
        if step.rule not in _RULES:
            raise ValueError(f"unknown rule {step.rule!r}")
        if any(not isinstance(p, int) or p < 0 or p >= len(seen) for p in step.premises):
            return False
        if step.rule == GIVEN:
            if step.premises or step.conclusion not in base:
                return False
        elif step.rule == REFLEXIVITY:
            if step.premises or not step.conclusion.rhs <= step.conclusion.lhs:
                return False
        elif step.rule == AUGMENTATION:
            if len(step.premises) != 1:
                return False
            p = seen[step.premises[0]]
            want = FunctionalDependency(p.lhs | step.augment_with, p.rhs | step.augment_with)
            if step.conclusion != want:
                return False
        else:  # transitivity
            if len(step.premises) != 2:
                return False
            p1, p2 = (seen[i] for i in step.premises)
            if p1.rhs != p2.lhs:
                return False
            if step.conclusion != FunctionalDependency(p1.lhs, p2.rhs):
                return False
        seen.append(step.conclusion)
    return bool(seen) and seen[-1] == derivation.conclusion


def one_pass_valuation_rows(table, fds, seed=DEFAULT_SEED):
    """A valuation that picks a value per ambiguous cell and spreads it with
    one sweep over the tuples, in place of every tuple linked to the cell's:
    a tuple linked to the group only through a later tuple is missed, so a
    later pick can overwrite an earlier one."""
    schema = table.schema
    rng = random.Random(seed)
    cells = [[set(c) for c in t.cells] for t in table.tuples]
    for a_pos, attr in enumerate(schema):
        determining = list(dict.fromkeys(schema.positions(f.lhs) for f in fds if attr in f.rhs - f.lhs))
        for i in range(len(cells)):
            if len(cells[i][a_pos]) <= 1:
                continue
            choice = rng.choice(sorted(cells[i][a_pos]))
            group = {i}
            for j in range(len(cells)):
                if any(all(cells[j][p] & cells[k][p] for p in pos) for pos in determining for k in group):
                    group.add(j)
            for j in group:
                cells[j][a_pos] = {choice}
    return [tuple(next(iter(c)) for c in row) for row in cells]


def valuation_precondition(table, fds):
    """The valuation's precondition, FD by FD: ModelError on a disjunctive
    table, an unknown attribute before any pfd test, then
    PfdPreconditionError naming the first FD that fails as a pfd."""
    if table.model is Model.DISJUNCTIVE:
        raise ModelError("the valuation algorithm is defined for vague tables")
    for f in fds:  # an unknown attribute fails before any pfd test
        table.schema.positions(f.lhs), table.schema.positions(f.rhs)
    for f in fds:
        if not check_pfd(table, f):
            raise PfdPreconditionError(f)
