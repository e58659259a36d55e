"""The hash-linear finders agree with their pairwise definitions, strong
and weak agree with their possible-world definitions, the forward-checked
seamless search returns the plain search's world (and the worlds and step
counts pinned from the full-scan search), the valuation meets its FD-by-FD
precondition or returns a world, and the linear closure gives the
pass loop's closures and the restart-from-the-top derivations."""

import collections
import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from fdlab import (
    Derivation, FunctionalDependency, PfdIndex, StandardTuple, Table, ValuationBudgetExceeded, attribute_closure,
    check_derivation, check_pfd, check_seamless, check_standard, check_weak, derive, generate_3dm_reduction, implies,
    parse_fds, parse_table, resemblance, seamless_valuation_rows, select,
)
from fdlab.armstrong import AUGMENTATION
from fdlab.semantics import (
    DEFAULT_VALUATION_CAP,
    _binder,
    _cover,
    _fd_positions,
    _pfd_holds,
    find_strong_violation,
    find_pfd_violation,
    find_rm_violation,
    find_standard_violation,
    find_vertical_violation,
)

import oracles as O
import tables as T
from gen import (
    SMALL_ATTRS, VALUES, monotone_3sat_table, rand_3dm_instance, rand_cell, rand_disjunctive_table, rand_fd,
    rand_fd_set, rand_standard_table, rand_vague_table, small_disjunctive_tables, unique_lhs_vague_table, wide_fd_set,
)

GENERATORS = (rand_standard_table, rand_vague_table, rand_disjunctive_table)


def random_cases(seed, count=600, max_tuples=7):
    rng = random.Random(seed)
    for k in range(count):
        table = GENERATORS[k % 3](rng, max_attrs=4, max_tuples=max_tuples)
        yield table, rand_fd(rng, table.schema.attributes)


def test_finders_return_the_oracles_violations():
    violated = 0
    for table, f in random_cases(11):
        want = O.find_pfd_violation(table, f)
        violated += want is not None
        assert find_pfd_violation(table, f) == want
        assert find_vertical_violation(table, f) == O.find_vertical_violation(table, f)
        if table.model.value == "standard":
            assert find_standard_violation(table, f) == O.find_standard_violation(table, f)
        if table.model.value != "disjunctive":
            for variant in ("max", "min"):
                assert find_rm_violation(table, f, variant) == O.find_rm_violation(table, f, variant)
    assert violated > 100  # enough violations that witnesses, not only verdicts, get compared


def test_vertical_per_tuple_conditions_return_the_oracles_violations():
    # random_cases almost never breaks a per-tuple condition; two tuples with
    # up to six disjuncts break both.
    rng = random.Random(13)
    reasons = []
    for _ in range(400):
        table = rand_disjunctive_table(rng, max_attrs=4, max_tuples=2, max_disjuncts=6)
        f = rand_fd(rng, table.schema.attributes)
        want = O.find_vertical_violation(table, f)
        assert find_vertical_violation(table, f) == want
        reasons.append(want and want.reason)
    assert reasons.count("not-a-product") > 5 and reasons.count("mvd-fails") > 10


DATA = Path(__file__).parent / "data"
POOL = tuple(f"p{i}" for i in range(10))


def _blocked_rm_cases(rng, count):
    """Vague and standard tables of 20-60 tuples over 2-5 attributes, values
    from a pool of 10, and FDs with 0-3 lhs attributes, so that most pairs
    share no lhs value and blocking has pairs to skip.  Each rhs cell copies
    the tuple's first lhs cell (a fixed cell for an empty lhs), which keeps
    the FD; one tuple in 40 draws its rhs at random instead.  Every other
    table also gains a copy of its last tuple in canonical order with a fresh
    rhs value, which plants a violation at the end of the canonical order."""
    for k in range(count):
        attrs = [f"A{i}" for i in range(rng.randint(2, 5))]
        lhs = rng.sample(attrs, rng.randint(0, min(3, len(attrs) - 1)))
        rest = [a for a in attrs if a not in lhs]
        rhs = rng.sample(rest, rng.randint(1, min(2, len(rest))))
        vague = k % 2 == 0

        def cell():
            return frozenset(rng.sample(POOL, rng.choice((1, 1, 2, 3)))) if vague else rng.choice(POOL)

        fixed = cell()
        rows = []
        for _ in range(rng.randint(20, 60)):
            row = {a: cell() for a in attrs}
            if rng.random() > 1 / 40:
                row.update((a, row[lhs[0]] if lhs else fixed) for a in rhs)
            rows.append([row[a] for a in attrs])
        table = Table.vague(attrs, rows) if vague else Table.standard(attrs, rows)
        if k % 4 < 2:
            last = table.tuples[-1]
            cells = list(last.cells if vague else last.values)
            for a in rhs:
                cells[attrs.index(a)] = "q9"
            table = Table.vague(attrs, [*rows, cells]) if vague else Table.standard(attrs, [*rows, cells])
        yield table, FunctionalDependency(lhs, rhs)


def _data_rm_cases():
    """Every vague table under tests/data with every dependency file over its schema."""
    fd_sets = [parse_fds(p.read_text()) for p in sorted(DATA.glob("*.fds"))]
    for path in sorted(DATA.glob("*.vtab")):
        table = parse_table(path.read_text())
        for fds in fd_sets:
            yield from ((table, f) for f in fds if f.attributes() <= set(table.schema.attributes))


def test_resemblance_is_the_definitions_to_the_bit():
    cells = [frozenset(c) for k in range(1, 6) for c in itertools.combinations("abcde", k)]
    for a, b, variant in itertools.product(cells, cells, ("max", "min")):
        assert resemblance(a, b, variant) == O.resemblance(a, b, variant), (a, b, variant)


def test_blocked_rm_returns_the_oracles_violation():
    data = list(_data_rm_cases())
    violated = 0
    for table, f in [*data, *_blocked_rm_cases(random.Random(16), 200)]:
        for variant in ("max", "min"):
            want = O.find_rm_violation(table, f, variant)
            violated += want is not None
            assert find_rm_violation(table, f, variant) == want
    assert len(data) > 40 and violated > 100


def _valuations(t) -> set:
    return {t.values} if isinstance(t, StandardTuple) else set(t.valuations())


def test_strong_and_weak_return_the_world_oracles_verdicts():
    violated = weak_fails = 0
    for table, f in random_cases(13, max_tuples=5):
        v = find_strong_violation(table, f)
        assert (v is None) == (O.find_strong_violation(table, f) is None)
        assert check_weak(table, f) == O.check_weak(table, f)
        weak_fails += not O.check_weak(table, f)
        if v is None:
            continue
        violated += 1
        # Two valuations of distinct input tuples, equal to the binding on X, different on Y.
        x_pos, y_pos = _fd_positions(table.schema, f)
        u1, u2 = (u.values for u in v.tuples)
        holders = [[t for t in table.tuples if u in _valuations(t)] for u in (u1, u2)]
        assert any(t1 != t2 for t1 in holders[0] for t2 in holders[1])
        assert tuple(u1[i] for i in x_pos) == v.binding == tuple(u2[i] for i in x_pos)
        assert tuple(u1[i] for i in y_pos) != tuple(u2[i] for i in y_pos)
    assert violated > 100 and weak_fails > 20


def test_every_small_disjunctive_table_follows_the_definitions():
    # The whole scope, not a sample: every disjunctive table over A, B, C with
    # values {0, 1}, one or two tuples and one or two disjuncts each, one per
    # renaming of values, with every FD X -> Y (Y non-empty).
    subsets = [s for k in range(len(SMALL_ATTRS) + 1) for s in itertools.combinations(SMALL_ATTRS, k)]
    fds = [FunctionalDependency(x, y) for x in subsets for y in subsets if y]
    tables = small_disjunctive_tables()
    assert (len(tables), len(fds)) == (106, 56)
    fails = collections.Counter()
    for table in tables:
        for f in fds:
            pfd, vertical = O.find_pfd_violation(table, f), O.find_vertical_violation(table, f)
            assert (find_pfd_violation(table, f), find_vertical_violation(table, f)) == (pfd, vertical)
            strong, weak = O.find_strong_violation(table, f) is None, O.check_weak(table, f)
            assert (find_strong_violation(table, f) is None, check_weak(table, f)) == (strong, weak)
            fails.update(name for name, v in (("pfd", pfd), ("vertical", vertical)) if v is not None)
            fails.update(name for name, holds in (("strong", strong), ("weak", weak)) if not holds)
    assert min(fails[name] for name in ("pfd", "vertical", "strong", "weak")) > 50, fails


def test_weak_on_one_fd_decides_monotone_3sat():
    # Weak is NP-complete already for one FD: A -> B holds weakly on the
    # table of a monotone 3-SAT formula iff the formula is satisfiable.
    rng = random.Random(21)
    answers = collections.Counter()
    for _ in range(300):
        n = rng.randint(3, 8)
        table, clauses = monotone_3sat_table(rng, n, rng.randint(n, 14 * n))
        want = O.satisfiable(n, clauses)
        assert check_weak(table, T.AB) == want
        answers[want] += 1
    assert answers[True] > 100 and answers[False] > 20


def test_strong_witness_is_the_least_pair_of_valuations():
    violated = free = 0
    for table, f in random_cases(13, max_tuples=5):
        want = O.find_least_strong_violation(table, f)
        assert find_strong_violation(table, f) == want
        violated += want is not None
        # Count witnesses over vague tables with a choice outside X and Y,
        # where the least pair must take each such cell's least value.
        rest = table.schema.positions(set(table.schema.attributes) - f.lhs - f.rhs)
        free += want is not None and table.model.value == "vague" and any(
            len(t.cells[p]) > 1 for t in table.tuples for p in rest
        )
    assert violated > 100 and free > 20


def test_seamless_returns_the_plain_searchs_world():
    rng = random.Random(14)
    found = 0
    for k in range(600):
        table = GENERATORS[k % 3](rng, max_attrs=4, max_tuples=6)
        fds = rand_fd_set(rng, table.schema.attributes, max_fds=4)
        world = check_seamless(table, fds)
        assert world == O.seamless_world(table, fds)
        found += world is not None
    for _ in range(60):
        table = rand_vague_table(rng, max_attrs=4, max_tuples=12)
        fds = rand_fd_set(rng, table.schema.attributes, max_fds=4)
        world = check_seamless(table, fds)
        assert world == O.seamless_world(table, fds)
        found += world is not None
    for n in (2, 3, 3, 4, 4):
        for _ in range(8):
            out = generate_3dm_reduction(rand_3dm_instance(rng, n))
            world = check_seamless(out.table, out.fds)
            assert world == O.seamless_world(out.table, out.fds)
            found += world is not None
    assert 220 < found < 680


def _least_budget(table, fds):
    """The least budget under which `check_seamless` does not raise: the
    search's step count, or the largest tuple's valuation count if that is
    higher.  Doubling, then bisection."""
    def raises(budget):
        try:
            check_seamless(table, fds, budget)
        except ValuationBudgetExceeded:
            return True
        return False

    hi = 1
    while raises(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if raises(mid) else (lo, mid)
    return hi


# Computed with the search that read every unassigned domain at every node.
# (n, least budget, world) of 3DM reductions, seed 11.  In all cases but the
# fourth (n = 3, budget 10 against a floor of 9) the search takes fewer steps
# than the largest tuple has valuations, so the budget is that floor and the
# world carries the pin; the fourth also counts the search's steps.
PINNED_3DM = [
    (2, 16, 'x0,y1,z1,t2; x1,y0,z0,t3'),
    (2, 8, 'x0,y1,z1,t3; x1,y0,z0,t2'),
    (2, 16, 'x0,y1,z0,t1; x1,y0,z1,t5'),
    (3, 10, 'x0,y1,z2,t1; x1,y0,z1,t3; x2,y2,z0,t2'),
    (3, 36, 'x0,y2,z2,t7; x1,y0,z1,t4; x2,y1,z0,t6'),
    (3, 36, None),
    (3, 27, None),
    (4, 64, None),
    (4, 32, None),
    (4, 64, None),
    (4, 32, None),
    (4, 64, None),
    (5, 125, None),
    (5, 100, 'x0,y2,z4,t6; x1,y1,z1,t3; x2,y0,z3,t9; x3,y3,z0,t5; x4,y4,z2,t1'),
    (5, 100, None),
    (5, 125, None),
    (5, 75, None),
    (6, 180, None),
    (6, 108, None),
    (6, 108, None),
]
# Least budgets of seeded vague and disjunctive tables, seed 21; most lie
# above the valuation floor, so they count the search's steps.  In cases 0,
# 10, 12, 14, 18, 22, 24, 30, 34 and 38, vague tables whose FDs all hold as
# pfds (each is trivial, or there is none), the pfd test answers without the
# search: the least budget is the most bindings of a lhs its cover reads,
# and 1 where it reads none.  In cases 1 and 23 the search reads the cover,
# which leaves out ` -> `: case 1 searches `A1 -> A0` alone, and case 23,
# whose cover is empty, searches no tuple.
PINNED_BUDGETS = [1, 3, 4, 4, 6, 2, 3, 3, 3, 2, 1, 3, 1, 2, 1, 3, 4, 1, 1, 3, 18, 3, 1, 3, 1, 3, 18, 3, 6, 3, 1, 2, 6, 3, 1, 3, 3, 2, 1, 3]
# The same budgets when the search read every FD as given.  Each stays an upper bound.
BUDGETS_EACH_FD_SEARCHED = [1, 4, 4, 4, 6, 2, 3, 3, 3, 2, 1, 3, 1, 2, 1, 3, 4, 1, 1, 3, 18, 3, 1, 4, 1, 3, 18, 3, 6, 3, 1, 2, 6, 3, 1, 3, 3, 2, 1, 3]
# The same budgets when the pfd test read every FD's lhs bindings.  Each stays an upper bound.
BUDGETS_EACH_LHS_READ = [6, 4, 4, 4, 6, 2, 3, 3, 3, 2, 1, 3, 3, 2, 1, 3, 4, 1, 3, 3, 18, 3, 1, 4, 3, 3, 18, 3, 6, 3, 1, 2, 6, 3, 1, 3, 3, 2, 3, 3]
# The same budgets when every table was searched.  Each stays an upper bound.
BUDGETS_ALL_SEARCHED = [7, 4, 4, 4, 6, 2, 3, 3, 3, 2, 9, 3, 6, 2, 24, 3, 4, 1, 9, 3, 18, 3, 6, 4, 6, 3, 18, 3, 6, 3, 4, 2, 6, 3, 4, 3, 3, 2, 4, 3]
# The same budgets under a search that charged each free-standing tuple a
# step and let an empty domain wait behind single-row tuples.  The step count
# can only fall, so each stays an upper bound.
BUDGETS_WITH_FREE_STANDING_CHARGED = [
    7, 4, 4, 4, 6, 2, 3, 3, 3, 6, 9, 3, 6, 3, 24, 4, 4, 1, 9, 3, 18, 3, 6, 4, 6, 3, 18, 6, 6, 5, 4, 3, 6, 3, 4, 5, 3, 2, 4, 3,
]


def test_search_worlds_and_steps_are_pinned():
    rng = random.Random(11)
    above_floor = []
    for k, (n, budget, world) in enumerate(PINNED_3DM):
        out = generate_3dm_reduction(rand_3dm_instance(rng, n))
        found = check_seamless(out.table, out.fds)
        assert (None if found is None else "; ".join(t.render() for t in found.tuples)) == world
        assert _least_budget(out.table, out.fds) == budget
        floor = max(t.valuation_count() for t in out.table.tuples)
        if budget != floor:
            above_floor.append((k, budget, floor))
    assert above_floor == [(3, 10, 9)]
    rng = random.Random(21)
    budgets = []
    for k in range(40):
        table = GENERATORS[1 + k % 2](rng, max_attrs=4, max_tuples=10)
        budgets.append(_least_budget(table, rand_fd_set(rng, table.schema.attributes, max_fds=4)))
    for bounds in (BUDGETS_WITH_FREE_STANDING_CHARGED, BUDGETS_ALL_SEARCHED, BUDGETS_EACH_LHS_READ,
                   BUDGETS_EACH_FD_SEARCHED):
        assert all(b <= old for b, old in zip(budgets, bounds))
    assert budgets == PINNED_BUDGETS


def test_pfd_holding_tables_take_the_least_world_at_any_budget():
    # On a vague or standard table where every FD holds as a pfd, the world
    # of least valuations satisfies the set: the search would never
    # backtrack and would end there.  It is returned without the search, so
    # the budget bounds only the lhs bindings the pfd test reads, and a
    # tuple with more valuations than the budget no longer raises.  The test
    # reads a lhs only when some FD on it has an rhs attribute outside it and
    # outside the rhs of the FDs whose lhs lies strictly inside it.
    rng = random.Random(26)
    answered = 0
    for k in range(400):
        table = GENERATORS[k % 2](rng, max_attrs=4, max_tuples=10)
        fds = [f for f in rand_fd_set(rng, table.schema.attributes, max_fds=4) if check_pfd(table, f)]
        least = Table.standard(table.schema, [next(t.valuations()) for t in table.tuples])
        assert check_seamless(table, fds) == least == O.seamless_world(table, fds)
        read = [f.lhs for f in fds if f.rhs - f.lhs - set().union(*(g.rhs - g.lhs for g in fds if g.lhs < f.lhs))]
        bindings = max((len(O.bindings(t, x)) for x in read for t in table.tuples), default=1)
        for budget in (10**6, 20, 3, 1):
            if budget < bindings:
                with pytest.raises(ValuationBudgetExceeded):
                    check_seamless(table, fds, budget)
            else:
                assert check_seamless(table, fds, budget) == least
                answered += budget < max(t.valuation_count() for t in table.tuples)  # the search would raise
    assert answered > 100


def test_pfd_gives_no_joint_world_on_disjunctive_tables():
    # -> A and -> B hold as pfds, yet no world has one A value and one B
    # value, so disjunctive tables are searched (`NO_JOINT_WORLD` is the
    # 4-attribute case).
    table = Table.disjunctive(["A", "B", "C"], [[("0", "0", "0"), ("1", "1", "1")], [("0", "1", "1"), ("1", "0", "0")]])
    fds = [T.fd("", "A"), T.fd("", "B")]
    assert all(check_pfd(table, f) for f in fds)
    assert check_seamless(table, fds) is None


def _step_cases(rng, count, fewest=20, most=40, linked=False):
    """(index, table, FD set) for `count` seeded disjunctive tables of
    `fewest`-`most` distinct tuples with 1-3 disjuncts each, and random FD
    sets; `linked` keeps only FD sets whose cover is not empty, so that the
    search reads some FD.  A table with fewer distinct tuples, or an FD set
    left out, is drawn again."""
    for k in range(count):
        table = rand_disjunctive_table(rng, max_attrs=5, max_tuples=most)
        while len(table.tuples) < fewest:
            table = rand_disjunctive_table(rng, max_attrs=5, max_tuples=most)
        fds = rand_fd_set(rng, table.schema.attributes, max_fds=4)
        while linked and not _cover(table.schema, fds):
            fds = rand_fd_set(rng, table.schema.attributes, max_fds=4)
        yield k, table, fds


# Least budgets of `_step_cases(Random(23), 200)` by index, for every case
# above the valuation floor.  Every other case is at the floor (every row of
# the first branched tuple dead-ends at once, or the FD set's cover is empty
# and no tuple is searched), which hides its step count.
PINNED_STEPS = {77: 17, 155: 4, 181: 4}
# Earlier pins, when the search linked tuples through every FD as given.
# The 28 pins that fell since are FD sets whose cover is empty (` -> `,
# `A0 A2 A3 -> A3`, `A0 A1 -> A1; A0 -> ` and the like), now at the floor
# of 3.  The step count can only fall, so each stays an upper bound.
STEPS_EACH_FD_SEARCHED = {
    13: 27, 18: 23, 29: 24, 32: 36, 35: 25, 36: 22, 40: 22, 50: 35, 51: 22, 54: 20, 61: 35, 66: 32, 68: 29,
    77: 17, 79: 25, 84: 27, 94: 25, 95: 23, 111: 24, 130: 30, 131: 24, 142: 25, 155: 4, 159: 23, 161: 24,
    164: 25, 166: 20, 171: 25, 176: 31, 181: 4, 187: 29,
}
# Earlier pins of the first 72 cases: under a search that charged each
# free-standing tuple a step and let an empty domain wait behind single-row
# tuples, and, for case 69, under one that branched on free-standing tuples.
# The step count can only fall, so each stays an upper bound.
STEPS_WITH_FREE_STANDING_CHARGED = {
    0: 6, 1: 14, 2: 6, 8: 35, 13: 30, 17: 27, 18: 23, 19: 8, 21: 8, 22: 27, 23: 35, 25: 38, 26: 25, 28: 6,
    29: 24, 30: 40, 32: 36, 33: 40, 34: 6, 35: 25, 36: 22, 37: 5, 38: 11, 39: 36, 40: 22, 43: 35, 44: 27,
    45: 12, 46: 4, 47: 26, 48: 6, 50: 35, 51: 22, 54: 31, 56: 9, 59: 35, 61: 35, 66: 32, 67: 33, 68: 29,
    69: 15, 70: 5,
}
STEPS_WITH_FREE_STANDING_SEARCHED = {69: 16}
# Least budgets of `_step_cases(Random(29), 400, 10, 20, linked=True)` by
# index, for every case above the valuation floor: FD sets that link tuples.
PINNED_LINKED_STEPS = {
    5: 13, 32: 5, 34: 12, 35: 4, 43: 9, 59: 10, 73: 10, 75: 6, 83: 5, 94: 6, 105: 5, 125: 12, 144: 9, 147: 10,
    150: 4, 152: 12, 167: 4, 168: 16, 171: 4, 180: 4, 182: 4, 188: 4, 237: 5, 244: 9, 252: 5, 295: 4, 300: 9,
    302: 17, 305: 4, 310: 6, 352: 15, 363: 19, 367: 4, 383: 5,
}


def _steps_above_the_floor(cases):
    """Each case's least budget by index, and those above the valuation floor."""
    budgets = {k: _least_budget(table, fds) for k, table, fds in cases}
    floors = {k: max(t.valuation_count() for t in table.tuples) for k, table, _ in cases}
    return budgets, {k: b for k, b in budgets.items() if b > floors[k]}


def test_search_steps_are_pinned_above_the_valuation_floor():
    budgets, above = _steps_above_the_floor(list(_step_cases(random.Random(23), 200)))
    for bounds in (STEPS_EACH_FD_SEARCHED, STEPS_WITH_FREE_STANDING_CHARGED, STEPS_WITH_FREE_STANDING_SEARCHED):
        assert all(budgets[k] <= old for k, old in bounds.items())
    assert above == PINNED_STEPS
    _, above = _steps_above_the_floor(list(_step_cases(random.Random(29), 400, 10, 20, linked=True)))
    assert above == PINNED_LINKED_STEPS


def test_free_standing_tuples_are_not_searched():
    # The free-standing tuple is not tried again at each dead end above it;
    # 15, the least budget of a search that branched on it, is an upper bound.
    table, fds = T.FREE_STANDING_RETRY, [T.AB]
    assert check_seamless(table, fds) is None
    budget = _least_budget(table, fds)
    assert budget <= 15
    assert budget == 7


def test_independent_pairs_multiply_the_steps():
    # The search backtracks chronologically, so each dead end of the core
    # retries every combination of the pairs: the least budget grows about
    # 4x per two pairs.  A search of each binding component apart must keep
    # these values as upper bounds.
    budgets = {}
    for k in (0, 2, 4, 6, 8):
        table = T.free_standing_retry_with_pairs(k)
        assert check_seamless(table, [T.AB]) is None
        budgets[k] = _least_budget(table, [T.AB])
    assert budgets == {0: 7, 2: 37, 4: 157, 6: 637, 8: 2557}


def test_free_standing_tuples_take_no_steps():
    # Every tuple but one pair is free-standing.  The pair shares Z = p and
    # answers Y differently, so the pfd test fails and the search runs; it
    # has a world.  Weak holds at budget 2, the largest tuple's valuation
    # count and the pair's two steps; a search that charged each
    # free-standing tuple a step needed 10,002.
    table, f = unique_lhs_vague_table(random.Random(1), 10_000)
    table = T.with_pfd_broken(table, "Y")
    assert not check_pfd(table, f)
    assert check_weak(table, f, 2)
    with pytest.raises(ValuationBudgetExceeded):
        check_weak(table, f, 1)
    # The search dead-ends before it would reach the free-standing tuple.
    assert _least_budget(T.EARLY_DEAD_END, [T.AB]) == 4
    assert check_seamless(T.EARLY_DEAD_END, [T.AB], budget=4) is None


def test_an_empty_domain_is_a_dead_end_at_once():
    # 5, the least budget of a search that branched on a single-row tuple
    # before an empty domain, is an upper bound.
    table, fds = T.EMPTY_DOMAIN_FIRST, [T.fd("", "A")]
    assert check_seamless(table, fds) == Table.standard(["A"], [("b",)])
    budget = _least_budget(table, fds)
    assert budget <= 5
    assert budget == 4


def _pfd_holding_cases(rng, count=300, max_tuples=8):
    """Vague tables with FD sets that hold under pfd: random FDs, an empty
    lhs (over a column planted equal in every tuple, so it always holds), a
    two-attribute lhs, and a duplicate of one of them."""
    for _ in range(count):
        table = rand_vague_table(rng, max_attrs=4, max_tuples=max_tuples, max_valuations=float("inf"))
        attrs = table.schema.attributes
        rows = [list(t.cells) for t in table.tuples]
        same = rng.randrange(len(attrs))
        for row in rows:
            row[same] = rows[0][same]
        table = Table.vague(attrs, rows)
        cands = [rand_fd(rng, attrs) for _ in range(3)] + [FunctionalDependency((), {attrs[same]})]
        if len(attrs) > 2:
            cands.append(FunctionalDependency(rng.sample(attrs, 2), rng.sample(attrs, 1)))
        fds = [f for f in cands if check_pfd(table, f)]
        yield table, fds + rng.sample(fds, 1)


# Under A -> D, tuples 1-2 and 3-6 form two groups; under B -> D, tuple 0
# joins the group of 1-2, which then meets the larger group through 2 and 3.
# Every tuple, tuple 0 included, must take one D value.
MERGE_TRAP = Table.vague(["K", "A", "B", "D"], [
    (f"k{i}", a, b, {"d1", "d2"})
    for i, (a, b) in enumerate([("a0", "b1"), ("a1", "b1"), ("a1", "b2"), ("a2", "b2"),
                                ("a2", "b3"), ("a2", "b4"), ("a2", "b5")])
])
MERGE_TRAP_FDS = [FunctionalDependency({"A"}, {"D"}), FunctionalDependency({"B"}, {"D"})]

# The P cells share u, so the two tuples agree on P in the worlds where both
# take u, and there they must agree on A.
NARROWED_LHS = Table.vague(["P", "A"], [[{"u", "v"}, {"x", "y"}], [{"u", "w"}, {"x", "y"}]])
NARROWED_LHS_FDS = [FunctionalDependency({"P"}, {"A"})]


def _cover_cases(rng, count):
    """Vague and standard tables with FD sets that mix duplicate lhs sets,
    superset lhs sets, overlapping sides, trivial FDs and one rhs under
    unrelated lhs sets."""
    for k in range(count):
        table = GENERATORS[k % 2](rng, max_attrs=4, max_tuples=6)
        attrs = table.schema.attributes
        fds = rand_fd_set(rng, attrs, max_fds=3)
        for f in list(fds):
            more = frozenset(rng.sample(attrs, rng.randint(0, len(attrs))))
            fds.append(rng.choice([
                FunctionalDependency(f.lhs, more),  # the same lhs
                FunctionalDependency(f.lhs | more, f.rhs),  # a lhs around it
                FunctionalDependency(f.lhs, f.lhs | more),  # overlapping sides
                FunctionalDependency(f.lhs | more, more),  # trivial
                FunctionalDependency(more, f.rhs),  # another lhs, the same rhs
            ]))
        rng.shuffle(fds)
        yield table, fds


def test_the_cover_decides_the_fd_set_as_pfds():
    # On vague and standard tables the pfd test reads one lhs per group of
    # FDs, and none for trivial or implied FDs; it must decide the whole set.
    held = skipped = 0
    for table, fds in _cover_cases(random.Random(27), 2400):
        want = all(check_pfd(table, f) for f in fds)
        assert _pfd_holds(table.tuples, _cover(table.schema, fds), DEFAULT_VALUATION_CAP) == want
        held += want
        skipped += want and any(f.lhs < g.lhs and f.rhs - f.lhs and g.rhs - g.lhs <= f.rhs for f in fds for g in fds)
    assert 400 < held < 2000 and skipped > 100


def test_the_cover_is_the_fd_set_with_one_fd_per_lhs():
    # The cover and the set imply each other; each lhs appears once, with a
    # non-empty rhs outside it, and both sides are sorted positions.
    rng = random.Random(29)
    empty = dropped = 0
    for table, fds in _cover_cases(rng, 1200):
        attrs = table.schema.attributes
        fds.append(FunctionalDependency((), rng.sample(attrs, rng.randint(0, len(attrs)))))
        pairs = _cover(table.schema, fds)
        assert all(list(x) == sorted(x) and list(y) == sorted(y) for x, y in pairs)
        cover = [FunctionalDependency(map(attrs.__getitem__, x), map(attrs.__getitem__, y)) for x, y in pairs]
        assert all(implies(cover, f) for f in fds) and all(implies(fds, g) for g in cover)
        assert len({g.lhs for g in cover}) == len(cover)
        assert all(g.rhs and not g.lhs & g.rhs for g in cover)
        empty += any(not g.lhs for g in cover)
        dropped += len(cover) < len({f.lhs for f in fds})
    assert empty > 800 and dropped > 800


def test_the_cover_does_not_read_a_skipped_lhs_past_the_cap():
    # A B -> C follows from A -> C, so its three bindings are never read.
    table = Table.vague(["A", "B", "C"], [("a", {"b0", "b1", "b2"}, "c"), ("a2", "b0", {"c", "d"})])
    fds = [T.fd("A", "C"), T.fd("A B", "C")]
    with pytest.raises(ValuationBudgetExceeded):
        check_pfd(table, fds[1], 2)
    assert _pfd_holds(table.tuples, _cover(table.schema, fds), 2)
    assert check_seamless(table, fds, 2) == Table.standard(["A", "B", "C"], [("a", "b0", "c"), ("a2", "b0", "c")])
    # Read, the same lhs is past the cap: the pfd test raises, and so does the search.
    with pytest.raises(ValuationBudgetExceeded):
        _pfd_holds(table.tuples, _cover(table.schema, fds[1:]), 2)
    with pytest.raises(ValuationBudgetExceeded):
        check_seamless(table, fds[1:], 2)


def test_the_pfd_test_on_an_fds_own_positions_is_check_pfd():
    # Vertical passes one FD's positions, not a cover: the sides may overlap,
    # the rhs may be empty and the FD trivial.  Where check_pfd runs past
    # the cap, the test raises too, unless it stops first at a disagreement
    # among the tuples before the first one past the cap.
    held = failed = over = before = 0
    for table, fds in _cover_cases(random.Random(30), 600):
        for f, cap in itertools.product(fds, (10**6, 2)):
            x_pos, y_pos = _fd_positions(table.schema, f)
            pfd_holds = lambda: _pfd_holds(table.tuples, [(x_pos, y_pos)], cap)
            try:
                want = check_pfd(table, f, cap)
            except ValuationBudgetExceeded:
                k = next(k for k, t in enumerate(table.tuples) if math.prod(len(t.cells[p]) for p in x_pos) > cap)
                if check_pfd(Table(table.schema, table.model, table.tuples[:k]), f, cap):
                    with pytest.raises(ValuationBudgetExceeded):
                        pfd_holds()
                    over += 1
                else:
                    assert not pfd_holds(), (table, f, cap)
                    before += 1
                continue
            assert pfd_holds() == want, (table, f, cap)
            held, failed = held + want, failed + (not want)
    assert held > 2000 and failed > 800 and over > 300 and before > 10


def _lhs_between_cases(rng, count):
    """Vague tables over 3-5 attributes where the lhs attribute P lies
    between attributes it determines.  In three of four tables every other
    cell is planted equal across the tuples that share a P value, so that
    P -> the rest holds as a pfd; P's own cells overlap, so valuing P can
    split those tuples.  FDs: P -> each side, a lhs around P, a trivial FD."""
    for _ in range(count):
        attrs = [f"A{i}" for i in range(rng.randint(3, 5))]
        p = rng.randrange(1, len(attrs) - 1)
        rows = [[rand_cell(rng) for _ in attrs] for _ in range(rng.randint(2, 8))]
        if rng.random() < 0.75:
            root = list(range(len(rows)))
            for i, j in itertools.combinations(range(len(rows)), 2):
                if rows[i][p] & rows[j][p]:
                    old = root[j]
                    root = [root[i] if r == old else r for r in root]
            for row, r in zip(rows, root):
                row[:p], row[p + 1:] = rows[r][:p], rows[r][p + 1:]
        lhs = attrs[p]
        fds = [FunctionalDependency({lhs}, attrs[:p]), FunctionalDependency({lhs}, attrs[p + 1:]),
               FunctionalDependency({lhs, rng.choice(attrs)}, rng.sample(attrs, 2)),
               FunctionalDependency({lhs}, {lhs})]
        yield Table.vague(attrs, rows), rng.sample(fds, rng.randint(1, 4))


def _valuations_meet_their_precondition_or_are_worlds(cases):
    """Each call raises what the FD-by-FD precondition raises, or returns the
    rows of a world of the table that satisfies every FD, the same rows on a
    repeat call with the seed.  Returns how many calls returned a world, and
    of those how many had an FD with an empty lhs or a lhs of two or more
    attributes outside its rhs."""
    def outcome(fn):
        try:
            return fn()
        except Exception as exc:
            return type(exc), str(exc)

    valued = empty = wide = 0
    for table, fds in cases:
        want = outcome(lambda: O.valuation_precondition(table, fds))
        for seed in range(3):
            got = outcome(lambda: seamless_valuation_rows(table, fds, seed))
            if want is not None:
                assert got == want
                continue
            assert type(got) is list and got == seamless_valuation_rows(table, fds, seed)
            assert len(got) == len(table)
            for t, row in zip(table.tuples, got):
                assert all(v in cell for v, cell in zip(row, t.cells))
            world = Table.standard(table.schema, got)
            assert all(check_standard(world, f) for f in fds)
            valued += 1
            empty += any(not f.lhs and len(table) > 1 for f in fds)
            wide += any(len(f.lhs - f.rhs) > 1 and len(table) > 1 for f in fds)
    return valued, empty, wide


# The two tests below keep the names they had when the valuation flooded
# components and was compared with a worklist and a per-attribute flood;
# they now check each valuation against its precondition and as a world.
def test_valuation_flood_returns_the_worklist_floods_rows():
    # Groups linked through a third tuple, a lhs that valuing narrows, and
    # FD sets that hold under pfd with empty, wide and duplicate lhs sets.
    cases = [(MERGE_TRAP, MERGE_TRAP_FDS), (NARROWED_LHS, NARROWED_LHS_FDS)]
    for seed, max_tuples in ((21, 8), (22, 8), (23, 8), (24, 20), (25, 20)):
        cases += _pfd_holding_cases(random.Random(seed), max_tuples=max_tuples)
    valued, empty, wide = _valuations_meet_their_precondition_or_are_worlds(cases)
    assert valued == len(cases) * 3 and empty > 2400 and wide > 800


def test_valuation_flood_returns_the_per_attribute_floods_rows():
    # P valued between two attributes it determines, more FD sets that hold
    # under pfd, and random FD sets that mostly fail the precondition.
    cases = list(_lhs_between_cases(random.Random(28), 600))
    cases += _pfd_holding_cases(random.Random(29))
    cases += [(table, rand_fd_set(random.Random(k), table.schema.attributes, 4))
              for k, table in enumerate(rand_vague_table(random.Random(30), 4, 6) for _ in range(200))]
    valued, empty, wide = _valuations_meet_their_precondition_or_are_worlds(cases)
    assert valued > 1200 and len(cases) * 3 - valued > 600


def test_contributions_follow_the_definition():
    # The pass answers in product form; expanded, its answers are the
    # definition's row sets, and each comes in the one form for its set.
    # Beside the random cases, a one-attribute lhs over a singleton cell and
    # over a 3-value cell, whose bindings come sorted whatever the hash order,
    # one inside Y, which takes the general path, and an empty lhs.
    edges = Table.vague(["A", "B", "C"], [["a", {"x", "y"}, "c"], [{"r", "p", "q"}, "x", {"c", "d"}]])
    extra = [(edges, T.fd("A", "B C")), (edges, T.fd("A", "A B")), (edges, T.fd("", "B C"))]
    products = 0
    for table, f in itertools.chain(random_cases(12), extra):
        x_attrs = tuple(table.schema.restrict(f.lhs).attributes)
        y_attrs = tuple(table.schema.restrict(f.rhs).attributes)
        x_pos, y_pos = _fd_positions(table.schema, f)
        want = [(j, b, O.answer_set(t, x_attrs, b, y_attrs))
                for j, t in enumerate(table.tuples) for b in sorted(O.bindings(t, x_attrs))]
        got = list(_binder(x_pos, y_pos)(table.tuples))
        assert [(j, b, O.answer_rows(answer)) for j, b, answer in got] == want
        assert [answer for *_, answer in got] == [O.canonical_answer(rows) for *_, rows in want]
        products += sum(len(rows) > 1 and type(answer) is tuple for (*_, answer), (*_, rows) in zip(got, want))
    assert products > 100


def test_select_follows_the_definition():
    # Every binding over the generator's values, so also those a tuple does not hold.
    empty = 0
    for table, f in random_cases(17, count=300):
        x_attrs = tuple(table.schema.restrict(f.lhs).attributes)
        for onto in (f.rhs, None):
            y_attrs = tuple(table.schema.attributes if onto is None else table.schema.restrict(onto).attributes)
            for t in table.tuples:
                for b in itertools.product(VALUES, repeat=len(x_attrs)):
                    want = O.answer_set(t, x_attrs, b, y_attrs)
                    assert select(t, f.lhs, b, onto).answers == want
                    empty += not want
    assert empty > 1000


def test_lhs_binding_product_over_the_cap_raises():
    eight = {f"v{i}" for i in range(8)}
    attrs = [f"A{i}" for i in range(8)] + ["B"]
    table = Table.vague(attrs, [[eight] * 8 + ["b1"], [eight] * 8 + ["b2"]])
    f = FunctionalDependency(attrs[:8], {"B"})
    with pytest.raises(ValuationBudgetExceeded):
        find_pfd_violation(table, f)
    with pytest.raises(ValuationBudgetExceeded):
        PfdIndex(f, table.schema).insert(table.tuples[0])
    with pytest.raises(ValuationBudgetExceeded):
        find_pfd_violation(table, FunctionalDependency(attrs[:2], {"B"}), valuation_cap=63)
    assert find_pfd_violation(table, FunctionalDependency(attrs[:2], {"B"}), valuation_cap=64)
    # A one-attribute lhs: a cell of `cap` values passes, and one of cap + 1
    # raises when the pass reaches its tuple, after the earlier tuples' pairs.
    table = Table.vague(["A", "B"], [["a", "x"], [{"a", "b", "c"}, "x"], [{"a", "b", "c", "d"}, "x"]])
    pairs = _binder((0,), (1,), 3)(table.tuples)
    assert [(j, b) for j, b, _ in itertools.islice(pairs, 4)] == [(0, ("a",)), (1, ("a",)), (1, ("b",)), (1, ("c",))]
    with pytest.raises(ValuationBudgetExceeded):
        next(pairs)
    with pytest.raises(ValuationBudgetExceeded):
        _pfd_holds(table.tuples, [((0,), (1,))], 3)
    assert _pfd_holds(table.tuples, [((0,), (1,))], 4)


def _fd_sets(rng, count):
    """FD sets over up to 7 attributes with empty sides and duplicate FDs."""
    for _ in range(count):
        attrs = [chr(ord("A") + i) for i in range(rng.randint(1, 7))]
        p = rng.choice((0.2, 0.4, 0.6))
        fds = [
            FunctionalDependency({a for a in attrs if rng.random() < p}, {a for a in attrs if rng.random() < p})
            for _ in range(rng.randint(0, 10))
        ]
        if fds and rng.random() < 0.3:
            fds += rng.sample(fds, rng.randint(1, len(fds)))
        target = FunctionalDependency({a for a in attrs if rng.random() < 0.3}, {a for a in attrs if rng.random() < 0.4})
        yield fds, target


def test_closure_implies_and_derive_follow_the_pass_loop():
    proofs = 0
    chains = []
    for n in (1, 2, 60):
        chain = [FunctionalDependency({f"A{i}"}, {f"A{i + 1}"}) for i in reversed(range(n))]
        chains.append((chain, FunctionalDependency({"A0"}, {f"A{n}"})))
    # Wide sets where most FDs become ready with their rhs covered, so `derive` never keys them.
    wide = random.Random(18)
    for n in (1000, 1500, 2000):
        fds, targets = wide_fd_set(wide, n)
        chains += [(fds, target) for target in targets]
    for fds, target in [*_fd_sets(random.Random(15), 10_000), *chains]:
        closure = O.attribute_closure(fds, target.lhs)
        assert attribute_closure(fds, target.lhs) == closure
        assert implies(fds, target) == (target.rhs <= closure)
        want = O.derive(fds, target)
        # Frozen dataclasses: equal iff rule, conclusion, premises and augment_with match per step.
        assert derive(fds, target) == want
        proofs += want is not None and len(want.steps) > 4
    assert proofs > 500


class _SubclassFD(FunctionalDependency):
    """Sides like any FD's, but never equal to a `FunctionalDependency`."""


def _proof_mutants(rng, d, attrs):
    """`d` itself, then one single-fault edit of it per kind, each at a
    seeded step of the steps that kind can change: (kind, derivation)."""
    steps = list(d.steps)
    everywhere = range(len(steps))
    cited = [i for i in everywhere if steps[i].premises] or everywhere
    augmented = [i for i in everywhere if steps[i].rule == AUGMENTATION] or everywhere

    def flip(side):  # drop one attribute, add one, or swap one for another
        move = rng.choice(("drop", "add", "swap") if side else ("add",))
        out = side - {rng.choice(sorted(side))} if move != "add" else side
        return out | {rng.choice(sorted(set(attrs) - side) or ["Z"])} if move != "drop" else out

    def repoint(premises, to):  # one premise pointed at step `to`
        ps = list(premises)
        if ps:
            ps[rng.randrange(len(ps))] = to
        return tuple(ps)

    fd = FunctionalDependency
    kinds = {
        "conclusion lhs": (everywhere, lambda i, st: dict(conclusion=fd(flip(st.conclusion.lhs), st.conclusion.rhs))),
        "conclusion rhs": (everywhere, lambda i, st: dict(conclusion=fd(st.conclusion.lhs, flip(st.conclusion.rhs)))),
        "sides copied": (everywhere, lambda i, st: dict(conclusion=fd(set(st.conclusion.lhs), set(st.conclusion.rhs)))),
        "subclass conclusion": (everywhere, lambda i, st: dict(conclusion=_SubclassFD(st.conclusion.lhs, st.conclusion.rhs))),
        "tuple conclusion": (everywhere, lambda i, st: dict(conclusion=(st.conclusion.lhs, st.conclusion.rhs))),
        "unknown rule": (everywhere, lambda i, st: dict(rule="voodoo")),
        "premise swapped": (cited, lambda i, st: dict(premises=repoint(st.premises, rng.randrange(max(i, 1))))),
        "premise out of range": (cited, lambda i, st: dict(premises=repoint(st.premises, rng.choice((i, len(steps), -1))))),
        "premises reversed": (cited, lambda i, st: dict(premises=st.premises[::-1])),
        "augment_with": (augmented, lambda i, st: dict(augment_with=frozenset(flip(st.augment_with)))),
        "augment_with as set": (augmented, lambda i, st: dict(augment_with=set(st.augment_with))),
        "augment_with as list": (augmented, lambda i, st: dict(augment_with=list(st.augment_with))),
        "augment_with as tuple": (augmented, lambda i, st: dict(augment_with=tuple(st.augment_with))),
        "tuple conclusion, list augment_with": (augmented, lambda i, st: dict(
            conclusion=(st.conclusion.lhs, st.conclusion.rhs), augment_with=list(st.augment_with))),
    }
    yield "unchanged", d
    yield "proof conclusion", Derivation(fd(flip(d.conclusion.lhs), d.conclusion.rhs), d.steps)
    for kind, (where, change) in kinds.items():
        i = rng.choice(where)
        mutated = replace(steps[i], **change(i, steps[i]))
        yield kind, Derivation(d.conclusion, tuple(steps[:i] + [mutated] + steps[i + 1:]))


def _replay(check, fds, d):
    try:
        return check(fds, d)
    except Exception as exc:  # the exception type is part of the verdict
        return type(exc)


def test_check_derivation_agrees_with_the_set_building_replay():
    rng = random.Random(19)
    proofs = []
    for fds, target in _fd_sets(random.Random(17), 3_000):
        d = derive(fds, target)
        if d is not None and len(d.steps) > 1:
            proofs.append((fds, d))
    chain = [FunctionalDependency({f"c{i + 1:04d}"}, {f"c{i:04d}"}) for i in range(1000)]
    proofs.append((chain, derive(chain, FunctionalDependency({"c1000"}, {"c0000"}))))
    assert len(proofs[-1][1].steps) == 3 * 1000 + 1
    outcomes = collections.Counter()
    for fds, d in proofs:
        attrs = sorted(set().union(*(f.lhs | f.rhs for f in fds)))
        for kind, mutant in _proof_mutants(rng, d, attrs):
            got = _replay(check_derivation, fds, mutant)
            assert got == _replay(O.check_derivation, fds, mutant), kind
            outcomes[got if isinstance(got, bool) else got.__name__] += 1
            if kind == "unchanged":
                assert got is True
    # 608 proofs (the 1,000-link chain among them), each unchanged and under
    # 15 edits: 9,728 cases, of which 7,202 are rejected by a False verdict
    # or an exception.
    assert len(proofs) == 608
    assert outcomes == {True: 2526, False: 4651, "TypeError": 1824, "ValueError": 608, "AttributeError": 119}
