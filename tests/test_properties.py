"""The abstract's two claims, executable.  Negative: on disjunctive tables,
no FD notion is at once implied by strong satisfaction, independent of
irrelevant attributes and seamless.  Positive: on vague tables, pfd is.

A universe is a list of (table, FD) pairs, each with the table's projection
onto the FD's attributes.  A notion is read as one boolean per (table, FD),
projections included: whether the FD holds there.  The three properties
become constraints on those booleans.  On `NO_JOINT_WORLD` with A -> B and
C -> D, whose projections onto {A, B} and {C, D} carry one FD each, a
brute-force pass over all of them finds no assignment that meets the three.
On every vague table of `tables.py`, and on every vague table over A, B, C
with values {0, 1} and one or two tuples, pfd's verdicts meet all three."""

import itertools
from collections import Counter

from fdlab import (
    FunctionalDependency, Model, Table, check_pfd, check_rm, check_seamless, check_strong, check_vertical, check_weak,
    project_table,
)

import tables as T
from gen import SMALL_ATTRS, small_vague_tables


def with_projections(pairs) -> list:
    """A universe: (table, FD, projection of the table onto the FD's attributes) per pair."""
    return [(table, f, project_table(table, sorted(f.attributes()))) for table, f in pairs]


def variables(universe) -> list:
    """One variable per (table, FD), projections included."""
    return list(dict.fromkeys(v for table, f, p in universe for v in ((table, f), (p, f))))


def implied_by_strong(universe, holds) -> bool:
    return all(holds[table, f] for table, f in variables(universe) if check_strong(table, f))


def independent(universe, holds) -> bool:
    """The verdict is unchanged on the projection onto the FD's attributes."""
    return all(holds[table, f] == holds[p, f] for table, f, p in universe)


def seamless(universe, holds) -> bool:
    """Every set of FDs that hold on one table holds in one world of it."""
    held = {}
    for table, f in variables(universe):
        if holds[table, f]:
            held.setdefault(table, []).append(f)
    return all(check_seamless(table, fds) is not None for table, fds in held.items())


PROPERTIES = {"implied by strong": implied_by_strong, "independence": independent, "seamless": seamless}

TABLE = T.NO_JOINT_WORLD
NO_JOINT = with_projections([(TABLE, T.AB), (TABLE, T.CD)])
PROJECTIONS = {f: p for _, f, p in NO_JOINT}
VARIABLES = variables(NO_JOINT)


def broken(holds, universe=NO_JOINT) -> set:
    return {name for name, prop in PROPERTIES.items() if not prop(universe, holds)}


def test_no_fd_notion_has_all_three_properties():
    assert all(len(p.tuples) == 1 for p in PROJECTIONS.values())
    assignments = [dict(zip(VARIABLES, bits)) for bits in itertools.product((False, True), repeat=len(VARIABLES))]
    assert len(assignments) == 16
    assert [holds for holds in assignments if not broken(holds)] == []


def test_each_semantics_breaks_one_property_on_the_witness():
    expected = {
        check_strong: {"independence"},
        check_vertical: {"independence"},
        check_pfd: {"seamless"},
        check_weak: {"seamless"},
    }
    for check, props in expected.items():
        holds = {(table, f): check(table, f) for table, f in VARIABLES}
        assert broken(holds) == props, check.__name__


def _subsets(attrs):
    return itertools.chain.from_iterable(itertools.combinations(attrs, k) for k in range(len(attrs) + 1))


def every_fd(tables) -> list:
    """(table, X -> Y) for every table and every X, Y over its attributes, Y non-empty."""
    return [
        (table, FunctionalDependency(x, y))
        for table in tables
        for x in _subsets(table.schema.attributes)
        for y in _subsets(table.schema.attributes)
        if y
    ]


def assert_broken(pairs, expected) -> None:
    """Each check's verdicts on `pairs` and their projections break exactly
    the expected constraints."""
    universe = with_projections(pairs)
    for check, props in expected.items():
        holds = {(table, f): check(table, f) for table, f in variables(universe)}
        assert broken(holds, universe) == props, check.__name__


def test_pfd_has_all_three_properties_on_every_vague_table():
    """The positive claim: on vague tables, pfd's verdicts break none of the
    three constraints, while strong, weak and rm each break one.  Each vague
    table of `tables.py` comes with every FD X -> Y over its attributes
    (Y non-empty) and that FD's projection."""
    vague = [t for t in vars(T).values() if isinstance(t, Table) and t.model is Model.VAGUE]
    pairs = every_fd(vague)
    assert (len(vague), len(pairs)) == (9, 450)
    assert_broken(pairs, {check_pfd: set(), check_strong: {"independence"}, check_weak: {"seamless"},
                          check_rm: {"seamless"}})


def test_pfd_has_all_three_properties_on_every_small_vague_table():
    """The positive claim over a whole scope, not a sample: every vague table
    over A, B, C with values {0, 1} and one or two tuples, one per renaming
    of values, with every FD X -> Y (Y non-empty).  pfd breaks none of the
    three constraints, strong breaks independence and weak breaks seamless.
    rm breaks none here: its seamless failure is pinned on the three-tuple
    `RESEMBLANCE_TRAP`, which the test above keeps."""
    tables = small_vague_tables()
    pairs = every_fd(tables)
    assert (len(tables), len(pairs)) == (76, 4256)
    assert_broken(pairs, {check_pfd: set(), check_strong: {"independence"}, check_weak: {"seamless"},
                          check_rm: set()})


def test_vertical_is_pfd_on_every_small_vague_table():
    # A vague tuple's rows are the product of its cells, so the two agree.
    pairs = every_fd(small_vague_tables(canonical=False))
    assert len(pairs) == 21168
    assert [(table, f) for table, f in pairs if check_vertical(table, f) != check_pfd(table, f)] == []


def armstrong_failures(tables, check) -> dict:
    """Failing instances of reflexivity (X -> Y, Y within X), augmentation
    (X -> Y holds but XZ -> YZ does not, every Z) and transitivity (X -> Y
    and Y -> Z hold but X -> Z does not) under `check`, over every table
    and every X, Y, Z of SMALL_ATTRS (Y and Z non-empty where they are
    rhs).  Verdicts are memoised per (table index, FD)."""
    subsets = [frozenset(s) for s in _subsets(SMALL_ATTRS)]
    memo = {}

    def holds(i, x, y):
        if (i, x, y) not in memo:
            memo[i, x, y] = check(tables[i], FunctionalDependency(x, y))
        return memo[i, x, y]

    failures = Counter()
    for i, x, y in itertools.product(range(len(tables)), subsets, subsets[1:]):
        failures["reflexivity"] += y <= x and not holds(i, x, y)
        if holds(i, x, y):
            failures["augmentation"] += sum(not holds(i, x | z, y | z) for z in subsets)
            failures["transitivity"] += sum(holds(i, y, z) and not holds(i, x, z) for z in subsets[1:])
    return dict(+failures)


def test_armstrong_rules_on_every_small_vague_table():
    """README's "obey the three classical inference rules", over the whole
    small vague scope rather than a sample: pfd, strong, vertical and rm
    break none of reflexivity, augmentation and transitivity, and weak
    breaks transitivity (so the check can fail)."""
    tables = small_vague_tables()
    assert len(tables) == 76
    checks = {"pfd": check_pfd, "strong": check_strong, "vertical": check_vertical, "rm": check_rm,
              "weak": check_weak}
    assert {name: armstrong_failures(tables, check) for name, check in checks.items()} == {
        "pfd": {}, "strong": {}, "vertical": {}, "rm": {}, "weak": {"transitivity": 408},
    }
