"""The abstract's negative claim, executable: on disjunctive tables, no FD
notion is at once implied by strong satisfaction, independent of irrelevant
attributes and seamless.

The universe is `NO_JOINT_WORLD` with A -> B and C -> D, and its projections
onto {A, B} and {C, D}, which carry one FD each.  A notion is read as one
boolean per (table, FD): whether the FD holds there.  The three properties
become constraints on those booleans, and a brute-force pass over all of
them finds no assignment that meets the three."""

import itertools

from fdlab import check_pfd, check_seamless, check_strong, check_vertical, check_weak, project_table

import tables as T

TABLE = T.NO_JOINT_WORLD
PROJECTIONS = {T.AB: project_table(TABLE, ["A", "B"]), T.CD: project_table(TABLE, ["C", "D"])}
# One variable per (table, FD).
VARIABLES = [(TABLE, T.AB), (TABLE, T.CD), (PROJECTIONS[T.AB], T.AB), (PROJECTIONS[T.CD], T.CD)]


def implied_by_strong(holds) -> bool:
    return all(holds[table, f] for table, f in VARIABLES if check_strong(table, f))


def independent(holds) -> bool:
    """The verdict is unchanged on the projection onto the FD's attributes."""
    return all(holds[TABLE, f] == holds[projection, f] for f, projection in PROJECTIONS.items())


def seamless(holds) -> bool:
    """Every set of FDs that hold on one table holds in one world of it."""
    for table in {table for table, _ in VARIABLES}:
        fds = [f for t, f in VARIABLES if t is table and holds[t, f]]
        if fds and check_seamless(table, fds) is None:
            return False
    return True


PROPERTIES = {"implied by strong": implied_by_strong, "independence": independent, "seamless": seamless}


def broken(holds) -> set:
    return {name for name, prop in PROPERTIES.items() if not prop(holds)}


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
