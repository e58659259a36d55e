"""Worked tables used throughout the suite, built programmatically.

These mirror the hand-sized tables that motivate each semantics: vague tables
where individually satisfiable FDs admit no joint valuation, disjunctive
tables separating the pfd/vertical/strong readings, and the matching-problem
gadget.
"""

from fdlab import FunctionalDependency, Table, ThreeDMInstance


def fd(lhs, rhs) -> FunctionalDependency:
    return FunctionalDependency(set(lhs.split()), set(rhs.split()))


AB = fd("A", "B")
BC = fd("B", "C")
AC = fd("A", "C")
CB = fd("C", "B")
CD = fd("C", "D")

# Vague: A->B and B->C each weakly hold, never together.
TRANSITIVITY_TRAP = Table.vague(["A", "B", "C"], [
    ("a1", {"b1", "b2"}, "c1"),
    ("a1", {"b2", "b3"}, "c2"),
])

# Vague: A->B and C->B hold in the resemblance sense, never together.
RESEMBLANCE_TRAP = Table.vague(["A", "B", "C"], [
    ("a1", "b2", "c1"),
    ("a1", {"b2", "b3"}, "c2"),
    ("a2", "b3", "c2"),
])

# Same phenomenon with no two tuples sharing an exact A or C value.
RESEMBLANCE_TRAP_DISTINCT = Table.vague(["A", "B", "C"], [
    ("a1", "b2", "c1"),
    ("a2", "b2", "c1"),
    ({"a1", "a2"}, {"b2", "b3"}, {"c2", "c3"}),
    ("a3", "b3", "c2"),
    ("a3", "b3", "c3"),
])

# Disjunctive: both pfds hold, yet no valuation satisfies the pair.
NO_JOINT_WORLD = Table.disjunctive(["A", "B", "C", "D"], [
    [("a1", "b1", "c1", "d1"), ("a1", "b2", "c1", "d2")],
    [("a1", "b2", "c1", "d1"), ("a1", "b1", "c1", "d2")],
])

# Disjunctive: augmentation fails (A->C holds, AB->CB does not).
AUGMENTATION_TRAP = Table.disjunctive(["A", "B", "C"], [
    [("a", "b1", "c1"), ("a", "b2", "c2")],
    [("a", "b2", "c1"), ("a", "b1", "c2")],
])
AUGMENTATION_TRAP_AC = fd("A", "C")
AUGMENTATION_TRAP_ABCB = fd("A B", "C B")

# Disjunctive: pfd holds; the vertical verdict is the known discrepancy.
SSN_NAMES = Table.disjunctive(["SSN", "Name"], [
    [("1", "Tom"), ("1", "Thomas")],
    [("1", "Tom"), ("1", "Thomas"), ("2", "Tom"), ("2", "Thomas")],
])
SSN_NAMES_FD = fd("SSN", "Name")

# Strong satisfaction is not independent of irrelevant attributes.
JOEJACK = Table.vague(["employee", "department", "manager"], [
    ("Joe", "Engineering", {"Gauss", "Newton"}),
    ("Jack", "Engineering", {"Gauss", "Newton"}),
])
JOEJACK_FD = fd("department", "manager")

# Single disjunctive tuple: strong holds, vertical fails through the third attribute.
SINGLE_VERTICAL = Table.disjunctive(["A", "B", "C"], [
    [("a1", "b1", "c1"), ("a1", "b2", "c2")],
])

# Valuation-algorithm worked example: A->B and C->B drag every tuple to one b.
VALUATION_DEMO = Table.vague(["A", "B", "C"], [
    ("a1", {"b1", "b2"}, "c1"),
    ("a1", {"b1", "b2"}, "c2"),
    ("a2", {"b1", "b2"}, "c2"),
])
VALUATION_DEMO_FDS = [AB, CB]
VALUATION_DEMO_EXPECTED = Table.standard(["A", "B", "C"], [
    ("a1", "b1", "c1"),
    ("a1", "b1", "c2"),
    ("a2", "b1", "c2"),
])
VALUATION_DEMO_B1_SEED = 4  # Random(4) orders b1 before b2

# Matching instance with unique solution {t1, t2, t3}.
MATCHING_INSTANCE = ThreeDMInstance(
    ("a", "b", "c"),
    ("1", "2", "3"),
    ("A", "B", "C"),
    [("a", "2", "B"), ("b", "1", "A"), ("c", "3", "C"), ("a", "1", "B"), ("b", "3", "B")],
)
MATCHING_IDS = frozenset({"t1", "t2", "t3"})
MATCHING_WITNESS = Table.standard(["X", "Y", "Z", "T"], [
    ("a", "2", "B", "t1"),
    ("b", "1", "A", "t2"),
    ("c", "3", "C", "t3"),
])

# PFD holds for both FDs, yet the one-pass valuation mis-values this table for
# some seeds: the chain tuple sorts after the tuple it links.
ONE_PASS_TRAP = Table.vague(["A", "B", "C"], [
    ("a1", {"b1", "b2"}, "c1"),
    ("a2", {"b1", "b2"}, "c2"),
    ({"a2", "a9"}, {"b1", "b2"}, "c1"),
])
ONE_PASS_FDS = [AB, CB]

# Vague, A->B: no seamless world.  The tuple with A = r shares no binding, so
# it stands outside the search, which tries 7 rows (least budget 7); a search
# that branched on it tried it again at every dead end above it (least budget 15).
FREE_STANDING_RETRY = Table.vague(["A", "B", "C"], [
    ("q", {"q", "r"}, {"p", "q"}),
    ("r", "p", {"p", "r"}),
    ({"p", "q"}, "p", {"p", "q"}),
    ("q", {"p", "q"}, {"q", "r"}),
    ("p", {"p", "q"}, {"p", "r"}),
    ("p", {"q", "r"}, {"p", "r"}),
    ("q", {"p", "q"}, {"p", "q"}),
])


def free_standing_retry_with_pairs(k: int) -> Table:
    """`FREE_STANDING_RETRY` plus k pairs (z_i, {p|q}, p), (z_i, {p|q}, q).
    Under A->B each pair has a world on its own and shares no binding with
    the rest, yet a search that backtracks chronologically across them tries
    their combinations before it gives up on the core."""
    pairs = [(f"z{i}", {"p", "q"}, c) for i in range(k) for c in "pq"]
    return Table.vague(["A", "B", "C"], [t.cells for t in FREE_STANDING_RETRY.tuples] + pairs)


# Vague, A->B: no seamless world.  The search dead-ends after 2 rows, before
# it would reach the free-standing tuple (A = r), which tries no row; the
# least budget is 4, the valuation floor.
EARLY_DEAD_END = Table.vague(["A", "B", "C"], [
    ("q", "r", "p"),
    ("p", "p", "r"),
    ("r", {"q", "r"}, {"p", "r"}),
    ("q", {"q", "r"}, {"q", "r"}),
    ({"p", "q"}, "p", "p"),
    ({"p", "q"}, {"p", "q"}, "q"),
    ("q", {"p", "q"}, "q"),
])

# Vague, {} -> A: every tuple takes one value, b.  Tuple 0's first row, a,
# empties tuple 2's domain.  A heap key that tied sizes 0 and 1 branched on
# tuple 1 before that dead end (least budget 5); keyed by the plain size, the
# empty domain is branched on at once (least budget 4).
EMPTY_DOMAIN_FIRST = Table.vague(["A"], [({"a", "b"},), ({"a", "b", "c"},), ({"b", "c"},)])


# Standard, A->C: violated only by the last two rows (A = zz).  The 30 groups
# before them are two rows each that agree on C, so a search would try a row
# per tuple, past a cap of 10, before it met them.
STANDARD_LATE_VIOLATION = Table.standard(["A", "B", "C"], [
    *((f"g{i:02d}", f"b{k}", f"c{i}") for i in range(30) for k in range(2)),
    ("zz", "p", "q"),
    ("zz", "p2", "r"),
])


def wide_rhs(width: int) -> tuple:
    """(table, A0 -> A1 ... A{width}): two vague tuples sharing the binding
    A0 = k, each rhs cell {v0|...|v7}, so each tuple's answer set under k
    has 8**width rows.  pfd and vertical hold, strong does not.
    `tests/data/wide_rhs.vtab` and `.fds` hold width 7."""
    rhs = [f"A{i}" for i in range(1, width + 1)]
    cell = {f"v{i}" for i in range(8)}
    table = Table.vague(["A0", *rhs], [("k", *[cell] * width), ({"j", "k"}, *[cell] * width)])
    return table, FunctionalDependency({"A0"}, rhs)


def with_pfd_broken(table: Table, attr: str) -> Table:
    """Vague `table` plus two tuples, p at every attribute but `attr`, where
    they hold {p|q} and p.  An FD with `attr` on its rhs but not its lhs
    fails as a pfd, yet both tuples can take p, so `check_seamless` must
    search where the pfd test answered for `table`."""
    attrs = table.schema.attributes
    pair = [["p"] * len(attrs) for _ in range(2)]
    pair[0][attrs.index(attr)] = {"p", "q"}
    return Table.vague(attrs, [t.cells for t in table.tuples] + pair)
