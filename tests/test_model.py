"""Core model layer: projection, equality, worlds."""

import os
import random
import re
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings, strategies as st

from fdlab import (
    DisjunctiveTuple,
    Model,
    ModelError,
    Schema,
    SchemaError,
    StandardTuple,
    Table,
    ValuationBudgetExceeded,
    VagueTuple,
    WorldLimitExceeded,
    enumerate_worlds,
    project_table,
    project_tuple,
    to_disjunctive,
    to_disjunctive_tuple,
)

from fdlab import model
from fdlab.model import _world

from gen import rand_disjunctive_table, rand_standard_table, rand_vague_table
from tables import TRANSITIVITY_TRAP, NO_JOINT_WORLD


S2 = Schema(("Employee", "Superior"))


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(("A", "A"))

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Schema(("A", ""))

    def test_restrict_reuses_the_checked_names(self, monkeypatch):
        s = Schema(("A", "B", "C"))
        monkeypatch.setattr(Schema, "__init__", lambda *args: pytest.fail("names checked again"))
        sub = s.restrict({"C", "A"})
        with pytest.raises(SchemaError, match="unknown attributes"):
            s.restrict({"D"})
        monkeypatch.undo()
        assert sub == Schema(("A", "C")) and hash(sub) == hash(Schema(("A", "C")))

    @pytest.mark.parametrize("name", ["#A", "#", "#model:"])
    def test_name_beginning_with_hash_rejected(self, name):
        # A header line that begins with '#' reads back as a comment.
        with pytest.raises(SchemaError, match="must not begin with '#'"):
            Schema((name, "B"))

    @pytest.mark.parametrize("make", [
        lambda s: StandardTuple(s, ("#a", "b")),
        lambda s: VagueTuple(s, ({"#a", "a"}, "b")),
        lambda s: DisjunctiveTuple(s, [("a", "b"), ("a", "#b")]),
    ], ids=["standard", "vague", "disjunctive"])
    def test_value_beginning_with_hash_rejected(self, make):
        # A row whose first value begins with '#' reads back as a comment.
        with pytest.raises(SchemaError, match="must not begin with '#'"):
            make(Schema(("A", "B")))

    @pytest.mark.parametrize("make, error, message", [
        (lambda s: Schema(("A", "B(")), SchemaError, "attribute name 'B(': characters ,|{}() are reserved"),
        (lambda s: StandardTuple(s, ("a ", "b")), SchemaError, "bad value 'a ': must be a non-empty trimmed string"),
        (lambda s: StandardTuple(s, ("a",)), SchemaError, "arity 1 does not match schema ('A', 'B')"),
        (lambda s: VagueTuple(s, ("a", "b", "c")), SchemaError, "arity 3 does not match schema ('A', 'B')"),
        (lambda s: DisjunctiveTuple(s, [("a", "b"), ("a",)]), SchemaError,
         "disjunct arity 1 does not match schema ('A', 'B')"),
        (lambda s: VagueTuple(s, ("a", set())), SchemaError, "empty cell for attribute B"),
        (lambda s: DisjunctiveTuple(s, []), SchemaError, "disjunctive tuple needs at least one disjunct"),
        (lambda s: Table(s, Model.VAGUE, [StandardTuple(s, ("a", "b"))]), ModelError,
         "vague table cannot hold a StandardTuple"),
        (lambda s: Table(s, Model.STANDARD, [StandardTuple(Schema(("B", "A")), ("b", "a"))]), SchemaError,
         "tuple schema ('B', 'A') differs from table schema ('A', 'B')"),
    ], ids=["reserved-name", "untrimmed-value", "standard-arity", "vague-arity", "disjunct-arity",
            "empty-cell", "empty-disjunction", "wrong-model", "other-schema"])
    def test_malformed_input_rejected(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make(Schema(("A", "B")))

    def test_hash_inside_a_name_or_value_is_kept(self):
        t = StandardTuple(Schema(("A#", "B")), ("a#1", "b"))
        assert t.schema.attributes == ("A#", "B") and t.values == ("a#1", "b")

    def test_positions_preserve_schema_order(self):
        s = Schema(("A", "B", "C"))
        assert s.positions({"C", "A"}) == (0, 2)

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            Schema(("A",)).positions({"Z"})


class TestProjection:
    def test_standard_projection(self):
        t = StandardTuple(S2, ("John", "Jill"))
        assert project_tuple(t, {"Employee"}) == StandardTuple(Schema(("Employee",)), ("John",))

    def test_identity_projection(self):
        t = VagueTuple(S2, ("John", {"Jill", "Bob"}))
        assert project_tuple(t, set(S2)) == t

    def test_disjunct_projection_deduplicates(self):
        t = DisjunctiveTuple(
            S2,
            [("John", "Jill"), ("John", "Bob"), ("Peter", "Jill"), ("Peter", "Bob")],
        )
        p = project_tuple(t, {"Superior"})
        assert p.disjuncts == frozenset({("Jill",), ("Bob",)})

    def test_model_is_preserved(self):
        for t in (
            StandardTuple(S2, ("a", "b")),
            VagueTuple(S2, ("a", {"b", "c"})),
            DisjunctiveTuple(S2, [("a", "b")]),
        ):
            assert type(project_tuple(t, {"Employee"})) is type(t)

    def test_table_projection_collapses(self):
        r = Table.vague(["A", "B"], [("a", {"b1", "b2"}), ("a", "b3")])
        assert len(project_table(r, {"A"})) == 1
        assert len(project_table(r, {"B"})) == 2

    def test_empty_projection_gives_single_empty_tuple(self):
        r = Table.vague(["A", "B"], [("a", "b"), ("a2", "b2")])
        p = project_table(r, set())
        assert len(p) == 1 and len(p.schema) == 0


class TestEquality:
    def test_vague_cells_are_sets(self):
        t1 = VagueTuple(S2, ("a", {"b1", "b2"}))
        t2 = VagueTuple(S2, ("a", {"b2", "b1"}))
        assert t1 == t2

    def test_disjunctive_attributewise_agreement_is_insufficient(self):
        # Both tuples take the same values attribute by attribute, yet their
        # valuation sets differ.
        t1 = DisjunctiveTuple(S2, [("a", "b"), ("a2", "b2")])
        t2 = DisjunctiveTuple(S2, [("a2", "b"), ("a", "b2")])
        for attr in S2:
            assert project_tuple(t1, {attr}) == project_tuple(t2, {attr})
        assert t1 != t2


def test_first_bad_input_is_named_under_every_hash_seed():
    # A caller's set is read in a fixed order, and a list in its own order,
    # so the error does not depend on the order a set hashes into.
    script = textwrap.dedent("""
        from fdlab import Table
        for build in (
            lambda: Table.standard(["A"], [{"#x", "#y", "#z", "#w"}]),
            lambda: Table.vague(["A"], [{"#x", "#y", "#z", "#w"}]),
            lambda: Table.vague(["A"], [[{"#x", "#y", "#z", "#w"}]]),
            lambda: Table.disjunctive(["A"], [{("#x",), ("#y",), ("#z",), ("#w",)}]),
            lambda: Table.disjunctive(["A"], [[("a",), ("a", "b", "c"), ("x", "y", "z", "w")]]),
            lambda: Table.disjunctive(["A"], [{("a",), ("a", "b", "c"), ("x", "y", "z", "w")}]),
        ):
            try:
                build()
            except Exception as exc:
                print(f"{type(exc).__name__}: {exc}")
    """)
    runs = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": str(seed)}).stdout for seed in range(1, 7)}
    bad_value = "SchemaError: bad value '#w': must not begin with '#', which starts a comment line\n"
    bad_arity = "SchemaError: disjunct arity 3 does not match schema ('A',)\n"
    assert runs == {bad_value * 4 + bad_arity * 2}


class TestWorlds:
    def test_transitivity_trap_has_four_worlds(self):
        assert len(enumerate_worlds(TRANSITIVITY_TRAP)) == 4

    def test_standard_table_is_its_own_world(self):
        r = Table.standard(["A"], [("a",), ("b",)])
        assert enumerate_worlds(r) == [r]

    def test_duplicates_are_removed_within_a_world(self):
        r = Table.vague(["A"], [({"a", "b"},), ("a",)])
        worlds = enumerate_worlds(r)
        assert Table.standard(["A"], [("a",)]) in worlds

    def test_limit_signals_truncation(self):
        with pytest.raises(WorldLimitExceeded):
            enumerate_worlds(TRANSITIVITY_TRAP, limit=3)
        assert len(enumerate_worlds(TRANSITIVITY_TRAP, limit=4)) == 4

    def test_cap_bounds_the_product_steps(self):
        # Four valuations: a cap of 3 raises before any world is built.
        with pytest.raises(ValuationBudgetExceeded):
            enumerate_worlds(TRANSITIVITY_TRAP, cap=3)
        assert len(enumerate_worlds(TRANSITIVITY_TRAP, cap=4)) == 4

    def test_no_joint_world_table_has_four_worlds(self):
        assert len(enumerate_worlds(NO_JOINT_WORLD)) == 4

    def test_world_from_raw_rows_is_the_standard_table(self):
        # `_world` sorts the raw rows itself instead of going through
        # `Table.__init__`: same table, same hash, same tuple order.
        rng = random.Random(15)
        schema = Schema(["A", "B", "C"])
        cases = [[]]
        for _ in range(200):
            rows = [tuple(rng.choice("pqr") for _ in schema) for _ in range(rng.randint(1, 12))]
            rows += rng.choices(rows, k=rng.randint(1, 4))
            rng.shuffle(rows)
            cases.append(rows)
        for rows in cases:
            world = _world(schema, rows)
            table = Table(schema, Model.STANDARD, [StandardTuple(schema, r) for r in rows])
            assert world == table and hash(world) == hash(table)
            assert world.tuples == table.tuples and world.model is Model.STANDARD


class TestConversions:
    def test_vague_expands_to_product(self):
        t = VagueTuple(S2, ("a", {"b1", "b2"}))
        assert to_disjunctive_tuple(t).disjuncts == frozenset({("a", "b1"), ("a", "b2")})

    def test_standard_becomes_single_disjunct(self):
        t = StandardTuple(S2, ("a", "b"))
        assert to_disjunctive_tuple(t).disjuncts == frozenset({("a", "b")})

    def test_standard_tuple_has_its_values_as_one_valuation(self):
        t = StandardTuple(S2, ("a", "b"))
        assert list(t.valuations()) == [("a", "b")] and t.valuation_count() == 1
        assert Table.standard(S2, [("a", "b"), ("a2", "b")]).valuation_count() == 1

    def test_valuations_come_in_value_order(self):
        # Vertical's tuple order and `_rows_under` read valuations unsorted.
        rng = random.Random(14)
        for make in (rand_standard_table, rand_vague_table, rand_disjunctive_table):
            for _ in range(100):
                for t in make(rng).tuples:
                    assert list(t.valuations()) == sorted(t.valuations())

    def test_world_sets_agree_after_conversion(self):
        assert set(enumerate_worlds(TRANSITIVITY_TRAP)) == set(enumerate_worlds(to_disjunctive(TRANSITIVITY_TRAP)))


def flat_key(t: VagueTuple) -> tuple:
    """Each cell's sorted values, each cell closed by "" (no value is empty)."""
    return tuple(v for cell in t.cells for v in (*sorted(cell), ""))


def test_canonical_vague_order_is_the_flat_key_order():
    # Table sorts vague tuples on nested per-cell keys; the flat key orders
    # them the same, prefix cells included, so either may be used.
    prefix = Table.vague(S2, [({"a", "b", "c"}, "x"), ({"a", "b"}, "y"), ("a", "z"), ({"a", "b"}, "x")])
    assert [t.render() for t in prefix.tuples] == ["a,z", "{a|b},x", "{a|b},y", "{a|b|c},x"]
    rng = random.Random(32)
    for table in [prefix] + [rand_vague_table(rng, max_tuples=12) for _ in range(300)]:
        assert list(table.tuples) == sorted(table.tuples, key=flat_key)


def test_standard_and_disjunctive_order_is_the_valuation_order():
    # Vertical reads these tables in their own order as the disjunctive form's.
    rng = random.Random(33)
    for make in (rand_standard_table, rand_disjunctive_table):
        for _ in range(200):
            table = make(rng, max_tuples=8)
            assert list(table) == list(table.tuples) == sorted(table.tuples, key=lambda t: list(t.valuations()))


# --- hypothesis strategies -------------------------------------------------

values = st.sampled_from(["u", "v", "w"])
cells = st.frozensets(values, min_size=1, max_size=3)


def vague_tables(n_attrs=2):
    schema = [f"A{i}" for i in range(n_attrs)]
    row = st.tuples(*[cells] * n_attrs)
    return st.lists(row, min_size=1, max_size=3).map(lambda rows: Table.vague(schema, rows))


@given(vague_tables())
@settings(max_examples=60, deadline=None)
def test_prop_vague_equality_is_attribute_wise(table):
    for t1 in table.tuples:
        for t2 in table.tuples:
            attr_wise = all(
                project_tuple(t1, {a}) == project_tuple(t2, {a}) for a in table.schema
            )
            assert (t1 == t2) == attr_wise


def test_conversion_counts_each_tuples_valuations_before_listing_them(monkeypatch):
    # wide_rhs.vtab's tuples have 8^7 valuations each, over the default cap.
    wide = Table.vague([f"A{i}" for i in range(8)], [["k", *[{f"v{i}" for i in range(8)}] * 7]])
    start = time.perf_counter()
    with pytest.raises(ValuationBudgetExceeded):
        to_disjunctive(wide)
    assert time.perf_counter() - start < 1
    # The cap is the model's default: at 4, a tuple of 4 valuations is listed and one of 6 raises.
    monkeypatch.setattr(model, "DEFAULT_VALUATION_CAP", 4)
    table = Table.vague(["A", "B"], [[{"a", "b"}, {"c", "d"}], ["e", "f"]])
    assert to_disjunctive(table) == Table.disjunctive(["A", "B"], [
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")], [("e", "f")]])
    with pytest.raises(ValuationBudgetExceeded, match="budget of 4 "):
        to_disjunctive(Table.vague(["A", "B"], [[{"a", "b"}, {"c", "d", "e"}]]))


@given(vague_tables())
@settings(max_examples=40, deadline=None)
def test_prop_conversion_preserves_worlds(table):
    assert set(enumerate_worlds(table)) == set(enumerate_worlds(to_disjunctive(table)))
