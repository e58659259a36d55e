"""Enforcement index: counter semantics, atomic rejection, oracle agreement."""

import collections
import itertools
import random
import time
from pathlib import Path

import pytest

from fdlab import (
    Conflict,
    DisjunctiveTuple,
    IndexContractError,
    Model,
    PfdIndex,
    PfdRejected,
    Schema,
    SchemaError,
    StandardTuple,
    Table,
    VagueTuple,
    ValuationBudgetExceeded,
    check_pfd,
    parse_fds,
    parse_table,
)

import oracles as O
import tables as T
from insert_bench import bench_inserts
from tables import fd
from gen import rand_cell

DATA = Path(__file__).parent / "data"
ES = Schema(("employee", "superior"))
ES_FD = fd("employee", "superior")


def vtuple(*cells):
    return VagueTuple(ES, cells)


class TestBasics:
    def test_new_index_is_empty(self):
        assert len(PfdIndex(ES_FD, ES)) == 0

    def test_insert_then_duplicate_counts_support(self):
        idx = PfdIndex(ES_FD, ES)
        t = vtuple("John", {"Jill", "Bob"})
        idx.insert(t)
        idx.insert(t)
        ((binding, (answers, support)),) = idx.entries().items()
        assert binding == ("John",)
        assert answers == frozenset({("Jill",), ("Bob",)})
        assert support == 2

    def test_conflicting_answer_set_rejected(self):
        idx = PfdIndex(ES_FD, ES)
        idx.insert(vtuple("John", {"Jill", "Bob"}))
        with pytest.raises(PfdRejected) as err:
            idx.insert(vtuple("John", "Jill"))
        assert err.value.binding == ("John",)
        assert err.value.stored == frozenset({("Jill",), ("Bob",)})
        assert err.value.offered == frozenset({("Jill",)})

    def test_rejection_is_atomic(self):
        idx = PfdIndex(ES_FD, ES)
        idx.insert(vtuple("John", "Jill"))
        before = idx.entries()
        # First binding (Jane) is fresh, second (John) conflicts; nothing may stick.
        with pytest.raises(PfdRejected):
            idx.insert(vtuple({"Jane", "John"}, "Bob"))
        assert idx.entries() == before

    def test_no_joint_world_tuples_both_accepted(self):
        idx = PfdIndex(T.AB, T.NO_JOINT_WORLD.schema)
        for t in T.NO_JOINT_WORLD.tuples:
            idx.insert(t)
        assert len(idx) == 1

    def test_two_indexes_are_independent(self):
        i1 = PfdIndex(ES_FD, ES)
        i2 = PfdIndex(fd("superior", "employee"), ES)
        i1.insert(vtuple("John", "Jill"))
        assert len(i1) == 1 and len(i2) == 0

    def test_overlapping_sides_accepted(self):
        idx = PfdIndex(fd("employee", "employee superior"), ES)
        t = vtuple("John", {"Jill", "Bob"})
        idx.insert(t)
        ((_, (answers, _)),) = idx.entries().items()
        assert answers == frozenset({("John", "Jill"), ("John", "Bob")})

    def test_tuple_of_another_schema_rejected(self):
        # In attribute order C,A the binding (c, a) would miss the stored (a, c)
        # entry, so a conflicting tuple would slip in.
        idx = PfdIndex(fd("A C", "B"), Schema(("A", "C", "B")))
        idx.insert(VagueTuple(idx.schema, ("a", "c", "b1")))
        message = r"^tuple schema \('C', 'A', 'B'\) differs from index schema \('A', 'C', 'B'\)$"
        with pytest.raises(SchemaError, match=message):
            idx.insert(VagueTuple(Schema(("C", "A", "B")), ("c", "a", "b2")))
        assert len(idx) == 1

    def test_equality_against_a_non_index_is_not_implemented(self):
        idx = PfdIndex(ES_FD, ES)
        assert idx.__eq__(idx.entries()) is NotImplemented and idx != idx.entries()


class TestRemove:
    def test_insert_remove_roundtrip(self):
        idx = PfdIndex(ES_FD, ES)
        t = vtuple("John", {"Jill", "Bob"})
        idx.insert(t)
        idx.remove(t)
        assert len(idx) == 0

    def test_entry_survives_while_supported(self):
        idx = PfdIndex(ES_FD, ES)
        t = vtuple("John", "Jill")
        idx.insert(t)
        idx.insert(t)
        idx.remove(t)
        assert idx.entries()[("John",)][1] == 1

    def test_remove_on_empty_index_errors(self):
        idx = PfdIndex(ES_FD, ES)
        with pytest.raises(IndexContractError):
            idx.remove(vtuple("John", "Jill"))

    def test_remove_of_differently_shaped_tuple_errors(self):
        idx = PfdIndex(ES_FD, ES)
        idx.insert(vtuple("John", {"Jill", "Bob"}))
        with pytest.raises(IndexContractError):
            idx.remove(vtuple("John", "Jill"))


class TestCheck:
    def test_dry_run_matches_insert_without_mutation(self):
        idx = PfdIndex(ES_FD, ES)
        idx.insert(vtuple("John", {"Jill", "Bob"}))
        before = idx.entries()
        good = vtuple("John", {"Jill", "Bob"})
        bad = vtuple("John", "Jill")
        assert idx.check(good) is None
        conflict = idx.check(bad)
        assert conflict is not None and conflict.binding == ("John",)
        assert idx.entries() == before
        assert idx.check(bad) == conflict  # re-probe is stable

    def test_empty_index_accepts_anything(self):
        idx = PfdIndex(ES_FD, ES)
        assert idx.check(vtuple({"a", "b"}, {"c", "d"})) is None


def test_answers_past_the_cap_raise_before_any_row_is_built():
    # wide_rhs.vtab's first tuple answers A0 = k with 8^7 rows, and the
    # offered tuple with 7^7 others: a conflict, or the snapshot, past the
    # cap raises at once, and the rejected insert changes nothing.
    table = parse_table((DATA / "wide_rhs.vtab").read_text())
    f = parse_fds((DATA / "wide_rhs.fds").read_text())[0]
    idx = PfdIndex(f, table.schema)
    idx.insert(table.tuples[0])
    offered = VagueTuple(table.schema, ["k", *[{f"v{i}" for i in range(7)}] * 7])
    for call in (lambda: idx.check(offered), lambda: idx.insert(offered), idx.entries):
        start = time.perf_counter()
        with pytest.raises(ValuationBudgetExceeded):
            call()
        assert time.perf_counter() - start < 1
    assert idx == PfdIndex.rebuild(f, table.schema, table.tuples[:1])


def count_scans(idx):
    """Record every tuple the index runs its binding pass on."""
    scanned = []
    bind = idx._bind
    idx._bind = lambda tuples: bind(scanned.append(t) or t for t in tuples)
    return scanned


def offer(idx, t):
    """insert(t), reporting a rejection as the Conflict it carries."""
    try:
        idx.insert(t)
    except PfdRejected as err:
        return Conflict(err.binding, err.stored, err.offered)
    return None


class TestReuseSlot:
    def test_insert_right_after_check_reuses_the_scan(self):
        idx = PfdIndex(ES_FD, ES)
        scanned = count_scans(idx)
        t = vtuple("John", {"Jill", "Bob"})
        assert idx.check(t) is None
        idx.insert(t)
        assert scanned == [t]

    def test_write_between_check_and_insert_forces_a_rescan(self):
        idx = PfdIndex(ES_FD, ES)
        t, u = vtuple("John", {"Jill", "Bob"}), vtuple("John", "Jill")
        assert idx.check(t) is None
        idx.insert(u)
        with pytest.raises(PfdRejected) as err:
            idx.insert(t)
        assert (err.value.stored, err.value.offered) == (frozenset({("Jill",)}), frozenset({("Jill",), ("Bob",)}))
        assert idx.entries() == {("John",): (frozenset({("Jill",)}), 1)}

    def test_removing_the_conflicting_tuple_lets_insert_succeed(self):
        idx = PfdIndex(ES_FD, ES)
        t, u = vtuple("John", {"Jill", "Bob"}), vtuple("John", "Jill")
        idx.insert(u)
        assert idx.check(t) == Conflict(("John",), frozenset({("Jill",)}), frozenset({("Jill",), ("Bob",)}))
        idx.remove(u)
        idx.insert(t)
        assert idx == PfdIndex.rebuild(ES_FD, ES, [t])

    def test_equal_but_distinct_tuple_is_rescanned(self):
        idx = PfdIndex(ES_FD, ES)
        scanned = count_scans(idx)
        t = vtuple("John", {"Jill", "Bob"})
        twin = vtuple("John", {"Jill", "Bob"})
        assert twin == t and twin is not t
        assert idx.check(t) is None
        idx.insert(twin)
        assert scanned == [t, twin] and scanned[1] is twin

    def test_rejected_insert_keeps_the_slot_valid(self):
        idx = PfdIndex(ES_FD, ES)
        scanned = count_scans(idx)
        idx.insert(vtuple("John", "Jill"))
        t = vtuple("John", "Bob")
        for _ in range(3):
            with pytest.raises(PfdRejected):
                idx.insert(t)
        assert scanned.count(t) == 1

    @pytest.mark.parametrize("target", [fd("A", "B"), fd("A", "A B"), fd("B", "A")])
    def test_random_interleavings_match_rebuild(self, target):
        rng = random.Random(13)
        schema = Schema(("A", "B"))
        rejected = 0
        for _ in range(40):
            idx = PfdIndex(target, schema)
            live = []
            for _ in range(rng.randint(1, 25)):
                t = VagueTuple(schema, (rand_cell(rng), rand_cell(rng)))
                assert idx.check(t) == PfdIndex.rebuild(target, schema, live).check(t)
                roll = rng.random()
                if roll < 0.25 and live:  # a write between check(t) and insert(t)
                    victim = rng.choice(live)
                    idx.remove(victim)
                    live.remove(victim)
                elif roll < 0.5:
                    u = VagueTuple(schema, (rand_cell(rng), rand_cell(rng)))
                    if idx.check(u) is None:
                        idx.insert(u)
                        live.append(u)
                elif roll < 0.6:  # an equal but distinct object
                    t = VagueTuple(schema, t.cells)
                expected = PfdIndex.rebuild(target, schema, live).check(t)
                assert offer(idx, t) == expected
                rejected += expected is not None
                if expected is None:
                    live.append(t)
                assert idx == PfdIndex.rebuild(target, schema, live)
        assert rejected > 50


class TestOracleAgreement:
    @pytest.mark.parametrize("target", [fd("A", "B"), fd("A", "A B"), fd("A B", "B")])
    def test_random_sequences_match_batch_recomputation(self, target):
        rng = random.Random(0)
        schema = Schema(("A", "B"))
        for _ in range(60):
            idx = PfdIndex(target, schema)
            live = []
            for _ in range(rng.randint(1, 25)):
                if live and rng.random() < 0.3:
                    victim = rng.choice(live)
                    idx.remove(victim)
                    live.remove(victim)
                    continue
                t = VagueTuple(schema, (rand_cell(rng), rand_cell(rng)))
                batch_ok = check_pfd(Table(schema, Model.VAGUE, live + [t]), target)
                try:
                    idx.insert(t)
                    accepted = True
                except PfdRejected:
                    accepted = False
                assert accepted == batch_ok
                if accepted:
                    live.append(t)
                assert idx == PfdIndex.rebuild(target, schema, live)

    def test_disjunctive_tuples_replay(self):
        idx = PfdIndex(T.AB, T.NO_JOINT_WORLD.schema)
        for t in T.NO_JOINT_WORLD.tuples:
            idx.insert(t)
        assert idx == PfdIndex.rebuild(T.AB, T.NO_JOINT_WORLD.schema, T.NO_JOINT_WORLD.tuples)


ABC = Schema(("A", "B", "C"))


def mixed_tuple(rng):
    """A standard, vague or disjunctive tuple over A, B, C.  A disjunctive one
    holds all of a vague tuple's valuations, so its answers are products, or
    a random part of them, so some are not."""
    cells = [frozenset(rng.sample(("p", "q"), rng.randint(1, 2))) for _ in ABC]
    kind = rng.randrange(4)
    if kind == 0:
        return StandardTuple(ABC, [rng.choice(sorted(c)) for c in cells])
    if kind == 1:
        return VagueTuple(ABC, cells)
    rows = list(itertools.product(*map(sorted, cells)))
    return DisjunctiveTuple(ABC, rows if kind == 2 else rng.sample(rows, rng.randint(1, len(rows))))


class TestMixedModels:
    def test_answers_compare_across_models(self):
        # A standard tuple's answer is a vague one's with the same singleton
        # cells; a disjunctive product is the vague tuple of its cells; any
        # other disjunctive answer is its own row set.
        idx = PfdIndex(fd("A", "B C"), ABC)
        idx.insert(StandardTuple(ABC, ("a", "b", "c")))
        assert idx.check(VagueTuple(ABC, ("a", "b", "c"))) is None
        assert idx.check(DisjunctiveTuple(ABC, [("a", "b", "c")])) is None
        square = frozenset(itertools.product(("b1", "b2"), ("c1", "c2")))
        diagonal = frozenset({("b1", "c1"), ("b2", "c2")})
        idx.insert(VagueTuple(ABC, ("x", {"b1", "b2"}, {"c1", "c2"})))
        assert idx.check(DisjunctiveTuple(ABC, [("x",) + row for row in square])) is None
        assert idx.check(DisjunctiveTuple(ABC, [("x",) + row for row in diagonal])) == Conflict(("x",), square, diagonal)
        idx.insert(DisjunctiveTuple(ABC, [("y",) + row for row in diagonal]))
        assert idx.check(VagueTuple(ABC, ("y", {"b1", "b2"}, {"c1", "c2"}))) == Conflict(("y",), diagonal, square)
        assert idx.entries() == {("a",): (frozenset({("b", "c")}), 1), ("x",): (square, 1), ("y",): (diagonal, 1)}

    @pytest.mark.parametrize("target", [fd("A", "B"), fd("A", "B C"), fd("A B", "C"), fd("A", "A B")])
    def test_random_mixed_sequences_match_the_row_set_index(self, target):
        rng = random.Random(23)
        kinds = collections.Counter()
        for _ in range(40):
            idx, oracle, live = PfdIndex(target, ABC), O.RowSetIndex(target, ABC), []
            for _ in range(rng.randint(1, 25)):
                if live and rng.random() < 0.25:
                    victim = live.pop(rng.randrange(len(live)))
                    idx.remove(victim)
                    oracle.remove(victim)
                else:
                    t = mixed_tuple(rng)
                    want = oracle.check(t)
                    want = None if want is None else Conflict(*want)
                    assert idx.check(t) == want
                    assert offer(idx, t) == want
                    kinds[type(t).__name__, want is None] += 1
                    if isinstance(t, DisjunctiveTuple):
                        for _, rows in oracle.contributions(t):
                            kinds[len(rows) > 1 and type(O.canonical_answer(rows)).__name__] += 1
                    if want is None:
                        oracle.insert(t)
                        live.append(t)
                assert idx.entries() == oracle.entries()
        assert min(kinds[name, ok] for name in ("StandardTuple", "VagueTuple", "DisjunctiveTuple")
                   for ok in (True, False)) > 5
        # Disjunctive answers of several rows: products, and others where Y - X has two attributes.
        assert kinds["tuple"] > 20 and (kinds["frozenset"] > 10) == (len(target.rhs - target.lhs) > 1)


def test_bench_report_shape():
    report = bench_inserts(sizes=(50, 100), probes=30)
    assert set(report.medians_ns) == {50, 100}
    assert report.median_spread >= 1.0
    assert "median_spread" in report.to_text()
