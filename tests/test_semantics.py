"""Checker semantics: worked-table verdicts, selection, resemblance, dispatcher."""

import functools
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fdlab import (
    DisjunctiveTuple,
    FunctionalDependency,
    ModelError,
    Schema,
    SchemaError,
    Semantics,
    StandardTuple,
    Table,
    ValuationBudgetExceeded,
    VagueTuple,
    check,
    check_pfd,
    check_rm,
    check_seamless,
    check_standard,
    check_strong,
    check_vertical,
    check_weak,
    enumerate_worlds,
    parse_fds,
    parse_table,
    project_table,
    resemblance,
    select,
    seamless_valuation_rows,
    to_disjunctive,
    tuple_resemblance,
)
from fdlab import semantics
from fdlab.semantics import _valuation_order, find_pfd_violation, find_strong_violation, find_vertical_violation

import tables as T
from oracles import check_pfd_decomposed
from tables import fd
from gen import (
    grouped_vague_table, paired_lhs_vague_table, rand_disjunctive_table, rand_fd, rand_vague_table,
    unique_lhs_vague_table,
)


def counting_binder(monkeypatch):
    """Record each `_binder` construction and each tuple its passes reach."""
    built, calls = [], []
    real = semantics._binder

    def binder(*args):
        built.append(args)
        bind = real(*args)
        return lambda tuples: bind(calls.append(t) or t for t in tuples)

    monkeypatch.setattr(semantics, "_binder", binder)
    return built, calls


class TestSelect:
    def test_vague_selection_keeps_all_valuations(self):
        t = VagueTuple(Schema(("employee", "superior")), ("John", {"Jill", "Bob"}))
        r = select(t, {"employee"}, ("John",))
        assert r.answers == frozenset({("John", "Jill"), ("John", "Bob")})

    def test_no_agreement_is_empty(self):
        t = VagueTuple(Schema(("employee", "superior")), ("John", {"Jill", "Bob"}))
        assert select(t, {"employee"}, ("Peter",)).answers == frozenset()

    def test_disjunct_filtering_with_projection(self):
        t = DisjunctiveTuple(Schema(("A", "B")), [("a", "b"), ("a", "b2"), ("a2", "b3")])
        r = select(t, {"A"}, ("a",), onto={"B"})
        assert r.answers == frozenset({("b",), ("b2",)})

    def test_selected_elements_agree_with_binding(self):
        t = DisjunctiveTuple(Schema(("A", "B")), [("a", "b"), ("a2", "b2")])
        r = select(t, {"A"}, ("a",))
        assert all(row[0] == "a" for row in r.answers)

    @pytest.mark.parametrize("t", [
        StandardTuple(Schema(("A", "B")), ("a", "b")),
        VagueTuple(Schema(("A", "B")), ("a", {"b", "c"})),
        DisjunctiveTuple(Schema(("A", "B")), [("a", "b"), ("a", "c")]),
    ], ids=["standard", "vague", "disjunctive"])
    @pytest.mark.parametrize("x_attrs, binding", [
        ({"A"}, ()), ({"A"}, ("a", "zzz")), ({"A", "B"}, ("a",)), (set(), ("a",)),
    ], ids=["short", "long", "short-of-two", "long-for-none"])
    def test_binding_of_the_wrong_arity_rejected(self, t, x_attrs, binding):
        with pytest.raises(SchemaError, match="binding"):
            select(t, x_attrs, binding)


class TestStandard:
    def test_direct_violation(self):
        r = Table.standard(["A", "B"], [("a", "b"), ("a", "b2")])
        assert not check_standard(r, T.AB)

    def test_reflexive_fd_always_holds(self):
        r = Table.standard(["A", "B"], [("a", "b"), ("a", "b2")])
        assert check_standard(r, fd("A B", "A"))

    def test_matching_world_satisfies_all_three(self):
        for f in (fd("X", "T"), fd("Y", "T"), fd("Z", "T")):
            assert check_standard(T.MATCHING_WITNESS, f)

    def test_wrong_model_rejected(self):
        with pytest.raises(ModelError):
            check_standard(T.TRANSITIVITY_TRAP, T.AB)


class TestStrongWeak:
    def test_joejack_strong_fails_but_projection_holds(self):
        assert not check_strong(T.JOEJACK, T.JOEJACK_FD)
        proj = project_table(T.JOEJACK, {"department", "manager"})
        assert check_strong(proj, T.JOEJACK_FD)

    def test_single_tuple_table_strongly_satisfies(self):
        r = Table.vague(["A", "B"], [({"a", "a2"}, {"b", "b2"})])
        assert check_strong(r, T.AB)

    def test_weak_verdicts_on_transitivity_trap(self):
        assert check_weak(T.TRANSITIVITY_TRAP, T.AB)
        assert check_weak(T.TRANSITIVITY_TRAP, T.BC)
        assert not check_weak(T.TRANSITIVITY_TRAP, T.AC)

    def test_weak_holds_on_resemblance_trap(self):
        assert check_weak(T.RESEMBLANCE_TRAP, T.AB)

    def test_strong_implies_weak(self):
        rng = random.Random(0)
        for _ in range(40):
            t = rand_vague_table(rng)
            f = rand_fd(rng, t.schema.attributes)
            if check_strong(t, f):
                assert check_weak(t, f)

    def test_budget_error_is_distinct(self):
        r = Table.vague(["A"], [({"a", "b"},), ({"c", "d"},)])
        with pytest.raises(ValuationBudgetExceeded):
            check_strong(r, fd("A", "A"), valuation_cap=1)


def assert_world_satisfying(w, r, fds):
    """`w` takes one valuation of every tuple of `r` and satisfies `fds`."""
    assert all(check_standard(w, f) for f in fds)
    valuations = [set(t.valuations()) for t in r.tuples]
    rows = {t.values for t in w.tuples}
    assert rows <= set().union(*valuations)
    assert all(v & rows for v in valuations)


class TestSeamless:
    def test_transitivity_trap_pair_unsatisfiable(self):
        assert check_seamless(T.TRANSITIVITY_TRAP, [T.AB, T.BC]) is None

    def test_no_joint_world_pair_unsatisfiable(self):
        assert check_seamless(T.NO_JOINT_WORLD, [T.AB, T.CD]) is None

    def test_witness_is_a_world_satisfying_everything(self):
        w = check_seamless(T.TRANSITIVITY_TRAP, [T.AB])
        assert w is not None
        assert check_standard(w, T.AB)
        assert w in set(enumerate_worlds(T.TRANSITIVITY_TRAP))

    def test_budget_error(self):
        r = Table.vague(["A", "B"], [({"a", "b", "c"}, {"x", "y"})])
        with pytest.raises(ValuationBudgetExceeded):
            check_seamless(r, [fd("A", "B")], budget=2)
        # A trivial FD reads no lhs binding, and pfd holds: the least world answers.
        assert check_seamless(r, [fd("A", "A")], budget=2) == Table.standard(["A", "B"], [("a", "x")])

    def test_trivial_fds_link_no_tuples(self):
        # Six two-disjunct tuples share A = a.  A trivial FD holds in every
        # world, so the search reads the set's cover, which leaves it out, and
        # no tuple is searched: the least world answers at budget 2, the
        # valuation floor.  A search that read every FD as given linked the
        # tuples and took one step per tuple (least budget 6, on the second
        # table also under A B -> A, whose binding (a, c) every tuple holds).
        least = Table.standard(["A", "B"], [("a", f"b{i}") for i in range(6)])
        for c in ("c{}", "c"):
            r = Table.disjunctive(["A", "B"], [[("a", f"b{i}"), ("a", c.format(i))] for i in range(6)])
            for f in (fd("A", ""), fd("A", "A"), fd("A B", "A")):
                assert check_seamless(r, [f], budget=2) == least
                with pytest.raises(ValuationBudgetExceeded):
                    check_seamless(r, [f], budget=1)

    def test_implied_fds_take_no_steps(self):
        # A C -> B follows from A -> B, so the search reads A -> B alone and
        # has its least budget, 37, whatever the FD order.
        r = T.free_standing_retry_with_pairs(2)
        for fds in ([T.AB], [T.AB, fd("A C", "B")], [fd("A C", "B"), T.AB]):
            assert check_seamless(r, fds, budget=37) is None
            with pytest.raises(ValuationBudgetExceeded):
                check_seamless(r, fds, budget=36)

    def test_standard_tables_are_decided_without_a_search(self):
        # A standard table is its own only world, so no cap is reached there.
        r = T.STANDARD_LATE_VIOLATION
        assert all(check_seamless(r, [T.AC], budget) is None for budget in (1, 10, 40))
        assert check_weak(r, T.AC, 10) is False
        assert check_seamless(r, [fd("A B", "C")], 1) == r

    def test_search_depth_is_not_bounded_by_the_stack(self):
        # One search level per tuple: a recursive search overflows here.
        r = Table.standard(["A", "B"], [(f"a{i:05d}", f"b{i % 50}") for i in range(1_500)])
        assert check_seamless(r, [T.AB]) == r
        assert check_weak(r, T.AB)

    def test_vague_search_without_dead_ends_is_near_linear(self):
        # 1,000 tuples, three FDs, no dead end: re-filtering every
        # unassigned tuple's valuations at every node takes well over 15 s.
        # The pair that breaks pfd makes the search run.
        r, fds = grouped_vague_table(random.Random(1), 1_000)
        r = T.with_pfd_broken(r, "C")
        start = time.perf_counter()
        w = check_seamless(r, fds)
        assert time.perf_counter() - start < 5
        assert_world_satisfying(w, r, fds)

    def test_search_without_dead_ends_branches_in_log_time(self):
        # 10,000 tuples: reading every unassigned tuple's domain size at
        # every node takes ~7 s.
        r, fds = grouped_vague_table(random.Random(2), 10_000)
        r = T.with_pfd_broken(r, "C")
        start = time.perf_counter()
        w = check_seamless(r, fds)
        assert time.perf_counter() - start < 5
        assert_world_satisfying(w, r, fds)

    def test_weak_without_narrowing_branches_in_log_time(self):
        # 30,000 tuples, each the only holder of its lhs binding, so each is
        # free-standing and takes its least valuation outside the search,
        # which runs for the pair that breaks pfd.
        r, f = unique_lhs_vague_table(random.Random(1), 30_000)
        r = T.with_pfd_broken(r, "Y")
        start = time.perf_counter()
        assert check_weak(r, f)
        assert time.perf_counter() - start < 5

    def test_weak_with_linked_tuples_branches_in_log_time(self):
        # 30,000 tuples in pairs sharing a binding: unlike the unique-lhs
        # table, every tuple goes through the heap, yet none narrows another.
        # The pair that breaks pfd makes the search run.
        r, f = paired_lhs_vague_table(random.Random(1), 30_000)
        r = T.with_pfd_broken(r, "Y")
        start = time.perf_counter()
        assert check_weak(r, f)
        assert time.perf_counter() - start < 5


class TestPfd:
    def test_ssn_table_pfd_holds(self):
        assert check_pfd(T.SSN_NAMES, T.SSN_NAMES_FD)

    def test_augmentation_trap_verdicts(self):
        assert check_pfd(T.AUGMENTATION_TRAP, T.AUGMENTATION_TRAP_AC)
        assert not check_pfd(T.AUGMENTATION_TRAP, T.AUGMENTATION_TRAP_ABCB)

    def test_no_joint_world_pfds_hold(self):
        assert check_pfd(T.NO_JOINT_WORLD, T.AB)
        assert check_pfd(T.NO_JOINT_WORLD, T.CD)

    def test_impossibility_witness_pfd_without_seamless(self):
        assert check_pfd(T.NO_JOINT_WORLD, T.AB) and check_pfd(T.NO_JOINT_WORLD, T.CD)
        assert check_seamless(T.NO_JOINT_WORLD, [T.AB, T.CD]) is None

    def test_empty_lhs_requires_uniform_answers(self):
        same = Table.vague(["A", "B"], [("a", {"b", "b2"}), ("a2", {"b", "b2"})])
        diff = Table.vague(["A", "B"], [("a", {"b", "b2"}), ("a2", "b")])
        empty_to_b = FunctionalDependency(frozenset(), {"B"})
        assert check_pfd(same, empty_to_b)
        assert not check_pfd(diff, empty_to_b)

    def test_violation_names_first_pair_and_binding(self):
        v = find_pfd_violation(T.AUGMENTATION_TRAP, T.AUGMENTATION_TRAP_ABCB)
        assert v is not None
        assert v.binding == ("a", "b1")

    def test_decomposed_agrees_with_general(self):
        rng = random.Random(1)
        for _ in range(150):
            t = rand_vague_table(rng)
            f = rand_fd(rng, t.schema.attributes)
            assert check_pfd(t, f) == check_pfd_decomposed(t, f)

    def test_pfd_independent_of_irrelevant_attributes(self):
        rng = random.Random(2)
        for _ in range(80):
            t = rand_vague_table(rng)
            f = rand_fd(rng, t.schema.attributes)
            assert check_pfd(t, f) == check_pfd(project_table(t, f.lhs | f.rhs), f)


class TestVertical:
    def test_single_tuple_fails_through_extra_attribute(self):
        assert not check_vertical(T.SINGLE_VERTICAL, T.AB)
        assert check_vertical(project_table(T.SINGLE_VERTICAL, {"A", "B"}), T.AB)
        assert check_pfd(T.SINGLE_VERTICAL, T.AB)

    def test_single_tuple_is_strongly_satisfied_yet_vertical_fails(self):
        assert check_strong(T.SINGLE_VERTICAL, T.AB)
        assert not check_vertical(T.SINGLE_VERTICAL, T.AB)

    def test_conservativity_on_standard_tables(self):
        rng = random.Random(3)
        for _ in range(60):
            rows = [
                tuple(rng.choice("pq") for _ in range(2)) for _ in range(rng.randint(1, 4))
            ]
            t = Table.standard(["A", "B"], rows)
            f = rand_fd(rng, t.schema.attributes)
            assert check_vertical(t, f) == check_standard(t, f)

    def test_vertical_implies_pfd(self):
        rng = random.Random(4)
        for _ in range(80):
            t = rand_disjunctive_table(rng)
            f = rand_fd(rng, t.schema.attributes)
            if check_vertical(t, f):
                assert check_pfd(t, f)

    def test_wide_vague_tuple_is_checked_in_linear_time(self):
        # 8^4 = 4,096 valuations; a pairwise MVD test takes tens of seconds.
        r = Table.vague(["A", "B", "C", "D"], [[{f"v{i}" for i in range(8)}] * 4])
        start = time.perf_counter()
        assert check_vertical(r, T.AB)
        assert check_vertical(r, fd("A", "B D"))
        assert time.perf_counter() - start < 5

    def test_witnesses_come_in_the_disjunctive_forms_order(self):
        # The vague order puts (a,y) first, as pfd reports it; the
        # disjunctive form puts (a,x)||(b,x) first.
        r = Table.vague(["A", "B"], [[{"a", "b"}, "x"], ["a", "y"]])
        assert find_vertical_violation(r, T.AB).render() == "answer-sets-differ t1=((a,x)||(b,x)) t2=((a,y)) binding=(a)"
        assert find_pfd_violation(r, T.AB).render() == "answer-sets-differ t1=(a,y) t2=({a|b},x) binding=(a)"

    def test_a_violated_vague_table_is_bound_once_in_the_disjunctive_order(self, monkeypatch):
        # The pfd test stops at the first two tuples, which disagree under
        # a; only then are all 52 tuples sorted and bound, once.
        _, calls = counting_binder(monkeypatch)
        r = Table.vague(["A", "B"], [[{"a", "b"}, "x"], ["a", "y"]] + [[f"k{i}", "z"] for i in range(50)])
        assert find_vertical_violation(r, T.AB).render() == "answer-sets-differ t1=((a,x)||(b,x)) t2=((a,y)) binding=(a)"
        assert len(calls) == 54

    def test_only_reported_tuples_are_converted(self, monkeypatch):
        converted = []
        real = semantics.to_disjunctive_tuple
        monkeypatch.setattr(semantics, "to_disjunctive_tuple", lambda t: converted.append(t) or real(t))
        table, fds = grouped_vague_table(random.Random(2), 200)
        assert all(check_vertical(table, f) for f in fds)
        assert converted == []
        r = Table.vague(["A", "B"], [[{"a", "b"}, "x"], ["a", "y"]])
        assert not check_vertical(r, T.AB)
        assert len(converted) == 2

    def test_per_tuple_pass_runs_on_disjunctive_tables_only(self, monkeypatch):
        # A vague tuple's rows under a binding are the product of its cells,
        # so only the agreement pass runs, and it reaches each tuple once.
        _, calls = counting_binder(monkeypatch)
        table, fds = grouped_vague_table(random.Random(2), 200)
        for f in fds:
            calls.clear()
            assert check_vertical(table, f)
            assert len(calls) == len(table.tuples) and set(calls) == set(table.tuples)
        calls.clear()
        assert not check_vertical(T.SINGLE_VERTICAL, T.AB)
        assert len(calls) == 2 * len(T.SINGLE_VERTICAL.tuples)

    def test_valuation_order_compares_without_listing(self):
        # Cells of one value make one list a prefix of another, which the
        # walk from the last cell must carry to the cells before it.
        rng = random.Random(5)
        for _ in range(300):
            width = rng.randint(1, 3)
            tuples = [[rng.sample("abc", rng.randint(1, 3)) for _ in range(width)] for _ in range(6)]
            by_order = functools.cmp_to_key(_valuation_order)
            got = sorted(tuples, key=by_order)
            assert got == sorted(tuples, key=lambda cells: list(itertools.product(*map(sorted, cells))))

    def test_a_wide_tuple_outside_the_witness_does_not_stop_vertical(self):
        # The third tuple has 8^4 valuations, over the cap of 100; only a
        # reported tuple is converted, so only a reported one is capped.
        wide = {f"v{i}" for i in range(8)}
        small = [("a", "x", "c", "d", "e"), ("a", "y", "c", "d", "e")]
        r = Table.vague(["A", "B", "C", "D", "E"], [*small, ("w", wide, wide, wide, wide)])
        v = find_vertical_violation(r, T.AB, valuation_cap=100)
        assert v.render() == "answer-sets-differ t1=((a,x,c,d,e)) t2=((a,y,c,d,e)) binding=(a)"
        r = Table.vague(["A", "B", "C", "D", "E"], [*small, ("a", wide, wide, wide, wide)])
        with pytest.raises(ValuationBudgetExceeded):
            find_vertical_violation(r, T.AB, valuation_cap=100)

    @pytest.mark.parametrize("table, f", [
        (T.SSN_NAMES, T.SSN_NAMES_FD), (T.NO_JOINT_WORLD, T.AB), (T.AUGMENTATION_TRAP, T.AUGMENTATION_TRAP_ABCB),
        (T.SINGLE_VERTICAL, T.AB),
    ])
    def test_the_cap_leaves_disjunctive_tuples_alone(self, table, f):
        # Every tuple here has more disjuncts than the cap of 1.  They are
        # written out, so vertical's pass over them is linear and uncapped.
        assert find_vertical_violation(table, f, valuation_cap=1) == find_vertical_violation(table, f)

    def test_vertical_known_discrepancy_on_ssn_table(self):
        # Known discrepancy: evaluated literally, all three conditions hold
        # here (the per-tuple dependency is trivial because the fd spans the
        # whole schema), so the literal reading accepts the table.  Readings
        # that quantify the conditions differently reject it.  We pin the
        # literal reading; this is intentionally NOT an assertion that the
        # table ought to fail.
        assert check_vertical(T.SSN_NAMES, T.SSN_NAMES_FD) is True


class TestWideRhs:
    @pytest.mark.parametrize("width", [6, 7])
    def test_answers_are_linear_in_the_rhs_width(self, width):
        # 8^6 and 8^7 answer rows per tuple: built whole, they took seconds
        # and hundreds of MB; as rhs cells, they compare in O(width).
        table, f = T.wide_rhs(width)
        for checker, holds in ((check_pfd, True), (check_strong, False), (check_vertical, True)):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert checker(table, f) is holds
                times.append(time.perf_counter() - start)
            assert min(times) < 0.005, (checker.__name__, times)

    def test_strong_witness_takes_least_values_outside_the_fd(self):
        # A2 ... A7 are outside A0 -> A1: the witness rows fix them at their
        # least value, so t2's second row already differs on A1.  Walking
        # their 8^6 rows before it took about 200 ms.
        table, _ = T.wide_rhs(7)
        want = "world-pair-disagrees t1=(k,v0,v0,v0,v0,v0,v0,v0) t2=(k,v1,v0,v0,v0,v0,v0,v0) binding=(k)"
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert find_strong_violation(table, fd("A0", "A1")).render() == want
            times.append(time.perf_counter() - start)
        assert min(times) < 0.005, times

    def test_weak_and_seamless_return_the_least_world(self):
        # pfd holds, so the world of least valuations satisfies the FD and
        # comes without listing either tuple's 8^7 valuations.
        table, f = T.wide_rhs(7)
        least = Table.standard(table.schema, [next(t.valuations()) for t in table.tuples])
        for checker in (lambda: check_weak(table, f), lambda: check_seamless(table, [f]) == least):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert checker()
                times.append(time.perf_counter() - start)
            assert min(times) < 0.005, times

    def test_select_counts_a_vague_tuples_rows_before_listing_them(self):
        # 8^7 rows are over the default cap and raise before the first row;
        # 8^6 are listed; a binding outside its cell selects none.
        t = T.wide_rhs(7)[0].tuples[0]
        start = time.perf_counter()
        with pytest.raises(ValuationBudgetExceeded):
            select(t, ["A0"], ("k",))
        assert time.perf_counter() - start < 0.05
        assert select(t, ["A0"], ("z",)).answers == frozenset()
        assert len(select(T.wide_rhs(6)[0].tuples[0], ["A0"], ("k",)).answers) == 8 ** 6

    def test_select_past_the_lhs_cap_raises_whatever_the_binding(self):
        # A1 ... A7 take 8^7 bindings, over the default cap: the binding pass
        # raises before any, so a binding the tuple holds and one it does not
        # raise alike, though neither answer has more than two rows.
        t = T.wide_rhs(7)[0].tuples[0]
        lhs = [f"A{i}" for i in range(1, 8)]
        start = time.perf_counter()
        for b in (("v0",) * 7, ("z",) * 7):
            with pytest.raises(ValuationBudgetExceeded):
                select(t, lhs, b, onto=["A0"])
        assert time.perf_counter() - start < 0.05
        assert select(t, lhs[1:], ("v0",) * 6, onto=["A0"]).answers == frozenset({("j",), ("k",)})

    def test_select_narrows_to_the_binding_before_the_pass(self):
        # A2 ... A7 take 8^6 bindings, under the cap: the last in sorted order,
        # one outside the cells, and the last with A0 bound to j as well answer
        # at once, where walking the tuple's bindings up to b took 40-80 ms.
        t = next(t for t in T.wide_rhs(7)[0].tuples if t.cells[0] == {"j", "k"})
        lhs = [f"A{i}" for i in range(2, 8)]
        cases = [(lhs, ("v7",) * 6, {("j", "v0"), ("j", "v7"), ("k", "v0"), ("k", "v7")}),
                 (lhs, ("z",) * 6, set()), (["A0", *lhs], ("j", *["v7"] * 6), {("j", "v0"), ("j", "v7")})]
        for x, b, want in cases:
            start = time.perf_counter()
            got = select(t, x, b, onto=["A0", "A1"]).answers
            assert time.perf_counter() - start < 0.005
            assert {r for r in got if r[1] in ("v0", "v7")} == want

    def test_data_file_is_the_widest_case(self):
        data = Path(__file__).parent / "data"
        table, f = T.wide_rhs(7)
        assert parse_table((data / "wide_rhs.vtab").read_text()) == table
        assert parse_fds((data / "wide_rhs.fds").read_text()) == [f]


class TestResemblance:
    def test_containment_scores_one(self):
        assert resemblance({"b2"}, {"b2", "b3"}) == 1.0

    def test_reflexive(self):
        assert resemblance({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_scores_zero(self):
        assert resemblance({"x"}, {"y"}) == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            resemblance(set(), {"a"})

    def test_unknown_variant_rejected(self):
        t = VagueTuple(Schema(("A",)), ({"a"},))
        for variant in ("MAX", "mean", ""):
            with pytest.raises(ValueError, match="variant"):
                resemblance({"a", "b"}, {"a"}, variant)
            with pytest.raises(ValueError, match="variant"):
                tuple_resemblance(t, t, {"A"}, variant)
            with pytest.raises(ValueError, match="variant"):
                check_rm(T.RESEMBLANCE_TRAP, T.AB, variant)
        assert resemblance({"a", "b"}, {"a"}, "min") == 0.5

    def test_tuple_form_is_minimum(self):
        t1 = VagueTuple(Schema(("A", "B")), ({"a"}, {"b", "b2"}))
        t2 = VagueTuple(Schema(("A", "B")), ({"a", "a2"}, {"b3"}))
        assert tuple_resemblance(t1, t2, {"A", "B"}) == 0.0
        assert tuple_resemblance(t1, t2, {"A"}) == 1.0

    @pytest.mark.parametrize("t2, attrs", [
        (VagueTuple(Schema(("B", "A")), ({"a"}, {"b"})), {"A"}),  # read at t1's positions, it scored 1.0
        (VagueTuple(Schema(("A",)), ({"a"},)), {"A", "B"}),  # read at t1's positions, it raised IndexError
    ])
    def test_tuple_form_needs_one_schema(self, t2, attrs):
        t1 = VagueTuple(Schema(("A", "B")), ({"a"}, {"b"}))
        with pytest.raises(SchemaError, match=r"^tuple schema \(.*\) differs from first tuple schema \('A', 'B'\)$"):
            tuple_resemblance(t1, t2, attrs)

    def test_tuple_form_rejects_disjunctive_tuples(self):
        t = VagueTuple(Schema(("A",)), ({"a"},))
        d = DisjunctiveTuple(Schema(("A",)), [("a",)])
        for pair in ((t, d), (d, t)):
            with pytest.raises(ModelError, match="^tuple resemblance is defined for vague tuples$"):
                tuple_resemblance(*pair, {"A"})

    def test_rm_verdicts_on_resemblance_trap(self):
        assert check_rm(T.RESEMBLANCE_TRAP, T.AB)
        assert check_rm(T.RESEMBLANCE_TRAP, T.CB)

    def test_rm_holds_under_both_variants(self):
        for variant in ("max", "min"):
            assert check_rm(T.RESEMBLANCE_TRAP_DISTINCT, T.AB, variant)
            assert check_rm(T.RESEMBLANCE_TRAP_DISTINCT, T.CB, variant)

    def test_rm_strictly_weaker_than_pfd(self):
        # Resemblance accepts this pair of FDs although no world satisfies both.
        assert check_seamless(T.RESEMBLANCE_TRAP, [T.AB, T.CB]) is None

    def test_rm_identity_pair_is_satisfied(self):
        single = Table.vague(["A", "B"], [({"a", "a2"}, {"b", "b2"})])
        assert check_rm(single, T.AB)
        assert check_rm(single, fd("B", "A"))

    def test_rm_counts_candidate_pairs_against_the_cap(self):
        # No lhs, so all 1,400 * 1,399 / 2 = 979,300 pairs are candidates:
        # within the default cap of 10^6, past a cap of 1,000.
        r = Table.vague(["A", "B"], [(f"a{i}", {"b1", "b2"} if i % 2 else {"b1"}) for i in range(1_400)])
        with pytest.raises(ValuationBudgetExceeded):
            check_rm(r, fd("", "B"), pair_cap=1_000)
        with pytest.raises(ValuationBudgetExceeded):
            check(r, [fd("", "B")], Semantics.RM, valuation_cap=1_000)
        assert check_rm(r, fd("", "B"))

    def test_blocked_rm_scales_past_ten_thousand_rows(self):
        # Scoring every pair of the 10,000-row unique-lhs table takes ~167 s.
        unique, f = unique_lhs_vague_table(random.Random(1), 10_000)
        grouped, fds = grouped_vague_table(random.Random(2), 10_000)
        for r, f in [(unique, f), *((grouped, g) for g in fds)]:
            start = time.perf_counter()
            assert check_rm(r, f)
            assert time.perf_counter() - start < 5

    def test_rm_rejects_disjunctive(self):
        with pytest.raises(ModelError):
            check_rm(T.NO_JOINT_WORLD, T.AB)


values = st.sampled_from(["p", "q", "r", "s"])
value_sets = st.frozensets(values, min_size=1, max_size=4)


@given(value_sets, value_sets)
@settings(max_examples=200, deadline=None)
def test_prop_resemblance_axioms(a, b):
    score = resemblance(a, b)
    assert 0.0 <= score <= 1.0
    assert resemblance(a, b) == resemblance(b, a)
    assert resemblance(a, a) == 1.0
    assert (score == 0.0) == (not a & b)
    assert (score == 1.0) == (a <= b or b <= a)


class TestDispatcher:
    def test_weak_individual_verdicts(self):
        report = check(T.TRANSITIVITY_TRAP, [T.AB, T.BC], Semantics.WEAK)
        assert report.satisfied and len(report.verdicts) == 2

    def test_seamless_set_verdict(self):
        report = check(T.TRANSITIVITY_TRAP, [T.AB, T.BC], Semantics.SEAMLESS)
        assert not report.satisfied
        assert report.verdicts[0].witness is None

    def test_standard_table_verdicts_agree_across_semantics(self):
        rng = random.Random(5)
        for _ in range(30):
            rows = [tuple(rng.choice("pq") for _ in range(2)) for _ in range(rng.randint(1, 3))]
            t = Table.standard(["A", "B"], rows)
            f = rand_fd(rng, t.schema.attributes)
            verdicts = {
                sem: check(t, f, sem).satisfied
                for sem in (Semantics.STANDARD, Semantics.STRONG, Semantics.WEAK, Semantics.PFD)
            }
            assert len(set(verdicts.values())) == 1

    def test_each_check_builds_one_kernel_per_fd_and_pass(self, monkeypatch):
        # A pass built per tuple would multiply `built` by the tuple count.
        built, calls = counting_binder(monkeypatch)
        table, fds = grouped_vague_table(random.Random(2), 200)
        world = check_seamless(table, fds)
        cases = [
            (world, Semantics.STANDARD, 1),
            (table, Semantics.STRONG, 1),
            (table, Semantics.PFD, 1),
            (table, Semantics.VERTICAL, 1),
            (to_disjunctive(table), Semantics.VERTICAL, 2),  # agreement, then the per-tuple pass
        ]
        for r, sem, passes in cases:
            built.clear()
            calls.clear()
            check(r, fds, sem)  # a hash pass scans every tuple, verdict or not
            assert len(built) == passes * len(fds)
            assert len(calls) == passes * len(fds) * len(r)
        built.clear()
        seamless_valuation_rows(table, fds)  # its pfd precondition, on the cover: one lhs, K -> C D
        assert len(built) == 1

    def test_inapplicable_combination_raises(self):
        with pytest.raises(ModelError):
            check(T.TRANSITIVITY_TRAP, T.AB, Semantics.STANDARD)

    def test_report_text_marks_violations(self):
        report = check(T.AUGMENTATION_TRAP, T.AUGMENTATION_TRAP_ABCB, Semantics.PFD)
        text = report.to_text()
        assert "holds: false" in text and "violation:" in text

    def test_report_dict_carries_elapsed_ms_only_on_request(self):
        report = check(T.JOEJACK, T.JOEJACK_FD, Semantics.PFD)
        assert "elapsed_ms" not in report.to_dict()
        timed = report.to_dict(timing=True)
        assert timed.pop("elapsed_ms") == round(report.elapsed_s * 1000, 3)
        assert timed == report.to_dict()

    def test_report_dict_is_deterministic(self):
        a = check(T.AUGMENTATION_TRAP, [T.AUGMENTATION_TRAP_AC, T.AUGMENTATION_TRAP_ABCB], Semantics.PFD).to_dict()
        b = check(T.AUGMENTATION_TRAP, [T.AUGMENTATION_TRAP_AC, T.AUGMENTATION_TRAP_ABCB], Semantics.PFD).to_dict()
        assert a == b
