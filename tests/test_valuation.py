"""Valuation algorithm and the matching-problem reduction."""

import random
import re
import time

import pytest

from fdlab import (
    ModelError,
    ParseError,
    PfdPreconditionError,
    ReductionError,
    Table,
    ThreeDMInstance,
    check_pfd,
    check_seamless,
    check_standard,
    generate_3dm_reduction,
    parse_3dm,
    seamless_valuation_pfd,
    seamless_valuation_rows,
    solve_3dm_bruteforce,
)

import oracles as O
import tables as T
from tables import fd
from gen import grouped_vague_table, rand_3dm_instance, rand_fd, rand_vague_table


class TestSeamlessValuation:
    def test_worked_example_with_b1_seed(self):
        world = seamless_valuation_pfd(T.VALUATION_DEMO, T.VALUATION_DEMO_FDS, seed=T.VALUATION_DEMO_B1_SEED)
        assert world == T.VALUATION_DEMO_EXPECTED

    def test_every_seed_yields_a_uniform_choice(self):
        reached = set()
        for seed in range(8):
            world = seamless_valuation_pfd(T.VALUATION_DEMO, T.VALUATION_DEMO_FDS, seed=seed)
            bs = {t.values[1] for t in world.tuples}
            assert len(bs) == 1
            for f in T.VALUATION_DEMO_FDS:
                assert check_standard(world, f)
            reached |= bs
        assert reached == {"b1", "b2"}

    def test_standard_table_passes_through(self):
        t = Table.standard(["A", "B"], [("a", "b"), ("a2", "b2")])
        assert seamless_valuation_pfd(t, [T.AB]) == t

    def test_single_tuple_no_constraints(self):
        t = Table.vague(["A", "B"], [({"a", "a2"}, "b")])
        world = seamless_valuation_pfd(t, [])
        assert len(world) == 1
        assert world.tuples[0].values[0] in {"a", "a2"}

    def test_precondition_violation_names_the_fd(self):
        bad = Table.vague(["A", "B"], [("a", "b"), ("a", "b2")])
        with pytest.raises(PfdPreconditionError) as err:
            seamless_valuation_pfd(bad, [T.AB])
        assert err.value.fd == T.AB

    def test_precondition_reads_a_one_shot_fd_iterator_in_full(self):
        # The cover fails here, so the FDs are read a second time to name one.
        bad = Table.vague(["A", "B"], [("a", "x"), ("a", "y")])
        for valuate in (seamless_valuation_rows, seamless_valuation_pfd):
            with pytest.raises(PfdPreconditionError) as err:
                valuate(bad, iter([T.AB]))
            assert err.value.fd == T.AB

    def test_disjunctive_input_rejected(self):
        with pytest.raises(ModelError):
            seamless_valuation_pfd(T.NO_JOINT_WORLD, [T.AB])

    def test_output_is_a_valuation_of_the_input(self):
        rng = random.Random(0)
        for _ in range(120):
            table = rand_vague_table(rng)
            attrs = table.schema.attributes
            cands = [rand_fd(rng, attrs) for _ in range(3)]
            fds = [f for f in cands if check_pfd(table, f)]
            rows = seamless_valuation_rows(table, fds, seed=rng.randrange(100))
            assert len(rows) == len(table.tuples)
            for t, row in zip(table.tuples, rows):
                assert all(v in cell for v, cell in zip(row, t.cells))
            world = Table.standard(table.schema, rows)
            for f in fds:
                assert check_standard(world, f)

    def test_valuation_is_near_linear(self):
        # 2,000 tuples; spreading each ambiguous cell's pick by pairwise
        # scans takes well over 15 s.
        table, fds = grouped_vague_table(random.Random(2), 2_000)
        start = time.perf_counter()
        rows = seamless_valuation_rows(table, fds)
        assert time.perf_counter() - start < 5
        world = Table.standard(table.schema, rows)
        assert all(check_standard(world, f) for f in fds)

    def test_one_pass_valuation_is_insufficient(self):
        # The chain tuple sorts after the tuple it links, so a single sweep
        # misses it and a later pick can contradict the earlier assignment.
        # The least values under one order per attribute never do.
        for f in T.ONE_PASS_FDS:
            assert check_pfd(T.ONE_PASS_TRAP, f)
        failures = []
        for seed in range(8):
            rows = O.one_pass_valuation_rows(T.ONE_PASS_TRAP, T.ONE_PASS_FDS, seed=seed)
            world = Table.standard(T.ONE_PASS_TRAP.schema, rows)
            if not all(check_standard(world, f) for f in T.ONE_PASS_FDS):
                failures.append(seed)
            fixed = seamless_valuation_pfd(T.ONE_PASS_TRAP, T.ONE_PASS_FDS, seed=seed)
            assert all(check_standard(fixed, f) for f in T.ONE_PASS_FDS)
        assert failures, "expected at least one seed to expose the one-pass valuation"


class TestReduction:
    def test_reduction_table_matches_hand_construction(self):
        out = generate_3dm_reduction(T.MATCHING_INSTANCE)
        ys = frozenset({"1", "2", "3"})
        zs = frozenset({"A", "B", "C"})
        xs = frozenset({"a", "b", "c"})
        expected = Table.vague(
            ["X", "Y", "Z", "T"],
            [
                ("a", ys, zs, {"t1", "t4"}),
                ("b", ys, zs, {"t2", "t5"}),
                ("c", ys, zs, {"t3"}),
                (xs, "1", zs, {"t4", "t2"}),
                (xs, "2", zs, {"t1"}),
                (xs, "3", zs, {"t3", "t5"}),
                (xs, ys, "A", {"t2"}),
                (xs, ys, "B", {"t4", "t1", "t5"}),
                (xs, ys, "C", {"t3"}),
            ],
        )
        assert out.table == expected
        assert set(out.fds) == {fd("X", "T"), fd("Y", "T"), fd("Z", "T")}

    def test_smallest_instance(self):
        # The three generated rows coincide when n=1 (every candidate set is a
        # singleton), and tables are sets, so they collapse to one tuple.
        inst = ThreeDMInstance(("x",), ("y",), ("z",), [("x", "y", "z")])
        out = generate_3dm_reduction(inst)
        assert len(out.table) == 1
        for t in out.table.tuples:
            assert t.cells[3] == frozenset({"t1"})

    def test_rows_are_distinct_for_larger_instances(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            inst = rand_3dm_instance(rng, n)
            assert len(generate_3dm_reduction(inst).table) == 3 * n

    def test_uncoverable_element_is_rejected(self):
        inst = ThreeDMInstance(("x", "x2"), ("y", "y2"), ("z", "z2"), [("x", "y", "z")])
        with pytest.raises(ReductionError):
            generate_3dm_reduction(inst)
        assert solve_3dm_bruteforce(inst) is None

    def test_bruteforce_finds_the_matching(self):
        assert solve_3dm_bruteforce(T.MATCHING_INSTANCE) == T.MATCHING_IDS

    def test_no_triples_means_no_matching(self):
        inst = ThreeDMInstance(("x",), ("y",), ("z",), [])
        assert solve_3dm_bruteforce(inst) is None

    def test_bruteforce_cap(self):
        inst = rand_3dm_instance(random.Random(0), 3)
        with pytest.raises(ValueError):
            solve_3dm_bruteforce(inst, max_n=2)

    def test_seamless_witness_is_the_matching_world(self):
        out = generate_3dm_reduction(T.MATCHING_INSTANCE)
        witness = check_seamless(out.table, out.fds)
        assert witness == T.MATCHING_WITNESS

    def test_equivalence_on_random_instances(self):
        rng = random.Random(1)
        for _ in range(40):
            inst = rand_3dm_instance(rng, rng.randint(1, 3))
            matching = solve_3dm_bruteforce(inst)
            out = generate_3dm_reduction(inst)
            witness = check_seamless(out.table, out.fds)
            assert (matching is None) == (witness is None)


class TestInstanceFormat:
    def test_roundtrip(self):
        text = "3\na 2 B\nb 1 A\nc 3 C\na 1 B\nb 3 B\n"
        assert parse_3dm(text) == T.MATCHING_INSTANCE

    def test_membership_inferred_by_position(self):
        inst = parse_3dm("1\nleft middle right\n")
        assert inst.x_elements == ("left",)
        assert inst.triples == (("left", "middle", "right"),)

    def test_bad_arity(self):
        with pytest.raises(ParseError):
            parse_3dm("1\nx y\n")

    def test_declared_size_must_match(self):
        with pytest.raises(ParseError):
            parse_3dm("2\nx y z\n")

    def test_disjoint_sets_required(self):
        with pytest.raises(ValueError):
            ThreeDMInstance(("e",), ("e",), ("z",), [("e", "e", "z")])

    @pytest.mark.parametrize("sets, triples, message", [
        ((("x",), ("y", "y2"), ("z",)), [], "element sets must be non-empty and equally sized"),
        ((("x",), ("y",), ("z",)), [("y", "x", "z")], "triple ('y', 'x', 'z') does not draw one element from each set"),
    ], ids=["unequal-sets", "misplaced-triple"])
    def test_malformed_instance_rejected(self, sets, triples, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ThreeDMInstance(*sets, triples)

    @pytest.mark.parametrize("text, message", [
        ("\n# only a comment\n", "empty instance file"),
        ("two\nx y z\n", "line 1: expected the set size, got 'two'"),
        ("0\nx y z\n", "line 1: set size must be at least 1"),
    ], ids=["empty", "non-integer-size", "size-below-one"])
    def test_bad_header_rejected(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_3dm(text)

    def test_columns_sharing_an_element_are_a_parse_error(self):
        with pytest.raises(ParseError, match="^element sets must be disjoint$"):
            parse_3dm("2\na b a\nc d c\n")
