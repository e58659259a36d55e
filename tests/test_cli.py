"""Text formats and the command-line surface, including exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fdlab import Model, ParseError, parse_fds, parse_table, serialize_fds, serialize_table
from fdlab.cli import main

import tables as T
from tables import fd

DATA = Path(__file__).parent / "data"

CORPUS = {
    "transitivity_trap.vtab": T.TRANSITIVITY_TRAP,
    "resemblance_trap.vtab": T.RESEMBLANCE_TRAP,
    "resemblance_trap_distinct.vtab": T.RESEMBLANCE_TRAP_DISTINCT,
    "no_joint_world.dtab": T.NO_JOINT_WORLD,
    "augmentation_trap.dtab": T.AUGMENTATION_TRAP,
    "ssn_names.dtab": T.SSN_NAMES,
    "joejack.vtab": T.JOEJACK,
    "single_vertical.dtab": T.SINGLE_VERTICAL,
    "valuation_demo.vtab": T.VALUATION_DEMO,
}


class TestTableFormat:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_files_parse_to_the_programmatic_tables(self, name):
        table = parse_table((DATA / name).read_text())
        assert table == CORPUS[name]

    @pytest.mark.parametrize("name", sorted(CORPUS) + ["matching_reduction.vtab"])
    def test_parse_serialize_identity(self, name):
        text = (DATA / name).read_text()
        table = parse_table(text)
        assert serialize_table(table) == text
        assert parse_table(serialize_table(table)) == table

    def test_vague_single_row(self):
        t = parse_table("A,B\na1,{b1|b2}\n")
        assert t.model is Model.VAGUE and len(t) == 1

    def test_singleton_braces_normalize(self):
        assert parse_table("A\n{a1}\n", model=Model.VAGUE) == parse_table(
            "A\na1\n", model=Model.VAGUE
        )

    def test_model_directive_wins_over_content(self):
        t = parse_table("#model: vague\nA,B\na,b\n")
        assert t.model is Model.VAGUE

    def test_disjunctive_row(self):
        t = parse_table("A,B,C,D\n(a1,b1,c1,d1)||(a1,b2,c1,d2)\n")
        assert t.model is Model.DISJUNCTIVE
        assert t.tuples[0].disjuncts == frozenset(
            {("a1", "b1", "c1", "d1"), ("a1", "b2", "c1", "d2")}
        )

    def test_bare_row_in_disjunctive_table_is_single_disjunct(self):
        t = parse_table("#model: disjunctive\nA,B\na,b\n")
        assert t.tuples[0].disjuncts == frozenset({("a", "b")})

    def test_duplicate_rows_collapse(self):
        t = parse_table("A\na\na\n")
        assert len(t) == 1

    @pytest.mark.parametrize(
        "text,line",
        [
            ("A,B\na1\n", 2),                      # ragged row
            ("A,B\na1,{}\n", 2),                   # empty cell set
            ("A,B\n(a1,b1)||(a1)\n", 2),           # bad disjunct arity
            ("A,B\na1,{b1|b2\n", 2),               # unterminated cell
            ("A,B\na1,,\n", 2),                    # empty field
            ("#model: martian\nA\na\n", 1),        # unknown model
        ],
    )
    def test_diagnostics_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_table(text)
        assert err.value.line == line

    def test_set_cell_in_standard_table_rejected(self):
        with pytest.raises(ParseError):
            parse_table("A,B\na,{b|c}\n", model=Model.STANDARD)


class TestFdFormat:
    def test_basic_and_comments(self):
        fds = parse_fds("# header\nA -> B\nA B -> C B  # trailing\n")
        assert fds == [fd("A", "B"), fd("A B", "C B")]

    @pytest.mark.parametrize("text, want", [
        ("A -> B#\n", fd("A", "B#")),
        ("A# -> B\n", fd("A#", "B")),
        ("A# -> B#  # both names end in '#'\n", fd("A#", "B#")),
        ("A -> B\t#tab\n", fd("A", "B")),
    ])
    def test_hash_is_a_comment_only_where_a_word_begins(self, text, want):
        assert parse_fds(text) == [want]

    def test_named_attributes(self):
        assert parse_fds("employee -> superior\n") == [fd("employee", "superior")]

    def test_malformed_arrow(self):
        with pytest.raises(ParseError):
            parse_fds("A - B\n")
        with pytest.raises(ParseError):
            parse_fds("A -> B -> C\n")

    def test_roundtrip(self):
        fds = [fd("A", "B"), fd("A B", "C")]
        assert parse_fds(serialize_fds(fds)) == fds


def run_cli(*argv) -> int:
    return main(list(argv))


class TestCliCheck:
    def test_weak_satisfied_exits_zero(self, capsys):
        code = run_cli(
            "check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds", str(DATA / "chain.fds"),
            "--semantics", "weak",
        )
        assert code == 0
        assert "satisfied: true" in capsys.readouterr().out

    def test_seamless_unsatisfiable_exits_one(self, capsys):
        code = run_cli(
            "check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds", str(DATA / "chain.fds"),
            "--semantics", "seamless",
        )
        assert code == 1

    def test_no_joint_world_pfd_exits_zero(self):
        assert run_cli(
            "check", "--table", str(DATA / "no_joint_world.dtab"), "--fds", str(DATA / "independent_pairs.fds"),
            "--semantics", "pfd",
        ) == 0

    def test_json_output(self, capsys):
        code = run_cli(
            "check", "--table", str(DATA / "no_joint_world.dtab"), "--fds", str(DATA / "independent_pairs.fds"),
            "--semantics", "pfd", "--format", "json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfied"] is True
        assert len(payload["verdicts"]) == 2

    @pytest.mark.parametrize("semantics", ["weak", "seamless"])
    def test_empty_witness_world_is_shown_empty(self, semantics, tmp_path, capsys):
        empty = tmp_path / "empty.stab"
        empty.write_text("A,B,C\n")
        argv = ["check", "--table", str(empty), "--fds", str(DATA / "chain.fds"), "--semantics", semantics]
        assert run_cli(*argv, "--format", "json") == 0
        assert all(v["witness"] == [] for v in json.loads(capsys.readouterr().out)["verdicts"])
        assert run_cli(*argv) == 0
        assert "witness: \n" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.vtab"
        bad.write_text("A,B\nonly-one-field\n")
        code = run_cli(
            "check", "--table", str(bad), "--fds", str(DATA / "chain.fds"),
            "--semantics", "weak",
        )
        assert code == 2

    def test_usage_error_exits_two(self, capsys):
        assert run_cli("check", "--table", "x") == 2

    def test_crash_exits_two_with_traceback(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("checker bug")

        monkeypatch.setattr("fdlab.cli.check", crash)
        assert run_cli(
            "check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds", str(DATA / "chain.fds"),
            "--semantics", "weak",
        ) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: checker bug" in err

    @pytest.mark.parametrize("argv, unknown", [
        # A -> B fails the pfd precondition; C -> D names no attribute of the table.
        (["valuate", "--table", "ab.stab", "--fds", "bad.fds"], "['C']"),
        # A -> B exhausts the budget of 1 (a tuple with 2 valuations); the table has no D.
        (["check", "--table", str(DATA / "resemblance_trap.vtab"), "--fds", str(DATA / "independent_pairs.fds"),
          "--semantics", "weak", "--cap", "1"], "['D']"),
    ], ids=["valuate", "weak-cap-1"])
    def test_unknown_attributes_fail_before_any_fd_is_checked(self, argv, unknown, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ab.stab").write_text("A,B\na1,b1\na1,b2\n")
        (tmp_path / "bad.fds").write_text("A -> B\nC -> D\n")
        assert run_cli(*argv) == 2
        assert f"unknown attributes {unknown}" in capsys.readouterr().err

    def test_inapplicable_semantics_exits_two(self):
        assert run_cli(
            "check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds", str(DATA / "chain.fds"),
            "--semantics", "standard",
        ) == 2

    def test_the_retired_cap_variable_is_ignored(self, monkeypatch):
        # `--cap` is the cap's only source: FDLAB_WORLD_CAP, even below 1, leaves the default in force.
        for env in ("1", "0"):
            monkeypatch.setenv("FDLAB_WORLD_CAP", env)
            assert run_cli(
                "check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds", str(DATA / "chain.fds"),
                "--semantics", "strong",
            ) == 1
            assert run_cli("worlds", "--table", str(DATA / "transitivity_trap.vtab")) == 0

    @pytest.mark.parametrize("cap", ["0", "-3", "many"])
    def test_cap_must_be_a_positive_integer(self, cap, capsys):
        assert run_cli(
            "check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds", str(DATA / "chain.fds"),
            "--semantics", "strong", "--cap", cap,
        ) == 2
        assert "--cap" in capsys.readouterr().err

    def test_json_like_format_is_gone(self):
        assert run_cli(
            "check", "--table", str(DATA / "joejack.vtab"), "--fds", str(DATA / "joejack.fds"),
            "--semantics", "pfd", "--format", "json-like",
        ) == 2

    def test_pfd_binding_product_over_the_cap_exits_two(self, tmp_path, capsys):
        # Two tuples, 8 lhs attributes of 8 candidates each: 8^8 bindings apiece.
        cell = "{" + "|".join(f"v{i}" for i in range(8)) + "}"
        attrs = [f"A{i}" for i in range(8)]
        table = tmp_path / "wide.vtab"
        table.write_text(",".join(attrs + ["B"]) + "\n" + "\n".join(",".join([cell] * 8 + [b]) for b in "xy") + "\n")
        deps = tmp_path / "wide.fds"
        deps.write_text(" ".join(attrs) + " -> B\n")
        assert run_cli("check", "--table", str(table), "--fds", str(deps), "--semantics", "pfd") == 2
        assert "budget" in capsys.readouterr().err

    def test_cap_bounds_pfd_and_vertical(self):
        for sem in ("pfd", "vertical"):
            assert run_cli(
                "check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds", str(DATA / "chain.fds"),
                "--semantics", sem, "--cap", "1",
            ) == 2

    @pytest.mark.parametrize("semantics", ["weak", "seamless"])
    def test_cap_bounds_no_search_on_a_standard_table(self, semantics, tmp_path):
        # The violating pair comes after 60 tuples, yet the answer is "violated", not a budget error.
        table, fds = tmp_path / "late.stab", tmp_path / "late.fds"
        table.write_text(serialize_table(T.STANDARD_LATE_VIOLATION))
        fds.write_text(serialize_fds([T.AC]))
        assert run_cli("check", "--table", str(table), "--fds", str(fds), "--semantics", semantics, "--cap", "10") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cap_leaves_vertical_on_disjunctive_tuples_alone(self, fmt):
        # The second tuple has 4 disjuncts, over the cap of 3; they are
        # written out, so vertical's pass over them is linear and uncapped.
        assert run_cli(
            "check", "--table", str(DATA / "ssn_names.dtab"), "--fds", str(DATA / "ssn_names.fds"),
            "--semantics", "vertical", "--cap", "3", "--format", fmt,
        ) == 0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_timing_is_reported_only_on_request(self, fmt, capsys):
        argv = ["check", "--table", str(DATA / "joejack.vtab"), "--fds", str(DATA / "joejack.fds"),
                "--semantics", "pfd", "--format", fmt]
        run_cli(*argv, "--timing")
        timed = capsys.readouterr().out
        run_cli(*argv)
        plain = capsys.readouterr().out
        assert "elapsed_ms" not in plain
        if fmt == "text":
            assert re.fullmatch(r"elapsed_ms: \d+\.\d{3}", timed.splitlines()[-1])
            assert timed.splitlines()[:-1] == plain.splitlines()
        else:
            payload = json.loads(timed)
            elapsed = payload.pop("elapsed_ms")
            assert isinstance(elapsed, (int, float)) and not isinstance(elapsed, bool)
            assert payload == json.loads(plain)

    @pytest.mark.parametrize("text, message", [
        ("#model: vague\nA,B\na},{b|c}\n", "line 3: stray cell syntax in 'a}'"),
        ("A,B\n(a,b)||c,d\n", "line 2: disjunct 'c,d' must be parenthesized"),
        ("#model: vague\n# no header\n", "missing header row"),
        ("A,A\n", "line 1: duplicate attribute names in ('A', 'A')"),
        ("#model: vague\nA,B\n(a,b)\n", "line 3: disjunctive row in a vague table"),
        ("A,B\na(b,c\n", "line 2: bad value 'a(b': characters ,|{}() are reserved"),
        ("A,B\n{#a|b},c\n", "line 2: bad value '#a': must not begin with '#', which starts a comment line"),
        ("A,B\nb,#c\n", "line 2: bad value '#c': must not begin with '#', which starts a comment line"),
        ("A,#B\na,b\n", "line 1: attribute name '#B' must not begin with '#', which starts a comment line"),
    ])
    def test_parse_errors_name_their_line(self, text, message, tmp_path, capsys):
        table = tmp_path / "bad.tab"
        table.write_text(text)
        assert run_cli("check", "--table", str(table), "--fds", str(DATA / "a_to_c.fds"), "--semantics", "pfd") == 2
        captured = capsys.readouterr()
        assert captured.err == f"fdlab: {message}\n" and captured.out == ""

    def test_fd_names_with_a_later_hash_check_normally(self, tmp_path, capsys):
        table = tmp_path / "hash.stab"
        table.write_text("A,B#\na,b\na,c\n")
        deps = tmp_path / "hash.fds"
        deps.write_text("A -> B#  # violated\n")
        assert run_cli("check", "--table", str(table), "--fds", str(deps), "--semantics", "standard") == 1
        captured = capsys.readouterr()
        assert captured.err == "" and "A -> B#" in captured.out

    def test_consecutive_calls_behave_like_fresh_ones(self, capsys):
        # The parser is built once per process; no option may leak from one
        # call into the next.
        argv = ["check", "--table", str(DATA / "joejack.vtab"), "--fds", str(DATA / "joejack.fds"),
                "--semantics", "pfd"]
        outs = []
        for extra in ([], ["--timing", "--format", "json"], [], ["--format", "json"], []):
            assert run_cli(*argv, *extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[2] == outs[4] and "elapsed_ms" not in outs[0]
        assert "elapsed_ms" in json.loads(outs[1]) and "elapsed_ms" not in json.loads(outs[3])
        assert run_cli("closure", "--fds", str(DATA / "chain.fds"), "--attrs", "A") == 0
        assert capsys.readouterr().out == "A,B,C\n"

    def test_cap_bounds_rm_pairs(self, tmp_path, capsys):
        deps = tmp_path / "empty.fds"
        deps.write_text(" -> B\n")
        argv = ["check", "--table", str(DATA / "resemblance_trap.vtab"), "--fds", str(deps), "--semantics", "rm"]
        assert run_cli(*argv) == 1
        assert "violation: resemblance-drops t1=(a1,b2,c1) t2=(a2,b3,c2) lhs=1 rhs=0\n" in capsys.readouterr().out
        assert run_cli(*argv, "--cap", "1") == 2
        assert "valuation budget of 1 exhausted" in capsys.readouterr().err


class TestCliValuate:
    def test_worked_example(self, tmp_path):
        out = tmp_path / "world.stab"
        code = run_cli(
            "valuate", "--table", str(DATA / "valuation_demo.vtab"), "--fds", str(DATA / "valuation_demo.fds"),
            "--seed", str(T.VALUATION_DEMO_B1_SEED), "--out", str(out),
        )
        assert code == 0
        assert parse_table(out.read_text()) == T.VALUATION_DEMO_EXPECTED

    def test_standard_table_is_returned_unchanged(self, tmp_path, capsys):
        src = tmp_path / "t.stab"
        src.write_text("A,B\na,b\n")
        fds = tmp_path / "t.fds"
        fds.write_text("A -> B\n")
        code = run_cli("valuate", "--table", str(src), "--fds", str(fds))
        assert code == 0
        assert parse_table(capsys.readouterr().out) == parse_table(src.read_text())

    def test_unsatisfied_precondition_exits_one(self, tmp_path, capsys):
        src = tmp_path / "t.vtab"
        src.write_text("#model: vague\nA,B\na,b\na,b2\n")
        fds = tmp_path / "t.fds"
        fds.write_text("A -> B\n")
        assert run_cli("valuate", "--table", str(src), "--fds", str(fds)) == 1
        assert "A -> B" in capsys.readouterr().err

    def test_budget_met_in_the_cover_pass_exits_two(self, tmp_path, capsys):
        # A B -> C fails first in FD order, but the cover reads A -> C for it,
        # after E0 ... E6 -> D, whose 8^7 bindings in the first tuple are past
        # the cap: the precondition raises there, before it names a failing FD.
        wide = "{" + "|".join(f"e{i}" for i in range(8)) + "}"
        src = tmp_path / "t.vtab"
        src.write_text("#model: vague\nA,B,C,D,E0,E1,E2,E3,E4,E5,E6\n"
                       f"a,b,c1,d{f',{wide}' * 7}\na,b,c2,d{',e' * 7}\n")
        fds = tmp_path / "t.fds"
        fds.write_text("A B -> C\nE0 E1 E2 E3 E4 E5 E6 -> D\nA -> C\n")
        assert run_cli("valuate", "--table", str(src), "--fds", str(fds)) == 2
        assert capsys.readouterr().err == "fdlab: valuation budget of 1000000 exhausted before an exact answer\n"
        fds.write_text("A B -> C\nA -> C\n")
        assert run_cli("valuate", "--table", str(src), "--fds", str(fds)) == 1
        assert capsys.readouterr().err == "fdlab: dependency not satisfied: A B -> C\n"

    def test_value_that_would_print_as_a_comment_exits_two(self, tmp_path, capsys):
        # Picking '#a' would print the row '#a,c', which reads back as a comment.
        src = tmp_path / "t.vtab"
        src.write_text("A,B\n{#a|b},c\n")
        fds = tmp_path / "t.fds"
        fds.write_text("A -> B\n")
        assert run_cli("valuate", "--table", str(src), "--fds", str(fds), "--seed", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fdlab: line 2: bad value '#a': must not begin with '#', which starts a comment line\n"

    def test_wrong_model_exits_two(self):
        assert run_cli(
            "valuate", "--table", str(DATA / "no_joint_world.dtab"), "--fds", str(DATA / "independent_pairs.fds"),
        ) == 2


class TestCliWorldsClosureGen3dm:
    def test_worlds_streams_every_world(self, capsys):
        code = run_cli("worlds", "--table", str(DATA / "transitivity_trap.vtab"))
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("# world") == 4

    def test_worlds_on_standard_table(self, tmp_path, capsys):
        src = tmp_path / "t.stab"
        src.write_text("A\na\n")
        assert run_cli("worlds", "--table", str(src)) == 0
        assert capsys.readouterr().out.count("# world") == 1

    def test_worlds_limit_exits_two(self):
        assert run_cli("worlds", "--table", str(DATA / "transitivity_trap.vtab"), "--limit", "2") == 2

    @pytest.mark.parametrize("cap, want", [("3", 2), ("4", 0)])
    def test_worlds_cap_is_resolved_as_check_resolves_it(self, cap, want, capsys):
        argv = ["worlds", "--table", str(DATA / "transitivity_trap.vtab")]  # four valuations
        assert run_cli(*argv, "--cap", cap) == want
        assert ("valuation budget of 3 exhausted" in capsys.readouterr().err) == (want == 2)

    def test_worlds_past_the_default_cap_exits_two_at_once(self):
        # 2^30 valuations: without the cap the product would run for days.
        proc = subprocess.run(
            [sys.executable, "-m", "fdlab.cli", "worlds", "--table", str(DATA / "two_candidates_30.vtab")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "fdlab: valuation budget of 1000000 exhausted before an exact answer\n"

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_a_usage_error(self, limit, capsys):
        assert run_cli("worlds", "--table", str(DATA / "transitivity_trap.vtab"), "--limit", limit) == 2
        err = capsys.readouterr().err.splitlines()
        assert "Traceback" not in "\n".join(err)
        assert err[0].startswith("usage: fdlab worlds")
        assert err[-1].startswith("fdlab worlds: error: argument --limit: must be an integer of at least 1")

    def test_closure(self, tmp_path, capsys):
        fds = tmp_path / "f.fds"
        fds.write_text("A -> B\nB -> C\n")
        assert run_cli("closure", "--fds", str(fds), "--attrs", "A") == 0
        assert capsys.readouterr().out.strip() == "A,B,C"

    @pytest.mark.parametrize("attrs, want", [(" A", "A,B,C"), ("A, B", "A,B,C"), ("C ,B", "B,C")])
    def test_closure_names_are_stripped(self, attrs, want, capsys):
        assert run_cli("closure", "--fds", str(DATA / "chain.fds"), "--attrs", attrs) == 0
        assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("attrs", ["", " ", "A,,B", "A,"])
    def test_closure_empty_name_exits_two(self, attrs, capsys):
        assert run_cli("closure", "--fds", str(DATA / "chain.fds"), "--attrs", attrs) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"fdlab closure: error: argument --attrs: attribute names must not be empty, got {attrs!r}"
        )

    def test_gen3dm_matches_golden_table(self, tmp_path):
        out_table = tmp_path / "t.vtab"
        out_fds = tmp_path / "t.fds"
        code = run_cli(
            "gen3dm", "--instance", str(DATA / "matching.3dm"),
            "--out-table", str(out_table), "--out-fds", str(out_fds),
        )
        assert code == 0
        assert out_table.read_text() == (DATA / "matching_reduction.vtab").read_text()
        assert parse_fds(out_fds.read_text()) == parse_fds((DATA / "matching_reduction.fds").read_text())

    def test_gen3dm_columns_sharing_an_element_exit_two(self, tmp_path, capsys):
        inst = tmp_path / "shared.3dm"
        inst.write_text("2\na b a\nc d c\n")
        assert run_cli("gen3dm", "--instance", str(inst)) == 2
        err = capsys.readouterr().err
        assert err == "fdlab: element sets must be disjoint\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("element, message", [
        ("#y0", "bad value '#y0': must not begin with '#', which starts a comment line"),
        ("y,0", "bad value 'y,0': characters ,|{}() are reserved"),
    ])
    def test_gen3dm_bad_element_exits_two(self, element, message, tmp_path, capsys):
        inst = tmp_path / "bad.3dm"
        inst.write_text(f"2\nx0 {element} z0\nx1 y1 z1\n")
        assert run_cli("gen3dm", "--instance", str(inst)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fdlab: {message}\n"

    def test_gen3dm_pipeline_check_exits_zero(self, tmp_path):
        out_table = tmp_path / "t.vtab"
        out_fds = tmp_path / "t.fds"
        run_cli("gen3dm", "--instance", str(DATA / "matching.3dm"),
                "--out-table", str(out_table), "--out-fds", str(out_fds))
        assert run_cli(
            "check", "--table", str(out_table), "--fds", str(out_fds),
            "--semantics", "seamless",
        ) == 0



def input_argv(kind: str, path) -> list:
    """A command reading `path` as its table, FD file or matching instance."""
    return {
        "table": ["check", "--table", str(path), "--fds", str(DATA / "chain.fds"), "--semantics", "pfd"],
        "fds": ["check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds", str(path), "--semantics", "pfd"],
        "instance": ["gen3dm", "--instance", str(path)],
    }[kind]


@pytest.mark.parametrize("kind, name, raw", [
    ("table", "bad.vtab", b"A,B,C\na1,\xff,c1\n"),
    ("fds", "bad.fds", b"A -> B\nB -> \xffC\n"),
    ("instance", "bad.3dm", b"1\nx \xff z\n"),
])
def test_non_utf8_input_exits_two_naming_file_and_byte(kind, name, raw, tmp_path, capsys):
    bad = tmp_path / name
    bad.write_bytes(raw)
    assert run_cli(*input_argv(kind, bad)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fdlab: {bad}: line 2: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("kind, name", [
    ("table", "transitivity_trap.vtab"), ("fds", "chain.fds"), ("instance", "matching.3dm"),
])
def test_byte_order_mark_is_ignored(kind, name, tmp_path, capsys):
    bom = tmp_path / name
    bom.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
    plain = run_cli(*input_argv(kind, DATA / name)), capsys.readouterr()
    assert (run_cli(*input_argv(kind, bom)), capsys.readouterr()) == plain
    assert plain[1].err == ""


@pytest.mark.parametrize("name, text, model", [
    ("t.stab", "#model: vague\nA,B\na,{b|c}\n", None),  # the extension beats the directive
    ("t.VTAB", "A,B\na,{b|c}\n", "vague"),
    ("t.STAB", "A,B\na,{b|c}\n", None),  # the suffix match ignores case
    ("t.txt", "#model: disjunctive\nA,B\na,b\n", "disjunctive"),
    ("t.txt", "A,B\na,{b|c}\n", "vague"),
])
def test_table_model_comes_from_extension_then_directive_then_content(name, text, model, tmp_path, capsys):
    table, fds = tmp_path / name, tmp_path / "ab.fds"
    table.write_text(text)
    fds.write_text("A -> B\n")
    code = run_cli("check", "--table", str(table), "--fds", str(fds), "--semantics", "pfd", "--format", "json")
    captured = capsys.readouterr()
    if model is None:
        assert (code, captured.out) == (2, "")
        line = 3 if text.startswith("#") else 2
        assert captured.err == f"fdlab: line {line}: set-valued cell '{{b|c}}' in a standard table\n"
    else:
        assert code == 0
        assert json.loads(captured.out)["model"] == model


def test_first_bad_value_of_a_cell_is_named_under_every_hash_seed(tmp_path):
    # A cell's values are checked in text order, not in a set's hash order.
    table, fds = tmp_path / "bad.vtab", tmp_path / "ab.fds"
    table.write_text("A,B\na,{#x|#y|#z|#w}\n")
    fds.write_text("A -> B\n")
    argv = [sys.executable, "-m", "fdlab.cli", "check", "--table", str(table), "--fds", str(fds), "--semantics", "pfd"]
    runs = [subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": str(seed)})
            for seed in range(1, 7)]
    assert {(p.returncode, p.stderr) for p in runs} == {
        (2, "fdlab: line 2: bad value '#x': must not begin with '#', which starts a comment line\n")
    }


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fdlab.cli", "check",
         "--table", str(DATA / "transitivity_trap.vtab"), "--fds", str(DATA / "chain.fds"),
         "--semantics", "weak"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "satisfied: true" in proc.stdout
