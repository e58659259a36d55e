"""The benchmark's own tests: seeded inputs are deterministic, and the output
checks reject deliberately wrong results.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import dataclasses
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs as I  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify as V  # noqa: E402
import workloads as W  # noqa: E402
from fdlab import FunctionalDependency, attribute_closure, check, parse_table  # noqa: E402


def _cases(seed):
    rng = random.Random(seed)
    out = []
    for model in (I.STANDARD, I.VAGUE, I.DISJUNCTIVE):
        for shape in I.SHAPES:
            for violated in (False, True):
                out.append(I.grouped_table(rng, model, shape, 60, (I.FD_A, I.FD_B, I.FD_C), violated))
    out += [I.wide_table(rng, 3, 4, v) for v in (False, True)]
    out += [I.world_table(rng, k, 4) for k in ("strong_holds", "strong_fails", "weak_holds", "weak_fails")]
    out += [I.matching_instance(rng, n, yes, n) for n in (3, 5) for yes in (True, False)]
    out.append(I.random_fds(rng, 50, 20))
    out.append(I.ingest_batch(rng, 0, 50, []))
    return out


def test_generators_are_deterministic_per_seed():
    assert _cases(7) == _cases(7)
    assert _cases(7) != _cases(8)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_inputs_are_deterministic_per_seed(tmp_path, name):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        W.WORKLOADS[name](seed, d, HERE.parent)
        return {p.name: p.read_text() for p in d.iterdir()}

    if name == "ingest":
        a, b = (W.Ingest(3, tmp_path, HERE.parent) for _ in range(2))
        assert a.fill == b.fill
        assert [a._next_batch() for _ in range(3)] == [b._next_batch() for _ in range(3)]
        assert W.Ingest(4, tmp_path, HERE.parent).fill != a.fill
    else:
        assert files(3, "a") == files(3, "b")


@pytest.mark.parametrize("sem", ["standard", "pfd", "vertical", "rm"])
def test_planted_verdicts_match_fdlab(sem):
    for case in _cases(11)[:14]:
        if (sem == "standard" and case.model != I.STANDARD) or (sem == "rm" and case.model == I.DISJUNCTIVE):
            continue
        table = parse_table(I.table_text(case.model, case.attrs, case.rows))
        report = check(table, V.fds_of(case), sem)
        verdicts = [(v.holds, v.violation.render() if v.violation else None) for v in report.verdicts]
        assert V.check_verdicts(case, sem, verdicts, V.Witnesses(case)) is None, case


def _violated_vague_case():
    return I.grouped_table(random.Random(1), I.VAGUE, "grouped", 40, (I.FD_A, I.FD_C), True)


def test_checker_flags_a_wrong_verdict():
    case = _violated_vague_case()
    assert case.holds == (False, True)
    w = V.Witnesses(case)
    assert "holds=True, planted False" in V.check_verdicts(case, "pfd", [(True, None), (True, None)], w)
    assert "without a witness" in V.check_verdicts(case, "pfd", [(False, None), (True, None)], w)


def test_checker_flags_a_witness_that_does_not_disagree():
    case = _violated_vague_case()
    w = V.Witnesses(case)
    t = parse_table(I.table_text(case.model, case.attrs, case.rows)).tuples[0]
    binding = min(t.cells[0])
    fake = f"answer-sets-differ t1=({t.render()}) t2=({t.render()}) binding=({binding})"
    assert "agree under select" in V.check_verdicts(case, "pfd", [(False, fake), (True, None)], w)
    stranger = "answer-sets-differ t1=(a,b,c,d,e) t2=(a,b,c,d,e) binding=(a)"
    assert "names no pair" in V.check_verdicts(case, "pfd", [(False, stranger), (True, None)], w)
    rm_fake = f"resemblance-drops t1=({t.render()}) t2=({t.render()}) lhs=1 rhs=1"
    assert "does not drop" in V.check_verdicts(case, "rm", [(False, rm_fake), (True, None)], w)


def test_world_check_rejects_bad_worlds():
    attrs = ("A", "B")
    rows = ((frozenset("a"), frozenset(("x", "y"))), (frozenset("c"), frozenset("x")))
    fds = ((("B",), ("A",)),)
    assert V.world_of("vague", rows, [("a", "y"), ("c", "x")]) is None
    assert "no valuation" in V.world_of("vague", rows, [("a", "z"), ("c", "x")])
    assert "no valuation in the world" in V.world_of("vague", rows, [("a", "x")])
    assert "more distinct rows" in V.world_of("vague", rows, [("a", "x"), ("a", "y"), ("c", "x")])
    assert "violates" in V.check_world("vague", attrs, rows, fds, [("a", "x"), ("c", "x")])


def test_closure_matches_fdlab():
    rng = random.Random(5)
    for _ in range(50):
        fds, attrs = I.random_fds(rng, rng.randint(1, 40), 12)
        query = rng.sample(attrs, 2)
        fdl = [FunctionalDependency(lhs, rhs) for lhs, rhs in fds]
        assert V.closure(fds, query) == attribute_closure(fdl, query)


def test_search_checks_reject_fake_reports(tmp_path):
    ops = W.Search(2, tmp_path, HERE.parent).cycle(tracing.layers())
    strong = ops[0]  # strong, holds
    result = strong.run()
    assert strong.check(result) is None
    report = result[0]
    report.verdicts[0] = dataclasses.replace(report.verdicts[0], holds=False)
    assert "disagrees with the verdict" in strong.check(result)
    assert "satisfied=False" in strong.check((report, report.to_text(), report.to_dict()))

    matching = next(op for op in ops if op.kind == "check.seamless.3dm")  # planted yes
    result = matching.run()
    assert matching.check(result) is None
    (report, _, _), red = result
    v = report.verdicts[0]
    report.verdicts[0] = dataclasses.replace(v, witness=v.witness.__class__.standard(
        v.witness.schema, [v.witness.tuples[0].values]))
    assert "perfect matching" in matching.check(((report, report.to_text(), report.to_dict()), red))
    report.verdicts[0] = dataclasses.replace(v, holds=False, witness=None)
    assert "planted True" in matching.check(((report, report.to_text(), report.to_dict()), red))


def test_ingest_check_flags_wrong_decisions(tmp_path):
    ing = W.Ingest(1, tmp_path, HERE.parent)
    _, expected = ing.fill[1]
    assert any(expected.values()), "the second batch carries planted conflicts"
    right = list(expected.items())
    assert W.Ingest._check(expected, right) is None
    flipped = [(k, not r) if r else (k, r) for k, r in right]
    assert "wrong accept/reject" in W.Ingest._check(expected, flipped)


def test_cli_check_separates_crashes_from_wrong_answers(tmp_path):
    cli = W.Cli(1, tmp_path, HERE.parent)
    op = cli._op("check.pfd", ["check"], 0, None)
    done = subprocess.CompletedProcess([], 1, "", "")
    assert "exit 1, want 0" in op.check(done)
    crashed = subprocess.CompletedProcess([], 1, "", W.TRACEBACK + "\nRecursionError: deep\n")
    assert op.check(crashed) == (W.CRASH, "RecursionError: deep")


def _boom():
    raise RecursionError("deep")


class _Fake:
    def __init__(self, ops):
        self.ops = ops
        self.cycle_len = len(ops)

    def cycle(self, fx):
        return self.ops


def test_run_cycles_counts_crashes_and_wrong_results():
    fake = _Fake([W.Op("a", lambda: 1, lambda r: None), W.Op("b", _boom, lambda r: None, known_defect=True),
                  W.Op("c", lambda: 2, lambda r: "wrong answer")])
    samples, failures, cycles = run.run_cycles(fake, None, W.CRASH, cycles=2)
    assert cycles == 2 and len(samples) == 6
    assert sorted(kind for kind, _ in failures) == ["crash", "crash", "wrong", "wrong"]
    assert not run.correct(failures)


def test_only_the_known_defect_may_crash():
    known = _Fake([W.Op("a", lambda: 1, lambda r: None), W.Op("b", _boom, lambda r: None, known_defect=True)])
    _, failures, _ = run.run_cycles(known, None, W.CRASH, cycles=1)
    assert failures and run.correct(failures)
    ordinary = _Fake([W.Op("a", lambda: 1, lambda r: None), W.Op("b", _boom, lambda r: None)])
    _, failures, _ = run.run_cycles(ordinary, None, W.CRASH, cycles=1)
    assert [kind for kind, _ in failures] == ["wrong"] and not run.correct(failures)
    child = W.Op("c", lambda: 1, lambda r: (W.CRASH, "RecursionError: deep"))
    _, failures, _ = run.run_cycles(_Fake([child]), None, W.CRASH, cycles=1)
    assert not run.correct(failures)


def test_known_defect_ops_are_only_the_recursion_checks(tmp_path):
    ops = W.Search(1, tmp_path, HERE.parent).cycle(tracing.layers())
    assert [op.known_defect for op in ops] == [False] * (len(ops) - 1) + [True]
    cli = W.Cli(1, tmp_path, HERE.parent)
    flagged = [op for op, made in zip(cli.ops, cli.cycle(None)) if made.known_defect]
    assert len(flagged) == 1 and flagged[0][1][2].endswith("recursion.stab")


def test_model_build_spans_are_children_of_parse_table():
    text = I.table_text(I.VAGUE, ("A", "B"), [(frozenset("a"), frozenset("xy")), (frozenset("b"), frozenset("x"))])
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        tracing.layers(tracer).parse_table(text)
    parse = next(s for s in tracer.spans if s[1] == "formats.parse_table")
    builds = [s for s in tracer.spans if s[1] == "model.build"]
    assert builds and all(s[4] == parse[0] for s in builds)
    totals = tracer.layer_totals()
    assert totals["model.build"]["count"] == 2
    parse_total = totals["formats.parse_table"]["total_s"]
    assert totals["formats.parse_table"]["self_s"] == pytest.approx(parse_total - totals["model.build"]["total_s"])
    assert tracing.fdlab.formats.VagueTuple.__name__ == "VagueTuple"  # restored on exit


def test_percentile_keeps_count_beyond():
    assert run.percentile(list(range(1, 101)), 90) == (90, 10)
