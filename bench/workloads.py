"""The four workloads.  Each builds its inputs from a seed (untimed), sets up
program state, and hands out one cycle of ops at a time; an op is a timed
callable plus an untimed check of its result.

Why these four (also in BENCHMARK.json):
  scan    batch checkers and Armstrong reasoning, where pair and binding loops
          and quadratic closures do almost all the work;
  search  possible-world reasoning: world enumeration, seamless backtracking
          and the valuation flood;
  ingest  writes next to reads on PfdIndex; formats, model and pfd_index do
          the work, semantics none;
  cli     one child process per op; interpreter start and import dominate, so
          checker speed-ups should not show here.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fdlab import FunctionalDependency, Table, ThreeDMInstance, parse_table, solve_3dm_bruteforce
from fdlab.pfd_index import PfdIndex

import inputs as I
import verify as V

CRASH = "crash"  # a known-defect op that raised or whose child crashed


@dataclass
class Op:
    kind: str
    run: Callable  # timed; returns the result to check
    check: Callable  # untimed; result -> None or an error message
    root: str = "op"  # span name of the op in traced passes
    # The op hits a known defect of the seed commit (ROADMAP item 3): a crash
    # counts in `failed` but not against `correct`.  A crash of any other op
    # is a wrong answer.
    known_defect: bool = False


def _capture_main(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class Workload:
    cycle_len = 1  # ops per cycle, fixed per workload
    child_ops = False  # ops are child processes, calibrated with a child ruler

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root

    def setup_steps(self, fx) -> list:
        """Callables that load initial program state and run one untimed
        warm-up op; each is timed on its own, so calibration can follow
        host drift through a long set-up."""
        op = self.cycle(fx)[0]
        return [lambda: op.check(op.run())]

    def cycle(self, fx) -> list:
        raise NotImplementedError


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

# (model, shape, rows, fds, semantics); every case comes holding and violated.
# The five heaviest ops (1,000-row pfd, 650-row standard, wide pfd) cost about
# the same, so the p90 tail falls inside one block of ops, not on the edge
# between two.
SCAN_CASES = (
    ("standard", "sparse", 650, (I.FD_A,), "standard"),
    ("standard", "grouped", 200, (I.FD_A, I.FD_B, I.FD_C), "standard"),
    ("standard", "grouped", 200, (I.FD_A, I.FD_B), "pfd"),
    ("vague", "sparse", 1000, (I.FD_A,), "pfd"),
    ("vague", "grouped", 200, (I.FD_A, I.FD_B, I.FD_C), "pfd"),
    ("vague", "wide", 4, (), "pfd"),
    ("vague", "grouped", 100, (I.FD_A,), "vertical"),
    ("vague", "sparse", 100, (I.FD_A, I.FD_B), "rm"),
    ("vague", "grouped", 100, (I.FD_A, I.FD_B), "rm"),
    ("vague", "wide", 4, (), "rm"),
    ("disjunctive", "grouped", 200, (I.FD_A, I.FD_B), "pfd"),
    ("disjunctive", "sparse", 300, (I.FD_A, I.FD_B, I.FD_C), "vertical"),
)
WIDE_CANDIDATES = 8


class Scan(Workload):
    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        rng = random.Random(seed)
        self.checks = []
        for n, (model, shape, size, fds, sem) in enumerate(SCAN_CASES):
            for violated in (False, True):
                name = f"{model}-{shape}-{size}-{sem}-{'violated' if violated else 'holds'}"
                if shape == "wide":
                    case = I.wide_table(rng, size, WIDE_CANDIDATES, violated, name)
                else:
                    case = I.grouped_table(rng, model, shape, size, fds, violated, name)
                ext = {"standard": ".stab", "vague": ".vtab", "disjunctive": ".dtab"}[model]
                table = _write(workdir / f"{name}{ext}", I.table_text(model, case.attrs, case.rows))
                deps = _write(workdir / f"{name}.fds", I.fds_text(case.fds))
                fmt = "json" if (n + violated) % 2 else "text"
                argv = ["check", "--table", table, "--fds", deps, "--semantics", sem, "--format", fmt]
                self.checks.append((case, sem, fmt, argv, V.Witnesses(case)))
        self.armstrong = []
        chain, start, end = I.chain_fds(2000)
        self.armstrong.append(("closure", chain, (start,), None))
        self.armstrong.append(("implies", chain, (start,), (end,)))
        chain, start, end = I.chain_fds(1000)
        self.armstrong.append(("derive", chain, (start,), (end,)))
        for n in (100, 2000):
            fds, attrs = I.random_fds(rng, n, 200)
            query = tuple(rng.sample(attrs, 3))
            closed = sorted(V.closure(fds, query))
            outside = sorted(set(attrs) - set(closed))
            self.armstrong.append(("closure", fds, query, None))
            self.armstrong.append(("derive", fds, query, (closed[-1],)))
            self.armstrong.append(("implies", fds, query, (outside[0] if outside else closed[0],)))
        self.armstrong = [
            (op, [FunctionalDependency(l, r) for l, r in fds], query, target, V.closure(fds, query))
            for op, fds, query, target in self.armstrong
        ]
        self.cycle_len = len(self.checks) + len(self.armstrong)

    def _check_op(self, fx, case, sem, fmt, argv, witnesses):
        def check(result):
            code, out = result
            verdicts = V.parse_report(out, fmt)
            err = V.check_verdicts(case, sem, verdicts, witnesses)
            want = 0 if all(case.holds) else 1
            return err or (None if code == want else f"exit {code}, want {want}")

        return Op(f"check.{sem}", lambda: _capture_main(fx.cli_main, argv), check, root="cli.main")

    def _armstrong_op(self, fx, op, fds, query, target, want):
        if op == "closure":
            return Op("armstrong.closure", lambda: fx.closure(fds, query),
                      lambda got: None if got == want else "closure differs")
        fd = FunctionalDependency(query, target)
        implied = set(target) <= want
        if op == "implies":
            return Op("armstrong.implies", lambda: fx.implies(fds, fd),
                      lambda got: None if got == implied else f"implies={got}, want {implied}")

        def run():
            d = fx.derive(fds, fd)
            return d, (fx.check_derivation(fds, d) if d is not None else None)

        def check(result):
            d, valid = result
            if (d is not None) != implied:
                return f"derive found {'a' if d else 'no'} proof, implied={implied}"
            return None if d is None or (valid and d.conclusion == fd) else "derivation does not replay"

        return Op("armstrong.derive", run, check)

    def cycle(self, fx):
        ops = [self._check_op(fx, *c) for c in self.checks]
        ops += [self._armstrong_op(fx, *a) for a in self.armstrong]
        return ops


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# (ambiguous tuples, kinds).  World enumeration cost depends on k only, not on
# the seed.  The four k=11 full enumerations are the cycle's steady heavy
# block; the p90 tail falls inside it, not on the seed-dependent valuation,
# seamless and 3DM searches next to it.
ALL_WORLD_KINDS = ("strong_holds", "strong_fails", "weak_holds", "weak_fails")
FULL_ENUMERATIONS = ("strong_holds", "weak_fails")
WORLD_CASES = ((8, ALL_WORLD_KINDS), (9, ALL_WORLD_KINDS), (10, ALL_WORLD_KINDS),
               (11, FULL_ENUMERATIONS * 2))
MATCHING_SIZES = ((4, 1), (5, 1), (6, 1), (7, 1))  # (n, instances per answer)
RECURSION_ROWS = 1500


class Search(Workload):
    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        rng = random.Random(seed)
        self.ops = []
        for k, kinds in WORLD_CASES:
            for kind in kinds:
                case = I.world_table(rng, kind, k)
                self.ops.append(("world", kind.split("_")[0], case))
        for n, count in MATCHING_SIZES:
            for yes in (True, False):
                for _ in range(count):
                    m = I.matching_instance(rng, n, yes, decoys=n)
                    inst = ThreeDMInstance(m.xs, m.ys, m.zs, m.triples)
                    if n <= 6 and (solve_3dm_bruteforce(inst, max_n=6) is not None) != yes:
                        raise RuntimeError(f"generator planted a wrong answer for n={n}")
                    self.ops.append(("matching", m, inst))
        three = (I.FD_A, I.FD_B, I.FD_C)
        for shape, size in (("sparse", 100), ("grouped", 150)):
            self.ops.append(("seamless", I.grouped_table(rng, "vague", shape, size, three, False)))
        for shape, size in (("grouped", 200), ("sparse", 300)):
            self.ops.append(("valuate", I.grouped_table(rng, "vague", shape, size, three, False)))
        self.ops.append(("recursion", I.recursion_table(rng, RECURSION_ROWS)))
        self.tables = {}
        for op in self.ops:
            if op[0] != "matching":
                case = op[-1]
                self.tables[case] = getattr(Table, case.model)(case.attrs, case.rows)
        self.cycle_len = len(self.ops)

    @staticmethod
    def _render(report):
        return report, report.to_text(), report.to_dict()

    @staticmethod
    def _rendered_ok(result):
        report, text, data = result
        shown = "true" if report.satisfied else "false"
        if data["satisfied"] != report.satisfied or f"satisfied: {shown}" not in text:
            return "rendered report disagrees with the verdict"
        return None

    def _world_op(self, fx, sem, case):
        table, fds = self.tables[case], V.fds_of(case)

        def check(result):
            report = result[0]
            if self._rendered_ok(result):
                return self._rendered_ok(result)
            if report.satisfied != case.holds[0]:
                return f"{case.name}: satisfied={report.satisfied}"
            v = report.verdicts[0].violation
            if sem == "strong" and not report.satisfied:
                if v is None:
                    return "strong violation without a witness"
                u1, u2 = (t.values for t in v.tuples)
                if not all(any(all(x in c for x, c in zip(u, row)) for row in case.rows) for u in (u1, u2)):
                    return "witness rows are no valuations of the input"
                if u1[0] != u2[0] or u1[1] == u2[1]:
                    return "witness rows do not disagree on X -> Y"
            return None

        return Op(f"check.{sem}", lambda: self._render(fx.check(table, fds, sem)), check)

    def _seamless_check(self, case, result):
        report = result[0]
        if not report.satisfied:
            return "no seamless world found for a table that has one"
        world = [t.values for t in report.verdicts[0].witness.tuples]
        return self._rendered_ok(result) or V.check_world(case.model, case.attrs, case.rows, case.fds, world)

    def _matching_op(self, fx, m, inst):
        def run():
            red = fx.gen3dm(inst)
            return self._render(fx.check(red.table, red.fds, "seamless")), red

        def check(result):
            rendered, red = result
            report = rendered[0]
            yes = m.planted is not None
            if self._rendered_ok(rendered):
                return self._rendered_ok(rendered)
            if report.satisfied != yes:
                return f"3dm n={m.n}: satisfied={report.satisfied}, planted {yes}"
            if not yes:
                return None
            ids = {f"t{i + 1}": t for i, t in enumerate(m.triples)}
            chosen = {ids[t.values[3]] for t in report.verdicts[0].witness.tuples}
            covered = [e for t in chosen for e in t]
            if len(chosen) != m.n or len(set(covered)) != 3 * m.n:
                return "witness world does not encode a perfect matching"
            rows = [t.cells for t in red.table.tuples]
            world = [t.values for t in report.verdicts[0].witness.tuples]
            return V.check_world("vague", red.table.schema.attributes, rows,
                                 [(tuple(f.lhs), tuple(f.rhs)) for f in red.fds], world)

        return Op("check.seamless.3dm", run, check)

    def _seamless_op(self, fx, case, known_defect=False):
        table, fds = self.tables[case], V.fds_of(case)
        return Op("check.seamless", lambda: self._render(fx.check(table, fds, "seamless")),
                  lambda r: self._seamless_check(case, r), known_defect=known_defect)

    def _valuate_op(self, fx, case):
        table, fds = self.tables[case], V.fds_of(case)

        def check(world):
            rows = [t.values for t in world.tuples]
            return V.check_world(case.model, case.attrs, case.rows, case.fds, rows)

        return Op("valuate", lambda: fx.valuate(table, fds, seed=self.seed), check)

    def cycle(self, fx):
        build = {"world": self._world_op, "matching": self._matching_op,
                 "seamless": self._seamless_op, "valuate": self._valuate_op,
                 "recursion": lambda fx, case: self._seamless_op(fx, case, known_defect=True)}
        return [build[op[0]](fx, *op[1:]) for op in self.ops]


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

BATCH_ROWS = 200
WINDOW_BATCHES = 50  # 10^4 tuples in the window
INGEST_CYCLE = 10


class Ingest(Workload):
    cycle_len = INGEST_CYCLE

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.rng = random.Random(seed)
        self.batch_no = 0
        self.previous = ()
        self.fill = [self._next_batch() for _ in range(WINDOW_BATCHES)]
        self.warmup = self._next_batch()
        self.after_setup = (self.rng.getstate(), self.batch_no, self.previous)
        self.checked = self.rejected = 0

    def _next_batch(self):
        rows, reject = I.ingest_batch(self.rng, self.batch_no, BATCH_ROWS, self.previous)
        self.previous = [r for r, bad in zip(rows, reject) if not bad]
        self.batch_no += 1
        text = I.table_text("vague", I.INGEST_ATTRS, rows)
        expected = {next(iter(r[3])): bad for r, bad in zip(rows, reject)}
        return text, expected

    def _apply(self, fx, text):
        """One op: parse a batch, check and insert each tuple, drop the oldest."""
        table = fx.parse_table(text)
        decisions, accepted = [], []
        for t in table.tuples:
            conflict = fx.index_check(self.idx_a, t) or fx.index_check(self.idx_b, t)
            if conflict is None:
                fx.index_insert(self.idx_a, t)
                fx.index_insert(self.idx_b, t)
                accepted.append(t)
            decisions.append((next(iter(t.cells[3])), conflict is not None))
            self.checked += 1
            self.rejected += conflict is not None
        self.window.append(accepted)
        if len(self.window) > WINDOW_BATCHES:
            for t in self.window.popleft():
                fx.index_remove(self.idx_a, t)
                fx.index_remove(self.idx_b, t)
        return decisions

    @staticmethod
    def _check(expected, decisions):
        if len(decisions) != len(expected):
            return f"{len(decisions)} tuples parsed, {len(expected)} generated"
        wrong = sum(expected[k] != rejected for k, rejected in decisions)
        return f"{wrong} wrong accept/reject decisions" if wrong else None

    def setup_steps(self, fx):
        """Fresh indexes, the window fill one batch per step, then one
        warm-up batch."""
        def reset():
            schema = parse_table(self.fill[0][0]).schema
            a, b = (FunctionalDependency(lhs, rhs) for lhs, rhs in I.INGEST_FDS)
            self.idx_a, self.idx_b = PfdIndex(a, schema), PfdIndex(b, schema)
            self.window = deque()
            self.rng.setstate(self.after_setup[0])
            self.batch_no, self.previous = self.after_setup[1], self.after_setup[2]

        def load(text, expected):
            err = self._check(expected, self._apply(fx, text))
            if err:
                raise RuntimeError(f"window fill: {err}")

        return [reset] + [lambda b=batch: load(*b) for batch in self.fill + [self.warmup]]

    def entries(self):
        return len(self.idx_a) + len(self.idx_b)

    def cycle(self, fx):
        ops = []
        for _ in range(INGEST_CYCLE):
            text, expected = self._next_batch()
            ops.append(Op("ingest.batch", lambda text=text: self._apply(fx, text),
                          lambda d, expected=expected: self._check(expected, d)))
        return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

TRACEBACK = "Traceback (most recent call last)"


class Cli(Workload):
    child_ops = True

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.ops = []  # (kind, argv, expected exit code, output check[, known defect])
        d = workdir
        three = (I.FD_A, I.FD_B, I.FD_C)

        def table_file(case, ext):
            return _write(d / f"{case.name}{ext}", I.table_text(case.model, case.attrs, case.rows))

        def check_case(case, sem, ext):
            deps = _write(d / f"{case.name}.fds", I.fds_text(case.fds))
            argv = ["check", "--table", table_file(case, ext), "--fds", deps, "--semantics", sem, "--format", "json"]
            witnesses = V.Witnesses(case)
            want = 0 if all(case.holds) else 1

            def out_check(out):
                return V.check_verdicts(case, sem, V.parse_report(out, "json"), witnesses)

            self.ops.append((f"check.{sem}", argv, want, out_check))

        for violated in (False, True):
            tag = "violated" if violated else "holds"
            check_case(I.grouped_table(rng, "standard", "grouped", 50, three, violated, f"std-{tag}"), "standard", ".stab")
            check_case(I.grouped_table(rng, "vague", "grouped", 50, three, violated, f"pfd-{tag}"), "pfd", ".vtab")
            check_case(I.grouped_table(rng, "disjunctive", "sparse", 40, three, violated, f"vert-{tag}"), "vertical", ".dtab")
            check_case(I.grouped_table(rng, "vague", "sparse", 40, three, violated, f"rm-{tag}"), "rm", ".vtab")
        for kind in ("strong_holds", "strong_fails", "weak_holds", "weak_fails"):
            case = I.world_table(rng, kind, 4, fillers=10)
            case = I.TableCase(f"world-{kind}", case.model, case.attrs, case.rows, case.fds, case.holds)
            deps = _write(d / f"{case.name}.fds", I.fds_text(case.fds))
            argv = ["check", "--table", table_file(case, ".vtab"), "--fds", deps,
                    "--semantics", kind.split("_")[0], "--format", "json"]
            self.ops.append((f"check.{kind.split('_')[0]}", argv, 0 if case.holds[0] else 1, None))
        def seamless_case(case, ext, known_defect=False):
            deps = _write(d / f"{case.name}.fds", I.fds_text(case.fds))
            argv = ["check", "--table", table_file(case, ext), "--fds", deps,
                    "--semantics", "seamless", "--format", "json"]

            def world_check(out):
                witness = json.loads(out)["verdicts"][0]["witness"] or []
                world = [tuple(r.split(",")) for r in witness]
                return V.check_world(case.model, case.attrs, case.rows, case.fds, world)

            self.ops.append(("check.seamless", argv, 0, world_check, known_defect))

        seamless_case(I.grouped_table(rng, "vague", "grouped", 30, three, False, "seamless-yes"), ".vtab")
        seamless_case(I.recursion_table(rng, RECURSION_ROWS), ".stab", known_defect=True)
        chain, start, _ = I.chain_fds(50)
        deps = _write(d / "chain.fds", I.fds_text(chain))
        want_closure = ",".join(sorted(V.closure(chain, (start,)))) + "\n"
        self.ops.append(("closure", ["closure", "--fds", deps, "--attrs", start], 0,
                         lambda out: None if out == want_closure else "closure output differs"))
        case = I.grouped_table(rng, "vague", "grouped", 50, three, False, "valuate")
        deps = _write(d / "valuate.fds", I.fds_text(case.fds))

        def valuate_check(out, case=case):
            world = [tuple(line.split(",")) for line in out.splitlines()[2:]]
            return V.check_world(case.model, case.attrs, case.rows, case.fds, world)

        self.ops.append(("valuate", ["valuate", "--table", table_file(case, ".vtab"), "--fds", deps,
                                     "--seed", str(seed)], 0, valuate_check))
        m = I.matching_instance(rng, 4, True, decoys=6)
        inst = _write(d / "inst.3dm", m.text())
        out_table, out_fds = d / "gen.vtab", d / "gen.fds"

        def gen_check(out):
            lines = [ln for ln in out_table.read_text().splitlines()[2:] if ln]
            if len(lines) != 3 * m.n:
                return f"reduction has {len(lines)} rows, want {3 * m.n}"
            return None if out_fds.read_text() == "X -> T\nY -> T\nZ -> T\n" else "reduction fds differ"

        self.ops.append(("gen3dm", ["gen3dm", "--instance", inst, "--out-table", str(out_table),
                                    "--out-fds", str(out_fds)], 0, gen_check))
        case = I.world_table(rng, "strong_holds", 3, fillers=4)
        case = I.TableCase("worlds", case.model, case.attrs, case.rows, case.fds, case.holds)
        n_worlds = len({frozenset(w) for w in _valuation_worlds(case.rows)})
        self.ops.append(("worlds", ["worlds", "--table", table_file(case, ".vtab")], 0,
                         lambda out: None if len(re.findall(r"^# world ", out, re.M)) == n_worlds
                         else "world count differs"))
        self.cycle_len = len(self.ops)

    def _op(self, kind, argv, want, out_check, known_defect=False):
        cmd = [sys.executable, "-m", "fdlab.cli", *argv]

        def run():
            return subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=170)

        def check(proc):
            if TRACEBACK in proc.stderr:
                return CRASH, proc.stderr.strip().splitlines()[-1]
            if proc.returncode != want:
                return f"exit {proc.returncode}, want {want}: {proc.stderr.strip()[:200]}"
            return out_check(proc.stdout) if out_check else None

        return Op(kind, run, check, root="cli.process", known_defect=known_defect)

    def cycle(self, fx):
        return [self._op(*op) for op in self.ops]


def _valuation_worlds(rows):
    return itertools.product(*(list(itertools.product(*(sorted(c) for c in r))) for r in rows))


WORKLOADS = {"scan": Scan, "search": Search, "ingest": Ingest, "cli": Cli}
