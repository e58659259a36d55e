#!/usr/bin/env python3
"""fdlab benchmark: one seeded workload, one client, one op in flight.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of an fdlab checkout; fdlab is imported from ./src.  The
last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics are the end-to-end ones, measured
untraced.  With --trace 1 the run makes an untraced pass and then a traced
pass over as many cycles, and reports per-layer metrics per cycle; spans go
to .bench_out/.

Times are calibrated: a ruler runs between ops, and each op's time is
divided by the mean of the host slowness the ruler measured just before and
just after it.  The ruler is a fixed pure-Python loop, or for workloads whose
ops are child processes a bare `python -c pass` child.  On a shared host
whose speed drifts by tens of percent within minutes, this cancels the drift.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

perf = time.perf_counter

SETUP_REPS = 5
# Tail percentile, fixed so runs of two commits compare the same percentile;
# at seed sizes at least ten samples lie beyond it.  On ingest, 2-3% of ops
# include a full collection of the 10^4-tuple window, so p95 would sit on the
# edge of that block and jump between runs.
TAIL_PERCENTILE = {"scan": 90, "search": 90, "ingest": 90, "cli": 90}
# Traced-pass cycle cap, bounding the spans kept in memory.
TRACE_MAX_CYCLES = {"scan": 2, "search": 2, "ingest": 10, "cli": 2}
PROBE_CHILDREN = 5
SEMANTICS = ("standard", "pfd", "vertical", "rm", "strong", "weak", "seamless")
# Ruler times that mean a slowness of 1 (about their times on the 2-vCPU host
# the benchmark was tuned on): the reference loop, and a bare child process.
REF_NOMINAL_S = 0.0015
CHILD_REF_NOMINAL_S = 0.06


def reference() -> float:
    """Median time of three runs of a fixed loop with the dict, set, tuple
    and string churn typical of fdlab.

    The collector is off while the loop runs: a collection there would scan
    fdlab's live objects and make the ruler depend on the program's heap.
    The loop frees all it allocates by reference counting, so it leaves the
    collector's counts as it found them and shifts no collection onto fdlab."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = perf()
            d = {}
            for i in range(2000):
                k = (i % 331, "k%d" % (i % 37))
                s = d.get(k)
                if s is None:
                    d[k] = s = set()
                s.add(i & 31)
            frozenset(d)
            times.append(perf() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def in_process_slowness() -> float:
    return reference() / REF_NOMINAL_S


def child_slowness(root):
    """A ruler for ops that are child processes.  Their time is mostly
    process start and imports, which follow the host's speed more weakly
    than the reference loop does, so the loop would over-correct them."""
    cmd = [sys.executable, "-c", "pass"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def slowness():
        start = perf()
        subprocess.run(cmd, cwd=root, env=env, check=True)
        return (perf() - start) / CHILD_REF_NOMINAL_S

    return slowness


def calibrated(fn, slowness=in_process_slowness):
    """Run fn between two ruler measurements; return (result, raw seconds,
    calibrated seconds)."""
    before = slowness()
    start = perf()
    result = fn()
    raw = perf() - start
    return result, raw, raw / ((before + slowness()) / 2)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list, and the count beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_cycles(wl, fx, crash, budget=None, cycles=None, tracer=None, min_cycles=1,
               slowness=in_process_slowness):
    """Full cycles of ops, closed loop.  After `min_cycles`, stops before a
    cycle that the last cycle's wall time says would overrun `budget`; or
    runs exactly `cycles` cycles.  Returns per-op samples (raw s, calibrated
    s, root span name), failures as (kind, message), and the cycles run.

    A failure is of kind `crash` only where an op marked `known_defect`
    raised or its child crashed; every other failure is `wrong`."""
    samples, failures = [], []
    done, spent, last = 0, 0.0, 0.0
    ref = slowness()
    while (done < cycles) if cycles is not None else (done < min_cycles or spent + last <= budget):
        cycle_start = perf()
        for op in wl.cycle(fx):
            if tracer is not None:
                tracer.op += 1
                tracer.open(op.root)
            start = perf()
            try:
                result = op.run()
                err = None
            except Exception as exc:  # the op failed; record it and go on
                err = (crash, f"{type(exc).__name__}: {exc}"[:200])
            dt = perf() - start
            if tracer is not None:
                tracer.close(failed=err is not None)
            if err is None:
                err = op.check(result)
            if err is not None:
                kind, msg = err if isinstance(err, tuple) else ("wrong", err)
                if kind == crash and not op.known_defect:
                    kind = "wrong"
                failures.append((kind, f"{op.kind}: {msg}"))
            after = slowness()
            samples.append((dt, dt / ((ref + after) / 2), op.root))
            ref = after
        done += 1
        last = perf() - cycle_start
        spent += last
    return samples, failures, done


def correct(failures) -> bool:
    """True unless an op gave a wrong answer or crashed without being the
    known defect."""
    return all(kind != "wrong" for kind, _ in failures)


def child_probe(root, code):
    """Median calibrated wall time of `python -c code` children."""
    cmd = [sys.executable, "-c", code]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return statistics.median(
        calibrated(lambda: subprocess.run(cmd, cwd=root, env=env, check=True))[2]
        for _ in range(PROBE_CHILDREN)
    )


def layer_metrics(wl, tracer, untraced, traced, cycles, root):
    """Per-layer metrics per cycle.  Span times are scaled by the traced
    pass's median calibration factor."""
    scale = statistics.median(cal / raw for raw, cal, _ in traced if raw > 0)
    totals = tracer.layer_totals()
    zero = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0, "failed": 0, "durations": []}
    m = {}

    def get(name):
        return totals.get(name, zero)

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def secs(name):
        return get(name)["self_s"] * scale / cycles

    put("formats.parse_table.s", get("formats.parse_table")["total_s"] * scale / cycles, "s")
    put("formats.parse_table.self_s", secs("formats.parse_table"), "s")
    put("formats.parse_table.rows", get("formats.parse_table")["count"] / cycles, "count")
    put("model.build.s", secs("model.build"), "s")
    put("model.build.tuples", get("model.build")["count"] / cycles, "count")
    for sem in SEMANTICS:
        s = get(f"semantics.{sem}")
        put(f"semantics.{sem}.s", secs(f"semantics.{sem}"), "s")
        put(f"semantics.{sem}.calls", s["calls"] / cycles, "count")
        put(f"semantics.{sem}.tuples", s["count"] / cycles, "count")
        put(f"semantics.{sem}.failed", s["failed"] / cycles, "count")
    put("valuation.valuate.s", secs("valuation.valuate"), "s")
    put("valuation.valuate.calls", get("valuation.valuate")["calls"] / cycles, "count")
    put("valuation.gen3dm.s", secs("valuation.gen3dm"), "s")
    for name in ("closure", "implies", "derive", "check_derivation"):
        put(f"armstrong.{name}.s", secs(f"armstrong.{name}"), "s")
    put("armstrong.derive.steps", get("armstrong.derive")["count"] / cycles, "count")
    for name in ("check", "insert", "remove"):
        put(f"pfd_index.{name}.s", secs(f"pfd_index.{name}"), "s")
    insert = get("pfd_index.insert")
    put("pfd_index.insert.calls", insert["calls"] / cycles, "count")
    p50 = statistics.median(insert["durations"]) * scale * 1e6 if insert["durations"] else 0.0
    put("pfd_index.insert.p50_us", p50, "us")
    checked = getattr(wl, "checked", 0)
    put("pfd_index.rejected_ratio", wl.rejected / checked if checked else 0.0, "ratio")
    put("pfd_index.entries", wl.entries() if hasattr(wl, "entries") else 0, "count")
    put("semantics.render.s", secs("semantics.render"), "s")
    cli_untraced = sum(cal for _, cal, name in untraced if name == "cli.main")
    put("cli.main.self_s", (cli_untraced - tracer.child_time({"cli.main"}) * scale) / cycles, "s")
    bare = child_probe(root, "pass")
    put("cli.import.s", child_probe(root, "import fdlab.cli") - bare, "s")
    put("cli.process.s", bare, "s")
    put("trace.overhead_ratio", sum(cal for _, cal, _ in traced) / sum(cal for _, cal, _ in untraced), "ratio")
    return m


def per_op_medians(times, cycle_len):
    """Each op runs once per cycle; its median across cycles damps bursts
    that hit single ops."""
    return [statistics.median(times[i::cycle_len]) for i in range(cycle_len)]


def end_to_end(samples, cycle_len, setup_s, pct, usage):
    cal = [c for _, c, _ in samples]
    per_op = per_op_medians(cal, cycle_len)
    tail, beyond = percentile(sorted(cal), pct)
    return {
        "ops_per_s": {"value": cycle_len / sum(per_op), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024, "unit": "MB"},
    }, beyond


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "search", "ingest", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fdlab" / "__init__.py").is_file():
        print("bench: src/fdlab not found; run from the root of an fdlab checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    reference()  # warm the reference loop before it calibrates anything

    def import_fdlab():
        """A fresh import of fdlab.cli; it counts toward set-up."""
        for name in [m for m in sys.modules if m == "fdlab" or m.startswith("fdlab.")]:
            del sys.modules[name]
        import fdlab.cli

        return fdlab.cli

    imports = [calibrated(import_fdlab) for _ in range(SETUP_REPS)]
    cli_module = imports[-1][0]
    import_s = statistics.median(cal for _, _, cal in imports)
    if not Path(cli_module.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: fdlab imported from {cli_module.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, root)
        fx = tracing.layers()
        slowness = child_slowness(root) if wl.child_ops else in_process_slowness
        reps = [sum(calibrated(step, slowness)[2] for step in wl.setup_steps(fx)) for _ in range(SETUP_REPS)]
        setup_s = import_s + statistics.median(reps)
        crash = workloads.CRASH
        if args.trace == 0:
            # Enough cycles that at least ten samples lie beyond the tail
            # percentile, even where a cycle takes longer than here.
            beyond = 10 / (1 - TAIL_PERCENTILE[args.workload] / 100) + 1
            samples, failures, cycles = run_cycles(wl, fx, crash, budget=args.seconds,
                                                   min_cycles=math.ceil(beyond / wl.cycle_len), slowness=slowness)
        else:
            samples, failures, ran = run_cycles(wl, fx, crash, budget=args.seconds / 2, slowness=slowness)
            cycles = min(ran, TRACE_MAX_CYCLES[args.workload])
            untraced = samples[-cycles * wl.cycle_len:]
            tracer = tracing.Tracer()
            if hasattr(wl, "checked"):
                wl.checked = wl.rejected = 0
            with tracing.patched(tracer):
                traced, more, _ = run_cycles(wl, tracing.layers(tracer), crash, cycles=cycles,
                                             tracer=tracer, slowness=slowness)
            failures += more
            samples = samples + traced
            metrics = layer_metrics(wl, tracer, untraced, traced, cycles, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for kind, msg in failures[:10]:
        print(f"failed op ({kind}): {msg}")
    summary = (f"workload={args.workload} seed={args.seed} samples={len(samples)} "
               f"failed_ratio={len(failures) / len(samples):.6f}")
    if args.trace == 0:
        pct = TAIL_PERCENTILE[args.workload]
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics, beyond = end_to_end(samples, wl.cycle_len, setup_s, pct, usage)
        scale = statistics.median(cal / raw for raw, cal, _ in samples if raw > 0)
        raw = per_op_medians([r for r, _, _ in samples], wl.cycle_len)
        print(f"{summary} cycles={cycles} tail=p{pct} ({beyond} samples beyond{'' if beyond >= 10 else ', fewer than 10'}) "
              f"calibration={scale:.3f} raw_ops_per_s={wl.cycle_len / sum(raw):.4f} "
              f"raw_op_p50_ms={statistics.median(raw) * 1e3:.4f} setup_reps={[round(r, 4) for r in reps]} import_s={import_s:.4f}")
    else:
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        print(f"{summary} untraced_cycles={ran} traced_cycles={cycles} spans={len(tracer.spans)}")
    print(json.dumps({"correct": correct(failures), "attempted": len(samples), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
