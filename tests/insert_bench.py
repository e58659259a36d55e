"""Insert-latency probe for `PfdIndex`: median per-insert latency at several
index sizes with a fixed lhs binding count per tuple.  Criterion 7 asserts
that the medians stay within 3x of each other."""

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable

from fdlab import FunctionalDependency, PfdIndex, Schema, VagueTuple


@dataclass
class BenchReport:
    """Per-size insert latency distribution, in nanoseconds."""

    fd: FunctionalDependency
    sizes: list = field(default_factory=list)
    medians_ns: dict = field(default_factory=dict)
    p90s_ns: dict = field(default_factory=dict)

    @property
    def median_spread(self) -> float:
        """max median / min median across table sizes."""
        values = [self.medians_ns[s] for s in self.sizes]
        return max(values) / min(values)

    def to_text(self) -> str:
        lines = [f"fd: {self.fd}", "probe: per-insert latency at fixed lhs valuation count"]
        for s in self.sizes:
            lines.append(
                f"size: {s} median_ns: {self.medians_ns[s]:.0f} p90_ns: {self.p90s_ns[s]:.0f}"
            )
        lines.append(f"median_spread: {self.median_spread:.3f}")
        return "\n".join(lines) + "\n"


def _bench_tuple(schema: Schema, tag: str, rng: random.Random) -> VagueTuple:
    # Fixed |t[X]| = 2 (two candidate lhs values), one rhs value.
    return VagueTuple(
        schema,
        (frozenset((f"x{tag}a", f"x{tag}b")), frozenset((f"y{rng.randrange(4)}",))),
    )


def bench_inserts(
    sizes: Iterable[int] = (100, 1_000, 10_000),
    probes: int = 200,
    seed: int = 0,
) -> BenchReport:
    """Median per-insert latency at several table sizes, fixed binding count.

    Contract under test: insert work depends on the number of lhs valuations
    of the tuple, not on how many tuples the index already holds.
    """
    schema = Schema(("X", "Y"))
    fd = FunctionalDependency({"X"}, {"Y"})
    rng = random.Random(seed)
    report = BenchReport(fd, sizes=list(sizes))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for size in report.sizes:
            idx = PfdIndex(fd, schema)
            for i in range(size):
                idx.insert(_bench_tuple(schema, f"base{size}_{i}", rng))
            samples = []
            for i in range(probes):
                probe = _bench_tuple(schema, f"probe{size}_{i}", rng)
                start = time.perf_counter_ns()
                idx.insert(probe)
                samples.append(time.perf_counter_ns() - start)
                idx.remove(probe)
            report.medians_ns[size] = statistics.median(samples)
            report.p90s_ns[size] = statistics.quantiles(samples, n=10)[-1]
    finally:
        if gc_was_enabled:
            gc.enable()
    return report
