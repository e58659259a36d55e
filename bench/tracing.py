"""Spans around the calls the benchmark makes into fdlab's modules.

A span is (id, name, start, end, parent id, op id, count, failed).  Spans are
kept in memory and written out when the run ends.  Layers are timed at the
boundary the benchmark crosses: its own calls go through the namespace
`layers()` returns.  While the traced pass runs, `patched` swaps names that
fdlab's modules imported for traced ones: in `fdlab.cli` (for in-process
`fdlab.cli.main`) and the tuple and table constructors in `fdlab.formats`,
so model construction is a child span of `parse_table`.  fdlab's files are
never edited.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from types import SimpleNamespace

import fdlab.armstrong
import fdlab.cli
import fdlab.formats
import fdlab.semantics
import fdlab.valuation
from fdlab.pfd_index import PfdIndex
from fdlab.semantics import CheckReport

perf = time.perf_counter


class Tracer:
    """Spans as (id, name, start, end, parent id, op id, count, failed).

    Closed spans are tuples of atoms, which the garbage collector stops
    tracking, so a long traced pass does not make collections slower."""

    def __init__(self):
        self.spans = []
        self.stack = []  # open spans: (id, name, parent id, start)
        self.next_id = 0
        self.op = -1

    def open(self, name):
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append((self.next_id, name, parent, perf()))
        self.next_id += 1

    def close(self, count=0, failed=False):
        """Close the innermost open span; returns its duration."""
        end = perf()
        sid, name, parent, start = self.stack.pop()
        self.spans.append((sid, name, start, end, parent, self.op, count, failed))
        return end - start

    def wrap(self, name, fn, count=None):
        """`fn` with a span per call; `name` may be a function of the args."""
        def traced(*args, **kwargs):
            self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(failed=True)
                raise
            self.close(count(args, result) if count else 1)
            return result

        return traced

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def layer_totals(self):
        """name -> {self_s, total_s, calls, count, failed, durations}; self
        time is a span's duration minus the duration of its direct children."""
        child = defaultdict(float)
        for _, _, start, end, parent, *_ in self.spans:
            child[parent] += end - start
        out = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0, "failed": 0, "durations": []})
        for sid, name, start, end, _, _, count, failed in self.spans:
            agg = out[name]
            agg["self_s"] += (end - start) - child[sid]
            agg["total_s"] += end - start
            agg["calls"] += 1
            agg["count"] += count
            agg["failed"] += failed
            agg["durations"].append(end - start)
        return out

    def child_time(self, root_names):
        """Total duration of the direct children of spans named in
        `root_names`."""
        roots = {s[0] for s in self.spans if s[1] in root_names}
        return sum(s[3] - s[2] for s in self.spans if s[4] in roots)


def _rows(args, table):
    return len(table)


def _sem_name(args):
    return f"semantics.{getattr(args[2], 'value', args[2])}"


def layers(tracer=None):
    """The fdlab entry points the workloads call, traced when `tracer` is set."""
    fx = SimpleNamespace(
        parse_table=fdlab.formats.parse_table,
        check=fdlab.semantics.check,
        closure=fdlab.armstrong.attribute_closure,
        implies=fdlab.armstrong.implies,
        derive=fdlab.armstrong.derive,
        check_derivation=fdlab.armstrong.check_derivation,
        valuate=fdlab.valuation.seamless_valuation_pfd,
        gen3dm=fdlab.valuation.generate_3dm_reduction,
        index_check=PfdIndex.check,
        index_insert=PfdIndex.insert,
        index_remove=PfdIndex.remove,
        cli_main=fdlab.cli.main,
    )
    if tracer is None:
        return fx
    w = tracer.wrap
    fx.parse_table = w("formats.parse_table", fx.parse_table, _rows)
    fx.check = w(_sem_name, fx.check, lambda a, r: len(a[0]))
    fx.closure = w("armstrong.closure", fx.closure)
    fx.implies = w("armstrong.implies", fx.implies)
    fx.derive = w("armstrong.derive", fx.derive, lambda a, r: len(r.steps) if r else 0)
    fx.check_derivation = w("armstrong.check_derivation", fx.check_derivation)
    fx.valuate = w("valuation.valuate", fx.valuate, lambda a, r: len(a[0]))
    fx.gen3dm = w("valuation.gen3dm", fx.gen3dm)
    fx.index_check = w("pfd_index.check", fx.index_check)
    fx.index_insert = w("pfd_index.insert", fx.index_insert)
    fx.index_remove = w("pfd_index.remove", fx.index_remove)
    return fx


class patched:
    """While active, `fdlab.cli` calls into formats and semantics, report
    rendering, and the tuple and table constructors `parse_table` calls go
    through traced wrappers.  Each tuple is one `model.build` span with
    count 1; the `Table` that holds them is one with count 0."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = {}

    def __enter__(self):
        t = self.tracer
        swaps = {
            (fdlab.cli, "parse_table"): t.wrap("formats.parse_table", fdlab.cli.parse_table, _rows),
            (fdlab.cli, "check"): t.wrap(_sem_name, fdlab.cli.check, lambda a, r: len(a[0])),
            (CheckReport, "to_text"): t.wrap("semantics.render", CheckReport.to_text),
            (CheckReport, "to_dict"): t.wrap("semantics.render", CheckReport.to_dict),
            (fdlab.formats, "Table"): t.wrap("model.build", fdlab.formats.Table, lambda a, r: 0),
        }
        for name in ("StandardTuple", "VagueTuple", "DisjunctiveTuple"):
            swaps[(fdlab.formats, name)] = t.wrap("model.build", getattr(fdlab.formats, name))
        for (owner, attr), fn in swaps.items():
            self.saved[(owner, attr)] = getattr(owner, attr)
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc):
        for (owner, attr), fn in self.saved.items():
            setattr(owner, attr, fn)
        return False

