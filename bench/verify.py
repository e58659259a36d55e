"""Output checks, independent of fdlab's checkers.

Each check returns None when the output is right and a short message when it
is wrong.  Dependencies are checked with a plain hash map over standard rows,
worlds are matched back to the input tuples, and violation witnesses are
replayed with `fdlab.select`, which the benchmark treats as the definition of
t[X=binding][Y].
"""

from __future__ import annotations

import json
from collections import defaultdict

from fdlab import FunctionalDependency, Table, select, to_disjunctive


def fd_violation(attrs, rows, fd):
    """First pair of standard rows that agree on the lhs and not the rhs."""
    x = [attrs.index(a) for a in sorted(fd[0])]
    y = [attrs.index(a) for a in sorted(fd[1])]
    seen = {}
    for row in rows:
        key, val = tuple(row[i] for i in x), tuple(row[i] for i in y)
        if seen.setdefault(key, (val, row))[0] != val:
            return seen[key][1], row
    return None


def closure(fds, attrs) -> frozenset:
    """Linear-time attribute closure (counter per FD, Beeri-Bernstein)."""
    missing = [len(set(lhs)) for lhs, _ in fds]
    by_attr = defaultdict(list)
    for i, (lhs, _) in enumerate(fds):
        for a in set(lhs):
            by_attr[a].append(i)
    result = set(attrs)
    todo = list(result)
    for i, m in enumerate(missing):
        if m == 0:
            todo.extend(a for a in fds[i][1] if a not in result)
            result.update(fds[i][1])
    while todo:
        a = todo.pop()
        for i in by_attr.pop(a, ()):
            missing[i] -= 1
            if missing[i] == 0:
                for b in fds[i][1]:
                    if b not in result:
                        result.add(b)
                        todo.append(b)
    return frozenset(result)


def world_of(model, rows, world_rows) -> str | None:
    """Is `world_rows` (a set of standard rows) the image of one valuation of
    `rows`?  Every world row needs its own compatible tuple (a matching) and
    every tuple needs some compatible world row."""
    if model == "standard":
        return None if set(world_rows) == set(rows) else "world differs from the standard table"
    if model != "vague":
        raise ValueError(f"no world check for {model} tables")
    world_rows = list(dict.fromkeys(world_rows))
    by_first = defaultdict(list)
    for i, cells in enumerate(rows):
        for v in cells[0]:
            by_first[v].append(i)
    cand = {}
    for row in world_rows:
        cand[row] = [i for i in by_first.get(row[0], ()) if all(v in c for v, c in zip(row, rows[i]))]
        if not cand[row]:
            return f"world row {row} is no valuation of any tuple"
    if len({i for c in cand.values() for i in c}) != len(rows):
        return "some tuple has no valuation in the world"
    owner = {}

    def augment(row, seen):
        for i in cand[row]:
            if i not in seen:
                seen.add(i)
                if i not in owner or augment(owner[i], seen):
                    owner[i] = row
                    return True
        return False

    for row in world_rows:
        if not augment(row, set()):
            return "world has more distinct rows than tuples can supply"
    return None


def check_world(model, attrs, rows, fds, world_rows) -> str | None:
    err = world_of(model, rows, world_rows)
    if err:
        return err
    for fd in fds:
        if fd_violation(attrs, world_rows, fd):
            return f"world violates {fd}"
    return None


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------


class Witnesses:
    """Maps rendered tuples of one table back to fdlab tuples, so a witness
    printed by a report can be replayed with `select`."""

    def __init__(self, case):
        table = getattr(Table, case.model)(case.attrs, case.rows)
        self.tuples = {}
        for t in table.tuples + to_disjunctive(table).tuples:
            self.tuples[t.render()] = t
        self.case = case

    def check(self, fd, semantics: str, rendered: str) -> str | None:
        parts = rendered.split(" ")
        found = {}
        for p in parts[1:]:
            key, _, val = p.partition("=(")
            if val.endswith(")"):
                found[key] = val[:-1]
        try:
            t1, t2 = self.tuples[found["t1"]], self.tuples[found["t2"]]
        except KeyError:
            return f"witness names no pair of input tuples: {rendered}"
        lhs, rhs = fd
        if semantics == "rm":
            r_l, r_r = _resemblance(t1, t2, lhs), _resemblance(t1, t2, rhs)
            return None if r_r < r_l else f"resemblance does not drop: {rendered}"
        if "binding" not in found:
            return f"witness has no binding: {rendered}"
        binding = tuple(found["binding"].split(","))
        a1 = select(t1, lhs, binding, rhs).answers
        a2 = select(t2, lhs, binding, rhs).answers
        if not a1 or not a2:
            return f"binding {binding} selects nothing in one witness tuple"
        return None if a1 != a2 else f"witness tuples agree under select: {rendered}"


def _cells(t):
    return t.cells if hasattr(t, "cells") else tuple(frozenset((v,)) for v in t.values)


def _resemblance(t1, t2, attrs) -> float:
    pos = [t1.schema.attributes.index(a) for a in attrs]
    c1, c2 = _cells(t1), _cells(t2)
    out = 1.0
    for i in pos:
        inter = len(c1[i] & c2[i])
        out = min(out, max(inter / len(c1[i]), inter / len(c2[i])))
    return out


def parse_report(text: str, fmt: str) -> list:
    """[(holds, violation text or None)] per FD, from `fdlab check` output."""
    if fmt == "json":
        return [(v["holds"], v["violation"]) for v in json.loads(text)["verdicts"]]
    out = []
    for line in text.splitlines():
        if line.startswith("holds: "):
            out.append([line == "holds: true", None])
        elif line.startswith("violation: "):
            out[-1][1] = line[len("violation: "):]
    return [tuple(v) for v in out]


def check_verdicts(case, semantics, verdicts, witnesses: Witnesses) -> str | None:
    """Per-FD verdicts must match the planted ones; each violation witness
    must replay."""
    if len(verdicts) != len(case.fds):
        return f"{len(verdicts)} verdicts for {len(case.fds)} dependencies"
    for fd, want, (holds, violation) in zip(case.fds, case.holds, verdicts):
        if holds != want:
            return f"{fd}: holds={holds}, planted {want}"
        if not holds:
            if violation is None:
                return f"{fd}: violated without a witness"
            err = witnesses.check(fd, semantics, violation)
            if err:
                return err
    return None


def fds_of(case) -> list:
    return [FunctionalDependency(lhs, rhs) for lhs, rhs in case.fds]
