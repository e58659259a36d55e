"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain Python data (rows,
dependency strings, planted answers); nothing here imports fdlab, so the
inputs do not change when the library does.  Sizes are fixed per case and
only the content depends on the seed, so the work per case stays comparable
across seeds.

Row shapes, per model:
  standard     tuple of str
  vague        tuple of frozenset of str
  disjunctive  tuple of (tuple of str), one inner tuple per disjunct
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

STANDARD, VAGUE, DISJUNCTIVE = "standard", "vague", "disjunctive"

SCAN_ATTRS = ("K1", "K2", "D1", "D2", "F")
# FD menu for scan tables.  D1/D2 are functions of a tuple's lhs group, F is
# noise outside every FD.  A planted violation changes D1 only, so exactly
# the FDs with D1 on the rhs are violated.
FD_A = (("K1",), ("D1",))
FD_B = (("K1", "K2"), ("D1", "D2"))
FD_C = (("K1",), ("D2",))
PLANTED_ATTR = "D1"


@dataclass(frozen=True)
class TableCase:
    """A generated table, its dependencies and the planted verdict per FD."""

    name: str
    model: str
    attrs: tuple
    rows: tuple
    fds: tuple  # ((lhs attrs), (rhs attrs)) pairs
    holds: tuple  # expected verdict per FD (non-seamless semantics)


def fd_text(fd) -> str:
    return f"{' '.join(fd[0])} -> {' '.join(fd[1])}"


def render_cell(cell) -> str:
    vals = sorted(cell)
    return vals[0] if len(vals) == 1 else "{" + "|".join(vals) + "}"


def table_text(model: str, attrs, rows) -> str:
    """File text in fdlab's table format, rows in generation order."""
    lines = [f"#model: {model}", ",".join(attrs)]
    for row in rows:
        if model == STANDARD:
            lines.append(",".join(row))
        elif model == VAGUE:
            lines.append(",".join(render_cell(c) for c in row))
        else:
            lines.append("||".join("(" + ",".join(d) + ")" for d in row))
    return "\n".join(lines) + "\n"


def fds_text(fds) -> str:
    return "\n".join(fd_text(fd) for fd in fds) + "\n"


def _subset(rng, pool, lo, hi):
    return frozenset(rng.sample(pool, rng.randint(lo, min(hi, len(pool)))))


# ---------------------------------------------------------------------------
# scan: grouped tables with a planted late violation
# ---------------------------------------------------------------------------

# shape -> (group sizes, lhs pool size, max lhs cell size).  Group sizes
# repeat in a fixed order, so the number of tuple pairs that share lhs values
# (which drives the pair loops' cost) does not depend on the seed.
SHAPES = {
    "sparse": ((1, 2), 2, 2),
    "grouped": ((10, 20, 30, 40, 50), 4, 2),
}


def grouped_table(rng, model: str, shape: str, n: int, fds, violated: bool, name: str = "") -> TableCase:
    """n tuples in lhs groups with disjoint value pools across groups.

    Tuples of one group share their D1/D2 cells, so every FD of the menu
    holds under standard, pfd, vertical and rm semantics.  With `violated`,
    the last tuple copies a member of the last group (which sorts last in
    canonical order) with a D1 value no other tuple has.
    """
    sizes, pool_size, max_cell = SHAPES[shape]
    d_values = [f"d{i}" for i in range(10)]
    f_values = [f"f{i}" for i in range(10)]
    target = n - 1 if violated else n
    rows, groups = [], []
    g = 0
    while len(rows) < target:
        size = min(sizes[g % len(sizes)], target - len(rows))
        k1_pool = [f"k{g:05d}a{i}" for i in range(pool_size)]
        k2_pool = [f"k{g:05d}b{i}" for i in range(pool_size)]
        # D cells are shared by the whole group, so their sizes (which
        # multiply every member's valuation count) follow the group index.
        single = model != VAGUE
        d1 = frozenset(rng.sample(d_values, 1 if single else 1 + g % 2))
        d2 = frozenset(rng.sample(d_values, 1 if single else 1 + g // 2 % 2))
        members = []
        while len(members) < size:
            if model == VAGUE:
                row = (_subset(rng, k1_pool, 1, max_cell), _subset(rng, k2_pool, 1, max_cell),
                       d1, d2, _subset(rng, f_values, 1, 2))
            else:
                (dv1,), (dv2,) = d1, d2

                def one():
                    return (rng.choice(k1_pool), rng.choice(k2_pool), dv1, dv2, rng.choice(f_values))

                row = one() if model == STANDARD else tuple(sorted({one() for _ in range(rng.randint(1, 3))}))
            if row not in members:
                members.append(row)
        groups.append(members)
        rows.extend(members)
        g += 1
    if violated:
        source = rng.choice(groups[-1])
        if model == VAGUE:
            planted = (source[0], source[1], frozenset(("dx",)), source[3], source[4])
        elif model == STANDARD:
            planted = (source[0], source[1], "dx", source[3], source[4])
        else:
            d = source[0]
            planted = ((d[0], d[1], "dx", d[3], d[4]),)
        rows.append(planted)
    holds = tuple(not (violated and PLANTED_ATTR in rhs) for _, rhs in fds)
    return TableCase(name, model, SCAN_ATTRS, tuple(rows), tuple(fds), holds)


def wide_table(rng, n_lhs: int, n_cand: int, violated: bool, name: str = "") -> TableCase:
    """Three vague tuples sharing the same n_lhs lhs cells of n_cand
    candidates each, so every pair shares exactly n_cand**n_lhs bindings."""
    attrs = tuple(f"W{i}" for i in range(n_lhs)) + ("D1", "F")
    pool = [f"w{i:02d}" for i in range(4 * n_cand)]
    lhs = tuple(frozenset(rng.sample(pool, n_cand)) for _ in range(n_lhs))
    d1 = frozenset(("d1",))
    rows = [lhs + (d1, frozenset(("f0",))), lhs + (d1, frozenset(("f1",)))]
    rows.append(lhs + (frozenset(("dx",)) if violated else d1, frozenset(("f2",))))
    fd = (attrs[:n_lhs], ("D1",))
    return TableCase(name, VAGUE, attrs, tuple(rows), (fd,), (not violated,))


# ---------------------------------------------------------------------------
# armstrong: FD sets in random and reverse-chain order
# ---------------------------------------------------------------------------


def chain_fds(n: int):
    """c{n} -> c{n-1} -> ... -> c0: canonical (sorted) order meets the chain
    back to front, so each closure pass admits one FD."""
    names = [f"c{i:05d}" for i in range(n + 1)]
    fds = [((names[i + 1],), (names[i],)) for i in range(n)]
    return fds, names[n], names[0]


def random_fds(rng, n: int, n_attrs: int):
    attrs = [f"a{i:03d}" for i in range(n_attrs)]
    fds = set()
    while len(fds) < n:
        lhs = tuple(sorted(rng.sample(attrs, rng.randint(1, 3))))
        rhs = tuple(sorted(rng.sample(attrs, rng.randint(1, 2))))
        fds.add((lhs, rhs))
    return sorted(fds), attrs


# ---------------------------------------------------------------------------
# search: strong/weak tables, 3DM instances
# ---------------------------------------------------------------------------

WORLD_ATTRS = ("X", "Y", "F")


def world_table(rng, kind: str, k: int, fillers: int = 20) -> TableCase:
    """k ambiguous tuples (Y in {ya|yb}) plus standard fillers, all with
    distinct X except the planted ones.

    kind: strong_holds, strong_fails, weak_holds, weak_fails.  The planted
    tuples sort first, so they vary slowest in valuation order and the
    deciding world comes late.
    """
    amb = frozenset(("ya", "yb"))
    rows = []
    for i in range(fillers):
        rows.append((frozenset((f"x{i:03d}",)), frozenset((f"y{rng.randrange(5)}",)),
                     frozenset((f"f{rng.randrange(9)}",))))
    for i in range(k):
        rows.append((frozenset((f"xa{i:03d}",)), amb, frozenset((f"f{rng.randrange(9)}",))))
    planted = frozenset(("a000",))
    if kind == "strong_fails":
        rows[fillers] = (planted, amb, frozenset(("f0",)))
        rows[fillers + 1] = (planted, amb, frozenset(("f1",)))
    elif kind == "weak_holds":
        rows[fillers] = (planted, amb, frozenset(("f0",)))
        rows.append((planted, frozenset(("yb",)), frozenset(("f1",))))
    elif kind == "weak_fails":
        rows.append((planted, frozenset(("yb",)), frozenset(("f0",))))
        rows.append((planted, frozenset(("yc",)), frozenset(("f1",))))
    holds = kind in ("strong_holds", "weak_holds")
    return TableCase(kind, VAGUE, WORLD_ATTRS, tuple(rows), ((("X",), ("Y",)),), (holds,))


def recursion_table(rng, n: int) -> TableCase:
    """An n-row standard table on which A -> B holds: a seamless world
    exists (the table itself), but a search that recurses once per tuple
    runs out of stack on it."""
    rows = tuple((f"a{i:05d}", f"b{rng.randrange(50)}") for i in range(n))
    return TableCase("recursion", STANDARD, ("A", "B"), rows, ((("A",), ("B",)),), (True,))


@dataclass(frozen=True)
class Matching:
    """A 3DM instance with its planted answer (a perfect matching or None)."""

    n: int
    xs: tuple
    ys: tuple
    zs: tuple
    triples: tuple
    planted: object  # frozenset of triples, or None when no matching exists

    def text(self) -> str:
        return "\n".join([str(self.n)] + [" ".join(t) for t in self.triples]) + "\n"


def matching_instance(rng, n: int, yes: bool, decoys: int) -> Matching:
    """Planted yes: a random perfect matching plus `decoys` random triples.
    Planted no: x0 and x1 occur only in triples with y0, so no perfect
    matching exists (both would need y0); every element is still covered."""
    xs = tuple(f"x{i}" for i in range(n))
    ys = tuple(f"y{i}" for i in range(n))
    zs = tuple(f"z{i}" for i in range(n))
    ym, zm = list(ys), list(zs)
    rng.shuffle(ym)
    rng.shuffle(zm)
    if yes:
        matching = [(xs[i], ym[i], zm[i]) for i in range(n)]
        pool = [t for t in itertools.product(xs, ys, zs) if t not in matching]
        triples = matching + rng.sample(pool, decoys)
        planted = frozenset(matching)
    else:
        y0 = ym[0]
        triples = [(xs[0], y0, zm[0]), (xs[1], y0, zm[1])]
        # The other x's cover every remaining y and z.
        triples += [(xs[i], ym[i], zm[i]) for i in range(2, n)]
        triples.append((xs[2], ym[1], zm[0]))
        pool = [t for t in itertools.product(xs[2:], ys, zs) if t not in triples]
        pool += [(x, y0, z) for x in xs[:2] for z in zs if (x, y0, z) not in triples]
        triples += rng.sample(pool, min(decoys, len(pool)))
        planted = None
    rng.shuffle(triples)
    return Matching(n, xs, ys, zs, tuple(triples), planted)


# ---------------------------------------------------------------------------
# ingest: batches for a sliding-window PfdIndex
# ---------------------------------------------------------------------------

INGEST_ATTRS = ("X", "Z", "Y", "K")
INGEST_FDS = ((("X",), ("Y",)), (("X", "Z"), ("Y",)))
INGEST_CLASSES = 2000  # X values come in classes of 3; Y is a function of the class
CONFLICT_RATE = 0.05


def ingest_class_y(c: int) -> frozenset:
    return frozenset((f"y{c % 7}",)) if c % 3 else frozenset((f"y{c % 7}", f"y{(c + 1) % 7}"))


def ingest_batch(rng, batch_no: int, size: int, previous) -> tuple:
    """`size` vague rows.  Most are consistent with both FDs; about 5% copy
    the X and Z cells of an accepted row of the previous batch (still in the
    window) with a different Y cell, so both indexes must reject them.

    Returns (rows, expected_reject flags in row order); K is unique per row,
    so no two rows collapse.
    """
    rows, reject = [], []
    for i in range(size):
        key = frozenset((f"r{batch_no:06d}_{i:03d}",))
        if previous and rng.random() < CONFLICT_RATE:
            src = rng.choice(previous)
            c = int(next(iter(src[0]))[1:]) // 3
            y = frozenset((f"y{(c % 7) + 7}",))
            rows.append((src[0], src[1], y, key))
            reject.append(True)
            continue
        c = rng.randrange(INGEST_CLASSES)
        xcell = frozenset(rng.sample([f"x{3 * c + j:05d}" for j in range(3)], rng.randint(1, 3)))
        zcell = frozenset(rng.sample(["z0", "z1", "z2", "z3", "z4"], rng.randint(1, 3)))
        rows.append((xcell, zcell, ingest_class_y(c), key))
        reject.append(False)
    return tuple(rows), tuple(reject)
