"""Seeded random generators for tables, dependencies, and matching instances."""

import itertools
import random

from fdlab import FunctionalDependency, Table, ThreeDMInstance

VALUES = ("v0", "v1", "v2")
CELL_SIZE_WEIGHTS = ((1, 0.55), (2, 0.30), (3, 0.15))


def rand_cell(rng: random.Random) -> frozenset:
    size = rng.choices([s for s, _ in CELL_SIZE_WEIGHTS], [w for _, w in CELL_SIZE_WEIGHTS])[0]
    return frozenset(rng.sample(VALUES, size))


def rand_vague_table(rng: random.Random, max_attrs=3, max_tuples=4, max_valuations=30_000) -> Table:
    while True:
        attrs = [f"A{i}" for i in range(rng.randint(1, max_attrs))]
        rows = [[rand_cell(rng) for _ in attrs] for _ in range(rng.randint(1, max_tuples))]
        table = Table.vague(attrs, rows)
        if table.valuation_count() <= max_valuations:
            return table


def rand_standard_table(rng: random.Random, max_attrs=3, max_tuples=4) -> Table:
    attrs = [f"A{i}" for i in range(rng.randint(1, max_attrs))]
    rows = [
        tuple(rng.choice(VALUES) for _ in attrs) for _ in range(rng.randint(1, max_tuples))
    ]
    return Table.standard(attrs, rows)


def rand_disjunctive_table(rng: random.Random, max_attrs=3, max_tuples=4, max_disjuncts=3) -> Table:
    attrs = [f"A{i}" for i in range(rng.randint(1, max_attrs))]
    rows = []
    for _ in range(rng.randint(1, max_tuples)):
        rows.append(
            [
                tuple(rng.choice(VALUES) for _ in attrs)
                for _ in range(rng.randint(1, max_disjuncts))
            ]
        )
    return Table.disjunctive(attrs, rows)


def rand_fd(rng: random.Random, attrs) -> FunctionalDependency:
    lhs = frozenset(a for a in attrs if rng.random() < 0.4)
    rhs = frozenset(a for a in attrs if rng.random() < 0.4)
    return FunctionalDependency(lhs, rhs)


def rand_fd_set(rng: random.Random, attrs, max_fds=6) -> list:
    return [rand_fd(rng, attrs) for _ in range(rng.randint(0, max_fds))]


def wide_fd_set(rng: random.Random, n_fds: int, n_attrs=200, start=3):
    """`n_fds` FDs over `n_attrs` attributes, and targets from a `start`-attribute
    lhs.  In a shuffled attribute order, a chain grows the closure of the first
    `start` one attribute at a time up to a random cut; ten links are doubled
    and ten skip one attribute.  Every other FD has an lhs ending at some
    attribute and an rhs of attributes before it, so it becomes ready with its
    rhs covered, or never.  Targets: the last attribute the chain reaches, and
    the one after it.  Returns (fds, targets)."""
    order = [f"A{i}" for i in range(n_attrs)]
    rng.shuffle(order)
    cut = rng.randint(n_attrs * 4 // 5, n_attrs - 1)
    fds = [FunctionalDependency({order[i - 1]}, {order[i]}) for i in range(start, cut)]
    fds += rng.sample(fds, 10)
    fds += [FunctionalDependency({order[i - 2]}, {order[i]}) for i in rng.sample(range(start, cut), 10)]
    while len(fds) < n_fds:
        k = rng.randrange(1, n_attrs)
        lhs = {order[k], *rng.sample(order[:k], min(k, rng.randint(0, 2)))}
        fds.append(FunctionalDependency(lhs, rng.sample(order[:k], min(k, rng.randint(1, 3)))))
    rng.shuffle(fds)
    return fds, [FunctionalDependency(order[:start], {order[i]}) for i in (cut - 1, cut)]


def rand_3dm_instance(rng: random.Random, n: int) -> ThreeDMInstance:
    """Instance where every element appears in at least one triple."""
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    zs = [f"z{i}" for i in range(n)]
    pool = list(itertools.product(xs, ys, zs))
    k = rng.randint(n, min(len(pool), 2 * n + 2))
    while True:
        triples = rng.sample(pool, k)
        if (
            {t[0] for t in triples} == set(xs)
            and {t[1] for t in triples} == set(ys)
            and {t[2] for t in triples} == set(zs)
        ):
            return ThreeDMInstance(xs, ys, zs, triples)


def grouped_vague_table(rng: random.Random, n: int, group=10, pool=4):
    """n distinct vague tuples over K, L, C, D, F in groups of `group`, and
    the FDs K -> C, K L -> C D and K -> D.  Each group draws its K and L cells
    from its own pools of `pool` values and shares one C and one D cell, so
    every FD holds under pfd and a seamless world exists; F is noise."""
    rows = []
    for g in range(0, n, group):
        ks = [f"k{g}_{i}" for i in range(pool)]
        ls = [f"l{g}_{i}" for i in range(pool)]
        c = frozenset(rng.sample(VALUES, rng.randint(1, 2)))
        d = frozenset(rng.sample(VALUES, rng.randint(1, 2)))
        members = set()
        while len(members) < min(group, n - g):
            members.add((
                frozenset(rng.sample(ks, rng.randint(1, 2))), frozenset(rng.sample(ls, rng.randint(1, 2))),
                c, d, frozenset(rng.sample(VALUES, rng.randint(1, 2))),
            ))
        rows.extend(members)
    fds = [FunctionalDependency({"K"}, {"C"}), FunctionalDependency({"K", "L"}, {"C", "D"}),
           FunctionalDependency({"K"}, {"D"})]
    return Table.vague(["K", "L", "C", "D", "F"], rows), fds


def unique_lhs_vague_table(rng: random.Random, n: int):
    """n vague tuples over X, Y, Z and the FD Z -> Y: Z is unique, so the FD
    holds weakly and no tuple ever narrows another; Y holds 1-2 of 3 values
    and X = x{i//3}."""
    rows = [(f"x{i // 3}", frozenset(rng.sample(VALUES, rng.randint(1, 2))), f"z{i}") for i in range(n)]
    return Table.vague(["X", "Y", "Z"], rows), FunctionalDependency({"Z"}, {"Y"})


def paired_lhs_vague_table(rng: random.Random, n: int):
    """n vague tuples over X, Y, Z and the FD Z -> Y, in pairs that share
    their Z value and one single Y value: every tuple shares a binding with
    its partner, so the search branches on it, yet no row narrows another.
    X holds 1-2 values of the tuple's own."""
    ys = [rng.choice(VALUES) for _ in range(0, n, 2)]
    rows = [
        (frozenset(f"x{i}_{k}" for k in range(rng.randint(1, 2))), ys[i // 2], f"z{i // 2}") for i in range(n)
    ]
    return Table.vague(["X", "Y", "Z"], rows), FunctionalDependency({"Z"}, {"Y"})


def monotone_3sat_table(rng: random.Random, n: int, m: int):
    """A random monotone 3-SAT formula over the variables 0..n-1 with m
    clauses, each three distinct variables all positive or all negative, as
    (vars, positive) pairs; and its vague table over A, B, C.  Clause i
    becomes the tuple ({x_v : v in vars}, T or F by its sign, c_i), so A -> B
    holds weakly iff the formula is satisfiable: a world picks one variable
    per clause, and the FD makes each variable take one sign."""
    clauses = [(frozenset(rng.sample(range(n), 3)), rng.random() < 0.5) for _ in range(m)]
    rows = [({f"x{v}" for v in vs}, "T" if positive else "F", f"c{i}") for i, (vs, positive) in enumerate(clauses)]
    return Table.vague(["A", "B", "C"], rows), clauses


SMALL_ATTRS = ("A", "B", "C")
_SWAP = {"0": "1", "1": "0", "01": "01"}  # "01" is the vague cell {0|1}


def _flip(row: tuple, flips: tuple) -> tuple:
    return tuple(_SWAP[c] if f else c for c, f in zip(row, flips))


def _one_per_renaming(tables: list, rename) -> list:
    """Of `tables`, each a sorted tuple of its tuples, the least of each class
    under swapping 0 and 1 in any set of attributes, which preserves every
    verdict; `rename(t, flips)` swaps the values of one tuple."""

    def renamings(ts):
        for flips in itertools.product((False, True), repeat=len(SMALL_ATTRS)):
            yield tuple(sorted(rename(t, flips) for t in ts))

    return [ts for ts in tables if ts == min(renamings(ts))]


def small_vague_tables(canonical=True) -> list:
    """Every vague table over A, B, C with values {0, 1} and one or two
    tuples: 27 + 351 = 378 tables.  With `canonical`, one per class under
    swapping 0 and 1 in any set of attributes: 76 tables."""
    rows = sorted(itertools.product(("0", "1", "01"), repeat=len(SMALL_ATTRS)))
    tables = [pair for k in (1, 2) for pair in itertools.combinations(rows, k)]  # each sorted, like `rows`
    if canonical:
        tables = _one_per_renaming(tables, _flip)
    return [Table.vague(SMALL_ATTRS, [[frozenset(c) for c in r] for r in rows]) for rows in tables]


def small_disjunctive_tables(canonical=True) -> list:
    """Every disjunctive table over A, B, C with values {0, 1}, one or two
    tuples and one or two disjuncts per tuple: 8 + 28 = 36 tuples and
    36 + 630 = 666 tables.  With `canonical`, one per class under swapping 0
    and 1 in any set of attributes: 106 tables."""
    rows = sorted(itertools.product("01", repeat=len(SMALL_ATTRS)))
    tuples = sorted(d for k in (1, 2) for d in itertools.combinations(rows, k))
    tables = [pair for k in (1, 2) for pair in itertools.combinations(tuples, k)]  # each sorted, like `tuples`
    if canonical:
        tables = _one_per_renaming(tables, lambda d, flips: tuple(sorted(_flip(r, flips) for r in d)))
    return [Table.disjunctive(SMALL_ATTRS, d) for d in tables]
