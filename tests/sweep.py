"""Behaviour sweep: run one set of cases on two fdlab source trees and print
every case whose output differs, then the totals.

    python tests/sweep.py OLD NEW

OLD and NEW are directories that hold an `fdlab` package (a checkout's
`src`), or the package directories themselves; for the parent commit, e.g.
`git archive HEAD~1 src | tar -x -C /tmp/parent`.  Both trees are loaded
into this one process under the package names `side_old` and `side_new`,
which works because every import inside `fdlab` is relative.  Run it under
two `PYTHONHASHSEED` values to catch output that depends on the hash seed.

The cases, each run on both sides with that side's own parser and `Table`:

* the CLI in-process (`cli.main`), capturing exit code, stdout and stderr:
  `check` on every table under tests/data (but the wide one) with every FD file, under all
  seven semantics, as text and JSON, with the default cap and `--cap 3`;
  `valuate` on the same pairs; `worlds` plain, with `--limit 1` and with
  `--cap 3`; `closure` of every FD file from each attribute it names; and
  `gen3dm` on every instance file;
* the library, on every tests/data table and on seeded random standard,
  vague and disjunctive tables: `select` answers and normalised names
  (errors included), `project_table` onto every attribute subset,
  `enumerate_worlds` order and the point where `limit` stops it, rm
  witnesses and notes under both resemblance variants, `check` reports
  under every semantics of the last three FDs (their lhs is the whole
  schema) and of the FDs with a one-attribute lhs, `find_vertical_violation`
  at caps 1 and 4 for each of those, `find_strong_violation` at caps 1 and 3
  and weak at budgets 2, 4 and 8 for each FD with a one-attribute lhs, and
  `check_seamless` of the last three at budgets 1, 3, 6 and 20, where small
  budgets give out; a `PfdIndex` per FD with a one-attribute lhs, fed the
  table's tuples in a seeded order: each `check` and `insert` (rejections
  rendered), a seeded accepted tuple removed twice, and the sorted
  `entries()`; on vague tables,
  `seamless_valuation_rows` rows or errors at valuation seeds 0-2, for the
  FDs that hold as pfds, every third of them, and three FDs that mostly fail;
* Armstrong reasoning, on every FD file under tests/data and on seeded
  random FD sets: `attribute_closure` of each attribute subset (of seeded
  ones on the larger sets), and for targets from each such lhs,
  `implies`, the `derive` proof (each step's rule, conclusion, premises
  and `augment_with`) and its `check_derivation` verdict.

288,836 cases (67,039 of them Armstrong cases), about 16-25 s for both sides
on a 2-vCPU host.

Exit status: 0 if no case differs, 1 otherwise.
"""

import contextlib
import importlib
import importlib.util
import io
import itertools
import random
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"
SEMANTICS = ("standard", "strong", "weak", "seamless", "pfd", "vertical", "rm")
POOL = ("p", "q", "r", "s")
# Left out: wide_rhs.vtab, whose tuples have 8^7 valuations each.  `select`
# past the cap raises at once, but the selects whose rows fit under it (up to
# 8^6 of them) are listed and sorted, about 150 s a side, and its 8 attributes
# give 65,280 FDs for the rm cases: with the table in, the sweep grew from
# about 11 s and 99,389 cases to about 6 min and 235,114, measured before the
# valuate cases were added (they bring it to 100,352 without the table, the
# small-cap vertical and seamless cases to 103,322, the one-attribute lhs
# cases to 140,319 and the `PfdIndex` cases to 207,869).  tests/test_semantics.py:TestWideRhs and
# ci/test_console.py:test_wide_answer_sets cover it.
TABLES = sorted(p for p in DATA.iterdir() if p.suffix in (".stab", ".vtab", ".dtab") and p.name != "wide_rhs.vtab")


def load(root: Path, name: str):
    """The fdlab package under `root`, imported as `name`, with the submodules the sweep calls."""
    pkg_dir = root / "fdlab" if (root / "fdlab").is_dir() else root
    spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py",
                                                  submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("armstrong", "cli", "formats", "model", "semantics", "valuation"):
        setattr(pkg, sub, importlib.import_module(f"{name}.{sub}"))
    pkg.root = str(pkg_dir)
    return pkg


def outcome(fn) -> str:
    try:
        return str(fn())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def shown(result) -> str:
    """A selection, a violation or a world as text that does not depend on set order."""
    if hasattr(result, "answers"):
        return str((result.x_attrs, result.binding, result.onto, sorted(result.answers)))
    if hasattr(result, "model"):
        return "\n".join([",".join(result.schema.attributes), *(t.render() for t in result.tuples)])
    return result and result.render()


def run_cli(side, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = side.cli.main([str(a) for a in argv])
    # A traceback names the tree it came from.
    text = f"exit {code}\n{out.getvalue()}\n{err.getvalue()}"
    return text.replace(side.root, "<fdlab>").replace(side.__name__, "fdlab")


def subsets(attrs, least=0) -> list:
    return [s for k in range(least, len(attrs) + 1) for s in itertools.combinations(attrs, k)]


def cli_cases():
    fd_files = sorted(DATA.glob("*.fds"))
    for table, fds, sem, fmt, cap in itertools.product(TABLES, fd_files, SEMANTICS, ("text", "json"), (None, 3)):
        argv = ["check", "--table", table, "--fds", fds, "--semantics", sem, "--format", fmt]
        yield argv + (["--cap", cap] if cap else [])
    for table, fds in itertools.product(TABLES, fd_files):
        yield ["valuate", "--table", table, "--fds", fds]
    for table, extra in itertools.product(TABLES, ([], ["--limit", 1], ["--cap", 3])):
        yield ["worlds", "--table", table, *extra]
    for fds in fd_files:
        names = sorted({name for line in fds.read_text().splitlines() for name in line.split() if name != "->"})
        for name in names:
            yield ["closure", "--fds", fds, "--attrs", name]
    for inst in sorted(DATA.glob("*.3dm")):
        yield ["gen3dm", "--instance", inst]


def random_tables(seed=0, count=300):
    """(model, attrs, rows) as plain lists, so that each side builds its own table."""
    rng = random.Random(seed)
    for k in range(count):
        model = ("standard", "vague", "disjunctive")[k % 3]
        attrs = [f"A{i}" for i in range(rng.randint(1, 4))]
        rows = []
        for _ in range(rng.randint(1, 6)):
            if model == "standard":
                rows.append([rng.choice(POOL) for _ in attrs])
            elif model == "vague":
                rows.append([rng.sample(POOL, rng.choice((1, 1, 2, 3))) for _ in attrs])
            else:
                rows.append([[rng.choice(POOL) for _ in attrs] for _ in range(rng.randint(1, 3))])
        yield model, attrs, rows


def library_cases(side, name, table):
    """(case name, output) for the library calls on one table of this side."""
    m, s = side.model, side.semantics
    attrs = table.schema.attributes
    for sub in subsets(attrs, 1):
        yield f"{name} project {sub}", outcome(lambda: side.formats.serialize_table(m.project_table(table, sub)))
    for limit in (None, 1, 2, 5):
        worlds = lambda: "\n".join(map(side.formats.serialize_table, m.enumerate_worlds(table, limit, cap=5000)))
        yield f"{name} worlds limit={limit}", outcome(worlds)
    for i, t in enumerate(table.tuples):
        rows = list(itertools.islice(t.valuations(), 3))
        for x in subsets(attrs):
            bindings = dict.fromkeys([tuple(r[attrs.index(a)] for a in x) for r in rows] + [("z",) * len(x)])
            # Names go in out of schema order, which `select` normalises.
            for b, onto in itertools.product(bindings, (None, [a for a in attrs[::-1] if a not in x], attrs[:1])):
                got = lambda: shown(s.select(t, x[::-1], b, onto))
                yield f"{name} select t{i} {x}={b} onto {onto}", outcome(got)
        yield f"{name} select t{i} unknown", outcome(lambda: s.select(t, ["nope"], (), onto=["nope2"]))
        yield f"{name} select t{i} arity", outcome(lambda: s.select(t, attrs[:1], ()))
    fds = [s.FunctionalDependency(x, y) for x in subsets(attrs) for y in subsets(attrs, 1)]
    if table.model.value != "disjunctive":
        for fd, variant in itertools.product(fds, ("max", "min")):
            yield f"{name} rm {fd} {variant}", outcome(lambda: shown(s.find_rm_violation(table, fd, variant)))
    # The last three FDs' lhs is the whole schema, where few witnesses show.
    ones = [f for f in fds if len(f.lhs) == 1]
    for sem, group in itertools.product(SEMANTICS, (fds[-3:], ones)):
        yield f"{name} check {sem} {group[0]}", outcome(lambda: s.check(table, group, sem, valuation_cap=5000).to_text())
    for f, cap in itertools.product(fds[-3:] + ones, (1, 4)):
        yield f"{name} vertical {f} cap={cap}", outcome(lambda: shown(s.find_vertical_violation(table, f, cap)))
    for f, cap in itertools.product(ones, (1, 3)):
        yield f"{name} strong {f} cap={cap}", outcome(lambda: shown(s.find_strong_violation(table, f, cap)))
    for f, budget in itertools.product(ones, (2, 4, 8)):
        yield f"{name} weak {f} budget={budget}", outcome(lambda: s.check(table, f, "weak", budget).to_text())
    for budget in (1, 3, 6, 20):
        yield f"{name} seamless budget={budget}", outcome(lambda: shown(s.check_seamless(table, fds[-3:], budget)))
    for f in ones:
        yield from index_cases(side, f"{name} index {f}", table, f)
    if table.model.value == "vague":
        held = [fd for fd in fds if s.check_pfd(table, fd)]
        for seed, (k, group) in itertools.product(range(3), enumerate((held, held[::3], fds[-3:]))):
            rows = lambda: side.valuation.seamless_valuation_rows(table, group, seed)
            yield f"{name} valuate seed={seed} set={k}", outcome(rows)


def index_cases(side, name, table, fd):
    """A `PfdIndex` fed the table's tuples in an order seeded by `name`:
    each tuple checked, then inserted, a rejection rendered; then a seeded
    accepted tuple removed twice, and the entries, sorted."""
    rng = random.Random(name)
    idx, accepted = side.PfdIndex(fd, table.schema), []

    def insert(t):
        idx.insert(t)
        accepted.append(t)

    for k, t in enumerate(rng.sample(table.tuples, len(table.tuples))):
        conflict = lambda: (c := idx.check(t)) and (c.binding, sorted(c.stored), sorted(c.offered))
        yield f"{name} check {k}", outcome(conflict)
        yield f"{name} insert {k}", outcome(lambda: insert(t))
    if accepted:
        t = rng.choice(accepted)
        for k in range(2):
            yield f"{name} remove {k}", outcome(lambda: idx.remove(t))
    yield f"{name} entries", outcome(lambda: sorted((b, sorted(rows), n) for b, (rows, n) in idx.entries().items()))


def fd_sets(side):
    """(name, FDs): each FD file under tests/data, parsed by this side, then
    seeded random sets of small FDs over 5 and 10 attributes, duplicates
    among them."""
    for path in sorted(DATA.glob("*.fds")):
        yield path.name, side.formats.parse_fds(path.read_text())
    rng = random.Random(0)
    for k in range(150):
        attrs = "ABCDEFGHIJ"[:5 if k < 120 else 10]
        pairs = [(rng.sample(attrs, rng.randint(0, 2)), rng.sample(attrs, rng.randint(1, 2)))
                 for _ in range(rng.randint(1, 8 if k < 120 else 30))]
        pairs += rng.sample(pairs, len(pairs) // 4)
        yield f"fds{k}", [side.semantics.FunctionalDependency(x, y) for x, y in pairs]


def proof(d) -> str:
    """A derivation as text that does not depend on set order."""
    if not hasattr(d, "steps"):  # None, or the exception `derive` raised
        return f"{type(d).__name__}: {d}"
    steps = [f"{s.rule} {sorted(s.conclusion.lhs)}->{sorted(s.conclusion.rhs)} {s.premises} {sorted(s.augment_with)}"
             for s in d.steps]
    return "\n".join([f"{sorted(d.conclusion.lhs)}->{sorted(d.conclusion.rhs)}", *steps])


def armstrong_cases(side, name, fds):
    """(case name, output) for closure, implies, derive and check_derivation on one FD set of this side."""
    a, fd = side.armstrong, side.semantics.FunctionalDependency
    attrs = sorted(set().union(*(f.lhs | f.rhs for f in fds)))
    lhs_sets = subsets(attrs)
    if len(lhs_sets) > 64:
        lhs_sets = random.Random(name).sample(lhs_sets, 64)
    for x in lhs_sets:
        yield f"{name} closure {x}", outcome(lambda: sorted(a.attribute_closure(fds, x)))
        for y in [attrs, *([b] for b in attrs if b not in x)]:
            target = fd(x, y)
            yield f"{name} implies {x}->{y}", outcome(lambda: a.implies(fds, target))
            try:
                d = a.derive(fds, target)
            except Exception as exc:
                d = exc
            yield f"{name} derive {x}->{y}", proof(d)
            yield f"{name} check_derivation {x}->{y}", outcome(lambda: d is None or a.check_derivation(fds, d))


def side_tables(side):
    for path in TABLES:
        yield path.name, side.cli._load_table(str(path))
    for k, (model, attrs, rows) in enumerate(random_tables()):
        yield f"random{k}", getattr(side.model.Table, model)(attrs, rows)


def sweep(old, new) -> tuple:
    cases = differ = 0

    def compare(name, a, b):
        nonlocal cases, differ
        cases += 1
        if a != b:
            differ += 1
            print(f"DIFF {name}\n  old: {a[:300]!r}\n  new: {b[:300]!r}")

    for argv in cli_cases():
        name = " ".join(str(a).replace(str(DATA) + "/", "") for a in argv)
        compare(name, run_cli(old, argv), run_cli(new, argv))
    for (name, t_old), (_, t_new) in zip(side_tables(old), side_tables(new)):
        cases_old, cases_new = library_cases(old, name, t_old), library_cases(new, name, t_new)
        pairs = itertools.zip_longest(cases_old, cases_new, fillvalue=("", ""))
        for (case, a), (other, b) in pairs:
            compare(case or other, f"{case}\n{a}", f"{other}\n{b}")
    for (name, fds_old), (_, fds_new) in zip(fd_sets(old), fd_sets(new)):
        pairs = itertools.zip_longest(armstrong_cases(old, name, fds_old), armstrong_cases(new, name, fds_new),
                                      fillvalue=("", ""))
        for (case, a), (other, b) in pairs:
            compare(case or other, f"{case}\n{a}", f"{other}\n{b}")
    return cases, differ


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cases, differ = sweep(load(Path(argv[0]), "side_old"), load(Path(argv[1]), "side_new"))
    print(f"{cases} cases, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
