"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the seamless-search scaling log.
"""

import random
import time
from pathlib import Path

from fdlab import (
    FunctionalDependency,
    Model,
    PfdIndex,
    PfdRejected,
    Schema,
    Table,
    VagueTuple,
    attribute_closure,
    check_derivation,
    check_pfd,
    check_rm,
    check_seamless,
    check_standard,
    check_strong,
    check_vertical,
    check_weak,
    derive,
    generate_3dm_reduction,
    implies,
    parse_table,
    project_table,
    seamless_valuation_pfd,
    seamless_valuation_rows,
    serialize_table,
    solve_3dm_bruteforce,
)
from fdlab.cli import main as cli_main

import tables as T
from insert_bench import bench_inserts
from oracles import check_pfd_decomposed
from tables import fd
from gen import (
    rand_3dm_instance,
    rand_cell,
    rand_disjunctive_table,
    rand_fd,
    rand_fd_set,
    rand_standard_table,
    rand_vague_table,
)

DATA = Path(__file__).parent / "data"


def report(criterion, label, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" {extra}" if extra else ""
    print(f"[acceptance] criterion {criterion} ({label}): {status}{suffix}")
    assert not failures, f"{len(failures)} failure(s): " + "; ".join(
        str(f) for f in failures[:5]
    )


def test_criterion_1_golden_verdict_suite():
    failures = []
    start = time.perf_counter()

    def expect(tag, got, want=True):
        if got != want:
            failures.append(f"{tag}: got {got}, want {want}")

    expect("transitivity-trap weak A->B", check_weak(T.TRANSITIVITY_TRAP, T.AB))
    expect("transitivity-trap weak B->C", check_weak(T.TRANSITIVITY_TRAP, T.BC))
    expect("transitivity-trap weak A->C", check_weak(T.TRANSITIVITY_TRAP, T.AC), False)
    expect("transitivity-trap seamless {A->B,B->C}", check_seamless(T.TRANSITIVITY_TRAP, [T.AB, T.BC]), None)

    expect("resemblance-trap rm A->B", check_rm(T.RESEMBLANCE_TRAP, T.AB))
    expect("resemblance-trap rm C->B", check_rm(T.RESEMBLANCE_TRAP, T.CB))
    expect("resemblance-trap seamless {A->B,C->B}", check_seamless(T.RESEMBLANCE_TRAP, [T.AB, T.CB]), None)

    for variant in ("max", "min"):
        expect(f"distinct-trap rm[{variant}] A->B", check_rm(T.RESEMBLANCE_TRAP_DISTINCT, T.AB, variant))
        expect(f"distinct-trap rm[{variant}] C->B", check_rm(T.RESEMBLANCE_TRAP_DISTINCT, T.CB, variant))
    expect("distinct-trap seamless", check_seamless(T.RESEMBLANCE_TRAP_DISTINCT, [T.AB, T.CB]), None)

    expect("no-joint-world pfd A->B", check_pfd(T.NO_JOINT_WORLD, T.AB))
    expect("no-joint-world pfd C->D", check_pfd(T.NO_JOINT_WORLD, T.CD))
    expect("no-joint-world seamless (impossibility witness)", check_seamless(T.NO_JOINT_WORLD, [T.AB, T.CD]), None)

    expect("augmentation-trap pfd A->C", check_pfd(T.AUGMENTATION_TRAP, T.AUGMENTATION_TRAP_AC))
    expect("augmentation-trap pfd AB->CB", check_pfd(T.AUGMENTATION_TRAP, T.AUGMENTATION_TRAP_ABCB), False)

    expect("ssn-table pfd SSN->Name", check_pfd(T.SSN_NAMES, T.SSN_NAMES_FD))
    # The ssn table's vertical verdict is a known discrepancy between the
    # literal three-condition reading (holds) and the stricter readings that
    # reject it; it is documented in test_semantics, deliberately not here.

    expect("joejack strong dept->mgr", check_strong(T.JOEJACK, T.JOEJACK_FD), False)
    expect(
        "joejack projection strong",
        check_strong(project_table(T.JOEJACK, {"department", "manager"}), T.JOEJACK_FD),
    )

    expect("single-tuple vertical A->B", check_vertical(T.SINGLE_VERTICAL, T.AB), False)
    expect(
        "single-tuple projected vertical",
        check_vertical(project_table(T.SINGLE_VERTICAL, {"A", "B"}), T.AB),
    )
    expect("single-tuple pfd A->B", check_pfd(T.SINGLE_VERTICAL, T.AB))

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"golden suite took {elapsed:.2f}s, budget is 1s")
    report(1, "golden verdict suite", failures, f"in {elapsed * 1000:.0f} ms")


def test_criterion_2_implication_chains():
    rng = random.Random(20)
    failures = []
    start = time.perf_counter()
    for i in range(1000):
        if i % 2 == 0:
            table = rand_vague_table(rng)
        else:
            table = rand_disjunctive_table(rng)
        f = rand_fd(rng, table.schema.attributes)
        strong = check_strong(table, f)
        pfd = check_pfd(table, f)
        weak = check_weak(table, f)
        vertical = check_vertical(table, f)
        if strong and not pfd:
            failures.append(("strong=>pfd", table, f))
        if pfd and not weak:
            failures.append(("pfd=>weak", table, f))
        if vertical and not pfd:
            failures.append(("vertical=>pfd", table, f))
        if table.model is Model.VAGUE and pfd and not check_rm(table, f):
            failures.append(("pfd=>rm", table, f))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget is 30s")
    report(2, "implication chains, 1000 tables", failures, f"in {elapsed:.1f} s")


def test_criterion_3_conservativity():
    rng = random.Random(30)
    failures = []
    for _ in range(1000):
        table = rand_standard_table(rng)
        f = rand_fd(rng, table.schema.attributes)
        verdicts = {
            "standard": check_standard(table, f),
            "strong": check_strong(table, f),
            "weak": check_weak(table, f),
            "pfd": check_pfd(table, f),
            "vertical": check_vertical(table, f),
        }
        if len(set(verdicts.values())) != 1:
            failures.append((table, f, verdicts))
    report(3, "conservativity on 1000 standard tables", failures)


def test_criterion_4_armstrong_suite():
    rng = random.Random(40)
    failures = []

    # Axioms hold for the pfd reading over vague tables.
    for _ in range(300):
        table = rand_vague_table(rng)
        attrs = list(table.schema.attributes)
        x = frozenset(a for a in attrs if rng.random() < 0.5)
        y = frozenset(a for a in attrs if rng.random() < 0.5)
        z = frozenset(a for a in attrs if rng.random() < 0.5)
        if y <= x and not check_pfd(table, FunctionalDependency(x, y)):
            failures.append(("reflexivity", table, x, y))
        if check_pfd(table, FunctionalDependency(x, y)):
            if not check_pfd(table, FunctionalDependency(x | z, y | z)):
                failures.append(("augmentation", table, x, y, z))
            if check_pfd(table, FunctionalDependency(y, z)) and not check_pfd(
                table, FunctionalDependency(x, z)
            ):
                failures.append(("transitivity", table, x, y, z))

    # Decomposition: X->Y iff X->A for each rhs attribute outside the lhs,
    # and the decomposed criterion (a test oracle) agrees with check_pfd.
    for _ in range(300):
        table = rand_vague_table(rng)
        f = rand_fd(rng, table.schema.attributes)
        whole = check_pfd(table, f)
        split = all(
            check_pfd(table, FunctionalDependency(f.lhs, {a})) for a in f.rhs - f.lhs
        )
        if whole != split:
            failures.append(("decomposition", table, f))
        if whole != check_pfd_decomposed(table, f):
            failures.append(("fast-path", table, f))

    # implies / derive / check_derivation round-trip.
    attrs = ["A", "B", "C", "D", "E"]
    for _ in range(500):
        fds = rand_fd_set(rng, attrs)
        target = rand_fd(rng, attrs)
        implied = implies(fds, target)
        d = derive(fds, target)
        if implied != (d is not None):
            failures.append(("derive-vs-implies", fds, target))
        elif d is not None and not (check_derivation(fds, d) and d.conclusion == target):
            failures.append(("proof-check", fds, target))
        if implied and not target.rhs <= attribute_closure(fds, target.lhs):
            failures.append(("closure", fds, target))
    report(4, "armstrong suite", failures)


def test_criterion_5_valuation_algorithm():
    rng = random.Random(50)
    failures = []

    world = seamless_valuation_pfd(T.VALUATION_DEMO, T.VALUATION_DEMO_FDS, seed=T.VALUATION_DEMO_B1_SEED)
    if world != T.VALUATION_DEMO_EXPECTED:
        failures.append(("worked example", world))

    for _ in range(500):
        table = rand_vague_table(rng)
        attrs = table.schema.attributes
        candidates = [rand_fd(rng, attrs) for _ in range(3)]
        fds = [f for f in candidates if check_pfd(table, f)]
        for seed in range(10):
            rows = seamless_valuation_rows(table, fds, seed=seed)
            for t, row in zip(table.tuples, rows):
                if not all(v in cell for v, cell in zip(row, t.cells)):
                    failures.append(("not a valuation", table, fds, seed))
                    break
            result = Table.standard(table.schema, rows)
            bad = [f for f in fds if not check_standard(result, f)]
            if bad:
                failures.append(("fd fails in output", table, bad, seed))
    report(5, "valuation algorithm, 500 pairs x 10 seeds", failures)


def test_criterion_6_reduction_equivalence():
    rng = random.Random(60)
    failures = []
    agreements = 0

    def witness_bijection(inst, witness):
        t_of_x = {}
        for row in witness.tuples:
            x, tid = row.values[0], row.values[3]
            if x in t_of_x and t_of_x[x] != tid:
                return None
            t_of_x[x] = tid
        if set(t_of_x) != set(inst.x_elements):
            return None
        if len(set(t_of_x.values())) != inst.n:
            return None
        return t_of_x

    for _ in range(200):
        inst = rand_3dm_instance(rng, rng.randint(1, 4))
        matching = solve_3dm_bruteforce(inst)
        out = generate_3dm_reduction(inst)
        witness = check_seamless(out.table, out.fds, budget=5_000_000)
        if (matching is None) != (witness is None):
            failures.append(("disagreement", inst, matching, witness))
            continue
        agreements += 1
        if witness is not None and witness_bijection(inst, witness) is None:
            failures.append(("witness not bijective", inst, witness))

    out = generate_3dm_reduction(T.MATCHING_INSTANCE)
    witness = check_seamless(out.table, out.fds)
    if witness != T.MATCHING_WITNESS:
        failures.append(("reduction pipeline", witness))
    elif witness_bijection(T.MATCHING_INSTANCE, witness) is None:
        failures.append(("reduction bijection", witness))

    # Scaling log: demonstration only, nothing asserted about the growth.
    print("[acceptance] seamless-search scaling (median of 3 runs):")
    for n in range(1, 9):
        times = []
        for _ in range(3):
            inst = rand_3dm_instance(rng, n)
            red = generate_3dm_reduction(inst)
            t0 = time.perf_counter()
            check_seamless(red.table, red.fds, budget=50_000_000)
            times.append(time.perf_counter() - t0)
        print(f"[acceptance]   n={n}: {sorted(times)[1] * 1000:10.2f} ms")

    report(6, "matching reduction, 200 instances", failures, f"{agreements}/200 agree")


def test_criterion_7_index_oracle_equivalence():
    rng = random.Random(70)
    failures = []
    schema = Schema(("A", "B"))
    target = fd("A", "B")

    for seq in range(1000):
        length = rng.randint(1, 50) if seq % 10 == 0 else rng.randint(1, 10)
        idx = PfdIndex(target, schema)
        live = []
        for _ in range(length):
            if live and rng.random() < 0.3:
                victim = rng.choice(live)
                idx.remove(victim)
                live.remove(victim)
            else:
                t = VagueTuple(schema, (rand_cell(rng), rand_cell(rng)))
                batch_ok = check_pfd(Table(schema, Model.VAGUE, live + [t]), target)
                try:
                    idx.insert(t)
                    accepted = True
                except PfdRejected:
                    accepted = False
                if accepted != batch_ok:
                    failures.append(("oracle mismatch", seq, t, accepted, batch_ok))
                    break
                if accepted:
                    live.append(t)
            if idx != PfdIndex.rebuild(target, schema, live):
                failures.append(("replay mismatch", seq))
                break

    bench = bench_inserts(sizes=(100, 1_000, 10_000), probes=200)
    print("[acceptance] index bench:")
    for line in bench.to_text().splitlines():
        print(f"[acceptance]   {line}")
    if bench.median_spread > 3.0:
        failures.append(f"median insert latency spread {bench.median_spread:.2f} exceeds 3x")

    report(
        7,
        "index oracle equivalence, 1000 sequences",
        failures,
        f"latency spread {bench.median_spread:.2f}x",
    )


def test_criterion_8_cli_roundtrip_and_exit_codes(tmp_path):
    failures = []
    corpus = [
        "transitivity_trap.vtab", "resemblance_trap.vtab", "resemblance_trap_distinct.vtab", "no_joint_world.dtab", "augmentation_trap.dtab",
        "ssn_names.dtab", "joejack.vtab", "single_vertical.dtab", "valuation_demo.vtab",
        "matching_reduction.vtab",
    ]
    for name in corpus:
        text = (DATA / name).read_text()
        table = parse_table(text)
        if serialize_table(table) != text:
            failures.append(f"{name}: serialize(parse(file)) differs from file")
        if parse_table(serialize_table(table)) != table:
            failures.append(f"{name}: parse/serialize identity broken")

    cases = [
        (0, ["check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds",
             str(DATA / "chain.fds"), "--semantics", "weak"]),
        (1, ["check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds",
             str(DATA / "chain.fds"), "--semantics", "seamless"]),
        (0, ["check", "--table", str(DATA / "no_joint_world.dtab"), "--fds",
             str(DATA / "independent_pairs.fds"), "--semantics", "pfd"]),
        (1, ["check", "--table", str(DATA / "transitivity_trap.vtab"), "--fds",
             str(DATA / "a_to_c.fds"), "--semantics", "weak"]),
    ]
    bad = tmp_path / "bad.vtab"
    bad.write_text("A,B\nragged\n")
    cases.append((2, ["check", "--table", str(bad), "--fds",
                      str(DATA / "chain.fds"), "--semantics", "weak"]))
    cases.append((2, ["worlds", "--table", str(DATA / "transitivity_trap.vtab"), "--limit", "1"]))

    for want, argv in cases:
        got = cli_main(argv)
        if got != want:
            failures.append(f"exit {got} != {want} for {' '.join(argv)}")
    report(8, "cli round-trip and exit codes", failures)
