"""The installed `fdlab` console script, run in subprocesses from the
repository root: exit codes, outputs and error messages.

Install the package first (`pip install -e . --no-build-isolation`), then run
`python -m pytest -q ci/test_console.py`.  This file sits outside the
tier-1 `testpaths`, which test the library in-process.
"""

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def fdlab():
    exe = shutil.which("fdlab")
    assert exe is not None, "the fdlab console script is not installed"

    def run(*args, timeout=None, env=None):
        return subprocess.run([exe, *args], cwd=ROOT, capture_output=True, text=True, timeout=timeout, env=env)

    return run


def labels(out: str) -> str:
    return "|".join(v["fd"] for v in json.loads(out)["verdicts"])


WIDE = ("--table", "tests/data/wide_rhs.vtab", "--fds", "tests/data/wide_rhs.fds")
WIDE_EXITS = {"standard": 2, "strong": 1, "weak": 0, "seamless": 0, "pfd": 0, "vertical": 0, "rm": 0}


@pytest.mark.parametrize("argv, want", [
    *((["check", *WIDE, "--semantics", sem], want) for sem, want in WIDE_EXITS.items()),
    (["valuate", *WIDE], 0),
], ids=[*WIDE_EXITS, "valuate"])
def test_wide_answer_sets(fdlab, argv, want):
    # Two vague tuples share the binding A0 = k, and each has 8^7 rhs rows
    # under it: pfd and vertical hold (exit 0) and strong fails (exit 1).
    # Answers kept as rhs cells take O(width); built whole, they took
    # seconds and about 560 MB per check. Vertical on a vague table is the
    # pfd pass, so its cap bounds only lhs bindings and reported tuples,
    # and it answers instead of exiting 2 on the budget. Every semantics
    # must finish or fail cleanly on this widest input: pfd holds, so weak
    # and seamless return the world of least valuations (exit 0) without
    # listing the 8^7 valuations, rm compares one pair and holds, and
    # standard exits 2 because the table is not standard.
    # valuate tests its pfd precondition in one pass, then each tuple
    # takes its least value per cell under the seed's value orders:
    # a world, exit 0.
    assert fdlab(*argv, timeout=10).returncode == want


def test_exit_codes(fdlab):
    trap, chain = "tests/data/transitivity_trap.vtab", "tests/data/chain.fds"
    assert fdlab("check", "--table", trap, "--fds", chain, "--semantics", "weak").returncode == 0
    assert fdlab("check", "--table", trap, "--fds", chain, "--semantics", "strong").returncode == 1


def test_closure(fdlab):
    proc = fdlab("closure", "--fds", "tests/data/chain.fds", "--attrs", "A")
    assert proc.returncode == 0
    assert proc.stdout.rstrip("\n") == "A,B,C"


def test_seamless_and_valuate(fdlab):
    proc = fdlab("valuate", "--table", "tests/data/valuation_demo.vtab", "--fds", "tests/data/valuation_demo.fds",
                 "--seed", "4")
    assert proc.returncode == 0
    assert proc.stdout.rstrip("\n") == "#model: standard\nA,B,C\na1,b1,c1\na1,b1,c2\na2,b1,c2"
    proc = fdlab("check", "--table", "tests/data/matching_reduction.vtab", "--fds", "tests/data/matching_reduction.fds",
                 "--semantics", "seamless")
    assert proc.returncode == 0
    assert "witness: a,2,B,t1; b,1,A,t2; c,3,C,t3" in proc.stdout.splitlines()


def test_worlds_budget(fdlab):
    # 2^30 valuations and no --limit: the default cap must stop it at once.
    assert fdlab("worlds", "--table", "tests/data/two_candidates_30.vtab", timeout=60).returncode == 2


def test_rm_budget(fdlab, tmp_path):
    # An empty lhs makes every pair a candidate; --cap bounds the pairs compared.
    empty = tmp_path / "empty.fds"
    empty.write_text(" -> B\n")
    argv = ["check", "--table", "tests/data/resemblance_trap.vtab", "--fds", str(empty), "--semantics", "rm"]
    assert fdlab(*argv).returncode == 1
    assert fdlab(*argv, "--cap", "1").returncode == 2


def test_vertical_and_gen3dm(fdlab, tmp_path):
    proc = fdlab("check", "--table", "tests/data/transitivity_trap.vtab", "--fds", "tests/data/a_to_c.fds",
                 "--semantics", "vertical")
    assert proc.returncode == 1
    assert ("violation: answer-sets-differ t1=((a1,b1,c1)||(a1,b2,c1)) t2=((a1,b2,c2)||(a1,b3,c2)) binding=(a1)"
            in proc.stdout.splitlines())
    # Columns sharing an element: a parse error, not a crash.
    shared = tmp_path / "shared.3dm"
    shared.write_text("2\na b a\nc d c\n")
    proc = fdlab("gen3dm", "--instance", str(shared))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.rstrip("\n") == "fdlab: element sets must be disjoint"


def test_seamless_steps_and_closure_names(fdlab, tmp_path):
    # B -> A fails as a pfd, so the search runs: three steps, two valuations
    # per tuple, and the step count sets the boundary.
    fds = tmp_path / "ba.fds"
    fds.write_text("B -> A\n")
    argv = ["check", "--table", "tests/data/valuation_demo.vtab", "--fds", str(fds), "--semantics", "seamless"]
    assert fdlab(*argv, "--cap", "3").returncode == 0
    assert fdlab(*argv, "--cap", "2").returncode == 2
    assert fdlab("closure", "--fds", "tests/data/chain.fds", "--attrs", "").returncode == 2


def test_weak_cap_counts_valuations_not_free_standing_tuples(fdlab, tmp_path):
    # Distinct A values but a4: a1-a3 are free-standing and take their least
    # valuations outside the search, which the a4 pair needs because it
    # fails as a pfd.  The pair takes two steps, so the cap bounds only the
    # two valuations.
    table, fds = tmp_path / "distinct.vtab", tmp_path / "ab.fds"
    table.write_text("A,B\na1,{b1|b2}\na2,{b1|b2}\na3,b1\na4,{b1|b2}\na4,b1\n")
    fds.write_text("A -> B\n")
    argv = ["check", "--table", str(table), "--fds", str(fds), "--semantics", "weak"]
    assert fdlab(*argv, "--cap", "2").returncode == 0
    assert fdlab(*argv, "--cap", "1").returncode == 2


def test_trivial_fds_are_not_searched(fdlab, tmp_path):
    # Six two-disjunct tuples share A = a, and A -> A holds in every world.
    # The search reads the FD set's cover, which leaves it out, so no tuple
    # is searched and the cap bounds only the two valuations per tuple.
    table, fds = tmp_path / "six.dtab", tmp_path / "aa.fds"
    table.write_text("#model: disjunctive\nA,B\n" + "".join(f"(a,b{i})||(a,c{i})\n" for i in range(6)))
    fds.write_text("A -> A\n")
    proc = fdlab("check", "--table", str(table), "--fds", str(fds), "--semantics", "seamless", "--cap", "2")
    assert proc.returncode == 0
    assert "witness: a,b0; a,b1; a,b2; a,b3; a,b4; a,b5" in proc.stdout.splitlines()


def test_verdict_labels_and_comment_like_values(fdlab, tmp_path):
    argv = ["check", "--table", "tests/data/transitivity_trap.vtab", "--fds", "tests/data/chain.fds", "--format", "json"]
    proc = fdlab(*argv, "--semantics", "weak")
    assert proc.returncode == 0
    assert labels(proc.stdout) == "A -> B|B -> C"
    proc = fdlab(*argv, "--semantics", "seamless")
    assert proc.returncode == 1
    assert labels(proc.stdout) == "A -> B; B -> C"
    # Picking '#a' would print the row '#a,c', which reads back as a comment.
    table, fds = tmp_path / "hash.vtab", tmp_path / "hash.fds"
    table.write_text("A,B\n{#a|b},c\n")
    fds.write_text("A -> B\n")
    proc = fdlab("valuate", "--table", str(table), "--fds", str(fds), "--seed", "1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_unknown_attributes_fail_before_any_fd_is_checked(fdlab, tmp_path):
    # The FD naming an unknown attribute comes second, behind one that fails
    # the pfd precondition (valuate) or exhausts the budget (weak, cap 1).
    table, fds = tmp_path / "ab.stab", tmp_path / "bad.fds"
    table.write_text("A,B\na1,b1\na1,b2\n")
    fds.write_text("A -> B\nC -> D\n")
    proc = fdlab("valuate", "--table", str(table), "--fds", str(fds))
    assert proc.returncode == 2
    assert "unknown attributes ['C']" in proc.stderr
    proc = fdlab("check", "--table", "tests/data/resemblance_trap.vtab", "--fds", "tests/data/independent_pairs.fds",
                 "--semantics", "weak", "--cap", "1")
    assert proc.returncode == 2
    assert "unknown attributes ['D']" in proc.stderr


def test_check_imports_only_what_it_runs(fdlab):
    # The import log of the console script, one `import time:` line per module.
    proc = fdlab("check", "--table", "tests/data/transitivity_trap.vtab", "--fds", "tests/data/chain.fds",
                 "--semantics", "pfd", env=dict(os.environ, PYTHONPROFILEIMPORTTIME="1"))
    assert proc.returncode == 1
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"fdlab.cli", "fdlab.semantics", "fdlab.formats"} <= imported
    assert not imported & {"fdlab.armstrong", "fdlab.valuation", "fdlab.pfd_index"}


def test_table_extension_and_fd_file_reads(fdlab, tmp_path):
    # The extension beats the directive: a .stab file is standard.
    table = tmp_path / "directive.stab"
    table.write_text("#model: vague\nA,B\na,{b|c}\n")
    proc = fdlab("check", "--table", str(table), "--fds", "tests/data/chain.fds", "--semantics", "pfd")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "fdlab: line 3: set-valued cell '{b|c}' in a standard table\n"
    # Each command that reads an FD file drops a byte-order mark and a comment.
    plain, bom = tmp_path / "plain.fds", tmp_path / "bom.fds"
    plain.write_text("# two FDs\nA -> B  # the first\nC -> B\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for argv in (["check", "--table", "tests/data/transitivity_trap.vtab", "--semantics", "strong"],
                 ["valuate", "--table", "tests/data/valuation_demo.vtab"],
                 ["closure", "--attrs", "A"]):
        runs = [fdlab(*argv, "--fds", str(path)) for path in (plain, bom)]
        assert runs[0].stdout and runs[0].stderr == "", argv[0]
        assert len({(p.returncode, p.stdout, p.stderr) for p in runs}) == 1, argv[0]


def test_bad_cell_error_is_the_same_under_every_hash_seed(fdlab, tmp_path):
    # The first bad value of the cell in text order, '#x', whatever the seed.
    table, fds = tmp_path / "bad.vtab", tmp_path / "ab.fds"
    table.write_text("A,B\na,{#x|#y|#z|#w}\n")
    fds.write_text("A -> B\n")
    argv = ["check", "--table", str(table), "--fds", str(fds), "--semantics", "pfd"]
    runs = [fdlab(*argv, env=dict(os.environ, PYTHONHASHSEED=seed)) for seed in ("1", "2")]
    assert [p.returncode for p in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr
    assert "'#x'" in runs[0].stderr
