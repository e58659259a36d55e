"""The installed `fdlab` console script, run in subprocesses from the
repository root: exit codes, outputs and error messages.

Install the package first (`pip install -e . --no-build-isolation`), then run
`python -m pytest -q ci/test_console.py`.  This file sits outside the
tier-1 `testpaths`, which test the library in-process.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def fdlab():
    exe = shutil.which("fdlab")
    assert exe is not None, "the fdlab console script is not installed"

    def run(*args, timeout=None):
        return subprocess.run([exe, *args], cwd=ROOT, capture_output=True, text=True, timeout=timeout)

    return run


def labels(out: str) -> str:
    return "|".join(v["fd"] for v in json.loads(out)["verdicts"])


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
                 "--seed", "1")
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


def test_seamless_steps_and_closure_names(fdlab):
    # Three search steps, two valuations per tuple: the step count sets the boundary.
    argv = ["check", "--table", "tests/data/valuation_demo.vtab", "--fds", "tests/data/valuation_demo.fds",
            "--semantics", "seamless"]
    assert fdlab(*argv, "--cap", "3").returncode == 0
    assert fdlab(*argv, "--cap", "2").returncode == 2
    assert fdlab("closure", "--fds", "tests/data/chain.fds", "--attrs", "").returncode == 2


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
