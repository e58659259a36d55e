"""The package loads lazily: `import fdlab` imports no submodule, and each
command imports only the modules it runs.  Every check runs in a fresh
interpreter, since this process has long since imported everything."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fdlab

DATA = Path(__file__).parent / "data"
SRC = str(Path(fdlab.__file__).resolve().parent.parent)
CHECK = {"fdlab", "fdlab.cli", "fdlab.errors", "fdlab.model", "fdlab.semantics", "fdlab.formats"}


def child(code: str) -> list:
    """The last stdout line of `code` run in a fresh interpreter, split on blanks."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def loaded_by(code: str) -> set:
    """The fdlab modules loaded once `code` has run in a fresh interpreter."""
    return set(child(code + "\nimport sys\nprint()\nprint(*(m for m in sys.modules if m.split('.')[0] == 'fdlab'))"))


def test_import_loads_no_submodule():
    assert loaded_by("import fdlab") == {"fdlab"}


@pytest.mark.parametrize("argv, extra", [
    (["check", "--table", DATA / "transitivity_trap.vtab", "--fds", DATA / "chain.fds", "--semantics", "pfd"], set()),
    (["worlds", "--table", DATA / "transitivity_trap.vtab"], set()),
    (["closure", "--fds", DATA / "chain.fds", "--attrs", "A"], {"fdlab.armstrong"}),
    (["valuate", "--table", DATA / "valuation_demo.vtab", "--fds", DATA / "valuation_demo.fds"], {"fdlab.valuation"}),
    (["gen3dm", "--instance", DATA / "matching.3dm"], {"fdlab.valuation"}),
])
def test_each_command_loads_only_what_it_runs(argv, extra):
    code = f"import fdlab.cli\nassert fdlab.cli.main({[str(a) for a in argv]!r}) in (0, 1)"
    assert loaded_by(code) == CHECK | extra


def test_exports_resolve_to_their_home_objects():
    names = child("""
        import sys
        import fdlab

        listed = set(dir(fdlab))
        assert [m for m in sys.modules if m.startswith("fdlab.")] == []
        star = {}
        exec("from fdlab import *", star)
        for name in fdlab.__all__:
            obj = getattr(fdlab, name)
            assert getattr(sys.modules[obj.__module__], name) is obj is star[name], name
            assert obj.__module__.startswith("fdlab."), name
        try:
            fdlab.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("an unknown name resolved")
        print(*sorted(listed))
    """)
    assert set(fdlab.__all__) <= set(names)
    assert len(fdlab.__all__) == len(set(fdlab.__all__)) == 54


def test_dir_lists_every_export():
    assert set(fdlab.__all__) <= set(dir(fdlab))
