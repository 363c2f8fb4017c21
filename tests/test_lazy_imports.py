"""Only `sthl eval` loads scipy, and only `eval` and `assets --db` load numpy.

Importing `scipy.optimize` costs more than importing the rest of the
toolchain, and numpy about as much again, while no command on the solve
path needs either, so those commands must start and run without them.
Each check runs in a fresh interpreter: in this process an earlier test
may already have imported both.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from conftest import child_env
from test_golden_cli import ASSETS_RUNS, PROGRAM, write_index

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent.parent / "fixtures"


def _fresh_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), cwd=cwd
    )
    assert done.returncode == 0, done.stderr
    return done


def test_importing_the_toolchain_does_not_load_scipy():
    code = (
        "import sys\n"
        "import sthl.cli, sthl.export, sthl.solver\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python("-c", code).stdout == "[]\n"


# Every command but `eval` and `assets --db`, then a package read back and
# one region re-solved, in one fresh interpreter; then the numpy and scipy
# modules it loaded.
NUMPY_FREE_RUN = """\
import contextlib, io, sys
from sthl.cli import run
from sthl.export import read_package, resolve_region

bedroom, livingroom = sys.argv[1:3]
commands = [
    ["fmt", livingroom],
    ["check", livingroom],
    ["solve", bedroom, "--T", "1", "--out", "solve.json"],
    ["export", "solve.json", "--out", "exported"],
    ["pipeline", livingroom, "--T", "5", "--out", "pkg"],
    ["assets", livingroom],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == 0, argv
pkg = read_package("pkg")
for region in sorted({o.region for o in pkg.objects}):
    resolve_region(pkg, region)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_numpy_free_commands_run_without_numpy(tmp_path):
    done = _fresh_python(
        "-c", NUMPY_FREE_RUN,
        str(FIXTURES / "bedroom.sthl"), str(FIXTURES / "livingroom.sthl"),
        cwd=tmp_path,
    )
    assert done.stdout == "[]\n"


def test_eval_in_a_fresh_process_matches_golden():
    done = _fresh_python(
        "-m", "sthl.cli", "eval",
        "--gen", str(GOLDEN / "authoring50.sthl"),
        "--gt", str(GOLDEN / "authoring60.sthl"),
    )
    assert done.stderr == (GOLDEN / "eval.txt").read_text(encoding="utf-8")


def test_assets_with_a_database_in_a_fresh_process_matches_golden(tmp_path):
    index = tmp_path / "index.tsv"
    write_index(index)
    done = _fresh_python(
        "-m", "sthl.cli", "assets", str(PROGRAM), "--db", str(index), *ASSETS_RUNS["assets.tsv"]
    )
    assert done.stdout == (GOLDEN / "assets.tsv").read_text(encoding="utf-8")
