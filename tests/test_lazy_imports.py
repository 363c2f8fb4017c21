"""No command loads scipy; only `eval` and `assets --db` load numpy; and
only asset scoring against a database loads OpenSSL's `hashlib`.

scipy serves only the tests, as the oracle of `metrics.hungarian_assign`,
so no module under `src/sthl` may import it. Importing numpy costs about
as much as importing the rest of the toolchain, while no command on the
solve path needs it, so those commands must start and run without it, and
`import sthl.cli` loads the toolchain's own modules and the standard
library's, nothing else. `hashlib` maps OpenSSL's libcrypto (about 3.5 MB
of resident memory) and `decimal` serves only the printing of a number
whose shortest repr is in scientific notation, so neither loads on the
solve path or with `import sthl.cli`. Each check of loaded modules runs in
a fresh interpreter: in this process an earlier test may already have
imported any of them.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

from conftest import child_env
from test_golden_cli import ASSETS_RUNS, PROGRAM, write_index

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent.parent / "fixtures"
SRC = Path(__file__).parent.parent / "src" / "sthl"


def _fresh_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), cwd=cwd
    )
    assert done.returncode == 0, done.stderr
    return done


def test_no_module_imports_scipy():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


# Native modules only a command that scores a database, or prints a number
# in scientific notation, needs.
LAZY_STDLIB = ("hashlib", "_hashlib", "decimal", "_decimal")


def test_importing_the_cli_loads_neither_hashlib_nor_decimal():
    code = "import sys, sthl.cli\nprint(sorted(m for m in sys.modules if m in %r))" % (
        LAZY_STDLIB,
    )
    assert _fresh_python("-c", code).stdout == "[]\n"


def test_importing_the_toolchain_does_not_load_scipy():
    """Nor anything else outside the standard library: only sthl's modules."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sthl.cli, sthl.export, sthl.solver\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.split('.')[0] not in sys.stdlib_module_names))\n"
    )
    loaded = ast.literal_eval(_fresh_python("-c", code).stdout)
    assert loaded == [
        "sthl", "sthl.assets", "sthl.build", "sthl.cli", "sthl.constraints", "sthl.dsl",
        "sthl.dsl.lexer", "sthl.dsl.nodes", "sthl.dsl.parser", "sthl.dsl.printer",
        "sthl.dsl.typecheck", "sthl.errors", "sthl.export", "sthl.scene", "sthl.solver",
    ]


# Every command but `eval` and `assets --db`, then a package read back and
# one region re-solved, in one fresh interpreter; then the numpy and scipy
# modules it loaded, and which of LAZY_STDLIB (passed as the third argument).
NUMPY_FREE_RUN = """\
import contextlib, io, sys
from sthl.cli import run
from sthl.export import read_package, resolve_region

bedroom, livingroom, lazy_stdlib = sys.argv[1:4]
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
print(sorted(m for m in sys.modules if m in lazy_stdlib.split(",")))
"""


def test_numpy_free_commands_run_without_numpy(tmp_path):
    done = _fresh_python(
        "-c", NUMPY_FREE_RUN,
        str(FIXTURES / "bedroom.sthl"), str(FIXTURES / "livingroom.sthl"), ",".join(LAZY_STDLIB),
        cwd=tmp_path,
    )
    assert done.stdout == "[]\n[]\n"


# `python -m sthl.cli eval ...`, then the scipy modules it loaded.
EVAL_RUN = """\
import runpy, sys
try:
    runpy.run_module("sthl.cli", run_name="__main__")
finally:
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_eval_in_a_fresh_process_matches_golden():
    done = _fresh_python(
        "-c", EVAL_RUN, "eval",
        "--gen", str(GOLDEN / "authoring50.sthl"),
        "--gt", str(GOLDEN / "authoring60.sthl"),
    )
    assert done.stderr == (GOLDEN / "eval.txt").read_text(encoding="utf-8")
    assert done.stdout == "[]\n"


def test_assets_with_a_database_in_a_fresh_process_matches_golden(tmp_path):
    index = tmp_path / "index.tsv"
    write_index(index)
    done = _fresh_python(
        "-m", "sthl.cli", "assets", str(PROGRAM), "--db", str(index), *ASSETS_RUNS["assets.tsv"]
    )
    assert done.stdout == (GOLDEN / "assets.tsv").read_text(encoding="utf-8")
