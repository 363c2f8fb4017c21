"""Only `sthl eval` loads scipy, and only when its matching first runs.

Importing `scipy.optimize` costs more than importing the rest of the
toolchain, so every other command must start without it. Both checks run
in a fresh interpreter: in this process an earlier test may already have
imported scipy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done


def test_importing_the_toolchain_does_not_load_scipy():
    code = (
        "import sys\n"
        "import sthl.cli, sthl.export, sthl.solver\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python("-c", code).stdout == "[]\n"


def test_eval_in_a_fresh_process_matches_golden():
    done = _fresh_python(
        "-m", "sthl.cli", "eval",
        "--gen", str(GOLDEN / "authoring50.sthl"),
        "--gt", str(GOLDEN / "authoring60.sthl"),
    )
    assert done.stderr == (GOLDEN / "eval.txt").read_text(encoding="utf-8")
