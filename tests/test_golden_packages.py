"""Golden scene packages: `scene.json` and `report.txt` of `sthl pipeline
--seed 42`, byte for byte.

The cases are the three README fixtures at the default T=5 and two
`tests/scenegen.py` scenes (`generate_fixture(10, 10)` and
`generate_fixture(16, 16)`, sources kept beside the packages) at T=0. The
expected files were written by the code before candidate scoring was
bounded and boxes were built in scalar math; a performance change must
leave them as they are.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sthl.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "packages"
# Package name -> (program, iteration limit T).
CASES = {
    "livingroom": (ROOT / "fixtures" / "livingroom.sthl", 5),
    "bedroom": (ROOT / "fixtures" / "bedroom.sthl", 5),
    "contradiction": (ROOT / "fixtures" / "contradiction.sthl", 5),
    "scenegen_n10": (GOLDEN / "scenegen_n10.sthl", 0),
    "scenegen_n16": (GOLDEN / "scenegen_n16.sthl", 0),
}
FILES = ("scene.json", "report.txt")


def _pipeline(source: Path, T: int, out: Path) -> None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = run(["pipeline", str(source), "--seed", "42", "--T", str(T), "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_package_matches_golden(name, tmp_path):
    source, T = CASES[name]
    _pipeline(source, T, tmp_path / name)
    for filename in FILES:
        expected = (GOLDEN / name / filename).read_bytes()
        assert (tmp_path / name / filename).read_bytes() == expected, f"{name}/{filename}"

