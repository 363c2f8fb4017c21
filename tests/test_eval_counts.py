"""How many full evaluation passes each solving command makes, counted
through `ConstraintSet.verdicts`, the one function that evaluates every
constraint of a set on a layout.

A solve evaluates its layout once per iteration and keeps the verdicts of
its best one; the report table and the package snap read them rather than
evaluating the same layout again. These counts pin that, and that a snap
which moves nothing evaluates nothing.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from sthl import constraints, export, solver
from sthl.cli import run
from sthl.constraints import ConstraintSet
from sthl.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
BEDROOM = str(ROOT / "fixtures" / "bedroom.sthl")


@pytest.fixture
def passes(monkeypatch) -> Counter:
    """Full passes under "verdicts", and single evaluations made inside
    `export.assemble` under "assemble"."""
    counts: Counter = Counter()
    verdicts = ConstraintSet.verdicts

    def counted_verdicts(self, layout):
        counts["verdicts"] += 1
        return verdicts(self, layout)

    monkeypatch.setattr(ConstraintSet, "verdicts", counted_verdicts)
    inside_assemble = [False]
    assemble = export.assemble

    def counted_assemble(*args, **kwargs):
        inside_assemble[0] = True
        try:
            return assemble(*args, **kwargs)
        finally:
            inside_assemble[0] = False

    monkeypatch.setattr(export, "assemble", counted_assemble)
    for module in (constraints, solver, export):
        def counted(*args, _evaluate=module.evaluate, **kwargs):
            if inside_assemble[0]:
                counts["assemble"] += 1
            return _evaluate(*args, **kwargs)

        monkeypatch.setattr(module, "evaluate", counted)
    return counts


def test_pipeline_evaluates_its_solved_layout_once(tmp_path, capsys, passes):
    assert run(["pipeline", BEDROOM, "--T", "0", "--out", str(tmp_path / "pkg")]) == 0
    assert passes == {"verdicts": 1}


def test_resolve_region_evaluates_once(tmp_path, capsys, passes):
    assert run(["pipeline", BEDROOM, "--T", "0", "--out", str(tmp_path / "pkg")]) == 0
    pkg = export.read_package(tmp_path / "pkg")
    passes.clear()
    export.resolve_region(pkg, "bedroom", SolverConfig(max_iterations=0))
    assert passes == {"verdicts": 1}


def test_solve_with_report_evaluates_once(tmp_path, capsys, passes):
    out, report = tmp_path / "solve.json", tmp_path / "report.txt"
    argv = ["solve", BEDROOM, "--T", "0", "--out", str(out), "--report", str(report)]
    assert run(argv) == 0
    assert passes == {"verdicts": 1}
    assert "# constraints\n0 explicit " in report.read_text(encoding="utf-8")


def test_export_evaluates_the_loaded_layout_once(tmp_path, capsys, passes):
    out = tmp_path / "solve.json"
    assert run(["solve", BEDROOM, "--T", "0", "--out", str(out)]) == 0
    passes.clear()
    assert run(["export", str(out), "--out", str(tmp_path / "pkg")]) == 0
    assert passes == {"verdicts": 1}


def test_a_solve_with_iterations_evaluates_once_per_iteration(tmp_path, capsys, passes):
    contradiction = str(ROOT / "fixtures" / "contradiction.sthl")
    argv = ["pipeline", contradiction, "--T", "3", "--out", str(tmp_path / "pkg")]
    assert run(argv) == 0
    # Iterations 0-3, plus the opening pass of each of the three repairs.
    assert passes == {"verdicts": 4 + 3}
