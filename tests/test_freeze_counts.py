"""How many times each command draws its program's `rand`s.

`freeze_program` keeps its draw on the `TypedProgram`, so the built scene
and the constraints of one command share one freeze. These counts are of
freezes that do the work, not of calls the memo answers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from sthl import build, cli, constraints, export
from sthl.cli import run
from sthl.dsl import parse, typecheck
from sthl.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
BEDROOM = str(ROOT / "fixtures" / "bedroom.sthl")


@pytest.fixture
def freezes(monkeypatch) -> list[int]:
    """The seed of each freeze that does work, in order."""
    seeds: list[int] = []

    def counted(statements, seed, _freeze=constraints._freeze):
        seeds.append(seed)
        return _freeze(statements, seed)

    monkeypatch.setattr(constraints, "_freeze", counted)
    return seeds


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", BEDROOM, "--T", "0", "--seed", "3"],
        ["check", BEDROOM, "--seed", "3"],
        ["solve", BEDROOM, "--T", "0", "--seed", "3"],
        ["assets", BEDROOM, "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_program_command_freezes_once(tmp_path, monkeypatch, capsys, freezes, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "pipeline":
        argv = [*argv, "--out", str(tmp_path / "pkg")]
    assert run(argv) == 0
    assert freezes == [3]


def test_resolve_region_freezes_once(tmp_path, capsys, freezes):
    out = tmp_path / "pkg"
    assert run(["pipeline", BEDROOM, "--T", "0", "--seed", "3", "--out", str(out)]) == 0
    pkg = export.read_package(out)
    freezes.clear()
    export.resolve_region(pkg, "bedroom", SolverConfig(max_iterations=0, rng_seed=3))
    assert freezes == [3]


def test_build_and_compile_read_the_same_frozen_statements(monkeypatch, freezes):
    read = []

    def recorded(typed, seed=0, _freeze_program=constraints.freeze_program):
        frozen = _freeze_program(typed, seed)
        read.append(frozen)
        return frozen

    monkeypatch.setattr(build, "freeze_program", recorded)
    monkeypatch.setattr(constraints, "freeze_program", recorded)
    typed = typecheck(parse(Path(BEDROOM).read_text(encoding="utf-8")))
    cli.build_scene(typed, seed=3)
    constraints.compile_constraints(typed, seed=3)
    constraints.compile_constraints(typed, seed=4)
    assert freezes == [3, 4]
    assert read[0] is read[1]
    assert read[2] is not read[0]
