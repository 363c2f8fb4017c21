"""Bounded candidate scoring in `local_search_batch_solve` against the
full-scoring loop of `repair_oracle`: the same moves, the same random
draws, fewer constraint evaluations.

Inputs: 40 `tests/scenegen.py` scenes (n = 6 + seed mod 11, seeds 0-39) and
the three README fixtures (seed 42), each solved at T=5. Every repair call
of the solve runs both loops from the same layout and random state.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import repair_oracle
from scenegen import generate_fixture
from sthl import solver
from sthl.build import build_scene
from sthl.constraints import compile_constraints
from sthl.dsl import parse, typecheck
from sthl.solver import SolverConfig, solve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
README_FIXTURES = ("livingroom", "bedroom", "contradiction")
SCENES = [("scenegen", seed) for seed in range(40)] + [("fixture", name) for name in README_FIXTURES]


def _inputs(kind: str, key):
    if kind == "scenegen":
        scene = generate_fixture(key, 6 + key % 11)
        return scene.objects, scene.regions, scene.cs, key
    typed = typecheck(parse((FIXTURES / f"{key}.sthl").read_text(encoding="utf-8")))
    built = build_scene(typed, seed=42)
    return built.objects, built.regions, compile_constraints(typed, seed=42), 42


def _transforms(layout):
    return [(obj.id, obj.transform) for obj in layout.objects]


def _solve_checked(kind: str, key, evaluations: dict[str, int] | None = None) -> int:
    """Solve at T=5 with each repair call checked against the oracle, and
    return the number of moves the repairs made. `evaluations`, if given,
    collects the constraint evaluations each loop made, by loop."""
    moves = 0

    def repair(layout, batch, cs, cfg, rng):
        nonlocal moves
        twin = random.Random()
        twin.setstate(rng.getstate())
        scoring["loop"] = "oracle"
        want_layout, want_moved = repair_oracle.local_search_batch_solve(layout, batch, cs, cfg, twin)
        scoring["loop"] = "bounded"
        got_layout, got_moved = solver.local_search_batch_solve(layout, batch, cs, cfg, rng)
        scoring["loop"] = None
        assert _transforms(got_layout) == _transforms(want_layout)
        assert got_moved == want_moved
        assert rng.getstate() == twin.getstate()
        moves += len(got_moved)
        return got_layout, got_moved

    scoring: dict[str, str | None] = {"loop": None}
    objects, regions, cs, seed = _inputs(kind, key)
    cfg = SolverConfig(rng_seed=seed, max_iterations=5)
    if evaluations is None:
        solve(objects, regions, cs, cfg, batch_solver=repair)
        return moves

    original = solver.evaluate

    def counting(constraint, ctx):
        if scoring["loop"] is not None:
            evaluations[scoring["loop"]] += 1
        return original(constraint, ctx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "evaluate", counting)
        patch.setattr(repair_oracle, "evaluate", counting)
        solve(objects, regions, cs, cfg, batch_solver=repair)
    return moves


@pytest.mark.parametrize("kind,key", SCENES)
def test_bounded_repair_moves_like_the_full_scoring(kind, key):
    _solve_checked(kind, key)


def test_the_scenes_exercise_repair():
    # A differential test over repairs that never move anything would pass
    # whatever the bound did.
    assert sum(_solve_checked("scenegen", seed) > 0 for seed in range(10)) >= 5


def test_bounded_repair_evaluates_fewer_constraints():
    evaluations = {"oracle": 0, "bounded": 0}
    for name in README_FIXTURES:
        _solve_checked("fixture", name, evaluations)
    assert 0 < evaluations["bounded"] < evaluations["oracle"]
