"""Bounded candidate scoring in `initial_placement` against the full-count
loop of `placement_oracle`: same winners, same random draws, fewer
constraint evaluations."""

from __future__ import annotations

import random

import pytest

import placement_oracle
from scenegen import generate_fixture
from sthl import solver
from sthl.build import build_scene
from sthl.constraints import compile_constraints
from sthl.dsl import parse, typecheck
from sthl.solver import SolverConfig, initial_placement


def _place(place, scene, seed):
    rng = random.Random(seed)
    layout = place(scene.objects, scene.regions, scene.cs, SolverConfig(rng_seed=seed), rng)
    return [(o.id, o.transform) for o in layout.objects], rng.random()


@pytest.mark.parametrize("n", range(6, 17))
def test_bounded_count_places_like_the_full_count(n):
    for seed in range(10):
        scene = generate_fixture(seed, n)
        expected = _place(placement_oracle.initial_placement, scene, seed)
        assert _place(initial_placement, scene, seed) == expected, (n, seed)


def test_bounded_count_evaluates_fewer_constraints(monkeypatch):
    calls = {"n": 0}
    original = solver.evaluate

    def counting(constraint, ctx):
        calls["n"] += 1
        return original(constraint, ctx)

    scene = generate_fixture(3, 16)
    monkeypatch.setattr(solver, "evaluate", counting)
    monkeypatch.setattr(placement_oracle, "evaluate", counting)
    _place(placement_oracle.initial_placement, scene, 3)
    full, calls["n"] = calls["n"], 0
    _place(initial_placement, scene, 3)
    assert 0 < calls["n"] < full


def test_constraints_through_variables_are_scored_like_literals():
    # `g` is involved in the constraint alongside `a` and `b`; a variable is
    # known from the start, so the constraint is scored once `a` is placed.
    variable = "region room; object a; object b; Number g; g <- 6; assert a.pos.x + g < b.pos.x;"
    literal = "region room; object a; object b; assert a.pos.x + 6 < b.pos.x;"
    scenes = []
    for source in (variable, literal):
        typed = typecheck(parse(source))
        scenes.append((build_scene(typed), compile_constraints(typed)))
    for seed in range(40):
        placed = []
        for place in (initial_placement, placement_oracle.initial_placement):
            for built, cs in scenes:
                rng = random.Random(seed)
                layout = place(built.objects, built.regions, cs, SolverConfig(rng_seed=seed), rng)
                placed.append(([(o.id, o.transform) for o in layout.objects], rng.random()))
        assert placed.count(placed[0]) == len(placed), seed
