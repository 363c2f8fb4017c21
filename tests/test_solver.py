"""Solver tests: placement, relaxation, batching, local search, full loop."""

from __future__ import annotations

from pathlib import Path

import pytest

from sthl.build import build_scene
from sthl.constraints import compile_constraints, evaluate
from sthl.dsl import parse, typecheck
from sthl.errors import PlacementError
from sthl.scene import Region, SceneLayout, SceneObject, Transform, collides, supported
from sthl.solver import (
    SolverConfig,
    enforce_bounds,
    initial_placement,
    local_search_batch_solve,
    physics_relaxation,
    render_report,
    select_batch,
    solve,
)

from scenegen import generate_fixture

FIXTURES = Path(__file__).parent.parent / "fixtures"
ROOM = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))


def compiled(source: str, seed: int = 0):
    typed = typecheck(parse(source))
    return compile_constraints(typed, seed=seed)


def obj(oid: str, extents=(1.0, 1.0, 1.0), pos=None, preplaced=False) -> SceneObject:
    transform = Transform(scale=extents) if pos is None else Transform(pos=pos, scale=extents)
    return SceneObject(oid, transform=transform, region="room", preplaced=preplaced)


# ---------------------------------------------------------------------------
# initial placement


def test_single_object_lands_inside():
    cs = compiled("region room; object cube;")
    layout = initial_placement([obj("cube")], [ROOM], cs, SolverConfig(rng_seed=1))
    from sthl.scene import inside

    assert inside(layout.object("cube"), ROOM)


def test_two_cubes_rarely_collide_initially():
    cs = compiled("region room; object a; object b;")
    clean = 0
    for seed in range(100):
        layout = initial_placement(
            [obj("a"), obj("b")], [ROOM], cs, SolverConfig(rng_seed=seed)
        )
        if not collides(layout.object("a"), layout.object("b")):
            clean += 1
    assert clean >= 95


def test_same_seed_identical_layout():
    cs = compiled("region room; object a; object b;")
    cfg = SolverConfig(rng_seed=77)
    one = initial_placement([obj("a"), obj("b")], [ROOM], cs, cfg)
    two = initial_placement([obj("a"), obj("b")], [ROOM], cs, cfg)
    assert [o.transform for o in one.objects] == [o.transform for o in two.objects]


def test_oversized_object_raises_placement_error():
    cs = compiled("region room; object big;")
    with pytest.raises(PlacementError, match="big"):
        initial_placement([obj("big", extents=(12.0, 1.0, 12.0))], [ROOM], cs, SolverConfig())


def test_preplaced_object_keeps_position():
    cs = compiled("region room; object a;")
    fixed = obj("a", pos=(3.0, 0.5, 3.0), preplaced=True)
    layout = initial_placement([fixed], [ROOM], cs, SolverConfig(rng_seed=5))
    assert layout.object("a").transform.pos == (3.0, 0.5, 3.0)


def test_largest_footprint_placed_first_keeps_declaration_order():
    cs = compiled("region room; object small; object large;")
    layout = initial_placement(
        [obj("small", extents=(0.4, 0.4, 0.4)), obj("large", extents=(3.0, 0.5, 3.0))],
        [ROOM],
        cs,
        SolverConfig(rng_seed=2),
    )
    assert [o.id for o in layout.objects] == ["small", "large"]


# ---------------------------------------------------------------------------
# physics relaxation


def test_floating_cube_lands_on_floor():
    cs = compiled("region room; object a;")
    layout = SceneLayout(regions=[ROOM], objects=[obj("a", pos=(5.0, 3.0, 5.0))])
    relaxed = physics_relaxation(layout, cs)
    assert relaxed.object("a").transform.pos[1] == pytest.approx(0.5)


def test_overlapping_cubes_get_separated():
    cs = compiled("region room; object a; object b;")
    layout = SceneLayout(
        regions=[ROOM],
        objects=[obj("a", pos=(5.0, 0.5, 5.0)), obj("b", pos=(5.3, 0.5, 5.0))],
    )
    relaxed = physics_relaxation(layout, cs)
    assert not collides(relaxed.object("a"), relaxed.object("b"))


def test_allowed_collision_pairs_left_alone():
    cs = compiled("region room; object a; object b; allowCollide(a, b);")
    layout = SceneLayout(
        regions=[ROOM],
        objects=[obj("a", pos=(5.0, 0.5, 5.0)), obj("b", pos=(5.3, 0.5, 5.0))],
    )
    relaxed = physics_relaxation(layout, cs)
    assert relaxed.object("a").transform.pos == (5.0, 0.5, 5.0)
    assert relaxed.object("b").transform.pos == (5.3, 0.5, 5.0)


def test_book_drops_onto_table_not_through():
    cs = compiled("region room; object table; object book; ")
    table = obj("table", extents=(1.2, 0.75, 0.8), pos=(5.0, 0.375, 5.0))
    book = obj("book", extents=(0.3, 0.05, 0.2), pos=(5.0, 2.5, 5.0))
    layout = SceneLayout(regions=[ROOM], objects=[table, book])
    relaxed = physics_relaxation(layout, cs)
    dropped = relaxed.object("book")
    assert dropped.transform.pos[1] == pytest.approx(0.75 + 0.025)
    assert supported(dropped, relaxed)


def test_buried_object_lifted_to_floor():
    cs = compiled("region room; object a;")
    layout = SceneLayout(regions=[ROOM], objects=[obj("a", pos=(5.0, -2.0, 5.0))])
    relaxed = physics_relaxation(layout, cs)
    assert relaxed.object("a").transform.pos[1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# select_batch


def test_batch_size_and_determinism():
    cs = compiled(
        "region room; object a; object b; object c; object d; object e;\n"
        + "\n".join(f"assert {n}.pos.x > 99;" for n in "abcde")
    )
    unsatisfied = [c.id for c in cs.constraints if c.provenance == "explicit"]
    objects = {"a", "b", "c", "d", "e"}
    batch1 = select_batch(unsatisfied, 3, cs, objects)
    batch2 = select_batch(unsatisfied, 3, cs, objects)
    assert batch1 == batch2
    assert len(batch1) == 3


def test_fewer_objects_sorts_first():
    cs = compiled(
        "region room; object a; object b; object c; object d;\n"
        "assert a.pos.x + b.pos.x + c.pos.x + d.pos.x > 99;\n"  # involves 4
        "assert a.pos.z > 99;\n"  # involves 1
    )
    unsatisfied = [0, 1]
    batch = select_batch(unsatisfied, 1, cs, {"a", "b", "c", "d"})
    assert batch == [1]


def test_stale_constraint_promoted_to_front():
    cs = compiled(
        "region room; object a; object b; object c; object d;\n"
        "assert a.pos.x + b.pos.x + c.pos.x + d.pos.x > 99;\n"  # id 0, 4 objects
        "assert a.pos.z > 99;\n"  # id 1, 1 object
    )
    objects = {"a", "b", "c", "d"}
    # Constraint 0 was unsatisfied in both prior iterations; constraint 1 is new.
    history = [(0,), (0, 1)]
    batch = select_batch([0, 1], 1, cs, objects, history)
    assert batch == [0]  # stale id 0 beats the smaller-involved id 1
    # Without the stuck history the one-object constraint wins.
    assert select_batch([0, 1], 1, cs, objects, [(0, 1)]) == [1]


def test_k_larger_than_unsatisfied():
    cs = compiled("region room; object a; assert a.pos.x > 99;")
    assert select_batch([0], 3, cs, {"a"}) == [0]


# ---------------------------------------------------------------------------
# local search


def lamp_table_setup():
    cs = compiled(
        "region room; object table; object lamp;\n"
        "assert lamp.pos.y > table.pos.y + table.scale.y;"
    )
    table = obj("table", extents=(1.2, 0.75, 0.8), pos=(5.0, 0.375, 5.0))
    lamp = obj("lamp", extents=(0.3, 1.0, 0.3), pos=(2.0, 0.5, 2.0))
    layout = SceneLayout(regions=[ROOM], objects=[table, lamp])
    return cs, layout


def test_lamp_rises_above_table_in_one_call():
    cs, layout = lamp_table_setup()
    cfg = SolverConfig(rng_seed=3)
    batch = [cs.constraints[0]]
    result, moved = local_search_batch_solve(layout, batch, cs, cfg)
    lamp = result.object("lamp")
    table = result.object("table")
    assert lamp.transform.pos[1] > table.transform.pos[1] + table.transform.scale[1]
    assert moved == {"lamp"} or moved == {"lamp", "table"}


def test_satisfied_batch_leaves_layout_unchanged():
    cs, layout = lamp_table_setup()
    lamp = layout.object("lamp")
    lamp.transform = Transform(pos=(5.0, 1.25, 5.0), rot=(0.0, 0.0, 0.0), scale=(0.3, 1.0, 0.3))
    before = [o.transform for o in layout.objects]
    result, moved = local_search_batch_solve(
        layout, [cs.constraints[0]], cs, SolverConfig(rng_seed=3)
    )
    assert [o.transform for o in result.objects] == before
    assert moved == set()


def test_global_satisfied_count_never_decreases():
    source = (
        "region room; object a; object b; object c;\n"
        "assert a.pos.x > 9.9 && a.pos.x < 0.1;\n"  # unsatisfiable
        "assert b.pos.z > 5;\n"
    )
    cs = compiled(source)
    layout = SceneLayout(
        regions=[ROOM],
        objects=[obj("a", pos=(5.0, 0.5, 5.0)), obj("b", pos=(3.0, 0.5, 3.0)),
                 obj("c", pos=(7.0, 0.5, 7.0))],
    )
    cfg = SolverConfig(rng_seed=9)
    before = sum(cs.verdicts(layout).values())
    batch = [cs.constraints[0], cs.constraints[1]]
    result, _ = local_search_batch_solve(layout, batch, cs, cfg)
    after = sum(cs.verdicts(result).values())
    assert after >= before


def test_only_batch_objects_move():
    cs = compiled(
        "region room; object a; object b; object c;\n"
        "assert a.pos.x > 9;\n"
    )
    layout = SceneLayout(
        regions=[ROOM],
        objects=[obj("a", pos=(2.0, 0.5, 2.0)), obj("b", pos=(5.0, 0.5, 5.0)),
                 obj("c", pos=(8.0, 0.5, 8.0))],
    )
    before_b = layout.object("b").transform
    before_c = layout.object("c").transform
    result, moved = local_search_batch_solve(
        layout, [cs.constraints[0]], cs, SolverConfig(rng_seed=4)
    )
    assert result.object("b").transform == before_b
    assert result.object("c").transform == before_c
    assert moved <= {"a"}


# ---------------------------------------------------------------------------
# enforce_bounds


def test_nudged_object_clamped_to_tangency():
    cs = compiled("region room; object a;")
    layout = SceneLayout(regions=[ROOM], objects=[obj("a", pos=(-0.2, 0.5, 5.0))])
    result, adjusted = enforce_bounds(layout, cs)
    from sthl.scene import inside

    assert adjusted == {"a"}
    clamped = result.object("a")
    assert inside(clamped, ROOM)
    assert clamped.transform.pos[0] == pytest.approx(0.5)


def test_allow_outside_object_untouched():
    cs = compiled("region room; object bird; allowOutside(bird);")
    layout = SceneLayout(regions=[ROOM], objects=[obj("bird", pos=(-3.0, 0.5, 5.0))])
    result, adjusted = enforce_bounds(layout, cs)
    assert adjusted == set()
    assert result.object("bird").transform.pos == (-3.0, 0.5, 5.0)


def test_interior_object_clamp_is_identity():
    cs = compiled("region room; object a;")
    layout = SceneLayout(regions=[ROOM], objects=[obj("a", pos=(5.0, 0.5, 5.0))])
    result, adjusted = enforce_bounds(layout, cs)
    assert adjusted == set()
    assert result.object("a").transform.pos == (5.0, 0.5, 5.0)


def test_vertical_clamp():
    cs = compiled("region room; object a;")
    layout = SceneLayout(regions=[ROOM], objects=[obj("a", pos=(5.0, 5.0, 5.0))])
    result, _ = enforce_bounds(layout, cs)
    assert result.object("a").transform.pos[1] == pytest.approx(2.5)  # top at ceiling


# ---------------------------------------------------------------------------
# solve


def test_trivial_scene_terminates_all_satisfied():
    cs = compiled("region room; object a;")
    report = solve([obj("a")], [ROOM], cs, SolverConfig(rng_seed=1))
    assert report.terminated == "allSatisfied"
    assert report.best_ratio == 1.0
    assert report.best_index <= 1


def test_unsatisfiable_pair_survives_gracefully():
    cs = compiled("region room; object a; assert a.pos.x > 1 && a.pos.x < 0;")
    report = solve([obj("a")], [ROOM], cs, SolverConfig(rng_seed=1))
    assert report.terminated == "iterationLimit"
    assert report.best_ratio < 1.0
    assert len(report.iterations) == 6  # initial + T


def test_best_ratio_is_running_max_and_earliest_tie():
    cs = compiled("region room; object a; assert a.pos.x > 1 && a.pos.x < 0;")
    report = solve([obj("a")], [ROOM], cs, SolverConfig(rng_seed=1))
    best_seen = max(rec.ratio for rec in report.iterations)
    assert report.best_ratio == best_seen
    first_index = next(i for i, r in enumerate(report.iterations) if r.ratio == best_seen)
    assert report.best_index == report.iterations[first_index].index


def test_solve_deterministic_end_to_end():
    fixture = generate_fixture(seed=5, n_objects=6)
    cfg = SolverConfig(rng_seed=5)
    rep1 = solve(fixture.objects, fixture.regions, fixture.cs, cfg)
    rep2 = solve(fixture.objects, fixture.regions, fixture.cs, cfg)
    assert render_report(rep1) == render_report(rep2)
    t1 = [(o.id, o.transform) for o in rep1.best_layout.objects]
    t2 = [(o.id, o.transform) for o in rep2.best_layout.objects]
    assert t1 == t2


def test_batch_isolation_instrumented():
    fixture = generate_fixture(seed=11, n_objects=8)
    report = solve(fixture.objects, fixture.regions, fixture.cs, SolverConfig(rng_seed=11))
    for record in report.iterations[1:]:
        allowed = set()
        for cid in record.batch:
            allowed |= fixture.cs.by_id(cid).involved
        assert set(record.moved) <= allowed


def test_best_ratio_non_decreasing_as_running_max():
    fixture = generate_fixture(seed=13, n_objects=8)
    report = solve(fixture.objects, fixture.regions, fixture.cs, SolverConfig(rng_seed=13))
    running = 0.0
    for record in report.iterations:
        running = max(running, record.ratio)
    assert report.best_ratio == pytest.approx(running)


def test_fixture_scene_reaches_high_satisfaction():
    fixture = generate_fixture(seed=21, n_objects=8, extra_constraints=6)
    report = solve(fixture.objects, fixture.regions, fixture.cs, SolverConfig(rng_seed=21))
    assert report.best_ratio >= 0.9


def test_custom_batch_solver_slot():
    calls = []

    def null_solver(layout, batch, cs, cfg, rng):
        calls.append([c.id for c in batch])
        return layout.copy(), set()

    cs = compiled("region room; object a; assert a.pos.x > 99;")
    report = solve([obj("a")], [ROOM], cs, SolverConfig(rng_seed=2), batch_solver=null_solver)
    assert len(calls) == 5  # T iterations, nothing resolved
    assert report.terminated == "iterationLimit"


# ---------------------------------------------------------------------------
# Constraints reaching objects through variables; report contexts


@pytest.mark.parametrize("seed", range(1, 7))
def test_constraint_through_a_variable_gets_repaired(seed):
    source = "region room; object a; Number w; w <- a.pos.x; assert w > 3;"
    typed = typecheck(parse(source))
    built = build_scene(typed, seed=seed)
    cs = compile_constraints(typed, seed=seed)
    cfg = SolverConfig(rng_seed=seed, max_iterations=5)
    report = solve(built.objects, built.regions, cs, cfg)
    ctx = cs.context(report.best_layout, rng_seed=seed)
    assert evaluate(cs.constraints[0], ctx)


def test_report_verdicts_use_the_solver_support_tolerance():
    # The report's verdicts and the solver's ratio come from one evaluation
    # context; a contradiction keeps one constraint violated.
    source = (FIXTURES / "contradiction.sthl").read_text(encoding="utf-8")
    typed = typecheck(parse(source))
    built = build_scene(typed, seed=42)
    cs = compile_constraints(typed, seed=42)
    cfg = SolverConfig(rng_seed=42)
    report = solve(built.objects, built.regions, cs, cfg)
    assert 0.0 < report.best_ratio < 1.0
    verdicts = [
        line.split()[2] for line in render_report(report).split("# constraints\n")[1].splitlines()
    ]
    assert verdicts.count("satisfied") / len(verdicts) == report.best_ratio
