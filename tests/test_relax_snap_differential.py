"""Physics relaxation, the package snap and the report table against
`relax_snap_oracle`, where relaxation tests every pair, the snap
re-evaluates every constraint after each move and the report evaluates
the best layout again.

Inputs: `tests/scenegen.py` scenes of 6 to 16 objects at seeds 0-9, the
benchmark's house programs, and the layouts of the snap tests in
`tests/test_export.py`. Each layout is also squeezed toward its centre
(so relaxation separates many pairs, across rooms too) and perturbed so
that snaps move objects and some are reverted.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import relax_snap_oracle as oracle
from scenegen import generate_fixture
from sthl import export, solver
from sthl.assets import AssetDecision, AssetHandle, AssetQuery
from sthl.build import build_scene
from sthl.constraints import compile_constraints
from sthl.dsl import parse, typecheck
from sthl.scene import Region, SceneLayout, SceneObject, Transform
from sthl.solver import SolverConfig, initial_placement, render_report, solve

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

SCENEGEN = [(seed, n) for seed in range(10) for n in range(6, 17)]
HOUSES = [(seed, per_room) for seed in range(4) for per_room in workloads.HOUSES]


def _inputs(source: str, seed: int):
    typed = typecheck(parse(source))
    return build_scene(typed, seed=seed), compile_constraints(typed, seed=seed)


def _program(kind: str, key) -> str:
    if kind == "scenegen":
        seed, n = key
        return generate_fixture(seed, n).source
    seed, per_room = key
    return workloads.house_source(seed, per_room)


def _transforms(layout: SceneLayout) -> list[tuple[str, Transform]]:
    return [(obj.id, obj.transform) for obj in layout.objects]


def _squeezed(layout: SceneLayout, factor: float = 0.5) -> SceneLayout:
    """Every object moved toward the centre of all objects, so boxes overlap."""
    out = layout.copy()
    n = len(out.objects)
    cx = sum(o.transform.pos[0] for o in out.objects) / n
    cz = sum(o.transform.pos[2] for o in out.objects) / n
    for obj in out.objects:
        x, y, z = obj.transform.pos
        t = obj.transform
        obj.transform = Transform((cx + (x - cx) * factor, y, cz + (z - cz) * factor), t.rot, t.scale)
    return out


def _perturbed(layout: SceneLayout, seed: int) -> SceneLayout:
    """Objects lifted or sunk by up to 4.5 mm, and every third one stood on
    the previous one, up to 4.5 mm above its top: most are snapped, and a
    snap that leaves what stands on an object unsupported is reverted."""
    rng = random.Random(seed)
    out = layout.copy()
    for k, obj in enumerate(out.objects):
        t = obj.transform
        x, y, z = t.pos
        if k % 3 == 2:
            below = out.objects[k - 1]
            bx, _, bz = below.transform.pos
            top = below.transform.pos[1] + below.extents()[1] / 2.0
            x, z, y = bx, bz, top + obj.extents()[1] / 2.0
        obj.transform = Transform((x, y + rng.uniform(-0.0045, 0.0045), z), t.rot, t.scale)
    return out


def _cases():
    for key in SCENEGEN:
        yield pytest.param("scenegen", key, id=f"scenegen-s{key[0]}-n{key[1]}")
    for key in HOUSES:
        yield pytest.param("house", key, id=f"house-s{key[0]}-{len(key[1])}rooms")


@pytest.mark.parametrize("kind, key", list(_cases()))
def test_relaxation_snap_and_report_match_the_oracle(kind, key):
    seed = key[0]
    built, cs = _inputs(_program(kind, key), seed)
    cfg = SolverConfig(rng_seed=seed, max_iterations=0)

    placed = initial_placement(built.objects, built.regions, cs, cfg)
    for layout in (placed, _squeezed(placed), _squeezed(placed, 0.2)):
        expected = oracle.physics_relaxation(layout, cs)
        assert _transforms(solver.physics_relaxation(layout, cs)) == _transforms(expected)

    report = solve(built.objects, built.regions, cs, cfg)
    assert report.verdicts == oracle._results(cs, report.best_layout)
    assert render_report(report) == oracle.render_report(report, cs, cfg)

    for layout, verdicts in (
        (report.best_layout, report.verdicts),
        *((layout, cs.verdicts(layout)) for layout in (
            _perturbed(report.best_layout, seed),
            _perturbed(_squeezed(report.best_layout), seed + 1),
        )),
    ):
        snapped, reverted = export._snap_supported(layout, cs, verdicts)
        expected, expected_reverted = oracle._snap_supported(layout, cs)
        assert reverted == expected_reverted
        assert _transforms(snapped) == _transforms(expected)


def test_perturbed_layouts_snap_and_revert():
    # The perturbed inputs above must exercise the snap: objects move, and
    # some snaps are reverted.
    moved = reverted = 0
    for key in SCENEGEN[::7]:
        built, cs = _inputs(_program("scenegen", key), key[0])
        report = solve(built.objects, built.regions, cs, SolverConfig(rng_seed=key[0], max_iterations=0))
        layout = _perturbed(report.best_layout, key[0])
        snapped, undone = export._snap_supported(layout, cs, cs.verdicts(layout))
        moved += sum(a != b for a, b in zip(_transforms(layout), _transforms(snapped)))
        reverted += len(undone)
    assert moved > 20 and reverted > 0


# ---------------------------------------------------------------------------
# The snap tests' layouts

ROOM = "region room;\nroom.pos <- vec3(5, 0, 5); room.scale <- vec3(10, 3, 10);\n"


def _snap_case(extra: str, objects: list[SceneObject]):
    program = parse(ROOM + extra)
    cs = compile_constraints(typecheck(program))
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    return program, cs, room, SceneLayout(regions=[room], objects=objects)


def _shelf():
    return [
        SceneObject("cabinet", transform=Transform(pos=(5.0, 0.5, 5.0)), region="room"),
        SceneObject(
            "shelf", transform=Transform(pos=(5.0, 1.104, 5.0), scale=(0.8, 0.2, 0.8)), region="room"
        ),
    ]


SNAP_CASES = {
    "pinned-height": ("object cabinet; object shelf;\nassert shelf.pos.y = 1.104;\n", _shelf),
    "variable-pins-height": (
        "object cabinet; object shelf; Number h;\nh <- shelf.pos.y;\nassert h = 1.104;\n",
        _shelf,
    ),
    "unsupports-another": (
        "object cabinet; object book;\n",
        lambda: [
            SceneObject("cabinet", transform=Transform(pos=(5.0, 0.504, 5.0)), region="room"),
            SceneObject(
                "book", transform=Transform(pos=(5.0, 1.057, 5.0), scale=(0.3, 0.1, 0.2)), region="room"
            ),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(SNAP_CASES))
def test_snap_test_layouts_match_the_oracle(name):
    extra, objects = SNAP_CASES[name]
    program, cs, room, layout = _snap_case(extra, objects())
    expected, expected_reverted = oracle._snap_supported(layout, cs)
    assert expected_reverted  # each case reverts a snap
    snapped, reverted = export._snap_supported(layout, cs, cs.verdicts(layout))
    assert reverted == expected_reverted
    assert _transforms(snapped) == _transforms(expected)

    report = solve(objects(), [room], cs, SolverConfig(max_iterations=0))
    report = replace(report, best_layout=layout, verdicts=cs.verdicts(layout))
    decisions = {o.id: _decision(o.id) for o in layout.objects}
    pkg = export.assemble(report, decisions, program)
    assert pkg.snap_reverted == expected_reverted
    assert pkg.report_text == oracle.render_report(report, cs, report.config)


def _decision(obj_id: str) -> AssetDecision:
    return AssetDecision(
        query=AssetQuery(text=f"a 3D model of a {obj_id}", kind="object", category=obj_id),
        best_candidate=None,
        best_score=0.5,
        verdict="generated",
        model=AssetHandle(uri=f"generated://{obj_id}", native_extents=(1.0, 1.0, 1.0)),
    )
