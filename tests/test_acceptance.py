"""Acceptance suite: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Each criterion's tolerances are pinned in the assertions.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sthl.assets import AssetCandidate, AssetEntity, HashProvider, StubGenerator, decide_all
from sthl.build import build_scene
from sthl.constraints import compile_constraints, evaluate, satisfaction_ratio
from sthl.dsl import parse, print_program, typecheck
from sthl.export import assemble, read_package, resolve_region, write_package
from sthl.metrics import (
    MatchScores,
    hungarian_assign,
    layout_resemblance,
    object_resemblance,
    overall_resemblance,
)
from sthl.scene import Region, SceneLayout, SceneObject, Transform, collision_margin, collides, distance_to_boundary, inside, world_box
from sthl.solver import SolverConfig, solve

from astgen import random_program
from conftest import child_env
from geom_oracles import corner_inside_oracle, grid_collides, grid_inside
from naive_interp import eval_assertion
from scenegen import generate_fixture
from test_export import decision_for

ROOT = Path(__file__).parent.parent
CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def _report(number: int, description: str) -> None:
    print(f"\ncriterion {number:02d} PASS: {description}")


# ---------------------------------------------------------------------------
# 1. DSL round-trip


def test_criterion_01_dsl_round_trip():
    start = time.monotonic()
    corpus_files = sorted(CORPUS.glob("*.sthl"))
    assert len(corpus_files) >= 30
    for path in corpus_files:
        program = parse(path.read_text(encoding="utf-8"))
        assert parse(print_program(program)) == program, path.name
    rng = random.Random(987654321)
    for i in range(500):
        program = random_program(rng)
        assert parse(print_program(program)) == program, f"random AST #{i}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"round-trip suite took {elapsed:.2f}s (budget 5s)"
    _report(1, f"{len(corpus_files)} corpus programs + 500 random ASTs round-trip "
               f"exactly in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Constraint-evaluation oracle equivalence


def test_criterion_02_evaluation_matches_naive_interpreter():
    from astgen import ProgramGenerator

    rng = random.Random(777)
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    agreements = 0
    for case in range(1000):
        n_objects = rng.randint(1, 5)
        names = [f"obj{i}" for i in range(n_objects)]
        gen = ProgramGenerator(random.Random(rng.randrange(1 << 30)))
        source = print_program(gen.assertion_case(names, "room"))
        cs = compile_constraints(typecheck(parse(source)), seed=case)
        objects = [
            SceneObject(
                name,
                color=rng.choice(("red", "blue", "")),
                material=rng.choice(("wood", "steel", "")),
                features=rng.choice(("soft", "tall", "")),
                transform=Transform(
                    pos=(rng.uniform(0, 10), rng.uniform(0, 3), rng.uniform(0, 10)),
                    rot=(0.0, 0.0, rng.choice((0.0, 90.0, 180.0, 270.0))),
                    scale=(rng.uniform(0.2, 2), rng.uniform(0.2, 2), rng.uniform(0.2, 2)),
                ),
                region="room",
            )
            for name in names
        ]
        layout = SceneLayout(regions=[room], objects=objects)
        target = cs.constraints[0]
        expected = eval_assertion(target.assertion, layout, cs.bindings, cs.region_values)
        actual = evaluate(target, cs.context(layout))
        assert actual == expected, f"case {case}: {source}"
        agreements += 1
    assert agreements == 1000
    _report(2, "evaluate() agrees with the naive interpreter on 1000/1000 random cases")


# ---------------------------------------------------------------------------
# 3. Hidden-constraint count law


def test_criterion_03_hidden_constraint_count_law():
    rng = random.Random(31415)
    for trial in range(150):
        n = rng.randint(1, 20)
        names = [f"o{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        allow_collide = rng.sample(pairs, k=rng.randint(0, len(pairs))) if pairs else []
        allow_outside = rng.sample(names, k=rng.randint(0, n))
        source = (
            "region room; "
            + " ".join(f"object {name};" for name in names)
            + " ".join(f"allowCollide({a}, {b});" for a, b in allow_collide)
            + " ".join(f"allowOutside({name});" for name in allow_outside)
        )
        cs = compile_constraints(typecheck(parse(source)))
        hidden = sum(1 for c in cs.constraints if c.provenance != "explicit")
        expected = math.comb(n, 2) - len(allow_collide) + n + (n - len(allow_outside))
        assert hidden == expected, f"trial {trial}: n={n}"
    _report(3, "hidden count equals C(n,2)-|allowCollide|+n+(n-|allowOutside|) "
               "on 150 randomized scenes, n in [1,20]")


# ---------------------------------------------------------------------------
# 4. Collision / inside oracle equivalence


def test_criterion_04_geometry_matches_grid_oracles():
    rng = random.Random(2718)
    band = 0.02

    checked_collides = 0
    attempts = 0
    while checked_collides < 500 and attempts < 5000:
        attempts += 1

        def rand_obj(oid):
            return SceneObject(
                oid,
                transform=Transform(
                    pos=(rng.uniform(0, 1.0), rng.uniform(0, 1.0), rng.uniform(0, 1.0)),
                    rot=(rng.uniform(0, 360), rng.uniform(0, 360), rng.uniform(0, 360)),
                    scale=(rng.uniform(0.2, 0.7), rng.uniform(0.2, 0.7), rng.uniform(0.2, 0.7)),
                ),
            )

        a, b = rand_obj("a"), rand_obj("b")
        if abs(collision_margin(a, b)) < band:
            continue
        assert collides(a, b) == grid_collides(a, b)
        checked_collides += 1
    assert checked_collides == 500

    # Containment: half the cases in a convex room against the volume-fill
    # grid oracle (corner containment and volume containment coincide on
    # convex footprints), half in an L-shaped room against an independent
    # ray-casting check of the corner-based contract.
    convex = Region(
        "hex",
        ((0.0, 0.0), (4.0, -1.0), (6.0, 1.0), (6.0, 5.0), (3.0, 6.5), (0.0, 5.0)),
    )
    lroom = Region(
        "lroom",
        ((0.0, 0.0), (6.0, 0.0), (6.0, 3.0), (3.0, 3.0), (3.0, 6.0), (0.0, 6.0)),
    )
    checked_inside = 0
    attempts = 0
    while checked_inside < 500 and attempts < 20000:
        attempts += 1
        region = convex if checked_inside % 2 == 0 else lroom
        obj = SceneObject(
            "o",
            transform=Transform(
                pos=(rng.uniform(0, 6), rng.uniform(0.3, 2.7), rng.uniform(-1, 6.5)),
                rot=(0.0, 0.0, rng.uniform(0, 360)),
                scale=(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)),
            ),
        )
        corners = world_box(obj).corners()
        horizontal_margin = min(
            distance_to_boundary((float(x), float(z)), region.vertices)
            for x, z in corners[:, [0, 2]]
        )
        vertical_margin = min(
            float(corners[:, 1].min()) - region.floor_y,
            region.floor_y + region.height - float(corners[:, 1].max()),
        )
        if horizontal_margin < band or abs(vertical_margin) < band:
            continue
        if region is convex:
            assert inside(obj, region) == grid_inside(obj, region)
        else:
            assert inside(obj, region) == corner_inside_oracle(obj, region)
        checked_inside += 1
    assert checked_inside == 500
    _report(4, "collides and inside match their oracles (0.01 m grid / independent "
               "ray casting) on 500+500 cases outside the 0.02 m boundary band")


# ---------------------------------------------------------------------------
# 5. Hungarian optimality


def _brute_force_best(matrix: np.ndarray) -> float:
    rows, cols = matrix.shape
    if rows > cols:
        return _brute_force_best(matrix.T)
    best = 0.0
    for perm in itertools.permutations(range(cols), rows):
        total = sum(matrix[r, c] for r, c in enumerate(perm) if matrix[r, c] > 0)
        best = max(best, total)
    return best


def test_criterion_05_hungarian_equals_exhaustive_optimum():
    rng = random.Random(5150)
    for trial in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = np.array(
            [[rng.choice([0.0, round(rng.random(), 6)]) for _ in range(cols)] for _ in range(rows)]
        )
        assignment = hungarian_assign(matrix)
        total = sum(matrix[r, c] for r, c in assignment)
        assert total == pytest.approx(_brute_force_best(matrix), abs=1e-12), f"trial {trial}"
        assert all(matrix[r, c] > 0 for r, c in assignment)
    _report(5, "assignment total equals the exhaustive optimum on 200 matrices up to 6x6")


# ---------------------------------------------------------------------------
# 6 & 7. Solver convergence + monotonicity/batch isolation


_SCENE_SIZES = [6, 8, 10, 12, 5, 7, 9, 11, 6, 8, 10, 12, 5, 7, 9, 5, 6, 8, 10, 12]
_SCENE_EXTRAS = [0, 2, 4, 10, 0, 2, 4, 8, 2, 4, 6, 10, 0, 2, 4, 0, 2, 4, 6, 12]


@pytest.fixture(scope="module")
def solver_runs():
    runs = []
    for i, (n, extra) in enumerate(zip(_SCENE_SIZES, _SCENE_EXTRAS)):
        fixture = generate_fixture(seed=100 + i, n_objects=n, extra_constraints=extra)
        started = time.monotonic()
        report = solve(
            fixture.objects, fixture.regions, fixture.cs, SolverConfig(rng_seed=100 + i)
        )
        runs.append((fixture, report, time.monotonic() - started))
    return runs


def test_criterion_06_solver_convergence(solver_runs):
    counts = [fixture.n_constraints for fixture, _, _ in solver_runs]
    assert len(solver_runs) == 20
    assert all(len(f.objects) <= 12 for f, _, _ in solver_runs)
    assert min(counts) >= 30 and max(counts) <= 130
    over_100 = [(f, r, t) for f, r, t in solver_runs if f.n_constraints > 100]
    assert over_100, "at least one scene must carry more than 100 constraints"
    for fixture, _, elapsed in over_100:
        assert elapsed < 60.0, f"{fixture.name} took {elapsed:.1f}s (budget 60s)"

    ratios = [report.best_ratio for _, report, _ in solver_runs]
    at_90 = sum(1 for r in ratios if r >= 0.90)
    at_100 = sum(1 for r in ratios if r == 1.0)
    assert at_90 >= 18, f"only {at_90}/20 scenes reached ratio >= 0.90"
    assert at_100 >= 12, f"only {at_100}/20 scenes reached ratio == 1.0"
    _report(6, f"k=3 T=5 reaches >=0.90 on {at_90}/20 and 1.0 on {at_100}/20 scenes "
               f"({min(counts)}-{max(counts)} constraints, over-100 scene within budget)")


def test_criterion_07_monotonic_best_and_batch_isolation(solver_runs):
    for fixture, report, _ in solver_runs:
        running = 0.0
        best_so_far = []
        for record in report.iterations:
            running = max(running, record.ratio)
            best_so_far.append(running)
        assert best_so_far == sorted(best_so_far)
        assert report.best_ratio == pytest.approx(running)
        for record in report.iterations[1:]:
            allowed: set[str] = set()
            for cid in record.batch:
                allowed |= fixture.cs.by_id(cid).involved
            assert set(record.moved) <= allowed, (
                f"{fixture.name} iteration {record.index} moved {record.moved} "
                f"outside batch scope {sorted(allowed)}"
            )
    _report(7, "best-so-far ratio is non-decreasing and no iteration moved an object "
               "outside its batch scope, across all 20 solver runs")


# ---------------------------------------------------------------------------
# 8. Hybrid threshold behavior


def test_criterion_08_threshold_rules_exact():
    provider = HashProvider()
    generator = StubGenerator()
    database = [
        AssetCandidate(f"asset{i}", f"models/a{i}.glb", f"thumbs/a{i}.png",
                       desc)
        for i, desc in enumerate(
            ["a wooden chair", "a velvet armchair", "a steel floor lamp",
             "a marble table", "a linen sofa", "a glass cabinet"]
        )
    ]
    entities = [
        AssetEntity("object", category, color=color)
        for category, color in itertools.product(
            ("chair", "armchair", "lamp", "table", "sofa", "cabinet", "rug", "desk"),
            ("", "red", "blue", "green", "white"),
        )
    ]
    low = decide_all(entities, database, tau=0.0, provider=provider, generator=generator)
    assert all(d.verdict == "retrieved" for d in low)
    high = decide_all(entities, database, tau=1.0, provider=provider, generator=generator)
    assert all(d.verdict == "generated" for d in high)

    mixed = decide_all(entities, database, tau=0.652, provider=provider, generator=generator)
    verdicts = {d.verdict for d in mixed}
    assert verdicts == {"retrieved", "generated"}, "tau=0.652 must yield a mixture"
    for decision in mixed:
        if decision.verdict == "retrieved":
            assert decision.best_score >= 0.652
        else:
            assert decision.best_score < 0.652
    _report(8, f"tau=0 -> 100% retrieved, tau=1 -> 100% generated, tau=0.652 -> "
               f"{sum(d.verdict == 'retrieved' for d in mixed)}/{len(mixed)} retrieved, "
               "every verdict consistent with score vs tau")


# ---------------------------------------------------------------------------
# 9. Package round-trip


_PACKAGE_FIXTURES = [
    ROOT / "fixtures" / "livingroom.sthl",
    ROOT / "fixtures" / "bedroom.sthl",
    CORPUS / "t33_full_scene.sthl",
]

_TWO_ROOM = """\
region left; left.pos <- vec3(2.5, 0, 2.5); left.scale <- vec3(5, 3, 5);
region right; right.pos <- vec3(8.5, 0, 2.5); right.scale <- vec3(5, 3, 5);
object couch; couch.scale <- vec3(1.8, 0.8, 0.9);
object desk; desk.scale <- vec3(1.4, 0.75, 0.7);
object bed; bed.scale <- vec3(1.6, 0.5, 2);
assert inside(couch, left);
assert inside(desk, left);
assert inside(bed, right);
"""


def _package_from_source(source: str, seed: int):
    program = parse(source)
    typed = typecheck(program)
    built = build_scene(typed, seed=seed)
    cs = compile_constraints(typed, seed=seed)
    cfg = SolverConfig(rng_seed=seed)
    report = solve(built.objects, built.regions, cs, cfg)
    decisions = {o.id: decision_for(o.id) for o in built.objects}
    return assemble(report, decisions, program)


def test_criterion_09_package_round_trip(tmp_path):
    sources = [p.read_text(encoding="utf-8") for p in _PACKAGE_FIXTURES] + [_TWO_ROOM]
    for i, source in enumerate(sources):
        pkg = _package_from_source(source, seed=40 + i)
        out = tmp_path / f"pkg{i}"
        write_package(pkg, out)
        loaded = read_package(out)
        for a, b in zip(pkg.objects, loaded.objects):
            assert a.position == pytest.approx(b.position, abs=1e-6)
            assert a.rotation_xzy == pytest.approx(b.rotation_xzy, abs=1e-6)
            assert a.scale == pytest.approx(b.scale, abs=1e-6)
        assert parse(loaded.metadata_text) == parse(source)

    # Partial re-solve isolation on the two-room fixture.
    pkg = _package_from_source(_TWO_ROOM, seed=77)
    write_package(pkg, tmp_path / "before")
    resolved = resolve_region(pkg, "left", SolverConfig(rng_seed=12345))
    write_package(resolved, tmp_path / "after")
    before = json.loads((tmp_path / "before" / "scene.json").read_text())
    after = json.loads((tmp_path / "after" / "scene.json").read_text())
    for obj_after in after["objects"]:
        if obj_after["region"] != "left":
            obj_before = next(o for o in before["objects"] if o["id"] == obj_after["id"])
            assert obj_before == obj_after, "other regions must be byte-identical"
    _report(9, "write/read identity within 1e-6, metadata re-parses on 4/4 fixtures, "
               "partial re-solve leaves other regions byte-identical")


# ---------------------------------------------------------------------------
# 10. Metric formulas on crafted cases


class LookupEmbedder:
    """Orthogonal concept vectors so confidences are exactly 1, 0.5 or 0."""

    def __init__(self, concepts: dict[str, int], dims: int = 16):
        self.concepts = concepts
        self.dims = dims

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dims)
        vec[self.concepts.get(text, self.dims - 1)] = 1.0
        return vec


def test_criterion_10_metric_formulas_hand_computed():
    concepts = {f"t{i}": i for i in range(10)}
    emb = LookupEmbedder(concepts)
    tau = 0.7

    def item(key):  # name and description share one concept vector
        return (key, key)

    cases = []

    # 1: identical 3 vs 3
    scores = object_resemblance([item("t0"), item("t1"), item("t2")],
                                [item("t0"), item("t1"), item("t2")], emb, tau)
    cases.append((scores, (3, 0, 0, 1.0, 1.0, 1.0)))
    # 2: 2 generated vs 3 ground truth
    scores = object_resemblance([item("t0"), item("t1")],
                                [item("t0"), item("t1"), item("t2")], emb, tau)
    cases.append((scores, (2, 0, 1, 1.0, 2 / 3, 0.8)))
    # 3: everything below threshold
    scores = object_resemblance([item("t0"), item("t1")],
                                [item("t5"), item("t6")], emb, tau)
    cases.append((scores, (0, 2, 2, 0.0, 0.0, 0.0)))
    # 4: 3 generated vs 2 ground truth
    scores = object_resemblance([item("t0"), item("t1"), item("t9")],
                                [item("t0"), item("t1")], emb, tau)
    cases.append((scores, (2, 1, 0, 2 / 3, 1.0, 0.8)))
    # 5: half of 4 match
    scores = object_resemblance([item("t0"), item("t1"), item("t8"), item("t9")],
                                [item("t0"), item("t1"), item("t6"), item("t7")], emb, tau)
    cases.append((scores, (2, 2, 2, 0.5, 0.5, 0.5)))

    names = ["sofa", "lamp", "desk"]
    text_concepts = {
        "the sofa faces north": 0,
        "the sofa points north": 0,
        "the lamp is tall": 1,
        "the desk is wide": 2,
        "the rug is soft": 3,
    }
    lemb = LookupEmbedder(text_concepts)
    # 6: identical constraint lists
    scores = layout_resemblance(["the sofa faces north", "the lamp is tall"],
                                ["the sofa faces north", "the lamp is tall"],
                                names, lemb, tau)
    cases.append((scores, (2, 0, 0, 1.0, 1.0, 1.0)))
    # 7: two generated map onto one ground truth (TP counts the GT side)
    scores = layout_resemblance(["the sofa faces north", "the sofa points north"],
                                ["the sofa faces north"], names, lemb, tau)
    cases.append((scores, (1, 0, 0, 1.0, 1.0, 1.0)))
    # 8: object-name rule zeroes the only entry
    scores = layout_resemblance(["the lamp is tall"], ["the sofa faces north"],
                                names, lemb, tau)
    cases.append((scores, (0, 1, 1, 0.0, 0.0, 0.0)))
    # 9: one of two ground truths matched, one generated dangling
    scores = layout_resemblance(
        ["the sofa faces north", "the rug is soft"],
        ["the sofa faces north", "the desk is wide"],
        names + ["rug"], lemb, tau)
    cases.append((scores, (1, 1, 1, 0.5, 0.5, 0.5)))
    # 10: overall harmonic means of cases 2 and 9
    overall = overall_resemblance(cases[1][0], cases[8][0])
    cases.append((overall, (3, 1, 2, 2 / 3, 4 / 7, 8 / 13)))

    for i, (scores, expected) in enumerate(cases, start=1):
        tp, fp, fn, precision, recall, f1 = expected
        assert scores.tp == tp, f"case {i} TP"
        assert scores.fp == fp, f"case {i} FP"
        assert scores.fn == fn, f"case {i} FN"
        assert scores.precision == pytest.approx(precision, abs=1e-12), f"case {i} P"
        assert scores.recall == pytest.approx(recall, abs=1e-12), f"case {i} R"
        assert scores.f1 == pytest.approx(f1, abs=1e-12), f"case {i} F1"

    # satisfactionRatio on 10 crafted layouts with hand counts.
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    source = "region room; object a; object b; object c;"
    cs = compile_constraints(typecheck(parse(source)))
    total = len(cs.constraints)  # 3 collision + 3 gravity + 3 boundary = 9
    assert total == 9

    def layout_with(positions):
        objects = [
            SceneObject(name, transform=Transform(pos=pos), region="room")
            for name, pos in zip(("a", "b", "c"), positions)
        ]
        return SceneLayout(regions=[room], objects=objects)

    crafted = [
        # (positions, expected satisfied count)
        (((2.0, 0.5, 2.0), (5.0, 0.5, 5.0), (8.0, 0.5, 8.0)), 9),  # all fine
        (((2.0, 0.5, 2.0), (2.3, 0.5, 2.0), (8.0, 0.5, 8.0)), 8),  # one collision
        (((2.0, 0.5, 2.0), (2.3, 0.5, 2.0), (2.15, 0.5, 2.0)), 6),  # three collisions
        (((2.0, 1.5, 2.0), (5.0, 0.5, 5.0), (8.0, 0.5, 8.0)), 8),  # one floating
        (((2.0, 1.5, 2.0), (5.0, 1.5, 5.0), (8.0, 0.5, 8.0)), 7),  # two floating
        (((-2.0, 0.5, 2.0), (5.0, 0.5, 5.0), (8.0, 0.5, 8.0)), 8),  # one outside
        (((-2.0, 0.5, 2.0), (5.0, 0.5, -5.0), (8.0, 0.5, 8.0)), 7),  # two outside
        (((2.0, 1.2, 2.0), (2.3, 0.5, 2.0), (8.0, 0.5, 8.0)), 7),  # collision + float
        (((-2.0, 1.5, 2.0), (5.0, 0.5, 5.0), (8.0, 0.5, 8.0)), 7),  # outside + float
        (((2.0, 0.5, 2.0), (2.0, 1.5, 2.0), (8.0, 0.5, 8.0)), 9),  # clean stack
    ]
    for i, (positions, satisfied) in enumerate(crafted, start=1):
        layout = layout_with(positions)
        expected_ratio = satisfied / total
        actual = satisfaction_ratio(cs, cs.context(layout))
        assert actual == pytest.approx(expected_ratio, abs=1e-12), f"layout {i}"
    _report(10, "10 resemblance cases and 10 hand-counted satisfaction ratios "
                "reproduce the formulas exactly (asymmetric TP included)")


# ---------------------------------------------------------------------------
# 11. End-to-end determinism


def test_criterion_11_pipeline_byte_identical(tmp_path):
    """Two fresh processes must write identical bytes.

    Cross-machine identity for the same build follows from the design: all
    randomness is seeded Mersenne-Twister, similarity doubles are sha256
    based, and floats are shortest-repr IEEE doubles in sorted JSON.
    """
    fixture = ROOT / "fixtures" / "livingroom.sthl"
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "sthl.cli", "pipeline", str(fixture),
             "--seed", "2024", "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        outputs.append((out / "scene.json").read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["schemaVersion"] == 1
    assert doc["solver"]["seed"] == 2024
    _report(11, "sthl pipeline with seed 2024 produced byte-identical scene.json "
                "across two separate processes")
