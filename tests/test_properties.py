"""Property tests over the toolchain's stated invariants."""

from __future__ import annotations

import io
import math
import random
import shutil
from contextlib import redirect_stderr

import pytest
from hypothesis import example, given, settings, strategies as st

from sthl.assets import AssetCandidate, AssetEntity, formulate_query, score_retrieval
from sthl.cli import run
from sthl.dsl import print_program
from sthl.dsl.printer import format_number
from sthl.errors import SthlError
from sthl.export import read_package, resolve_region
from sthl.metrics import MatchScores, harmonic_mean, overall_resemblance
from sthl.scene import SceneObject, Transform, collides

from astgen import random_program

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@given(finite_floats)
def test_format_number_reparses_to_same_float(value):
    assert float(format_number(value)) == value
    assert "e" not in format_number(value).lower()


@given(
    pos_a=st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
    pos_b=st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
    yaw_a=st.floats(0, 360),
    yaw_b=st.floats(0, 360),
)
@settings(max_examples=80, deadline=None)
def test_collision_symmetry(pos_a, pos_b, yaw_a, yaw_b):
    a = SceneObject("a", transform=Transform(pos=pos_a, rot=(0.0, 0.0, yaw_a)))
    b = SceneObject("b", transform=Transform(pos=pos_b, rot=(yaw_b, 0.0, 0.0)))
    assert collides(a, b) == collides(b, a)


@given(
    visual=st.floats(0, 1),
    semantic=st.floats(0, 1),
    weight_v=st.floats(0, 1000),
    weight_t=st.floats(0.001, 1000),
)
def test_score_is_convex_combination(visual, semantic, weight_v, weight_t):
    class P:
        def __init__(self):
            pass

        def visual(self, c, q):
            return visual

        def semantic(self, c, q):
            return semantic

        def visual_index(self, candidates):
            return lambda q: [self.visual(c, q) for c in candidates]

    candidate = AssetCandidate("c", "m", "t", "d")
    query = formulate_query(AssetEntity("object", "thing"))
    score = score_retrieval(candidate, query, weight_v, weight_t, P())
    lo, hi = min(visual, semantic), max(visual, semantic)
    assert lo - 1e-12 <= score <= hi + 1e-12


@given(st.floats(0, 1), st.floats(0, 1))
@example(a=0.375, b=5e-324)  # subnormal b: 2*a*b/(a+b) rounds above 2*b
def test_harmonic_mean_bounds_and_annihilation(a, b):
    h = harmonic_mean(a, b)
    assert 0.0 <= h <= max(a, b) + 1e-12
    if a == 0 or b == 0:
        assert h == 0.0
    else:
        assert h <= min(a, b) * 2 * (1 + 1e-9)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_f1_bounds(tp, fp, fn):
    scores = MatchScores.from_counts(tp, fp, fn)
    assert scores.f1 <= min(2 * scores.precision, 2 * scores.recall) + 1e-12
    assert scores.f1 <= max(scores.precision, scores.recall) + 1e-12
    overall = overall_resemblance(scores, scores)
    assert overall.f1 == scores.f1 or math.isclose(overall.f1, scores.f1)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("end-to-end")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_generated_program_runs_end_to_end_or_is_a_domain_error(work_dir, seed):
    """Every package `sthl pipeline` writes reads back, re-solves a region
    and re-evaluates an object's constraints; a program that cannot be
    placed is a located error (exit 1), never a traceback."""
    source = work_dir / "program.sthl"
    source.write_text(print_program(random_program(random.Random(seed))), encoding="utf-8")
    out = work_dir / "pkg"
    shutil.rmtree(out, ignore_errors=True)
    with redirect_stderr(io.StringIO()):
        code = run(["pipeline", str(source), "--seed", "0", "--T", "1", "--out", str(out)])
    assert code in (0, 1)
    if code == 0:
        try:
            pkg = read_package(out)
            if pkg.regions:
                resolve_region(pkg, pkg.regions[0].id)
            if pkg.objects:
                pkg.verdicts_for(pkg.objects[0].id)
        except SthlError:
            pass
