"""Property tests over the toolchain's stated invariants."""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from sthl.assets import AssetCandidate, AssetEntity, formulate_query, score_retrieval
from sthl.dsl.printer import format_number
from sthl.metrics import MatchScores, harmonic_mean, overall_resemblance
from sthl.scene import SceneObject, Transform, collides

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
