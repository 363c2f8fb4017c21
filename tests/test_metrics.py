"""Metric tests: Hungarian optimality, resemblance scores, correctness."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from sthl.errors import DimensionError
from sthl.metrics import (
    ConfidenceMatrix,
    MatchScores,
    TrigramEmbedder,
    TsvEmbedder,
    _min_cost_assignment,
    harmonic_mean,
    hungarian_assign,
    layout_confidences,
    layout_resemblance,
    object_confidences,
    object_resemblance,
    overall_resemblance,
    scaled_dot,
    solution_correctness,
)
from sthl.scene import Region, SceneLayout, SceneObject, Transform

EMB = TrigramEmbedder()


def brute_force_best(matrix: np.ndarray) -> float:
    """Exhaustive optimal assignment total, zeros unassignable."""
    rows, cols = matrix.shape
    if rows <= cols:
        best = 0.0
        for perm in itertools.permutations(range(cols), rows):
            total = sum(
                matrix[r, c] for r, c in enumerate(perm) if matrix[r, c] > 0
            )
            best = max(best, total)
        return best
    return brute_force_best(matrix.T)


# ---------------------------------------------------------------------------
# hungarian


def test_identity_matrix_diagonal():
    assignment = hungarian_assign(np.eye(4))
    assert assignment == [(i, i) for i in range(4)]


def test_all_zero_matrix_empty_assignment():
    assert hungarian_assign(np.zeros((3, 5))) == []


def test_zero_entries_never_matched():
    matrix = np.array([[0.0, 0.9], [0.0, 0.8]])
    assignment = hungarian_assign(matrix)
    assert all(matrix[r, c] > 0 for r, c in assignment)
    assert len(assignment) == 1


def test_hungarian_matches_brute_force_on_random_matrices():
    rng = random.Random(31337)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = np.array(
            [[rng.choice([0.0, rng.random()]) for _ in range(cols)] for _ in range(rows)]
        )
        assignment = hungarian_assign(matrix)
        total = sum(matrix[r, c] for r, c in assignment)
        assert total == pytest.approx(brute_force_best(matrix), abs=1e-9)


# Exact pair lists against scipy's `linear_sum_assignment`, whose algorithm
# `hungarian_assign` ports: ties decide which optimum, and with it how many
# positive pairs (TP), an assignment keeps.

ENTRIES = {
    "ties": st.sampled_from([0.0, 0.5, 1.0]),
    "zeros": st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    "uniform": st.floats(0.0, 1.0),
}
SHAPES = {
    "1xn": (st.just(1), st.integers(1, 9)),
    "nx1": (st.integers(1, 9), st.just(1)),
    "tall": (st.integers(2, 9), st.integers(1, 8)),
    "wide": (st.integers(1, 8), st.integers(2, 9)),
    "any": (st.integers(1, 9), st.integers(1, 9)),
}


@st.composite
def matrices(draw, shape: str, entry: st.SearchStrategy[float]) -> np.ndarray:
    rows, cols = (draw(side) for side in SHAPES[shape])
    entries = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return np.array(entries).reshape(rows, cols)


def scipy_pairs(matrix: np.ndarray) -> list[tuple[int, int]]:
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return [(int(r), int(c)) for r, c in zip(rows, cols)]


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@pytest.mark.parametrize("shape", sorted(SHAPES))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_hungarian_pairs_equal_scipys(shape, kind, data):
    matrix = data.draw(matrices(shape, ENTRIES[kind]))
    expected = [(r, c) for r, c in scipy_pairs(matrix) if matrix[r, c] > 0.0]
    assert hungarian_assign(matrix) == expected


@pytest.mark.parametrize("shape", sorted(SHAPES))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_assigns_as_scipy_with_zero_and_negative_costs(shape, data):
    """The minimising kernel, before zero pairs are dropped, on costs of any
    sign: every pair, so a tie broken another way shows even at cost 0."""
    entries = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))
    cost = data.draw(matrices(shape, entries))
    assert _min_cost_assignment(cost.tolist()) == scipy_pairs(-cost)


def test_tie_between_optima_keeps_scipys_positive_pairs():
    # Both assignments total 1; scipy's keeps one positive pair, the other two.
    assert hungarian_assign(np.array([[1.0, 0.5], [0.5, 0.0]])) == [(0, 0)]
    assert hungarian_assign(np.array([[0.0, 0.5], [0.5, 1.0]])) == [(0, 1), (1, 0)]


def test_constant_matrix_gives_the_identity():
    assert hungarian_assign(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]
    assert hungarian_assign(np.ones((3, 2))) == [(0, 0), (1, 1)]


def test_non_finite_entries_are_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            hungarian_assign(np.array([[1.0, bad]]))


# ---------------------------------------------------------------------------
# object resemblance


def items(*names: str):
    return [(name, f"a {name} for the room") for name in names]


def test_identical_lists_perfect_scores():
    scores = object_resemblance(items("sofa", "lamp", "desk"), items("sofa", "lamp", "desk"), EMB, 0.7)
    assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0)
    matrix = object_confidences(items("sofa", "lamp", "desk"), items("sofa", "lamp", "desk"), EMB)
    assignment = hungarian_assign(matrix.apply_threshold(0.7).entries)
    assert assignment == [(0, 0), (1, 1), (2, 2)]


def test_two_generated_three_truth():
    scores = object_resemblance(items("sofa", "lamp"), items("sofa", "lamp", "desk"), EMB, 0.7)
    assert (scores.tp, scores.fp, scores.fn) == (2, 0, 1)
    assert scores.precision == 1.0
    assert scores.recall == pytest.approx(2 / 3)
    assert scores.f1 == pytest.approx(0.8)


def test_all_below_threshold_zero_scores():
    scores = object_resemblance(items("sofa"), items("zzz qqq"), EMB, 0.99)
    assert (scores.tp, scores.precision, scores.recall, scores.f1) == (0, 0.0, 0.0, 0.0)


def test_row_column_permutation_invariance():
    gen = items("sofa", "lamp", "desk")
    gt = items("lamp", "desk", "sofa")
    a = object_resemblance(gen, gt, EMB, 0.6)
    b = object_resemblance(list(reversed(gen)), gt, EMB, 0.6)
    assert (a.precision, a.recall, a.f1) == (b.precision, b.recall, b.f1)


def test_mismatched_embedding_lengths_raise():
    class Broken:
        def embed(self, text):
            return np.ones(3) / np.sqrt(3) if text == "a" else np.ones(4) / 2.0

    with pytest.raises(DimensionError):
        object_resemblance([("a", "x")], [("b", "x")], Broken(), 0.5)


def test_threshold_monotonicity_tp():
    gen = items("sofa", "lamp", "red chair")
    gt = items("sofa", "lamp stand", "blue chair")
    tps = [object_resemblance(gen, gt, EMB, tau).tp for tau in (0.0, 0.5, 0.8, 0.95, 1.0)]
    assert tps == sorted(tps, reverse=True)


# ---------------------------------------------------------------------------
# layout resemblance


def test_identical_constraints_perfect():
    texts = ["the lamp is above the table", "the sofa faces the tv"]
    scores = layout_resemblance(texts, texts, ["lamp", "table", "sofa", "tv"], EMB, 0.7)
    assert scores.f1 == 1.0


def test_missing_object_name_zeroes_entry():
    # The GT constraint names only "sofa" (the vocabulary has no "window"),
    # and the generated constraint lacks it, so rule (a) zeroes the entry.
    gt = ["the sofa is next to the window"]
    gen = ["the armchair is next to the window"]
    matrix = layout_confidences(gen, gt, ["sofa", "armchair"], EMB, 0.0)
    assert matrix.entries[0, 0] == 0.0
    scores = layout_resemblance(gen, gt, ["sofa", "armchair"], EMB, 0.0)
    assert (scores.tp, scores.fp, scores.fn) == (0, 1, 1)


def test_shared_name_keeps_entry():
    # "window" is a known object named by the GT constraint and present in
    # the generated text, so rule (a) does not zero the entry.
    gt = ["the sofa is next to the window"]
    gen = ["the armchair is next to the window"]
    matrix = layout_confidences(gen, gt, ["sofa", "armchair", "window"], EMB, 0.0)
    assert matrix.entries[0, 0] > 0.0


def test_whole_token_matching_not_substring():
    gt = ["the cat sits on the mat"]
    gen = ["the category is on the mat"]  # `cat` is not a token of `category`
    matrix = layout_confidences(gen, gt, ["cat"], EMB, 0.0)
    assert matrix.entries[0, 0] == 0.0


def test_many_to_many_counts_gt_side():
    gt = ["the lamp is on the desk"]
    gen = ["the lamp sits on the desk", "the lamp rests upon the desk"]
    scores = layout_resemblance(gen, gt, ["lamp", "desk"], EMB, 0.5)
    # both generated rows map to the single GT constraint
    assert (scores.tp, scores.fp, scores.fn) == (1, 0, 0)
    assert scores.precision == 1.0 and scores.recall == 1.0


def test_crafted_matrix_matches_exhaustive_mapping():
    gen = [
        "the bed touches the north wall",
        "the desk is by the bed",
        "the plant is in the corner",
        "the chair is under the desk",
        "the mirror hangs over the dresser",
        "the rug lies under the bed",
    ]
    gt = [
        "the bed is against the wall",
        "the desk sits near the bed",
        "the chair tucks under the desk",
        "the wardrobe stands by the door",
    ]
    names = ["bed", "desk", "plant", "chair", "mirror", "dresser", "rug", "wardrobe", "door"]
    tau = 0.55
    matrix = layout_confidences(gen, gt, names, EMB, tau)
    mapped_gt = {j for i, j in zip(*np.nonzero(matrix.entries))}  # noqa: B905
    mapped_gen = {i for i, j in zip(*np.nonzero(matrix.entries))}
    expected_tp = len(mapped_gt)
    expected_fp = len(gen) - len(mapped_gen)
    expected_fn = len(gt) - len(mapped_gt)
    scores = layout_resemblance(gen, gt, names, EMB, tau)
    assert (scores.tp, scores.fp, scores.fn) == (expected_tp, expected_fp, expected_fn)


# ---------------------------------------------------------------------------
# overall


def test_overall_perfect():
    one = MatchScores.from_counts(3, 0, 0)
    assert overall_resemblance(one, one).f1 == 1.0


def test_overall_harmonic_mean_hand_values():
    obj = MatchScores(precision=0.987, recall=0.9, f1=0.94, tp=0, fp=0, fn=0)
    layout = MatchScores(precision=0.983, recall=0.9, f1=0.94, tp=0, fp=0, fn=0)
    overall = overall_resemblance(obj, layout)
    assert overall.precision == pytest.approx(2 * 0.987 * 0.983 / (0.987 + 0.983))
    assert overall.precision == pytest.approx(0.985, abs=5e-4)


def test_zero_annihilates_harmonic_mean():
    obj = MatchScores.from_counts(3, 0, 0)
    layout = MatchScores.from_counts(0, 2, 2)
    assert overall_resemblance(obj, layout).f1 == 0.0
    assert harmonic_mean(0.9, 0.0) == 0.0


# ---------------------------------------------------------------------------
# solution correctness


def floor_scene(n: int, collide_pair: bool = False):
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    objects = []
    for i in range(n):
        x = 1.0 + 2.0 * i
        objects.append(
            SceneObject(f"o{i}", transform=Transform(pos=(x, 0.5, 5.0)), region="room")
        )
    if collide_pair:
        objects[1].transform = Transform(pos=(1.5, 0.5, 5.0))
    return SceneLayout(regions=[room], objects=objects)


def test_valid_fixture_layout_scores_one():
    source = "region room; object o0; object o1; object o2;"
    assert solution_correctness(source, floor_scene(3)) == 1.0


def test_single_collision_drops_one_of_nine():
    source = "region room; object o0; object o1; object o2;"
    assert solution_correctness(source, floor_scene(3, collide_pair=True)) == pytest.approx(8 / 9)


def test_empty_constraint_list_is_one():
    source = "region room;"
    layout = SceneLayout(
        regions=[Region("room", ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)))]
    )
    assert solution_correctness(source, layout) == 1.0


# ---------------------------------------------------------------------------
# embedders


def test_trigram_embedder_unit_norm_and_deterministic():
    v1 = EMB.embed("a red velvet armchair")
    v2 = TrigramEmbedder().embed("a red velvet armchair")
    assert np.linalg.norm(v1) == pytest.approx(1.0)
    assert np.array_equal(v1, v2)
    assert scaled_dot(v1, v2) == 1.0


def test_scaled_dot_maps_to_unit_interval():
    u = EMB.embed("sofa")
    v = EMB.embed("quantum flux")
    assert 0.0 <= scaled_dot(u, v) <= 1.0


def test_tsv_embedder_lookup_and_fallback(tmp_path):
    path = tmp_path / "provider.tsv"
    path.write_text("sofa\t1,0,0\nlamp\t0,1,0\n", encoding="utf-8")
    embedder = TsvEmbedder.load(path)
    assert np.array_equal(embedder.embed("sofa"), np.array([1.0, 0.0, 0.0]))
    fallback = embedder.embed("anything else")
    assert np.linalg.norm(fallback) == pytest.approx(1.0)


def test_confidence_matrix_threshold_flag():
    m = ConfidenceMatrix(np.array([[0.4, 0.9]]))
    t = m.apply_threshold(0.5)
    assert t.thresholded and m.thresholded is False
    assert t.entries.tolist() == [[0.0, 0.9]]
