"""Differential tests: the matrix-form resemblance confidences, the batch
visual scores and the bound-pruned retrieval decision against the per-pair
references in `scoring_oracles.py`."""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scoring_oracles as oracle
from sthl import assets
from sthl.assets import (
    AssetCandidate,
    AssetEntity,
    AssetQuery,
    HashProvider,
    StubGenerator,
    decide,
    decide_all,
    formulate_query,
)
from sthl.errors import DimensionError, NoAssetError, WeightError
from sthl.metrics import (
    TrigramEmbedder,
    TsvEmbedder,
    layout_confidences,
    object_confidences,
)

# ---------------------------------------------------------------------------
# Resemblance confidences

# Names include multi-token ones, one with no tokens at all, and ones no
# text below uses.
NAMES = ("chair", "table_1", "living_room_2", "Lamp", "room", "2", "__", "sofa_bed", "ghost_9")
WORDS = (
    "chair", "table", "1", "living", "room", "2", "lamp", "sofa", "bed", "_", ".", "<",
    "pos", "x", "+", "LIVING_ROOM_2", "Table_1",
)

texts = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)
# Repeating drawn texts gives duplicates on one side and across sides.
text_lists = st.lists(texts, max_size=6).flatmap(
    lambda base: st.lists(st.sampled_from(base), max_size=8) if base else st.just([])
)
names = st.lists(st.sampled_from(NAMES), max_size=5)
items = st.lists(st.tuples(texts, texts), max_size=6)  # (name, description)


@dataclass(frozen=True)
class AxisEmbedder:
    """Maps each text to +-e_k in three dimensions, so scaled dot products
    are exactly 0, 0.5 or 1: harmonic means of 0 and ties with tau."""

    def embed(self, text: str) -> np.ndarray:
        code = zlib.crc32(text.encode("utf-8"))
        vec = np.zeros(3)
        vec[code % 3] = 1.0 if code & 8 else -1.0
        return vec


embedders = st.one_of(st.sampled_from((4, 16, 256)).map(TrigramEmbedder), st.just(AxisEmbedder()))
taus = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))


def assert_same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)
    assert np.array_equal(actual > 0, expected > 0)


@settings(max_examples=60, deadline=None)
@given(gen=items, gt=items, embedder=embedders)
@example(gen=[], gt=[("chair", "red chair")], embedder=TrigramEmbedder())
@example(gen=[("chair", "red chair")], gt=[], embedder=TrigramEmbedder())
@example(gen=[("a", "b")] * 3, gt=[("a", "b")] * 2, embedder=TrigramEmbedder(4))
def test_object_confidences_match_per_pair(gen, gt, embedder):
    actual = object_confidences(gen, gt, embedder)
    expected = oracle.object_confidences(gen, gt, embedder)
    assert actual.thresholded == expected.thresholded
    assert_same(actual.entries, expected.entries)


@settings(max_examples=80, deadline=None)
@given(gen=text_lists, gt=text_lists, object_names=names, embedder=embedders, tau=taus)
@example(gen=[], gt=["chair"], object_names=["chair"], embedder=TrigramEmbedder(), tau=0.5)
@example(gen=["chair"], gt=[], object_names=["chair"], embedder=TrigramEmbedder(), tau=0.5)
@example(
    gen=["living room 2 . pos", "living_room", "LIVING_ROOM_2 < chair"],
    gt=["living_room_2 . pos . x", "room 2"],
    object_names=["living_room_2", "room", "ghost_9"],
    embedder=TrigramEmbedder(),
    tau=0.0,
)
@example(
    gen=["chair"] * 3, gt=["chair"] * 2, object_names=["chair"], embedder=TrigramEmbedder(), tau=0.9
)
# A text against itself: the matrix product gives 1 - 2**-53, `scaled_dot` 1.
@example(
    gen=["", "chair chair 1 living room sofa sofa"],
    gt=["", "chair chair 1 living room sofa sofa"],
    object_names=["chair"],
    embedder=TrigramEmbedder(16),
    tau=1.0,
)
def test_layout_confidences_match_per_pair(gen, gt, object_names, embedder, tau):
    actual = layout_confidences(gen, gt, object_names, embedder, tau)
    expected = oracle.layout_confidences(gen, gt, object_names, embedder, tau)
    assert actual.thresholded == expected.thresholded
    assert_same(actual.entries, expected.entries)


@pytest.fixture
def mixed_embedder(tmp_path):
    """3-long vectors for `chair` texts; the 256-long trigram fallback
    otherwise."""
    path = tmp_path / "vectors.tsv"
    path.write_text("chair\t1,0,0\nchair . pos\t0,1,0\n", encoding="utf-8")
    return TsvEmbedder.load(path)


def test_object_confidences_mixed_lengths_raise_dimension_error(mixed_embedder):
    gen, gt = [("chair", "red chair")], [("table", "red table")]
    with pytest.raises(DimensionError):
        oracle.object_confidences(gen, gt, mixed_embedder)
    with pytest.raises(DimensionError):
        object_confidences(gen, gt, mixed_embedder)


def test_layout_confidences_mixed_lengths_raise_dimension_error(mixed_embedder):
    gen, gt = ["chair . pos", "table"], ["chair . pos > table . pos"]
    args = (["chair", "table"], mixed_embedder, 0.5)
    with pytest.raises(DimensionError):
        oracle.layout_confidences(gen, gt, *args)
    with pytest.raises(DimensionError):
        layout_confidences(gen, gt, *args)


def test_mixed_lengths_against_an_empty_side_give_an_empty_matrix(mixed_embedder):
    gen = [("chair", "red chair"), ("table", "red table")]
    assert object_confidences(gen, [], mixed_embedder).entries.shape == (2, 0)
    gt = ["chair . pos", "table"]
    assert layout_confidences([], gt, ["chair"], mixed_embedder, 0.5).entries.shape == (0, 2)


# ---------------------------------------------------------------------------
# Pruned retrieval decision


class ScriptedScores:
    """Per-candidate-id (visual, semantic) scores; counts semantic calls."""

    def __init__(self, scores: dict[str, tuple[float, float]]):
        self.scores = scores
        self.semantic_calls = 0

    def visual(self, candidate, query):
        return self.scores[candidate.id][0]

    def semantic(self, candidate, query):
        self.semantic_calls += 1
        return self.scores[candidate.id][1]

    def visual_index(self, candidates):
        return lambda query: [self.visual(c, query) for c in candidates]


QUERY = AssetQuery(text="a 3D model of a chair", kind="object")
# A few exact values so that ties, with each other and with tau, are common.
unit_scores = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 0.652, 1.0)), st.floats(0.0, 1.0))
score_lists = st.lists(st.tuples(unit_scores, unit_scores), max_size=12)
WEIGHTS = ((100, 1), (7, 3), (1, 0), (0, 1))


def database_of(scores: list[tuple[float, float]]):
    database = [
        AssetCandidate(f"c{i}", f"models/c{i}.glb", f"thumbs/c{i}.png", "a chair")
        for i in range(len(scores))
    ]
    return database, ScriptedScores({c.id: s for c, s in zip(database, scores)})


def outcome(fn):
    try:
        return fn()
    except NoAssetError as exc:
        return ("NoAssetError", str(exc))


@settings(max_examples=150, deadline=None)
@given(
    scores=score_lists,
    weights=st.sampled_from(WEIGHTS),
    tau=st.one_of(st.sampled_from((0.0, 0.652, 1.0)), st.floats(0.0, 1.0)),
    generate=st.booleans(),
)
@example(scores=[(1.0, 0.0), (1.0, 1.0), (0.99, 1.0)], weights=(100, 1), tau=0.652, generate=False)
@example(scores=[(0.5, 0.5)] * 4, weights=(7, 3), tau=0.5, generate=True)
@example(scores=[(0.2, 0.9), (0.2, 1.0)], weights=(0, 1), tau=1.0, generate=False)
@example(scores=[(0.3, 0.9), (0.3, 0.1), (0.4, 0.0)], weights=(1, 0), tau=0.35, generate=False)
def test_pruned_decide_matches_full_scan(scores, weights, tau, generate):
    database, provider = database_of(scores)
    generator = StubGenerator() if generate else None
    actual = outcome(lambda: decide(QUERY, database, tau, weights, provider, generator))
    # Exactly the candidates the per-candidate prune scores get a semantic call.
    scored = provider.semantic_calls
    assert scored == len(oracle.sequential_prune(QUERY, database, weights, provider))
    expected = outcome(lambda: oracle.decide(QUERY, database, tau, weights, provider, generator))
    assert actual == expected
    if not isinstance(actual, tuple):
        for field in ("best_candidate", "best_score", "verdict", "below_threshold"):
            assert getattr(actual, field) == getattr(expected, field)


def test_decide_skips_candidates_that_cannot_win():
    scores = [(1.0, 1.0)] + [(0.9, 1.0)] * 50
    database, provider = database_of(scores)
    decision = decide(QUERY, database, 0.652, (100, 1), provider)
    assert decision.best_candidate == database[0]
    assert provider.semantic_calls == 1


@pytest.mark.parametrize(
    "weights",
    [
        (0, 0), (0.0, 0.0), (-1, 2), (2, -1), (-1, -1),
        (math.nan, 1), (1, math.nan), (math.inf, 1), (1, -math.inf), (1e308, 1e308),
    ],
)
@pytest.mark.parametrize("size", [1, 5])
def test_bad_weights_raise_on_a_non_empty_database(weights, size):
    database, provider = database_of([(0.5, 0.5)] * size)
    with pytest.raises(WeightError):
        decide(QUERY, database, 0.652, weights, provider)
    with pytest.raises(WeightError):
        decide(QUERY, database, 0.652, weights, provider, StubGenerator())


@pytest.mark.parametrize("weights", [(100, 1), (0, 0), (-1, 2)])
def test_empty_database_raises_no_asset_error_or_generates(weights):
    with pytest.raises(NoAssetError):
        decide(QUERY, [], 0.652, weights, ScriptedScores({}))
    decision = decide(QUERY, [], 0.652, weights, ScriptedScores({}), StubGenerator())
    assert decision.verdict == "generated" and decision.best_candidate is None


# ---------------------------------------------------------------------------
# Batch visual scores and the pruned decision on a full-size index

# Field text: non-ASCII, the field separator `visual` joins with, and empty.
field_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(("", "\x1f", "a\x1fb", "chaise é", "椅子", "🪑 lamp", "\x00")),
)


@settings(max_examples=120, deadline=None)
@given(
    salt=field_text,
    candidates=st.lists(st.tuples(field_text, field_text), max_size=6),
    queries=st.lists(field_text, min_size=1, max_size=3),
)
@example(salt="", candidates=[], queries=[""])
@example(salt="\x1f", candidates=[("", ""), ("\x1f", "")], queries=["", "\x1f"])
def test_hash_provider_batch_scores_equal_per_pair_bits(salt, candidates, queries):
    provider = HashProvider(salt)
    database = [AssetCandidate(i, "m", "t", d) for i, d in candidates]
    scores = provider.visual_index(database)
    for text in queries:
        query = AssetQuery(text=text, kind="object")
        batch = [float(v).hex() for v in scores(query)]
        assert batch == [provider.visual(c, query).hex() for c in database]


CATEGORIES = ("chair", "table", "lamp", "sofa", "shelf", "desk", "bed", "rug", "plant", "stool")
COLORS = ("red", "blue", "white", "black", "walnut", "grey", "", "teal")
MATERIALS = ("oak", "pine", "steel", "glass", "velvet", "", "linen")
FEATURES = ("modern", "rustic", "tall", "low", "round", "vintage", "matte")


def seeded_index(seed: int, size: int = 2000) -> list[AssetCandidate]:
    rng = random.Random(seed)
    return [
        AssetCandidate(
            f"a{i:04d}",
            f"models/a{i:04d}.glb",
            f"thumbs/a{i:04d}.png",
            f"a 3D model of a {rng.choice(COLORS)} {rng.choice(CATEGORIES)} made with "
            f"{rng.choice(MATERIALS)} that is {' '.join(rng.sample(FEATURES, 2))}",
        )
        for i in range(size)
    ]


def seeded_entities(seed: int, count: int) -> list[AssetEntity]:
    rng = random.Random(seed)
    return [
        AssetEntity(
            "object",
            rng.choice(CATEGORIES),
            rng.choice(COLORS),
            rng.choice(MATERIALS),
            " ".join(rng.sample(FEATURES, rng.randrange(3))),
        )
        for _ in range(count)
    ]


INDEX = seeded_index(11)
ENTITIES = seeded_entities(12, 8)


@pytest.mark.parametrize("weights", WEIGHTS)
def test_pruned_decisions_on_a_full_index_match_full_scan(weights):
    provider, generator = HashProvider(), StubGenerator()
    expected = [
        oracle.decide(formulate_query(e), INDEX, 0.652, weights, provider, generator)
        for e in ENTITIES
    ]
    assert decide_all(ENTITIES, INDEX, 0.652, weights, provider, generator) == expected
    single = [
        decide(formulate_query(e), INDEX, 0.652, weights, provider, generator) for e in ENTITIES
    ]
    assert single == expected


@pytest.mark.parametrize("weights", WEIGHTS)
def test_pruned_decisions_score_what_the_sequential_prune_scores(monkeypatch, weights):
    provider = HashProvider("s")
    scored: list[str] = []
    score_retrieval = assets.score_retrieval

    def counting(candidate, *args):
        scored.append(candidate.id)
        return score_retrieval(candidate, *args)

    monkeypatch.setattr(assets, "score_retrieval", counting)
    decide_all(ENTITIES, INDEX, 0.652, weights, provider, StubGenerator())
    monkeypatch.undo()
    expected = [
        cid
        for e in ENTITIES
        for cid in oracle.sequential_prune(formulate_query(e), INDEX, weights, provider)
    ]
    assert scored == expected
    if weights != (0, 1):  # with λv = 0 every bound is 1, so none is skipped
        assert len(scored) < len(INDEX) * len(ENTITIES)
