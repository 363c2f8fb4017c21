"""Asset stage tests: templates, scoring, decisions, orientation plans."""

from __future__ import annotations

import pytest

from sthl.assets import (
    AssetCandidate,
    AssetDatabase,
    AssetEntity,
    AssetHandle,
    HashProvider,
    StubGenerator,
    decide,
    decide_all,
    formulate_query,
    orientation_check_plan,
    score_retrieval,
)
from sthl.errors import FormatError, NoAssetError, WeightError


class FixedProvider:
    def __init__(self, visual: float, semantic: float):
        self._visual = visual
        self._semantic = semantic

    def visual(self, candidate, query):
        return self._visual

    def semantic(self, candidate, query):
        return self._semantic

    def visual_index(self, candidates):
        return lambda query: [self.visual(c, query) for c in candidates]


class ScriptedProvider:
    """Per-candidate-id scores."""

    def __init__(self, scores: dict[str, float]):
        self.scores = scores

    def visual(self, candidate, query):
        return self.scores[candidate.id]

    def semantic(self, candidate, query):
        return self.scores[candidate.id]

    def visual_index(self, candidates):
        return lambda query: [self.visual(c, query) for c in candidates]


CANDS = [
    AssetCandidate("c1", "models/c1.glb", "thumbs/c1.png", "a wooden chair"),
    AssetCandidate("c2", "models/c2.glb", "thumbs/c2.png", "a steel lamp"),
    AssetCandidate("c3", "models/c3.glb", "thumbs/c3.png", "a velvet armchair"),
]


# ---------------------------------------------------------------------------
# query formulation


def test_object_query_full_fields():
    query = formulate_query(
        AssetEntity("object", "armchair", color="red", material="velvet",
                    features="plush and modern")
    )
    assert query.text == "a 3D model of a red armchair made with velvet that is plush and modern"


def test_object_query_elision():
    query = formulate_query(AssetEntity("object", "lamp"))
    assert query.text == "a 3D model of a lamp"


def test_wall_texture_query():
    query = formulate_query(
        AssetEntity("surfaceTexture", "wall", color="white", material="plaster",
                    features="matte")
    )
    assert query.text == "a white wall made of plaster that is matte"


def test_floor_texture_query():
    query = formulate_query(
        AssetEntity("surfaceTexture", "floor", color="grey", material="concrete")
    )
    assert query.text == "a grey floor made of concrete"


def test_query_injective_up_to_whitespace():
    a = formulate_query(AssetEntity("object", "sofa", color="dark blue"))
    b = formulate_query(AssetEntity("object", "sofa", color="dark", features="blue"))
    assert a.text != b.text or (a.color, a.features) == (b.color, b.features)


# ---------------------------------------------------------------------------
# scoring


def test_unanimous_scores_give_one():
    query = formulate_query(AssetEntity("object", "chair"))
    assert score_retrieval(CANDS[0], query, 7.0, 3.0, FixedProvider(1.0, 1.0)) == 1.0


def test_paper_weights_hand_arithmetic():
    query = formulate_query(AssetEntity("object", "chair"))
    score = score_retrieval(CANDS[0], query, 100.0, 1.0, FixedProvider(0.5, 0.9))
    assert score == pytest.approx((100 * 0.5 + 1 * 0.9) / 101)
    assert score == pytest.approx(0.5039603960396, abs=1e-12)


def test_degenerate_weights():
    query = formulate_query(AssetEntity("object", "chair"))
    assert score_retrieval(CANDS[0], query, 0.0, 1.0, FixedProvider(0.4, 0.9)) == 0.9
    with pytest.raises(WeightError):
        score_retrieval(CANDS[0], query, 0.0, 0.0, FixedProvider(0.4, 0.9))
    with pytest.raises(WeightError):
        score_retrieval(CANDS[0], query, -1.0, 2.0, FixedProvider(0.4, 0.9))


def test_convex_combination_bounds():
    query = formulate_query(AssetEntity("object", "chair"))
    provider = FixedProvider(0.3, 0.8)
    for weights in ((1, 1), (100, 1), (1, 100), (5, 3)):
        score = score_retrieval(CANDS[0], query, *weights, provider)
        assert 0.3 <= score <= 0.8


def test_weight_scale_invariance():
    query = formulate_query(AssetEntity("object", "chair"))
    provider = HashProvider()
    s1 = score_retrieval(CANDS[0], query, 100.0, 1.0, provider)
    s2 = score_retrieval(CANDS[0], query, 200.0, 2.0, provider)
    assert s1 == pytest.approx(s2)


# ---------------------------------------------------------------------------
# decide


def test_above_threshold_retrieves():
    query = formulate_query(AssetEntity("object", "chair"))
    decision = decide(query, CANDS, tau=0.652, provider=ScriptedProvider(
        {"c1": 0.7, "c2": 0.2, "c3": 0.3}))
    assert decision.verdict == "retrieved"
    assert decision.best_candidate.id == "c1"
    assert decision.model.uri == "models/c1.glb"


def test_below_threshold_generates():
    query = formulate_query(AssetEntity("object", "chair"))
    decision = decide(query, CANDS, tau=0.652,
                      provider=ScriptedProvider({"c1": 0.6, "c2": 0.2, "c3": 0.3}),
                      generator=StubGenerator())
    assert decision.verdict == "generated"
    assert decision.model.uri.startswith("generated://")
    assert decision.model.native_extents == (1.0, 1.0, 1.0)


def test_tau_zero_always_retrieves_tau_one_always_generates():
    provider = HashProvider()
    generator = StubGenerator()
    entities = [AssetEntity("object", f"thing {i}") for i in range(20)]
    low = decide_all(entities, CANDS, tau=0.0, provider=provider, generator=generator)
    high = decide_all(entities, CANDS, tau=1.0, provider=provider, generator=generator)
    assert all(d.verdict == "retrieved" for d in low)
    assert all(d.verdict == "generated" for d in high)


def test_verdict_monotone_in_tau():
    provider = HashProvider()
    generator = StubGenerator()
    query = formulate_query(AssetEntity("object", "bookshelf"))
    taus = [0.0, 0.25, 0.5, 0.75, 1.0]
    verdicts = [
        decide(query, CANDS, tau=t, provider=provider, generator=generator).verdict
        for t in taus
    ]
    flipped = "".join("r" if v == "retrieved" else "g" for v in verdicts)
    assert "gr" not in flipped  # once generated, higher tau never retrieves


def test_no_generator_below_threshold_falls_back_flagged():
    query = formulate_query(AssetEntity("object", "chair"))
    decision = decide(query, CANDS, tau=0.99,
                      provider=ScriptedProvider({"c1": 0.6, "c2": 0.2, "c3": 0.3}))
    assert decision.verdict == "retrieved"
    assert decision.below_threshold is True


def test_empty_database_without_generator_errors():
    query = formulate_query(AssetEntity("object", "chair"))
    with pytest.raises(NoAssetError):
        decide(query, [], tau=0.5)


def test_empty_database_with_generator_generates():
    query = formulate_query(AssetEntity("object", "chair"))
    decision = decide(query, [], tau=0.5, generator=StubGenerator())
    assert decision.verdict == "generated"


def test_hash_provider_deterministic():
    query = formulate_query(AssetEntity("object", "chair"))
    p1, p2 = HashProvider(), HashProvider()
    assert p1.visual(CANDS[0], query) == p2.visual(CANDS[0], query)
    assert 0.0 <= p1.visual(CANDS[0], query) <= 1.0
    assert p1.visual(CANDS[0], query) != p1.semantic(CANDS[0], query)


# ---------------------------------------------------------------------------
# orientation plan


def test_plan_axis_order_is_x_z_y():
    plan = orientation_check_plan(AssetHandle("models/a.glb"))
    assert [check.axis for check in plan.checks] == ["x", "z", "y"]
    for check in plan.checks:
        assert [r.angle for r in check.grid.renders] == [0.0, 90.0, 180.0, 270.0]
        assert check.grid.layout == (2, 2)


def test_no_provider_defaults_to_identity():
    plan = orientation_check_plan(AssetHandle("models/a.glb"))
    assert plan.corrective_rotation() == (0.0, 0.0, 0.0)


def test_scripted_provider_corrections_recorded():
    class Scripted:
        def __init__(self):
            self.seen: list[str] = []

        def correction(self, asset, axis, grid):
            self.seen.append(axis)
            return 90.0 if axis == "x" else 0.0

    provider = Scripted()
    plan = orientation_check_plan(AssetHandle("models/a.glb"), provider)
    assert provider.seen == ["x", "z", "y"]
    assert plan.corrective_rotation() == (90.0, 0.0, 0.0)
    assert plan.checks[0].correction == 90.0


# ---------------------------------------------------------------------------
# database index file


def test_database_round_trip(tmp_path):
    db = AssetDatabase(list(CANDS))
    path = tmp_path / "index.tsv"
    db.write(path)
    loaded = AssetDatabase.load(path)
    assert [e.id for e in loaded.entries] == ["c1", "c2", "c3"]
    assert loaded.entries[2].description == "a velvet armchair"


def test_database_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("one\ttwo\tthree\n", encoding="utf-8")
    with pytest.raises(FormatError, match="4 tab-separated"):
        AssetDatabase.load(path)
