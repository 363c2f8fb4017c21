"""Per-pair reference implementations of the scoring stages.

`object_confidences` and `layout_confidences` are the pair-by-pair loops
the matrix forms in `sthl.metrics` replaced, kept verbatim (with the
name-occurrence test they used); `decide` is the full-scan retrieval loop
that `sthl.assets.decide` prunes, and `sequential_prune` the candidate-by-
candidate prune that its vector of visual scores replaced. The
differential tests hold the library to these.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from sthl.assets import (
    DEFAULT_TAU,
    DEFAULT_SEMANTIC_WEIGHT,
    DEFAULT_VISUAL_WEIGHT,
    AssetCandidate,
    AssetDecision,
    AssetGenerator,
    AssetHandle,
    AssetQuery,
    HashProvider,
    SimilarityProvider,
    score_retrieval,
)
from sthl.errors import NoAssetError
from sthl.metrics import ConfidenceMatrix, Embedder, harmonic_mean, scaled_dot


def object_confidences(
    generated: Sequence[tuple[str, str]],
    ground_truth: Sequence[tuple[str, str]],
    embedder: Embedder,
) -> ConfidenceMatrix:
    gen_names = [embedder.embed(name) for name, _ in generated]
    gen_descs = [embedder.embed(desc) for _, desc in generated]
    gt_names = [embedder.embed(name) for name, _ in ground_truth]
    gt_descs = [embedder.embed(desc) for _, desc in ground_truth]
    entries = np.zeros((len(generated), len(ground_truth)))
    for i in range(len(generated)):
        for j in range(len(ground_truth)):
            entries[i, j] = harmonic_mean(
                scaled_dot(gen_names[i], gt_names[j]),
                scaled_dot(gen_descs[i], gt_descs[j]),
            )
    return ConfidenceMatrix(entries)


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _contains_name(tokens: list[str], name: str) -> bool:
    name_tokens = _tokens(name)
    if not name_tokens:
        return False
    n = len(name_tokens)
    return any(tokens[i : i + n] == name_tokens for i in range(len(tokens) - n + 1))


def layout_confidences(
    generated: Sequence[str],
    ground_truth: Sequence[str],
    object_names: Sequence[str],
    embedder: Embedder,
    tau: float,
) -> ConfidenceMatrix:
    gen_vecs = [embedder.embed(text) for text in generated]
    gt_vecs = [embedder.embed(text) for text in ground_truth]
    gen_tokens = [_tokens(text) for text in generated]
    gt_names = [
        [name for name in object_names if _contains_name(_tokens(text), name)]
        for text in ground_truth
    ]
    entries = np.zeros((len(generated), len(ground_truth)))
    for i in range(len(generated)):
        for j in range(len(ground_truth)):
            if not any(_contains_name(gen_tokens[i], name) for name in gt_names[j]):
                continue
            score = scaled_dot(gen_vecs[i], gt_vecs[j])
            if score >= tau:
                entries[i, j] = score
    return ConfidenceMatrix(entries, thresholded=True)


def decide(
    query: AssetQuery,
    database: Sequence[AssetCandidate],
    tau: float = DEFAULT_TAU,
    weights: tuple[float, float] = (DEFAULT_VISUAL_WEIGHT, DEFAULT_SEMANTIC_WEIGHT),
    provider: SimilarityProvider | None = None,
    generator: AssetGenerator | None = None,
) -> AssetDecision:
    provider = provider or HashProvider()
    best: AssetCandidate | None = None
    best_score = 0.0
    for candidate in database:
        score = score_retrieval(candidate, query, weights[0], weights[1], provider)
        if best is None or score > best_score:
            best = candidate
            best_score = score

    if best is not None and best_score >= tau:
        return AssetDecision(
            query=query,
            best_candidate=best,
            best_score=best_score,
            verdict="retrieved",
            model=AssetHandle(best.model_path, best.native_extents),
        )
    if generator is not None:
        return AssetDecision(
            query=query,
            best_candidate=best,
            best_score=best_score,
            verdict="generated",
            model=generator.generate(query),
        )
    if best is None:
        raise NoAssetError(f"no candidates and no generator for query {query.text!r}")
    return AssetDecision(
        query=query,
        best_candidate=best,
        best_score=best_score,
        verdict="retrieved",
        model=AssetHandle(best.model_path, best.native_extents),
        below_threshold=True,
    )


def sequential_prune(
    query: AssetQuery,
    database: Sequence[AssetCandidate],
    weights: tuple[float, float],
    provider: SimilarityProvider,
) -> list[str]:
    """Ids of the candidates the per-candidate bound prune scores, in order:
    the first always, then each whose `(λv·v + λt)/(λv+λt)`, from its own
    `visual` call, is above the best score so far."""
    visual_weight, semantic_weight = weights
    total = visual_weight + semantic_weight
    scored: list[str] = []
    best_score = 0.0
    for candidate in database:
        if scored:
            bound = (visual_weight * provider.visual(candidate, query) + semantic_weight) / total
            if bound <= best_score:
                continue
        score = score_retrieval(candidate, query, visual_weight, semantic_weight, provider)
        if not scored or score > best_score:
            best_score = score
        scored.append(candidate.id)
    return scored
