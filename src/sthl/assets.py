"""Asset synthesis: query formulation, hybrid retrieve-or-generate scoring,
and canonical-orientation check plans.

Similarity scoring and 3D generation are external systems; they enter
through the SimilarityProvider / AssetGenerator protocols. Deterministic
hash-based doubles are included so the whole stage is testable offline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

from sthl.errors import FormatError, NoAssetError, WeightError, read_text

if TYPE_CHECKING:
    import numpy as np

#: Retrieval-vs-generation threshold used by the stock pipeline.
DEFAULT_TAU = 0.652

#: Stock composite-similarity weights (visual, semantic).
DEFAULT_VISUAL_WEIGHT = 100.0
DEFAULT_SEMANTIC_WEIGHT = 1.0

#: Axis order for orientation checks; matches the rotation application order.
ORIENTATION_AXES = ("x", "z", "y")

ORIENTATION_ANGLES = (0.0, 90.0, 180.0, 270.0)


@dataclass(frozen=True)
class AssetEntity:
    """Source fields an asset query is built from."""

    kind: str  # 'object' | 'surfaceTexture'
    category: str  # object category, or 'floor' / 'wall' for textures
    color: str = ""
    material: str = ""
    features: str = ""


@dataclass(frozen=True)
class AssetQuery:
    text: str
    kind: str
    color: str = ""
    category: str = ""
    material: str = ""
    features: str = ""


@dataclass(frozen=True)
class AssetCandidate:
    id: str
    model_path: str
    thumbnail_path: str
    description: str
    #: Native bounding-box extents when the database provides them.
    native_extents: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class AssetHandle:
    """Opaque reference to a concrete model plus its known geometry."""

    uri: str
    native_extents: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class AssetDecision:
    query: AssetQuery
    best_candidate: AssetCandidate | None
    best_score: float
    verdict: str  # 'retrieved' | 'generated'
    model: AssetHandle
    below_threshold: bool = False


#: Visual scores of one query against every candidate of an index, in order.
VisualScores = Callable[[AssetQuery], Sequence[float]]


class SimilarityProvider(Protocol):
    """Scores must already be normalized into [0, 1].

    `visual` and `semantic` score one pair and are the definitions.
    `visual_index(candidates)` prepares a database once and returns a
    function giving, for a query, exactly
    `[visual(c, query) for c in candidates]`, so that an embedding model
    can score all candidates of a query in one batch.
    """

    def visual(self, candidate: AssetCandidate, query: AssetQuery) -> float: ...

    def semantic(self, candidate: AssetCandidate, query: AssetQuery) -> float: ...

    def visual_index(self, candidates: Sequence[AssetCandidate]) -> VisualScores: ...


class AssetGenerator(Protocol):
    def generate(self, query: AssetQuery) -> AssetHandle: ...


class OrientationProvider(Protocol):
    """Chooses the corrective rotation for one axis from a 2x2 render grid."""

    def correction(self, asset: AssetHandle, axis: str, grid: "RenderGrid") -> float: ...


# ---------------------------------------------------------------------------
# Query formulation


def _squash(text: str) -> str:
    return " ".join(text.split())


def formulate_query(entity: AssetEntity) -> AssetQuery:
    """Build the retrieval query text for an object or surface texture.

    Objects: "a 3D model of a <color> <category> made with <material> that
    is <features>". Textures: "a <color> floor/wall made of <material> that
    is <features>". Empty fields are elided.
    """
    if entity.kind == "surfaceTexture":
        text = f"a {entity.color} {entity.category}"
        if entity.material:
            text += f" made of {entity.material}"
    else:
        text = f"a 3D model of a {entity.color} {entity.category}"
        if entity.material:
            text += f" made with {entity.material}"
    if entity.features:
        text += f" that is {entity.features}"
    return AssetQuery(
        text=_squash(text),
        kind=entity.kind,
        color=entity.color,
        category=entity.category,
        material=entity.material,
        features=entity.features,
    )


# ---------------------------------------------------------------------------
# Scoring and the retrieve-or-generate decision


def score_retrieval(
    candidate: AssetCandidate,
    query: AssetQuery,
    visual_weight: float,
    semantic_weight: float,
    provider: SimilarityProvider,
) -> float:
    """Weighted mean of visual and semantic similarity, in [0, 1]."""
    total = visual_weight + semantic_weight
    if not math.isfinite(total):
        raise WeightError("similarity weights and their sum must be finite")
    if visual_weight < 0 or semantic_weight < 0:
        raise WeightError("similarity weights must be non-negative")
    if total == 0:
        raise WeightError("at least one similarity weight must be positive")
    visual = provider.visual(candidate, query)
    semantic = provider.semantic(candidate, query)
    return (visual_weight * visual + semantic_weight * semantic) / total


def decide(
    query: AssetQuery,
    database: Sequence[AssetCandidate],
    tau: float = DEFAULT_TAU,
    weights: tuple[float, float] = (DEFAULT_VISUAL_WEIGHT, DEFAULT_SEMANTIC_WEIGHT),
    provider: SimilarityProvider | None = None,
    generator: AssetGenerator | None = None,
) -> AssetDecision:
    """Retrieve the best-scoring candidate, or generate when it scores
    below tau.

    Without a generator, a below-threshold best candidate is still returned
    (flagged `below_threshold`) so pipelines stay total. An empty database
    with no generator raises NoAssetError. Candidates that cannot win are
    skipped (see `_decide`), so the decision is the one a full scan makes.
    """
    provider = provider or HashProvider()
    return _decide(
        query, database, provider.visual_index(database), tau, weights, provider, generator
    )


def _decide(
    query: AssetQuery,
    database: Sequence[AssetCandidate],
    visual_scores: VisualScores,
    tau: float,
    weights: tuple[float, float],
    provider: SimilarityProvider,
    generator: AssetGenerator | None,
) -> AssetDecision:
    """`decide` over a database already indexed as `visual_scores`.

    Semantic scores lie in [0, 1] (the provider contract), so a candidate
    whose score with a perfect semantic match, `(λv·v + λt)/(λv+λt)`, is
    not above the best so far cannot win; it is skipped without a semantic
    call. Every rounding step is monotone, so that bound is never below
    the candidate's score and the decision is the one a full scan makes.
    The first candidate is always scored, which validates the weights (a
    finite sum keeps every bound finite). The bounds come from one vector
    of visual scores; the candidates still in the running are those whose
    bound is above the best score, refiltered each time the best improves,
    so exactly the candidates a sequential scan would score are scored.
    """
    visual_weight, semantic_weight = weights
    best: AssetCandidate | None = None
    best_score = 0.0
    if database:
        # Imported here, so that a run with an empty database (`sthl
        # pipeline` without `--db`) never loads numpy.
        import numpy as np

        best = database[0]
        best_score = score_retrieval(best, query, visual_weight, semantic_weight, provider)
        visual = np.asarray(visual_scores(query), dtype=np.float64)
        bounds = (float(visual_weight) * visual + float(semantic_weight)) / float(
            visual_weight + semantic_weight
        )
        ahead = np.flatnonzero(bounds[1:] > best_score) + 1
        while ahead.size:
            candidate = database[int(ahead[0])]
            score = score_retrieval(candidate, query, visual_weight, semantic_weight, provider)
            ahead = ahead[1:]
            if score > best_score:
                best = candidate
                best_score = score
                ahead = ahead[bounds[ahead] > best_score]

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


# ---------------------------------------------------------------------------
# Canonical-orientation check plan


@dataclass(frozen=True)
class RenderRequest:
    axis: str
    angle: float


@dataclass(frozen=True)
class RenderGrid:
    """A 2x2 grid of renders of the asset at 0/90/180/270 about one axis."""

    axis: str
    renders: tuple[RenderRequest, RenderRequest, RenderRequest, RenderRequest]
    layout: tuple[int, int] = (2, 2)


@dataclass(frozen=True)
class AxisCheck:
    axis: str
    grid: RenderGrid
    correction: float


@dataclass(frozen=True)
class OrientationPlan:
    asset: AssetHandle
    checks: tuple[AxisCheck, ...]

    def corrective_rotation(self) -> tuple[float, float, float]:
        """Corrections in application order (x, z, y)."""
        by_axis = {check.axis: check.correction for check in self.checks}
        return (by_axis.get("x", 0.0), by_axis.get("z", 0.0), by_axis.get("y", 0.0))


def orientation_check_plan(
    asset: AssetHandle, provider: OrientationProvider | None = None
) -> OrientationPlan:
    """Plan the upright/front-facing check: for each axis in x, z, y order,
    render four quarter turns into a 2x2 grid and record the corrective
    rotation. With no provider the correction defaults to identity."""
    checks = []
    for axis in ORIENTATION_AXES:
        grid = RenderGrid(
            axis=axis,
            renders=tuple(RenderRequest(axis, angle) for angle in ORIENTATION_ANGLES),  # type: ignore[arg-type]
        )
        correction = provider.correction(asset, axis, grid) if provider else 0.0
        checks.append(AxisCheck(axis=axis, grid=grid, correction=correction))
    return OrientationPlan(asset=asset, checks=tuple(checks))


# ---------------------------------------------------------------------------
# Asset database (tab-separated index file)


@dataclass
class AssetDatabase:
    entries: list[AssetCandidate] = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "AssetDatabase":
        """Read an index file: one record per line,
        `id<TAB>model_path<TAB>thumbnail_path<TAB>description`."""
        entries = []
        text = read_text(path)
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise FormatError(
                    f"{path}:{lineno}: expected 4 tab-separated fields, found {len(parts)}"
                )
            entries.append(AssetCandidate(parts[0], parts[1], parts[2], parts[3]))
        return cls(entries)

    def write(self, path: str | Path) -> None:
        lines = [
            "\t".join((e.id, e.model_path, e.thumbnail_path, e.description))
            for e in self.entries
        ]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# ---------------------------------------------------------------------------
# Deterministic test doubles


def _unit_hash(*parts: str) -> float:
    """Stable pseudo-score in [0, 1] from text (sha256, not `hash()`)."""
    import hashlib

    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class HashProvider:
    """Deterministic stand-in for embedding-based similarity models."""

    salt: str = ""

    def visual(self, candidate: AssetCandidate, query: AssetQuery) -> float:
        return _unit_hash("visual", self.salt, candidate.id, candidate.description, query.text)

    def semantic(self, candidate: AssetCandidate, query: AssetQuery) -> float:
        return _unit_hash("semantic", self.salt, candidate.id, candidate.description, query.text)

    def visual_index(self, candidates: Sequence[AssetCandidate]) -> VisualScores:
        """Hash each candidate's part of the `visual` text once. The text
        ends with the query, and UTF-8 encodes a concatenation as the
        concatenation of the encodings, so finishing a copy of that state
        with the query's bytes gives the digest `visual` takes. An empty
        database hashes nothing, so it leaves OpenSSL's `hashlib` unloaded."""
        prefixes = []
        if candidates:
            import hashlib

            prefixes = [
                hashlib.sha256(
                    "\x1f".join(("visual", self.salt, c.id, c.description, "")).encode("utf-8")
                )
                for c in candidates
            ]

        def scores(query: AssetQuery) -> np.ndarray:
            import numpy as np

            tail = query.text.encode("utf-8")
            states = [prefix.copy() for prefix in prefixes]
            for state in states:
                state.update(tail)
            digests = b"".join([state.digest() for state in states])
            # Four big-endian words per 32-byte digest; `visual` reads the first.
            return np.frombuffer(digests, dtype=">u8")[::4] / float(1 << 64)

        return scores


@dataclass(frozen=True)
class StubGenerator:
    """Produces placeholder unit-cube handles for generated assets."""

    def generate(self, query: AssetQuery) -> AssetHandle:
        slug = "-".join(query.text.lower().split()) or "asset"
        return AssetHandle(uri=f"generated://{slug}", native_extents=(1.0, 1.0, 1.0))


def decide_all(
    entities: Iterable[AssetEntity],
    database: Sequence[AssetCandidate],
    tau: float = DEFAULT_TAU,
    weights: tuple[float, float] = (DEFAULT_VISUAL_WEIGHT, DEFAULT_SEMANTIC_WEIGHT),
    provider: SimilarityProvider | None = None,
    generator: AssetGenerator | None = None,
) -> list[AssetDecision]:
    """Decide every entity independently (decisions are order-preserving),
    indexing the database once for all of them."""
    provider = provider or HashProvider()
    visual_scores = provider.visual_index(database)
    return [
        _decide(
            formulate_query(entity), database, visual_scores, tau, weights, provider, generator
        )
        for entity in entities
    ]
