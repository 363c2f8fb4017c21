"""Evaluation metrics: resemblance F1 over bipartite matching, and layout
solution correctness.

Object resemblance builds a confidence matrix from harmonic means of
scaled name/description similarities, thresholds it, and extracts a
one-to-one mapping with the Hungarian algorithm. Layout resemblance uses a
thresholded many-to-many confidence matrix with an object-name occurrence
filter. Counting conventions are asymmetric on purpose: object TP counts
the generated side, layout TP counts the ground-truth side.
"""

from __future__ import annotations

import itertools
import math
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from sthl import constraints as constraints_mod
from sthl.dsl import parse, typecheck
from sthl.dsl.typecheck import TypedProgram
from sthl.errors import DimensionError, FormatError, read_text
from sthl.scene import SceneLayout


class Embedder(Protocol):
    """Maps text to a unit-norm vector; all vectors must share one length."""

    def embed(self, text: str) -> np.ndarray: ...


@dataclass(frozen=True)
class MatchScores:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "MatchScores":
        """Two empty sets match perfectly: nothing to match, nothing missed."""
        if tp == fp == fn == 0:
            return cls(1.0, 1.0, 1.0, 0, 0, 0)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return cls(precision, recall, f1, tp, fp, fn)


@dataclass
class ConfidenceMatrix:
    """Rows are generated items, columns ground-truth items."""

    entries: np.ndarray
    thresholded: bool = False

    def apply_threshold(self, tau: float) -> "ConfidenceMatrix":
        zeroed = np.where(self.entries < tau, 0.0, self.entries)
        return ConfidenceMatrix(zeroed, thresholded=True)


def harmonic_mean(a: float, b: float) -> float:
    if a <= 0 or b <= 0:
        return 0.0
    lo, hi = min(a, b), max(a, b)
    # 2*lo scaled by a factor of at most 1, so h <= 2*min(a, b) holds after
    # rounding too (2*a*b/(a+b) breaks it when a or b is subnormal).
    return 2 * lo * (hi / (lo + hi))


def scaled_dot(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of unit vectors mapped linearly from [-1, 1] to [0, 1]."""
    if u.shape != v.shape:
        raise DimensionError(f"embedding lengths differ: {u.shape} vs {v.shape}")
    return float(np.clip((float(u @ v) + 1.0) / 2.0, 0.0, 1.0))


def _harmonic_means(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`harmonic_mean` of two equal-shape arrays, entry by entry."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at lo = hi = 0, dropped below
        means = 2 * lo * (hi / (lo + hi))
    return np.where(lo > 0, means, 0.0)


# A matrix product sums in another order than a vector dot product, so its
# entries may differ from `scaled_dot` by a few ulps; entries this close to 0
# or to a threshold are recomputed pair by pair so that both decide alike.
_PAIRWISE_MARGIN = 1e-9


def _scaled_dots(
    rows: Sequence[np.ndarray], cols: Sequence[np.ndarray], tau: float | None = None
) -> np.ndarray:
    """`scaled_dot` of every row vector against every column vector, from
    one matrix product; exactly `scaled_dot` where an entry is near 0 or tau."""
    if not rows or not cols:
        return np.zeros((len(rows), len(cols)))
    shapes = {v.shape for v in rows} | {v.shape for v in cols}
    if len(shapes) > 1:
        raise DimensionError(f"embedding lengths differ: {sorted(shapes)}")
    scores = np.clip((np.stack(rows) @ np.stack(cols).T + 1.0) / 2.0, 0.0, 1.0)
    near = scores <= _PAIRWISE_MARGIN
    if tau is not None:
        near |= np.abs(scores - tau) <= _PAIRWISE_MARGIN
    for i, j in zip(*np.nonzero(near)):
        scores[i, j] = scaled_dot(rows[i], cols[j])
    return scores


def _embed_each_once(embedder: Embedder, *sides: Sequence[str]) -> list[list[np.ndarray]]:
    """Each side's text embeddings, embedding every distinct text once
    (embeddings are deterministic, so a repeat would give the same vector)."""
    vectors = {text: embedder.embed(text) for text in dict.fromkeys(itertools.chain(*sides))}
    return [[vectors[text] for text in side] for side in sides]


# ---------------------------------------------------------------------------
# Hungarian assignment


def hungarian_assign(matrix: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total one-to-one assignment on a nonnegative matrix, as
    `(row, column)` pairs in row order.

    Zero entries are unassignable: pairs whose confidence is 0 never appear
    in the result.

    The kernel is the shortest-augmenting-path method of Kuhn (1955) and
    Munkres (1957) in the form Crouse gives ("On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016), the one scipy's
    `linear_sum_assignment` runs, and it returns scipy's pairs: a tall
    matrix is transposed to wide, entries are negated to minimise, and
    reduced costs are computed with the same float operations in the same
    order. Which optimal assignment is returned follows from the tie
    rule: each step of a path search takes the remaining column of least
    reduced cost, and at equal reduced cost an unassigned column wins over
    an assigned one, then the first in scan order. The scan starts at the
    last column, and a taken column's place in it goes to the scan's last
    column.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return []
    if not np.isfinite(matrix).all():
        raise ValueError("assignment matrix entries must be finite")
    pairs = _min_cost_assignment((-matrix).tolist())
    return [(r, c) for r, c in pairs if matrix[r, c] > 0.0]


def _min_cost_assignment(cost: list[list[float]]) -> list[tuple[int, int]]:
    """Minimum-total assignment of every row (or of every column, when
    there are more rows than columns) on a finite cost matrix."""
    transpose = len(cost[0]) < len(cost)
    if transpose:
        cost = [list(col) for col in zip(*cost)]
    nr, nc = len(cost), len(cost[0])
    inf = math.inf
    u = [0.0] * nr  # row potentials
    v = [0.0] * nc  # column potentials
    path = [-1] * nc  # row from which each column was reached
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Dijkstra over reduced costs from `cur_row` to the nearest
        # unassigned column. Columns are filled in reverse, so a constant
        # matrix gives the identity assignment.
        remaining = list(range(nc - 1, -1, -1))
        shortest = [inf] * nc
        visited_rows: list[int] = []
        visited_cols: list[int] = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            visited_rows.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                else:
                    r = shortest[j]
                # Of columns that share the least cost, an unassigned one
                # wins: it ends the path.
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # Update the potentials, then flip the path.
        u[cur_row] += min_val
        for i in visited_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        return sorted((r, c) for c, r in enumerate(col4row))
    return list(enumerate(col4row))


# ---------------------------------------------------------------------------
# Object resemblance


def object_confidences(
    generated: Sequence[tuple[str, str]],
    ground_truth: Sequence[tuple[str, str]],
    embedder: Embedder,
) -> ConfidenceMatrix:
    """Confidence matrix over (name, description) pairs.

    Each entry is the harmonic mean of the scaled name dot-product and the
    scaled description dot-product.
    """
    gen_names, gen_descs, gt_names, gt_descs = _embed_each_once(
        embedder,
        [name for name, _ in generated],
        [desc for _, desc in generated],
        [name for name, _ in ground_truth],
        [desc for _, desc in ground_truth],
    )
    return ConfidenceMatrix(
        _harmonic_means(_scaled_dots(gen_names, gt_names), _scaled_dots(gen_descs, gt_descs))
    )


def object_resemblance(
    generated: Sequence[tuple[str, str]],
    ground_truth: Sequence[tuple[str, str]],
    embedder: Embedder,
    tau: float,
) -> MatchScores:
    """Match generated objects one-to-one against ground truth.

    TP counts generated objects mapped to exactly one ground-truth object;
    FP counts unmapped generated objects; FN counts unmapped ground truth.
    """
    matrix = object_confidences(generated, ground_truth, embedder).apply_threshold(tau)
    assignment = hungarian_assign(matrix.entries)
    tp = len(assignment)
    fp = len(generated) - tp
    fn = len(ground_truth) - tp
    return MatchScores.from_counts(tp, fp, fn)


# ---------------------------------------------------------------------------
# Layout resemblance


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _mentions(texts: Sequence[str], names: Sequence[str]) -> np.ndarray:
    """Boolean text x name matrix: whether the name's tokens occur as a
    whole-token run, case-insensitively, in the text."""
    name_tokens = [tuple(_tokens(name)) for name in names]
    lengths = {len(tokens) for tokens in name_tokens if tokens}
    out = np.zeros((len(texts), len(names)), dtype=bool)
    for i, text in enumerate(texts):
        tokens = _tokens(text)
        runs = {tuple(tokens[k : k + n]) for n in lengths for k in range(len(tokens) - n + 1)}
        out[i] = [bool(name) and name in runs for name in name_tokens]
    return out


def layout_confidences(
    generated: Sequence[str],
    ground_truth: Sequence[str],
    object_names: Sequence[str],
    embedder: Embedder,
    tau: float,
) -> ConfidenceMatrix:
    """Thresholded many-to-many confidence matrix over constraint texts.

    An entry is zeroed when no object name mentioned by the ground-truth
    constraint occurs (whole-token, case-insensitive) in the generated
    constraint, or when the scaled dot-product falls below tau.
    """
    gen_vecs, gt_vecs = _embed_each_once(embedder, generated, ground_truth)
    gen_mentions = _mentions(generated, object_names).astype(float)
    gt_mentions = _mentions(ground_truth, object_names).astype(float)
    shared_name = gen_mentions @ gt_mentions.T > 0
    scores = _scaled_dots(gen_vecs, gt_vecs, tau)
    entries = np.where(shared_name & (scores >= tau), scores, 0.0)
    return ConfidenceMatrix(entries, thresholded=True)


def layout_resemblance(
    generated: Sequence[str],
    ground_truth: Sequence[str],
    object_names: Sequence[str],
    embedder: Embedder,
    tau: float,
) -> MatchScores:
    """Score generated layout-constraint texts against ground truth.

    TP counts ground-truth constraints mapped to at least one generated
    constraint; FP counts unmapped generated; FN counts unmapped ground
    truth.
    """
    matrix = layout_confidences(generated, ground_truth, object_names, embedder, tau)
    mapped_gt = (matrix.entries > 0).any(axis=0)
    mapped_gen = (matrix.entries > 0).any(axis=1)
    tp = int(mapped_gt.sum())
    fp = int((~mapped_gen).sum()) if len(generated) else 0
    fn = int((~mapped_gt).sum()) if len(ground_truth) else 0
    return MatchScores.from_counts(tp, fp, fn)


def overall_resemblance(obj: MatchScores, layout: MatchScores) -> MatchScores:
    """Pairwise harmonic means of the object and layout scores."""
    return MatchScores(
        precision=harmonic_mean(obj.precision, layout.precision),
        recall=harmonic_mean(obj.recall, layout.recall),
        f1=harmonic_mean(obj.f1, layout.f1),
        tp=obj.tp + layout.tp,
        fp=obj.fp + layout.fp,
        fn=obj.fn + layout.fn,
    )


# ---------------------------------------------------------------------------
# Solution correctness


def solution_correctness(
    program: str | TypedProgram, layout: SceneLayout, seed: int = 0
) -> float:
    """Satisfied-over-total constraint ratio of a layout (the recall-style
    correctness score). Accepts program source text or a checked program."""
    typed = typecheck(parse(program)) if isinstance(program, str) else program
    cs = constraints_mod.compile_constraints(typed, seed=seed)
    ctx = cs.context(layout, rng_seed=seed)
    return constraints_mod.satisfaction_ratio(cs, ctx)


# ---------------------------------------------------------------------------
# Embedding providers


@dataclass(frozen=True)
class TrigramEmbedder:
    """Deterministic character-trigram embedding (unit-norm, fixed dims).

    A stand-in for sentence embedding models so metrics run offline;
    hashing uses crc32, never the salted builtin `hash`.
    """

    dims: int = 256

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dims)
        for token in _tokens(text):
            padded = f"#{token}#"
            for i in range(len(padded) - 2):
                trigram = padded[i : i + 3]
                vec[zlib.crc32(trigram.encode("utf-8")) % self.dims] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm == 0:
            vec[0] = 1.0
            return vec
        return vec / norm


@dataclass
class TsvEmbedder:
    """Embeddings read from a `text<TAB>v1,v2,...` file; a text the file
    lacks gets its `TrigramEmbedder` embedding."""

    vectors: dict[str, np.ndarray]

    @classmethod
    def load(cls, path: str | Path) -> "TsvEmbedder":
        vectors: dict[str, np.ndarray] = {}
        expected_dim: int | None = None
        for lineno, line in enumerate(read_text(path).splitlines(), 1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected `text<TAB>v1,v2,...`")
            try:
                components = [float(x) for x in parts[1].split(",")]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad vector component: {exc}") from None
            if not all(map(math.isfinite, components)):
                raise FormatError(f"{path}:{lineno}: vector components must be finite")
            vec = np.array(components)
            if expected_dim is None:
                expected_dim = vec.size
            elif vec.size != expected_dim:
                raise DimensionError(
                    f"{path}:{lineno}: vector length {vec.size} != {expected_dim}"
                )
            norm = float(np.linalg.norm(vec))
            vectors[parts[0]] = vec / norm if norm > 0 else vec
        return cls(vectors)

    def embed(self, text: str) -> np.ndarray:
        if text in self.vectors:
            return self.vectors[text]
        return TrigramEmbedder().embed(text)
