"""Full-scoring reference for `sthl.solver.local_search_batch_solve`.

`local_search_batch_solve` below is the greedy repair loop as it was before
a candidate's scoring stopped once the candidate could no longer win: every
candidate evaluates every constraint naming the moved object. The bounded
loop must make the same moves, with the same random draws.
"""

from __future__ import annotations

import random
from typing import Sequence

from sthl.constraints import CompiledConstraint, ConstraintSet, evaluate
from sthl.scene import SceneLayout, SceneObject, Transform
from sthl.solver import MOVES_PER_PROPOSAL, SolverConfig, _candidates, _distance, _movable_ids


def local_search_batch_solve(
    layout: SceneLayout,
    batch: Sequence[CompiledConstraint],
    cs: ConstraintSet,
    cfg: SolverConfig,
    rng: random.Random | None = None,
) -> tuple[SceneLayout, set[str]]:
    """Greedy repair: move one batch object at a time, keeping only moves
    that strictly raise the global satisfied count."""
    rng = rng or random.Random(cfg.rng_seed)
    layout = layout.copy()
    movable = _movable_ids(batch, layout)
    moved: set[str] = set()
    if not movable:
        return layout, moved

    results = cs.verdicts(layout)
    ctx = cs.context(layout)

    for _ in range(MOVES_PER_PROPOSAL):
        if all(results[c.id] for c in batch):
            break
        best_key: tuple[float, float, int, int] | None = None
        best_move: tuple[SceneObject, Transform, dict[int, bool]] | None = None
        for obj_index, name in enumerate(movable):
            obj = layout.object(name)
            original = obj.transform
            affected = cs.touching(name)
            before = sum(results[c.id] for c in affected)
            for cand_index, candidate in enumerate(_candidates(obj, layout, rng)):
                obj.transform = candidate
                outcome = {c.id: evaluate(c, ctx) for c in affected}
                gain = sum(outcome.values()) - before
                if gain > 0:
                    displacement = _distance(original.pos, candidate.pos)
                    key = (-gain, displacement, obj_index, cand_index)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_move = (obj, candidate, outcome)
            obj.transform = original
        if best_move is None:
            break
        obj, transform, outcome = best_move
        obj.transform = transform
        results.update(outcome)
        moved.add(obj.id)
    return layout, moved
