"""Full-count reference for `sthl.solver.initial_placement`.

`initial_placement` below is the greedy placement loop as it was before a
candidate's violation count stopped at the best count so far: every
scored candidate evaluates every relevant constraint. The bounded loop
must pick the same winner for every object, with the same random draws.
"""

from __future__ import annotations

import random
from typing import Sequence

from sthl import scene
from sthl.constraints import ConstraintSet, evaluate
from sthl.errors import PlacementError
from sthl.scene import Region, SceneLayout, SceneObject, Transform
from sthl.solver import CANDIDATE_SAMPLES, ROTATION_STEPS, SolverConfig, _rotated_extents


def initial_placement(
    objects: Sequence[SceneObject],
    regions: Sequence[Region],
    cs: ConstraintSet,
    cfg: SolverConfig,
    rng: random.Random | None = None,
) -> SceneLayout:
    """Greedy seeded baseline layout.

    Objects are placed largest footprint first so bulky furniture claims
    space early. For each object, `CANDIDATE_SAMPLES` floor positions are
    drawn inside its region (rotation drawn from `ROTATION_STEPS`) and the
    one violating the fewest constraints among already-placed objects wins.
    Objects carrying an explicit position from the program keep it.
    """
    rng = rng or random.Random(cfg.rng_seed)
    layout = SceneLayout(regions=list(regions), objects=[])
    order = sorted(
        range(len(objects)),
        key=lambda i: (-objects[i].extents()[0] * objects[i].extents()[2], i),
    )
    placed: dict[int, SceneObject] = {}
    # Names a constraint may involve and still be scored for the object
    # being placed: regions, variables and the objects already in the
    # layout.
    known = {r.id for r in layout.regions} | cs.bindings.keys()

    for index in order:
        obj = objects[index].copy()
        region = layout.region(obj.region)
        if obj.preplaced:
            layout.objects.append(obj)
            known.add(obj.id)
            placed[index] = obj
            continue
        min_x, min_z, max_x, max_z = region.bounds()
        ex, ey, ez = obj.extents()
        fits_unrotated = ex <= max_x - min_x and ez <= max_z - min_z
        fits_rotated = ez <= max_x - min_x and ex <= max_z - min_z
        if not fits_unrotated and not fits_rotated:
            raise PlacementError(
                f"object {obj.id!r} footprint {ex:.3f}x{ez:.3f} exceeds region "
                f"{region.id!r} bounding box"
            )

        relevant = [
            c
            for c in cs.touching(obj.id)
            if all(name == obj.id or name in known for name in c.involved)
        ]
        best: tuple[int, int] | None = None  # (violations, candidate index)
        best_transform: Transform | None = None
        layout.objects.append(obj)
        known.add(obj.id)
        for attempt in range(CANDIDATE_SAMPLES):
            ry = rng.choice(ROTATION_STEPS)
            rex, rey, rez = _rotated_extents(obj, ry)
            if rex > max_x - min_x or rez > max_z - min_z:
                continue
            x = rng.uniform(min_x + rex / 2.0, max_x - rex / 2.0)
            z = rng.uniform(min_z + rez / 2.0, max_z - rez / 2.0)
            candidate = Transform(
                pos=(x, region.floor_y + rey / 2.0, z),
                rot=(0.0, 0.0, ry),
                scale=obj.transform.scale,
            )
            obj.transform = candidate
            if not scene.inside(obj, region):
                continue
            ctx = cs.context(layout)
            violations = sum(1 for c in relevant if not evaluate(c, ctx))
            if best is None or violations < best[0]:
                best = (violations, attempt)
                best_transform = candidate
                if violations == 0:
                    break
        if best_transform is None:
            # No sample landed fully inside (e.g. concave rooms); fall back
            # to the bounding-box center and let the solve loop repair it.
            rex, rey, rez = _rotated_extents(obj, 0.0)
            best_transform = Transform(
                pos=((min_x + max_x) / 2.0, region.floor_y + rey / 2.0, (min_z + max_z) / 2.0),
                rot=(0.0, 0.0, 0.0),
                scale=obj.transform.scale,
            )
        obj.transform = best_transform
        placed[index] = obj

    # Restore declaration order; placement order was size-driven only.
    layout.objects = [placed[i] for i in range(len(objects))]
    return layout
