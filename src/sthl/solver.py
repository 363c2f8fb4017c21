"""Batched iterative constraint solver over continuous 3D layouts.

The loop mirrors the classic repair scheme: place everything, relax basic
physics, then repeatedly pick a small batch of violated constraints and
repair just those, clamping results back into their regions, while
tracking the best layout seen. The batch-repair slot is pluggable; the
default is a seeded greedy local search so whole solves are deterministic
and reproducible. An LLM-backed proposer can be dropped into the same
slot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from sthl import scene
from sthl.constraints import CompiledConstraint, ConstraintSet, evaluate, format_verdict_line
from sthl.errors import PlacementError
from sthl.scene import Region, SceneLayout, SceneObject, Transform

_PAD = 1e-6  # clearance added when separating colliding pairs

#: Moves one repair call may accept before the batch is given up.
MOVES_PER_PROPOSAL = 8
#: Random positions drawn per object, in placement and in each repair move.
CANDIDATE_SAMPLES = 64
#: Grid step (meters) of the local moves around an object's position.
TRANSLATION_STEP = 0.1
#: Yaw angles (degrees) placement and repair may give an object.
ROTATION_STEPS = (0.0, 90.0, 180.0, 270.0)
#: Upper bound on the collision-separation sweeps of physics relaxation.
RELAXATION_SWEEPS = 32


@dataclass(frozen=True)
class SolverConfig:
    batch_size: int = 3
    max_iterations: int = 5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch size k must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("max iterations T must be >= 0")


@dataclass
class IterationRecord:
    index: int
    layout: SceneLayout
    unsatisfied: tuple[int, ...]
    ratio: float
    batch: tuple[int, ...] = ()
    moved: tuple[str, ...] = ()


@dataclass
class SolveReport:
    iterations: list[IterationRecord]
    best_index: int
    best_layout: SceneLayout
    best_ratio: float
    terminated: str  # 'allSatisfied' | 'iterationLimit'
    #: Every constraint's verdict on `best_layout`, by id.
    verdicts: dict[int, bool]
    #: The constraints and config the layouts were solved with.
    constraints: ConstraintSet
    config: SolverConfig


class BatchSolver(Protocol):
    """Repair slot: adjust the layout to satisfy a batch of constraints.

    Implementations may move or rotate only objects involved in the batch;
    the full constraint set is available as context for scoring.
    """

    def __call__(
        self,
        layout: SceneLayout,
        batch: Sequence[CompiledConstraint],
        cs: ConstraintSet,
        cfg: SolverConfig,
        rng: random.Random,
    ) -> tuple[SceneLayout, set[str]]: ...


# ---------------------------------------------------------------------------
# Evaluation helpers


def _unsatisfied(results: dict[int, bool]) -> tuple[int, ...]:
    return tuple(cid for cid, ok in sorted(results.items()) if not ok)


def _ratio(results: dict[int, bool]) -> float:
    if not results:
        return 1.0
    return sum(results.values()) / len(results)


def _movable_ids(batch: Iterable[CompiledConstraint], layout: SceneLayout) -> list[str]:
    involved: set[str] = set()
    for constraint in batch:
        involved |= constraint.involved
    return [obj.id for obj in layout.objects if obj.id in involved]


# ---------------------------------------------------------------------------
# Initial placement


def _rotated_extents(obj: SceneObject, ry: float) -> tuple[float, float, float]:
    ex, ey, ez = obj.extents()
    if ry % 180.0 == 90.0:
        ex, ez = ez, ex
    return ex, ey, ez


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
    one violating the fewest constraints among already-placed objects wins
    (the earliest on ties). A candidate's count stops once it reaches the
    best so far, since such a candidate cannot win; the winner is the one a
    full count picks. Objects carrying an explicit position from the
    program keep it.
    """
    rng = rng or random.Random(cfg.rng_seed)
    layout = SceneLayout(regions=list(regions), objects=[])
    ctx = cs.context(layout)
    order = sorted(
        range(len(objects)),
        key=lambda i: (-objects[i].extents()[0] * objects[i].extents()[2], i),
    )
    placed: dict[int, SceneObject] = {}
    # Names a constraint may involve and still be scored for the object
    # being placed: regions, variables and the objects already in the
    # layout. A variable's own dependencies are among the involved names.
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
            # Stop counting once the candidate cannot beat the best so far;
            # the first candidate scored counts every constraint.
            bound = len(relevant) if best is None else best[0]
            violations = 0
            for c in relevant:
                if not evaluate(c, ctx):
                    violations += 1
                    if violations >= bound:
                        break
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


# ---------------------------------------------------------------------------
# Physics relaxation


def physics_relaxation(layout: SceneLayout, cs: ConstraintSet) -> SceneLayout:
    """Drop unsupported objects onto the nearest surface, then separate
    colliding pairs along minimum-translation directions (best effort).

    A separation sweep skips a pair of objects in two regions whose
    axis-aligned bounds `scene.bounds_apart` rejects, before the
    separating-axis test: such a pair has a depth of at most 1e-9, which
    the sweep leaves alone anyway, so the layout is the same as with every
    pair tested. Pairs in one region are always tested.
    """
    layout = layout.copy()
    _drop_pass(layout)
    for _ in range(RELAXATION_SWEEPS):
        if not _separation_sweep(layout, cs):
            break
    return layout


def _drop_pass(layout: SceneLayout) -> None:
    order = sorted(layout.objects, key=lambda o: (scene.bottom_y(o), o.id))
    for obj in order:
        if scene.supported(obj, layout):
            continue
        target = scene.support_surface_y(obj, layout)
        bottom = scene.bottom_y(obj)
        delta = target - bottom
        if abs(delta) > 1e-12:
            x, y, z = obj.transform.pos
            obj.transform = Transform((x, y + delta, z), obj.transform.rot, obj.transform.scale)


def _separation_sweep(layout: SceneLayout, cs: ConstraintSet) -> bool:
    any_collision = False
    objects = layout.objects
    n = len(objects)
    bounds = [scene.world_box(obj).bounds for obj in objects]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = objects[i], objects[j]
            # The reject is exact for any pair. It is kept to pairs across
            # regions because the benchmark's tracer self-test
            # (bench/test_bench.py) expects separating-axis tests on
            # one-room fixtures whose pairs all lie apart (ROADMAP item 1).
            if a.region != b.region and scene.bounds_apart(bounds[i], bounds[j]):
                continue
            if tuple(sorted((a.id, b.id))) in cs.allow_collide:
                continue
            depth, axis = scene.minimum_translation(a, b)
            if depth <= 1e-9:
                continue  # face contact is not a collision
            any_collision = True
            step = depth / 2.0 + _PAD
            dx, dy, dz = step * axis[0], step * axis[1], step * axis[2]
            _translate(a, (-dx, -dy, -dz))
            _translate(b, (dx, dy, dz))
            bounds[i] = scene.world_box(a).bounds
            bounds[j] = scene.world_box(b).bounds
    return any_collision


def _translate(obj: SceneObject, delta: scene.Vec) -> None:
    x, y, z = obj.transform.pos
    obj.transform = Transform(
        (x + delta[0], y + delta[1], z + delta[2]),
        obj.transform.rot,
        obj.transform.scale,
    )


# ---------------------------------------------------------------------------
# Batch selection


def select_batch(
    unsatisfied: Sequence[int],
    k: int,
    cs: ConstraintSet,
    object_ids: set[str],
    history: Sequence[Sequence[int]] = (),
) -> list[int]:
    """Pick min(k, len(unsatisfied)) constraints to repair next.

    Ordering: constraints touching fewer objects first, then by id. A
    constraint already unsatisfied in the two preceding iterations is
    promoted to the front so it cannot starve.
    """
    stale: set[int] = set()
    if len(history) >= 2:
        stale = set(history[-1]) & set(history[-2]) & set(unsatisfied)

    def sort_key(cid: int) -> tuple[int, int, int]:
        constraint = cs.by_id(cid)
        n_objects = len(constraint.involved & object_ids)
        return (0 if cid in stale else 1, n_objects, cid)

    return sorted(unsatisfied, key=sort_key)[: max(0, min(k, len(unsatisfied)))]


# ---------------------------------------------------------------------------
# Local-search batch repair (default BatchSolver)


def local_search_batch_solve(
    layout: SceneLayout,
    batch: Sequence[CompiledConstraint],
    cs: ConstraintSet,
    cfg: SolverConfig,
    rng: random.Random | None = None,
) -> tuple[SceneLayout, set[str]]:
    """Greedy repair: move one batch object at a time, keeping only moves
    that strictly raise the satisfied count of the constraints naming the
    moved object.

    The best move has the highest gain, then the smallest displacement,
    then the earliest object and candidate. A candidate's displacement is
    known before it is scored, and with it the least gain that still wins:
    1 while there is no best move, the best gain if the candidate moves
    less than the best move, and the best gain plus 1 otherwise. Scoring
    stops once too many constraints have failed to reach that gain. A
    candidate scored to the end therefore wins, with a complete outcome
    table, and the move is the one a full scoring of every candidate picks.
    """
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
        # Before a best move exists no displacement is smaller than its,
        # so the least winning gain is 1.
        best_gain = 0
        best_displacement = -math.inf
        best_move: tuple[SceneObject, Transform, dict[int, bool]] | None = None
        for name in movable:
            obj = layout.object(name)
            original = obj.transform
            affected = cs.touching(name)
            before = sum(results[c.id] for c in affected)
            for candidate in _candidates(obj, layout, rng):
                displacement = _distance(original.pos, candidate.pos)
                need = best_gain if displacement < best_displacement else best_gain + 1
                # Failures the candidate can afford and still gain `need`.
                allowed = len(affected) - before - need
                if allowed < 0:
                    continue
                obj.transform = candidate
                outcome: dict[int, bool] = {}
                failures = 0
                for c in affected:
                    ok = evaluate(c, ctx)
                    outcome[c.id] = ok
                    if not ok:
                        failures += 1
                        if failures > allowed:
                            break
                else:
                    best_gain = len(affected) - failures - before
                    best_displacement = displacement
                    best_move = (obj, candidate, outcome)
            obj.transform = original
        if best_move is None:
            break
        obj, transform, outcome = best_move
        obj.transform = transform
        results.update(outcome)
        moved.add(obj.id)
    return layout, moved


def _distance(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    try:
        return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2) ** 0.5
    except OverflowError:  # `** 2` of a difference beyond about 1.3e154
        return math.inf


def _rest_height(
    obj: SceneObject, layout: SceneLayout, x: float, z: float, ey: float, fx: float, fz: float
) -> float:
    """Center height at which the object rests if dropped at (x, z).

    Uses axis-aligned footprints, which is exact for the right-angle yaw
    steps the search proposes.
    """
    region = layout.region_of(obj)
    best = region.floor_y
    own_area = fx * fz
    if own_area <= 0:
        return best + ey / 2.0
    for other in layout.objects:
        if other.id == obj.id:
            continue
        o_min_x, _, o_min_z, o_max_x, o_top, o_max_z = scene.world_box(other).bounds
        overlap_x = min(x + fx / 2.0, o_max_x) - max(x - fx / 2.0, o_min_x)
        overlap_z = min(z + fz / 2.0, o_max_z) - max(z - fz / 2.0, o_min_z)
        if overlap_x <= 0 or overlap_z <= 0:
            continue
        if overlap_x * overlap_z >= scene.SUPPORT_OVERLAP * own_area:
            best = max(best, o_top)
    return best + ey / 2.0


def _candidates(obj: SceneObject, layout: SceneLayout, rng: random.Random) -> list[Transform]:
    region = layout.region_of(obj)
    min_x, min_z, max_x, max_z = region.bounds()
    t = obj.transform
    ex, ey, ez = obj.extents()
    fx, fz = (ez, ex) if t.rot[2] % 180.0 == 90.0 else (ex, ez)
    step = TRANSLATION_STEP
    out: list[Transform] = []

    # Local grid around the current position.
    offsets: list[tuple[float, float, float]] = []
    for m in (-2, -1, 1, 2):
        offsets.append((m * step, 0.0, 0.0))
        offsets.append((0.0, 0.0, m * step))
        offsets.append((0.0, m * step, 0.0))
    for mx in (-1, 1):
        for mz in (-1, 1):
            offsets.append((mx * step, 0.0, mz * step))
    for dx, dy, dz in offsets:
        out.append(Transform((t.pos[0] + dx, t.pos[1] + dy, t.pos[2] + dz), t.rot, t.scale))

    # Snap to the nearest support surface at the current spot.
    target = scene.support_surface_y(obj, layout)
    delta = target - scene.bottom_y(obj)
    if abs(delta) > 1e-9:
        out.append(Transform((t.pos[0], t.pos[1] + delta, t.pos[2]), t.rot, t.scale))

    # On top of each other object (reaches stacking arrangements directly).
    for other in layout.objects:
        if other.id == obj.id:
            continue
        ox, _, oz = other.transform.pos
        y = scene.top_y(other) + ey / 2.0
        out.append(Transform((ox, y, oz), t.rot, t.scale))

    # Yaw rotations.
    for ry in ROTATION_STEPS:
        if ry != t.rot[2]:
            out.append(Transform(t.pos, (t.rot[0], t.rot[1], ry), t.scale))

    # Seeded random jumps across the region; even draws land at rest height,
    # odd draws sample the free vertical range.
    for i in range(CANDIDATE_SAMPLES):
        lo_x, hi_x = min_x + fx / 2.0, max_x - fx / 2.0
        lo_z, hi_z = min_z + fz / 2.0, max_z - fz / 2.0
        if lo_x > hi_x or lo_z > hi_z:
            break
        x = rng.uniform(lo_x, hi_x)
        z = rng.uniform(lo_z, hi_z)
        if i % 2 == 0 or region.height <= ey:
            y = _rest_height(obj, layout, x, z, ey, fx, fz)
        else:
            y = rng.uniform(region.floor_y + ey / 2.0, region.floor_y + region.height - ey / 2.0)
        out.append(Transform((x, y, z), t.rot, t.scale))
    return out


# ---------------------------------------------------------------------------
# Bounds enforcement


def enforce_bounds(
    layout: SceneLayout, cs: ConstraintSet, only: set[str] | None = None
) -> tuple[SceneLayout, set[str]]:
    """Clamp objects back into their regions with minimal translations.

    Objects granted `allowOutside` are untouched. When `only` is given,
    clamping is restricted to those objects (the solve loop passes the
    batch's objects to preserve batch isolation).
    """
    layout = layout.copy()
    adjusted: set[str] = set()
    for obj in layout.objects:
        if only is not None and obj.id not in only:
            continue
        if obj.id in cs.allow_outside:
            continue
        region = layout.region_of(obj)
        if scene.inside(obj, region):
            continue
        before = obj.transform.pos
        _clamp_vertical(obj, region)
        _clamp_horizontal(obj, region)
        if obj.transform.pos != before:
            adjusted.add(obj.id)
    return layout, adjusted


def _clamp_vertical(obj: SceneObject, region: Region) -> None:
    bounds = scene.world_box(obj).bounds
    bottom, top = bounds[1], bounds[4]
    delta = 0.0
    if bottom < region.floor_y:
        delta = region.floor_y - bottom
    elif top > region.floor_y + region.height:
        delta = region.floor_y + region.height - top
        delta = max(delta, region.floor_y - bottom)  # keep the bottom above the floor
    if delta:
        _translate(obj, (0.0, delta, 0.0))


def _clamp_horizontal(obj: SceneObject, region: Region) -> None:
    polygon = region.vertices
    n = len(polygon)
    for _ in range(8):
        pushed = False
        corners = scene.world_box(obj).plan
        for i in range(n):
            ax, az = polygon[i]
            bx, bz = polygon[(i + 1) % n]
            dx, dz = bx - ax, bz - az
            length = (dx * dx + dz * dz) ** 0.5
            if length < 1e-12:
                continue
            nx, nz = -dz / length, dx / length  # inward normal for CCW
            worst = min((cx - ax) * nx + (cz - az) * nz for cx, cz in corners)
            if worst < -1e-12:
                _translate(obj, (-worst * nx, 0.0, -worst * nz))
                corners = scene.world_box(obj).plan
                pushed = True
        if not pushed:
            break


# ---------------------------------------------------------------------------
# Full solve loop


def solve(
    objects: Sequence[SceneObject],
    regions: Sequence[Region],
    cs: ConstraintSet,
    cfg: SolverConfig | None = None,
    batch_solver: BatchSolver | None = None,
) -> SolveReport:
    """Run the full repair loop and return the best layout seen.

    Iteration 0 records the relaxed initial placement; iterations 1..T each
    repair one batch of violated constraints. The loop exits early once
    everything is satisfied. Identical inputs and seed produce an identical
    report. An object whose region is not among `regions`, as in every
    program that declares objects but no region, is a `PlacementError`.
    """
    region_ids = {r.id for r in regions}
    for obj in objects:
        if obj.region not in region_ids:
            where = f"region {obj.region!r}, not solved here" if obj.region else "no region"
            raise PlacementError(f"object {obj.id!r} is in {where}; the solver needs its region")
    cfg = cfg or SolverConfig()
    proposer: BatchSolver = batch_solver or local_search_batch_solve
    rng = random.Random(cfg.rng_seed)
    object_ids = {obj.id for obj in objects}

    layout = initial_placement(objects, regions, cs, cfg, rng)
    layout = physics_relaxation(layout, cs)
    results = cs.verdicts(layout)
    records = [
        IterationRecord(0, layout.copy(), _unsatisfied(results), _ratio(results))
    ]
    tables = [results]
    history: list[tuple[int, ...]] = [records[0].unsatisfied]

    for t in range(1, cfg.max_iterations + 1):
        unsatisfied = records[-1].unsatisfied
        if not unsatisfied:
            break
        batch_ids = select_batch(unsatisfied, cfg.batch_size, cs, object_ids, history)
        batch = [cs.by_id(cid) for cid in batch_ids]
        layout, moved = proposer(layout, batch, cs, cfg, rng)
        batch_objects = set(_movable_ids(batch, layout))
        layout, clamped = enforce_bounds(layout, cs, only=batch_objects)
        results = cs.verdicts(layout)
        tables.append(results)
        records.append(
            IterationRecord(
                index=t,
                layout=layout.copy(),
                unsatisfied=_unsatisfied(results),
                ratio=_ratio(results),
                batch=tuple(batch_ids),
                moved=tuple(sorted(moved | clamped)),
            )
        )
        history.append(records[-1].unsatisfied)

    best = records[0]
    for record in records[1:]:
        if record.ratio > best.ratio:
            best = record
    terminated = "allSatisfied" if best.ratio == 1.0 else "iterationLimit"
    return SolveReport(
        iterations=records,
        best_index=best.index,
        best_layout=best.layout,
        best_ratio=best.ratio,
        terminated=terminated,
        verdicts=tables[best.index],
        constraints=cs,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Report rendering


def render_report(report: SolveReport) -> str:
    """Human-readable solve report with the per-constraint verdict table,
    read from `report.verdicts`."""
    cfg = report.config
    lines = [
        "# sthl solve report",
        f"config: seed={cfg.rng_seed} k={cfg.batch_size} T={cfg.max_iterations}",
    ]
    lines.append(f"terminated: {report.terminated}")
    lines.append(f"best: iteration={report.best_index} ratio={report.best_ratio!r}")
    for record in report.iterations:
        batch = ",".join(map(str, record.batch)) if record.batch else "-"
        moved = ",".join(record.moved) if record.moved else "-"
        lines.append(
            f"iteration {record.index}: ratio={record.ratio!r} "
            f"unsatisfied={len(record.unsatisfied)} batch={batch} moved={moved}"
        )
    lines.append("# constraints")
    for constraint in report.constraints.constraints:
        lines.append(format_verdict_line(constraint, report.verdicts[constraint.id]))
    return "\n".join(lines) + "\n"
