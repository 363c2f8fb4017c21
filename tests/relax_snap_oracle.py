"""References for physics relaxation, the package snap and the report table.

Below are `sthl.solver._separation_sweep`, `sthl.export._snap_supported`
and the verdict table of `sthl.solver.render_report` as they were before
the solver's verdicts were reused and relaxation rejected pairs by their
bounds: the sweep runs the separating-axis test on every pair, the snap
re-evaluates every constraint after each move, and the report evaluates
the best layout again. The current code must give the same transforms,
the same reverted objects and the same report text.
"""

from __future__ import annotations

import numpy as np

from sthl import scene
from sthl import scene as scene_mod
from sthl.constraints import ConstraintSet, evaluate, format_verdict_line
from sthl.scene import SceneLayout, Transform
from sthl.solver import (
    _PAD,
    RELAXATION_SWEEPS,
    SolveReport,
    SolverConfig,
    _drop_pass,
    _translate,
)


def _results(cs: ConstraintSet, layout: SceneLayout) -> dict[int, bool]:
    ctx = cs.context(layout)
    return {c.id: evaluate(c, ctx) for c in cs.constraints}


def physics_relaxation(layout: SceneLayout, cs: ConstraintSet) -> SceneLayout:
    """Drop unsupported objects onto the nearest surface, then separate
    colliding pairs along minimum-translation directions (best effort)."""
    layout = layout.copy()
    _drop_pass(layout)
    for _ in range(RELAXATION_SWEEPS):
        if not _separation_sweep(layout, cs):
            break
    return layout


def _separation_sweep(layout: SceneLayout, cs: ConstraintSet) -> bool:
    any_collision = False
    n = len(layout.objects)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = layout.objects[i], layout.objects[j]
            if tuple(sorted((a.id, b.id))) in cs.allow_collide:
                continue
            depth, axis = scene.minimum_translation(a, b)
            if depth <= 1e-9:
                continue  # face contact is not a collision
            any_collision = True
            shift = (depth / 2.0 + _PAD) * np.asarray(axis)
            _translate(a, -shift)
            _translate(b, shift)
    return any_collision


def _snap_supported(layout: SceneLayout, cs: ConstraintSet) -> tuple[SceneLayout, tuple[str, ...]]:
    layout = layout.copy()
    reverted: list[str] = []
    before = _results(cs, layout)
    order = sorted(layout.objects, key=lambda o: (scene_mod.bottom_y(o), o.id))
    for obj in order:
        if not scene_mod.supported(obj, layout):
            continue
        surface = scene_mod.support_surface_y(obj, layout)
        delta = surface - scene_mod.bottom_y(obj)
        if abs(delta) < 1e-12:
            continue
        original = obj.transform
        x, y, z = original.pos
        obj.transform = Transform((x, y + delta, z), original.rot, original.scale)
        after = _results(cs, layout)
        if any(before[cid] and not after[cid] for cid in before):
            obj.transform = original
            reverted.append(obj.id)
        else:
            before = after
    return layout, tuple(reverted)


def render_report(
    report: SolveReport, cs: ConstraintSet, cfg: SolverConfig | None = None
) -> str:
    """Human-readable solve report with the per-constraint verdict table."""
    cfg = cfg or SolverConfig()
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
    results = _results(cs, report.best_layout)
    for constraint in cs.constraints:
        lines.append(format_verdict_line(constraint, results[constraint.id]))
    return "\n".join(lines) + "\n"
