"""Output checks whose references are independent of the code under test.

- Packages must round-trip: reading a package back and writing it again
  reproduces every file byte for byte.
- On a layout read back from disk, every constraint verdict agrees with an
  independent oracle wherever the oracle is decisive: `tests/naive_interp.py`
  for explicit constraints, `tests/geom_oracles.grid_collides` for collision
  constraints and `corner_inside_oracle` for containment constraints.
  Pairs and boxes within `BAND` of contact are skipped, as in acceptance
  criterion 4, because a 1 cm grid cannot decide them. Gravity constraints
  have no independent oracle and are not compared.
- Verdicts the package's own report claims as satisfied must hold.
- Two runs of one input with the same seed give byte-identical scene.json.
- Re-solving one region leaves every other region's objects unchanged.
- `fmt` is a fixpoint, and a program evaluated against itself scores F1=1.
"""

from __future__ import annotations

import math
import re
import tempfile
from pathlib import Path

from geom_oracles import GRID, corner_inside_oracle, grid_collides
from naive_interp import eval_assertion
from sthl import constraints, export, metrics
from sthl.dsl import parse, typecheck
from sthl.scene import Region, SceneLayout, world_box

BAND = 0.02  # metres; the oracles' boundary band
CONTACT = 1e-9  # vertical distances this small count as exact floor/ceiling contact
MAX_GRID_POINTS = 2_000_000


def _aabb(obj):
    corners = world_box(obj).corners()
    return corners.min(axis=0), corners.max(axis=0)


def _right_angled(obj) -> bool:
    rx, rz, ry = obj.transform.rot
    return rx % 360 == 0 and rz % 360 == 0 and ry % 90 == 0


def _collision_oracle(a, b, aabbs) -> bool | None:
    """True when the boxes overlap, per the dense-grid oracle; None when
    the pair is too close to contact, or too large, to decide."""
    if not (_right_angled(a) and _right_angled(b)):
        return None
    (lo_a, hi_a), (lo_b, hi_b) = aabbs[a.id], aabbs[b.id]
    overlap = [min(hi_a[i], hi_b[i]) - max(lo_a[i], lo_b[i]) for i in range(3)]
    if abs(min(overlap)) < BAND:
        return None
    if min(overlap) > 0 and math.prod(o / GRID + 1 for o in overlap) > MAX_GRID_POINTS:
        return None
    return grid_collides(a, b)


def _edge_distance(px: float, pz: float, polygon) -> float:
    best = math.inf
    for i, (ax, az) in enumerate(polygon):
        bx, bz = polygon[(i + 1) % len(polygon)]
        dx, dz = bx - ax, bz - az
        length = dx * dx + dz * dz
        u = 0.0 if length == 0 else max(0.0, min(1.0, ((px - ax) * dx + (pz - az) * dz) / length))
        best = min(best, math.hypot(px - ax - u * dx, pz - az - u * dz))
    return best


def _inside_oracle(obj, region: Region) -> bool | None:
    corners = world_box(obj).corners()
    if min(_edge_distance(float(x), float(z), region.vertices) for x, z in corners[:, [0, 2]]) < BAND:
        return None
    top = region.floor_y + region.height
    for y in (float(corners[:, 1].min()), float(corners[:, 1].max())):
        gap = min(abs(y - region.floor_y), abs(y - top))
        if CONTACT < gap < BAND:
            return None
    padded = Region(
        region.id, region.vertices, region.floor_y - CONTACT, region.height + 2 * CONTACT
    )
    return corner_inside_oracle(obj, padded)


def oracle_verdicts(cs, layout: SceneLayout) -> dict[int, bool | None]:
    """The independent verdict for each compiled constraint, or None where
    no oracle is decisive."""
    aabbs = {obj.id: _aabb(obj) for obj in layout.objects}
    out: dict[int, bool | None] = {}
    for c in cs.constraints:
        node = c.assertion
        if c.provenance == constraints.PROVENANCE_EXPLICIT:
            out[c.id] = bool(eval_assertion(node, layout, cs.bindings))
        elif isinstance(node, constraints.NoCollision):
            a, b = layout.object(node.first), layout.object(node.second)
            collides = _collision_oracle(a, b, aabbs)
            out[c.id] = None if collides is None else not collides
        elif c.provenance == constraints.PROVENANCE_BOUNDARY:
            out[c.id] = _inside_oracle(layout.object(node.inner), layout.region(node.outer))
        else:
            out[c.id] = None
    return out


def mismatches(cs, verdicts: dict[int, bool], oracle: dict[int, bool | None]) -> list[str]:
    """One message per verdict (constraint id -> bool) a decisive oracle contradicts."""
    return [
        f"constraint {c.id} ({constraints.print_compiled_assertion(c.assertion)}): "
        f"verdict {verdicts[c.id]}, oracle {oracle[c.id]}"
        for c in cs.constraints
        if c.id in verdicts and oracle[c.id] is not None and oracle[c.id] != verdicts[c.id]
    ]


_VERDICT_LINE = re.compile(r"^(\d+) \S+ (satisfied|violated) ")


def report_claims(report_text: str) -> dict[int, bool]:
    """Constraint verdicts from a report's first verdict table."""
    lines = report_text.splitlines()
    start = lines.index("# constraints") + 1 if "# constraints" in lines else len(lines)
    claims = {}
    for line in lines[start:]:
        if line.startswith("#"):
            break
        match = _VERDICT_LINE.match(line)
        if match:
            claims[int(match.group(1))] = match.group(2) == "satisfied"
    return claims


def check_package(package_dir: Path, seed: int, score=True):
    """Round-trip and oracle checks on a package directory.

    Returns (`metrics.solution_correctness` of the layout read back, or None
    when not `score`; how many verdicts the oracles decided; problems).
    """
    try:
        pkg = export.read_package(package_dir)
    except Exception as exc:  # any failure to read back is a failed check
        return 0.0, 0, [f"read_package failed: {exc}"]
    problems = []
    with tempfile.TemporaryDirectory(dir=package_dir.parent) as tmp:
        for path in export.write_package(pkg, tmp):
            if path.read_bytes() != (package_dir / path.name).read_bytes():
                problems.append(f"{path.name} differs after read_package/write_package")

    layout = pkg.to_layout()
    cs = constraints.compile_constraints(typecheck(parse(pkg.metadata_text)), seed=seed)
    ctx = cs.context(layout, rng_seed=seed)
    live = {c.id: constraints.evaluate(c, ctx) for c in cs.constraints}
    oracle = oracle_verdicts(cs, layout)
    problems += mismatches(cs, live, oracle)
    claimed = {cid: True for cid, ok in report_claims(pkg.report_text).items() if ok}
    problems += [f"report claims {p}" for p in mismatches(cs, claimed, oracle)]
    correctness = metrics.solution_correctness(pkg.metadata_text, layout, seed) if score else None
    return correctness, sum(v is not None for v in oracle.values()), problems


def check_identical(first, second) -> list[str]:
    """Two runs of one input with the same seed (workloads.Outcome) must
    write the same scene.json and decisions.tsv and print the same text."""
    problems = []
    for name in (export.SCENE_FILE, "decisions.tsv"):
        a, b = first.out_dir / name, second.out_dir / name
        if a.exists() and (not b.exists() or a.read_bytes() != b.read_bytes()):
            problems.append(f"{name} of {a.parent.name} and {b.parent.name} differ")
    if first.texts != second.texts:
        problems.append(f"command output of {first.out_dir.name} and {second.out_dir.name} differ")
    return problems


def check_isolation(before, after, region: str) -> list[str]:
    """Objects outside `region` must be unchanged by re-solving it."""
    kept = {o.id: o for o in before.objects if o.region != region}
    return [
        f"object {o.id} in {o.region} changed when {region} was re-solved"
        for o in after.objects
        if o.id in kept and o != kept[o.id]
    ]


_F1 = re.compile(r"^(object|layout|overall): .* f1=([0-9.]+)", re.MULTILINE)


def check_authoring(texts: dict[str, str]) -> list[str]:
    problems = []
    if texts["fmt"] != texts["refmt"]:
        problems.append("fmt is not a fixpoint")
    scores = dict(_F1.findall(texts["eval"]))
    for label in ("object", "layout", "overall"):
        if scores.get(label) != "1.0000":
            problems.append(f"{label} F1 against itself is {scores.get(label)}, not 1")
    return problems
