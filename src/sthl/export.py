"""Scene package assembly, and every document sthl writes and reads back.

This module owns each document's format: the scene package below, and
the solve output of `sthl solve --out` that `sthl export` reads. The JSON
documents share one writer (`write_json`), one region and one connection
codec, and checked reads that make a malformed file a FormatError.

A package directory holds four files:

- ``scene.json``    versioned scene document (objects with engine-ready
  transforms, regions with wall slabs, connections, solver metadata)
- ``manifest.tsv``  per-object asset rows (uri, verdict, score, native
  extents, base dimensions)
- ``metadata.sthl`` the canonical program text (it parses: `write_package`
  checks that it does before writing anything)
- ``report.txt``    solve report with the per-constraint verdict table

``ScenePackage.program()`` is a parse of exactly ``metadata_text``, kept
with the text it parsed and made again whenever the text differs.
``assemble`` seeds it when the program's own source (``Program.source``)
is the text it prints, as for ``sthl fmt`` output and a solve output's
program, since parsing that text again gives the same program; any other
text, such as a source using ``entity``, is parsed by ``write_package``'s
check. A package read back keeps the program it parsed to validate
``metadata.sthl``; ``verdicts_for``, ``resolve_region`` and
``write_package`` reuse it instead of parsing again.

Coordinates are written unchanged in the left-handed convention, so engine
importers apply no axis flip. ``rotationXZY`` triples are degrees in
application order x, z, y.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from sthl import scene as scene_mod
from sthl.assets import AssetDecision
from sthl.build import build_scene
from sthl.constraints import (
    CompiledConstraint,
    ConstraintSet,
    compile_constraints,
    evaluate,
)
from sthl.dsl import Program, parse, print_program, typecheck
from sthl.errors import DegenerateRegion, FormatError, IoError, read_text
from sthl.scene import Connection, Region, SceneLayout, SceneObject, Transform, thicken_walls
from sthl.solver import IterationRecord, SolveReport, SolverConfig, render_report, solve

SCHEMA_VERSION = 1

SCENE_FILE = "scene.json"
MANIFEST_FILE = "manifest.tsv"
METADATA_FILE = "metadata.sthl"
REPORT_FILE = "report.txt"

Vec = tuple[float, float, float]


@dataclass(frozen=True)
class PackagedObject:
    id: str
    category: str
    asset_ref: str
    position: Vec
    rotation_xzy: Vec
    scale: Vec  # engine scale: world extents / asset native extents
    region: str
    color: str = ""
    material: str = ""
    features: str = ""
    collider: str = "box"
    static: bool = False


@dataclass(frozen=True)
class ManifestEntry:
    object_id: str
    asset_uri: str
    verdict: str
    score: float
    native_extents: Vec
    dimensions: Vec


@dataclass(frozen=True)
class Light:
    id: str
    position: Vec
    intensity: float = 1.0
    color: str = "white"


@dataclass
class ScenePackage:
    objects: list[PackagedObject]
    regions: list[Region]
    connections: list[Connection]
    manifest: list[ManifestEntry]
    metadata_text: str
    report_text: str
    solver_meta: dict = field(default_factory=dict)
    lights: list[Light] = field(default_factory=list)
    snap_reverted: tuple[str, ...] = ()
    # (text, program parsed from it); `program()` parses again once
    # `metadata_text` no longer equals that text.
    _parsed: tuple[str, Program] | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------

    def program(self) -> Program:
        if self._parsed is None or self._parsed[0] != self.metadata_text:
            self._parsed = (self.metadata_text, parse(self.metadata_text))
        return self._parsed[1]

    def manifest_for(self, object_id: str) -> ManifestEntry:
        for entry in self.manifest:
            if entry.object_id == object_id:
                return entry
        raise KeyError(object_id)

    def to_layout(self) -> SceneLayout:
        """Rebuild the internal scene model from packaged transforms."""
        objects = []
        for packed in self.objects:
            entry = self.manifest_for(packed.id)
            world = tuple(
                s * n for s, n in zip(packed.scale, entry.native_extents)
            )
            transform_scale = tuple(w / d for w, d in zip(world, entry.dimensions))
            objects.append(
                SceneObject(
                    id=packed.id,
                    category=packed.category,
                    dimensions=entry.dimensions,
                    color=packed.color,
                    material=packed.material,
                    features=packed.features,
                    transform=Transform(
                        pos=packed.position,
                        rot=packed.rotation_xzy,
                        scale=transform_scale,  # type: ignore[arg-type]
                    ),
                    region=packed.region,
                )
            )
        return SceneLayout(
            regions=list(self.regions),
            objects=objects,
            connections=list(self.connections),
        )

    def verdicts_for(self, object_id: str) -> list[tuple[CompiledConstraint, bool]]:
        """Re-evaluate the embedded constraints that involve one object, at
        the seed the solver metadata records."""
        cs = _constraints(self.program(), _solver_config(self.solver_meta).rng_seed)
        ctx = cs.context(self.to_layout())
        return [(c, evaluate(c, ctx)) for c in cs.touching(object_id)]


def _constraints(program: Program, seed: int) -> ConstraintSet:
    """A program read back, checked as `sthl check` does: the build is the
    check that makes a value no scene can hold a located BuildError."""
    typed = typecheck(program)
    build_scene(typed, seed=seed)
    return compile_constraints(typed, seed=seed)


# ---------------------------------------------------------------------------
# Assembly


def assemble(
    report: SolveReport,
    decisions: dict[str, AssetDecision],
    program: Program,
) -> ScenePackage:
    """Combine a solve's best layout with asset decisions into a package.

    Per-axis engine scale is declared world extents over the asset's
    native extents. Database indexes carry no mesh geometry, so an asset
    whose extents are unknown counts as a unit cube. Supported objects are
    snapped down/up to exact contact with their supporting surface; a snap
    that would flip any previously satisfied constraint is reverted and
    flagged. The snap starts from `report.verdicts`, the table the report's
    own table reads, and the solver metadata is `report.config`.
    """
    layout = report.best_layout
    missing = [obj.id for obj in layout.objects if obj.id not in decisions]
    if missing:
        raise ValueError(f"asset decisions missing for objects: {', '.join(missing)}")

    layout, reverted = _snap_supported(layout, report.constraints, report.verdicts)

    packaged = []
    manifest = []
    for obj in layout.objects:
        decision = decisions[obj.id]
        native = decision.model.native_extents or (1.0, 1.0, 1.0)
        world = obj.extents()
        engine_scale = tuple(w / n for w, n in zip(world, native))
        packaged.append(
            PackagedObject(
                id=obj.id,
                category=obj.category,
                asset_ref=decision.model.uri,
                position=obj.transform.pos,
                rotation_xzy=obj.transform.rot,
                scale=engine_scale,  # type: ignore[arg-type]
                region=obj.region,
                color=obj.color,
                material=obj.material,
                features=obj.features,
                collider="box",
                static=_rests_on_floor(obj, layout),
            )
        )
        manifest.append(
            ManifestEntry(
                object_id=obj.id,
                asset_uri=decision.model.uri,
                verdict=decision.verdict,
                score=decision.best_score,
                native_extents=tuple(native),  # type: ignore[arg-type]
                dimensions=obj.dimensions,
            )
        )

    metadata_text = print_program(program)
    report_text = render_report(report)
    cfg = report.config
    parsed = None
    if program.source == metadata_text:
        # A canonical program: `parse(metadata_text)` gives it again, under
        # the default name. A printed text holds no `entity`, so no notes.
        parsed = (metadata_text, replace(program, filename="<sthl>"))
    return ScenePackage(
        objects=packaged,
        regions=list(layout.regions),
        connections=list(layout.connections),
        manifest=manifest,
        metadata_text=metadata_text,
        report_text=report_text,
        solver_meta={
            "seed": cfg.rng_seed,
            "k": cfg.batch_size,
            "T": cfg.max_iterations,
            "terminated": report.terminated,
            "bestIteration": report.best_index,
            "bestRatio": report.best_ratio,
        },
        snap_reverted=reverted,
        _parsed=parsed,
    )


def _rests_on_floor(obj: SceneObject, layout: SceneLayout) -> bool:
    region = layout.region_of(obj)
    return abs(scene_mod.bottom_y(obj) - region.floor_y) <= scene_mod.SUPPORT_TOLERANCE


def _snap_supported(
    layout: SceneLayout, cs: ConstraintSet, verdicts: dict[int, bool]
) -> tuple[SceneLayout, tuple[str, ...]]:
    """Snap each supported object, lowest first, to exact contact with its
    support surface, on a copy of `layout`. A snap that turns a satisfied
    constraint violated is undone, and the object is listed as reverted.

    `verdicts` is every constraint's verdict on `layout`. After a snap only
    `cs.affected_by` the moved object is re-evaluated; every other verdict
    is copied, as the move cannot change it.
    """
    layout = layout.copy()
    reverted: list[str] = []
    ctx = cs.context(layout)
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
        affected = cs.affected_by(obj.id)
        after = {c.id: evaluate(c, ctx) for c in affected}
        if any(verdicts[cid] and not ok for cid, ok in after.items()):
            obj.transform = original
            reverted.append(obj.id)
        else:
            verdicts = {**verdicts, **after}
    return layout, tuple(reverted)


# ---------------------------------------------------------------------------
# Shared codecs: JSON text, checked reads, regions, connections, transforms


def write_json(path: str | Path, doc) -> None:
    """Write `doc` as every JSON document sthl writes: indented, keys sorted.

    The text is `json.dumps(doc, indent=2, sort_keys=True)` byte for byte.
    Before Python 3.13 the C encoder ignores `indent`, so `json.dumps` with
    it runs the pure-Python encoder; `_encode` is the same text for less.
    """
    out: list[str] = []
    _encode(doc, out, "\n")
    out.append("\n")
    Path(path).write_text("".join(out), encoding="utf-8")


_escape = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(value, out: list[str], newline: str) -> None:
    """Append `value` to `out` as `json.dumps(..., indent=2, sort_keys=True)`
    writes it, `newline` being a line break and the indent it stands at.
    A float or str item is written in its container's loop; anything else,
    subclasses included, goes through the checks in `json.dumps`'s order."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        separator = "," + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            kind = type(item)
            lead += _escape(key) + ": "
            if kind is float:
                text = repr(item)
                out.append(lead + _NON_FINITE.get(text, text))
            elif kind is str:
                out.append(lead + _escape(item))
            else:
                out.append(lead)
                _encode(item, out, inner)
            lead = separator
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        separator = "," + inner
        for item in value:
            kind = type(item)
            if kind is float:
                text = repr(item)
                out.append(lead + _NON_FINITE.get(text, text))
            elif kind is str:
                out.append(lead + _escape(item))
            else:
                out.append(lead)
                _encode(item, out, inner)
            lead = separator
        out.append(newline + "]")
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    """A value that is not a dict, list or tuple, as `json.dumps` writes it."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _load_json(path: Path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None


@contextmanager
def _checked(where: str | Path, what: str):
    """Make a missing key, or a value that a checked read or a scene-model
    constructor rejects, a FormatError at `where` about `what`."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{where}: {what} lacks key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"{where}: malformed {what}: {exc}") from None


def _number(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise TypeError(f"expected a finite number, not {value!r}")
    return float(value)


def _numbers(values, count: int) -> tuple:
    if not isinstance(values, list) or len(values) != count:
        raise TypeError(f"expected a list of {count} numbers, not {values!r}")
    return tuple(_number(v) for v in values)


def _extents(values) -> tuple:
    """Three positive numbers, as `Transform` requires of the scale they make."""
    out = _numbers(values, 3)
    if min(out) <= 0:
        raise ValueError(f"expected 3 positive numbers, not {values!r}")
    return out


def _typed(value, kind: type):
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, not {value!r}")
    return value


def _solver_config(meta: dict) -> SolverConfig:
    """The config a package's solver metadata records; a key it lacks keeps
    its `SolverConfig` default."""
    keys = {"rng_seed": "seed", "batch_size": "k", "max_iterations": "T"}
    return SolverConfig(**{f: _typed(meta[key], int) for f, key in keys.items() if key in meta})


def _region_doc(region: Region) -> dict:
    """A solve-output region; a scene.json region adds textures and walls."""
    return {
        "id": region.id,
        "vertices": [[float(x), float(z)] for x, z in region.vertices],
        "floorY": float(region.floor_y),
        "height": float(region.height),
        "wallThickness": float(region.wall_thickness),
    }


def _read_region(doc: dict) -> Region:
    """A region as `build_scene` makes one: counterclockwise and simple."""
    region = Region(
        id=_typed(doc["id"], str),
        vertices=tuple(_numbers(v, 2) for v in _typed(doc["vertices"], list)),
        floor_y=_number(doc["floorY"]),
        height=_number(doc["height"]),
        wall_thickness=_number(doc["wallThickness"]),
        floor_texture=_typed(doc.get("floorTexture", ""), str),
        wall_texture=_typed(doc.get("wallTexture", ""), str),
    )
    try:
        region.validate()
    except DegenerateRegion as exc:
        raise ValueError(str(exc)) from None
    return region


def _connection_doc(c: Connection) -> dict:
    return {
        "regionA": c.region_a,
        "regionB": c.region_b,
        "category": c.category,
        "dimensions": _vec(c.dimensions),
    }


def _read_connection(doc: dict) -> Connection:
    return Connection(
        region_a=_typed(doc["regionA"], str),
        region_b=_typed(doc["regionB"], str),
        category=_typed(doc.get("category", "door"), str),
        dimensions=_numbers(doc["dimensions"], 3),
    )


def _check_regions(objects, regions: list[Region]) -> None:
    """Every object names a region the document lists."""
    listed = {r.id for r in regions}
    for obj in objects:
        if obj.region not in listed:
            raise ValueError(f"object {obj.id!r} names unknown region {obj.region!r}")


def _read_object(doc: dict) -> PackagedObject:
    """A scene.json object, as `read_package` reads it and `write_package`
    checks it."""
    return PackagedObject(
        id=_typed(doc["id"], str),
        category=_typed(doc.get("category", ""), str),
        asset_ref=_typed(doc["assetRef"], str),
        position=_numbers(doc["position"], 3),
        rotation_xzy=_numbers(doc["rotationXZY"], 3),
        scale=_extents(doc["scale"]),
        region=_typed(doc["region"], str),
        color=_typed(doc.get("color", ""), str),
        material=_typed(doc.get("material", ""), str),
        features=_typed(doc.get("features", ""), str),
        collider=_typed(doc.get("collider", "box"), str),
        static=_typed(doc.get("static", False), bool),
    )


def _vec(values) -> list[float]:
    return [float(v) for v in values]


def layout_transforms(layout: SceneLayout) -> dict:
    """Transforms by object id: a solve-output iteration, and a
    `layout_iter<n>.json` snapshot."""
    return {
        o.id: {
            "pos": list(o.transform.pos),
            "rotXZY": list(o.transform.rot),
            "scale": list(o.transform.scale),
        }
        for o in layout.objects
    }


def _read_transform(doc: dict) -> Transform:
    return Transform(
        pos=_numbers(doc["pos"], 3),
        rot=_numbers(doc["rotXZY"], 3),
        scale=_numbers(doc["scale"], 3),
    )


# ---------------------------------------------------------------------------
# Solve output (`sthl solve --out`, read back by `sthl export`)


def solve_output_document(program: Program, report: SolveReport) -> dict:
    """The solve output of `program`, solved as `report` records. Its scene
    is the best layout without transforms: the objects and regions as built."""
    scene = report.best_layout
    return {
        "program": print_program(program),
        "config": asdict(report.config),
        "scene": {
            "objects": [
                {
                    "id": o.id,
                    "category": o.category,
                    "dimensions": list(o.dimensions),
                    "color": o.color,
                    "material": o.material,
                    "features": o.features,
                    "region": o.region,
                }
                for o in scene.objects
            ],
            "regions": [_region_doc(r) for r in scene.regions],
            "connections": [_connection_doc(c) for c in scene.connections],
        },
        "report": {
            "terminated": report.terminated,
            "bestIndex": report.best_index,
            "bestRatio": report.best_ratio,
            "iterations": [
                {
                    "index": rec.index,
                    "ratio": rec.ratio,
                    "unsatisfied": list(rec.unsatisfied),
                    "batch": list(rec.batch),
                    "moved": list(rec.moved),
                    "transforms": layout_transforms(rec.layout),
                }
                for rec in report.iterations
            ],
        },
    }


def load_solve_output(path: Path) -> tuple[Program, SolveReport]:
    """Read a file written by `sthl solve --out`: its program and the
    report. The report's constraints are the program's at the file's seed,
    and its verdicts are evaluated here on the best layout the file holds,
    which may have been edited since `sthl solve` wrote it.

    Invalid JSON, a missing key, a value of the wrong type or not finite, a
    dimension that is not positive, a region polygon that is clockwise or
    self-intersecting, an object in an unlisted region and an out-of-range
    `k` or `T` are a FormatError naming the file. Only the
    `config` keys that are `SolverConfig` fields are read, so files holding
    more keys still load.
    """
    doc = _load_json(path)
    with _checked(path, "solve output"):
        program = parse(_typed(doc["program"], str), filename=str(path))
        config = doc["config"]
        cfg = SolverConfig(**{f.name: _typed(config[f.name], int) for f in fields(SolverConfig)})
        scene = doc["scene"]
        regions = [_read_region(r) for r in scene["regions"]]
        objects = [
            SceneObject(
                id=_typed(o["id"], str),
                category=_typed(o["category"], str),
                dimensions=_extents(o["dimensions"]),
                color=_typed(o["color"], str),
                material=_typed(o["material"], str),
                features=_typed(o["features"], str),
                region=_typed(o["region"], str),
            )
            for o in scene["objects"]
        ]
        _check_regions(objects, regions)
        connections = [_read_connection(c) for c in scene.get("connections", [])]
        records = []
        for rec in doc["report"]["iterations"]:
            layout = SceneLayout(
                regions=list(regions),
                objects=[o.copy() for o in objects],
                connections=connections,
            )
            for obj in layout.objects:
                obj.transform = _read_transform(rec["transforms"][obj.id])
            records.append(
                IterationRecord(
                    index=_typed(rec["index"], int),
                    layout=layout,
                    unsatisfied=tuple(_typed(i, int) for i in rec["unsatisfied"]),
                    ratio=_number(rec["ratio"]),
                    batch=tuple(_typed(i, int) for i in rec["batch"]),
                    moved=tuple(_typed(name, str) for name in rec["moved"]),
                )
            )
        best_index = doc["report"]["bestIndex"]
        best = next((r for r in records if r.index == best_index), None)
        if best is None:
            raise ValueError(f"bestIndex {best_index!r} names no iteration")
        best_ratio = _number(doc["report"]["bestRatio"])
        terminated = _typed(doc["report"]["terminated"], str)
    cs = _constraints(program, cfg.rng_seed)
    report = SolveReport(
        iterations=records,
        best_index=best_index,
        best_layout=best.layout,
        best_ratio=best_ratio,
        terminated=terminated,
        verdicts=cs.verdicts(best.layout),
        constraints=cs,
        config=cfg,
    )
    return program, report


# ---------------------------------------------------------------------------
# Writing


def scene_document(pkg: ScenePackage) -> dict:
    regions = []
    for region in pkg.regions:
        mesh = thicken_walls(region)
        regions.append(
            {
                **_region_doc(region),
                "floorTexture": region.floor_texture,
                "wallTexture": region.wall_texture,
                "floorSlabThickness": float(mesh.floor_thickness),
                "walls": [
                    {
                        "innerStart": list(w.inner_start),
                        "innerEnd": list(w.inner_end),
                        "outerStart": list(w.outer_start),
                        "outerEnd": list(w.outer_end),
                        "baseY": float(w.base_y),
                        "height": float(w.height),
                        "thickness": float(w.thickness),
                    }
                    for w in mesh.walls
                ],
            }
        )
    return {
        "schemaVersion": SCHEMA_VERSION,
        "solver": pkg.solver_meta,
        "regions": regions,
        "connections": [_connection_doc(c) for c in pkg.connections],
        "objects": [
            {
                "id": o.id,
                "category": o.category,
                "assetRef": o.asset_ref,
                "position": _vec(o.position),
                "rotationXZY": _vec(o.rotation_xzy),
                "scale": _vec(o.scale),
                "region": o.region,
                "color": o.color,
                "material": o.material,
                "features": o.features,
                "collider": o.collider,
                "static": o.static,
            }
            for o in pkg.objects
        ],
        "lights": [
            {
                "id": l.id,
                "position": _vec(l.position),
                "intensity": float(l.intensity),
                "color": l.color,
            }
            for l in pkg.lights
        ],
        "snapReverted": list(pkg.snap_reverted),
    }


def write_package(pkg: ScenePackage, out_dir: str | Path) -> list[Path]:
    """Write the four package files; returns the paths written.

    Nothing is written unless `read_package` could read the package back:
    an embedded program that does not re-parse, and an object that fails
    the reader's checks (an engine scale that overflows to infinity or
    underflows to zero), are a FormatError, the latter naming the object.
    """
    try:
        pkg.program()
    except Exception as exc:
        raise FormatError(f"embedded program does not re-parse: {exc}") from exc

    out = Path(out_dir)
    scene_path = out / SCENE_FILE
    doc = scene_document(pkg)
    for obj in doc["objects"]:
        with _checked(scene_path, f"object {obj['id']!r}"):
            _read_object(obj)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        write_json(scene_path, doc)
        paths.append(scene_path)

        manifest_path = out / MANIFEST_FILE
        rows = [
            "\t".join(
                (
                    entry.object_id,
                    entry.asset_uri,
                    entry.verdict,
                    repr(entry.score),
                    ",".join(repr(float(v)) for v in entry.native_extents),
                    ",".join(repr(float(v)) for v in entry.dimensions),
                )
            )
            for entry in pkg.manifest
        ]
        manifest_path.write_text("\n".join(rows) + ("\n" if rows else ""), encoding="utf-8")
        paths.append(manifest_path)

        metadata_path = out / METADATA_FILE
        metadata_path.write_text(pkg.metadata_text, encoding="utf-8")
        paths.append(metadata_path)

        report_path = out / REPORT_FILE
        report_path.write_text(pkg.report_text, encoding="utf-8")
        paths.append(report_path)
        return paths
    except OSError as exc:
        raise IoError(f"cannot write package to {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# Reading


def read_package(package_dir: str | Path) -> ScenePackage:
    """Reconstruct a ScenePackage from a directory written by write_package.

    A missing file, a missing key, a value of the wrong type, length or
    sign, a number that is not finite, a region polygon that is clockwise
    or self-intersecting, an object in an unlisted region, a solver seed,
    `k` or `T` that is not an integer, `k` below 1 or `T` below 0, and
    scene and manifest objects that differ are a FormatError naming the
    file (and manifest line); an unreadable or non-UTF-8 file is an
    IoError naming it.
    """
    root = Path(package_dir)
    scene_path = root / SCENE_FILE
    if not scene_path.exists():
        raise FormatError(f"{scene_path}: missing scene document")
    doc = _load_json(scene_path)
    with _checked(scene_path, "scene document"):
        if doc.get("schemaVersion") != SCHEMA_VERSION:
            raise FormatError(f"{scene_path}: unsupported schema")
        solver_meta = _typed(doc.get("solver", {}), dict)
        _solver_config(solver_meta)  # what a re-solve and `verdicts_for` use
        regions = [_read_region(r) for r in doc.get("regions", [])]
        connections = [_read_connection(c) for c in doc.get("connections", [])]
        objects = [_read_object(o) for o in doc.get("objects", [])]
        _check_regions(objects, regions)
        lights = [
            Light(
                id=_typed(l["id"], str),
                position=_numbers(l["position"], 3),
                intensity=_number(l.get("intensity", 1.0)),
                color=_typed(l.get("color", "white"), str),
            )
            for l in doc.get("lights", [])
        ]
        snap_reverted = tuple(_typed(s, str) for s in _typed(doc.get("snapReverted", []), list))

    manifest_path = root / MANIFEST_FILE
    if not manifest_path.exists():
        raise FormatError(f"{manifest_path}: missing manifest")
    manifest = []
    for lineno, line in enumerate(read_text(manifest_path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise FormatError(f"{manifest_path}:{lineno}: expected 6 fields, found {len(parts)}")
        with _checked(f"{manifest_path}:{lineno}", "manifest row"):
            manifest.append(
                ManifestEntry(
                    object_id=parts[0],
                    asset_uri=parts[1],
                    verdict=parts[2],
                    score=_number(float(parts[3])),
                    native_extents=_extents([float(v) for v in parts[4].split(",")]),
                    dimensions=_extents([float(v) for v in parts[5].split(",")]),
                )
            )

    scene_ids = {o.id for o in objects}
    manifest_ids = {m.object_id for m in manifest}
    for object_id in sorted(manifest_ids - scene_ids):
        raise FormatError(
            f"{scene_path}: object {object_id!r} appears in the manifest but not the scene"
        )
    for object_id in sorted(scene_ids - manifest_ids):
        raise FormatError(
            f"{manifest_path}: object {object_id!r} appears in the scene but not the manifest"
        )

    metadata_path = root / METADATA_FILE
    if not metadata_path.exists():
        raise FormatError(f"{metadata_path}: missing metadata")
    metadata_text = read_text(metadata_path)
    try:
        program = parse(metadata_text, filename=str(metadata_path))
    except Exception as exc:
        raise FormatError(f"{metadata_path}: embedded program does not parse: {exc}") from exc

    report_path = root / REPORT_FILE
    report_text = read_text(report_path) if report_path.exists() else ""

    return ScenePackage(
        objects=objects,
        regions=regions,
        connections=connections,
        manifest=manifest,
        metadata_text=metadata_text,
        report_text=report_text,
        solver_meta=solver_meta,
        lights=lights,
        snap_reverted=snap_reverted,
        _parsed=(metadata_text, program),
    )


# ---------------------------------------------------------------------------
# Partial regeneration


def resolve_region(
    pkg: ScenePackage, region_id: str, cfg: SolverConfig | None = None
) -> ScenePackage:
    """Re-solve one region's objects in place, leaving every other region's
    transforms untouched.

    The constraint subset is restricted to constraints fully contained in
    the region (its objects, the region itself, and typed variables). The
    default `cfg` is the seed, k and T that `pkg.solver_meta` records.
    """
    cfg = cfg or _solver_config(pkg.solver_meta)
    region = next((r for r in pkg.regions if r.id == region_id), None)
    if region is None:
        raise KeyError(region_id)

    cs = _constraints(pkg.program(), cfg.rng_seed)
    layout = pkg.to_layout()
    target_ids = {obj.id for obj in layout.objects if obj.region == region_id}
    scope = target_ids | {region_id} | set(cs.bindings)
    sub_cs = replace(
        cs,
        constraints=[c for c in cs.constraints if c.involved <= scope],
        region_assignments={k: v for k, v in cs.region_assignments.items() if k in target_ids},
    )
    sub_objects = [obj.copy() for obj in layout.objects if obj.id in target_ids]
    for obj in sub_objects:
        obj.preplaced = False
    report = solve(sub_objects, [region], sub_cs, cfg)

    solved = {obj.id: obj for obj in report.best_layout.objects}
    merged = layout.copy()
    for obj in merged.objects:
        if obj.id in solved:
            obj.transform = solved[obj.id].transform
    new_objects = []
    for packed in pkg.objects:
        if packed.id in solved:
            t = solved[packed.id].transform
            new_objects.append(
                replace(
                    packed,
                    position=t.pos,
                    rotation_xzy=t.rot,
                    static=_rests_on_floor(merged.object(packed.id), merged),
                )
            )
        else:
            new_objects.append(packed)

    report_text = (
        pkg.report_text
        + f"# region {region_id} re-solved\n"
        + render_report(report)
    )
    return replace(pkg, objects=new_objects, report_text=report_text)
