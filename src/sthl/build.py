"""Bridge from checked programs to solvable scenes.

Region geometry comes from `pos`/`scale`/`rot` assignments on region
declarations: a region is a rectangular room centered at (pos.x, pos.z)
with floor height pos.y, footprint scale.x by scale.z, ceiling height
scale.y, and optional yaw from rot (x and z rotations must be zero).
Regions without geometry assignments default to a 10x3x10 room at the
origin. A `pos`, `scale` or `rot` component that is not finite (`1 / 0`,
`0 / 0`), a region rotation about x or z, a region `scale.x` or `scale.z`
that is not positive, a region footprint with no area in floating point
(a tiny scale, or a position that swallows it), an object scale component
that is not positive, or a value that reads another object's placement is
a `BuildError` at the assignment that states it.

Objects get their world extents from their `scale` assignment (base
dimensions stay 1x1x1), an optional initial position from `pos`, and
their region from explicit `inside` assertions (first declared region
otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from sthl.assets import AssetEntity
from sthl.constraints import (
    EvalContext,
    evaluate_expression,
    freeze_program,
    infer_region_assignments,
)
from sthl.dsl.nodes import Assign, Declare, Span
from sthl.dsl.typecheck import TypedProgram
from sthl.errors import BuildError, DegenerateRegion, EvalError
from sthl.scene import Connection, Region, SceneLayout, SceneObject, Transform, WALL_THICKNESS

DEFAULT_REGION_SIZE = (10.0, 3.0, 10.0)


@dataclass
class BuiltScene:
    objects: list[SceneObject]
    regions: list[Region]
    connections: list[Connection] = dataclass_field(default_factory=list)

    def entities(self) -> list[AssetEntity]:
        """Asset-query entities for every object, in declaration order."""
        return [
            AssetEntity(
                kind="object",
                category=obj.category,
                color=obj.color,
                material=obj.material,
                features=obj.features,
            )
            for obj in self.objects
        ]


def _category_from_id(name: str) -> str:
    return name.replace("_", " ")


def _evaluate_literal(stmt: Assign, filename: str):
    """Evaluate a frozen assignment value, which must not read the layout."""
    ctx = EvalContext(SceneLayout())
    try:
        return evaluate_expression(stmt.value, ctx)
    except EvalError as exc:
        message = f"assignment must not depend on object placement: {exc}"
        raise BuildError(message, stmt.span.line, stmt.span.column, filename) from None


def build_scene(
    typed: TypedProgram,
    seed: int = 0,
    wall_thickness: float = WALL_THICKNESS,
    filename: str = "<sthl>",
) -> BuiltScene:
    """Materialize the objects and regions a program describes, with the
    values `freeze_program` draws for `seed`."""
    object_props: dict[str, dict[str, object]] = {}
    region_props: dict[str, dict[str, object]] = {}
    assigned_at: dict[tuple[str, str], Span] = {}  # the assignment that holds

    for stmt in freeze_program(typed, seed):
        if isinstance(stmt, Declare):
            if stmt.kind == "object":
                object_props[stmt.name] = {}
            elif stmt.kind == "region":
                region_props[stmt.name] = {}
        elif isinstance(stmt, Assign) and stmt.prop is not None:
            value = _evaluate_literal(stmt, filename)
            assigned_at[stmt.target, stmt.prop] = stmt.span
            if stmt.target in object_props:
                object_props[stmt.target][stmt.prop] = value
            else:
                region_props[stmt.target][stmt.prop] = value

    def error(target: str, prop: str, requirement: str, value) -> BuildError:
        span = assigned_at[target, prop]
        got = ", ".join(f"{v:g}" for v in value)
        message = f"{target}.{prop} {requirement}, got ({got})"
        return BuildError(message, span.line, span.column, filename)

    for name, props in (*object_props.items(), *region_props.items()):
        for prop in ("pos", "scale", "rot"):
            value = props.get(prop)
            if value is not None and not all(map(math.isfinite, value)):  # type: ignore[call-overload]
                raise error(name, prop, "components must be finite", value)
    for name, props in object_props.items():
        scale = props.get("scale", (1.0, 1.0, 1.0))
        if any(s <= 0 for s in scale):  # type: ignore[attr-defined]
            raise error(name, "scale", "components must be positive", scale)
    for name, props in region_props.items():
        scale = props.get("scale", DEFAULT_REGION_SIZE)
        if scale[0] <= 0 or scale[2] <= 0:  # type: ignore[index]
            raise error(name, "scale", "x and z of a region must be positive", scale)
        rot = props.get("rot", (0.0, 0.0, 0.0))
        if rot[0] != 0.0 or rot[1] != 0.0:  # type: ignore[index]
            raise error(name, "rot", "of a region must be a yaw only", rot)

    regions = [
        _build_region(name, props, wall_thickness) for name, props in region_props.items()
    ]
    assignments = infer_region_assignments(typed)
    objects = [
        _build_object(name, props, assignments.get(name, ""))
        for name, props in object_props.items()
    ]
    for region, (name, props) in zip(regions, region_props.items()):
        try:
            region.validate()
        except DegenerateRegion:
            # A footprint with an area at the origin was swallowed by its
            # position; otherwise its scale underflowed.
            centered = _build_region(name, {**props, "pos": (0.0, 0.0, 0.0)}, wall_thickness)
            try:
                centered.validate()
                prop = "pos"
            except DegenerateRegion:
                prop = "scale"
            raise error(name, prop, "leaves the region no floor area", props[prop]) from None
    return BuiltScene(objects=objects, regions=regions)


def _build_object(name: str, props: dict[str, object], region: str) -> SceneObject:
    scale = tuple(props.get("scale", (1.0, 1.0, 1.0)))  # type: ignore[arg-type]
    rot = tuple(props.get("rot", (0.0, 0.0, 0.0)))  # type: ignore[arg-type]
    preplaced = "pos" in props
    pos = tuple(props.get("pos", (0.0, scale[1] / 2.0, 0.0)))  # type: ignore[arg-type]
    return SceneObject(
        id=name,
        category=_category_from_id(name),
        dimensions=(1.0, 1.0, 1.0),
        color=str(props.get("color", "")),
        material=str(props.get("material", "")),
        features=str(props.get("features", "")),
        transform=Transform(pos=pos, rot=rot, scale=scale),
        region=region,
        preplaced=preplaced,
    )


def _build_region(name: str, props: dict[str, object], wall_thickness: float) -> Region:
    pos = tuple(props.get("pos", (0.0, 0.0, 0.0)))  # type: ignore[arg-type]
    size = tuple(props.get("scale", DEFAULT_REGION_SIZE))  # type: ignore[arg-type]
    rot = tuple(props.get("rot", (0.0, 0.0, 0.0)))  # type: ignore[arg-type]
    cx, floor_y, cz = pos
    half_w, half_d = size[0] / 2.0, size[2] / 2.0
    corners = [(-half_w, -half_d), (half_w, -half_d), (half_w, half_d), (-half_w, half_d)]
    yaw = math.radians(rot[2])
    c, s = math.cos(yaw), math.sin(yaw)
    vertices = tuple(
        (cx + c * x + s * z, cz - s * x + c * z) for x, z in corners
    )
    return Region(
        id=name,
        vertices=vertices,
        floor_y=floor_y,
        height=size[1],
        wall_thickness=wall_thickness,
    )
