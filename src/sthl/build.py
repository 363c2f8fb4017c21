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
a `BuildError` at the assignment that states it. A value that reads a
variable not yet assigned there (directly, or through an earlier
variable's value) is a `BuildError` at that read.

An assertion reads a variable through its last binding, and that binding
names the variables that were not yet assigned where it was stated (as
`freeze_program` leaves them). A cycle among those names cannot be
evaluated; one that an assertion reaches is a `BuildError` at the
assignment that closes it, the latest of the cycle's bindings.

Objects get their world extents from their `scale` assignment (base
dimensions stay 1x1x1), an optional initial position from `pos`, and
their region from explicit `inside` assertions (first declared region
otherwise).
"""

from __future__ import annotations

import math

from sthl.constraints import (
    REGION_DEFAULTS,
    freeze_program,
    infer_region_assignments,
    literal_value,
)
from sthl.dsl.nodes import CHILD_FIELDS, Assert, Assign, Declare, Expr, Name, PropRef, Span, idents
from sthl.dsl.typecheck import TypedProgram
from sthl.errors import BuildError, DegenerateRegion
from sthl.scene import Region, SceneLayout, SceneObject, Transform, WALL_THICKNESS


def _category_from_id(name: str) -> str:
    return name.replace("_", " ")


def _first_read(value: Expr, versions: dict[str, Name | PropRef]) -> Name | PropRef:
    """What keeps a frozen value from being a literal: its first read, left
    to right, of a variable not assigned where it is read, else its first
    placement read. A version it names reads what `versions` holds for it;
    any other name was not yet assigned (`freeze_program`)."""
    unassigned = placement = None
    stack = [value]
    while stack:
        node = stack.pop()
        if type(node) is Name:
            node = versions.get(node.ident, node)  # else not assigned where read
        if type(node) is Name:
            unassigned = unassigned or node
        elif type(node) is PropRef:
            placement = placement or node
        else:
            stack.extend(getattr(node, f) for f in reversed(CHILD_FIELDS.get(type(node), ())))
    return unassigned or placement  # type: ignore[return-value]


def _unbuildable(stmt: Assign, read: Name | PropRef, filename: str) -> BuildError:
    """The error of a property assignment whose value `read` keeps from being a literal."""
    if type(read) is Name:
        message = f"{stmt.target}.{stmt.prop} reads variable {read.ident!r} before it is assigned"
        return BuildError(message, read.span.line, read.span.column, filename)
    message = (
        "assignment must not depend on object placement: "
        f"identifier {read.obj!r} missing from layout"  # type: ignore[union-attr]
    )
    return BuildError(message, stmt.span.line, stmt.span.column, filename)


def _check_binding_cycles(typed: TypedProgram, filename: str) -> None:
    """A BuildError at the assignment that closes the first binding cycle an
    assertion reaches, if any (module docstring)."""
    names: dict[str, dict[str, None]] = {}  # variable -> variables its binding names
    closing: dict[str, Assign] = {}  # variable -> its last assignment
    for stmt in typed.program.statements:
        if isinstance(stmt, Assign) and stmt.prop is None:
            named: dict[str, None] = {}
            for ident in sorted(idents(stmt.value)):
                if ident in names:
                    named.update(names[ident])
                elif typed.symbols[ident].kind == "var":
                    named[ident] = None
            names[stmt.target] = named
            closing[stmt.target] = stmt
    if not any(names.values()):
        return
    asserted: set[str] = set()
    for stmt in typed.program.statements:
        if isinstance(stmt, Assert):
            asserted |= idents(stmt.condition)
    done: set[str] = set()
    for start in names:
        if start not in asserted or start in done:
            continue
        path, pending = [start], [iter(names[start])]
        while pending:
            ident = next(pending[-1], None)
            if ident is None:
                done.add(path.pop())
                pending.pop()
            elif ident in path:
                cycle = path[path.index(ident):]
                stmt = max((closing[name] for name in cycle), key=lambda s: s.span)
                message = f"circular binding for variable {stmt.target!r}"
                raise BuildError(message, stmt.span.line, stmt.span.column, filename)
            elif ident not in done:
                path.append(ident)
                pending.append(iter(names[ident]))


def build_scene(
    typed: TypedProgram, seed: int = 0, wall_thickness: float = WALL_THICKNESS
) -> SceneLayout:
    """Materialize the objects and regions a program describes, with the
    values `freeze_program` draws for `seed`, as an unsolved layout. Errors
    name the source `parse` was given."""
    filename = typed.program.filename
    object_props: dict[str, dict[str, object]] = {}
    region_props: dict[str, dict[str, object]] = {}
    assigned_at: dict[tuple[str, str], Span] = {}  # the assignment that holds
    versions: dict[str, Name | PropRef] = {}  # each version not a literal -> `_first_read`

    for stmt in freeze_program(typed, seed):
        if isinstance(stmt, Declare):
            if stmt.kind == "object":
                object_props[stmt.name] = {}
            elif stmt.kind == "region":
                region_props[stmt.name] = {}
        elif isinstance(stmt, Assign) and stmt.prop is None:
            if literal_value(stmt.value) is None:
                versions[stmt.target] = _first_read(stmt.value, versions)
        elif isinstance(stmt, Assign):
            value = literal_value(stmt.value)
            if value is None:
                raise _unbuildable(stmt, _first_read(stmt.value, versions), filename)
            assigned_at[stmt.target, stmt.prop] = stmt.span
            if stmt.target in object_props:
                object_props[stmt.target][stmt.prop] = value
            else:
                region_props[stmt.target][stmt.prop] = value
    _check_binding_cycles(typed, filename)

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
        scale = props.get("scale", REGION_DEFAULTS["scale"])
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
    return SceneLayout(regions=regions, objects=objects)


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
    size = tuple(props.get("scale", REGION_DEFAULTS["scale"]))  # type: ignore[arg-type]
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
