"""Differential tests of the scalar geometry kernel in `sthl.scene` against
the numpy references (separating axes, box construction) and the
brute-force oracles."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from geom_oracles import box_reference, corner_inside_oracle, grid_collides, sat_reference
from sthl.scene import (
    Region,
    SceneObject,
    Transform,
    _oriented_box,
    bounds_apart,
    collides,
    collision_margin,
    distance_to_boundary,
    inside,
    minimum_translation,
    point_in_polygon,
    world_box,
)

_EPS = 1e-9

angle = st.floats(0, 360)
right_angle = st.sampled_from([0.0, 90.0, 180.0, 270.0])
rotations = st.one_of(
    st.tuples(angle, angle, angle),
    st.tuples(st.just(0.0), st.just(0.0), angle),
    st.tuples(st.just(0.0), st.just(0.0), right_angle),
)
coords = st.tuples(*[st.floats(0, 1) for _ in range(3)])
scales = st.tuples(*[st.floats(0.2, 0.7) for _ in range(3)])


def box_object(oid: str, pos, rot, scale) -> SceneObject:
    return SceneObject(oid, transform=Transform(pos=pos, rot=rot, scale=scale))


def reference_translation(a: SceneObject, b: SceneObject) -> tuple[float, np.ndarray]:
    """`minimum_translation` on top of the numpy reference."""
    box_a, box_b = world_box(a), world_box(b)
    margin, axis = sat_reference(box_a, box_b)
    delta = np.array(box_b.center) - np.array(box_a.center)
    if float(delta @ axis) < 0:
        axis = -axis
    return margin, axis


def reference_depth(a: SceneObject, b: SceneObject, axis: np.ndarray) -> float:
    """Overlap of the two boxes' projections onto `axis`, in numpy."""
    box_a, box_b = world_box(a), world_box(b)
    t = np.array(box_b.center) - np.array(box_a.center)
    ra = float(np.abs(np.array(box_a.axes) @ axis) @ np.array(box_a.half_extents))
    rb = float(np.abs(np.array(box_b.axes) @ axis) @ np.array(box_b.half_extents))
    return ra + rb - abs(float(t @ axis))


@given(coords, rotations, scales, coords, rotations, scales)
@settings(max_examples=300, deadline=None)
@example(
    pos_a=(0.78125, 0.0, 0.0), rot_a=(0.0, 0.0, 0.78125), scale_a=(0.5, 0.25, 0.25),
    pos_b=(0.78125, 0.0, 0.0), rot_b=(0.0, 0.0, 0.78125), scale_b=(0.5, 0.25, 0.25),
)
def test_sat_matches_numpy_reference(pos_a, rot_a, scale_a, pos_b, rot_b, scale_b):
    a = box_object("a", pos_a, rot_a, scale_a)
    b = box_object("b", pos_b, rot_b, scale_b)
    ref_margin, ref_axis = reference_translation(a, b)
    margin, axis = minimum_translation(a, b)
    assert type(axis) is tuple and len(axis) == 3 and all(type(v) is float for v in axis)
    axis = np.asarray(axis)
    assert abs(collision_margin(a, b) - ref_margin) <= 1e-12
    assert abs(margin - ref_margin) <= 1e-12
    if np.abs(axis - ref_axis).max() > 1e-12:
        # Candidate axes whose depths tie up to rounding (equal half
        # extents, as in the example above) may be picked either way, or
        # flipped when the centers coincide along them; the kernel's axis
        # must still attain the reference margin.
        assert abs(reference_depth(a, b, axis) - ref_margin) <= 1e-12


@given(coords, rotations, scales, coords, rotations, scales)
@settings(max_examples=200, deadline=None)
@example(
    pos_a=(1.0, 0.5, 1.0), rot_a=(0.0, 45.0, 0.0), scale_a=(0.6, 1.0, 0.6),
    pos_b=(1.2, 0.5, 1.1), rot_b=(0.0, 45.0, 0.0), scale_b=(0.6, 1.0, 0.6),
)
def test_minimum_translation_separates(pos_a, rot_a, scale_a, pos_b, rot_b, scale_b):
    # Whichever of several tied axes the kernel returns, moving b by the
    # depth along it (plus a margin above rounding) must part the boxes:
    # that is all the physics relaxation relies on.
    a = box_object("a", pos_a, rot_a, scale_a)
    b = box_object("b", pos_b, rot_b, scale_b)
    margin, axis = minimum_translation(a, b)
    axis = np.asarray(axis)
    assume(margin > _EPS)
    assert abs(float(np.linalg.norm(axis)) - 1.0) <= 1e-12
    moved = np.array(pos_b) + axis * (margin + 1e-6)
    assert not collides(a, box_object("b", tuple(moved.tolist()), rot_b, scale_b))


@given(coords, rotations, scales, coords, rotations, scales)
@settings(max_examples=60, deadline=None)
def test_collides_matches_grid_oracle_off_contact(pos_a, rot_a, scale_a, pos_b, rot_b, scale_b):
    a = box_object("a", pos_a, rot_a, scale_a)
    b = box_object("b", pos_b, rot_b, scale_b)
    # The 1 cm grid cannot resolve overlaps or gaps thinner than a few cells.
    assume(abs(sat_reference(world_box(a), world_box(b))[0]) >= 0.02)
    assert collides(a, b) == grid_collides(a, b)


@given(
    coords,
    rotations,
    scales,
    scales,
    st.integers(0, 2),
    st.sampled_from([-1.0, 1.0]),
    st.one_of(st.floats(-1e-9, 1e-9), st.floats(-0.1, 0.1)),
)
@settings(max_examples=300, deadline=None)
@example((0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.4, 0.3, 0.2), 0, 1.0, -1.5e-9)
@example((0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.4, 0.3, 0.2), 1, 1.0, -1.5e-9)
@example((0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.4, 0.3, 0.2), 2, -1.0, -1.5e-9)
@example((0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.4, 0.3, 0.2), 1, 1.0, -0.03)
@example((0.5, 0.5, 0.5), (0.0, 0.0, 90.0), (0.5, 0.5, 0.5), (0.4, 0.3, 0.2), 0, -1.0, -0.01)
@example((0.5, 0.5, 0.5), (10.0, 20.0, 30.0), (0.5, 0.5, 0.5), (0.4, 0.3, 0.2), 2, 1.0, 0.0)
def test_collides_matches_reference_near_contact(pos, rot, scale_a, scale_b, k, sign, gap):
    # b shares a's orientation and sits beside it along a's k-th axis,
    # `gap` away from face contact (negative gaps overlap): within 1e-9 of
    # contact, or a thin overlap or clearance of up to 10 cm.
    a = box_object("a", pos, rot, scale_a)
    box = world_box(a)
    reach = box.half_extents[k] + scale_b[k] / 2.0 + gap
    center = tuple(c + sign * reach * u for c, u in zip(box.center, box.axes[k]))
    b = box_object("b", center, rot, scale_b)
    ref_margin = sat_reference(world_box(a), world_box(b))[0]
    # Two correct float evaluations may land on either side of the 1e-9
    # threshold only when the margin sits within rounding of it.
    assume(abs(ref_margin - _EPS) > 1e-13)
    assert collides(a, b) == (ref_margin > _EPS)
    assert collides(b, a) == collides(a, b)


HEX = Region("hex", ((0.0, 0.0), (4.0, -1.0), (6.0, 1.0), (6.0, 5.0), (3.0, 6.5), (0.0, 5.0)))
L_ROOM = Region("lroom", ((0.0, 0.0), (6.0, 0.0), (6.0, 3.0), (3.0, 3.0), (3.0, 6.0), (0.0, 6.0)))


@given(
    st.sampled_from([HEX, L_ROOM]),
    st.tuples(st.floats(-0.5, 6.5), st.floats(0.0, 3.0), st.floats(-1.5, 7.0)),
    rotations,
    st.tuples(*[st.floats(0.2, 1.5) for _ in range(3)]),
)
@settings(max_examples=300, deadline=None)
def test_inside_matches_corner_oracle(region, pos, rot, scale):
    obj = box_object("o", pos, rot, scale)
    corners = world_box(obj).corners()
    # `inside` counts points within 1e-7 of the boundary as inside; the
    # oracle has no tolerance, so the two may differ only in that band.
    horizontal = min(
        distance_to_boundary((float(x), float(z)), region.vertices) for x, z in corners[:, [0, 2]]
    )
    vertical = min(
        abs(float(corners[:, 1].min()) - region.floor_y),
        abs(region.floor_y + region.height - float(corners[:, 1].max())),
    )
    assume(min(horizontal, vertical) > 1e-6)
    assert inside(obj, region) == corner_inside_oracle(obj, region)


sizes = st.tuples(*[st.floats(0.05, 5.0) for _ in range(3)])
positions = st.tuples(*[st.floats(-20.0, 20.0) for _ in range(3)])
quarter_turns = st.integers(-8, 8).map(lambda k: (0.0, 0.0, 90.0 * k))
any_rotation = st.tuples(*[st.floats(-720.0, 720.0) for _ in range(3)])


def _rectangle(x0: float, z0: float, width: float, depth: float, yaw: float, clockwise: bool) -> Region:
    """A width x depth room with one corner at (x0, z0), turned by `yaw`
    degrees about that corner as `build_scene` turns a region."""
    c, s = np.cos(np.radians(yaw)), np.sin(np.radians(yaw))
    corners = [(0.0, 0.0), (width, 0.0), (width, depth), (0.0, depth)]
    vertices = tuple((x0 + float(c * x + s * z), z0 + float(-s * x + c * z)) for x, z in corners)
    return Region("rect", vertices[::-1] if clockwise else vertices)


def _polygon_walk(obj: SceneObject, region: Region) -> bool:
    """`inside` without its rectangle accept."""
    box = world_box(obj)
    if box.bounds[1] < region.floor_y - 1e-7 or box.bounds[4] > region.floor_y + region.height + 1e-7:
        return False
    return all(point_in_polygon(point, region.vertices) for point in box.plan)


rectangles = st.builds(
    _rectangle,
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
    st.floats(0.5, 8.0),
    st.floats(0.5, 8.0),
    st.one_of(st.just(0.0), angle),
    st.booleans(),
)
# Offsets of a box's bounds from a region edge: touching, within and just
# beyond the 1e-7 boundary tolerance, and straddling.
edge_gaps = st.one_of(
    st.sampled_from([0.0, 1e-9, -1e-9, 1e-7, -1e-7, 2e-7, -2e-7]), st.floats(-0.05, 0.05)
)


@given(
    st.one_of(rectangles, st.sampled_from([HEX, L_ROOM])),
    st.one_of(rotations, any_rotation),
    st.tuples(*[st.floats(0.2, 1.5) for _ in range(3)]),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.integers(0, 4),
    edge_gaps,
    st.one_of(edge_gaps, st.floats(0.0, 1.5)),
)
@settings(max_examples=500, deadline=None)
@example(_rectangle(0.0, 0.0, 4.0, 3.0, 0.0, False), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 0.5), 0, 0.0, 0.0)
@example(_rectangle(0.0, 0.0, 4.0, 3.0, 0.0, False), (0.0, 0.0, 90.0), (1.0, 1.0, 2.0), (0.5, 0.5), 1, 0.0, 0.0)
@example(_rectangle(0.0, 0.0, 4.0, 3.0, 0.0, True), (0.0, 0.0, 30.0), (1.0, 1.0, 1.0), (0.5, 0.5), 4, -1e-9, 0.0)
def test_inside_equals_the_polygon_walk_and_the_corner_oracle(region, rot, scale, where, side, gap, lift):
    # The box sits at a point of the region's bounds, or with its bounds
    # `gap` inside one edge of them (side 1-4); its bottom is `lift` above
    # the floor.
    min_x, min_z, max_x, max_z = region.bounds()
    probe = world_box(box_object("p", (0.0, 0.0, 0.0), rot, scale)).bounds
    x = min_x + where[0] * (max_x - min_x)
    z = min_z + where[1] * (max_z - min_z)
    if side == 1:
        x = min_x + gap - probe[0]
    elif side == 2:
        x = max_x - gap - probe[3]
    elif side == 3:
        z = min_z + gap - probe[2]
    elif side == 4:
        z = max_z - gap - probe[5]
    obj = box_object("o", (x, region.floor_y + lift - probe[1], z), rot, scale)
    assert inside(obj, region) == _polygon_walk(obj, region)

    corners = world_box(obj).corners()
    horizontal = min(
        distance_to_boundary((float(x), float(z)), region.vertices) for x, z in corners[:, [0, 2]]
    )
    vertical = min(
        abs(float(corners[:, 1].min()) - region.floor_y),
        abs(region.floor_y + region.height - float(corners[:, 1].max())),
    )
    if min(horizontal, vertical) > 1e-6:
        assert inside(obj, region) == corner_inside_oracle(obj, region)


def test_rectangle_accept_skips_the_corners():
    # An unturned room's box holds its bounds and no corners until a test
    # needs them; a box strictly inside it needs none.
    room = _rectangle(0.0, 0.0, 4.0, 3.0, 0.0, False)
    assert room._rectangle and not _rectangle(0.0, 0.0, 4.0, 3.0, 10.0, False)._rectangle
    assert not HEX._rectangle and not L_ROOM._rectangle
    obj = box_object("o", (2.0, 0.5, 1.5), (0.0, 0.0, 30.0), (1.0, 1.0, 1.0))
    assert inside(obj, room)
    assert "plan" not in vars(world_box(obj)) and "points" not in vars(world_box(obj))
    assert _polygon_walk(obj, room)


transforms = st.builds(
    Transform,
    st.tuples(*[st.floats(-5.0, 5.0) for _ in range(3)]),
    st.one_of(rotations, quarter_turns),
    st.tuples(*[st.floats(0.2, 2.0) for _ in range(3)]),
)
dimension_tuples = st.tuples(*[st.floats(0.1, 3.0) for _ in range(3)])


@given(st.lists(st.tuples(st.booleans(), transforms, dimension_tuples, st.integers(0, 3)), max_size=12))
@settings(max_examples=200, deadline=None)
def test_world_box_follows_every_reassignment(steps):
    # Each step reassigns the object's transform or dimensions: to a new
    # value, or (index 0-2) back to an earlier value object, or to an equal
    # copy of the current one. A copy taken along the way keeps its own box.
    obj = SceneObject("o")
    seen = [(obj.transform, obj.dimensions)]
    copies = []
    for is_transform, transform, dimensions, back in steps:
        if back < len(seen) - 1 and back < 3:
            transform, dimensions = seen[back]
        elif back == 3:
            transform = Transform(obj.transform.pos, obj.transform.rot, obj.transform.scale)
            dimensions = tuple(obj.dimensions)
        if is_transform:
            obj.transform = transform
        else:
            obj.dimensions = dimensions
        seen.append((obj.transform, obj.dimensions))
        copies.append(obj.copy())
        for each in (obj, *copies):
            t = each.transform
            fresh = _oriented_box.__wrapped__(each.dimensions, t.scale, t.rot, t.pos)
            box = world_box(each)
            assert (box.center, box.axes, box.half_extents, box.bounds) == (
                fresh.center, fresh.axes, fresh.half_extents, fresh.bounds
            )
            assert box.points == fresh.points


@given(coords, rotations, scales)
@settings(max_examples=100, deadline=None)
def test_box_caches_its_corners_and_bounds(pos, rot, scale):
    box = world_box(box_object("o", pos, rot, scale))
    corners = box.corners()
    assert corners.shape == (8, 3)
    assert box.bounds == tuple(corners.min(axis=0).tolist() + corners.max(axis=0).tolist())


def _box_fields(dimensions, scale, rot, pos) -> dict:
    obj = SceneObject("o", dimensions=dimensions, transform=Transform(pos=pos, rot=rot, scale=scale))
    box = world_box(obj)
    return {"axes": box.axes, "points": box.points, "plan": box.plan, "bounds": box.bounds}


@given(sizes, sizes, quarter_turns, positions)
@settings(max_examples=300, deadline=None)
@example((1.0, 1.0, 1.0), (0.45, 0.8, 1.37), (0.0, 0.0, 180.0), (3.3, 0.4, 7.1))
def test_box_equals_numpy_reference_at_quarter_turns(dimensions, scale, rot, pos):
    assert _box_fields(dimensions, scale, rot, pos) == box_reference(dimensions, scale, rot, pos)


def _close(p, q) -> bool:
    return all(abs(x - y) <= 1e-12 for x, y in zip(p, q))


@given(sizes, sizes, st.one_of(any_rotation, rotations), positions)
@settings(max_examples=300, deadline=None)
def test_box_matches_numpy_reference_to_rounding(dimensions, scale, rot, pos):
    got = _box_fields(dimensions, scale, rot, pos)
    ref = box_reference(dimensions, scale, rot, pos)
    for name in ("axes", "points"):
        assert all(_close(p, q) for p, q in zip(got[name], ref[name], strict=True)), name
    assert _close(got["bounds"], ref["bounds"])
    # Corners that differ only in rounding may collapse into one plan point
    # on one side and not the other, so compare the plans as point sets.
    for p in got["plan"]:
        assert any(_close(p, q) for q in ref["plan"])
    for q in ref["plan"]:
        assert any(_close(p, q) for p in got["plan"])


contact_gaps = st.sampled_from(
    [0.0, _EPS - 1e-12, _EPS, _EPS + 1e-12, -(_EPS - 1e-12), -_EPS, -(_EPS + 1e-12)]
)


@given(
    coords,
    st.one_of(quarter_turns, rotations),
    scales,
    st.tuples(*[st.floats(-0.3, 0.3) for _ in range(3)]),
    st.one_of(quarter_turns, rotations, any_rotation),
    scales,
    st.integers(0, 2),
    st.sampled_from([-1.0, 1.0]),
    st.one_of(contact_gaps, st.floats(-0.05, 0.05)),
)
@settings(max_examples=400, deadline=None)
@example((0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 90.0),
         (0.4, 0.3, 0.2), 0, 1.0, 0.0)
@example((0.5, 0.5, 0.5), (0.0, 0.0, 90.0), (0.5, 0.4, 0.3), (0.1, 0.0, -0.1), (0.0, 0.0, 270.0),
         (0.4, 0.3, 0.2), 1, -1.0, -_EPS)
@example((0.5, 0.5, 0.5), (0.0, 0.0, 180.0), (0.5, 0.4, 0.3), (0.1, 0.2, -0.1), (0.0, 0.0, 0.0),
         (0.4, 0.3, 0.2), 2, 1.0, _EPS + 1e-12)
def test_bounds_reject_only_pairs_the_sat_reference_calls_apart(
    pos_a, rot_a, scale_a, offset, rot_b, scale_b, k, sign, gap
):
    # b is centred near a on the other two world axes, and its bounds start
    # `gap` beyond a's along world axis k (a negative gap overlaps them).
    a = box_object("a", pos_a, rot_a, scale_a)
    ba = world_box(a).bounds
    probe = world_box(box_object("b", (0.0, 0.0, 0.0), rot_b, scale_b)).bounds
    pos_b = [c + d for c, d in zip(world_box(a).center, offset)]
    pos_b[k] = ba[k + 3] + gap - probe[k] if sign > 0 else ba[k] - gap - probe[k + 3]
    b = box_object("b", tuple(pos_b), rot_b, scale_b)
    apart = bounds_apart(world_box(a).bounds, world_box(b).bounds)
    assert apart == bounds_apart(world_box(b).bounds, world_box(a).bounds)
    if apart:
        assert sat_reference(world_box(a), world_box(b))[0] <= _EPS
        assert not collides(a, b)
