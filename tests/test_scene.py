"""Geometry tests: boxes, collision, containment, support, walls."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from sthl.constraints import compile_constraints, evaluate
from sthl.dsl import parse, typecheck
from sthl.errors import DegenerateRegion, EvalError
from sthl.scene import (
    Region,
    SceneLayout,
    SceneObject,
    Transform,
    collides,
    collision_margin,
    inside,
    signed_area,
    supported,
    thicken_walls,
    world_box,
)

from geom_oracles import grid_collides, grid_inside, raycast_point_in_polygon

L_ROOM = Region(
    "lroom",
    ((0.0, 0.0), (6.0, 0.0), (6.0, 3.0), (3.0, 3.0), (3.0, 6.0), (0.0, 6.0)),
)


def cube(pos=(0.0, 0.0, 0.0), scale=(1.0, 1.0, 1.0), rot=(0.0, 0.0, 0.0), oid="o"):
    return SceneObject(oid, transform=Transform(pos=pos, rot=rot, scale=scale))


# ---------------------------------------------------------------------------
# world_box


def test_identity_unit_cube_corners():
    corners = world_box(cube()).corners()
    expected = {(sx / 2, sy / 2, sz / 2) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
    assert {tuple(np.round(c, 12)) for c in corners} == expected


def test_pure_scaling_extents():
    corners = world_box(cube(scale=(2.0, 1.0, 1.0))).corners()
    assert corners[:, 0].max() - corners[:, 0].min() == pytest.approx(2.0)
    assert corners[:, 1].max() - corners[:, 1].min() == pytest.approx(1.0)


def oracle_rotate(points: np.ndarray, rx: float, rz: float, ry: float) -> np.ndarray:
    """Apply the three axis rotations one by one, x then z then y."""
    out = points.copy()
    for axis, angle in (("x", rx), ("z", rz), ("y", ry)):
        rad = math.radians(angle)
        c, s = math.cos(rad), math.sin(rad)
        if axis == "x":
            m = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        elif axis == "z":
            m = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        else:
            m = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
        out = out @ m.T
    return out


def _rotate(rot, v):
    """`v` in world space for rotation `rot`, through the axes of `world_box`."""
    axes = world_box(cube(rot=rot)).axes
    return np.array(v) @ np.array(axes)


def test_yaw_90_maps_front_to_plus_x():
    front = world_box(cube(rot=(0.0, 0.0, 90.0))).axes[2]  # local +z
    assert front == pytest.approx([1.0, 0.0, 0.0])


@pytest.mark.parametrize("seed", range(20))
def test_rotation_against_sequential_matrix_oracle(seed):
    rng = random.Random(seed)
    rot = (rng.uniform(-180, 180), rng.uniform(-180, 180), rng.uniform(-180, 180))
    obj = cube(pos=(1.0, 2.0, 3.0), scale=(0.8, 1.3, 0.5), rot=rot)
    corners = world_box(obj).corners()
    base = cube(scale=(0.8, 1.3, 0.5))
    local = world_box(base).corners()
    expected = oracle_rotate(local, *rot) + np.array([1.0, 2.0, 3.0])
    assert sorted(map(tuple, np.round(corners, 9))) == pytest.approx(
        sorted(map(tuple, np.round(expected, 9)))
    )


def test_rotation_order_is_x_then_z_then_y():
    # Applying (90, 0, 0) then measuring differs from z-then-x composition.
    px = _rotate((90.0, 90.0, 0.0), [0.0, 1.0, 0.0])
    # x first: +y -> +z; z second leaves +z alone => (0, 0, 1)
    assert px == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
    # If z were applied first: +y -> -x, then x leaves -x alone => (-1, 0, 0)
    wrong = _rotate((90.0, 0.0, 0.0), _rotate((0.0, 90.0, 0.0), [0.0, 1.0, 0.0]))
    assert wrong == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)


def test_volume_invariant_under_rotation():
    rng = random.Random(5)
    for _ in range(25):
        scale = (rng.uniform(0.2, 2), rng.uniform(0.2, 2), rng.uniform(0.2, 2))
        rot = (rng.uniform(0, 360), rng.uniform(0, 360), rng.uniform(0, 360))
        box = world_box(cube(scale=scale, rot=rot))
        assert box.volume() == pytest.approx(scale[0] * scale[1] * scale[2], rel=1e-9)


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        Transform(scale=(0.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# collides


def test_disjoint_cubes():
    assert not collides(cube(), cube(pos=(3.0, 0.0, 0.0), oid="b"))


def test_half_overlapping_cubes():
    assert collides(cube(), cube(pos=(0.5, 0.0, 0.0), oid="b"))


def test_touching_faces_do_not_collide():
    assert not collides(cube(), cube(pos=(1.0, 0.0, 0.0), oid="b"))


def test_collides_is_symmetric():
    rng = random.Random(11)
    for _ in range(50):
        a = cube(
            pos=(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
            rot=(rng.uniform(0, 360), 0.0, rng.uniform(0, 360)),
            oid="a",
        )
        b = cube(
            pos=(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
            rot=(0.0, rng.uniform(0, 360), 0.0),
            oid="b",
        )
        assert collides(a, b) == collides(b, a)


def test_self_collision_positive_volume():
    a = cube()
    assert collides(a, a)


def random_pair(rng: random.Random):
    def rand_obj(oid):
        return cube(
            pos=(rng.uniform(0, 1.2), rng.uniform(0, 1.2), rng.uniform(0, 1.2)),
            scale=(rng.uniform(0.2, 0.7), rng.uniform(0.2, 0.7), rng.uniform(0.2, 0.7)),
            rot=(rng.uniform(0, 360), rng.uniform(0, 360), rng.uniform(0, 360)),
            oid=oid,
        )

    return rand_obj("a"), rand_obj("b")


def test_collision_matches_grid_oracle():
    rng = random.Random(99)
    checked = 0
    for _ in range(120):
        a, b = random_pair(rng)
        margin = collision_margin(a, b)
        if abs(margin) < 0.02:
            continue  # sampling-resolution exclusion band
        checked += 1
        assert collides(a, b) == grid_collides(a, b), (a.transform, b.transform)
    assert checked >= 60


# ---------------------------------------------------------------------------
# inside


def test_deep_interior():
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    assert inside(cube(pos=(5.0, 0.5, 5.0)), room)


def test_straddling_wall():
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    assert not inside(cube(pos=(0.2, 0.5, 5.0)), room)


def test_above_ceiling_is_outside():
    room = Region("room", ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)), height=2.0)
    assert not inside(cube(pos=(2.0, 1.8, 2.0)), room)


def test_tangent_to_wall_counts_inside():
    room = Region("room", ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)))
    assert inside(cube(pos=(0.5, 0.5, 2.0)), room)


def test_inside_monotone_under_shrinking():
    room = Region("room", ((0.0, 0.0), (5.0, 0.0), (5.0, 5.0), (0.0, 5.0)))
    rng = random.Random(3)
    for _ in range(40):
        obj = cube(
            pos=(rng.uniform(0, 5), rng.uniform(0, 2), rng.uniform(0, 5)),
            scale=(rng.uniform(0.3, 2), rng.uniform(0.3, 2), rng.uniform(0.3, 2)),
            rot=(0.0, 0.0, rng.uniform(0, 360)),
        )
        if not inside(obj, room):
            continue
        s = obj.transform.scale
        shrunk = cube(pos=obj.transform.pos, rot=obj.transform.rot,
                      scale=(s[0] * 0.5, s[1] * 0.5, s[2] * 0.5))
        assert inside(shrunk, room)


def test_inside_l_shaped_room_matches_oracle():
    rng = random.Random(17)
    checked = 0
    for _ in range(120):
        obj = cube(
            pos=(rng.uniform(0, 6), rng.uniform(0.3, 2.5), rng.uniform(0, 6)),
            scale=(rng.uniform(0.2, 1.0), rng.uniform(0.2, 0.8), rng.uniform(0.2, 1.0)),
            rot=(0.0, 0.0, rng.uniform(0, 360)),
        )
        corners = world_box(obj).corners()
        margins = [
            _boundary_margin(float(x), float(z)) for x, z in corners[:, [0, 2]]
        ]
        vertical = min(
            corners[:, 1].min() - L_ROOM.floor_y,
            L_ROOM.floor_y + L_ROOM.height - corners[:, 1].max(),
        )
        if min(margins) < 0.02 or abs(vertical) < 0.02:
            continue
        checked += 1
        assert inside(obj, L_ROOM) == grid_inside(obj, L_ROOM)
    assert checked >= 50


def _boundary_margin(x: float, z: float) -> float:
    from sthl.scene import distance_to_boundary

    return distance_to_boundary((x, z), L_ROOM.vertices)


def test_raycast_oracle_agrees_on_plain_points():
    rng = random.Random(23)
    from sthl.scene import point_in_polygon

    for _ in range(300):
        x, z = rng.uniform(-1, 7), rng.uniform(-1, 7)
        if _boundary_margin(x, z) < 0.02:
            continue
        assert point_in_polygon((x, z), L_ROOM.vertices) == raycast_point_in_polygon(
            x, z, L_ROOM.vertices
        )


# ---------------------------------------------------------------------------
# supported


def floor_layout(*objects: SceneObject) -> SceneLayout:
    room = Region("room", ((-5.0, -5.0), (5.0, -5.0), (5.0, 5.0), (-5.0, 5.0)))
    for obj in objects:
        obj.region = "room"
    return SceneLayout(regions=[room], objects=list(objects))


def test_resting_on_floor():
    obj = cube(pos=(0.0, 0.5, 0.0))
    assert supported(obj, floor_layout(obj))


def test_floating_cube_unsupported():
    obj = cube(pos=(0.0, 1.0, 0.0))
    assert not supported(obj, floor_layout(obj))


def test_book_on_table():
    table = cube(pos=(0.0, 0.375, 0.0), scale=(1.2, 0.75, 0.8), oid="table")
    book_bottom = 0.375 + 0.75 / 2  # table floor height plus its extent
    book = cube(pos=(0.0, book_bottom + 0.015, 0.0), scale=(0.2, 0.03, 0.15), oid="book")
    assert supported(book, floor_layout(table, book))


def test_overhanging_object_not_supported():
    table = cube(pos=(0.0, 0.375, 0.0), scale=(1.0, 0.75, 1.0), oid="table")
    # Only ~25% of the book's footprint overlaps the table.
    book = cube(pos=(0.85, 0.765, 0.85), scale=(0.8, 0.03, 0.8), oid="book")
    assert not supported(book, floor_layout(table, book))


# ---------------------------------------------------------------------------
# thicken_walls


def test_square_room_wall_offsets():
    room = Region("room", ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)), wall_thickness=0.03)
    spec = thicken_walls(room)
    assert len(spec.walls) == 4
    south = spec.walls[0]
    assert south.inner_start == (0.0, 0.0) and south.inner_end == (4.0, 0.0)
    assert south.outer_start[1] == pytest.approx(-0.03)
    assert south.outer_end[1] == pytest.approx(-0.03)
    assert south.thickness == pytest.approx(0.03)
    for wall in spec.walls:
        assert wall.height == room.height
        assert wall.base_y == room.floor_y


def test_zero_thickness_walls_are_legal():
    room = Region("room", ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)), wall_thickness=0.0)
    spec = thicken_walls(room)
    for wall in spec.walls:
        assert wall.outer_start == pytest.approx(wall.inner_start)
        assert wall.outer_end == pytest.approx(wall.inner_end)


def test_adjacent_rooms_abut_exactly():
    eta = 0.03
    # Rooms separated by a 2*eta gap along x: [0,4] and [4.06, 8.06].
    left = Region("left", ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)), wall_thickness=eta)
    right = Region("right", ((4.0 + 2 * eta, 0.0), (8.0 + 2 * eta, 0.0),
                             (8.0 + 2 * eta, 4.0), (4.0 + 2 * eta, 4.0)), wall_thickness=eta)
    left_spec = thicken_walls(left)
    right_spec = thicken_walls(right)
    left_east = next(w for w in left_spec.walls if w.inner_start == (4.0, 0.0))
    right_west = next(w for w in right_spec.walls if w.inner_end == (4.0 + 2 * eta, 0.0))
    meeting_x = 4.0 + eta
    assert left_east.outer_start[0] == pytest.approx(meeting_x, abs=1e-9)
    assert left_east.outer_end[0] == pytest.approx(meeting_x, abs=1e-9)
    assert right_west.outer_start[0] == pytest.approx(meeting_x, abs=1e-9)
    assert right_west.outer_end[0] == pytest.approx(meeting_x, abs=1e-9)


def test_degenerate_region_rejected():
    collinear = Region("bad", ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
    with pytest.raises(DegenerateRegion):
        thicken_walls(collinear)
    clockwise = Region("cw", ((0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (4.0, 0.0)))
    with pytest.raises(DegenerateRegion):
        thicken_walls(clockwise)


def test_region_validate_checks_simplicity():
    bowtie = Region("bow", ((0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)))
    with pytest.raises(DegenerateRegion):
        bowtie.validate()
    assert signed_area(L_ROOM.vertices) > 0
    L_ROOM.validate()


# ---------------------------------------------------------------------------
# SceneLayout lookups


def test_layout_missing_ids_raise_key_error():
    layout = SceneLayout(regions=[L_ROOM], objects=[cube(oid="a")])
    with pytest.raises(KeyError):
        layout.object("ghost")
    with pytest.raises(KeyError):
        layout.region("ghost")


def test_constraint_on_a_missing_object_raises_eval_error():
    cs = compile_constraints(
        typecheck(parse("region room; object a; object b; assert a.pos.x < b.pos.x;")), seed=0
    )
    layout = SceneLayout(regions=[L_ROOM], objects=[cube(oid="a", pos=(1.0, 0.5, 1.0))])
    ctx = cs.context(layout)
    by_kind = {c.provenance: c for c in cs.constraints if "b" in c.involved}
    with pytest.raises(EvalError, match="^identifier 'b' missing from layout$"):
        evaluate(by_kind["explicit"], ctx)
    with pytest.raises(EvalError, match="^object 'b' missing from layout$"):
        evaluate(by_kind["hidden-gravity"], ctx)
    layout.objects.append(cube(oid="b", pos=(2.0, 0.5, 1.0)))
    assert evaluate(by_kind["explicit"], ctx)


def test_object_copy_is_an_equal_distinct_object():
    original = SceneObject(
        "lamp", "lamp", (0.3, 1.2, 0.3), "brass", "metal", "tall", Transform(pos=(1.0, 0.0, 2.0)),
        "room", preplaced=True,
    )
    clone = original.copy()
    assert clone == original and clone is not original
    assert type(clone) is SceneObject
    clone.transform = Transform(pos=(5.0, 0.0, 5.0))
    assert original.transform == Transform(pos=(1.0, 0.0, 2.0))
    assert clone != original
