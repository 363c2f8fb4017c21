"""Brute-force geometry oracles: grid-sampling collision/containment and
ray-casting point-in-polygon. Independent of the implementations under
test (those use separating axes and winding numbers). `sat_reference` and
`box_reference` are the numpy formulations of the separating-axis test and
of box construction that the scalar code in `sthl.scene` replaced, kept as
the references for differential tests."""

from __future__ import annotations

import math

import numpy as np

from sthl.scene import OrientedBox, Region, SceneObject, world_box

_EPS = 1e-9

GRID = 0.01  # meters


def _local_frame(obj: SceneObject):
    box = world_box(obj)
    center = np.array(box.center)
    axes = np.array(box.axes)  # rows: local axes in world coordinates
    half = np.array(box.half_extents)
    return center, axes, half


def points_in_box(points: np.ndarray, obj: SceneObject, slack: float = 0.0) -> np.ndarray:
    """Boolean mask: which world points fall inside the object's box."""
    center, axes, half = _local_frame(obj)
    local = (points - center) @ axes.T
    return (np.abs(local) <= half + slack).all(axis=1)


def grid_collides(a: SceneObject, b: SceneObject) -> bool:
    """Dense-grid overlap test: do any sample points lie in both boxes?"""
    ca = world_box(a).corners()
    cb = world_box(b).corners()
    lo = np.maximum(ca.min(axis=0), cb.min(axis=0))
    hi = np.minimum(ca.max(axis=0), cb.max(axis=0))
    if (hi - lo <= 0).any():
        return False
    axes = [np.arange(lo[i], hi[i] + GRID / 2, GRID) for i in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    if pts.size == 0:
        return False
    return bool((points_in_box(pts, a) & points_in_box(pts, b)).any())


def raycast_point_in_polygon(x: float, z: float, polygon) -> bool:
    """Classic even-odd ray casting (horizontal ray toward +x)."""
    return bool(raycast_many(np.array([[x, z]]), polygon)[0])


def raycast_many(pts_xz: np.ndarray, polygon) -> np.ndarray:
    """Vectorized even-odd ray casting over many (x, z) points."""
    x = pts_xz[:, 0]
    z = pts_xz[:, 1]
    inside = np.zeros(len(pts_xz), dtype=bool)
    n = len(polygon)
    for i in range(n):
        ax, az = polygon[i]
        bx, bz = polygon[(i + 1) % n]
        straddles = (az > z) != (bz > z)
        if not straddles.any():
            continue
        cross_x = ax + (z - az) * (bx - ax) / (bz - az) if bz != az else np.full_like(z, np.inf)
        inside ^= straddles & (x < cross_x)
    return inside


def corner_inside_oracle(obj: SceneObject, region: Region) -> bool:
    """Independent check of the containment contract: all 8 corners lie in
    the floor polygon (ray casting) and the vertical band."""
    corners = world_box(obj).corners()
    if (corners[:, 1] < region.floor_y).any():
        return False
    if (corners[:, 1] > region.floor_y + region.height).any():
        return False
    return bool(raycast_many(corners[:, [0, 2]], region.vertices).all())


def grid_inside(obj: SceneObject, region: Region) -> bool:
    """All grid samples of the box volume lie in the region prism.

    Equivalent to the corner-based containment contract only for convex
    regions; around concave corners a box can pass the corner test while
    its body crosses the notch.
    """
    corners = world_box(obj).corners()
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    axes = [np.arange(lo[i], hi[i] + GRID / 2, GRID) for i in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = pts[points_in_box(pts, obj, slack=1e-9)]
    pts = np.vstack([pts, corners])
    if (pts[:, 1] < region.floor_y).any() or (pts[:, 1] > region.floor_y + region.height).any():
        return False
    return bool(raycast_many(pts[:, [0, 2]], region.vertices).all())


def _box_arrays(box: OrientedBox) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.array(box.center), np.array(box.axes), np.array(box.half_extents)


def sat_reference(box_a: OrientedBox, box_b: OrientedBox) -> tuple[float, np.ndarray]:
    """(margin, axis) of the 15-axis separating-axis test, in numpy."""
    ca, axes_a, ha = _box_arrays(box_a)
    cb, axes_b, hb = _box_arrays(box_b)
    t = cb - ca

    candidates = [axes_a[i] for i in range(3)] + [axes_b[i] for i in range(3)]
    for i in range(3):
        for j in range(3):
            cross = np.cross(axes_a[i], axes_b[j])
            norm = float(np.linalg.norm(cross))
            if norm > 1e-9:
                candidates.append(cross / norm)

    best_margin = math.inf
    best_axis = candidates[0]
    for axis in candidates:
        ra = float(np.abs(axes_a @ axis) @ ha)
        rb = float(np.abs(axes_b @ axis) @ hb)
        depth = ra + rb - abs(float(t @ axis))
        if depth < best_margin:
            best_margin = depth
            best_axis = axis
            if depth <= -_EPS:
                break  # separated; no smaller margin needed
    return best_margin, np.array(best_axis)


_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float
)


def rotation_matrix(rot) -> np.ndarray:
    """World-from-local rotation for degrees (rx, rz, ry), applied x -> z -> y."""
    rx, rz, ry = (math.radians(a) for a in rot)
    cx, sx = math.cos(rx), math.sin(rx)
    cz, sz = math.cos(rz), math.sin(rz)
    cy, sy = math.cos(ry), math.sin(ry)
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    return my @ mz @ mx


def box_reference(dimensions, scale, rot, pos) -> dict:
    """`axes`, `points`, `plan` and `bounds` of a world box, built in numpy."""
    axes = tuple(map(tuple, rotation_matrix(rot).T.tolist()))  # columns, as floats
    half = tuple(d * s / 2.0 for d, s in zip(dimensions, scale))
    offsets = (_CORNER_SIGNS * np.array(half)) @ np.array(axes)
    corners = np.array(pos) + offsets
    points = tuple(map(tuple, corners.tolist()))
    plan = tuple(dict.fromkeys((x, z) for x, _, z in points))
    bounds = corners.min(axis=0).tolist() + corners.max(axis=0).tolist()
    return {"axes": axes, "points": points, "plan": plan, "bounds": tuple(bounds)}
