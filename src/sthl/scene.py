"""Geometric scene model: transforms, regions, collision and support tests.

Conventions (used consistently across the toolchain):

- Left-handed axes: x is width, y is height (up), z is depth. The front of
  an unrotated object faces +z.
- Rotations are degrees applied about x, then z, then y. Rotation triples
  are stored in that application order: ``rot = (rx, rz, ry)``.
- An object's world-space extents are ``dimensions * scale`` componentwise,
  and its position is the center of its box.
- Region polygons live in the (x, z) floor plane, counterclockwise, with
  positive shoelace area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable

from sthl.errors import DegenerateRegion

if TYPE_CHECKING:
    import numpy as np

Vec = tuple[float, float, float]
Point2 = tuple[float, float]

#: Snap distance for the gravity/support predicate (meters).
SUPPORT_TOLERANCE = 0.005

#: Minimum footprint overlap for one object to support another.
SUPPORT_OVERLAP = 0.5

#: Default wall thickness eta (meters).
WALL_THICKNESS = 0.03

_EPS = 1e-9
_BOUNDARY_EPS = 1e-7
# Bounds overlap `bounds_apart` keeps below _EPS: more than the rounding
# of a separating-axis depth at coordinates up to about a kilometre.
_BOUNDS_MARGIN = 1e-12


# ---------------------------------------------------------------------------
# Core data types


@dataclass(frozen=True)
class Transform:
    pos: Vec = (0.0, 0.0, 0.0)
    rot: Vec = (0.0, 0.0, 0.0)  # degrees about x, z, y (application order)
    scale: Vec = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.scale):
            raise ValueError(f"scale components must be positive, got {self.scale}")


@dataclass
class SceneObject:
    id: str
    category: str = ""
    dimensions: Vec = (1.0, 1.0, 1.0)
    color: str = ""
    material: str = ""
    features: str = ""
    transform: Transform = field(default_factory=Transform)
    region: str = ""
    #: True when the source program assigned an explicit position.
    preplaced: bool = False

    # (transform, dimensions, box) of the last `world_box` built for this
    # object; not a dataclass field, so equality and repr ignore it.
    _box = None

    def extents(self) -> Vec:
        d, s = self.dimensions, self.transform.scale
        return (d[0] * s[0], d[1] * s[1], d[2] * s[2])

    def copy(self) -> "SceneObject":
        # A shallow copy is exact: `Transform` is frozen, and every other
        # field is a string, a tuple or a bool. It is several times faster
        # than `dataclasses.replace`, which walks every field. The copy
        # shares the cached box, which is keyed on what it was built from.
        clone = object.__new__(SceneObject)
        clone.__dict__.update(self.__dict__)
        return clone


@dataclass(frozen=True)
class Region:
    id: str
    vertices: tuple[Point2, ...]  # (x, z) floor-plane polygon, CCW
    floor_y: float = 0.0
    height: float = 3.0
    wall_thickness: float = WALL_THICKNESS
    floor_texture: str = ""
    wall_texture: str = ""

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError(f"region {self.id!r} needs at least 3 vertices")
        if self.wall_thickness < 0:
            raise ValueError("wall thickness must be non-negative")
        xs = [v[0] for v in self.vertices]
        zs = [v[1] for v in self.vertices]
        bounds = (min(xs), min(zs), max(xs), max(zs))
        # Set once here and read by `bounds()` and `inside`; not fields, so
        # equality, hashing and repr see only the declared ones.
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_rectangle", _is_rectangle(self.vertices, bounds))

    def validate(self) -> None:
        """Check the polygon is counterclockwise and non-self-intersecting."""
        if signed_area(self.vertices) <= 0:
            raise DegenerateRegion(
                f"region {self.id!r} polygon must be counterclockwise with positive area"
            )
        if not _is_simple(self.vertices):
            raise DegenerateRegion(f"region {self.id!r} polygon self-intersects")

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_z, max_x, max_z) of the floor polygon."""
        return self._bounds  # type: ignore[attr-defined]


def _is_rectangle(vertices: tuple[Point2, ...], bounds: tuple[float, ...]) -> bool:
    """True iff the polygon runs around the four corners of `bounds`, each
    edge along a world axis, with a finite, positive width and depth."""
    min_x, min_z, max_x, max_z = bounds
    width, depth = max_x - min_x, max_z - min_z
    if len(vertices) != 4 or not (0 < width < math.inf and 0 < depth < math.inf):
        return False
    if set(vertices) != {(min_x, min_z), (max_x, min_z), (max_x, max_z), (min_x, max_z)}:
        return False
    # Four distinct corners joined by axis-parallel edges form the rectangle's
    # own cycle, never a bowtie through its diagonals.
    return all(a[0] == b[0] or a[1] == b[1] for a, b in zip(vertices, vertices[1:] + vertices[:1]))


@dataclass(frozen=True)
class Connection:
    region_a: str
    region_b: str
    category: str = "door"
    dimensions: Vec = (1.0, 2.0, 0.1)


@dataclass
class SceneLayout:
    regions: list[Region] = field(default_factory=list)
    objects: list[SceneObject] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)

    def object(self, object_id: str) -> SceneObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(object_id)

    def region(self, region_id: str) -> Region:
        for region in self.regions:
            if region.id == region_id:
                return region
        raise KeyError(region_id)

    def region_of(self, obj: SceneObject) -> Region:
        return self.region(obj.region)

    def copy(self) -> "SceneLayout":
        return SceneLayout(
            regions=list(self.regions),
            objects=[obj.copy() for obj in self.objects],
            connections=list(self.connections),
        )


class OrientedBox:
    """An object's box in world space.

    `bounds`, the axis-aligned bounds of the corners as (min_x, min_y,
    min_z, max_x, max_y, max_z), is computed with the box. The 8 corners
    (`points`, in `corners()` order) and their distinct (x, z) floor-plane
    projections (`plan`, in corner order; 4 for boxes turned about y only)
    are computed on first read, from the same sums, so every read gives the
    same bits.
    """

    def __init__(self, center: Vec, axes: tuple[Vec, Vec, Vec], half_extents: Vec) -> None:
        self.center = center
        self.axes = axes  # world directions of local x, y, z
        self.half_extents = half_extents
        # Corner (s0, s1, s2), signs in {-1, 1} with s2 fastest, is
        # center + ((s0*h0*a + s1*h1*b) + s2*h2*c), summed in the order of
        # the numpy matrix product this replaced. A sign flip is exact, so
        # each coordinate needs only the four sums v1..v4 of _spread and
        # their negations.
        h0, h1, h2 = half_extents
        a, b, c = axes
        xs = _spread(center[0], h0 * a[0], h1 * b[0], h2 * c[0])
        ys = _spread(center[1], h0 * a[1], h1 * b[1], h2 * c[1])
        zs = _spread(center[2], h0 * a[2], h1 * b[2], h2 * c[2])
        self._spreads = (xs, ys, zs)
        self.bounds = (min(xs), min(ys), min(zs), max(xs), max(ys), max(zs))

    @cached_property
    def points(self) -> tuple[Vec, ...]:
        return tuple(zip(*self._spreads))

    @cached_property
    def plan(self) -> tuple[Point2, ...]:
        xs, _, zs = self._spreads
        return tuple(dict.fromkeys(zip(xs, zs)))

    def corners(self) -> np.ndarray:
        """The 8 world-space corners, shape (8, 3)."""
        import numpy as np  # only callers of this method need numpy

        return np.array(self.points)

    def volume(self) -> float:
        hx, hy, hz = self.half_extents
        return 8.0 * hx * hy * hz


def _spread(m: float, p: float, q: float, r: float) -> tuple[float, ...]:
    """One coordinate of the 8 corners, in corner order, for the center
    coordinate `m` and the scaled axis components p, q and r."""
    s, d = p + q, p - q
    v1, v2, v3, v4 = s + r, s - r, d + r, d - r
    return (m - v1, m - v2, m - v3, m - v4, m + v4, m + v3, m + v2, m + v1)


# ---------------------------------------------------------------------------
# Rotation


@lru_cache(maxsize=1024)
def _rotation_axes(rot: Vec) -> tuple[Vec, Vec, Vec]:
    """World directions of the local x, y and z axes for degrees (rx, rz, ry),
    applied x -> z -> y: the columns of Ry @ Rz @ Rx."""
    rx, rz, ry = (math.radians(a) for a in rot)
    cx, sx = math.cos(rx), math.sin(rx)
    cz, sz = math.cos(rz), math.sin(rz)
    cy, sy = math.cos(ry), math.sin(ry)
    return (
        (cy * cz, sz, -sy * cz),
        (sy * sx - cy * sz * cx, cz * cx, sy * sz * cx + cy * sx),
        (cy * sz * sx + sy * cx, -cz * sx, cy * cx - sy * sz * sx),
    )


@lru_cache(maxsize=65536)
def _oriented_box(dimensions: Vec, scale: Vec, rot: Vec, pos: Vec) -> OrientedBox:
    half = tuple(d * s / 2.0 for d, s in zip(dimensions, scale))
    return OrientedBox(pos, _rotation_axes(rot), half)  # type: ignore[arg-type]


def world_box(obj: SceneObject) -> OrientedBox:
    """Oriented bounding box of an object in world space.

    The object keeps the box it was last given, with the `transform` and
    `dimensions` objects it was built from. Both are immutable, so while
    neither attribute has been reassigned the kept box is exact; otherwise
    a box is built (or found) by `_oriented_box`.
    """
    t = obj.transform
    kept = obj._box
    if kept is not None and kept[0] is t and kept[1] is obj.dimensions:
        return kept[2]
    box = _oriented_box(obj.dimensions, t.scale, t.rot, t.pos)
    obj._box = (t, obj.dimensions, box)
    return box


# ---------------------------------------------------------------------------
# Collision (separating axes)


def collision_margin(a: SceneObject, b: SceneObject) -> float:
    """Signed overlap between two objects' boxes.

    Positive values are the penetration depth along the cheapest separating
    direction; negative values are the clearance along the best separating
    axis. Zero means exact face contact.
    """
    margin, _ = _sat(world_box(a), world_box(b))
    return margin


def bounds_apart(ba: tuple[float, ...], bb: tuple[float, ...]) -> bool:
    """True iff two boxes' axis-aligned bounds (`OrientedBox.bounds`)
    overlap by at most _EPS - _BOUNDS_MARGIN on some world axis.

    Such boxes neither collide nor need separating: their penetration
    depth never exceeds the overlap along any one axis, so the
    separating-axis test gives them a depth of at most _EPS. The margin
    keeps that true when the test's rounding lifts a depth just above the
    bounds' overlap (at an overlap of exactly _EPS, by about 1e-16).
    """
    limit = _EPS - _BOUNDS_MARGIN
    return (
        min(ba[3], bb[3]) - max(ba[0], bb[0]) <= limit
        or min(ba[4], bb[4]) - max(ba[1], bb[1]) <= limit
        or min(ba[5], bb[5]) - max(ba[2], bb[2]) <= limit
    )


def collides(a: SceneObject, b: SceneObject) -> bool:
    """True iff the boxes overlap with positive volume; face contact is not a collision.

    Boxes that `bounds_apart` rejects are apart without the separating-axis
    test; the reject is exact.
    """
    if bounds_apart(world_box(a).bounds, world_box(b).bounds):
        return False
    return collision_margin(a, b) > _EPS


def minimum_translation(a: SceneObject, b: SceneObject) -> tuple[float, Vec]:
    """Penetration depth and the unit world direction that moves `b` off
    `a` fastest."""
    box_a, box_b = world_box(a), world_box(b)
    margin, (l0, l1, l2) = _sat(box_a, box_b)
    (a0, a1, a2), (b0, b1, b2) = box_a.center, box_b.center
    if ((b0 - a0) * l0 + (b1 - a1) * l1) + (b2 - a2) * l2 < 0:
        return margin, (-l0, -l1, -l2)
    return margin, (l0, l1, l2)


def _sat(box_a: OrientedBox, box_b: OrientedBox) -> tuple[float, Vec]:
    """Separating-axis test of two oriented boxes (Gottschalk et al., OBBTree).

    Tries the 3 face axes of each box, then the normalized cross product of
    every pair of edge axes (skipping near-parallel pairs), and returns the
    smallest overlap depth with its axis. It stops at the first axis that
    separates the boxes by at least _EPS. Each projection is summed in a
    fixed order; depths agree with a numpy formulation only up to rounding.
    Where two candidate axes tie within rounding (equal half extents at a
    yaw that is not a multiple of 90 degrees), either may be returned, or
    its negation when the centers coincide along it.
    """
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = box_a.axes
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = box_b.axes
    ha0, ha1, ha2 = box_a.half_extents
    hb0, hb1, hb2 = box_b.half_extents
    (a0, a1, a2), (b0, b1, b2) = box_a.center, box_b.center
    t0, t1, t2 = b0 - a0, b1 - a1, b2 - a2

    best_margin = math.inf
    best_axis = box_a.axes[0]
    for axis in _candidate_axes(box_a.axes, box_b.axes):
        l0, l1, l2 = axis
        ra = (
            abs((p01 * l1 + p00 * l0) + p02 * l2) * ha0
            + abs((p11 * l1 + p10 * l0) + p12 * l2) * ha1
        ) + abs((p21 * l1 + p20 * l0) + p22 * l2) * ha2
        rb = (
            abs((q01 * l1 + q00 * l0) + q02 * l2) * hb0
            + abs((q11 * l1 + q10 * l0) + q12 * l2) * hb1
        ) + abs((q21 * l1 + q20 * l0) + q22 * l2) * hb2
        depth = ra + rb - abs((t0 * l0 + t1 * l1) + t2 * l2)
        if depth < best_margin:
            best_margin = depth
            best_axis = axis
            if depth <= -_EPS:
                break  # separated; no smaller margin needed
    return best_margin, best_axis


def _candidate_axes(axes_a: tuple[Vec, Vec, Vec], axes_b: tuple[Vec, Vec, Vec]):
    """The 15 SAT candidates in order: faces of a, faces of b, then edge
    cross products, computed only when the faces do not separate."""
    yield from axes_a
    yield from axes_b
    for a0, a1, a2 in axes_a:
        for b0, b1, b2 in axes_b:
            c0 = a1 * b2 - a2 * b1
            c1 = a2 * b0 - a0 * b2
            c2 = a0 * b1 - a1 * b0
            norm = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
            if norm > 1e-9:
                yield (c0 / norm, c1 / norm, c2 / norm)


# ---------------------------------------------------------------------------
# Polygon helpers


def signed_area(polygon: tuple[Point2, ...]) -> float:
    total = 0.0
    n = len(polygon)
    for i in range(n):
        x1, z1 = polygon[i]
        x2, z2 = polygon[(i + 1) % n]
        total += x1 * z2 - x2 * z1
    return total / 2.0


def _is_simple(polygon: tuple[Point2, ...]) -> bool:
    n = len(polygon)
    segs = [(polygon[i], polygon[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent segments share a vertex
            if _segments_cross(*segs[i], *segs[j]):
                return False
    return True


def _segments_cross(p1: Point2, p2: Point2, q1: Point2, q2: Point2) -> bool:
    def orient(a: Point2, b: Point2, c: Point2) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def distance_to_boundary(point: Point2, polygon: tuple[Point2, ...]) -> float:
    """Distance from a point to the closest polygon edge."""
    best = math.inf
    n = len(polygon)
    px, pz = point
    for i in range(n):
        ax, az = polygon[i]
        bx, bz = polygon[(i + 1) % n]
        dx, dz = bx - ax, bz - az
        length_sq = dx * dx + dz * dz
        if length_sq == 0:
            d = math.hypot(px - ax, pz - az)
        else:
            u = max(0.0, min(1.0, ((px - ax) * dx + (pz - az) * dz) / length_sq))
            d = math.hypot(px - (ax + u * dx), pz - (az + u * dz))
        best = min(best, d)
    return best


def point_in_polygon(point: Point2, polygon: tuple[Point2, ...]) -> bool:
    """Winding-number membership; points within `_BOUNDARY_EPS` of the
    boundary count inside."""
    winding = 0
    px, pz = point
    n = len(polygon)
    for i in range(n):
        ax, az = polygon[i]
        bx, bz = polygon[(i + 1) % n]
        if az <= pz:
            if bz > pz and (bx - ax) * (pz - az) - (px - ax) * (bz - az) > 0:
                winding += 1
        elif bz <= pz and (bx - ax) * (pz - az) - (px - ax) * (bz - az) < 0:
            winding -= 1
    return winding != 0 or distance_to_boundary(point, polygon) <= _BOUNDARY_EPS


def convex_hull(points: Iterable[Point2]) -> list[Point2]:
    """Monotone-chain hull of 2D points, counterclockwise."""
    pts = sorted({(float(x), float(z)) for x, z in points})
    if len(pts) <= 2:
        return list(pts)

    def cross(o: Point2, a: Point2, b: Point2) -> float:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[Point2] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point2] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def clip_convex(subject: list[Point2], clip: list[Point2]) -> list[Point2]:
    """Sutherland-Hodgman intersection of two convex CCW polygons."""
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, az = clip[i]
        bx, bz = clip[(i + 1) % n]
        new_output: list[Point2] = []
        for j, cur in enumerate(output):
            prev = output[j - 1]
            cur_in = (bx - ax) * (cur[1] - az) - (bz - az) * (cur[0] - ax) >= 0
            prev_in = (bx - ax) * (prev[1] - az) - (bz - az) * (prev[0] - ax) >= 0
            if cur_in:
                if not prev_in:
                    new_output.append(_line_intersect(prev, cur, (ax, az), (bx, bz)))
                new_output.append(cur)
            elif prev_in:
                new_output.append(_line_intersect(prev, cur, (ax, az), (bx, bz)))
        output = new_output
    return output


def _line_intersect(p1: Point2, p2: Point2, a: Point2, b: Point2) -> Point2:
    x1, z1 = p1
    x2, z2 = p2
    x3, z3 = a
    x4, z4 = b
    denom = (x1 - x2) * (z3 - z4) - (z1 - z2) * (x3 - x4)
    if abs(denom) < 1e-15:
        return p2
    t = ((x1 - x3) * (z3 - z4) - (z1 - z3) * (x3 - x4)) / denom
    return (x1 + t * (x2 - x1), z1 + t * (z2 - z1))


def footprint(obj: SceneObject) -> list[Point2]:
    """Convex hull of the object's box projected onto the floor plane."""
    return convex_hull(world_box(obj).plan)


def polygon_area(polygon: list[Point2]) -> float:
    return abs(signed_area(tuple(polygon)))


def footprint_overlap(a: SceneObject, b: SceneObject) -> float:
    """Area of overlap between two objects' floor footprints."""
    inter = clip_convex(footprint(a), footprint(b))
    if len(inter) < 3:
        return 0.0
    return polygon_area(inter)


# ---------------------------------------------------------------------------
# Containment and support


def inside(obj: SceneObject, region: Region) -> bool:
    """True iff all 8 box corners lie in the region's floor polygon and height band.

    In a rectangular region, a box whose x and z bounds lie strictly inside
    the rectangle is inside without the polygon walk. The accept is exact:
    for such a corner every difference and product in `point_in_polygon`'s
    winding test has an exact sign (the rectangle's width and depth are
    finite), so the walk would count a winding of +1 or -1.
    """
    box = world_box(obj)
    min_x, min_y, min_z, max_x, max_y, max_z = box.bounds
    if min_y < region.floor_y - _BOUNDARY_EPS:
        return False
    if max_y > region.floor_y + region.height + _BOUNDARY_EPS:
        return False
    if region._rectangle:  # type: ignore[attr-defined]
        r_min_x, r_min_z, r_max_x, r_max_z = region._bounds  # type: ignore[attr-defined]
        if r_min_x < min_x and max_x < r_max_x and r_min_z < min_z and max_z < r_max_z:
            return True
    return all(point_in_polygon(point, region.vertices) for point in box.plan)


def bottom_y(obj: SceneObject) -> float:
    return world_box(obj).bounds[1]


def top_y(obj: SceneObject) -> float:
    return world_box(obj).bounds[4]


def supported(obj: SceneObject, layout: SceneLayout) -> bool:
    """True iff the object rests on its region floor or on another object.

    Either way this object's bottom lies within `SUPPORT_TOLERANCE` of the
    surface; resting on another object also needs a footprint overlap of
    at least half this object's own footprint.
    """
    bottom = bottom_y(obj)
    region = layout.region_of(obj)
    if abs(bottom - region.floor_y) <= SUPPORT_TOLERANCE:
        return True
    own_area = polygon_area(footprint(obj))
    if own_area <= 0:
        return False
    for other in layout.objects:
        if other.id == obj.id:
            continue
        if abs(bottom - top_y(other)) > SUPPORT_TOLERANCE:
            continue
        if footprint_overlap(obj, other) >= SUPPORT_OVERLAP * own_area:
            return True
    return False


def support_surface_y(obj: SceneObject, layout: SceneLayout) -> float:
    """Height of the highest surface below the object that can support it.

    Considers the region floor and the top faces of sufficiently
    overlapping objects whose tops are at or below this object's bottom.
    """
    bottom = bottom_y(obj)
    region = layout.region_of(obj)
    best = region.floor_y
    own_area = polygon_area(footprint(obj))
    if own_area <= 0:
        return best
    for other in layout.objects:
        if other.id == obj.id:
            continue
        top = top_y(other)
        if top > bottom + SUPPORT_TOLERANCE:
            continue
        if top <= best:
            continue
        if footprint_overlap(obj, other) >= SUPPORT_OVERLAP * own_area:
            best = top
    return best


# ---------------------------------------------------------------------------
# Wall geometry


@dataclass(frozen=True)
class WallSlab:
    """One wall extruded outward from a region edge.

    The inner face lies on the polygon edge; the outer face is parallel at
    distance `thickness`. Plan-view corners run inner_start, inner_end,
    outer_end, outer_start (outer ends are mitered with the neighbors).
    """

    inner_start: Point2
    inner_end: Point2
    outer_start: Point2
    outer_end: Point2
    base_y: float
    height: float
    thickness: float


@dataclass(frozen=True)
class RegionMeshSpec:
    floor_thickness: float
    walls: tuple[WallSlab, ...]


def thicken_walls(region: Region) -> RegionMeshSpec:
    """Extrude each region edge outward by its wall thickness eta into a
    wall slab.

    Callers separate neighboring regions by exactly 2*eta so that the
    resulting outer faces meet with no overlap and no gap.
    """
    eta = region.wall_thickness
    polygon = region.vertices
    if signed_area(polygon) <= 0:
        raise DegenerateRegion(f"region {region.id!r} polygon area must be positive")
    n = len(polygon)
    normals = []
    for i in range(n):
        ax, az = polygon[i]
        bx, bz = polygon[(i + 1) % n]
        dx, dz = bx - ax, bz - az
        length = math.hypot(dx, dz)
        if length < 1e-12:
            raise DegenerateRegion(f"region {region.id!r} has a zero-length edge")
        normals.append((dz / length, -dx / length))  # outward for CCW

    # Miter point at each vertex: intersection of the two adjacent offset lines.
    miters: list[Point2] = []
    for i in range(n):
        prev_edge = (i - 1) % n
        vx, vz = polygon[i]
        pn, cn = normals[prev_edge], normals[i]
        p_start = (polygon[prev_edge][0] + eta * pn[0], polygon[prev_edge][1] + eta * pn[1])
        p_end = (vx + eta * pn[0], vz + eta * pn[1])
        c_start = (vx + eta * cn[0], vz + eta * cn[1])
        c_end = (polygon[(i + 1) % n][0] + eta * cn[0], polygon[(i + 1) % n][1] + eta * cn[1])
        cross = pn[0] * cn[1] - pn[1] * cn[0]
        if abs(cross) < 1e-9:
            miters.append(c_start)  # collinear edges: butt joint
        else:
            miters.append(_line_intersect(p_start, p_end, c_start, c_end))

    walls = []
    for i in range(n):
        j = (i + 1) % n
        walls.append(
            WallSlab(
                inner_start=polygon[i],
                inner_end=polygon[j],
                outer_start=miters[i],
                outer_end=miters[j],
                base_y=region.floor_y,
                height=region.height,
                thickness=eta,
            )
        )
    return RegionMeshSpec(floor_thickness=eta, walls=tuple(walls))
