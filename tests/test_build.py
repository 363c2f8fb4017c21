"""Program-to-scene bridge tests."""

from __future__ import annotations

import pytest

from sthl.assets import DEFAULT_TAU
from sthl.build import build_scene
from sthl.cli import _asset_decisions
from sthl.dsl import parse, typecheck
from sthl.errors import BuildError


def built(source: str, seed: int = 0):
    return build_scene(typecheck(parse(source)), seed=seed)


def test_region_geometry_from_assignments():
    scene = built(
        "region room; room.pos <- vec3(2, 0.5, 3); room.scale <- vec3(4, 2.5, 6);"
    )
    room = scene.regions[0]
    assert room.floor_y == 0.5
    assert room.height == 2.5
    assert set(room.vertices) == {(0.0, 0.0), (4.0, 0.0), (4.0, 6.0), (0.0, 6.0)}


def test_region_defaults_when_unassigned():
    scene = built("region hall;")
    hall = scene.regions[0]
    assert hall.height == 3.0
    min_x, min_z, max_x, max_z = hall.bounds()
    assert (max_x - min_x, max_z - min_z) == (10.0, 10.0)


def test_region_yaw_rotates_footprint():
    scene = built(
        "region room; room.scale <- vec3(4, 3, 2); room.rot <- rot(0, 0, 90);"
    )
    min_x, min_z, max_x, max_z = scene.regions[0].bounds()
    # width/depth swap under a quarter turn
    assert (max_x - min_x) == pytest.approx(2.0)
    assert (max_z - min_z) == pytest.approx(4.0)
    scene.regions[0].validate()  # still CCW


def test_region_tilt_rejected():
    with pytest.raises(BuildError, match="yaw") as info:
        built("region room;\n  room.rot <- rot(10, 0, 0);")
    assert (info.value.line, info.value.column) == (2, 3)


@pytest.mark.parametrize("scale", ["vec3(0, 1, 1)", "vec3(1, -0.5, 1)", "vec3(1, 1, 1) - vec3(0, 2, 0)"])
def test_non_positive_object_scale_rejected_at_its_assignment(scale):
    with pytest.raises(BuildError, match="scale components must be positive") as info:
        built(f"region room;\nobject a;\na.scale <- vec3(1, 1, 1);\na.scale <- {scale};")
    assert (info.value.line, info.value.column) == (4, 1)


@pytest.mark.parametrize("scale", ["vec3(0, 3, 5)", "vec3(4, 3, 0)", "vec3(-4, 3, -6)"])
def test_non_positive_region_footprint_rejected_at_its_assignment(scale):
    with pytest.raises(BuildError, match="r.scale x and z of a region must be positive") as info:
        built(f"region r;\n  r.scale <- {scale};\nobject a;")
    assert (info.value.line, info.value.column) == (2, 3)


TINY = " * ".join(["0.00000001"] * 25)  # 1e-200: its square underflows to 0


@pytest.mark.parametrize(
    "statements,prop,line",
    [
        (f"r.scale <- vec3({TINY}, 3, {TINY});", "scale", 2),
        (f"r.scale <- vec3(1, 3, 1);\n  r.scale <- vec3({TINY}, 3, {TINY});", "scale", 3),
        ("r.pos <- vec3(100000000000000000000, 0, 0);\n  r.scale <- vec3(1, 3, 1);", "pos", 2),
        ("r.scale <- vec3(1, 3, 1);\n  r.pos <- vec3(0, 0, -100000000000000000000);", "pos", 3),
        ("r.pos <- vec3(100000000000000000000, 0, 0);", "pos", 2),
    ],
)
def test_region_with_no_floor_area_rejected_at_its_assignment(statements, prop, line):
    with pytest.raises(BuildError, match=f"r.{prop} leaves the region no floor area") as info:
        built(f"region r;\n  {statements}\nobject a;")
    assert (info.value.line, info.value.column) == (line, 3)


def test_overridden_bad_values_are_not_errors():
    scene = built(
        "region room; room.rot <- rot(10, 0, 0); room.rot <- rot(0, 0, 90);\n"
        "object a; a.scale <- vec3(0, 1, 1); a.scale <- vec3(1, 2, 1);"
    )
    assert scene.objects[0].extents() == (1.0, 2.0, 1.0)


def test_object_extents_color_and_category():
    scene = built(
        'object coffee_table; coffee_table.scale <- vec3(1.2, 0.4, 0.6);\n'
        'coffee_table.color <- "walnut"; coffee_table.features <- "low";'
    )
    obj = scene.objects[0]
    assert obj.category == "coffee table"
    assert obj.extents() == (1.2, 0.4, 0.6)
    assert obj.color == "walnut"
    assert obj.features == "low"
    assert obj.dimensions == (1.0, 1.0, 1.0)


def test_preplaced_flag_from_pos_assignment():
    scene = built("region r; object a; a.pos <- vec3(1, 0.5, 1); object b;")
    a, b = scene.objects
    assert a.preplaced and a.transform.pos == (1.0, 0.5, 1.0)
    assert not b.preplaced


def test_region_assignment_via_inside():
    scene = built(
        "region r1; region r2; object a; object b; assert inside(b, r2);"
    )
    by_id = {o.id: o.region for o in scene.objects}
    assert by_id == {"a": "r1", "b": "r2"}


def test_variables_and_rand_in_assignments():
    scene1 = built(
        "Number w; w <- 2; object a; a.scale <- vec3(w, 1, w); "
        "object d; d.pos <- vec3(rand(0, 5), 0.5, rand(0, 5));",
        seed=9,
    )
    scene2 = built(
        "Number w; w <- 2; object a; a.scale <- vec3(w, 1, w); "
        "object d; d.pos <- vec3(rand(0, 5), 0.5, rand(0, 5));",
        seed=9,
    )
    assert scene1.objects[0].extents() == (2.0, 1.0, 2.0)
    assert scene1.objects[1].transform.pos == scene2.objects[1].transform.pos
    assert 0 <= scene1.objects[1].transform.pos[0] <= 5


def test_layout_dependent_assignment_rejected():
    with pytest.raises(BuildError, match="placement") as info:
        build_scene(typecheck(parse("object a; object b;\n  b.pos <- a.pos;", "room.sthl")))
    assert (info.value.line, info.value.column, info.value.filename) == (2, 3, "room.sthl")
    assert str(info.value).startswith("room.sthl:2:3: assignment must not depend on object placement")


def test_entities_for_asset_queries():
    scene = built(
        'object armchair; armchair.color <- "red"; armchair.material <- "velvet";'
    )
    query = _asset_decisions(scene, None, DEFAULT_TAU)["armchair"].query
    assert query.kind == "object"
    assert (query.color, query.category, query.material) == ("red", "armchair", "velvet")


@pytest.mark.parametrize("target", ["room", "a"])
@pytest.mark.parametrize("prop", ["pos", "scale", "rot"])
@pytest.mark.parametrize("part", ["1 / 0", "0 - 1 / 0", "0 / 0"])
def test_non_finite_placement_value_rejected_at_its_assignment(target, prop, part):
    call = "rot(0, 0, {})" if prop == "rot" else "vec3(1, {}, 1)"
    with pytest.raises(BuildError, match=f"{target}.{prop} components must be finite") as info:
        built(f"region room;\nobject a;\n  {target}.{prop} <- {call.format(part)};")
    assert (info.value.line, info.value.column) == (3, 3)


# Programs that type-check but whose values cannot be evaluated: the error,
# its line and column, and the message after the position.
BINDING_ORDER_ERRORS = {
    "self-bound-bool": (
        "region room; object a; Bool b;\nb <- b;\nassert b = b;\n",
        (2, 1), "circular binding for variable 'b'",
    ),
    "self-reading-number": (
        "region room; object a; Number x;\nx <- x + 1;\nassert a.pos.x > x;\n",
        (2, 1), "circular binding for variable 'x'",
    ),
    "cycle-closed-by-the-later-assignment": (
        "region room; object a; Number p; Number q;\np <- q;\nq <- p;\nassert a.pos.x > p;\n",
        (3, 1), "circular binding for variable 'q'",
    ),
    "property-reads-a-later-variable": (
        "region room; object a; Number g;\na.pos <- vec3(g, 0, 0);\ng <- 1;\n",
        (2, 15), "a.pos reads variable 'g' before it is assigned",
    ),
    "property-reads-it-through-a-variable": (
        "region room; object c; Number a; Number b;\n"
        "b <- a + 1;\na <- 2;\nc.pos <- vec3(b, 0, 0);\n",
        (2, 6), "c.pos reads variable 'a' before it is assigned",
    ),
}


@pytest.mark.parametrize("case", list(BINDING_ORDER_ERRORS))
def test_binding_order_error_is_located(case):
    source, where, message = BINDING_ORDER_ERRORS[case]
    with pytest.raises(BuildError) as info:
        build_scene(typecheck(parse(source, "v.sthl")))
    assert (info.value.line, info.value.column) == where
    assert str(info.value) == f"v.sthl:{where[0]}:{where[1]}: {message}"


@pytest.mark.parametrize(
    "source",
    [
        # A cycle no assertion reads.
        "region room; object a; Bool open; Bool locked; open <- locked; locked <- open;",
        # An assertion reads `p` through its last binding, after `q` is bound.
        "region room; object a; Number p; Number q; p <- q + 1; q <- 2; assert a.pos.x < p;",
        # A reassignment reads the earlier value.
        "region room; object a; Number v; v <- 1; v <- v + 1; a.pos <- vec3(v, 0, 0);"
        " assert v > 1;",
    ],
)
def test_bindings_that_evaluate_build(source):
    built(source)
