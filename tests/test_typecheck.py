"""Type checker tests, including the full property-by-type legality table."""

from __future__ import annotations

import pytest

from sthl.dsl import parse, typecheck
from sthl.dsl.nodes import ValueType
from sthl.errors import TypeCheckError

ALL_TYPES = ("Number", "Degree", "Bool", "Vector3", "Rotation", "Color", "Material")

#: Exactly the legal (property, variable type) assignment cells.
LEGAL_CELLS = {
    ("color", "Color"),
    ("material", "Material"),
    ("pos", "Vector3"),
    ("scale", "Vector3"),
    ("rot", "Rotation"),
}


def check(source: str):
    return typecheck(parse(source))


def test_dot_of_unit_vectors_is_number():
    typed = check("Number d; d <- dot(vec3(1, 0, 0), vec3(0, 1, 0));")
    assert typed.symbols["d"].var_type is ValueType.NUMBER


def test_vector_compared_to_number_fails():
    with pytest.raises(TypeCheckError, match="not comparable"):
        check("object a; assert vec3(1, 2, 3) > 4;")


def test_color_property_needs_color_value():
    with pytest.raises(TypeCheckError, match="Color"):
        check("object lamp; lamp.color <- vec3(1, 1, 1);")


@pytest.mark.parametrize("prop", ["color", "material", "features", "pos", "rot", "scale"])
@pytest.mark.parametrize("var_type", ALL_TYPES)
def test_property_assignment_table(prop, var_type):
    """Enumerates every property x declared-type pair; exactly the legal
    cells must typecheck. `v <- v` gives `v` a binding of its own type, as a
    variable read must have one."""
    source = f"object o; {var_type} v; v <- v; o.{prop} <- v;"
    if (prop, var_type) in LEGAL_CELLS:
        check(source)
    else:
        with pytest.raises(TypeCheckError):
            check(source)


@pytest.mark.parametrize(
    "prop,ok", [("color", True), ("material", True), ("features", True)]
)
def test_string_literals_fill_alpha_properties(prop, ok):
    check(f'object o; o.{prop} <- "something";')


def test_string_literal_rejected_for_transform_properties():
    with pytest.raises(TypeCheckError):
        check('object o; o.pos <- "north";')


def test_alpha_properties_only_on_objects():
    with pytest.raises(TypeCheckError, match="only on objects"):
        check('region r; r.color <- "red";')
    with pytest.raises(TypeCheckError, match="only on objects"):
        check('object o; region r; assert r.features = "cozy";')


def test_region_transform_properties_allowed():
    check("region r; r.pos <- vec3(0, 0, 0); r.scale <- vec3(4, 3, 4);")
    check("region r; assert r.scale.y > 2;")


def test_ordering_requires_numbers():
    with pytest.raises(TypeCheckError, match="ordering"):
        check('object o; assert o.color > "red";')


def test_text_equality_allowed_and_families_enforced():
    check('object o; assert o.color = "red";')
    check('object o; assert o.material != "wood";')
    with pytest.raises(TypeCheckError, match="cannot compare"):
        check("object o; Number n; n <- 1; assert o.color = n;")


def test_number_degree_mix_in_arithmetic_and_comparison():
    typed = check("Degree d; Number n; d <- 10; n <- 2; assert d + n > 5;")
    assert typed.symbols["d"].var_type is ValueType.DEGREE
    check("Degree d; d <- 45; assert d < 90;")


def test_variable_assignment_respects_declared_type():
    check("Number n; n <- 1 + 2 * 3;")
    check('Color c; c <- "mauve";')
    with pytest.raises(TypeCheckError, match="Number"):
        check("Number n; n <- vec3(1, 2, 3);")
    with pytest.raises(TypeCheckError):
        check('Number n; n <- "five";')


def test_vector_arithmetic_allowed_for_distance_idiom():
    check("object a; object b; assert dot(a.pos - b.pos, a.pos - b.pos) < 4;")
    with pytest.raises(TypeCheckError):
        check("object a; object b; assert a.pos * b.pos = vec3(0, 0, 0);")


def test_dot_requires_two_vectors():
    with pytest.raises(TypeCheckError, match="dot"):
        check("Number n; n <- dot(vec3(1, 0, 0), 2);")


def test_rand_bounds_must_be_numbers():
    with pytest.raises(TypeCheckError, match="rand"):
        check("Number n; n <- rand(vec3(0, 0, 0), 1);")


def test_vec3_components_must_be_numeric():
    with pytest.raises(TypeCheckError, match="components"):
        check('object o; o.pos <- vec3(1, "two", 3);')


def test_rot_components_and_rotation_type():
    check("object o; o.rot <- rot(0, 0, 90);")
    with pytest.raises(TypeCheckError):
        check("object o; o.rot <- vec3(0, 0, 90);")


def test_bare_assignment_to_object_rejected():
    with pytest.raises(TypeCheckError, match="without a property"):
        check("object o; o <- 3;")


def test_component_types():
    check("object o; Degree d; d <- o.rot.y;")
    check("object o; Number n; n <- o.pos.x + o.scale.z;")
    with pytest.raises(TypeCheckError):
        check("object o; Vector3 v; v <- o.pos.x;")


def test_read_of_a_never_assigned_variable_is_located():
    source = "region room; object a; object b; Number g;\nassert a.pos.x + g < b.pos.x;"
    with pytest.raises(TypeCheckError, match="variable 'g' is read but never assigned") as info:
        typecheck(parse(source), "room.sthl")
    assert (info.value.line, info.value.column, info.value.filename) == (2, 18, "room.sthl")


@pytest.mark.parametrize(
    "statements,column",
    [
        ("Number h; h <- g + 1; assert o.pos.x < h;", 16),  # in a variable's binding
        ("o.pos <- vec3(g, 0, 0); assert o.pos.x < g;", 15),  # the first of two reads
        ("v <- o.pos; assert o.pos.x > 1 || dot(v, o.pos) < g;", 51),  # after an assigned one
    ],
)
def test_first_read_is_the_one_reported(statements, column):
    with pytest.raises(TypeCheckError, match="never assigned") as info:
        check(f"object o; Number g; Vector3 v;\n{statements}")
    assert (info.value.line, info.value.column) == (2, column)


def test_variable_assigned_after_its_read_checks():
    check("object o; Number g; assert o.pos.x < g; g <- 2;")
    check("Bool a; Bool b; a <- b; b <- a;")
    check("object o; Number g; Number unread;\ng <- 1; assert o.pos.x < g;")
