"""Independent tree-walking interpreter used as the evaluation oracle.

Deliberately written from scratch against the language semantics (1e-6
equality tolerance, rotation triples in x,z,y order, last-assignment-wins
variable bindings, a region's `pos`/`scale`/`rot` read as the program
states it or as `constraints.REGION_DEFAULTS`, never from its polygon).
Geometry predicates delegate to the scene module; the point of this oracle
is the expression and logic semantics.
"""

from __future__ import annotations

import math

from sthl import scene
from sthl.constraints import REGION_DEFAULTS
from sthl.dsl import nodes

EQ_EPS = 1e-6


def eval_assertion(node, layout, bindings, regions=None):
    """`regions` maps a region id to the value expression each property's
    last assignment states (`ConstraintSet.region_values`); a property it
    does not name reads as its default."""
    regions = regions or {}
    kind = type(node).__name__
    if kind == "And":
        return eval_assertion(node.left, layout, bindings, regions) and eval_assertion(
            node.right, layout, bindings, regions
        )
    if kind == "Or":
        return eval_assertion(node.left, layout, bindings, regions) or eval_assertion(
            node.right, layout, bindings, regions
        )
    if kind == "Not":
        return not eval_assertion(node.operand, layout, bindings, regions)
    if kind == "InsidePred":
        return scene.inside(layout.object(node.inner), layout.region(node.outer))
    if kind == "NoCollision":
        return not scene.collides(layout.object(node.first), layout.object(node.second))
    if kind == "Supported":
        return scene.supported(layout.object(node.name), layout)
    assert kind == "Compare"
    lhs = eval_expr(node.left, layout, bindings, regions)
    rhs = eval_expr(node.right, layout, bindings, regions)
    if isinstance(lhs, str) or isinstance(rhs, str):
        if node.op == "=":
            return lhs == rhs
        assert node.op == "!="
        return lhs != rhs
    if node.op == "=":
        return abs(lhs - rhs) <= EQ_EPS
    if node.op == "!=":
        # exact complement of tolerant equality (holds for NaN operands too)
        return not abs(lhs - rhs) <= EQ_EPS
    if node.op == "<":
        return lhs < rhs
    if node.op == "<=":
        return lhs <= rhs
    if node.op == ">":
        return lhs > rhs
    if node.op == ">=":
        return lhs >= rhs
    raise AssertionError(node.op)


def eval_expr(node, layout, bindings, regions=None):
    if isinstance(node, nodes.NumberLit):
        return node.value
    if isinstance(node, nodes.StringLit):
        return node.value
    if isinstance(node, nodes.Name):
        return eval_expr(bindings[node.ident], layout, bindings, regions)
    if isinstance(node, nodes.PropRef):
        return resolve_prop(node, layout, regions or {})
    if isinstance(node, nodes.Arith):
        a = eval_expr(node.left, layout, bindings, regions)
        b = eval_expr(node.right, layout, bindings, regions)
        if isinstance(a, tuple):
            assert isinstance(b, tuple)
            if node.op == "+":
                return tuple(x + y for x, y in zip(a, b))
            assert node.op == "-"
            return tuple(x - y for x, y in zip(a, b))
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            return math.nan if a == 0.0 else math.copysign(math.inf, a)
        return a / b
    if isinstance(node, nodes.Vec3):
        return (
            eval_expr(node.x, layout, bindings, regions),
            eval_expr(node.y, layout, bindings, regions),
            eval_expr(node.z, layout, bindings, regions),
        )
    if isinstance(node, nodes.Rot):
        return (
            eval_expr(node.rx, layout, bindings, regions),
            eval_expr(node.rz, layout, bindings, regions),
            eval_expr(node.ry, layout, bindings, regions),
        )
    if isinstance(node, nodes.Dot):
        a = eval_expr(node.left, layout, bindings, regions)
        b = eval_expr(node.right, layout, bindings, regions)
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    raise AssertionError(f"rand must be frozen before evaluation: {node}")


def resolve_prop(node: nodes.PropRef, layout, regions):
    for obj in layout.objects:
        if obj.id == node.obj:
            table = {
                "pos": obj.transform.pos,
                "rot": obj.transform.rot,
                "scale": obj.transform.scale,
                "color": obj.color,
                "material": obj.material,
                "features": obj.features,
            }
            value = table[node.prop]
            break
    else:
        layout.region(node.obj)  # a name the layout lacks is an error
        stated = regions.get(node.obj, {}).get(node.prop)
        # A stated value is a constant: it reads no placement and no variable.
        value = (
            REGION_DEFAULTS[node.prop]
            if stated is None
            else eval_expr(stated, scene.SceneLayout(), {})
        )
    if node.component is None:
        return value
    if node.prop == "rot":
        return value[{"x": 0, "z": 1, "y": 2}[node.component]]
    return value[{"x": 0, "y": 1, "z": 2}[node.component]]
