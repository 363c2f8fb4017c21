"""One `rand` freeze for the built scene and the constraints."""

from __future__ import annotations

import itertools
import random

import pytest

from sthl.build import build_scene
from sthl.constraints import (
    compile_constraints,
    evaluate,
    evaluate_expression,
    freeze_program,
    print_compiled_assertion,
)
from sthl.dsl import parse, typecheck
from sthl.dsl.nodes import Assert, Assign
from sthl.scene import SceneLayout

# Three places a `rand` can sit; the variable site also feeds b.scale.
SITES = {
    "property": "a.scale <- vec3(rand(1, 2), 1, 1);",
    "variable": "w <- rand(1, 2);\nb.scale <- vec3(w, 1, 1);",
    "assert": "assert a.pos.y < rand(5, 6);",
}


@pytest.mark.parametrize("order", list(itertools.permutations(SITES)), ids="-".join)
@pytest.mark.parametrize("seed", range(10))
def test_built_scene_and_constraints_see_the_same_draw(order, seed):
    source = "\n".join(
        ["region room; object a; object b; Number w;"]
        + [SITES[site] for site in order]
        + ["assert b.scale.x = w;"]
    )
    typed = typecheck(parse(source))
    built = build_scene(typed, seed=seed)
    cs = compile_constraints(typed, seed=seed)
    ctx = cs.context(SceneLayout(regions=built.regions, objects=built.objects))
    b = next(obj for obj in built.objects if obj.id == "b")
    assert b.transform.scale[0] == evaluate_expression(cs.bindings["w"], ctx)
    (tautology,) = [
        c for c in cs.constraints if print_compiled_assertion(c.assertion) == "b.scale.x = w"
    ]
    assert evaluate(tautology, ctx)


def test_draws_follow_statement_order():
    source = """
region room; object a; Number u; Number v;
u <- rand(0, 1);
a.scale <- vec3(rand(1, 2), rand(2, 3), 1);
assert a.pos.x < rand(3, 4);
v <- u + rand(4, 5);
assert a.pos.z > rand(5, 6) || !(a.pos.y = rand(6, 7));
"""
    seed = 11
    rng = random.Random(seed)
    draws = [rng.uniform(float(k), float(k + 1)) for k in range(7)]
    typed = typecheck(parse(source))

    frozen = freeze_program(typed, seed)
    u, scale, v = [stmt.value for stmt in frozen if isinstance(stmt, Assign)]
    first, second = [stmt.condition for stmt in frozen if isinstance(stmt, Assert)]
    assert u.value == draws[0]
    assert (scale.x.value, scale.y.value) == (draws[1], draws[2])
    assert first.right.value == draws[3]
    assert (v.left.value, v.right.value) == (draws[0], draws[4])  # u substituted
    assert second.left.right.value == draws[5]
    assert second.right.operand.right.value == draws[6]

    built = build_scene(typed, seed=seed)
    assert built.objects[0].transform.scale == (draws[1], draws[2], 1.0)
    cs = compile_constraints(typed, seed=seed)
    assert [c.assertion for c in cs.constraints[:2]] == [first, second]
    assert cs.bindings == {"u": u, "v": v}
