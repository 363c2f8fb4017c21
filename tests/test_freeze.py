"""One `rand` freeze for the built scene and the constraints."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from sthl.build import build_scene
from sthl.cli import run
from sthl.constraints import (
    compile_constraints,
    evaluate,
    freeze_program,
    literal_value,
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
    assert b.transform.scale[0] == literal_value(cs.bindings["w"])
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
    assert v.value == draws[0] + draws[4]  # u read, then folded
    assert second.left.right.value == draws[5]
    assert second.right.operand.right.value == draws[6]

    built = build_scene(typed, seed=seed)
    assert built.objects[0].transform.scale == (draws[1], draws[2], 1.0)
    cs = compile_constraints(typed, seed=seed)
    assert [c.assertion for c in cs.constraints[:2]] == [first, second]
    assert cs.bindings == {"u": u, "v": v}


# Each assignment to a variable is a version that names the one before it,
# so no walk follows the length of a reassignment chain, and a version two
# reads share is evaluated once.
DOT = "v <- dot(vec3(v, 0, 0), vec3(1, 0, 0));\n"
CHAINS = {
    "dot-after-a-number": (
        "region r; object a; Number v;\nv <- 1;\n" + DOT * 1500 + "a.pos <- vec3(v, 0, 0);\n"
    ),
    "dot-after-a-placement": (
        "region r; object a; Number v;\nv <- a.pos.x;\n" + DOT * 1500 + "assert v > -100;\n"
    ),
    "vector": (
        "region r; object a; Vector3 w;\nw <- a.pos;\n"
        + "w <- vec3(dot(w, vec3(1, 0, 0)), 0, 0);\n" * 1500
        + "assert dot(w, vec3(1, 0, 0)) > -100;\n"
    ),
}


@pytest.mark.parametrize("command", ["check", "pipeline"])
@pytest.mark.parametrize("case", list(CHAINS))
def test_a_long_reassignment_chain_runs(tmp_path, capsys, command, case):
    path = tmp_path / "chain.sthl"
    path.write_text(CHAINS[case])
    argv = [command, str(path)]
    if command == "pipeline":
        argv += ["--T", "0", "--out", str(tmp_path / "pkg")]
    assert run(argv) == 0
    assert "Traceback" not in capsys.readouterr().err


def _doubling(first: str, copies: int, last: str) -> str:
    return f"region r; object a; Number v;\nv <- {first};\n" + "v <- v + v;\n" * copies + last


def _seconds(argv: list[str]) -> float:
    start = time.perf_counter()
    assert run(argv) == 0
    return time.perf_counter() - start


def test_a_doubling_chain_folds_in_linear_time(tmp_path, capsys):
    source = _doubling("1", 60, "a.pos <- vec3(v, 0, 0);\n")
    path = tmp_path / "doubling.sthl"
    path.write_text(source)
    assert _seconds(["check", str(path)]) < 0.5
    assert build_scene(typecheck(parse(source))).objects[0].transform.pos[0] == 2.0**60


def test_a_doubling_chain_of_a_placement_evaluates_in_linear_time(tmp_path, capsys):
    source = _doubling("a.pos.x", 40, "assert v > -100;\nassert v = a.pos.x * 1099511627776;\n")
    path = tmp_path / "doubling.sthl"
    path.write_text(source)
    assert _seconds(["pipeline", str(path), "--T", "0", "--out", str(tmp_path / "pkg")]) < 2.0
    typed = typecheck(parse(source))
    cs = compile_constraints(typed)
    ctx = cs.context(build_scene(typed))
    assert len(cs.constraints[1].versions) == 41
    assert evaluate(cs.constraints[1], ctx)  # 2 ** 40 doublings of a.pos.x, exactly
