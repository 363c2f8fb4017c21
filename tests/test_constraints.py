"""Constraint compilation and evaluation tests."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sthl.build import build_scene
from sthl.constraints import (
    EQ_TOLERANCE,
    NoCollision,
    Supported,
    compile_constraints,
    evaluate,
    format_verdict_line,
    infer_region_assignments,
    satisfaction_ratio,
)
from sthl.dsl import parse, print_program, typecheck
from sthl.dsl.nodes import InsidePred
from sthl.errors import EvalError
from sthl.scene import Region, SceneLayout, SceneObject, Transform

from naive_interp import eval_assertion

ROOM = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))


def compiled(source: str, seed: int = 0):
    return compile_constraints(typecheck(parse(source)), seed=seed)


def simple_layout(*objects: SceneObject) -> SceneLayout:
    for obj in objects:
        obj.region = "room"
    return SceneLayout(regions=[ROOM], objects=list(objects))


# ---------------------------------------------------------------------------
# compile


def test_three_objects_no_allows_yields_nine_hidden():
    cs = compiled("region room; object a; object b; object c;")
    by_prov = {}
    for c in cs.constraints:
        by_prov.setdefault(c.provenance, []).append(c)
    assert len(by_prov["hidden-collision"]) == 3
    assert len(by_prov["hidden-gravity"]) == 3
    assert len(by_prov["hidden-boundary"]) == 3
    assert len(cs.constraints) == 9


def test_allow_collide_omits_the_pair():
    cs = compiled("region room; object rug; object table; allowCollide(rug, table);")
    pairs = [
        (c.assertion.first, c.assertion.second)
        for c in cs.constraints
        if isinstance(c.assertion, NoCollision)
    ]
    assert ("rug", "table") not in pairs and ("table", "rug") not in pairs
    assert cs.allow_collide == frozenset({("rug", "table")})


def test_allow_outside_drops_boundary_only():
    cs = compiled("region room; object bird; allowOutside(bird);")
    boundary = [c for c in cs.constraints if c.provenance == "hidden-boundary"]
    gravity = [c for c in cs.constraints if c.provenance == "hidden-gravity"]
    assert boundary == [] and len(gravity) == 1


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    allow_collide_seed=st.integers(0, 10_000),
    allow_outside_seed=st.integers(0, 10_000),
)
def test_hidden_constraint_count_law(n, allow_collide_seed, allow_outside_seed):
    rng_ac = random.Random(allow_collide_seed)
    rng_ao = random.Random(allow_outside_seed)
    names = [f"o{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    chosen_pairs = rng_ac.sample(pairs, k=rng_ac.randint(0, len(pairs))) if pairs else []
    chosen_outside = rng_ao.sample(names, k=rng_ao.randint(0, n))
    lines = ["region room;"] + [f"object {name};" for name in names]
    lines += [f"allowCollide({a}, {b});" for a, b in chosen_pairs]
    lines += [f"allowOutside({name});" for name in chosen_outside]
    cs = compiled("\n".join(lines))
    hidden = [c for c in cs.constraints if c.provenance != "explicit"]
    expected = (
        math.comb(n, 2) - len(chosen_pairs) + n + (n - len(chosen_outside))
    )
    assert len(hidden) == expected


def test_involved_objects_match_assertion_identifiers():
    cs = compiled(
        "region room; object a; object b; Number n; n <- 1;\n"
        "assert a.pos.x + n > b.pos.z;"
    )
    explicit = cs.constraints[0]
    assert explicit.involved == {"a", "b", "n"}


def test_no_region_program_gets_collision_constraints_only():
    cs = compiled("object a; object b;")
    assert {c.provenance for c in cs.constraints} == {"hidden-collision"}


def test_region_assignment_inference():
    typed = typecheck(
        parse(
            "region r1; region r2; object a; object b; object c;\n"
            "assert inside(b, r2);\n"
            "assert !inside(c, r2);"  # negated: must not pin c to r2
        )
    )
    assignments = infer_region_assignments(typed)
    assert assignments == {"b": "r2", "a": "r1", "c": "r1"}


# ---------------------------------------------------------------------------
# evaluate


def test_lamp_above_table_hand_values():
    cs = compiled(
        "region room; object lamp; object table;\n"
        "assert lamp.pos.y > table.pos.y + table.scale.y;"
    )
    lamp = SceneObject("lamp", transform=Transform(pos=(2.0, 2.0, 2.0), scale=(0.3, 0.3, 0.3)))
    table = SceneObject(
        "table", transform=Transform(pos=(2.0, 0.4, 2.0), scale=(1.0, 0.75, 1.0))
    )
    ctx = cs.context(simple_layout(lamp, table))
    # 2.0 > 0.4 + 0.75 = 1.15
    assert evaluate(cs.constraints[0], ctx) is True


def test_reflexive_equality_true_anywhere():
    cs = compiled("region room; object a; assert a.pos.x = a.pos.x;")
    rng = random.Random(0)
    for _ in range(10):
        a = SceneObject("a", transform=Transform(pos=(rng.uniform(-9, 9), 1.0, 0.0)))
        assert evaluate(cs.constraints[0], cs.context(simple_layout(a))) is True


def test_equality_tolerance():
    cs = compiled("region room; object a; assert a.pos.x = 1;")
    near = SceneObject("a", transform=Transform(pos=(1.0 + EQ_TOLERANCE / 2, 0.5, 0.0)))
    far = SceneObject("a", transform=Transform(pos=(1.0 + EQ_TOLERANCE * 3, 0.5, 0.0)))
    assert evaluate(cs.constraints[0], cs.context(simple_layout(near))) is True
    assert evaluate(cs.constraints[0], cs.context(simple_layout(far))) is False


def test_missing_object_is_an_eval_error():
    cs = compiled("region room; object a; object b; assert a.pos.x < b.pos.x;")
    a = SceneObject("a")
    with pytest.raises(EvalError, match="'b'"):
        evaluate(cs.constraints[0], cs.context(simple_layout(a)))


def test_division_by_zero_yields_ieee_values_not_crash():
    grounded = SceneObject("a", transform=Transform(pos=(1.0, 0.0, 1.0)))
    # x/0 behaves like a signed infinity...
    cs = compiled("region room; object a; assert 1 / a.pos.y > 0;")
    assert evaluate(cs.constraints[0], cs.context(simple_layout(grounded))) is True
    cs = compiled("region room; object a; assert -1 / a.pos.y > 0;")
    assert evaluate(cs.constraints[0], cs.context(simple_layout(grounded))) is False
    # ...and 0/0 is NaN, which satisfies no comparison.
    cs = compiled("region room; object a; assert a.pos.y / a.pos.y = 1;")
    assert evaluate(cs.constraints[0], cs.context(simple_layout(grounded))) is False


def test_rand_frozen_at_compile_and_stable():
    source = "region room; object a; assert a.pos.x < rand(0, 10);"
    cs1 = compiled(source, seed=123)
    cs2 = compiled(source, seed=123)
    cs3 = compiled(source, seed=124)
    frozen1 = cs1.constraints[0].assertion.right.value
    frozen2 = cs2.constraints[0].assertion.right.value
    frozen3 = cs3.constraints[0].assertion.right.value
    assert frozen1 == frozen2
    assert frozen1 != frozen3
    assert 0 <= frozen1 <= 10
    a = SceneObject("a", transform=Transform(pos=(5.0, 0.5, 5.0)))
    ctx = cs1.context(simple_layout(a))
    results = {evaluate(cs1.constraints[0], ctx) for _ in range(5)}
    assert len(results) == 1


def test_variable_bindings_last_assignment_wins():
    cs = compiled(
        "region room; object a; Number n; n <- 1; n <- n + 1; assert a.pos.x < n;"
    )
    a = SceneObject("a", transform=Transform(pos=(1.5, 0.5, 5.0)))
    assert evaluate(cs.constraints[0], cs.context(simple_layout(a))) is True  # 1.5 < 2


def test_variable_referencing_object_property_is_lazy():
    cs = compiled("region room; object a; Number h; h <- a.pos.y; assert h > 1;")
    high = SceneObject("a", transform=Transform(pos=(5.0, 2.0, 5.0)))
    low = SceneObject("a", transform=Transform(pos=(5.0, 0.5, 5.0)))
    assert evaluate(cs.constraints[0], cs.context(simple_layout(high))) is True
    assert evaluate(cs.constraints[0], cs.context(simple_layout(low))) is False


def test_unassigned_variable_eval_error():
    # The type checker rejects a program that reads a variable it never
    # assigns, so a context without the binding stands in for one here.
    cs = compiled("region room; object a; Number n; n <- 1; assert a.pos.x < n;")
    ctx = dataclasses.replace(cs.context(simple_layout(SceneObject("a"))), bindings={})
    with pytest.raises(EvalError, match="never assigned"):
        evaluate(cs.constraints[0], ctx)


def test_hidden_predicates_delegate_to_scene():
    cs = compiled("region room; object a; object b;")
    a = SceneObject("a", transform=Transform(pos=(1.0, 0.5, 1.0)))
    b = SceneObject("b", transform=Transform(pos=(1.2, 0.5, 1.0)))
    ctx = cs.context(simple_layout(a, b))
    results = {type(c.assertion).__name__: evaluate(c, ctx) for c in cs.constraints}
    assert results["NoCollision"] is False  # overlapping
    assert results["Supported"] is True
    assert results["InsidePred"] is True


@pytest.mark.parametrize(
    "stated,reads",
    [
        (
            "r.pos <- vec3(1, 0.5, 2); r.scale <- vec3(4, 3, 2); r.rot <- rot(0, 0, 90);",
            "r.pos.x = 1 && r.pos.y = 0.5 && r.pos.z = 2 && r.scale.x = 4 && r.scale.z = 2"
            " && r.rot.y = 90",
        ),
        ("", "r.pos.x = 0 && r.scale.x = 10 && r.scale.y = 3 && r.scale.z = 10 && r.rot.y = 0"),
        ("r.scale <- vec3(1, 3, 1); r.scale <- vec3(6, 2, 5);", "r.scale.x = 6 && r.scale.y = 2"),
    ],
    ids=["rotated", "defaults", "last-assignment"],
)
def test_a_region_reads_as_the_program_states_it(stated, reads):
    typed = typecheck(parse(f"region r; {stated} object a; assert {reads};"))
    cs = compile_constraints(typed)
    assert evaluate(cs.constraints[0], cs.context(build_scene(typed))) is True
    with pytest.raises(EvalError, match="^identifier 'r' missing from layout$"):
        evaluate(cs.constraints[0], cs.context(SceneLayout()))


# ---------------------------------------------------------------------------
# random agreement with the naive interpreter


def _random_layout(rng: random.Random, names) -> SceneLayout:
    objects = []
    for name in names:
        objects.append(
            SceneObject(
                name,
                color=rng.choice(("red", "blue", "")),
                material=rng.choice(("wood", "steel", "")),
                features=rng.choice(("soft", "tall", "")),
                transform=Transform(
                    pos=(rng.uniform(0, 10), rng.uniform(0, 3), rng.uniform(0, 10)),
                    rot=(0.0, 0.0, rng.choice((0.0, 90.0, 180.0, 270.0))),
                    scale=(rng.uniform(0.2, 2), rng.uniform(0.2, 2), rng.uniform(0.2, 2)),
                ),
                region="room",
            )
        )
    return SceneLayout(regions=[ROOM], objects=objects)


def test_evaluate_agrees_with_naive_interpreter_on_random_cases():
    from astgen import ProgramGenerator

    rng = random.Random(424242)
    cases = 0
    while cases < 300:
        gen = ProgramGenerator(random.Random(rng.randrange(1 << 30)))
        source_names = [f"obj{i}" for i in range(5)]
        program = parse(print_program(gen.assertion_case(source_names, "room")))
        cs = compile_constraints(typecheck(program), seed=cases)
        layout = _random_layout(rng, source_names)
        ctx = cs.context(layout)
        expected = eval_assertion(
            cs.constraints[0].assertion, layout, cs.bindings, cs.region_values
        )
        assert evaluate(cs.constraints[0], ctx) == expected
        cases += 1


# ---------------------------------------------------------------------------
# satisfaction ratio


def test_ratio_all_satisfied():
    cs = compiled("region room; object a;")
    a = SceneObject("a", transform=Transform(pos=(5.0, 0.5, 5.0)))
    assert satisfaction_ratio(cs, cs.context(simple_layout(a))) == 1.0


def test_ratio_empty_set_is_one():
    cs = compiled("region room;")
    assert satisfaction_ratio(cs, cs.context(SceneLayout(regions=[ROOM]))) == 1.0


def test_ratio_six_of_nine():
    # Three objects, 9 hidden constraints; stack all three at one spot so
    # exactly the three pairwise collision constraints fail.
    cs = compiled("region room; object a; object b; object c;")
    objs = [
        SceneObject(n, transform=Transform(pos=(5.0, 0.5, 5.0))) for n in ("a", "b", "c")
    ]
    layout = simple_layout(*objs)
    ctx = cs.context(layout)
    assert sum(cs.verdicts(layout).values()) == 6
    assert satisfaction_ratio(cs, ctx) == pytest.approx(6 / 9, abs=1e-9)


def test_ratio_order_independent():
    cs = compiled("region room; object a; object b; assert a.pos.x < b.pos.x;")
    a = SceneObject("a", transform=Transform(pos=(2.0, 0.5, 2.0)))
    b = SceneObject("b", transform=Transform(pos=(4.0, 0.5, 4.0)))
    ctx = cs.context(simple_layout(a, b))
    ratio = satisfaction_ratio(cs, ctx)
    cs.constraints.reverse()
    assert satisfaction_ratio(cs, ctx) == ratio


# ---------------------------------------------------------------------------
# Report lines


def test_verdict_line_format():
    cs = compiled("region room; object a; assert a.pos.x > 0;")
    line = format_verdict_line(cs.constraints[0], True)
    assert line == "0 explicit satisfied a.pos.x > 0"
    hidden = next(c for c in cs.constraints if isinstance(c.assertion, Supported))
    assert format_verdict_line(hidden, False) == (
        f"{hidden.id} hidden-gravity violated supported(a)"
    )


def test_boundary_constraint_is_inside_pred():
    cs = compiled("region room; object a;")
    boundary = next(c for c in cs.constraints if c.provenance == "hidden-boundary")
    assert isinstance(boundary.assertion, InsidePred)


# ---------------------------------------------------------------------------
# Variable bindings and the constraint index


def test_involved_closes_over_variable_bindings():
    cs = compiled("region room; object a; Number w; w <- a.pos.x; assert w > 3;")
    assert cs.constraints[0].involved == {"w", "a"}


def test_involved_closes_over_bindings_transitively():
    cs = compiled(
        "region room; object a; object b; Number v; Number w;\n"
        "w <- v * 2; v <- a.pos.x + b.pos.z; assert w > 3;"
    )
    assert cs.constraints[0].involved == {"w", "v", "a", "b"}


def _index_matches_scans(cs) -> None:
    names = set().union(*(c.involved for c in cs.constraints))
    for name in names | {"nobody"}:
        assert list(cs.touching(name)) == [c for c in cs.constraints if name in c.involved]
    for c in cs.constraints:
        assert cs.by_id(c.id) is c
    with pytest.raises(KeyError):
        cs.by_id(len(cs.constraints) + 100)


def test_constraint_index_matches_linear_scans():
    cs = compiled(
        "region room; object a; object b; object c; Number w; w <- b.pos.y;\n"
        "assert a.pos.x < c.pos.x; assert w > 1 || inside(a, room);\n"
        "assert a.pos.x < c.pos.x; allowCollide(a, b);"
    )
    _index_matches_scans(cs)
