"""Differential tests: the chain-aware traversal of `sthl.dsl.nodes`, as
freeze, region assignment, `involved`, type checking and evaluation use
it, against the former recursive walkers kept in `walk_oracle.py`.

On every program both must give equal frozen statements, spans included,
and leave the freeze's random generator in the same state; equal
`involved` sets and region assignments; the same type-check result or the
same error class, message, line and column; and, on a placed layout, the
same verdict or `EvalError` for every constraint with the same number of
`scene.inside` calls, so the order and the short-circuit of `&&` and `||`
agree too.

Inputs are the grammar corpus and README fixtures, `scenegen` scenes, the
benchmark's house and authoring programs, `astgen` programs, and a few
programs whose chains tell a reversed loop or a dropped short-circuit apart.
"""

from __future__ import annotations

import random
import sys
import types
from pathlib import Path

import pytest

import walk_oracle
from astgen import random_program
from scenegen import generate_fixture
from sthl import constraints, scene
from sthl.build import build_scene
from sthl.constraints import compile_constraints, evaluate, infer_region_assignments
from sthl.dsl import Program, parse, print_program, typecheck
from sthl.errors import EvalError, SthlError
from sthl.solver import SolverConfig, solve
from test_parser_differential import _spans

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

SEEDS = (0, 7)

# Programs on which a chain walked in another order, or an `&&` or `||`
# that reads past its deciding operand, gives another result.
CHAINS = (
    # Type errors in two links of one chain: the lower link's is reported.
    "object a; Number w; w <- a.pos + a.pos - 1 + a.pos.x;",
    'object a; assert a.pos.x > 0 && a.pos = 1 && 1 < "s";',
    'object a; assert a.pos.x > 0 || 1 < "s" || a.rot = 1;',
    # Draws in a chain, in assignments and in assertions.
    "object a; region r; Number w; w <- rand(0, 1) - rand(2, 3) * rand(4, 5) + rand(6, 7);\n"
    "a.pos <- vec3(w, 0, rand(1, 2) + rand(3, 4));\n"
    "assert a.pos.x > rand(0, 1) && a.pos.z < rand(a.pos.y, 9) || a.pos.y = rand(-1, 1);",
    # Evaluation order and short-circuit.
    "object a; region r; a.pos <- vec3(1, 0, 1);\n"
    "assert inside(a, r) && !inside(a, r) && inside(a, r) && inside(a, r);\n"
    "assert !inside(a, r) || inside(a, r) || inside(a, r) || !inside(a, r);\n"
    "assert inside(a, r) && inside(a, r) && inside(a, r) && !inside(a, r);\n"
    "assert !inside(a, r) || !inside(a, r) || !inside(a, r) || inside(a, r);\n"
    "assert a.pos.x * 0 + 1 = 1 && a.pos.x - 2 * 3 / 2 + 4 = 2;",
    # An `inside` under `||` and `!` in the first assertion, a region
    # assignment from a later one.
    "object a; object b; region r; region s;\n"
    "assert !inside(a, s) || a.pos.x > 0 && inside(b, s) || inside(a, r);\n"
    "assert inside(a, s) && inside(b, r);",
)


def _programs() -> list[str]:
    paths = sorted((ROOT / "tests" / "fixtures" / "corpus").glob("*.sthl"))
    paths += sorted((ROOT / "fixtures").glob("*.sthl"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    texts += [generate_fixture(seed, 6 + seed).source for seed in range(4)]
    texts += [workloads.house_source(seed, (3, 4, 4)) for seed in range(2)]
    texts += [workloads.authoring_source(seed, 40) for seed in range(2)]
    rng = random.Random(13)
    texts += [print_program(random_program(rng)) for _ in range(150)]
    return texts + list(CHAINS)


PROGRAMS = _programs()


def _checked(check, program):
    try:
        typed = check(program)
    except SthlError as exc:
        return ("error", type(exc).__name__, exc.message, exc.line, exc.column)
    return ("ok", typed.symbols)


def _freeze(statements, seed: int, monkeypatch):
    """`constraints._freeze` on `statements`, with the state its generator ends in."""
    made: list[random.Random] = []

    def recorded(seed):
        made.append(random.Random(seed))
        return made[-1]

    monkeypatch.setattr(constraints, "random", types.SimpleNamespace(Random=recorded))
    frozen = constraints._freeze(statements, seed)
    monkeypatch.undo()
    (rng,) = made
    return frozen, rng.getstate()


def _counted(run, calls: list[int]):
    """The outcome of one evaluation and the `scene.inside` calls it made."""
    before = calls[0]
    try:
        verdict = ("ok", run())
    except EvalError as exc:
        verdict = ("error", str(exc))
    return verdict, calls[0] - before


def _placed(typed, seed: int):
    try:
        built = build_scene(typed, seed)
        cs = compile_constraints(typed, seed)
        cfg = SolverConfig(max_iterations=0, rng_seed=seed)
        report = solve(built.objects, built.regions, cs, cfg)
    except SthlError:
        return None
    return cs, report.best_layout


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_walkers_agree(index, monkeypatch):
    program = parse(PROGRAMS[index], "prog.sthl")
    checked = _checked(typecheck, program)
    assert checked == _checked(walk_oracle.typecheck, program)
    if checked[0] == "error":
        return
    typed = typecheck(program)
    assert infer_region_assignments(typed) == walk_oracle.region_assignments(typed)

    for seed in SEEDS:
        frozen, state = _freeze(program.statements, seed, monkeypatch)
        oracle_rng = random.Random(seed)
        expected = walk_oracle.freeze(program.statements, oracle_rng)
        assert frozen == expected
        assert _spans(Program(frozen)) == _spans(Program(expected))
        assert state == oracle_rng.getstate()

        cs = compile_constraints(typed, seed)
        for c in cs.constraints:
            assert c.involved == frozenset(walk_oracle.involved(c.assertion, cs.bindings))

        placed = _placed(typed, seed)
        if placed is None:
            continue
        cs, layout = placed
        calls = [0]
        inside = scene.inside

        def counted_inside(*args):
            calls[0] += 1
            return inside(*args)

        monkeypatch.setattr(scene, "inside", counted_inside)
        ctx = cs.context(layout)
        for c in cs.constraints:
            got = _counted(lambda: evaluate(c, ctx), calls)
            assert got == _counted(lambda: walk_oracle.evaluate(c.assertion, ctx), calls), c
        monkeypatch.undo()


def test_the_inputs_reach_every_walker():
    """Every input but the three type errors among `CHAINS` type-checks, and
    most place; `astgen` programs without a region cannot."""
    placed = errors = 0
    for text in PROGRAMS:
        program = parse(text)
        if _checked(typecheck, program)[0] == "ok":
            placed += _placed(typecheck(program), 0) is not None
        else:
            errors += 1
    assert errors == 3
    assert placed >= 60
