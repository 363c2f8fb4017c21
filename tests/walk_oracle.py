"""Reference tree walkers: the former recursive walkers over the
ScenethesisLang AST, kept verbatim as the oracle that
`tests/test_walk_differential.py` compares the chain-aware traversal of
`sthl.dsl.nodes` against. Each descends one Python frame per operand, so a
long flat `+`, `&&` or `||` chain exceeds the interpreter's recursion limit
here; the toolchain loops over such chains instead.

It holds the identifier walkers that `sthl.dsl.nodes` had
(`expr_children`, `assertion_exprs`, `referenced_idents`, `expr_idents`);
from `sthl.constraints`, `_inside_preds`, `_freeze_assertion` and
`_freeze_expr`, with the former `infer_region_assignments`, `_involved`
and `_freeze` as `region_assignments`, `involved` and `freeze` (which
takes its generator as an argument); the type checker's former `infer`
and `check_assertion`, behind `typecheck`; and the former
`_eval_assertion`, `_eval_expr` and `_eval_number`, behind `evaluate`.
"""

from __future__ import annotations

import random
from dataclasses import replace

from sthl import scene
from sthl.constraints import (
    CompiledAssertion,
    EvalContext,
    NoCollision,
    Supported,
    Value,
    _compare,
    _eval_propref,
    _object,
)
from sthl.dsl.nodes import (
    And,
    Arith,
    Assert,
    Assertion,
    Assign,
    Compare,
    Dot,
    Expr,
    InsidePred,
    Name,
    Not,
    NumberLit,
    Or,
    Program,
    PropRef,
    Rand,
    Rot,
    Statement,
    StringLit,
    ValueType,
    Vec3,
)
from sthl.dsl.typecheck import _NUMERIC, TypedProgram, _Checker, _err
from sthl.errors import EvalError

# ---------------------------------------------------------------------------
# Identifiers (formerly `sthl.dsl.nodes`)


def expr_children(node: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions of an expression node."""
    if isinstance(node, Arith):
        return (node.left, node.right)
    if isinstance(node, Rand):
        return (node.low, node.high)
    if isinstance(node, Vec3):
        return (node.x, node.y, node.z)
    if isinstance(node, Rot):
        return (node.rx, node.rz, node.ry)
    if isinstance(node, Dot):
        return (node.left, node.right)
    return ()


def assertion_exprs(node: Assertion) -> tuple[Expr, ...]:
    """All expression trees hanging off an assertion tree."""
    if isinstance(node, Compare):
        return (node.left, node.right)
    if isinstance(node, (And, Or)):
        return assertion_exprs(node.left) + assertion_exprs(node.right)
    if isinstance(node, Not):
        return assertion_exprs(node.operand)
    return ()


def referenced_idents(node: Assertion) -> set[str]:
    """All identifiers appearing in an assertion (objects, regions, vars)."""
    idents: set[str] = set()
    if isinstance(node, InsidePred):
        idents.update((node.inner, node.outer))
        return idents
    if isinstance(node, (And, Or)):
        return referenced_idents(node.left) | referenced_idents(node.right)
    if isinstance(node, Not):
        return referenced_idents(node.operand)
    for expr in assertion_exprs(node):
        idents |= expr_idents(expr)
    return idents


def expr_idents(expr: Expr) -> set[str]:
    """All identifiers appearing in an expression (objects, regions, vars)."""
    if isinstance(expr, Name):
        return {expr.ident}
    if isinstance(expr, PropRef):
        return {expr.obj}
    out: set[str] = set()
    for child in expr_children(expr):
        out |= expr_idents(child)
    return out


# ---------------------------------------------------------------------------
# Region assignments, `involved` and freeze (formerly `sthl.constraints`)


def region_assignments(typed: TypedProgram) -> dict[str, str]:
    regions = typed.regions()
    if not regions:
        return {}
    assignments: dict[str, str] = {}
    for stmt in typed.program.statements:
        if not isinstance(stmt, Assert):
            continue
        for pred in _inside_preds(stmt.condition):
            assignments.setdefault(pred.inner, pred.outer)
    for obj in typed.objects():
        assignments.setdefault(obj, regions[0])
    return assignments


def _inside_preds(node: Assertion) -> list[InsidePred]:
    if isinstance(node, InsidePred):
        return [node]
    if isinstance(node, (And, Or)):
        return _inside_preds(node.left) + _inside_preds(node.right)
    return []  # also for Not: a negated inside() must not pin the region assignment


def involved(assertion: CompiledAssertion, bindings: dict[str, Expr]) -> set[str]:
    """Identifiers an assertion depends on, closed over variable bindings:
    a variable bound to `a.pos.x` brings in `a`, transitively, and the
    variable names themselves stay in the set."""
    if isinstance(assertion, NoCollision):
        return {assertion.first, assertion.second}
    if isinstance(assertion, Supported):
        return {assertion.name}
    names = referenced_idents(assertion)
    pending = [name for name in names if name in bindings]
    while pending:
        for ident in expr_idents(bindings[pending.pop()]):
            if ident not in names:
                names.add(ident)
                if ident in bindings:
                    pending.append(ident)
    return names


def freeze(statements: tuple[Statement, ...], rng: random.Random) -> tuple[Statement, ...]:
    """The former `constraints._freeze`, drawing from `rng`."""
    env: dict[str, Expr] = {}
    frozen: list[Statement] = []
    for stmt in statements:
        if isinstance(stmt, Assign):
            stmt = replace(stmt, value=_freeze_expr(stmt.value, env, rng, substitute=True))
            if stmt.prop is None:
                env[stmt.target] = stmt.value
        elif isinstance(stmt, Assert):
            stmt = replace(stmt, condition=_freeze_assertion(stmt.condition, env, rng))
        frozen.append(stmt)
    return tuple(frozen)


def _freeze_assertion(node: Assertion, env: dict[str, Expr], rng: random.Random) -> Assertion:
    if isinstance(node, Compare):
        return Compare(
            node.op,
            _freeze_expr(node.left, env, rng),
            _freeze_expr(node.right, env, rng),
            span=node.span,
        )
    if isinstance(node, And):
        return And(
            _freeze_assertion(node.left, env, rng),
            _freeze_assertion(node.right, env, rng),
            span=node.span,
        )
    if isinstance(node, Or):
        return Or(
            _freeze_assertion(node.left, env, rng),
            _freeze_assertion(node.right, env, rng),
            span=node.span,
        )
    if isinstance(node, Not):
        return Not(_freeze_assertion(node.operand, env, rng), span=node.span)
    return node  # InsidePred


def _freeze_expr(
    node: Expr, env: dict[str, Expr], rng: random.Random, substitute: bool = False
) -> Expr:
    if isinstance(node, Rand):
        low = _freeze_expr(node.low, env, rng, substitute)
        high = _freeze_expr(node.high, env, rng, substitute)
        if isinstance(low, NumberLit) and isinstance(high, NumberLit):
            return NumberLit(rng.uniform(low.value, high.value), span=node.span)
        # Bounds depending on layout properties cannot be frozen; sample the
        # unit draw now so evaluation stays deterministic.
        u = rng.random()
        return Arith(
            "+",
            low,
            Arith("*", NumberLit(u), Arith("-", high, low)),
            span=node.span,
        )
    if isinstance(node, Name) and substitute:
        return env.get(node.ident, node)
    if isinstance(node, Arith):
        return Arith(
            node.op,
            _freeze_expr(node.left, env, rng, substitute),
            _freeze_expr(node.right, env, rng, substitute),
            span=node.span,
        )
    if isinstance(node, Vec3):
        return Vec3(
            _freeze_expr(node.x, env, rng, substitute),
            _freeze_expr(node.y, env, rng, substitute),
            _freeze_expr(node.z, env, rng, substitute),
            span=node.span,
        )
    if isinstance(node, Rot):
        return Rot(
            _freeze_expr(node.rx, env, rng, substitute),
            _freeze_expr(node.rz, env, rng, substitute),
            _freeze_expr(node.ry, env, rng, substitute),
            span=node.span,
        )
    if isinstance(node, Dot):
        return Dot(
            _freeze_expr(node.left, env, rng, substitute),
            _freeze_expr(node.right, env, rng, substitute),
            span=node.span,
        )
    return node


# ---------------------------------------------------------------------------
# Type checking (formerly `_Checker.infer` and `_Checker.check_assertion`)


class _OracleChecker(_Checker):
    def check_assertion(self, node: Assertion) -> None:
        if isinstance(node, (And, Or)):
            self.check_assertion(node.left)
            self.check_assertion(node.right)
        elif isinstance(node, Not):
            self.check_assertion(node.operand)
        elif isinstance(node, InsidePred):
            pass  # parser already enforced object/region kinds
        else:
            self.check_compare(node)

    def infer(self, node: Expr) -> ValueType:
        if isinstance(node, NumberLit):
            return ValueType.NUMBER
        if isinstance(node, StringLit):
            return ValueType.STRING
        if isinstance(node, Name):
            symbol = self.symbols[node.ident]
            assert symbol.var_type is not None
            return symbol.var_type
        if isinstance(node, PropRef):
            return self._infer_propref(node)
        if isinstance(node, Arith):
            left = self.infer(node.left)
            right = self.infer(node.right)
            if (
                node.op in ("+", "-")
                and left is ValueType.VECTOR3
                and right is ValueType.VECTOR3
            ):
                return ValueType.VECTOR3  # componentwise, e.g. dot(a.pos - b.pos, ...)
            if left not in _NUMERIC or right not in _NUMERIC:
                raise _err(
                    f"arithmetic {node.op!r} requires numbers, found "
                    f"{left.value} and {right.value}",
                    node.span,
                    self.filename,
                )
            if ValueType.DEGREE in (left, right):
                return ValueType.DEGREE
            return ValueType.NUMBER
        if isinstance(node, Rand):
            low = self.infer(node.low)
            high = self.infer(node.high)
            if low not in _NUMERIC or high not in _NUMERIC:
                raise _err("rand bounds must be numbers", node.span, self.filename)
            return ValueType.DEGREE if ValueType.DEGREE in (low, high) else ValueType.NUMBER
        if isinstance(node, Vec3):
            self._require_numeric_components(node.span, node.x, node.y, node.z, what="vec3")
            return ValueType.VECTOR3
        if isinstance(node, Rot):
            self._require_numeric_components(node.span, node.rx, node.rz, node.ry, what="rot")
            return ValueType.ROTATION
        assert isinstance(node, Dot)
        left = self.infer(node.left)
        right = self.infer(node.right)
        if left is not ValueType.VECTOR3 or right is not ValueType.VECTOR3:
            raise _err(
                f"dot requires two Vector3, found {left.value} and {right.value}",
                node.span,
                self.filename,
            )
        return ValueType.NUMBER


def typecheck(program: Program) -> TypedProgram:
    return _OracleChecker(program).run()


# ---------------------------------------------------------------------------
# Evaluation (formerly `sthl.constraints`)


def evaluate(assertion: CompiledAssertion, ctx: EvalContext) -> bool:
    return _eval_assertion(assertion, ctx)


def _eval_assertion(node: CompiledAssertion, ctx: EvalContext) -> bool:
    if isinstance(node, NoCollision):
        layout = ctx.layout
        return not scene.collides(_object(layout, node.first), _object(layout, node.second))
    if isinstance(node, Supported):
        return scene.supported(_object(ctx.layout, node.name), ctx.layout)
    if isinstance(node, InsidePred):
        try:
            region = ctx.layout.region(node.outer)
        except KeyError:
            raise EvalError(f"region {node.outer!r} missing from layout") from None
        return scene.inside(_object(ctx.layout, node.inner), region)
    if isinstance(node, And):
        return _eval_assertion(node.left, ctx) and _eval_assertion(node.right, ctx)
    if isinstance(node, Or):
        return _eval_assertion(node.left, ctx) or _eval_assertion(node.right, ctx)
    if isinstance(node, Not):
        return not _eval_assertion(node.operand, ctx)
    assert isinstance(node, Compare)
    return _compare(node.op, _eval_expr(node.left, ctx), _eval_expr(node.right, ctx))


def _eval_expr(node: Expr, ctx: EvalContext, _stack: frozenset[str] = frozenset()) -> Value:
    if isinstance(node, NumberLit):
        return node.value
    if isinstance(node, StringLit):
        return node.value
    if isinstance(node, Name):
        if node.ident in _stack:
            raise EvalError(f"circular binding for variable {node.ident!r}")
        if node.ident not in ctx.bindings:
            raise EvalError(f"variable {node.ident!r} was never assigned")
        return _eval_expr(ctx.bindings[node.ident], ctx, _stack | {node.ident})
    if isinstance(node, PropRef):
        return _eval_propref(node, ctx)
    if isinstance(node, Arith):
        left = _eval_expr(node.left, ctx, _stack)
        right = _eval_expr(node.right, ctx, _stack)
        if isinstance(left, tuple) and isinstance(right, tuple) and node.op in ("+", "-"):
            if len(left) != len(right):
                raise EvalError("vector arithmetic on mismatched lengths")
            if node.op == "+":
                return tuple(a + b for a, b in zip(left, right))
            return tuple(a - b for a, b in zip(left, right))
        if not isinstance(left, float) or not isinstance(right, float):
            raise EvalError(f"arithmetic {node.op!r} on non-numbers")
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0.0:
            # IEEE-style result keeps the solver alive on degenerate layouts.
            if left == 0.0:
                return float("nan")
            return float("inf") if left > 0 else float("-inf")
        return left / right
    if isinstance(node, Vec3):
        return tuple(_eval_number(part, ctx, _stack) for part in (node.x, node.y, node.z))
    if isinstance(node, Rot):
        return tuple(_eval_number(part, ctx, _stack) for part in (node.rx, node.rz, node.ry))
    assert isinstance(node, Dot)
    left = _eval_expr(node.left, ctx, _stack)
    right = _eval_expr(node.right, ctx, _stack)
    if not (isinstance(left, tuple) and isinstance(right, tuple) and len(left) == len(right) == 3):
        raise EvalError("dot requires two Vector3 values")
    return sum(a * b for a, b in zip(left, right))


def _eval_number(node: Expr, ctx: EvalContext, _stack: frozenset[str]) -> float:
    value = _eval_expr(node, ctx, _stack)
    if not isinstance(value, float):
        raise EvalError("expected a number component")
    return value
