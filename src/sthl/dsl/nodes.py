"""Immutable AST for ScenethesisLang.

Nodes are frozen dataclasses; source spans are excluded from equality so
that a program compares structurally equal to its re-parsed canonical
print. A span is a (line, column) named tuple, cheap to build once per
node. Rotation triples are written and stored in application order
(x, z, y) throughout the toolchain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Union


class ValueType(enum.Enum):
    NUMBER = "Number"
    DEGREE = "Degree"
    BOOL = "Bool"
    VECTOR3 = "Vector3"
    ROTATION = "Rotation"
    COLOR = "Color"
    MATERIAL = "Material"
    # Internal type of string literals; not declarable in source.
    STRING = "String"


#: Types a variable declaration may name.
DECLARABLE_TYPES = frozenset(
    v for v in ValueType if v is not ValueType.STRING
)

OBJECT_PROPERTIES = ("color", "material", "features")
TRANSFORM_PROPERTIES = ("pos", "rot", "scale")
COMPONENTS = ("x", "y", "z")

#: Built-in callables; not usable as declared identifiers.
BUILTIN_NAMES = frozenset({"rand", "vec3", "rot", "dot", "inside"})


class Span(NamedTuple):
    """A node's source position; the parser builds it with `tuple.__new__`."""

    line: int = 0
    column: int = 0


def _span_field() -> Span:
    return field(default=Span(), compare=False, repr=False)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class NumberLit:
    value: float
    span: Span = _span_field()


@dataclass(frozen=True)
class StringLit:
    value: str
    span: Span = _span_field()


@dataclass(frozen=True)
class Name:
    """Reference to a declared typed variable."""

    ident: str
    span: Span = _span_field()


@dataclass(frozen=True)
class Arith:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"
    span: Span = _span_field()


@dataclass(frozen=True)
class Rand:
    low: "Expr"
    high: "Expr"
    span: Span = _span_field()


@dataclass(frozen=True)
class Vec3:
    x: "Expr"
    y: "Expr"
    z: "Expr"
    span: Span = _span_field()


@dataclass(frozen=True)
class Rot:
    """Rotation constructor; arguments are degrees about x, z, y."""

    rx: "Expr"
    rz: "Expr"
    ry: "Expr"
    span: Span = _span_field()


@dataclass(frozen=True)
class Dot:
    left: "Expr"
    right: "Expr"
    span: Span = _span_field()


@dataclass(frozen=True)
class PropRef:
    """Property access `id.prop` or `id.prop.component`."""

    obj: str
    prop: str
    component: str | None = None
    span: Span = _span_field()


Expr = Union[NumberLit, StringLit, Name, Arith, Rand, Vec3, Rot, Dot, PropRef]


# ---------------------------------------------------------------------------
# Assertions


@dataclass(frozen=True)
class Compare:
    op: str  # one of = != < <= > >=
    left: Expr
    right: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class InsidePred:
    inner: str
    outer: str
    span: Span = _span_field()


@dataclass(frozen=True)
class And:
    left: "Assertion"
    right: "Assertion"
    span: Span = _span_field()


@dataclass(frozen=True)
class Or:
    left: "Assertion"
    right: "Assertion"
    span: Span = _span_field()


@dataclass(frozen=True)
class Not:
    operand: "Assertion"
    span: Span = _span_field()


Assertion = Union[Compare, InsidePred, And, Or, Not]


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class Declare:
    kind: str  # 'object' | 'region' | 'var'
    name: str
    var_type: ValueType | None = None
    span: Span = _span_field()


@dataclass(frozen=True)
class Assert:
    condition: Assertion
    span: Span = _span_field()


@dataclass(frozen=True)
class AllowCollide:
    first: str
    second: str
    span: Span = _span_field()


@dataclass(frozen=True)
class AllowOutside:
    name: str
    span: Span = _span_field()


@dataclass(frozen=True)
class Assign:
    target: str
    prop: str | None  # None for bare variable assignment
    value: Expr
    span: Span = _span_field()


Statement = Union[Declare, Assert, AllowCollide, AllowOutside, Assign]


@dataclass(frozen=True)
class Program:
    statements: tuple[Statement, ...]
    #: Normalization notes collected while parsing (e.g. `entity` alias use).
    notes: tuple[str, ...] = field(default=(), compare=False, repr=False)


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
