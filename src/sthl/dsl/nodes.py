"""Immutable AST for ScenethesisLang.

Nodes are frozen dataclasses; source spans are excluded from equality so
that a program compares structurally equal to its re-parsed canonical
print. A span is a (line, column) named tuple, cheap to build once per
node. Rotation triples are written and stored in application order
(x, z, y) throughout the toolchain.

Walkers loop over a left-deep run of one operator (`chain`) and recurse
only into other children (`CHILD_FIELDS`), so the depth of a walk over a
parsed program grows with its nesting of parentheses, calls and `!`,
which the parser caps at `MAX_NESTING`, not with the length of a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
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
    #: The source name `parse` was given; every later stage's errors name it.
    filename: str = field(default="<sthl>", compare=False, repr=False)
    #: The text `parse` read. Only `parse` sets it, so a Program built by
    #: hand or by `dataclasses.replace` holds None.
    source: str | None = field(default=None, init=False, compare=False, repr=False)


#: Child fields of each node type that has children, left to right.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Assert: ("condition",),
    Assign: ("value",),
    Arith: ("left", "right"),
    Rand: ("low", "high"),
    Vec3: ("x", "y", "z"),
    Rot: ("rx", "rz", "ry"),
    Dot: ("left", "right"),
    Compare: ("left", "right"),
    And: ("left", "right"),
    Or: ("left", "right"),
    Not: ("operand",),
}


def chain(node: Arith | And | Or) -> tuple[Expr | Assertion, list]:
    """The left-deep chain of `type(node)` that `node` tops: its foot operand
    and its links, bottom first. `a - b + c` gives `a` and the `-` and `+`
    nodes, so a caller walks every operand left to right in one loop,
    reading each link's `right`."""
    kind = type(node)
    links = []
    while type(node) is kind:
        links.append(node)
        node = node.left  # type: ignore[union-attr]
    links.reverse()
    return node, links


def rebuild(node, children):
    """`node` with its `CHILD_FIELDS` set to `children`, in order; `node`
    itself when every child is the one it already holds."""
    fields = CHILD_FIELDS[type(node)]
    for name, child in zip(fields, children):
        if getattr(node, name) is not child:
            return replace(node, **dict(zip(fields, children)))
    return node


def idents(node: Expr | Assertion) -> set[str]:
    """Every identifier an expression or assertion names: objects, regions
    and variables."""
    out: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Name:
            out.add(node.ident)  # type: ignore[union-attr]
        elif kind is PropRef:
            out.add(node.obj)  # type: ignore[union-attr]
        elif kind is InsidePred:
            out.update((node.inner, node.outer))  # type: ignore[union-attr]
        else:
            stack.extend(getattr(node, f) for f in CHILD_FIELDS.get(kind, ()))
    return out
