"""Type checker for parsed programs.

Every expression node receives a ValueType; failures raise TypeCheckError
with the node position and the expected/actual types. Number and Degree
form one numeric family: they mix freely in arithmetic (the result is
Degree if either operand is Degree) and compare against each other.
String literals coerce to Color and Material in assignment position.
A read of a variable that the program never assigns is an error at the
first such read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from sthl.dsl.nodes import (
    And,
    Arith,
    Assert,
    Assertion,
    Assign,
    Compare,
    Declare,
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
    Span,
    Statement,
    StringLit,
    ValueType,
    Vec3,
    chain,
)
from sthl.errors import TypeCheckError

_NUMERIC = (ValueType.NUMBER, ValueType.DEGREE)
_TEXT = (ValueType.STRING, ValueType.COLOR, ValueType.MATERIAL)
_ORDERING_OPS = ("<", "<=", ">", ">=")

#: Result types of property reads on objects/regions.
PROPERTY_TYPES = {
    "pos": ValueType.VECTOR3,
    "rot": ValueType.ROTATION,
    "scale": ValueType.VECTOR3,
    "color": ValueType.COLOR,
    "material": ValueType.MATERIAL,
    "features": ValueType.STRING,
}

_COMPONENT_TYPES = {
    "pos": ValueType.NUMBER,
    "rot": ValueType.DEGREE,
    "scale": ValueType.NUMBER,
}

#: Expression types accepted by each assignable property.
ASSIGNABLE = {
    "color": (ValueType.COLOR, ValueType.STRING),
    "material": (ValueType.MATERIAL, ValueType.STRING),
    "features": (ValueType.STRING,),
    "pos": (ValueType.VECTOR3,),
    "rot": (ValueType.ROTATION,),
    "scale": (ValueType.VECTOR3,),
}


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: str  # 'object' | 'region' | 'var'
    var_type: ValueType | None = None


@dataclass
class TypedProgram:
    """A type-checked program plus its symbol table."""

    program: Program
    symbols: dict[str, Symbol]
    #: `constraints.freeze_program`'s memo: seed -> frozen statements.
    frozen: dict[int, tuple[Statement, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def objects(self) -> list[str]:
        return [s.name for s in self.symbols.values() if s.kind == "object"]

    def regions(self) -> list[str]:
        return [s.name for s in self.symbols.values() if s.kind == "region"]


def _err(message: str, span: Span, filename: str) -> TypeCheckError:
    return TypeCheckError(message, span.line, span.column, filename)


def _family(t: ValueType) -> str:
    if t in _NUMERIC:
        return "numeric"
    if t in _TEXT:
        return "text"
    return t.value


class _Checker:
    def __init__(self, program: Program):
        self.program = program
        self.filename = program.filename
        self.symbols: dict[str, Symbol] = {}
        # An assertion reads a variable's last assignment, wherever it stands.
        self.assigned = {
            stmt.target
            for stmt in program.statements
            if isinstance(stmt, Assign) and stmt.prop is None
        }

    def run(self) -> TypedProgram:
        for stmt in self.program.statements:
            if isinstance(stmt, Declare):
                var_type = stmt.var_type if stmt.kind == "var" else None
                self.symbols[stmt.name] = Symbol(stmt.name, stmt.kind, var_type)
            elif isinstance(stmt, Assert):
                self.check_assertion(stmt.condition)
            elif isinstance(stmt, Assign):
                self.check_assign(stmt)
            # allowCollide/allowOutside are fully resolved by the parser.
        return TypedProgram(self.program, self.symbols)

    # ------------------------------------------------------------------

    def check_assertion(self, node: Assertion) -> None:
        if isinstance(node, (And, Or)):
            foot, links = chain(node)
            self.check_assertion(foot)
            for link in links:
                self.check_assertion(link.right)
        elif isinstance(node, Not):
            self.check_assertion(node.operand)
        elif isinstance(node, InsidePred):
            pass  # parser already enforced object/region kinds
        else:
            self.check_compare(node)

    def check_compare(self, node: Compare) -> None:
        left = self.infer(node.left)
        right = self.infer(node.right)
        for side, t in (("left", left), ("right", right)):
            if t in (ValueType.VECTOR3, ValueType.ROTATION):
                raise _err(
                    f"{t.value} is not comparable ({side} side of {node.op!r})",
                    node.span,
                    self.filename,
                )
        if node.op in _ORDERING_OPS:
            if left not in _NUMERIC or right not in _NUMERIC:
                raise _err(
                    f"ordering {node.op!r} requires numbers, found "
                    f"{left.value} and {right.value}",
                    node.span,
                    self.filename,
                )
        elif _family(left) != _family(right):
            raise _err(
                f"cannot compare {left.value} with {right.value}",
                node.span,
                self.filename,
            )

    def check_assign(self, node: Assign) -> None:
        symbol = self.symbols[node.target]
        value_type = self.infer(node.value)
        if node.prop is None:
            if symbol.kind != "var":
                raise _err(
                    f"cannot assign to a {symbol.kind} without a property",
                    node.span,
                    self.filename,
                )
            declared = symbol.var_type
            assert declared is not None
            if not self._assignable(declared, value_type):
                raise _err(
                    f"{declared.value} variable {node.target!r} assigned a "
                    f"{value_type.value} value",
                    node.span,
                    self.filename,
                )
            return
        if node.prop in ("color", "material", "features") and symbol.kind != "object":
            raise _err(
                f"property {node.prop!r} exists only on objects, "
                f"{node.target!r} is a {symbol.kind}",
                node.span,
                self.filename,
            )
        if symbol.kind == "var":
            raise _err(
                f"variable {node.target!r} has no properties", node.span, self.filename
            )
        expected = ASSIGNABLE[node.prop]
        if value_type not in expected:
            raise _err(
                f"property {node.prop!r} expects {expected[0].value}, "
                f"found {value_type.value}",
                node.span,
                self.filename,
            )

    def _assignable(self, declared: ValueType, value: ValueType) -> bool:
        if declared == value:
            return True
        if declared in _NUMERIC and value in _NUMERIC:
            return True
        if declared in (ValueType.COLOR, ValueType.MATERIAL) and value is ValueType.STRING:
            return True
        return False

    # ------------------------------------------------------------------

    def infer(self, node: Expr) -> ValueType:
        if isinstance(node, NumberLit):
            return ValueType.NUMBER
        if isinstance(node, StringLit):
            return ValueType.STRING
        if isinstance(node, Name):
            if node.ident not in self.assigned:
                raise _err(
                    f"variable {node.ident!r} is read but never assigned",
                    node.span,
                    self.filename,
                )
            symbol = self.symbols[node.ident]
            assert symbol.var_type is not None
            return symbol.var_type
        if isinstance(node, PropRef):
            return self._infer_propref(node)
        if isinstance(node, Arith):
            foot, links = chain(node)
            left = self.infer(foot)
            for link in links:
                right = self.infer(link.right)
                if link.op in ("+", "-") and left is right is ValueType.VECTOR3:
                    continue  # componentwise, e.g. dot(a.pos - b.pos, ...)
                if left not in _NUMERIC or right not in _NUMERIC:
                    raise _err(
                        f"arithmetic {link.op!r} requires numbers, found "
                        f"{left.value} and {right.value}",
                        link.span,
                        self.filename,
                    )
                left = ValueType.DEGREE if ValueType.DEGREE in (left, right) else ValueType.NUMBER
            return left
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

    def _infer_propref(self, node: PropRef) -> ValueType:
        symbol = self.symbols[node.obj]
        if symbol.kind == "region" and node.prop in ("color", "material", "features"):
            raise _err(
                f"property {node.prop!r} exists only on objects, "
                f"{node.obj!r} is a region",
                node.span,
                self.filename,
            )
        if node.component is not None:
            return _COMPONENT_TYPES[node.prop]
        return PROPERTY_TYPES[node.prop]

    def _require_numeric_components(self, span: Span, *parts: Expr, what: str) -> None:
        for part in parts:
            t = self.infer(part)
            if t not in _NUMERIC:
                raise _err(
                    f"{what} components must be numbers, found {t.value}",
                    span,
                    self.filename,
                )


def typecheck(program: Program) -> TypedProgram:
    """Check a parsed program, returning it with type annotations. Errors
    name the source `parse` was given."""
    return _Checker(program).run()
