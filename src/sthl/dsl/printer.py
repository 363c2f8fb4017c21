"""Canonical pretty-printer.

One statement per line; parentheses are reinstated only where precedence
or associativity demands them, so `parse(print_program(p))` reproduces p
structurally.
"""

from __future__ import annotations

from sthl.dsl.nodes import (
    AllowCollide,
    AllowOutside,
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
    Statement,
    StringLit,
    Vec3,
)

_EXPR_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def format_number(value: float) -> str:
    """Render a float in positional notation that re-parses to the same value."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(value)
    if "e" in text or "E" in text:
        # Expand scientific notation; Decimal(repr) is exact for the
        # shortest repr so the decimal string still round-trips. Imported
        # here: no other branch needs `decimal`.
        from decimal import Decimal

        text = format(Decimal(text), "f")
    return text


def _quote(text: str) -> str:
    return '"' + "".join(_STRING_ESCAPES.get(ch, ch) for ch in text) + '"'


def print_expr(node: Expr, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(node, NumberLit):
        return format_number(node.value)
    if isinstance(node, StringLit):
        return _quote(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, PropRef):
        path = f"{node.obj}.{node.prop}"
        return f"{path}.{node.component}" if node.component else path
    if isinstance(node, Rand):
        return f"rand({print_expr(node.low)}, {print_expr(node.high)})"
    if isinstance(node, Vec3):
        return f"vec3({print_expr(node.x)}, {print_expr(node.y)}, {print_expr(node.z)})"
    if isinstance(node, Rot):
        return f"rot({print_expr(node.rx)}, {print_expr(node.rz)}, {print_expr(node.ry)})"
    if isinstance(node, Dot):
        return f"dot({print_expr(node.left)}, {print_expr(node.right)})"
    assert isinstance(node, Arith)
    prec = _EXPR_PREC[node.op]
    # A left operand at the same precedence prints bare, so the left-deep
    # chain `a + b - c + ...` is walked in a loop, not one call per term.
    rights: list[str] = []
    while isinstance(node, Arith) and _EXPR_PREC[node.op] == prec:
        rights.append(f" {node.op} {print_expr(node.right, prec, right_side=True)}")
        node = node.left
    text = print_expr(node, prec, right_side=False) + "".join(reversed(rights))
    # Parenthesize when looser than the context, or equal precedence on the
    # right of a left-associative operator (preserves tree shape).
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def print_assertion(node: Assertion, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(node, Compare):
        return f"{print_expr(node.left)} {node.op} {print_expr(node.right)}"
    if isinstance(node, InsidePred):
        return f"inside({node.inner}, {node.outer})"
    if isinstance(node, Not):
        inner = print_assertion(node.operand, 3)
        return f"!{inner}"
    kind = type(node)
    op, prec = ("||", 1) if kind is Or else ("&&", 2)
    # As in `print_expr`: the left-deep chain of one operator in a loop.
    rights: list[str] = []
    while type(node) is kind:
        rights.append(f" {op} {print_assertion(node.right, prec, right_side=True)}")
        node = node.left
    text = print_assertion(node, prec, right_side=False) + "".join(reversed(rights))
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def print_statement(node: Statement) -> str:
    if isinstance(node, Declare):
        if node.kind == "var":
            assert node.var_type is not None
            return f"{node.var_type.value} {node.name};"
        return f"{node.kind} {node.name};"
    if isinstance(node, Assert):
        return f"assert {print_assertion(node.condition)};"
    if isinstance(node, AllowCollide):
        return f"allowCollide({node.first}, {node.second});"
    if isinstance(node, AllowOutside):
        return f"allowOutside({node.name});"
    assert isinstance(node, Assign)
    target = node.target if node.prop is None else f"{node.target}.{node.prop}"
    return f"{target} <- {print_expr(node.value)};"


def print_program(program: Program) -> str:
    """Canonical text of a program, one statement per line."""
    return "\n".join(print_statement(s) for s in program.statements) + "\n"
