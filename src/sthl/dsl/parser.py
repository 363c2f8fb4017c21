"""Recursive-descent parser over the lexer's token table, with declaration
resolution.

The parser reads `TokenTable.kinds` and `TokenTable.texts` by index: its
cursor is one integer, `pos`, and a production looks at `kinds[pos]` (and
at most one kind past it) to choose its way. No `Token` object is built.
Per-node work is the node itself and its span: `span` bisects the token's
line and column from its start offset and the table's line starts only
then. An error gets its position the same way and reads a token's value
through `TokenTable.value`. String literals are unquoted when their
`StringLit` is built.

The concrete grammar is LL apart from one spot: after `(` in assertion
position the input may be either a parenthesized assertion or a
parenthesized arithmetic expression opening a comparison. The parser
saves the token index, attempts the assertion reading, and backtracks
to the expression reading if that fails.

Identifier resolution happens during the parse: every referenced name must
be declared earlier in statement order, and no name may be declared twice.

Parentheses, built-in calls and `!` may nest at most `MAX_NESTING` deep;
one level deeper is a ParseError at the token that opens it.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isinf

from sthl.dsl.lexer import TokenTable, scan, string_value
from sthl.dsl.nodes import (
    BUILTIN_NAMES,
    COMPONENTS,
    OBJECT_PROPERTIES,
    TRANSFORM_PROPERTIES,
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
    Span,
    Statement,
    StringLit,
    ValueType,
    Vec3,
)
from sthl.errors import ParseError, ResolveError

# Each nesting level costs the parser up to four Python frames, and every
# later stage (type check, freeze, build, compile, print, evaluation) recurses
# over the tree too; 100 levels keeps them all far inside the interpreter's
# default recursion limit of 1000.
MAX_NESTING = 100

_COMPARE_KINDS = {"EQ": "=", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}
_PROPERTIES = OBJECT_PROPERTIES + TRANSFORM_PROPERTIES
_CALLS = {"rand": (Rand, 2), "vec3": (Vec3, 3), "rot": (Rot, 3), "dot": (Dot, 2)}
_new = tuple.__new__


class _Parser:
    def __init__(self, table: TokenTable, filename: str):
        self.table = table
        # One EOF sentinel past the lexer's EOF keeps a look one kind ahead
        # in range.
        self.kinds = table.kinds + ["EOF"]
        self.texts = table.texts
        self.starts = table.starts
        self.line_starts = table.line_starts
        self.filename = filename
        self.pos = 0
        self.depth = 0
        # name -> ('object' | 'region' | 'var', ValueType | None)
        self.symbols: dict[str, tuple[str, ValueType | None]] = {}
        self.notes: list[str] = []

    # ------------------------------------------------------------------
    # Cursor helpers. A token is named by its index in the table; `pos`
    # never passes the lexer's EOF: `advance` stays on it, and no caller
    # expects EOF.

    def advance(self) -> int:
        i = self.pos
        if self.kinds[i] != "EOF":
            self.pos = i + 1
        return i

    def expect(self, kind: str, what: str) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            value = self.table.value(i)
            found = repr(value) if value else "end of input"
            raise self.parse_error(f"expected {what}, found {found}", i)
        self.pos = i + 1
        return i

    def nest(self, opener: int) -> None:
        """Enter one nesting level; the caller leaves it with `depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.parse_error(f"nesting deeper than {MAX_NESTING} levels", opener)

    def parse_error(self, message: str, i: int) -> ParseError:
        return ParseError(message, *self.span(i), self.filename)

    def resolve_error(self, message: str, i: int) -> ResolveError:
        return ResolveError(message, *self.span(i), self.filename)

    def span(self, i: int) -> Span:
        # `TokenTable.position`, inlined: it runs once per node.
        start = self.starts[i]
        line = bisect_right(self.line_starts, start)
        return _new(Span, (line, start - self.line_starts[line - 1] + 1))

    # ------------------------------------------------------------------
    # Symbol table

    def declare(self, name_i: int, kind: str, var_type: ValueType | None = None) -> None:
        name = self.texts[name_i]
        if name in BUILTIN_NAMES:
            raise self.resolve_error(f"{name!r} is a built-in and cannot be declared", name_i)
        if name in self.symbols:
            raise self.resolve_error(f"duplicate declaration of {name!r}", name_i)
        self.symbols[name] = (kind, var_type)

    def lookup(self, name_i: int) -> tuple[str, ValueType | None]:
        entry = self.symbols.get(self.texts[name_i])
        if entry is None:
            raise self.resolve_error(f"undeclared identifier {self.texts[name_i]!r}", name_i)
        return entry

    def expect_kind(self, name_i: int, kinds: tuple[str, ...], what: str) -> None:
        kind, _ = self.lookup(name_i)
        if kind not in kinds:
            raise self.resolve_error(f"{self.texts[name_i]!r} is a {kind}, expected {what}", name_i)

    # ------------------------------------------------------------------
    # Grammar

    def program(self) -> Program:
        kinds = self.kinds
        if kinds[self.pos] == "EOF":
            raise self.parse_error("a program is one or more statements", self.pos)
        statements: list[Statement] = []
        while kinds[self.pos] != "EOF":
            statements.append(self.statement())
        return Program(tuple(statements), notes=tuple(self.notes), filename=self.filename)

    def statement(self) -> Statement:
        i = self.pos
        kind = self.kinds[i]
        if kind == "IDENT":
            return self.assignment()
        if kind == "ASSERT":
            return self.assert_stmt()
        if kind in ("OBJECT", "ENTITY", "REGION"):
            return self.declaration()
        if kind == "TYPE":
            return self.var_declaration()
        if kind == "ALLOWCOLLIDE":
            return self.allow_collide()
        if kind == "ALLOWOUTSIDE":
            return self.allow_outside()
        raise self.parse_error(f"expected a statement, found {self.table.value(i)!r}", i)

    def declaration(self) -> Declare:
        kw = self.advance()
        if self.kinds[kw] == "ENTITY":
            line, column = self.span(kw)
            self.notes.append(f"{self.filename}:{line}:{column}: 'entity' normalized to 'object'")
        kind = "region" if self.kinds[kw] == "REGION" else "object"
        name = self.expect("IDENT", "an identifier")
        self.declare(name, kind)
        self.expect("SEMI", "';'")
        return Declare(kind, self.texts[name], span=self.span(kw))

    def var_declaration(self) -> Declare:
        type_i = self.advance()
        var_type = ValueType(self.texts[type_i])
        name = self.expect("IDENT", "an identifier")
        self.declare(name, "var", var_type)
        self.expect("SEMI", "';'")
        return Declare("var", self.texts[name], var_type, span=self.span(type_i))

    def assert_stmt(self) -> Assert:
        kw = self.advance()
        condition = self.assertion()
        self.expect("SEMI", "';'")
        return Assert(condition, span=self.span(kw))

    def allow_collide(self) -> AllowCollide:
        kw = self.advance()
        self.expect("LPAREN", "'('")
        first = self.expect("IDENT", "an object identifier")
        self.expect_kind(first, ("object",), "an object")
        self.expect("COMMA", "','")
        second = self.expect("IDENT", "an object identifier")
        self.expect_kind(second, ("object",), "an object")
        if self.texts[first] == self.texts[second]:
            raise self.resolve_error("allowCollide requires two distinct objects", second)
        self.expect("RPAREN", "')'")
        self.expect("SEMI", "';'")
        return AllowCollide(self.texts[first], self.texts[second], span=self.span(kw))

    def allow_outside(self) -> AllowOutside:
        kw = self.advance()
        self.expect("LPAREN", "'('")
        name = self.expect("IDENT", "an object identifier")
        self.expect_kind(name, ("object",), "an object")
        self.expect("RPAREN", "')'")
        self.expect("SEMI", "';'")
        return AllowOutside(self.texts[name], span=self.span(kw))

    def assignment(self) -> Assign:
        target = self.advance()
        self.lookup(target)
        prop: str | None = None
        if self.kinds[self.pos] == "DOT":
            self.pos += 1
            prop_i = self.expect("IDENT", "a property name")
            prop = self.texts[prop_i]
            if prop not in _PROPERTIES:
                raise self.parse_error(f"unknown property {prop!r}", prop_i)
        self.expect("ARROW", "'<-'")
        value = self.expression()
        self.expect("SEMI", "';'")
        return Assign(self.texts[target], prop, value, span=self.span(target))

    # ------------------------------------------------------------------
    # Assertions (precedence: || < && < ! < comparisons)

    def assertion(self) -> Assertion:
        left = self.and_assertion()
        while self.kinds[self.pos] == "OR":
            op = self.pos
            self.pos = op + 1
            right = self.and_assertion()
            left = Or(left, right, span=self.span(op))
        return left

    def and_assertion(self) -> Assertion:
        left = self.not_assertion()
        while self.kinds[self.pos] == "AND":
            op = self.pos
            self.pos = op + 1
            right = self.not_assertion()
            left = And(left, right, span=self.span(op))
        return left

    def not_assertion(self) -> Assertion:
        op = self.pos
        if self.kinds[op] == "NOT":
            self.pos = op + 1
            self.nest(op)
            operand = self.not_assertion()
            self.depth -= 1
            return Not(operand, span=self.span(op))
        return self.primary_assertion()

    def primary_assertion(self) -> Assertion:
        i = self.pos
        kind = self.kinds[i]
        if kind == "IDENT" and self.texts[i] == "inside" and self.kinds[i + 1] == "LPAREN":
            return self.inside_pred()
        if kind == "LPAREN":
            # Either a grouped assertion or an expression opening a
            # comparison; try the assertion reading first.
            depth = self.depth
            try:
                self.pos = i + 1
                self.nest(i)
                inner = self.assertion()
                self.expect("RPAREN", "')'")
                self.depth -= 1
                return inner
            except ParseError:
                self.pos, self.depth = i, depth
        return self.comparison()

    def inside_pred(self) -> InsidePred:
        kw = self.advance()
        self.expect("LPAREN", "'('")
        inner = self.expect("IDENT", "an object identifier")
        self.expect_kind(inner, ("object",), "an object")
        self.expect("COMMA", "','")
        outer = self.expect("IDENT", "a region identifier")
        self.expect_kind(outer, ("region",), "a region")
        self.expect("RPAREN", "')'")
        return InsidePred(self.texts[inner], self.texts[outer], span=self.span(kw))

    def comparison(self) -> Compare:
        left = self.expression()
        i = self.pos
        op = _COMPARE_KINDS.get(self.kinds[i])
        if op is None:
            raise self.parse_error(
                f"expected a comparison operator, found {self.table.value(i)!r}", i
            )
        self.pos = i + 1
        right = self.expression()
        return Compare(op, left, right, span=self.span(i))

    # ------------------------------------------------------------------
    # Expressions (precedence: +,- < *,/)

    def expression(self) -> Expr:
        left = self.term()
        kinds = self.kinds
        while kinds[self.pos] in ("PLUS", "MINUS"):
            op = self.pos
            self.pos = op + 1
            right = self.term()
            left = Arith(self.texts[op], left, right, span=self.span(op))
        return left

    def term(self) -> Expr:
        left = self.factor()
        kinds = self.kinds
        while kinds[self.pos] in ("STAR", "SLASH"):
            op = self.pos
            self.pos = op + 1
            right = self.factor()
            left = Arith(self.texts[op], left, right, span=self.span(op))
        return left

    def factor(self) -> Expr:
        i = self.pos
        kind = self.kinds[i]
        if kind == "IDENT":
            if self.texts[i] in _CALLS and self.kinds[i + 1] == "LPAREN":
                return self.builtin_call()
            return self.name_or_propref()
        if kind == "NUMBER":
            self.pos = i + 1
            value = float(self.texts[i])
            if isinf(value):
                raise self.parse_error("number literal out of range (beyond about 1.8e308)", i)
            return NumberLit(value, span=self.span(i))
        if kind == "STRING":
            self.pos = i + 1
            return StringLit(string_value(self.texts[i]), span=self.span(i))
        if kind == "LPAREN":
            self.pos = i + 1
            self.nest(i)
            inner = self.expression()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return inner
        raise self.parse_error(f"expected an expression, found {self.table.value(i)!r}", i)

    def builtin_call(self) -> Expr:
        name = self.pos
        self.pos = name + 1
        self.nest(self.expect("LPAREN", "'('"))
        args = [self.expression()]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            args.append(self.expression())
        self.expect("RPAREN", "')'")
        self.depth -= 1
        node, arity = _CALLS[self.texts[name]]
        if len(args) != arity:
            raise self.parse_error(
                f"{self.texts[name]} takes {arity} arguments, found {len(args)}", name
            )
        return node(*args, span=self.span(name))

    def name_or_propref(self) -> Expr:
        i = self.pos
        self.pos = i + 1
        name = self.texts[i]
        kind, _ = self.lookup(i)
        if self.kinds[self.pos] != "DOT":
            if kind != "var":
                raise self.resolve_error(
                    f"{name!r} is a {kind} and has no value; access a property instead", i
                )
            return Name(name, span=self.span(i))
        if kind == "var":
            raise self.resolve_error(f"{name!r} is a variable and has no properties", i)
        self.pos += 1
        prop_i = self.expect("IDENT", "a property name")
        prop = self.texts[prop_i]
        if prop not in _PROPERTIES:
            raise self.parse_error(f"unknown property {prop!r}", prop_i)
        component: str | None = None
        if self.kinds[self.pos] == "DOT" and prop in TRANSFORM_PROPERTIES:
            self.pos += 1
            comp_i = self.expect("IDENT", "a component (x, y or z)")
            component = self.texts[comp_i]
            if component not in COMPONENTS:
                raise self.parse_error(
                    f"unknown component {component!r} (expected x, y or z)", comp_i
                )
        return PropRef(name, prop, component, span=self.span(i))


def parse(source: str, filename: str = "<sthl>") -> Program:
    """Parse source text into a resolved Program.

    Raises LexError, ParseError or ResolveError, each carrying the
    offending line and column. The Program records `source`.
    """
    program = _Parser(scan(source, filename), filename).program()
    object.__setattr__(program, "source", source)
    return program
