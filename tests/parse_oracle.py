"""Reference parser: the former recursive-descent ScenethesisLang parser,
kept verbatim as the oracle that `tests/test_parser_differential.py`
compares `sthl.dsl.parser.parse` against. It reads `Token` tuples from
`sthl.dsl.lexer.tokenize` through a cursor (`peek`, `at`, `advance`,
`expect`) and builds each node's span from its token's line and column.

Its own description follows.

The concrete grammar is LL apart from one spot: after `(` in assertion
position the input may be either a parenthesized assertion or a
parenthesized arithmetic expression opening a comparison. The parser
snapshots the token index, attempts the assertion reading, and backtracks
to the expression reading if that fails.

Identifier resolution happens during the parse: every referenced name must
be declared earlier in statement order, and no name may be declared twice.

Parentheses, built-in calls and `!` may nest at most `MAX_NESTING` deep;
one level deeper is a ParseError at the token that opens it.
"""
from __future__ import annotations

from sthl.dsl.lexer import Token, tokenize
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


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        # One EOF sentinel past the lexer's EOF keeps `peek(1)` in range.
        self.tokens = tokens + tokens[-1:]
        self.filename = filename
        self.index = 0
        self.depth = 0
        # name -> ('object' | 'region' | 'var', ValueType | None)
        self.symbols: dict[str, tuple[str, ValueType | None]] = {}
        self.notes: list[str] = []

    # ------------------------------------------------------------------
    # Token helpers

    # `index` never passes the lexer's EOF: `advance` stays on it, and no
    # caller expects EOF.

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.index + offset]

    def at(self, kind: str) -> bool:
        return self.tokens[self.index].kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != kind:
            raise self.parse_error(f"expected {what}, found {tok.value!r}" if tok.value else f"expected {what}, found end of input", tok)
        self.index += 1
        return tok

    def nest(self, opener: Token) -> None:
        """Enter one nesting level; the caller leaves it with `depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.parse_error(f"nesting deeper than {MAX_NESTING} levels", opener)

    def parse_error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column, self.filename)

    def resolve_error(self, message: str, tok: Token) -> ResolveError:
        return ResolveError(message, tok.line, tok.column, self.filename)

    def span(self, tok: Token) -> Span:
        return Span(tok.line, tok.column)

    # ------------------------------------------------------------------
    # Symbol table

    def declare(self, name_tok: Token, kind: str, var_type: ValueType | None = None) -> None:
        name = name_tok.value
        if name in BUILTIN_NAMES:
            raise self.resolve_error(f"{name!r} is a built-in and cannot be declared", name_tok)
        if name in self.symbols:
            raise self.resolve_error(f"duplicate declaration of {name!r}", name_tok)
        self.symbols[name] = (kind, var_type)

    def lookup(self, name_tok: Token) -> tuple[str, ValueType | None]:
        name = name_tok.value
        if name not in self.symbols:
            raise self.resolve_error(f"undeclared identifier {name!r}", name_tok)
        return self.symbols[name]

    def expect_kind(self, name_tok: Token, kinds: tuple[str, ...], what: str) -> None:
        kind, _ = self.lookup(name_tok)
        if kind not in kinds:
            raise self.resolve_error(f"{name_tok.value!r} is a {kind}, expected {what}", name_tok)

    # ------------------------------------------------------------------
    # Grammar

    def program(self) -> Program:
        if self.at("EOF"):
            raise self.parse_error("a program is one or more statements")
        statements: list[Statement] = []
        while not self.at("EOF"):
            statements.append(self.statement())
        return Program(tuple(statements), notes=tuple(self.notes))

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.kind in ("OBJECT", "ENTITY", "REGION"):
            return self.declaration()
        if tok.kind == "TYPE":
            return self.var_declaration()
        if tok.kind == "ASSERT":
            return self.assert_stmt()
        if tok.kind == "ALLOWCOLLIDE":
            return self.allow_collide()
        if tok.kind == "ALLOWOUTSIDE":
            return self.allow_outside()
        if tok.kind == "IDENT":
            return self.assignment()
        raise self.parse_error(f"expected a statement, found {tok.value!r}", tok)

    def declaration(self) -> Declare:
        kw = self.advance()
        if kw.kind == "ENTITY":
            self.notes.append(
                f"{self.filename}:{kw.line}:{kw.column}: 'entity' normalized to 'object'"
            )
        kind = "region" if kw.kind == "REGION" else "object"
        name = self.expect("IDENT", "an identifier")
        self.declare(name, kind)
        self.expect("SEMI", "';'")
        return Declare(kind, name.value, span=self.span(kw))

    def var_declaration(self) -> Declare:
        type_tok = self.advance()
        name = self.expect("IDENT", "an identifier")
        self.declare(name, "var", ValueType(type_tok.value))
        self.expect("SEMI", "';'")
        return Declare("var", name.value, ValueType(type_tok.value), span=self.span(type_tok))

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
        if first.value == second.value:
            raise self.resolve_error("allowCollide requires two distinct objects", second)
        self.expect("RPAREN", "')'")
        self.expect("SEMI", "';'")
        return AllowCollide(first.value, second.value, span=self.span(kw))

    def allow_outside(self) -> AllowOutside:
        kw = self.advance()
        self.expect("LPAREN", "'('")
        name = self.expect("IDENT", "an object identifier")
        self.expect_kind(name, ("object",), "an object")
        self.expect("RPAREN", "')'")
        self.expect("SEMI", "';'")
        return AllowOutside(name.value, span=self.span(kw))

    def assignment(self) -> Assign:
        target = self.advance()
        self.lookup(target)
        prop: str | None = None
        if self.at("DOT"):
            self.advance()
            prop_tok = self.expect("IDENT", "a property name")
            if prop_tok.value not in OBJECT_PROPERTIES + TRANSFORM_PROPERTIES:
                raise self.parse_error(f"unknown property {prop_tok.value!r}", prop_tok)
            prop = prop_tok.value
        self.expect("ARROW", "'<-'")
        value = self.expression()
        self.expect("SEMI", "';'")
        return Assign(target.value, prop, value, span=self.span(target))

    # ------------------------------------------------------------------
    # Assertions (precedence: || < && < ! < comparisons)

    def assertion(self) -> Assertion:
        left = self.and_assertion()
        while self.at("OR"):
            op = self.advance()
            right = self.and_assertion()
            left = Or(left, right, span=self.span(op))
        return left

    def and_assertion(self) -> Assertion:
        left = self.not_assertion()
        while self.at("AND"):
            op = self.advance()
            right = self.not_assertion()
            left = And(left, right, span=self.span(op))
        return left

    def not_assertion(self) -> Assertion:
        if self.at("NOT"):
            op = self.advance()
            self.nest(op)
            operand = self.not_assertion()
            self.depth -= 1
            return Not(operand, span=self.span(op))
        return self.primary_assertion()

    def primary_assertion(self) -> Assertion:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value == "inside" and self.peek(1).kind == "LPAREN":
            return self.inside_pred()
        if tok.kind == "LPAREN":
            # Either a grouped assertion or an expression opening a
            # comparison; try the assertion reading first.
            snapshot = self.index, self.depth
            try:
                self.advance()
                self.nest(tok)
                inner = self.assertion()
                self.expect("RPAREN", "')'")
                self.depth -= 1
                return inner
            except ParseError:
                self.index, self.depth = snapshot
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
        return InsidePred(inner.value, outer.value, span=self.span(kw))

    def comparison(self) -> Compare:
        left = self.expression()
        tok = self.peek()
        if tok.kind not in _COMPARE_KINDS:
            raise self.parse_error(
                f"expected a comparison operator, found {tok.value!r}", tok
            )
        self.advance()
        right = self.expression()
        return Compare(_COMPARE_KINDS[tok.kind], left, right, span=self.span(tok))

    # ------------------------------------------------------------------
    # Expressions (precedence: +,- < *,/)

    def expression(self) -> Expr:
        left = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            right = self.term()
            left = Arith(op.value, left, right, span=self.span(op))
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.peek().kind in ("STAR", "SLASH"):
            op = self.advance()
            right = self.factor()
            left = Arith(op.value, left, right, span=self.span(op))
        return left

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return NumberLit(float(tok.value), span=self.span(tok))
        if tok.kind == "STRING":
            self.advance()
            return StringLit(tok.value, span=self.span(tok))
        if tok.kind == "LPAREN":
            self.advance()
            self.nest(tok)
            inner = self.expression()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return inner
        if tok.kind == "IDENT":
            if tok.value in ("rand", "vec3", "rot", "dot") and self.peek(1).kind == "LPAREN":
                return self.builtin_call()
            return self.name_or_propref()
        raise self.parse_error(f"expected an expression, found {tok.value!r}", tok)

    def builtin_call(self) -> Expr:
        name = self.advance()
        self.nest(self.expect("LPAREN", "'('"))
        args = [self.expression()]
        while self.at("COMMA"):
            self.advance()
            args.append(self.expression())
        self.expect("RPAREN", "')'")
        self.depth -= 1
        arity = {"rand": 2, "vec3": 3, "rot": 3, "dot": 2}[name.value]
        if len(args) != arity:
            raise self.parse_error(
                f"{name.value} takes {arity} arguments, found {len(args)}", name
            )
        span = self.span(name)
        if name.value == "rand":
            return Rand(args[0], args[1], span=span)
        if name.value == "vec3":
            return Vec3(args[0], args[1], args[2], span=span)
        if name.value == "rot":
            return Rot(args[0], args[1], args[2], span=span)
        return Dot(args[0], args[1], span=span)

    def name_or_propref(self) -> Expr:
        name = self.advance()
        kind, _ = self.lookup(name)
        if not self.at("DOT"):
            if kind != "var":
                raise self.resolve_error(
                    f"{name.value!r} is a {kind} and has no value; access a property instead",
                    name,
                )
            return Name(name.value, span=self.span(name))
        if kind == "var":
            raise self.resolve_error(
                f"{name.value!r} is a variable and has no properties", name
            )
        self.advance()
        prop_tok = self.expect("IDENT", "a property name")
        prop = prop_tok.value
        if prop not in OBJECT_PROPERTIES + TRANSFORM_PROPERTIES:
            raise self.parse_error(f"unknown property {prop!r}", prop_tok)
        component: str | None = None
        if self.at("DOT") and prop in TRANSFORM_PROPERTIES:
            self.advance()
            comp_tok = self.expect("IDENT", "a component (x, y or z)")
            if comp_tok.value not in COMPONENTS:
                raise self.parse_error(
                    f"unknown component {comp_tok.value!r} (expected x, y or z)", comp_tok
                )
            component = comp_tok.value
        return PropRef(name.value, prop, component, span=self.span(name))


def parse(source: str, filename: str = "<sthl>") -> Program:
    """Parse source text into a resolved Program.

    Raises LexError, ParseError or ResolveError, each carrying the
    offending line and column.
    """
    tokens = tokenize(source, filename)
    return _Parser(tokens, filename).program()
