"""Parser, lexer, and resolution tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from sthl.dsl import parse
from sthl.dsl.parser import MAX_NESTING
from sthl.dsl.nodes import (
    Assert,
    Assign,
    Compare,
    Declare,
    NumberLit,
    PropRef,
    Rand,
)
from sthl.errors import LexError, ParseError, ResolveError

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def test_lamp_above_table_example():
    program = parse(
        "object lamp; object table; assert lamp.pos.y > table.pos.y + table.scale.y;"
    )
    decls = [s for s in program.statements if isinstance(s, Declare)]
    asserts = [s for s in program.statements if isinstance(s, Assert)]
    assert len(decls) == 2 and all(d.kind == "object" for d in decls)
    assert len(asserts) == 1
    condition = asserts[0].condition
    assert isinstance(condition, Compare) and condition.op == ">"
    assert condition.left == PropRef("lamp", "pos", "y")


def test_empty_input_is_a_parse_error():
    with pytest.raises(ParseError, match="one or more statements"):
        parse("")


def test_undeclared_identifier_named_in_error():
    with pytest.raises(ResolveError, match="'x'"):
        parse("assert x > 1;")


def test_duplicate_declaration_rejected():
    with pytest.raises(ResolveError, match="duplicate"):
        parse("object a; region a;")


def test_use_before_declaration_rejected():
    with pytest.raises(ResolveError):
        parse("assert a.pos.x > 0; object a;")


def test_entity_alias_normalizes_with_note():
    program = parse("entity bird;")
    assert program.statements[0] == Declare("object", "bird")
    assert len(program.notes) == 1 and "entity" in program.notes[0]


def test_entity_and_object_asts_are_identical():
    assert parse("entity b;") == parse("object b;")


def test_diagnostics_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse("object a;\nassert a.pos.x >;")
    assert exc.value.line == 2
    assert exc.value.column > 0


def test_lex_error_on_illegal_character():
    with pytest.raises(LexError):
        parse("object a; assert a.pos.x > 1 @;")


def test_unterminated_string():
    with pytest.raises(LexError, match="unterminated"):
        parse('object a; a.color <- "red')


def test_unterminated_block_comment():
    with pytest.raises(LexError, match="block comment"):
        parse("object a; /* no end")


def test_allow_collide_needs_distinct_objects():
    with pytest.raises(ResolveError, match="distinct"):
        parse("object a; allowCollide(a, a);")


def test_allow_collide_rejects_regions():
    with pytest.raises(ResolveError, match="region"):
        parse("object a; region r; allowCollide(a, r);")


def test_inside_requires_object_then_region():
    with pytest.raises(ResolveError):
        parse("object a; region r; assert inside(r, a);")


def test_builtin_names_are_reserved():
    with pytest.raises(ResolveError, match="built-in"):
        parse("object rand;")


def test_unknown_property_rejected():
    with pytest.raises(ParseError, match="unknown property"):
        parse("object a; assert a.size > 1;")


def test_component_only_on_transform_properties():
    with pytest.raises(ParseError):
        parse('object a; assert a.color.x = "red";')


def test_variable_has_no_properties():
    with pytest.raises(ResolveError, match="no properties"):
        parse("Vector3 v; assert v.x > 0;")


def test_object_without_property_is_not_a_value():
    with pytest.raises(ResolveError, match="has no value"):
        parse("object a; object b; assert a > 1;")


def test_precedence_mul_before_add():
    program = parse("object a; assert (1 + 2) * 3 > a.pos.x;")
    condition = program.statements[1].condition
    assert condition.left.op == "*"
    assert condition.left.left.op == "+"


def test_parenthesized_assertion_vs_expression():
    grouped = parse("object a; assert (a.pos.x > 0) && a.pos.z < 1;")
    arithmetic = parse("object a; assert (a.pos.x + 1) * 2 > 0;")
    assert type(grouped.statements[1].condition).__name__ == "And"
    assert arithmetic.statements[1].condition.left.op == "*"


def test_logical_precedence_or_loosest():
    program = parse("object a; assert !a.pos.x > 0 && a.pos.y > 0 || a.pos.z > 0;")
    condition = program.statements[1].condition
    assert type(condition).__name__ == "Or"
    assert type(condition.left).__name__ == "And"
    assert type(condition.left.left).__name__ == "Not"


def test_negative_literal_vs_binary_minus():
    program = parse("object a; assert a.pos.x - 1 < -2; a.pos <- vec3(-1, 0.5, 2);")
    condition = program.statements[1].condition
    assert condition.left.op == "-"
    assert condition.right == NumberLit(-2.0)
    vec = program.statements[2].value
    assert vec.x == NumberLit(-1.0)


def test_arrow_is_greedy_with_advice_in_docs():
    # `a <-1` reads as an assignment arrow; a spaced `< -1` compares.
    program = parse("Number n; n <-1;")
    assert isinstance(program.statements[1], Assign)
    program = parse("object a; assert a.pos.x < -1;")
    assert program.statements[1].condition.op == "<"


def test_rand_arity_checked():
    with pytest.raises(ParseError, match="2 arguments"):
        parse("Number n; n <- rand(1, 2, 3);")
    program = parse("Number n; n <- rand(0, 1);")
    assert isinstance(program.statements[1].value, Rand)


def test_comments_are_skipped():
    program = parse("// leading\nobject a; /* inline */ assert a.pos.x >= 0; // trail")
    assert len(program.statements) == 2


def test_statement_order_preserved():
    source = "object a;\nregion r;\nassert inside(a, r);\nallowOutside(a);\n"
    program = parse(source)
    kinds = [type(s).__name__ for s in program.statements]
    assert kinds == ["Declare", "Declare", "Assert", "AllowOutside"]


def test_corpus_parses():
    files = sorted(CORPUS.glob("*.sthl"))
    assert len(files) >= 30, "grammar corpus must cover every production"
    for path in files:
        program = parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert program.statements


def test_non_decimal_digit_is_an_unexpected_character():
    with pytest.raises(LexError, match="unexpected character '²'") as exc:
        parse("Number w;\nw <- 1²;")
    assert (exc.value.line, exc.value.column) == (2, 7)
    program = parse("Number w; w <- ٣.٥;")  # Unicode decimal digits
    assert program.statements[1].value == NumberLit(3.5)


@pytest.mark.parametrize(
    "opener, closer, token_at",  # token_at: 1-based column of the token in `opener`
    [("(", ")", 1), ("rand(0, ", ")", 5), ("!", "", 1)],
    ids=["parentheses", "calls", "not"],
)
def test_nesting_limit(opener, closer, token_at):
    head = "object a; Number w; " + ("assert " if opener == "!" else "w <- ")
    body = "a.pos.x > 0" if opener == "!" else "1"
    parse(head + opener * MAX_NESTING + body + closer * MAX_NESTING + ";")
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}") as exc:
        parse(head + opener * (MAX_NESTING + 1) + body + closer * (MAX_NESTING + 1) + ";")
    column = len(head) + MAX_NESTING * len(opener) + token_at
    assert (exc.value.line, exc.value.column) == (1, column)


def test_number_literal_beyond_the_float_range_is_located():
    # float() reads such a literal as inf, which no printer can write back.
    big = "1" + "0" * 320
    with pytest.raises(ParseError, match="number literal out of range") as exc:
        parse(f"Number w;\nw <- 2 * {big};\n", filename="big.sthl")
    assert (exc.value.line, exc.value.column, exc.value.filename) == (2, 10, "big.sthl")
    largest = "1" + "0" * 308  # 1e308 is still a float
    assert parse(f"Number w;\nw <- {largest};\n").statements[1].value.value == 1e308
