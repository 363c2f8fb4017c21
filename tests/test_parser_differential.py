"""Differential tests: the token-table parser against the former Token-cursor
parser kept in `parse_oracle.py`.

For every input both parsers must agree on one of two outcomes: equal
programs whose every node carries the same span (spans do not take part in
node equality, so the test walks them) and the same notes, or the same
error class, message, line, column and filename.

Inputs are the grammar corpus and README fixtures, `astgen` programs, the
benchmark's authoring, house and scenegen programs, single-token mutations
of them (delete, duplicate, swap, truncate), and texts aimed at the
lexer's edge cases.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import parse_oracle
from astgen import random_program
from scenegen import generate_fixture
from sthl.dsl import parse, print_program
from sthl.dsl.lexer import scan
from sthl.dsl.parser import MAX_NESTING
from sthl.errors import SthlError

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

FILENAME = "prog.sthl"


def _spans(program) -> list[tuple[str, int, int]]:
    """Every node's type and span, in a fixed walk order, without recursion."""
    out = []
    stack = list(reversed(program.statements))
    while stack:
        node = stack.pop()
        out.append((type(node).__name__, *node.span))
        children = [getattr(node, f.name) for f in dataclasses.fields(node)]
        stack.extend(c for c in reversed(children) if dataclasses.is_dataclass(c))
    return out


def _outcome(parser, text: str):
    try:
        program = parser(text, FILENAME)
    except SthlError as exc:
        return ("error", type(exc).__name__, exc.message, exc.line, exc.column, exc.filename)
    return ("ok", program, program.notes, _spans(program))


def _assert_same(text: str) -> None:
    assert _outcome(parse, text) == _outcome(parse_oracle.parse, text), repr(text)


def _programs() -> list[str]:
    paths = sorted((ROOT / "tests" / "fixtures" / "corpus").glob("*.sthl"))
    paths += sorted((ROOT / "fixtures").glob("*.sthl"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    rng = random.Random(11)
    texts += [print_program(random_program(rng)) for _ in range(40)]
    texts += [workloads.house_source(seed, (4, 5, 5, 6)) for seed in range(3)]
    texts += [workloads.authoring_source(seed, 40) for seed in range(2)]
    texts += [generate_fixture(seed, 6 + seed).source for seed in range(6)]
    return texts


PROGRAMS = _programs()


def test_parsers_agree_on_programs():
    assert len(PROGRAMS) > 80
    for text in PROGRAMS:
        outcome = _outcome(parse, text)
        assert outcome[0] == "ok", outcome
        assert outcome == _outcome(parse_oracle.parse, text)


def _token_bounds(text: str) -> list[tuple[int, int]]:
    """Start and end offsets of every token before EOF."""
    table = scan(text)
    return [(s, s + len(t)) for s, t in zip(table.starts[:-1], table.texts[:-1])]


def _mutate(text: str, how: str, k: int) -> str:
    bounds = _token_bounds(text)
    start, end = bounds[k % len(bounds)]
    if how == "delete":
        return text[:start] + text[end:]
    if how == "duplicate":
        return text[:end] + " " + text[start:end] + text[end:]
    if how == "truncate":
        return text[:start]
    # Swap the token with the one after it, keeping what lies between.
    nxt_start, nxt_end = bounds[(k + 1) % len(bounds)]
    if nxt_start < start:
        return text
    return text[:start] + text[nxt_start:nxt_end] + text[end:nxt_start] + text[start:end] + text[nxt_end:]


@given(
    st.sampled_from(range(len(PROGRAMS))),
    st.sampled_from(("delete", "duplicate", "swap", "truncate")),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=400, deadline=None)
def test_parsers_agree_on_single_token_mutations(index, how, k):
    _assert_same(_mutate(PROGRAMS[index], how, k))


def test_parsers_agree_on_every_mutation_of_a_small_program():
    text = (
        'object a; region r; Number w; entity e;\n'
        'a.color <- "red"; w <- rand(-1, 2) * 3;\n'
        'assert inside(a, r) && !(a.pos.x - w >= 1) || (a.pos.y + 1) * 2 < -3;\n'
        'allowCollide(a, e); allowOutside(e); a.pos <- vec3(1, dot(a.pos, a.pos), a.rot.y);\n'
    )
    for k in range(len(_token_bounds(text))):
        for how in ("delete", "duplicate", "swap", "truncate"):
            _assert_same(_mutate(text, how, k))


# One token of every kind, each followed by a literal sign below.
_EVERY_KIND = (
    "object", "entity", "region", "assert", "allowCollide", "allowOutside", "Number",
    "a", "w", "1", "2.5", '"s"', "<-", "<=", ">=", "!=", "&&", "||", "<", ">", "!",
    ";", "(", ")", ",", ".", "+", "-", "*", "/", "=",
)
_HEAD = "object a; Number w; "


def test_parsers_agree_on_a_signed_literal_after_every_token_kind():
    for token in _EVERY_KIND:
        for body in (f"w <- {token}-1;", f"w <- ({token} -2.5);", f"assert a.pos.x > {token}+3;"):
            _assert_same(_HEAD + body)
            _assert_same(body)


def _nested(opener: str, closer: str, depth: int) -> str:
    head = _HEAD + ("assert " if opener == "!" else "w <- ")
    body = "a.pos.x > 0" if opener == "!" else "1"
    return head + opener * depth + body + closer * depth + ";"


def test_parsers_agree_at_the_nesting_limit():
    for opener, closer in (("(", ")"), ("rand(0, ", ")"), ("!", ""), ("vec3(1, 2, ", ")")):
        for depth in (MAX_NESTING, MAX_NESTING + 1):
            _assert_same(_nested(opener, closer, depth))
    deep_assertion = _HEAD + "assert " + "(" * 101 + "a.pos.x > 0" + ")" * 101 + ";"
    _assert_same(deep_assertion)


EDGE_CASES = (
    "object a;\r\nassert a.pos.x > 1;\r\n",  # CRLF
    "object a;\r\n\r\nassert a.pos.x >\r\n;",  # CRLF before an error
    "object\ta;\n\tassert\ta.pos.x\t>\t1\t@;",  # tabs before an error
    "object a; /* one\ntwo\nthree */ assert a.pos.x > 1; b",  # multi-line comment
    "/* a\n\n*/ object a; /* b\n */ a.pos <- vec3(1, 2,\n /* c */ 3) ;\nassert a.pos.y < ;",
    'object a; a.color <- "x\\\ny";\nassert a.pos.x > 1 1;',  # backslash-newline in a string
    'object a; a.color <- "x\\\ny\\"z\\t\\\\";\na.material <- "m";',
    'object a; a.color <- "open\nassert a.pos.x > 1;',  # newline in a string
    'object a; a.color <- "never closed',
    'object a; a.color <- "";\nassert a.pos.x > "" "";',  # empty string where one is not expected
    "object é; é.pos <- vec3(1, 2, 3); assert é.pos.x > ǅ;",  # non-ASCII identifiers
    "object ǅx_1; Number ß; ß <- ٣.٥; assert ǅx_1.pos.x > ß;",
    "Number w;\nw <- 1²;",  # a digit `float` rejects
    "Number w; w <- ²;",
    "Number w; w <- ½ + 1;",
    "object a; /* never closed",
    "",
    "   \n\t// only a comment",
    "object a",
    "object a; a.pos <- vec3(1, 2, 3)",
    "object a; assert a.pos.x > 1 &&;",
    "object a; assert (a.pos.x + 1) * 2 > (0);",
    "object a; assert ((a.pos.x > 1) || (a.pos.y < 2)) && !!(a.pos.z = 0);",
    "Number n; n <-1; n <- n-1-2-3; n <- (n)-4+-5;",
    "object a; a.size <- 1;",
    "object a; assert a.pos.w > 1;",
    "object a; assert a.color.x > 1;",
    "Vector3 v; assert v.x > 0;",
    "object a; object b; assert a > 1;",
    "object a; allowCollide(a, a);",
    "object a; region r; assert inside(r, a);",
    "object rand;",
    "object a; object a;",
    "Number n; n <- rand(1, 2, 3);",
    "Number n; n <- dot(1);",
    "entity x; entity y; Color c; c <- \"red\";",
)


@pytest.mark.parametrize("text", EDGE_CASES)
def test_parsers_agree_on_lexer_edge_cases(text):
    _assert_same(text)
    _assert_same(text.replace("\n", "\r\n"))
