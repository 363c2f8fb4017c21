"""Differential tests: the single-regex lexer against the character-by-
character reference in `lex_oracle.py`, and a totality property of `parse`.

Both lexers must give the same `(kind, value, line, column)` stream, or
raise a LexError with the same message, line and column. The one allowed
divergence is the non-decimal digit: where the reference puts a character
that `str.isdigit` accepts but `float` rejects (such as `²`) into a NUMBER
token, the lexer raises "unexpected character" at that character.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import lex_oracle
from astgen import random_program
from sthl.dsl import parse, print_program, tokenize
from sthl.errors import LexError, SthlError

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

FILENAME = "prog.sthl"


def _stream(tokens) -> list[tuple[str, str, int, int]]:
    return [(t.kind, t.value, t.line, t.column) for t in tokens]


def _error(exc: LexError) -> tuple:
    return ("LexError", exc.message, exc.line, exc.column, exc.filename)


def _lexed(text: str):
    try:
        return _stream(tokenize(text, FILENAME))
    except LexError as exc:
        return _error(exc)


def _reads_as_float(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True


def _expected(text: str):
    """The reference's outcome, with its one known defect mapped to the fix."""
    lexer = lex_oracle._Lexer(text, FILENAME)
    try:
        tokens, error = lexer.run(), None
    except LexError as exc:
        tokens, error = lexer.tokens, exc
    for tok in tokens:
        if tok.kind == "NUMBER" and not _reads_as_float(tok.value):
            offset = next(
                i for i, ch in enumerate(tok.value) if ch not in "+-." and not ch.isdecimal()
            )
            return ("LexError", f"unexpected character {tok.value[offset]!r}",
                    tok.line, tok.column + offset, FILENAME)
    return _error(error) if error else _stream(tokens)


# Pieces that start, end or escape something, signed literals, and
# letters and digits beyond ASCII: `٣` is a decimal digit, `²` a digit
# `float` rejects, `½` and `Ⅻ` numeric but not digits, `ǅ` a title-case letter.
PIECES = (
    "//", "/*", "*/", '"', "\\", "\r", "\n", "\t", " ", "<-", "<", "-", "+", "=", "!",
    "&", "|", "&&", "||", ">=", "(", ")", ";", ",", ".", "*", "/", "@", "\x0b", " ",
    "0", "1", "9", "12.5", "-1", "+0.5", "a", "x", "_", "n", "t", "object", "assert", "Number",
    "é", "ß", "ǅ", "٣", "²", "½", "Ⅻ",
)
lexical_text = st.lists(
    st.one_of(
        st.sampled_from(PIECES),
        st.characters(whitelist_categories=("Lu", "Ll", "Lo", "Nd", "Nl", "No", "Zs", "Cc")),
    ),
    max_size=30,
).map("".join)
# Dense runs of digits, points, signs and value enders reach the number and
# sign rules far more often.
numeric_text = st.text(alphabet="0123456789.+-()a\"٣² ", max_size=20)


@given(st.one_of(lexical_text, numeric_text))
@settings(max_examples=1000, deadline=None)
@example('a <- "x\\\ny";\nb')  # an escaped newline inside a string
@example("w <- ٣.٥;")  # Unicode decimal digits read as a number
@example("Number w; w <- ²;")  # the reference lexes `²` as a NUMBER
@example("w <- 1²;")
@example("w <- 1.²;")
@example("w <- -²;")
@example("a-1² ")
@example('w <- (1)-2 + a-1 * "s"+3 <-4 (-5);')  # the sign rule after each value ender
@example("/*/")
@example('"abc\\')
def test_lexer_matches_reference(text):
    assert _lexed(text) == _expected(text)


def test_lexer_matches_reference_on_every_short_text():
    # Every string of up to four characters over an alphabet that reaches
    # each rule: signs after each value ender, fractions, comments, strings
    # with escapes and raw newlines, `<-`, and a digit `float` rejects.
    alphabet = '1.-+)a"\\/*\n <²'
    for length in range(5):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            assert _lexed(text) == _expected(text), repr(text)


def _programs() -> list[str]:
    paths = sorted((ROOT / "tests" / "fixtures" / "corpus").glob("*.sthl"))
    paths += sorted((ROOT / "fixtures").glob("*.sthl"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    rng = random.Random(5)
    texts += [print_program(random_program(rng)) for _ in range(60)]
    texts += [workloads.house_source(seed, (4, 5, 5, 6)) for seed in range(5)]
    texts += [workloads.authoring_source(seed, 40) for seed in range(3)]
    return texts


def test_lexer_matches_reference_on_programs():
    texts = _programs()
    assert len(texts) > 100
    for text in texts:
        assert _lexed(text) == _expected(text)
        assert isinstance(_lexed(text), list)


# Grammar words, so that random programs get past the lexer and into the
# parser; `²`, `٣` and deep runs of `(` and `!` reach the error paths.
WORDS = (
    "object", "region", "entity", "Number", "Vector3", "Bool", "assert", "allowCollide",
    "allowOutside", "inside", "rand", "vec3", "rot", "dot", "a", "b", "r", "w", "pos",
    "scale", "rot", "color", "x", "y", ";", "(", ")", ",", ".", "<-", "<", ">=", "=",
    "!=", "!", "&&", "||", "+", "-", "*", "/", "1", "-2", "0.5", "٣", "²", '"red"',
    "((((((((", "!!!!!!!!",
)
program_text = st.lists(st.sampled_from(WORDS), max_size=40).map(" ".join)


@given(program_text)
@settings(max_examples=500, deadline=None)
@example("Number w; w <- " + "(" * 400 + "1" + ")" * 400 + ";")
@example("object a; assert " + "!" * 400 + "a.pos.x > 0;")
@example("object a; assert " + "(" * 400 + "a.pos.x > 0" + ")" * 400 + ";")
@example("Number w; w <- " + "rand(0, " * 400 + "1" + ")" * 400 + ";")
@example("Number w; w <- ²;")
def test_parse_raises_only_sthl_errors(text):
    try:
        parse(text)
    except SthlError:
        pass
