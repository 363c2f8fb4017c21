r"""Token-table lexer for ScenethesisLang.

`scan` turns source text into a `TokenTable`: flat lists of token kinds,
texts and start offsets, plus the offsets at which lines start, all built
by C-level passes with no Python code run per token. One compiled pattern,
`_TOKEN`, matches a token together with the whitespace and comments in
front of it, and `re.split` on it yields every token's text with no match
object built. A kind comes from a dict lookup of the token's whole text
(operators and keywords), falling back to a lookup of its first character
(ASCII-led words and numbers, and strings); start offsets are running sums
of the split pieces' lengths. Python touches only the tokens that neither
lookup settles (`_settle`): signed literals, words and numbers that start
beyond ASCII, and the error kinds. Lines and columns (1-based, in code
points) are not stored per token: they are bisected from the line starts
when the parser builds a span or an error. `tokenize` reads the same table
into `Token` tuples.

`//` and `/* */` comments are skipped. Identifiers start with a letter or
`_` and go on with letters, digits and `_`. Number literals are decimal
digits with an optional fraction; any Unicode decimal digit counts (`٣`
reads as 3), while another digit character such as `²` is an unexpected
character. A literal may carry a leading sign; the sign belongs to the
literal only when the preceding token cannot end an expression, so `a - 1`
lexes as a binary minus while `rand(-1, 1)` lexes a negative literal. `<-`
is read greedily as the assignment arrow: write `a < -1` with a space to
compare against a negative number. Strings take the escapes `\n`, `\t`,
`\"` and `\\`; any other escaped character, a newline included, stands for
itself. A STRING token's text keeps its quotes and escapes;
`string_value` gives the string it stands for.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from itertools import accumulate, repeat
from operator import itemgetter
from typing import NamedTuple

from sthl.errors import LexError

KEYWORDS = {
    "object": "OBJECT",
    "entity": "ENTITY",
    "region": "REGION",
    "assert": "ASSERT",
    "allowCollide": "ALLOWCOLLIDE",
    "allowOutside": "ALLOWOUTSIDE",
}

TYPE_NAMES = ("Number", "Degree", "Bool", "Vector3", "Rotation", "Color", "Material")


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


_WORD_KINDS = {**KEYWORDS, **dict.fromkeys(TYPE_NAMES, "TYPE")}

# Token kinds that can end an expression; a following +/- is then a binary
# operator rather than a literal sign.
_VALUE_ENDERS = {"IDENT", "NUMBER", "STRING", "RPAREN"}

_OPERATORS = {
    "<-": "ARROW",
    "<=": "LE",
    ">=": "GE",
    "!=": "NE",
    "&&": "AND",
    "||": "OR",
    "<": "LT",
    ">": "GT",
    "!": "NOT",
    ";": "SEMI",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "=": "EQ",
}

# The kind of a token, looked up by its whole text; `_UNSETTLED` marks a
# token that `_settle` classifies. A lone `"` is an unterminated string.
_UNSETTLED = "?"
_KIND_OF_TEXT = {**_OPERATORS, **_WORD_KINDS, '"': _UNSETTLED}
# Otherwise, the kind by the token's first character; the empty text is
# the end of input.
_KIND_OF_FIRST = {
    **dict.fromkeys(string.ascii_letters + "_", "IDENT"),
    **dict.fromkeys(string.digits, "NUMBER"),
    '"': "STRING",
    "": "EOF",
}
_first = itemgetter(slice(1))

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# A string's characters up to its closing quote: no raw newline, and a
# backslash escapes any one character.
_STRING_BODY = r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*'

# Group 1 is the skipped whitespace and comments, group 2 the token.
# `\w` is `str.isalnum()` or `_`, and `\d` is `str.isdecimal()`, so
# `[^\W\d]` is a letter, `_`, or a non-decimal numeric character; the last
# is an error at the start of a word and is told apart in `_settle`. The
# alternatives are tried in order: a signed literal and an opening `/*`
# that the skip could not close come before the operators; every
# alternative but the end of input matches at least one character.
_TOKEN = re.compile(
    r"([ \t\r\n]*(?:(?://[^\n]*|/\*[\s\S]*?\*/)[ \t\r\n]*)*)"
    r"([A-Za-z_]\w*"
    r"|\d+(?:\.\d+)?"
    rf'|"{_STRING_BODY}"'
    r"|[+-]\d+(?:\.\d+)?"
    r"|/\*"
    r"|<[-=]|[>!]=|&&|\|\||[;(),.+\-*/=<>!]"
    r"|[^\W\d]\w*"
    r'|"'
    r"|\Z"
    r"|[\s\S])"
)
_ESCAPE = re.compile(r"\\([\s\S])")


def _unescape(m: re.Match) -> str:
    return _ESCAPES.get(m.group(1), m.group(1))


def string_value(text: str) -> str:
    """The string a STRING token's text stands for."""
    value = text[1:-1]
    return _ESCAPE.sub(_unescape, value) if "\\" in value else value


class TokenTable(NamedTuple):
    """Parallel token lists; the last token is EOF."""

    kinds: list[str]
    texts: list[str]
    starts: list[int]
    #: Offsets at which lines start, then one past the end of the source.
    line_starts: list[int]

    def position(self, index: int) -> tuple[int, int]:
        """Line and column of token `index`."""
        start = self.starts[index]
        line = bisect_right(self.line_starts, start)
        return line, start - self.line_starts[line - 1] + 1

    def value(self, index: int) -> str:
        """The token's value: its text, with a string's quotes and escapes read."""
        text = self.texts[index]
        return string_value(text) if self.kinds[index] == "STRING" else text


def scan(source: str, filename: str = "<sthl>") -> TokenTable:
    """Build the token table of source text, raising LexError on illegal input."""
    # Matches cover the whole source, so splitting on them gives, after an
    # empty first piece, three pieces per token: its skip, its text and the
    # empty text up to the next match.
    pieces = _TOKEN.split(source)
    texts = pieces[2::3]
    starts = list(accumulate(map(len, pieces)))[1::3]
    # Input that ends in whitespace or a comment gives one more empty match
    # after the one that reaches the end.
    if len(texts) > 1 and not texts[-2]:
        del texts[-1], starts[-1]
    firsts = map(_KIND_OF_FIRST.get, map(_first, texts), repeat(_UNSETTLED))
    kinds = list(map(_KIND_OF_TEXT.get, texts, firsts))
    line_starts = [0, *accumulate(map((1).__add__, map(len, source.split("\n"))))]
    table = TokenTable(kinds, texts, starts, line_starts)
    if _UNSETTLED in kinds:
        _settle(table, source, filename)
    return table


def _settle(table: TokenTable, source: str, filename: str) -> None:
    """Classify, in place and in source order, the tokens that `scan`'s
    lookups left unsettled."""
    kinds, texts, starts, _ = table
    signs: list[int] = []  # signed literals that split into an operator and a number
    i = kinds.index(_UNSETTLED)
    while True:
        text = texts[i]
        first = text[0]
        if first in "+-":
            if i and kinds[i - 1] in _VALUE_ENDERS:
                signs.append(i)
            kinds[i] = "NUMBER"
        elif first.isdecimal():
            kinds[i] = "NUMBER"
        elif first.isalpha() or first == "_":
            kinds[i] = _WORD_KINDS.get(text, "IDENT")
        else:
            line, column = table.position(i)
            if text == "/*":
                raise LexError("unterminated block comment", line, column, filename)
            if text == '"':
                end = re.compile(_STRING_BODY).match(source, starts[i] + 1).end()
                reason = "newline in" if source.startswith("\n", end) else "unterminated"
                raise LexError(f"{reason} string literal", line, column, filename)
            raise LexError(f"unexpected character {first!r}", line, column, filename)
        try:
            i = kinds.index(_UNSETTLED, i + 1)
        except ValueError:
            break
    # Split each sign off its literal, last first so that earlier indices
    # hold: the operator keeps the literal's start, the number starts one
    # code point later. Each split shifts the lists' tails; such signs are
    # rare, as the printer spaces every binary operator.
    for i in reversed(signs):
        sign = texts[i][0]
        kinds[i:i] = (_OPERATORS[sign],)
        texts[i : i + 1] = (sign, texts[i][1:])
        starts[i : i + 1] = (starts[i], starts[i] + 1)


def tokenize(source: str, filename: str = "<sthl>") -> list[Token]:
    """Tokenize source text, raising LexError on illegal input."""
    table = scan(source, filename)
    return [
        Token(kind, table.value(i), *table.position(i))
        for i, kind in enumerate(table.kinds)
    ]
