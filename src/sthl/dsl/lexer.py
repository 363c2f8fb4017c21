r"""Single-regex lexer for ScenethesisLang.

One compiled master pattern, `_TOKEN`, is walked with `finditer`. Each match
is one token together with the whitespace and comments in front of it, so
the walk never stops between tokens; the named group that matched gives the
token's kind. Lines and columns (1-based, in code points) come from a table
of line-start offsets searched with `bisect`.

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
itself.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# A string's characters up to its closing quote: no raw newline, and a
# backslash escapes any one character.
_STRING_BODY = r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*'

# `\w` is `str.isalnum()` or `_`, and `\d` is `str.isdecimal()`, so `[^\W\d]`
# is a letter, `_`, or a non-decimal numeric character; the last is an error
# at the start of a word and is told apart in `tokenize`. The alternatives
# are tried in order: a signed literal and an opening `/*` that the skip
# could not close come before the operators.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)*"
    r"(?:(?P<WORD>[A-Za-z_]\w*)"
    r"|(?P<NUMBER>\d+(?:\.\d+)?)"
    rf'|(?P<STRING>"{_STRING_BODY}")'
    r"|(?P<SIGNED>[+-]\d+(?:\.\d+)?)"
    r"|(?P<COMMENT>/\*)"
    r"|(?P<OP><[-=]|[>!]=|&&|\|\||[;(),.+\-*/=<>!])"
    r"|(?P<UWORD>[^\W\d]\w*)"
    r'|(?P<BADSTRING>")'
    r"|(?P<EOF>\Z)"
    r"|(?P<CHAR>[\s\S]))"
)
_ESCAPE = re.compile(r"\\([\s\S])")
# `Token(...)` goes through a Python-level `__new__`; the hot path builds
# its tuples directly.
_new = tuple.__new__


def _unescape(m: re.Match) -> str:
    return _ESCAPES.get(m.group(1), m.group(1))


def tokenize(source: str, filename: str = "<sthl>") -> list[Token]:
    """Tokenize source text, raising LexError on illegal input."""
    # Offsets at which lines start, then one past the end; a token bisects
    # only when it starts on a later line than the token before it.
    line_starts = [0]
    i = source.find("\n")
    while i >= 0:
        line_starts.append(i + 1)
        i = source.find("\n", i + 1)
    line_starts.append(len(source) + 1)
    line, line_start, next_start = 1, 0, line_starts[1]
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        if start >= next_start:
            line = bisect_right(line_starts, start)
            line_start, next_start = line_starts[line - 1], line_starts[line]
        column = start - line_start + 1
        text = m.group(kind)
        if kind == "OP":
            append(_new(Token, (_OPERATORS[text], text, line, column)))
        elif kind == "WORD":
            append(_new(Token, (_WORD_KINDS.get(text, "IDENT"), text, line, column)))
        elif kind == "NUMBER":
            append(_new(Token, ("NUMBER", text, line, column)))
        elif kind == "STRING":
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
            append(Token("STRING", value, line, column))
        elif kind == "SIGNED":
            if tokens and tokens[-1].kind in _VALUE_ENDERS:
                append(Token(_OPERATORS[text[0]], text[0], line, column))
                append(Token("NUMBER", text[1:], line, column + 1))
            else:
                append(Token("NUMBER", text, line, column))
        elif kind == "UWORD" and (text[0].isalpha() or text[0] == "_"):
            append(Token(_WORD_KINDS.get(text, "IDENT"), text, line, column))
        elif kind == "EOF":
            append(Token("EOF", "", line, column))
            return tokens
        elif kind == "COMMENT":
            raise LexError("unterminated block comment", line, column, filename)
        elif kind == "BADSTRING":
            end = re.compile(_STRING_BODY).match(source, start + 1).end()
            reason = "newline in" if source.startswith("\n", end) else "unterminated"
            raise LexError(f"{reason} string literal", line, column, filename)
        else:
            raise LexError(f"unexpected character {text[0]!r}", line, column, filename)
    raise AssertionError("the token pattern always matches at the end of input")
