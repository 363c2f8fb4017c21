"""Reference lexer: the former character-by-character ScenethesisLang lexer,
kept verbatim as the oracle that `tests/test_lexer_differential.py` compares
`sthl.dsl.lexer.tokenize` against.

Its one known defect is left in place: a character that `str.isdigit`
accepts but `float` rejects (such as `²`) lexes as part of a NUMBER token,
which the parser then cannot read. The program's lexer raises a located
LexError there instead.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Token kinds that can end an expression; a following +/- is then a binary
# operator rather than a literal sign.
_VALUE_ENDERS = {"IDENT", "NUMBER", "STRING", "RPAREN"}

_PUNCT = {
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


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int


class _Lexer:
    def __init__(self, source: str, filename: str):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1
        self.tokens: list[Token] = []

    def error(self, message: str, line: int | None = None, column: int | None = None) -> LexError:
        return LexError(message, line or self.line, column or self.column, self.filename)

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def emit(self, kind: str, value: str, line: int, column: int) -> None:
        self.tokens.append(Token(kind, value, line, column))

    def run(self) -> list[Token]:
        while self.pos < len(self.source):
            ch = self.peek()
            if ch in " \t\r\n":
                self.advance()
            elif ch == "/" and self.peek(1) == "/":
                while self.pos < len(self.source) and self.peek() != "\n":
                    self.advance()
            elif ch == "/" and self.peek(1) == "*":
                self._block_comment()
            elif ch.isalpha() or ch == "_":
                self._word()
            elif ch.isdigit():
                self._number(sign="")
            elif ch in "+-" and self.peek(1).isdigit() and not self._after_value():
                line, col = self.line, self.column
                sign = self.advance()
                self._number(sign=sign, line=line, column=col)
            elif ch == '"':
                self._string()
            else:
                self._operator()
        self.emit("EOF", "", self.line, self.column)
        return self.tokens

    def _after_value(self) -> bool:
        return bool(self.tokens) and self.tokens[-1].kind in _VALUE_ENDERS

    def _block_comment(self) -> None:
        line, col = self.line, self.column
        self.advance()
        self.advance()
        while self.pos < len(self.source):
            if self.peek() == "*" and self.peek(1) == "/":
                self.advance()
                self.advance()
                return
            self.advance()
        raise self.error("unterminated block comment", line, col)

    def _word(self) -> None:
        line, col = self.line, self.column
        chars = [self.advance()]
        while self.peek().isalnum() or self.peek() == "_":
            chars.append(self.advance())
        word = "".join(chars)
        if word in KEYWORDS:
            self.emit(KEYWORDS[word], word, line, col)
        elif word in TYPE_NAMES:
            self.emit("TYPE", word, line, col)
        else:
            self.emit("IDENT", word, line, col)

    def _number(self, sign: str, line: int | None = None, column: int | None = None) -> None:
        line = line if line is not None else self.line
        column = column if column is not None else self.column
        chars = [sign]
        while self.peek().isdigit():
            chars.append(self.advance())
        if self.peek() == "." and self.peek(1).isdigit():
            chars.append(self.advance())
            while self.peek().isdigit():
                chars.append(self.advance())
        self.emit("NUMBER", "".join(chars), line, column)

    def _string(self) -> None:
        line, col = self.line, self.column
        self.advance()
        chars: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise self.error("unterminated string literal", line, col)
            ch = self.advance()
            if ch == '"':
                break
            if ch == "\n":
                raise self.error("newline in string literal", line, col)
            if ch == "\\":
                if self.pos >= len(self.source):
                    raise self.error("unterminated string literal", line, col)
                esc = self.advance()
                chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
            else:
                chars.append(ch)
        self.emit("STRING", "".join(chars), line, col)

    def _operator(self) -> None:
        line, col = self.line, self.column
        ch = self.advance()
        nxt = self.peek()
        if ch == "<" and nxt == "-":
            self.advance()
            self.emit("ARROW", "<-", line, col)
        elif ch == "<" and nxt == "=":
            self.advance()
            self.emit("LE", "<=", line, col)
        elif ch == ">" and nxt == "=":
            self.advance()
            self.emit("GE", ">=", line, col)
        elif ch == "!" and nxt == "=":
            self.advance()
            self.emit("NE", "!=", line, col)
        elif ch == "&" and nxt == "&":
            self.advance()
            self.emit("AND", "&&", line, col)
        elif ch == "|" and nxt == "|":
            self.advance()
            self.emit("OR", "||", line, col)
        elif ch == "<":
            self.emit("LT", "<", line, col)
        elif ch == ">":
            self.emit("GT", ">", line, col)
        elif ch == "!":
            self.emit("NOT", "!", line, col)
        elif ch in _PUNCT:
            self.emit(_PUNCT[ch], ch, line, col)
        else:
            raise self.error(f"unexpected character {ch!r}", line, col)


def tokenize(source: str, filename: str = "<sthl>") -> list[Token]:
    """Tokenize source text, raising LexError on illegal input."""
    return _Lexer(source, filename).run()
