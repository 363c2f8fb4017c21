"""Error hierarchy shared across the toolchain.

Every diagnostic that originates from source text carries a line and a
column (1-based) so callers can point at the offending spot.
"""

from __future__ import annotations

from pathlib import Path


class SthlError(Exception):
    """Base class for all toolchain errors."""


class SourceError(SthlError):
    """An error anchored to a position in a source file."""

    def __init__(self, message: str, line: int, column: int, filename: str = "<sthl>"):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename


class LexError(SourceError):
    """Illegal token in the input text."""


class ParseError(SourceError):
    """Input violates the grammar."""


class ResolveError(SourceError):
    """Undeclared or duplicate identifier."""


class TypeCheckError(SourceError):
    """Expression or statement violates the type rules."""


class BuildError(SourceError):
    """An assignment gives an object or region a value no scene can hold."""


class EvalError(SthlError):
    """A constraint could not be evaluated (missing object, bad path)."""


class PlacementError(SthlError):
    """An object cannot fit in its assigned region."""


class WeightError(SthlError):
    """Retrieval weights are negative, not finite, or sum to zero."""


class NoAssetError(SthlError):
    """No database candidates and no generator to fall back to."""


class DegenerateRegion(SthlError):
    """Region polygon has non-positive area."""


class DimensionError(SthlError):
    """Embedding vectors disagree in length."""


class FormatError(SthlError):
    """A scene package file is malformed or internally inconsistent."""


class IoError(SthlError):
    """Filesystem failure while reading an input or writing a package, or an
    input that is not UTF-8 text."""


def read_text(path: str | Path) -> str:
    """Read an input file as UTF-8. A file that cannot be read or decoded
    is an IoError whose message starts with the path (and, for a decode
    error, gives the byte offset)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IoError(
            f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset "
            f"{exc.start}: {exc.reason}"
        ) from None
    except OSError as exc:
        raise IoError(f"{path}: {exc.strerror or exc}") from None
