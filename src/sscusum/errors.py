"""Exception and warning types shared across the package."""

from __future__ import annotations


class DegenerateInputError(ValueError):
    """Input is structurally valid but numerically degenerate (e.g. a constant series)."""


class StreamOrderError(ValueError):
    """Frames arrived out of order, duplicated, or with a gap in the tick sequence."""


class InsufficientLookaheadError(LookupError):
    """A requested shifted sample lies outside the buffered range."""


class DimensionMismatchError(ValueError):
    """Vector or matrix dimensions are inconsistent with the stream's sensor count."""


class ZeroMatrixError(ValueError):
    """The matrix is (numerically) zero, so no dominant direction exists."""


class NumericalError(RuntimeError):
    """A covariance, Gram matrix or direction came out non-finite (overflow or nan/inf input)."""


class IndependenceViolationError(RuntimeError):
    """A direction estimate was built from a window overlapping the scored sample."""


class ValidationError(ValueError):
    """Command-line or configuration value rejected before any computation."""


class CsvFormatError(ValueError):
    """Malformed CSV input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ZeroCorrelationWarning(RuntimeWarning):
    """Every tested shift produced exactly zero correlation; delay defaulted to 0."""
