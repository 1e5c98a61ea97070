"""Exception types shared across the package."""

import operator


class ElemsparseError(Exception):
    """Base class for all package-specific errors."""


class ZeroMatrixError(ElemsparseError, ValueError):
    """Raised when an operation is undefined for the all-zeros matrix."""


class NonFiniteError(ElemsparseError, ValueError):
    """Raised when a matrix entry is NaN or infinite."""


class ShapeMismatchError(ElemsparseError, ValueError):
    """Raised when array shapes or lengths disagree with the matrix they describe."""


class ZeroProbabilityError(ElemsparseError, ValueError):
    """Raised when a cell with probability zero is sampled or required.

    Covers both a corrupted sample/distribution pairing (a drawn cell with
    p_ij = 0) and diagnostic requests at unsupported cells.
    """


class HypothesisViolatedError(ElemsparseError, ValueError):
    """Raised when a bound's hypothesis does not hold for the given inputs."""


class ParseError(ElemsparseError, ValueError):
    """Raised on malformed input files; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where += f"{path}"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)


class DimensionError(ParseError):
    """Raised when rows of a file disagree on their length."""


class InvalidSpecError(ElemsparseError, ValueError):
    """Raised for an argument outside its domain: a generator, experiment or
    bound spec, a solver setting, or a malformed distribution or sample set."""


def _integer(value, name: str) -> int:
    """value as an int by operator.index, which takes Python and numpy
    integers; a float (even 3.0) or any other type is an InvalidSpecError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}") from None
