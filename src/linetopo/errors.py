"""Exception types shared across the package."""


class LinetopoError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDirection(LinetopoError):
    """A direction vector is identically zero."""


class DimensionMismatch(LinetopoError):
    """Operands live in different ambient dimensions, or the dimension is < 2."""


class DuplicateLine(LinetopoError):
    """Two input lines canonicalize to the same line."""

    def __init__(self, first: int, second: int):
        self.first = first
        self.second = second
        super().__init__(
            f"lines {first} and {second} describe the same line"
        )


class NonGenericDirection(LinetopoError):
    """A sweep direction violates genericity condition (i) or (ii)."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(str(violation))


class WrongDimension(LinetopoError):
    """Operation is defined only for specific ambient dimensions."""


class ResolutionTooCoarse(LinetopoError):
    """Grid resolution cannot separate nearby arrangement features."""


class GridTooLarge(LinetopoError):
    """Grid resolution exceeds the rasterization memory budget."""


class InvalidProfile(LinetopoError):
    """Unknown random-arrangement profile string."""


class ParseError(LinetopoError):
    """Malformed arrangement file."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class InvariantViolation(LinetopoError):
    """An internal consistency check failed: a defect in this package, not in
    the input."""
