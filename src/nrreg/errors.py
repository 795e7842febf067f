"""Exception types shared across the package, and the one check of numeric arguments."""

import numbers


class NrregError(Exception):
    """Base class for all package errors."""


class FormatError(NrregError):
    """A mesh file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class InvalidInputError(NrregError, ValueError):
    """Arguments violate a documented precondition; a ``ValueError`` too."""


class DegenerateInputError(NrregError):
    """Input geometry is degenerate (empty, zero-diagonal, too few points)."""


class InitializationError(NrregError):
    """Rigid initialization could not find enough valid correspondences."""


class SolverError(NrregError):
    """Numerical failure inside the registration solver."""


def check_number(name, value, ok, what, integer=False):
    """Raise ``InvalidInputError`` "<name> must be <what>, got <value>" unless
    ``value`` is a real number (an integer if ``integer``), not a bool, and
    ``ok(value)`` holds; ``ok`` must fail on NaN, as a comparison does."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not (isinstance(value, kind) and ok(value)):
        raise InvalidInputError(f"{name} must be {what}, got {value!r}")
