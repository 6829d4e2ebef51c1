"""Exception types shared across the package, and the integer-argument check that raises one."""

import numbers


class DataFormatError(ValueError):
    """A dataset or state file could not be parsed (schema/syntax problem)."""


class ValidationError(ValueError):
    """A parsed object violates a physical invariant (trace, positivity, ...)."""


class ConvergenceError(ValidationError):
    """An iteration that had to converge stopped without converging."""


def check_int(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int; a bool, a non-integer or a value below ``minimum`` is a ``ValidationError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}")
    return int(value)
