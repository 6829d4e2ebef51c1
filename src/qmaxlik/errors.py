"""Exception types shared across the package, and the integer- and positive-number argument checks that raise one."""

import math
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


def check_positive(value, name: str, finite: bool = True):
    """``value`` unchanged; a bool, a non-number, NaN, a value at or below 0 and, when ``finite``, an infinite
    value is a ``ValidationError``. The float twin of ``check_int``: every step size and tolerance goes through it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not value > 0:
        raise ValidationError(f"{name} must be positive")
    if finite and value == math.inf:
        raise ValidationError(f"{name} must be finite")
    return value
