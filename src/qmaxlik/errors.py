"""Exception types shared across the package."""


class DataFormatError(ValueError):
    """A dataset or state file could not be parsed (schema/syntax problem)."""


class ValidationError(ValueError):
    """A parsed object violates a physical invariant (trace, positivity, ...)."""


class ConvergenceError(ValidationError):
    """An iteration that had to converge stopped without converging."""
