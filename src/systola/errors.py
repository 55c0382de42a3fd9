"""Exception types shared across the package, and the integer-argument check."""

import operator


class SystolaError(Exception):
    """Base class for all systola errors."""


class MalformedFaceError(SystolaError, ValueError):
    """A face repeats a vertex or is empty."""


class UnknownVertexError(SystolaError, ValueError):
    """A vertex label does not belong to the complex at hand."""


class DimensionError(SystolaError, ValueError):
    """A dimension or degree argument is out of range."""


class DomainError(SystolaError, ValueError):
    """A cochain value sits on a cell outside its legal domain."""


class CocycleError(SystolaError, ValueError):
    """A cochain required to be a cocycle is not one."""


class QuotientError(SystolaError, ValueError):
    """An antipodal identification would not produce a simplicial complex."""


class CapacityError(SystolaError, ValueError):
    """A search or construction was requested beyond its feasible input size."""


class ParameterError(SystolaError, ValueError):
    """An argument falls outside the documented parameter range."""


def require_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int, no smaller than ``minimum`` when one is given.

    Integer types such as numpy's are accepted through ``operator.index``;
    bools, floats and strings are refused, never coerced.
    """
    try:
        as_int = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        as_int = None
    if as_int is None or (minimum is not None and as_int < minimum):
        least = "" if minimum is None else f" at least {minimum}"
        raise ParameterError(f"{name} must be an integer{least}, got {value!r}")
    return as_int
