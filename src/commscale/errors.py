"""Exception types shared across the package, and the checks that raise DomainError.

_finite checks a function's float result. _real and _integer hold the one
number rule of every record field and scalar argument: a real is a value
float() converts, kept as that float, and an integer is an integral number
from a least value on, kept as an int (2.0 gives 2); neither is a bool
(Python's or numpy's) or text. Each _real call states its interval once,
as "[0, 1]" or "(0, inf)", and a value outside it (nan always is) raises
"<name> must be a real number in <interval>, got <value>". A check of one
field against another, as H <= D, stays with its record.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "DomainError",
    "UnsupportedConfigError",
    "UnboundedPeakError",
    "QueueInstabilityError",
    "UnknownAgentError",
    "GraphFormatError",
    "CsvFormatError",
]


class DomainError(ValueError):
    """A mathematically invalid input or configuration."""


class UnsupportedConfigError(DomainError):
    """The requested quantity is not defined in this parameter regime."""


class UnboundedPeakError(DomainError):
    """The speedup curve increases without bound; there is no peak."""


class QueueInstabilityError(DomainError):
    """Arrival rate at or above service rate; the queue has no steady state."""


class UnknownAgentError(DomainError):
    """An agent id that is not present in the graph."""


class GraphFormatError(DomainError):
    """Malformed promise-graph text."""


class CsvFormatError(DomainError):
    """Malformed CSV input."""


def _finite(f):
    """f, raising DomainError where its float result overflows, divides by an underflowed zero or is not finite."""

    @functools.wraps(f)
    def checked(*args, **kwargs):
        try:
            x = f(*args, **kwargs)
            if -math.inf < x < math.inf:
                return x
        except ArithmeticError:
            pass
        raise DomainError("result is out of the finite float range")

    return checked


def _boolean(kind: type) -> bool:
    """Whether kind is Python's bool or numpy's (named bool_ before numpy 2), which float() reads as 0.0 or 1.0."""
    return kind.__name__ in ("bool", "bool_")


@functools.cache
def _bounds(interval: str) -> tuple[float, float]:
    """The least and the greatest float of an interval written "[lo, hi]", "(lo, hi)", "[lo, hi)" or "(lo, hi]"."""
    lo, hi = map(float, interval[1:-1].split(","))
    return (lo if interval[0] == "[" else math.nextafter(lo, math.inf),
            hi if interval[-1] == "]" else math.nextafter(hi, -math.inf))


def _real(value, name: str, interval: str | None) -> float:
    """value as its float; DomainError unless float() converts it, it is no bool or text, and it lies in interval.

    An interval of None takes every float, nan included: usl_fit's pairs, which it then checks itself.
    """
    try:
        if not (isinstance(value, (str, bytes, bytearray)) or _boolean(type(value))):
            x = float(value)
            if interval is None:
                return x
            lo, hi = _bounds(interval)
            if lo <= x <= hi:
                return x
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise DomainError(f"{name} must be a real number in {interval}, got {value!r}")


def _integer(value, name: str, least: int) -> int:
    """value as an int; DomainError unless _real takes it in [least, inf) and it is an integral number."""
    try:
        _real(value, name, f"[{least}, inf)")
        if (integer := int(value)) == value:
            return integer
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
