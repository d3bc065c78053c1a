"""Exception types shared across the package, and the checks that raise DomainError.

_finite checks a function's float result. _real and _integer hold the
package's one number rule, which every record field and scalar argument
passes before its range check: a real is a value float() converts,
stored as that float; an integer is an integral number, stored as an
int (2.0 gives 2). Neither is a bool or text.
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


def _real(value, name: str) -> float:
    """value as its float; DomainError unless float() converts it and it is neither a bool nor text."""
    try:
        if not isinstance(value, (bool, str, bytes, bytearray)):
            return float(value)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def _integer(value, name: str, least: int) -> int:
    """value as an int; DomainError unless _real takes it and it is an integral number >= least."""
    try:
        if _real(value, name) >= least and (integer := int(value)) == value:
            return integer
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
