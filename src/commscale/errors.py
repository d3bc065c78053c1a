"""Exception types shared across the package, and the finite-result check that raises DomainError."""

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
