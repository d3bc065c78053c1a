"""Universal Scalability Law, serial-fraction time models, M/M/1 response time.

The one-dimensional counterpart of the community model: speedup of N
cooperating workers under contention and coherency costs and its
bounded least-squares fit in numpy (Gunther's linearisation as the
start, then damped Gauss-Newton), the sigma + pi/N + kappa*N
completion-time family, its local power-law slope, and the
stability-gated queue response time.

Only usl_fit() needs numpy, and it imports numpy when called, so the
closed forms here start without it.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError, QueueInstabilityError, UnboundedPeakError, UnsupportedConfigError, _finite, _real

__all__ = [
    "UslParams",
    "UslFit",
    "SerialModel",
    "QueueParams",
    "usl_speedup",
    "usl_peak",
    "usl_fit",
    "serial_time",
    "effective_exponent",
    "response_time",
]


class UslParams(Record):
    """Contention and coherency coefficients of the scalability law.

    Negative contention (>= -1) encodes superlinear speedup as a
    parametric fit; coherency must be non-negative.
    """

    __slots__ = ("contention", "coherency")

    def __init__(self, contention: float, coherency: float = 0.0) -> None:
        self._freeze(_real(contention, "contention", "[-1, inf)"), _real(coherency, "coherency", "[0, inf)"))


@_finite
def usl_speedup(N: float, p: UslParams) -> float:
    """S(N) = N / (1 + contention*(N-1) + coherency*N*(N-1)); S(1) = 1 exactly."""
    N = _real(N, "N", "[1, inf)")
    den = 1.0 + p.contention * (N - 1.0) + p.coherency * N * (N - 1.0)
    if den <= 0:
        raise DomainError(f"speedup denominator is not positive at N={N} (contention too negative)")
    if den == math.inf:
        raise OverflowError  # N / inf would read as a speedup of 0
    return N / den


@_finite
def usl_peak(p: UslParams) -> float:
    """Concurrency level (a real >= 1) maximizing the speedup curve.

    d/dN [1/N + contention*(1-1/N) + coherency*(N-1)] = 0 gives
    N* = sqrt((1-contention)/coherency). Without a coherency cost and
    with contention below 1 the curve rises forever, which is an error;
    contention at or above 1 makes the curve non-increasing, peak at 1.
    """
    if p.coherency == 0:
        if p.contention < 1:
            raise UnboundedPeakError("speedup grows without bound when coherency = 0 and contention < 1")
        return 1.0
    if p.contention >= 1:
        return 1.0
    ratio = (1.0 - p.contention) / p.coherency
    # A tiny coherency overflows the quotient but not its root: take the roots apart then. Elsewhere
    # the one quotient is kept, which is correctly rounded more often than a quotient of two roots.
    return max(1.0, math.sqrt(ratio) if ratio < math.inf else math.sqrt(1.0 - p.contention) / math.sqrt(p.coherency))


class UslFit(Record):
    """Fitted parameters plus the sum of squared speedup errors, finite and >= 0."""

    __slots__ = ("params", "residual")

    def __init__(self, params: UslParams, residual: float) -> None:
        self._freeze(params, _real(residual, "residual", "[0, inf)"))


# Tuples, not arrays, so that importing this module does not import numpy.
_LOWER = (-1.0, 0.0)
_MULTISTART = tuple((a0, b0) for a0 in (-0.5, 0.05, 0.5) for b0 in (1e-6, 1e-3, 0.1))


def _refine(basis, N, S, theta):
    """Damped Gauss-Newton (Levenberg-Marquardt): (theta, sum of squared errors).

    A denominator is 1 + basis @ theta, and theta with one <= 0 has an
    infinite error. The step is undamped until one fails to lower the
    error. A parameter on its bound with the gradient pointing out is
    held fixed, and steps are clipped to the bounds.
    """
    import numpy as np

    def sse(t):
        den = 1.0 + basis @ t
        return float(((N / den - S) ** 2).sum()) if np.all(den > 0) else math.inf

    cost, damping = sse(theta), 0.0
    for _ in range(500 if cost < math.inf else 0):
        den = 1.0 + basis @ theta
        J = -(N / den**2)[:, None] * basis
        grad = J.T @ (N / den - S)
        free = (theta > _LOWER) | (grad <= 0)
        A = (J.T @ J)[np.ix_(free, free)]
        step = np.zeros(2)
        try:
            step[free] = np.linalg.solve(A + damping * np.diag(np.diag(A)), -grad[free])
        except np.linalg.LinAlgError:
            break
        trial = np.maximum(theta + step, _LOWER)
        if (trial_cost := sse(trial)) < cost:
            theta, cost = trial, trial_cost
            damping = damping / 10.0 if damping > 1e-4 else 0.0
        elif damping > 1e11 or (damping == 0.0 and np.all(np.abs(step) <= 1e-14 * np.abs(theta))):
            break
        else:
            damping = max(1e-4, 10.0 * damping)
    return theta, cost


def usl_fit(data) -> UslFit:
    """Least-squares (contention, coherency) fit of measured speedups.

    Nonlinear least squares on the speedup values directly, which stays
    well-behaved when the data are superlinear. Bounds: contention >= -1
    (it may go negative), coherency >= 0. The start is Gunther's
    linearisation N/S - 1 = contention*(N-1) + coherency*N*(N-1), solved
    by ordinary least squares and clamped to the bounds; a damped
    Gauss-Newton iteration refines it. Deterministic: only if that
    leaves a relative residual above 1e-6 is the fit restarted from a
    fixed 3x3 grid, skipping grid points where a denominator is <= 0.
    """
    try:
        pts = [(_real(n, "N", None), _real(s, "speedup", None)) for n, s in data]
    except (TypeError, ValueError, OverflowError):
        raise DomainError("data must be (N, speedup) pairs of numbers") from None
    if not pts:
        raise DomainError("no data points")
    if not all(math.isfinite(n) and math.isfinite(s) for n, s in pts):
        raise DomainError("N and speedup values must be finite")
    if any(n < 1 for n, _ in pts):
        raise DomainError("N values must be >= 1")
    if any(s <= 0 for _, s in pts):
        raise DomainError("speedup values must be positive")
    if len({n for n, _ in pts}) < 3:
        raise DomainError("need at least 3 distinct N values to fit two parameters")
    import numpy as np
    N, S = np.array(pts).T
    with np.errstate(all="ignore"):
        basis = np.stack([N - 1.0, N * (N - 1.0)], axis=1)
        linear = N / S - 1.0
        if not (np.isfinite(basis).all() and np.isfinite(linear).all()):
            raise DomainError("N*(N-1) and N/speedup must be finite")
        best = _refine(basis, N, S, np.maximum(np.linalg.lstsq(basis, linear, rcond=None)[0], _LOWER))
        if math.sqrt(best[1]) / max(1.0, float(np.linalg.norm(S))) > 1e-6:
            best = min([best, *(_refine(basis, N, S, x0) for x0 in np.array(_MULTISTART))], key=lambda fit: fit[1])
    theta, residual = best
    if not math.isfinite(residual):
        raise DomainError("the squared speedup error overflows at every start")
    return UslFit(UslParams(float(theta[0]), float(theta[1])), residual)


class SerialModel(Record):
    """Completion time T(N) = sigma + pi_par/N + kappa*N.

    sigma is the serial floor (> 0), pi_par the parallelizable work,
    kappa the per-worker coherence cost, both >= 0.
    """

    __slots__ = ("sigma", "pi_par", "kappa")

    def __init__(self, sigma: float, pi_par: float = 0.0, kappa: float = 0.0) -> None:
        self._freeze(*map(_real, (sigma, pi_par, kappa), self._fields, ["(0, inf)", "[0, inf)", "[0, inf)"]))


@_finite
def serial_time(N: float, m: SerialModel) -> float:
    """T(N) = sigma + pi_par/N + kappa*N for finite N >= 1."""
    N = _real(N, "N", "[1, inf)")
    return m.sigma + m.pi_par / N + m.kappa * N


@_finite
def effective_exponent(N: float, m: SerialModel) -> float:
    """Local power-law slope of T(N) in the kappa = 0 regime.

    With x = pi_par/(sigma*N), T(gamma*N)/T(N) is approximately
    gamma**(-delta_eff) where delta_eff = x/(1+x); the approximation
    tightens as x shrinks. Lies in [0, 1) and decreases in N. The
    kappa != 0 regime has no power-law form; compare serial_time ratios
    directly there.
    """
    if m.kappa != 0:
        raise UnsupportedConfigError("effective exponent is defined for kappa = 0 only")
    x = m.pi_par / (m.sigma * _real(N, "N", "[1, inf]"))
    return x / (1.0 + x)


class QueueParams(Record):
    """Arrival rate lam and service rate mu of a single queue, both >= 0."""

    __slots__ = ("lam", "mu")

    def __init__(self, lam: float, mu: float) -> None:
        self._freeze(_real(lam, "lam", "[0, inf)"), _real(mu, "mu", "[0, inf)"))


@_finite
def response_time(q: QueueParams) -> float:
    """Steady-state response time 1/(mu - lam); only defined when lam < mu."""
    if q.lam >= q.mu:
        raise QueueInstabilityError(f"unstable queue: arrival rate {q.lam} >= service rate {q.mu}")
    return 1.0 / (q.mu - q.lam)
