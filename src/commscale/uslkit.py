"""Universal Scalability Law, serial-fraction time models, M/M/1 response time.

The one-dimensional counterpart of the community model: speedup of N
cooperating workers under contention and coherency costs and its
bounded least-squares fit (Gunther's linearisation as the start, then
damped Gauss-Newton), the sigma + pi/N + kappa*N completion-time family,
its local power-law slope, and the stability-gated queue response time.
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


_MULTISTART = tuple((a0, b0) for a0 in (-0.5, 0.05, 0.5) for b0 in (1e-6, 1e-3, 0.1))


def _pass(rows, a, b):
    """(squared error, gradient, J'J) at (a, b) from one loop over the (N, S, N-1, N*(N-1)) rows; the error is inf
    where a denominator is <= 0. Sums run in data order with +=, whose rounding no Python version changes."""
    cost = ga = gb = aa = ab = bb = 0.0
    for n, s, x, y in rows:
        den = 1.0 + (a * x + b * y)
        if not den > 0.0:
            return math.inf, 0.0, 0.0, 0.0, 0.0, 0.0
        q = n / sq if (sq := den * den) else math.inf  # the speedup's slopes in a and b are -q*x and -q*y
        r, ja, jb = n / den - s, q * x, q * y
        cost, ga, gb = cost + r * r, ga - ja * r, gb - jb * r
        aa, ab, bb = aa + ja * ja, ab + ja * jb, bb + jb * jb
    return cost, ga, gb, aa, ab, bb


def _refine(rows, a, b):
    """Damped Gauss-Newton (Levenberg-Marquardt, More 1978): ((a, b), sum of squared errors).

    The step is undamped until one fails to lower the error. A parameter on its bound with the gradient pointing
    out is held fixed (a unit row and a zero gradient in the 2x2 solve), and steps are clipped to the bounds. The
    solve eliminates with partial pivoting, as LAPACK does; a zero pivot (a singular J'J) ends the refinement.
    """
    here, damping = _pass(rows, a, b), 0.0
    for _ in range(500 if here[0] < math.inf else 0):
        cost, ga, gb, aa, ab, bb = here
        if not (a > -1.0 or ga <= 0):
            aa, ab, ga = 1.0, 0.0, 0.0
        if not (b > 0.0 or gb <= 0):
            bb, ab, gb = 1.0, 0.0, 0.0
        top, low = (aa + damping * aa, ab, -ga), (ab, bb + damping * bb, -gb)
        (p, u, v), (c, w, z) = (low, top) if abs(ab) > abs(top[0]) else (top, low)
        if p == 0 or (pivot := w - c / p * u) == 0:
            break
        db = (z - c / p * v) / pivot
        da = (v - u * db) / p
        trial = max(a + da, -1.0), max(b + db, 0.0)
        if (there := _pass(rows, *trial))[0] < cost:
            (a, b), here = trial, there
            damping = damping / 10.0 if damping > 1e-4 else 0.0
        elif damping > 1e11 or (damping == 0.0 and abs(da) <= 1e-14 * abs(a) and abs(db) <= 1e-14 * abs(b)):
            break
        else:
            damping = max(1e-4, 10.0 * damping)
    return (a, b), here[0]


def usl_fit(data) -> UslFit:
    """Least-squares (contention, coherency) fit of measured speedups.

    Nonlinear least squares on the speedup values directly, which stays
    well-behaved when the data are superlinear. Bounds: contention >= -1
    (it may go negative), coherency >= 0. The start is Gunther's
    linearisation N/S - 1 = contention*(N-1) + coherency*N*(N-1), solved
    by Givens rotations, which keep large, close N values conditioned,
    and clamped to the bounds; a damped Gauss-Newton iteration refines
    it. Deterministic: only if that leaves a relative residual above
    1e-6 is the fit restarted from a fixed 3x3 grid, skipping grid
    points where a denominator is <= 0.
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
    rows = [(n, s, n - 1.0, n * (n - 1.0)) for n, s in pts]
    if not all(math.isfinite(y) and math.isfinite(n / s) for n, s, _, y in rows):
        raise DomainError("N*(N-1) and N/speedup must be finite")
    r11 = r12 = r22 = z1 = z2 = 0.0
    for n, s, x, y in rows:
        z = n / s - 1.0
        if h := math.hypot(r11, x):
            c, t = r11 / h, x / h
            r11, r12, z1, y, z = h, c * r12 + t * y, c * z1 + t * z, c * y - t * r12, c * z - t * z1
        if h := math.hypot(r22, y):
            r22, z2 = h, r22 / h * z2 + y / h * z
    b = z2 / r22 if r22 else 0.0
    best = _refine(rows, max((z1 - r12 * b) / r11, -1.0), max(b, 0.0))
    if math.sqrt(best[1]) / max(1.0, math.hypot(*(s for _, s in pts))) > 1e-6:
        best = min([best, *(_refine(rows, *x0) for x0 in _MULTISTART)], key=lambda fit: fit[1])
    if not math.isfinite(best[1]):
        raise DomainError("the squared speedup error overflows at every start")
    return UslFit(UslParams(*best[0]), best[1])


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
