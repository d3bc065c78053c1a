"""Deterministic synthetic ensembles and log-log power-law fitting.

generate() draws communities of different size from one scaling class
model, fit_power_law() recovers the exponent by ordinary least squares
on (ln N, ln Y), and compare() scores a fit against the theoretical
exponent. With the noise off, a generated ensemble fits its class
exponent to machine precision, for any fixed inactive fraction: the
(1 + N_0/N_I) factor is constant across the ensemble and moves only the
intercept.

Randomness contract: each sample i of a run is drawn from a Philox
counter-based generator keyed by the two 64-bit words (seed, i). Sample
i therefore depends only on (seed, i), never on evaluation order, so
parallel generation, re-runs and different platforms all produce
byte-identical CSV. Every sample's draws are exactly those of a fresh
numpy Generator(Philox(key=[seed, i])): one random() for N, then one
standard_normal() for the noise.

generate() takes them _BLOCK samples at a time from the _philox module,
which evaluates Philox4x64-10 and numpy's ziggurat with numpy array
operations where that is surely exact, and draws the rest, about 2% of
the samples, from one scalar generator re-keyed to (seed, i). The class
kernel is built once per call, with the constants of the parameters
hoisted; a block's N, kernel at (N_I, N_0) and noise factor are float64
columns, with math.exp and builtin pow mapped over the cells, as numpy's
exp and power can differ in the last bit, and + - * / as numpy ufuncs,
which round as Python's do. A block that raises or holds a bad Y runs
again one sample at a time, to name its first bad sample.

An ensemble is two float columns (N, Y), with no per-sample record:
generate() returns them, samples_to_csv() renders them, parse_csv() and
ingest_csv() read them back, and fit_power_law() fits them.

numpy (with the _philox module) is imported inside the functions that
draw or fit, and meanfield inside those that run a class law or an
exponent, so that the commands which do neither start without them.
"""

from __future__ import annotations

import math
from array import array
from itertools import count, repeat
from typing import TYPE_CHECKING

from ._record import Record
from .errors import CsvFormatError, DomainError, _boolean, _finite, _integer, _real
from .tabular import format_pairs, parse_pairs

if TYPE_CHECKING:
    from .meanfield import ScalingClass, ScalingParams

__all__ = [
    "EnsembleSpec",
    "PowerLawFit",
    "CompareReport",
    "model_value",
    "generate",
    "fit_power_law",
    "compare",
    "ingest_csv",
    "parse_csv",
    "samples_to_csv",
]

_HEADER = "N,Y"
_BLOCK = 8192  # samples per block: its 64 KiB columns fit a 2 MiB L2 cache (20k samples: 19.4 ms, not 20.5 in one)


class EnsembleSpec(Record):
    """Recipe for one synthetic ensemble.

    n_samples communities are drawn with N log-uniform on
    [N_min, N_max], a fixed inactive fraction N_0/N, and multiplicative
    log-normal noise exp(Normal(0, noise_sigma**2)) on the output.
    n_samples is at most 10**7: the ensemble and fit commands peaked at
    96 and 81 MB RSS at 10**6 (2-core VM); generate()'s lists take 64 B a sample.
    """

    __slots__ = ("scaling_class", "params", "n_samples", "N_min", "N_max", "noise_sigma", "inactive_fraction", "seed")

    def __init__(self, scaling_class: ScalingClass, params: ScalingParams, n_samples: int = 500, N_min: float = 1e3,
                 N_max: float = 1e7, noise_sigma: float = 0.1, inactive_fraction: float = 0.0, seed: int = 0) -> None:
        self._freeze(scaling_class, params, _integer(n_samples, "n_samples", 2),
                     *map(_real, (N_min, N_max, noise_sigma, inactive_fraction), self._fields[3:],
                          ["[1, inf)", "[1, inf)", "[0, inf)", "[0, 1)"]),
                     _integer(seed, "seed", 0))
        if not self.N_min < self.N_max:
            raise DomainError(f"population bounds need N_min < N_max, got [{self.N_min}, {self.N_max}]")
        if not self.n_samples <= 10**7:
            raise DomainError(f"n_samples must be at most 10**7, got {self.n_samples}")
        if not self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


class PowerLawFit(Record):
    """OLS fit of ln Y = beta * ln N + log_intercept, with diagnostics."""

    __slots__ = ("beta", "log_intercept", "r_squared", "stderr_beta", "n")

    def __init__(self, beta: float, log_intercept: float, r_squared: float, stderr_beta: float, n: int) -> None:
        # n last: a bad float field is reported before a bad count.
        self._freeze(*map(_real, (beta, log_intercept, r_squared, stderr_beta), self._fields,
                          ["(-inf, inf)", "(-inf, inf)", "[0, 1]", "[0, inf)"]), _integer(n, "n", 0))


@_finite
def model_value(scaling_class: ScalingClass, N: float, inactive_fraction: float, params: ScalingParams) -> float:
    """Noise-free class output at total population N with a fixed inactive share.

    Evaluates the class kernel at N_0 = inactive_fraction * N and
    N_I = N - N_0; each kernel is the corresponding meanfield
    composition at the equilibrium volume, so a noiseless ensemble lies
    exactly on N**predicted_exponent (times a constant):

        infrastructure_volume: V_I at equilibrium
        linear_consumption:    N (unit per-capita coefficient)
        interaction:           yield at equilibrium
        scarce_agent:          node degree at equilibrium
        scarce_dependency:     yield times node degree
        recursive_dependency:  N_I**2 over the cascaded chain volume
                               (V_eq/N_I)**(1/D**2) * N_I, H=1 only
        virtual_interaction:   N_I**(2H/D) * N**(-H/D)

    N must be finite and positive and inactive_fraction in [0, 1]; a
    value that leaves the float range is a DomainError.
    """
    from .meanfield import _law
    N = _real(N, "N", "(0, inf)")
    n0 = _real(inactive_fraction, "inactive_fraction", "[0, 1]") * N
    return _law(scaling_class, params).kernel(params)(N - n0, n0)


def _cells(f, column, *args):
    """f over the cells of a float64 column, each args repeated, as a float64 column: libm's exp or pow, not numpy's."""
    import numpy as np
    return np.fromiter(map(f, column.tolist(), *map(repeat, args)), float, len(column))


def generate(spec: EnsembleSpec, _start: int | None = None) -> tuple[list, list]:
    """Draw the N and Y columns of the ensemble described by spec; deterministic given spec.seed.

    Samples are drawn _BLOCK at a time; given _start, only the block from sample _start on.
    Raises DomainError when a sample is not finite and positive, for
    instance when the noise overflows the output.
    """
    from .meanfield import _law
    law = _law(spec.scaling_class, spec.params)
    import numpy as np
    from . import _philox

    ln_lo = math.log(spec.N_min)
    span = math.log(spec.N_max) - ln_lo
    fraction, sigma = spec.inactive_fraction, spec.noise_sigma
    ns, ys = [], []
    try:
        kernel, columns = law.kernel(spec.params), law.kernel(spec.params, lambda x, e: _cells(pow, x, e))
        for start in range(0, spec.n_samples, _BLOCK) if _start is None else [_start]:
            us, zs = _philox.first_draws(spec.seed, start, min(start + _BLOCK, spec.n_samples))
            try:
                with np.errstate(all="ignore"):
                    n = _cells(math.exp, ln_lo + us * span)
                    n0 = fraction * n
                    y = columns(n - n0, n0) * _cells(math.exp, sigma * zs)
                if ((y > 0) & (y < math.inf)).all():
                    ns += n.tolist()
                    ys += y.tolist()
                    continue
            except (ArithmeticError, DomainError):  # a block that fails anywhere runs again one sample at a time
                pass
            for u, z in zip(us.tolist(), zs.tolist()):
                n = math.exp(ln_lo + u * span)
                # EnsembleSpec keeps n >= 1 and fraction <= 1 - 2**-53, so the
                # rounded fraction * n is below n: no kernel sees n_i == 0 here.
                n0 = fraction * n
                y = kernel(n - n0, n0) * math.exp(sigma * z)
                # False for nan as well as for inf and 0; n, an exp of a finite number >= 0, is finite and >= 1.
                if not 0 < y < math.inf:
                    raise DomainError(f"samples must be finite and positive, got N={n}, Y={y}")
                ns.append(n)
                ys.append(y)
    except ArithmeticError:
        raise DomainError("samples must be finite and positive: the class law or the noise overflows") from None
    return ns, ys


def _columns(ns, ys) -> tuple[list, list]:
    """The N and Y columns as lists of their cells' floats; DomainError unless equal in length, all finite and > 0."""
    try:
        # list() first, as array("d", b) reads raw doubles; array("d") refuses text, which float() would parse.
        cells = list(ns), list(ys)
        ns, ys = array("d", cells[0]).tolist(), array("d", cells[1]).tolist()
    except (TypeError, ValueError, ArithmeticError):
        pass
    else:
        if len(ns) != len(ys):
            raise DomainError(f"N and Y columns differ in length: {len(ns)} and {len(ys)}")
        # C-speed passes: min finds a cell <= 0 and a nan or inf cell makes the sum non-finite; only a sum
        # that overflows on finite cells needs the isfinite pass over every cell. array("d") reads a bool as
        # 0.0 or 1.0, so only columns with a cell <= 1 need the pass over the cells' types.
        least = min(min(ns, default=1), min(ys, default=1))
        if (least > 0 and (least > 1 or not any(map(_boolean, {*map(type, cells[0]), *map(type, cells[1])})))
                and (math.isfinite(sum(ns) + sum(ys)) or all(map(math.isfinite, [*ns, *ys])))):
            return ns, ys
    raise DomainError("samples must be finite and positive numbers")


def fit_power_law(ns, ys) -> PowerLawFit:
    """Ordinary least squares on (ln N, ln Y) over the N and Y columns.

    The columns may be any iterables of numbers; they must have equal
    length, each cell's float must be finite and strictly positive, and
    N needs at least two distinct values. array("d") columns skip the
    copy: a cell <= 0 fails its log, a nan or inf one the sum of logs.
    stderr_beta follows the standard slope formula with n-2 degrees of
    freedom (0.0 when there are exactly two points); r_squared is 1.0
    for an exact fit, including the degenerate all-equal-Y case.
    """
    import numpy as np

    if not (type(ns) is type(ys) is array and ns.typecode == ys.typecode == "d" and len(ns) == len(ys)):
        ns, ys = _columns(ns, ys)
    try:
        x = np.fromiter(map(math.log, ns), float, len(ns))
        y = np.fromiter(map(math.log, ys), float, len(ys))
    except ValueError:
        raise DomainError("samples must be finite and positive numbers") from None
    if not math.isfinite(x.sum() + y.sum()):
        raise DomainError("samples must be finite and positive numbers")
    if x.size == 0 or x.min() == x.max():
        raise DomainError("need at least 2 distinct N values to fit a slope")
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    sxy = float(((x - xbar) * (y - ybar)).sum())
    beta = sxy / sxx
    intercept = float(ybar - beta * xbar)
    resid = y - (intercept + beta * x)
    ssr = float((resid**2).sum())
    sst = float(((y - ybar) ** 2).sum())
    n = len(ns)
    r_squared = 1.0 if sst == 0 else max(0.0, min(1.0, 1.0 - ssr / sst))
    stderr = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0
    return PowerLawFit(beta, intercept, r_squared, stderr, n)


class CompareReport(Record):
    """A fitted exponent held against the theoretical one; every float field is finite."""

    __slots__ = ("theory_beta", "fitted_beta", "gap", "stderr_beta", "k", "within_k_stderr")

    def __init__(self, theory_beta: float, fitted_beta: float, gap: float, stderr_beta: float, k: float,
                 within_k_stderr: bool) -> None:
        if type(within_k_stderr) is not bool:
            raise DomainError(f"within_k_stderr must be a bool, got {within_k_stderr!r}")
        self._freeze(*map(_real, (theory_beta, fitted_beta, gap, stderr_beta, k), self._fields, 5 * ["(-inf, inf)"]),
                     within_k_stderr)


def compare(fit: PowerLawFit, scaling_class: ScalingClass, params: ScalingParams, k: float = 2.0) -> CompareReport:
    """Absolute gap between fit and theory, flagged against k standard errors (0 <= k < inf)."""
    from .meanfield import predicted_exponent
    k = _real(k, "k", "[0, inf)")
    theory = predicted_exponent(scaling_class, params)
    gap = abs(fit.beta - theory)
    return CompareReport(theory, fit.beta, gap, fit.stderr_beta, k, gap <= k * fit.stderr_beta)


def parse_csv(text: str) -> tuple[list, list]:
    """Parse `N,Y` CSV text into its N and Y columns, rejecting non-positive rows by number."""
    ns, ys = parse_pairs(text, _HEADER)
    if ns and (min(ns) <= 0 or min(ys) <= 0):
        for row, n, y in zip(count(2), ns, ys):
            if n <= 0 or y <= 0:
                raise CsvFormatError(f"row {row}: samples must be positive, got N={n:g}, Y={y:g}")
    return ns, ys


def ingest_csv(path) -> tuple[list, list]:
    """Read an `N,Y` CSV file into its N and Y columns."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_csv(fh.read())


def samples_to_csv(ns, ys) -> str:
    """Render the N and Y columns as `N,Y` CSV, 12 significant digits, bytewise reproducible.

    The columns may be any iterables of numbers; they must have equal
    length, and each cell is written as its float, which must be finite
    and strictly positive, as parse_csv requires of what it reads back.
    """
    return format_pairs(*_columns(ns, ys), _HEADER)
