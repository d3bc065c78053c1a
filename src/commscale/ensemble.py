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

generate() takes them for all samples at once from the _philox module,
which evaluates Philox4x64-10 and numpy's ziggurat with numpy array
operations where that is surely exact, and draws the rest, about 2% of
the samples, from one scalar generator re-keyed to (seed, i). N, the
class law and the noise factor are then computed per sample with
scalar `math`: numpy's vector exp can differ from math.exp in the last
bit, which would change 12-digit CSV cells.

Ensembles travel as two float columns (N, Y): the CLI formats CSV from
them and fits the columns it parses. generate(), parse_csv() and
fit_power_law() wrap the columns in EnsembleSample records.

numpy (with the _philox module) is imported inside the functions that
draw or fit, so that the commands which do neither start without it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import count

from .errors import CsvFormatError, DomainError
from .meanfield import Population, ScalingClass, ScalingParams, _ClassLaw, _law, predicted_exponent
from .tabular import format_pairs, parse_pairs

__all__ = [
    "EnsembleSpec",
    "EnsembleSample",
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

_MAX_SEED = 2**64
_HEADER = "N,Y"


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one synthetic ensemble.

    n_samples communities are drawn with N log-uniform on
    [N_min, N_max], a fixed inactive fraction N_0/N, and multiplicative
    log-normal noise exp(Normal(0, noise_sigma**2)) on the output.
    """

    scaling_class: ScalingClass
    params: ScalingParams
    n_samples: int = 500
    N_min: float = 1e3
    N_max: float = 1e7
    noise_sigma: float = 0.1
    inactive_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_samples", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.n_samples < 2:
            raise DomainError(f"n_samples must be >= 2, got {self.n_samples}")
        if not 1 <= self.N_min < self.N_max < math.inf:
            raise DomainError(f"population bounds need 1 <= N_min < N_max < inf, got [{self.N_min}, {self.N_max}]")
        if not 0 <= self.noise_sigma < math.inf:
            raise DomainError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0 <= self.inactive_fraction < 1:
            raise DomainError(f"inactive_fraction must be in [0, 1), got {self.inactive_fraction}")
        if not 0 <= self.seed < _MAX_SEED:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class EnsembleSample:
    """One (population, output) observation; both finite and strictly positive."""

    N: float
    Y: float

    def __post_init__(self) -> None:
        _require_sample(self.N, self.Y)


def _require_sample(n: float, y: float) -> None:
    # The chained comparisons are false for nan as well as for inf and non-positive values.
    if not (0 < n < math.inf and 0 < y < math.inf):
        raise DomainError(f"samples must be finite and positive, got N={n}, Y={y}")


@dataclass(frozen=True)
class PowerLawFit:
    """OLS fit of ln Y = beta * ln N + log_intercept, with diagnostics."""

    beta: float
    log_intercept: float
    r_squared: float
    stderr_beta: float
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.r_squared <= 1:
            raise DomainError(f"r_squared must be in [0, 1], got {self.r_squared}")
        if self.stderr_beta < 0:
            raise DomainError(f"stderr_beta must be >= 0, got {self.stderr_beta}")


def model_value(scaling_class: ScalingClass, N: float, inactive_fraction: float, params: ScalingParams) -> float:
    """Noise-free class output at total population N with a fixed inactive share.

    Every class value is the corresponding meanfield composition
    evaluated at the equilibrium volume, so a noiseless ensemble lies
    exactly on N**predicted_exponent (times a constant):

        infrastructure_volume: V_I at equilibrium
        linear_consumption:    N (unit per-capita coefficient)
        interaction:           yield at equilibrium
        scarce_agent:          node degree at equilibrium
        scarce_dependency:     yield times node degree
        recursive_dependency:  N_I**2 over the cascaded chain volume
                               (V_eq/N_I)**(1/D**2) * N_I, H=1 only
        virtual_interaction:   N_I**(2H/D) * N**(-H/D)
    """
    if N <= 0:
        raise DomainError(f"population must be positive, got {N}")
    return _law_value(_law(scaling_class, params), N, inactive_fraction, params)


def _law_value(law: _ClassLaw, N: float, inactive_fraction: float, params: ScalingParams) -> float:
    n0 = inactive_fraction * N
    return law.value(Population(N - n0, n0), params)


def generate(spec: EnsembleSpec) -> list[EnsembleSample]:
    """Draw the ensemble described by spec; deterministic given spec.seed.

    Raises DomainError when a sample is not finite and positive, for
    instance when the noise overflows the output.
    """
    return [EnsembleSample(n, y) for n, y in zip(*_draw(spec))]


def _draw(spec: EnsembleSpec) -> tuple[list, list]:
    """The N and Y columns of generate(spec)."""
    law = _law(spec.scaling_class, spec.params)
    from . import _philox

    us, zs = _philox.first_draws(spec.seed, spec.n_samples)
    ln_lo = math.log(spec.N_min)
    ln_hi = math.log(spec.N_max)
    ns, ys = [], []
    for u, z in zip(us, zs):
        n = math.exp(ln_lo + u * (ln_hi - ln_lo))
        y = _law_value(law, n, spec.inactive_fraction, spec.params) * math.exp(spec.noise_sigma * z)
        _require_sample(n, y)
        ns.append(n)
        ys.append(y)
    return ns, ys


def fit_power_law(samples) -> PowerLawFit:
    """Ordinary least squares on (ln N, ln Y).

    Needs at least two distinct N values. stderr_beta follows the
    standard slope formula with n-2 degrees of freedom (0.0 when there
    are exactly two points); r_squared is 1.0 for an exact fit,
    including the degenerate all-equal-Y case.
    """
    pts = list(samples)
    if any(s.N <= 0 or s.Y <= 0 for s in pts):
        raise DomainError("samples must be positive for log-log fitting")
    return _fit_columns([s.N for s in pts], [s.Y for s in pts])


def _fit_columns(ns: list, ys: list) -> PowerLawFit:
    """fit_power_law on columns already known to be positive."""
    import numpy as np

    x = np.array(list(map(math.log, ns)))
    y = np.array(list(map(math.log, ys)))
    if not ns or x.min() == x.max():
        raise DomainError("need at least 2 distinct N values to fit a slope")
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    sxy = float(((x - xbar) * (y - ybar)).sum())
    beta = sxy / sxx
    intercept = ybar - beta * xbar
    resid = y - (intercept + beta * x)
    ssr = float((resid**2).sum())
    sst = float(((y - ybar) ** 2).sum())
    n = len(ns)
    r_squared = 1.0 if sst == 0 else max(0.0, min(1.0, 1.0 - ssr / sst))
    stderr = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0
    return PowerLawFit(beta, intercept, r_squared, stderr, n)


@dataclass(frozen=True)
class CompareReport:
    """A fitted exponent held against the theoretical one."""

    theory_beta: float
    fitted_beta: float
    gap: float
    stderr_beta: float
    k: float
    within_k_stderr: bool


def compare(fit: PowerLawFit, scaling_class: ScalingClass, params: ScalingParams, k: float = 2.0) -> CompareReport:
    """Absolute gap between fit and theory, flagged against k standard errors."""
    theory = predicted_exponent(scaling_class, params)
    gap = abs(fit.beta - theory)
    return CompareReport(theory, fit.beta, gap, fit.stderr_beta, k, gap <= k * fit.stderr_beta)


def parse_csv(text: str) -> list[EnsembleSample]:
    """Parse `N,Y` CSV text into samples, rejecting non-positive rows by number."""
    return [EnsembleSample(n, y) for n, y in zip(*_parse_csv_columns(text))]


def _parse_csv_columns(text: str) -> tuple[list, list]:
    """The N and Y columns of parse_csv(text)."""
    ns, ys = parse_pairs(text, _HEADER)
    if ns and (min(ns) <= 0 or min(ys) <= 0):
        for row, n, y in zip(count(2), ns, ys):
            if n <= 0 or y <= 0:
                raise CsvFormatError(f"row {row}: samples must be positive, got N={n:g}, Y={y:g}")
    return ns, ys


def ingest_csv(path) -> list[EnsembleSample]:
    """Read and parse an `N,Y` CSV file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_csv(fh.read())


def samples_to_csv(samples) -> str:
    """Render samples as `N,Y` CSV, 12 significant digits, bytewise reproducible."""
    return format_pairs(((s.N, s.Y) for s in samples), _HEADER)
