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
byte-identical CSV. generate() builds one generator per call and, before
each sample, re-keys it to (seed, i) with its counter at zero and its
output buffer empty. Philox is a keyed bijection of its counter, so that
gives exactly the draws of a fresh generator keyed (seed, i).

numpy is imported inside generate() and fit_power_law(), so that the
commands which neither draw nor fit start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if self.n_samples < 2:
            raise DomainError(f"n_samples must be >= 2, got {self.n_samples}")
        if not 1 <= self.N_min < self.N_max:
            raise DomainError(f"population bounds must satisfy 1 <= N_min < N_max, got [{self.N_min}, {self.N_max}]")
        if self.noise_sigma < 0:
            raise DomainError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
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
        # The chained comparisons are false for nan as well as for inf and non-positive values.
        if not (0 < self.N < math.inf and 0 < self.Y < math.inf):
            raise DomainError(f"samples must be finite and positive, got N={self.N}, Y={self.Y}")


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
    law = _law(spec.scaling_class, spec.params)
    import numpy as np
    bits = np.random.Philox(key=np.array([spec.seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    fresh = bits.state  # a copy: counter 0, empty buffer (buffer_pos 4), no cached uint32
    key = fresh["state"]["key"]
    ln_lo = math.log(spec.N_min)
    ln_hi = math.log(spec.N_max)
    out = []
    for i in range(spec.n_samples):
        key[1] = i
        bits.state = fresh
        u = rng.random()
        z = rng.standard_normal()
        n = math.exp(ln_lo + u * (ln_hi - ln_lo))
        y = _law_value(law, n, spec.inactive_fraction, spec.params)
        out.append(EnsembleSample(n, y * math.exp(spec.noise_sigma * z)))
    return out


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
    import numpy as np
    x = np.array([math.log(s.N) for s in pts])
    y = np.array([math.log(s.Y) for s in pts])
    if len(set(x.tolist())) < 2:
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
    n = len(pts)
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
    out = []
    for row, n, y in parse_pairs(text, "N,Y"):
        if n <= 0 or y <= 0:
            raise CsvFormatError(f"row {row}: samples must be positive, got N={n:g}, Y={y:g}")
        out.append(EnsembleSample(n, y))
    return out


def ingest_csv(path) -> list[EnsembleSample]:
    """Read and parse an `N,Y` CSV file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_csv(fh.read())


def samples_to_csv(samples) -> str:
    """Render samples as `N,Y` CSV, 12 significant digits, bytewise reproducible."""
    return format_pairs(((s.N, s.Y) for s in samples), "N,Y")
