import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from commscale import uslkit
from commscale.errors import (
    DomainError,
    QueueInstabilityError,
    UnboundedPeakError,
    UnsupportedConfigError,
)
from commscale.uslkit import QueueParams, SerialModel, UslParams


class TestUslSpeedup:
    def test_single_worker_is_exactly_one(self):
        rng = random.Random(3)
        for _ in range(100):
            p = UslParams(rng.uniform(-1, 2), rng.uniform(0, 0.5))
            assert uslkit.usl_speedup(1, p) == 1.0

    def test_hand_value(self):
        # 32 / (1 + 0.1*31 + 0.001*32*31)
        s = uslkit.usl_speedup(32, UslParams(0.1, 0.001))
        assert s == pytest.approx(32 / (1 + 3.1 + 0.992), rel=1e-15)

    def test_linear_when_costless(self):
        for n in (1, 2, 10, 1000):
            assert uslkit.usl_speedup(n, UslParams(0.0, 0.0)) == pytest.approx(n)

    def test_amdahl_ceiling(self):
        # Pure contention saturates at 1/contention.
        p = UslParams(0.05, 0.0)
        assert uslkit.usl_speedup(1e9, p) < 1 / 0.05
        assert uslkit.usl_speedup(1e9, p) == pytest.approx(20.0, rel=1e-6)

    def test_speedup_bounded_by_n(self):
        rng = random.Random(11)
        for _ in range(200):
            p = UslParams(rng.uniform(0, 1), rng.uniform(0, 0.1))
            n = rng.uniform(1, 1e4)
            assert 0 < uslkit.usl_speedup(n, p) <= n

    def test_retrograde_region(self):
        # Beyond the peak the coherency term drags speedup down.
        p = UslParams(0.1, 0.01)
        peak = uslkit.usl_peak(p)
        assert uslkit.usl_speedup(4 * peak, p) < uslkit.usl_speedup(peak, p)

    def test_rejects_n_below_one(self):
        with pytest.raises(DomainError):
            uslkit.usl_speedup(0.5, UslParams(0.1))

    def test_rejects_collapsed_denominator(self):
        with pytest.raises(DomainError):
            uslkit.usl_speedup(100, UslParams(-0.5, 0.0))

    def test_param_validation(self):
        with pytest.raises(DomainError):
            UslParams(-1.5)
        with pytest.raises(DomainError):
            UslParams(0.1, -1e-9)


class TestUslPeak:
    def test_hand_value(self):
        assert uslkit.usl_peak(UslParams(0.5, 0.001)) == pytest.approx(math.sqrt(500), rel=1e-12)

    def test_no_contention(self):
        assert uslkit.usl_peak(UslParams(0.0, 0.01)) == pytest.approx(10.0, rel=1e-12)

    def test_peak_actually_maximizes(self):
        rng = random.Random(19)
        for _ in range(50):
            p = UslParams(rng.uniform(0, 0.9), rng.uniform(1e-5, 0.05))
            n_star = uslkit.usl_peak(p)
            s_star = uslkit.usl_speedup(n_star, p)
            for factor in (0.5, 0.9, 1.1, 2.0):
                n = max(1.0, factor * n_star)
                assert uslkit.usl_speedup(n, p) <= s_star + 1e-12

    def test_unbounded_curve_is_an_error(self):
        with pytest.raises(UnboundedPeakError):
            uslkit.usl_peak(UslParams(0.5, 0.0))

    def test_degenerate_peaks_at_one(self):
        assert uslkit.usl_peak(UslParams(1.0, 0.0)) == 1.0
        assert uslkit.usl_peak(UslParams(1.5, 0.001)) == 1.0
        # Large coherency pushes sqrt below 1; clamp to the domain edge.
        assert uslkit.usl_peak(UslParams(0.9, 10.0)) == 1.0


class TestUslFit:
    def make_data(self, p, ns):
        return [(n, uslkit.usl_speedup(n, p)) for n in ns]

    def test_noiseless_round_trip(self):
        truth = UslParams(0.05, 0.001)
        fit = uslkit.usl_fit(self.make_data(truth, range(1, 65)))
        assert fit.params.contention == pytest.approx(truth.contention, abs=1e-6)
        assert fit.params.coherency == pytest.approx(truth.coherency, abs=1e-6)
        assert fit.residual <= 1e-6

    def test_superlinear_data_recovers_negative_contention(self):
        truth = UslParams(-0.05, 1e-4)
        data = self.make_data(truth, range(1, 17))
        assert any(s > n for n, s in data)  # the data really are superlinear
        fit = uslkit.usl_fit(data)
        assert fit.params.contention < 0
        assert fit.params.contention == pytest.approx(-0.05, abs=1e-4)
        assert fit.residual <= 1e-6

    def test_noisy_fit_stays_close(self):
        rng = random.Random(29)
        truth = UslParams(0.08, 5e-4)
        data = [(n, s * (1 + rng.gauss(0, 0.01))) for n, s in self.make_data(truth, range(1, 33))]
        fit = uslkit.usl_fit(data)
        assert fit.params.contention == pytest.approx(0.08, abs=0.05)
        assert fit.params.coherency == pytest.approx(5e-4, abs=5e-4)

    def test_deterministic(self):
        data = self.make_data(UslParams(0.2, 0.002), [1, 2, 4, 8, 16, 32])
        f1, f2 = uslkit.usl_fit(data), uslkit.usl_fit(data)
        assert f1 == f2

    def test_input_validation(self):
        with pytest.raises(DomainError):
            uslkit.usl_fit([])
        with pytest.raises(DomainError):
            uslkit.usl_fit([(0.5, 1.0), (2, 1.5), (3, 2.0)])
        with pytest.raises(DomainError):
            uslkit.usl_fit([(1, 1.0), (2, 0.0), (3, 2.0)])
        with pytest.raises(DomainError):
            uslkit.usl_fit([(1, 1.0), (1, 1.1), (2, 1.5)])
        with pytest.raises(DomainError, match="finite"):
            uslkit.usl_fit([(1, 1.0), (2, math.nan), (3, 2.0)])
        with pytest.raises(DomainError, match="N\\*\\(N-1\\)"):
            uslkit.usl_fit([(1, 1.0), (2, 1.5), (1e200, 2.0)])
        with pytest.raises(DomainError, match="overflows at every start"):
            uslkit.usl_fit([(1, 1e200), (2, 1e200), (3, 1e200)])


class TestSerialModel:
    def test_time_hand_value(self):
        m = SerialModel(sigma=1.0, pi_par=10.0, kappa=0.5)
        assert uslkit.serial_time(4, m) == pytest.approx(1.0 + 2.5 + 2.0, rel=1e-15)

    def test_time_rejects_small_n(self):
        with pytest.raises(DomainError):
            uslkit.serial_time(0.0, SerialModel(1.0))
        with pytest.raises(DomainError):
            uslkit.effective_exponent(0.5, SerialModel(1.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            SerialModel(0.0)
        with pytest.raises(DomainError):
            SerialModel(1.0, -1.0)
        with pytest.raises(DomainError):
            SerialModel(1.0, 0.0, -1.0)

    def test_effective_exponent_limits(self):
        m = SerialModel(sigma=1.0, pi_par=1.0)
        # Parallel-dominated at small N, serial-dominated at large N.
        assert uslkit.effective_exponent(1, m) == pytest.approx(0.5)
        assert uslkit.effective_exponent(1e9, m) == pytest.approx(0.0, abs=1e-8)

    def test_effective_exponent_monotone_decreasing(self):
        m = SerialModel(sigma=2.0, pi_par=100.0)
        values = [uslkit.effective_exponent(n, m) for n in (1, 10, 100, 1000)]
        assert values == sorted(values, reverse=True)
        assert all(0 <= v < 1 for v in values)

    def test_effective_exponent_predicts_time_ratio(self):
        # T(gamma N)/T(N) ~= gamma**(-delta_eff) once x is small.
        m = SerialModel(sigma=1.0, pi_par=1e4)
        n, gamma = 1e6, 2.0
        ratio = uslkit.serial_time(gamma * n, m) / uslkit.serial_time(n, m)
        predicted = gamma ** -uslkit.effective_exponent(n, m)
        assert ratio == pytest.approx(predicted, abs=0.01)

    def test_effective_exponent_needs_zero_kappa(self):
        with pytest.raises(UnsupportedConfigError):
            uslkit.effective_exponent(10, SerialModel(1.0, 1.0, 0.1))


class TestQueue:
    def test_hand_value(self):
        assert uslkit.response_time(QueueParams(0.5, 1.0)) == pytest.approx(2.0, rel=1e-15)

    def test_stability_gate(self):
        with pytest.raises(QueueInstabilityError):
            uslkit.response_time(QueueParams(1.0, 1.0))
        with pytest.raises(QueueInstabilityError):
            uslkit.response_time(QueueParams(2.0, 1.0))

    def test_divergence_near_saturation(self):
        times = [uslkit.response_time(QueueParams(lam, 1.0)) for lam in (0.5, 0.9, 0.99, 0.999)]
        assert times == sorted(times)
        assert times[-1] > 100

    def test_rate_validation(self):
        with pytest.raises(DomainError):
            QueueParams(-0.1, 1.0)
        with pytest.raises(DomainError):
            QueueParams(0.1, -1.0)


def scipy_reference_fit(data):
    """The scipy fit usl_fit replaced: least_squares from (0.1, 0.001), then the 3x3 grid.

    Returns (contention, coherency) and the sum of squared errors.
    """
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    N = np.array([float(n) for n, _ in data])
    S = np.array([float(s) for _, s in data])

    def residuals(theta):
        den = 1.0 + max(theta[0], -1.0) * (N - 1.0) + max(theta[1], 0.0) * N * (N - 1.0)
        den = np.where(den > 1e-12, den, 1e-12)
        return N / den - S

    def solve(x0):
        return least_squares(residuals, x0=x0, bounds=([-1.0, 0.0], [np.inf, np.inf]))

    best = solve((0.1, 0.001))
    if math.sqrt(2.0 * best.cost) / max(1.0, float(np.linalg.norm(S))) > 1e-6:
        for x0 in [(a0, b0) for a0 in (-0.5, 0.05, 0.5) for b0 in (1e-6, 1e-3, 0.1)]:
            candidate = solve(x0)
            if candidate.cost < best.cost:
                best = candidate
    return tuple(best.x), 2.0 * best.cost


def reference_corpus():
    """(name, data, true parameters or None): exact, 1%-noisy, superlinear and off-model curves."""
    rng = random.Random(2016)
    out = []
    for k in range(24):
        superlinear = k % 4 == 3
        truth = (rng.uniform(-0.012, -0.004) if superlinear else rng.uniform(0.005, 0.1), rng.uniform(1e-5, 1e-3))
        ns = range(1, 65) if k % 2 else [1, 2, 4, 8, 16, 32, 48, 64]
        exact = [(n, float(f"{uslkit.usl_speedup(n, UslParams(*truth)):.12g}")) for n in ns]
        out.append((f"exact-{k}", exact, truth))
        out.append((f"noisy-{k}", [(n, s * (1 + 0.01 * rng.gauss(0, 1))) for n, s in exact], None))
    ns = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    out += [
        ("sqrt", [(n, math.sqrt(n)) for n in ns], None),
        ("log", [(n, 1 + math.log(n)) for n in ns], None),
        ("amdahl", [(n, n / (1 + 0.2 * (n - 1))) for n in ns], None),
        ("flat", [(n, 1.0) for n in ns], None),
        ("quadratic", [(n, n * (1 + 0.01 * n)) for n in ns], None),
        ("retrograde", [(n, 8 * n / (n + 10) * math.exp(-n / 40)) for n in ns], None),
        ("scatter", [(n, rng.uniform(0.5, 3.0)) for n in ns], None),
    ]
    return out


class TestUslFitAgainstScipy:
    @pytest.mark.parametrize(
        "data, truth", [case[1:] for case in reference_corpus()], ids=[case[0] for case in reference_corpus()]
    )
    def test_residual_no_worse_than_scipy(self, data, truth):
        (ref_a, ref_b), ref_residual = scipy_reference_fit(data)
        fit = uslkit.usl_fit(data)
        # Evaluating a sum of squared errors rounds each error by a few ulps
        # of the speedup, so residuals cannot be told apart below
        # 8 eps |S| sqrt(residual); that floor matters only for exact curves,
        # whose residual is the 12-digit rounding of their values.
        S = np.array([s for _, s in data])
        floor = 8 * np.finfo(float).eps * float(np.linalg.norm(S)) * math.sqrt(ref_residual)
        assert fit.residual <= ref_residual * (1 + 1e-9) + floor
        if truth is not None:
            for got, ref, true in zip((fit.params.contention, fit.params.coherency), (ref_a, ref_b), truth):
                assert got == pytest.approx(true, rel=1e-6)
                assert got == pytest.approx(ref, rel=1e-6)

    def test_cli_fit_does_not_import_scipy(self, tmp_path):
        path = tmp_path / "speedups.csv"
        path.write_text("N,value\n1,1\n2,1.9\n4,3.4\n8,5.5\n16,7.1\n", encoding="utf-8")
        src = Path(uslkit.__file__).resolve().parents[1]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from commscale.cli import main; "
            "code = main(['usl-fit', '--input', sys.argv[2]]); "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy')); "
            "sys.exit(code)"
        )
        proc = subprocess.run([sys.executable, "-I", "-c", code, str(src), str(path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["residual"] >= 0
