import functools
import math
import re
import struct
import subprocess
import sys
import warnings
from array import array
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import SRC, _child_env, _run_isolated

from commscale import _philox
from commscale import ensemble as ens
from commscale.errors import CsvFormatError, DomainError, UnsupportedConfigError
from commscale.ensemble import EnsembleSpec, PowerLawFit
from commscale.meanfield import ScalingClass, ScalingParams
from commscale.tabular import format_pairs, parse_pairs

D2H1 = ScalingParams(D=2, H=1.0)


def spec(cls=ScalingClass.INTERACTION, **kw):
    return EnsembleSpec(scaling_class=cls, params=D2H1, **kw)


class TestSpecValidation:
    def test_sample_count(self):
        with pytest.raises(DomainError):
            spec(n_samples=1)
        with pytest.raises(DomainError):
            spec(n_samples=10.5)
        assert spec(n_samples=np.int64(10)) == spec(n_samples=10)
        # The cap is only constructed: generating it would take gigabytes.
        assert spec(n_samples=10**7).n_samples == 10**7
        with pytest.raises(DomainError, match=r"^n_samples must be at most 10\*\*7, got 10000001$"):
            spec(n_samples=10**7 + 1)

    @pytest.mark.parametrize("name", ["n_samples", "seed"])
    def test_a_bool_is_not_an_integer(self, name):
        # int(True) is 1; PowerLawFit refuses n=True alike.
        least = {"n_samples": 2, "seed": 0}[name]
        with pytest.raises(DomainError, match=f"^{name} must be an integer >= {least}, got True$"):
            spec(**{name: True})

    def test_population_bounds(self):
        with pytest.raises(DomainError):
            spec(N_min=0.5)
        with pytest.raises(DomainError):
            spec(N_min=100.0, N_max=100.0)

    def test_noise_and_fraction(self):
        with pytest.raises(DomainError):
            spec(noise_sigma=-0.1)
        with pytest.raises(DomainError):
            spec(inactive_fraction=1.0)
        with pytest.raises(DomainError):
            spec(inactive_fraction=-0.1)

    def test_seed_is_uint64(self):
        with pytest.raises(DomainError):
            spec(seed=-1)
        with pytest.raises(DomainError):
            spec(seed=2**64)
        with pytest.raises(DomainError):
            spec(seed=3.5)
        spec(seed=2**64 - 1)
        top = 2**64 - 1
        assert ens.generate(spec(n_samples=5, seed=np.uint64(top))) == ens.generate(spec(n_samples=5, seed=top))

    def test_sample_positivity(self):
        # fit_power_law checks its columns: every cell finite and positive, equal lengths.
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            for ns, ys in (([10.0, bad, 1000.0], [1.0, 2.0, 3.0]), ([10.0, 100.0, 1000.0], [1.0, 2.0, bad])):
                with pytest.raises(DomainError, match="finite and positive"):
                    ens.fit_power_law(ns, ys)
        with pytest.raises(DomainError, match="length"):
            ens.fit_power_law([10.0, 100.0, 1000.0], [1.0, 2.0])

    def test_fit_diagnostics_bounds(self):
        with pytest.raises(DomainError):
            PowerLawFit(1.0, 0.0, 1.5, 0.0, 10)
        with pytest.raises(DomainError):
            PowerLawFit(1.0, 0.0, 0.5, -0.1, 10)

    @pytest.mark.parametrize(
        "fields, field",
        [
            ((math.nan, 0.0, 1.0, 0.0, 3), "beta"),
            ((math.inf, 0.0, 1.0, 0.0, 3), "beta"),
            ((1.0, -math.inf, 1.0, 0.0, 3), "log_intercept"),
            ((1.0, math.nan, 1.0, 0.0, 3), "log_intercept"),
            ((1.0, 0.0, math.nan, 0.0, 3), "r_squared"),
            ((1.0, 0.0, 1.0, math.nan, 3), "stderr_beta"),
            ((1.0, 0.0, 1.0, math.inf, 3), "stderr_beta"),
            ((1.0, 0.0, 1.0, 0.0, -3), "n"),
            ((1.0, 0.0, 1.0, math.nan, -3), "stderr_beta"),
            ((math.nan, math.inf, 1.0, 0.0, True), "beta"),
            ((1.0, 0.0, 1.0, 0.0, True), "n"),
            ((1.0, 0.0, 1.0, 0.0, 2.7), "n"),
            ((1.0, 0.0, 1.0, 0.0, "3"), "n"),
            ((1.0, 0.0, 1.0, 0.0, None), "n"),
        ],
        ids=repr,
    )
    def test_non_finite_or_non_integer_fields_rejected(self, fields, field):
        with pytest.raises(DomainError, match=f"^{field} must"):
            PowerLawFit(*fields)

    def test_integer_like_count_is_kept_as_int(self):
        fit = PowerLawFit(1.0, 0.0, 1.0, 0.0, np.int64(7))
        assert fit.n == 7 and type(fit.n) is int
        # Every count follows the rule of the dimension D: an integral float is its int.
        fit = PowerLawFit(1.0, 0.0, 1.0, 0.0, 3.0)
        assert fit.n == 3 and type(fit.n) is int
        assert PowerLawFit(1.0, 0.0, 0.0, 0.0, 0).n == 0


class TestModelValue:
    @pytest.mark.parametrize(
        "cls,expected",
        [
            (ScalingClass.INFRASTRUCTURE_VOLUME, 100 ** (5 / 6)),
            (ScalingClass.LINEAR_CONSUMPTION, 100.0),
            (ScalingClass.INTERACTION, 100 ** (7 / 6)),
            (ScalingClass.SCARCE_AGENT, 100 ** (1 / 6)),
            (ScalingClass.SCARCE_DEPENDENCY, 100 ** (4 / 3)),
            (ScalingClass.RECURSIVE_DEPENDENCY, 100 ** (13 / 12)),
            (ScalingClass.VIRTUAL_INTERACTION, 100 ** (1 / 2)),
        ],
    )
    def test_pure_powers_with_everyone_active(self, cls, expected):
        assert ens.model_value(cls, 100.0, 0.0, D2H1) == pytest.approx(expected, rel=1e-12)

    def test_split_population_value(self):
        v = ens.model_value(ScalingClass.INTERACTION, 200.0, 0.5, D2H1)
        assert v == pytest.approx(100 ** (7 / 6) * 2 ** (5 / 6), rel=1e-12)

    def test_rejects_nonpositive_population(self):
        with pytest.raises(DomainError):
            ens.model_value(ScalingClass.INTERACTION, 0.0, 0.0, D2H1)

    def test_recursive_requires_unit_trajectory_dimension(self):
        with pytest.raises(UnsupportedConfigError):
            ens.model_value(ScalingClass.RECURSIVE_DEPENDENCY, 100.0, 0.0, ScalingParams(D=2, H=0.5))

    def test_accepts_class_by_string_value(self):
        assert ens.model_value("linear_consumption", 7.0, 0.0, D2H1) == 7.0

    def test_unknown_class_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown scaling class"):
            ens.model_value("sublinear_magic", 7.0, 0.0, D2H1)

    @pytest.mark.parametrize(
        "N, fraction",
        [(math.inf, 0.0), (math.inf, 0.3), (math.nan, 0.0), (-1.0, 0.0), (100.0, math.nan), (100.0, -0.5),
         (100.0, 1.5), (100.0, math.inf)],
        ids=repr,
    )
    def test_rejects_non_finite_population_and_fraction_outside_unit_interval(self, N, fraction):
        for cls in ScalingClass:
            with pytest.raises(DomainError):
                ens.model_value(cls, N, fraction, D2H1)

    def test_everyone_inactive_is_allowed_where_the_class_is_defined(self):
        assert ens.model_value(ScalingClass.LINEAR_CONSUMPTION, 7.0, 1.0, D2H1) == 7.0
        with pytest.raises(DomainError, match="^equilibrium volume requires"):
            ens.model_value(ScalingClass.INFRASTRUCTURE_VOLUME, 7.0, 1.0, D2H1)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^result is out of the finite float range$"):
            ens.model_value("infrastructure_volume", 1e200, 0.0, D2H1)


class TestGenerate:
    def test_deterministic(self):
        s = spec(n_samples=50, seed=9)
        assert ens.generate(s) == ens.generate(s)

    def test_seed_changes_the_draw(self):
        assert ens.generate(spec(n_samples=10, seed=1)) != ens.generate(spec(n_samples=10, seed=2))

    def test_sample_count_prefix_stable(self):
        # Growing an ensemble never changes the samples already drawn.
        short = ens.generate(spec(n_samples=10, seed=4))
        ns, ys = ens.generate(spec(n_samples=60, seed=4))
        assert (ns[:10], ys[:10]) == short

    def test_populations_inside_bounds(self):
        for n, y in zip(*ens.generate(spec(n_samples=200, N_min=50.0, N_max=5000.0, seed=3))):
            assert 50.0 <= n <= 5000.0
            assert y > 0

    @pytest.mark.parametrize("cls", list(ScalingClass), ids=lambda c: c.value)
    def test_largest_inactive_fraction_keeps_agents_connected(self, cls):
        # generate never hands a kernel n_i == 0: below 1, the rounded f * n stays below n.
        s = spec(cls, n_samples=300, N_min=1.0, N_max=1e12, noise_sigma=0.0, inactive_fraction=1 - 2**-53, seed=8)
        ns, ys = ens.generate(s)
        assert all(n - s.inactive_fraction * n > 0 for n in ns)
        assert all(0 < y < math.inf for y in ys)
        assert (ns, ys) == reference_generate(s)

    @settings(max_examples=300, deadline=None)
    @given(n=st.floats(1.0, 1.7e308), f=st.floats(0.0, 1 - 2**-53))
    @example(n=1.0, f=1 - 2**-53)
    @example(n=2.0**1000, f=1 - 2**-53)
    @example(n=3.0, f=1 - 2**-53)
    @example(n=1.7976931348623157e308, f=1 - 2**-53)
    def test_inactive_share_below_one_never_rounds_up_to_n(self, n, f):
        assert f * n < n

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(N_min=1e200, N_max=1e300), ": the class law or the noise overflows$"),
            (dict(N_min=1e3, N_max=1e4, noise_sigma=1e300), ": the class law or the noise overflows$"),
            (dict(N_min=1e140, N_max=1e150, noise_sigma=250.0), r", got N=7\.156395915472638e\+149, Y=inf$"),
        ],
        ids=["class-law", "noise-factor", "law-times-noise"],
    )
    def test_overflow_is_a_domain_error(self, kw, message):
        with pytest.raises(DomainError, match="^samples must be finite and positive" + message):
            ens.generate(spec(n_samples=20, seed=3, **kw))

    def test_zero_noise_lies_on_the_model(self):
        for n, y in zip(*ens.generate(spec(n_samples=20, noise_sigma=0.0, seed=5))):
            assert y == pytest.approx(ens.model_value(ScalingClass.INTERACTION, n, 0.0, D2H1), rel=1e-12)


B = ens._BLOCK


def run_ensemble(s):
    """(exit code, stdout, stderr) of the ensemble command for spec s, in-process."""
    return _run_isolated(["ensemble", "--class", s.scaling_class.value, "--D", str(s.params.D),
                          "--H", repr(s.params.H), "--n", str(s.n_samples), "--nmin", repr(s.N_min),
                          "--nmax", repr(s.N_max), "--noise", repr(s.noise_sigma),
                          "--inactive", repr(s.inactive_fraction), "--seed", str(s.seed)])


class TestBlocks:
    """generate and the ensemble command draw _BLOCK samples at a time; the result is that of one whole draw."""

    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_csv_bytes_equal_one_whole_draw(self, monkeypatch, n, seed):
        s = spec(n_samples=n, seed=seed, inactive_fraction=0.25)
        code, text, _ = run_ensemble(s)
        blocks = ens.samples_to_csv(*ens.generate(s))
        monkeypatch.setattr(ens, "_BLOCK", n)
        same = text == blocks == ens.samples_to_csv(*ens.generate(s))  # no diff of two 400 kB texts on failure
        assert code == 0 and text.count("\n") == n + 1 and same

    @pytest.mark.parametrize("seed, a, b, c", [(0, 0, B, B + 500), (7, 0, 1000, 2000), (2**64 - 1, 5, B - 3, B + 400)])
    def test_draws_of_split_ranges_join_to_the_whole_range(self, seed, a, b, c):
        # Samples that the fast path leaves to the re-keyed scalar generator fall in the second range too.
        assert _philox.normal_fast_path(_philox.first_words(seed, b, c)[1])[1].any()
        first, second = _philox.first_draws(seed, a, b), _philox.first_draws(seed, b, c)
        joined = [np.concatenate(pair).tolist() for pair in zip(first, second)]
        assert joined == [column.tolist() for column in _philox.first_draws(seed, a, c)]

    def test_an_overflow_in_a_late_block_is_named_as_by_one_whole_draw(self, monkeypatch):
        # Seed 3 draws no overflowing sample before the third block.
        s = spec(n_samples=3 * B, N_min=1e140, N_max=1e150, noise_sigma=80.0, seed=3)
        message = "samples must be finite and positive, got N=1.2923473909680912e+149, Y=inf"
        for start in (0, B):
            ens.generate(s, _start=start)
        assert run_ensemble(s) == (1, "", f"error: {message}\n")
        with pytest.raises(DomainError, match=re.escape(message)):
            ens.generate(s)
        monkeypatch.setattr(ens, "_BLOCK", 3 * B)
        with pytest.raises(DomainError, match=re.escape(message)):
            ens.generate(s)


@functools.lru_cache(maxsize=1 << 16)
def reference_draws(seed, i):
    """random() and then standard_normal() from a fresh Philox generator keyed (seed, i)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
    return rng.random(), rng.standard_normal()


def reference_generate(spec):
    """The per-sample construction generate() must match: a fresh Philox
    generator keyed (seed, i) and a model_value call for every sample."""
    ln_lo = math.log(spec.N_min)
    ln_hi = math.log(spec.N_max)
    ns, ys = [], []
    for i in range(spec.n_samples):
        u, z = reference_draws(spec.seed, i)
        n = math.exp(ln_lo + u * (ln_hi - ln_lo))
        y = ens.model_value(spec.scaling_class, n, spec.inactive_fraction, spec.params)
        ns.append(n)
        ys.append(y * math.exp(spec.noise_sigma * z))
    return ns, ys


@st.composite
def ensemble_specs(draw):
    D = draw(st.integers(1, 4))
    H = D * draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) if draw(st.booleans()) else 1.0
    params = ScalingParams(D=D, H=H)
    classes = [c for c in ScalingClass if c is not ScalingClass.RECURSIVE_DEPENDENCY or H == 1.0]
    N_min = draw(st.sampled_from([1.0, 1e3, 12345.6]))
    return EnsembleSpec(
        scaling_class=draw(st.sampled_from(classes)),
        params=params,
        n_samples=draw(st.integers(2, 400)),
        N_min=N_min,
        N_max=N_min * draw(st.sampled_from([1.5, 1e4])),
        noise_sigma=draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0))),
        inactive_fraction=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99))),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestGenerateMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(ensemble_specs())
    @example(spec(n_samples=50, seed=0))
    @example(spec(n_samples=50, seed=2**64 - 1))
    @example(EnsembleSpec(ScalingClass.RECURSIVE_DEPENDENCY, ScalingParams(D=3, H=1.0), n_samples=400, seed=7))
    def test_equal_draws(self, s):
        assert ens.generate(s) == reference_generate(s)

    def test_twenty_thousand_samples(self):
        # At seed 31, about 300 standard_normal draws take the ziggurat's
        # rejection path and read more than one 64-bit word; a few of them
        # run past the first four-word Philox block.
        s = spec(n_samples=20_000, seed=31, inactive_fraction=0.25)
        assert ens.generate(s) == reference_generate(s)


class TestColumnPass:
    """generate computes a block as float64 columns; a block that fails anywhere runs again one sample at a time."""

    @pytest.mark.parametrize("cls", list(ScalingClass), ids=lambda c: c.value)
    def test_blocks_equal_the_reference(self, cls):
        whole = reference_generate(spec(cls, n_samples=2 * B + 1, seed=12, inactive_fraction=0.25))
        for n in (B - 1, B + 1, 2 * B + 1):
            assert ens.generate(spec(cls, n_samples=n, seed=12, inactive_fraction=0.25)) == (whole[0][:n], whole[1][:n])

    @pytest.mark.parametrize(
        "cls, kw, message",
        [
            # At H = 0, V = g_Y * N_I**2 / N underflows to 0 where N_I is 2**-53 of a small N: some samples fail.
            (ScalingClass.INTERACTION, dict(params=ScalingParams(D=2, H=0.0, g_Y=1e-300), N_min=1.0, N_max=1e3,
                                            inactive_fraction=1 - 2**-53),
             "community volume must be finite and positive, got 0.0"),
            # At H = 0, V = g_Y * N overflows for N above 1.8e8 alone, and V**(H/D) would read inf as 1.
            (ScalingClass.INTERACTION, dict(params=ScalingParams(D=2, H=0.0, g_Y=1e300), N_min=1.0, N_max=1e10),
             "community volume must be finite and positive, got inf"),
            # g_Y * v_Y underflows to a zero coupling, and L**2 to a zero infrastructure volume.
            (ScalingClass.INFRASTRUCTURE_VOLUME, dict(params=ScalingParams(D=2, H=1.0, g_Y=1e-300, v_Y=1e-300)),
             "community volume must be finite and positive, got 0.0"),
            (ScalingClass.SCARCE_AGENT, dict(params=ScalingParams(D=3, H=1.0, L=1e-300)),
             "infrastructure volume is zero (no connected agents)"),
        ],
        ids=["volume-underflow", "volume-overflow", "zero-coupling", "zero-volume"],
    )
    def test_errors_name_what_the_per_sample_loop_names(self, cls, kw, message):
        # TestGenerate::test_overflow_is_a_domain_error pins the three overflow messages.
        kw = dict(scaling_class=cls, params=D2H1, n_samples=200, seed=3) | kw
        with pytest.raises(DomainError) as info:
            ens.generate(EnsembleSpec(**kw))
        assert str(info.value) == message

    def test_the_first_bad_sample_of_a_block_is_named(self):
        # Seed 2, sigma 300: sample 83's noise underflows to Y = 0.0, and sample 96's exp(sigma * z) overflows.
        s = spec(n_samples=300, seed=2, noise_sigma=300.0)
        assert 300.0 * reference_draws(2, 83)[1] < -745 < 710 < 300.0 * reference_draws(2, 96)[1]
        with pytest.raises(DomainError) as info:
            ens.generate(s)
        assert str(info.value) == "samples must be finite and positive, got N=645636.4756972234, Y=0.0"

    @pytest.mark.parametrize("flags, message", [
        (["--class", "interaction", "--nmin", "1e200", "--nmax", "1e300"],
         "samples must be finite and positive: the class law or the noise overflows"),
        # No exp overflows, so the column pass reaches numpy's multiply, which overflows to inf.
        (["--class", "linear_consumption", "--nmin", "1e300", "--nmax", "1e308", "--noise", "1"],
         "samples must be finite and positive, got N=7.651656887468941e+307, Y=inf"),
    ], ids=["class-law", "law-times-noise"])
    def test_an_overflow_warns_nothing(self, flags, message):
        # Every warning an error: no numpy RuntimeWarning of the column pass escapes its errstate.
        argv = [sys.executable, "-W", "error", "-m", "commscale", "ensemble", "--D", "2", "--H", "1", "--seed", "3"]
        proc = subprocess.run([*argv, *flags], capture_output=True, text=True, env=_child_env(PYTHONPATH=str(SRC)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def numpy_normal_from_word(word):
    """numpy's standard_normal() when the next buffered Philox word is word, and whether it read only that word."""
    bits = np.random.Philox(key=0)
    state = bits.state
    state["buffer"] = np.array([word, 0, 0, 0], dtype=np.uint64)
    state["buffer_pos"] = 0
    bits.state = state
    z = np.random.Generator(bits).standard_normal()
    return z, bits.state["buffer_pos"] == 1 and bits.state["state"]["counter"][0] == 0


def numpy_ki(layer):
    """The smallest rabs at which numpy's ziggurat leaves its fast path in layer (>= 2), by bisection."""
    lo, hi = 0, 2**52
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if numpy_normal_from_word((mid << 9) | layer)[1]:
            lo = mid
        else:
            hi = mid
    return hi


class TestVectorisedDraws:
    @pytest.mark.parametrize("seed", [0, 31, 2**63, 2**64 - 1])
    def test_philox_words_match_numpy(self, seed):
        w0, w1 = _philox.first_words(seed, 0, 300)
        for i in (0, 1, 2, 157, 299):
            raw = np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).random_raw(2)
            assert (int(w0[i]), int(w1[i])) == (int(raw[0]), int(raw[1]))

    def test_fast_path_settles_only_what_numpy_settles_the_same_way(self):
        # Per layer: rabs at 0 and 1, on both sides of numpy's own threshold
        # ki, within the 2 kept below it, and at the top; both signs; the top
        # three bits of the word set or clear.
        words, expect_slow, expect_fast = [], [], []
        for layer in range(256):
            ki = numpy_ki(layer) if layer >= 2 else None
            for rabs in {0, 1, 2**52 - 1} | ({ki - 4, ki - 3, ki - 2, ki - 1, ki, ki + 1} if ki else set()):
                for sign in (0, 1):
                    for top in (0, 0b101 << 61):
                        words.append(top | (rabs << 9) | (sign << 8) | layer)
                        # Layers 0 (the tail) and 1 and every rabs within 2 of ki go to the fallback.
                        expect_slow.append(layer < 2 or rabs >= ki - 2)
                        expect_fast.append(layer >= 2 and rabs < ki - 3)
        z, slow = _philox.normal_fast_path(np.array(words, dtype=np.uint64))
        assert not np.any(np.array(expect_slow) & ~slow)
        assert not np.any(np.array(expect_fast) & slow)
        for word, zi, si in zip(words, z.tolist(), slow.tolist()):
            if not si:
                want, fast = numpy_normal_from_word(word)
                assert fast
                assert math.copysign(1.0, zi) == math.copysign(1.0, want) and zi == want

    def test_fallback_samples_are_exact(self):
        # 2,000 samples at seed 7 send layer-0 and layer-1 samples, and others
        # that fail the fast path, through the re-keyed scalar generator.
        s = spec(n_samples=2000, seed=7, inactive_fraction=0.1)
        _, w1 = _philox.first_words(s.seed, 0, s.n_samples)
        _, slow = _philox.normal_fast_path(w1)
        layers = set((w1[slow] & np.uint64(0xFF)).tolist())
        assert {0, 1} <= layers and len(layers) > 2
        assert ens.generate(s) == reference_generate(s)

    def test_no_numpy_warnings(self):
        # numpy warns on uint64 scalar overflow; the Philox rounds must wrap without it.
        _philox._tables.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens.generate(spec(n_samples=20_000, seed=2**64 - 1))


class TestFitPowerLaw:
    def test_exact_line_recovered(self):
        ns = [10, 100, 1000, 12345]
        fit = ens.fit_power_law(ns, [4.0 * n**2.3 for n in ns])
        assert fit.beta == pytest.approx(2.3, rel=1e-12)
        assert fit.log_intercept == pytest.approx(math.log(4.0), rel=1e-12)
        assert fit.r_squared == 1.0
        assert fit.stderr_beta == pytest.approx(0.0, abs=1e-12)
        assert fit.n == 4

    def test_two_points_define_a_slope(self):
        fit = ens.fit_power_law([10, 1000], [100, 10000])
        assert fit.beta == pytest.approx(1.0, rel=1e-12)
        assert fit.stderr_beta == 0.0

    def test_fields_are_builtin_numbers(self):
        # A numpy scalar would show in the repr and make unpickling need numpy.
        fit = ens.fit_power_law([10, 100, 1000], [3.0, 40.0, 700.0])
        assert all(type(value) in (float, int) for value in fit._values), repr(fit)

    def test_non_numbers_are_domain_errors(self):
        with pytest.raises(DomainError, match="finite and positive numbers"):
            ens.fit_power_law(["a", "b"], [1.0, 2.0])

    def test_float_array_columns_fit_as_lists(self):
        ns, ys = [10.0, 100.0, 1000.0], [3.0, 40.0, 700.0]
        assert ens.fit_power_law(array("d", ns), array("d", ys)) == ens.fit_power_law(ns, ys)

    @pytest.mark.parametrize("cell", [0.0, -0.0, -2.0, math.nan, math.inf], ids=["zero", "minus-zero", "negative",
                                                                                 "nan", "inf"])
    def test_float_array_columns_refuse_what_list_columns_refuse(self, cell):
        for ns, ys in ([10.0, cell], [1.0, 2.0]), ([10.0, 20.0], [cell, 2.0]):
            with pytest.raises(DomainError, match="^samples must be finite and positive numbers$"):
                ens.fit_power_law(array("d", ns), array("d", ys))
        with pytest.raises(DomainError, match="^N and Y columns differ in length: 2 and 3$"):
            ens.fit_power_law(array("d", [10.0, 20.0]), array("d", [1.0, 2.0, 3.0]))

    def test_iterator_columns_fit_as_lists(self):
        ns, ys = [10, 100, 1000], [3.0, 40.0, 700.0]
        assert ens.fit_power_law(iter(ns), (y for y in ys)) == ens.fit_power_law(ns, ys)

    @pytest.mark.parametrize("call", [ens.fit_power_law, ens.samples_to_csv], ids=["fit", "csv"])
    @pytest.mark.parametrize("ns, ys", [(5, 6), (None, [1.0]), ([10.0, 100.0], 7)], ids=["numbers", "none", "one"])
    def test_columns_that_are_not_iterables_are_domain_errors(self, call, ns, ys):
        with pytest.raises(DomainError, match="^samples must be finite and positive numbers$"):
            call(ns, ys)

    @pytest.mark.parametrize("call", [ens.fit_power_law, ens.samples_to_csv], ids=["fit", "csv"])
    @pytest.mark.parametrize("cell", ["20", b"20", bytearray(b"20")], ids=["str", "bytes", "bytearray"])
    def test_text_cells_are_refused_though_float_parses_them(self, call, cell):
        with pytest.raises(DomainError, match="^samples must be finite and positive numbers$"):
            call([10.0, cell], [1.0, 2.0])

    @pytest.mark.parametrize("ns, ys", [([True, 2, 4], [1, 2, 4]), ([10, 2, 4], [1, np.True_, 4])],
                             ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize("call", [ens.fit_power_law, ens.samples_to_csv], ids=["fit", "csv"])
    def test_bool_cells_are_refused_though_float_takes_them(self, call, ns, ys):
        # array("d") reads a bool as 0.0 or 1.0, but a bool is no number anywhere in the package.
        with pytest.raises(DomainError, match="^samples must be finite and positive numbers$"):
            call(ns, ys)

    def test_int_too_large_for_a_float_is_a_domain_error(self):
        # math.log would take it, but no float cell can hold it, so neither column function does.
        with pytest.raises(DomainError, match="finite and positive numbers"):
            ens.fit_power_law([10, 10**400], [1.0, 2.0])

    @pytest.mark.parametrize("cell", [Fraction(1, 10**400), Decimal("sNaN")], ids=["fraction-float-is-0", "snan"])
    def test_a_cell_is_judged_by_the_float_it_becomes(self, cell):
        # The Fraction is > 0, but its float is 0.0, whose log is no number; a signaling nan has no float.
        with pytest.raises(DomainError, match="^samples must be finite and positive numbers$"):
            ens.fit_power_law([cell, 1], [1.0, 2.0])

    def test_needs_two_distinct_populations(self):
        with pytest.raises(DomainError):
            ens.fit_power_law([10, 10], [1, 2])
        with pytest.raises(DomainError):
            ens.fit_power_law([], [])

    def test_noiseless_ensembles_recover_theory_for_every_class(self):
        from commscale.meanfield import predicted_exponent

        for D in (1, 2, 3):
            for H in (0.5, 1.0, min(2.0, float(D))):
                params = ScalingParams(D=D, H=H)
                for cls in ScalingClass:
                    if cls is ScalingClass.RECURSIVE_DEPENDENCY and H != 1.0:
                        continue
                    s = EnsembleSpec(cls, params, n_samples=40, noise_sigma=0.0, seed=11)
                    fit = ens.fit_power_law(*ens.generate(s))
                    assert fit.beta == pytest.approx(predicted_exponent(cls, params), abs=1e-9)
                    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_inactive_fraction_preserves_the_exponent(self):
        # A fixed inactive share shifts the intercept, never the slope.
        s = spec(n_samples=40, noise_sigma=0.0, inactive_fraction=0.3, seed=13)
        fit = ens.fit_power_law(*ens.generate(s))
        assert fit.beta == pytest.approx(7 / 6, abs=1e-12)


# Frozen regression values: seed 42, 500 samples, sigma 0.1, D=2, H=1.
GOLDEN_BETAS = {
    ScalingClass.INFRASTRUCTURE_VOLUME: 0.8319307012904311,
    ScalingClass.LINEAR_CONSUMPTION: 0.9985973679570976,
    ScalingClass.INTERACTION: 1.1652640346237646,
    ScalingClass.SCARCE_AGENT: 0.16526403462376454,
    ScalingClass.SCARCE_DEPENDENCY: 1.3319307012904311,
    ScalingClass.RECURSIVE_DEPENDENCY: 1.0819307012904311,
    ScalingClass.VIRTUAL_INTERACTION: 0.4985973679570978,
}


class TestGoldenEnsembles:
    @pytest.mark.parametrize("cls", sorted(GOLDEN_BETAS, key=lambda c: c.value))
    def test_seed_42_betas(self, cls):
        fit = ens.fit_power_law(*ens.generate(spec(cls, seed=42)))
        assert fit.beta == pytest.approx(GOLDEN_BETAS[cls], abs=1e-9)


class TestCompare:
    def test_matching_fit_is_within_band(self):
        fit = PowerLawFit(7 / 6, 0.0, 1.0, 0.01, 100)
        report = ens.compare(fit, ScalingClass.INTERACTION, D2H1)
        assert report.theory_beta == pytest.approx(7 / 6)
        assert report.gap == pytest.approx(0.0, abs=1e-15)
        assert report.within_k_stderr

    def test_distant_fit_is_flagged(self):
        fit = PowerLawFit(1.5, 0.0, 1.0, 0.01, 100)
        report = ens.compare(fit, ScalingClass.INTERACTION, D2H1, k=2.0)
        assert report.gap == pytest.approx(1.5 - 7 / 6, rel=1e-12)
        assert not report.within_k_stderr

    def test_wider_band_can_absorb_the_gap(self):
        fit = PowerLawFit(1.17, 0.0, 1.0, 0.01, 100)
        assert not ens.compare(fit, ScalingClass.INTERACTION, D2H1, k=0.1).within_k_stderr
        assert ens.compare(fit, ScalingClass.INTERACTION, D2H1, k=2.0).within_k_stderr

    @pytest.mark.parametrize("k", [math.nan, -1.0, -1e-300, math.inf, -math.inf])
    def test_bad_k_is_a_domain_error(self, k):
        fit = PowerLawFit(7 / 6, 0.0, 1.0, 0.01, 100)
        with pytest.raises(DomainError, match=r"^k must be a real number in \[0, inf\), got "):
            ens.compare(fit, ScalingClass.INTERACTION, D2H1, k=k)

    @pytest.mark.parametrize("flag", ["no", 0, 1.0, None, np.True_], ids=repr)
    def test_the_flag_of_a_report_is_a_bool(self, flag):
        with pytest.raises(DomainError, match="^within_k_stderr must be a bool, got "):
            ens.CompareReport(1.0, 1.0, 0.0, 0.0, 2.0, flag)

    def test_zero_k_needs_an_exact_match(self):
        fit = PowerLawFit(7 / 6, 0.0, 1.0, 0.01, 100)
        assert ens.compare(fit, ScalingClass.INTERACTION, D2H1, k=0.0).within_k_stderr
        fit = PowerLawFit(1.17, 0.0, 1.0, 0.01, 100)
        assert not ens.compare(fit, ScalingClass.INTERACTION, D2H1, k=0).within_k_stderr

    def test_end_to_end_gap_is_small(self):
        fit = ens.fit_power_law(*ens.generate(spec(seed=42)))
        report = ens.compare(fit, ScalingClass.INTERACTION, D2H1)
        assert report.gap <= 0.02


class TestCsv:
    def test_render_parse_render_is_bytewise_stable(self):
        text = ens.samples_to_csv(*ens.generate(spec(n_samples=25, seed=6)))
        assert text.startswith("N,Y\n")
        assert ens.samples_to_csv(*ens.parse_csv(text)) == text

    def test_parse_rejects_nonpositive_rows(self):
        with pytest.raises(CsvFormatError) as err:
            ens.parse_csv("N,Y\n10,1\n-3,1\n")
        assert "row 3" in str(err.value)

    @pytest.mark.parametrize(
        "ns,ys",
        [([1.0, 2.0], [3.0]), ([1.0], [math.nan]), ([math.inf], [1.0]), ([0.0], [1.0]), ([2.0], [-1.0]),
         ([1.0], ["2"]), ([10**400], [1.0]), ([1e308, 1e308, math.inf], [1.0, 1.0, 1.0])],
        ids=["unequal-lengths", "nan", "inf", "zero", "negative", "text", "huge-int", "inf-where-the-sum-overflows"],
    )
    def test_render_refuses_what_parse_refuses(self, ns, ys):
        with pytest.raises(DomainError):
            ens.samples_to_csv(ns, ys)

    def test_render_takes_finite_cells_whose_sum_overflows(self):
        text = ens.samples_to_csv([1.7e308, 1.7e308], [1.0, 2.0])
        assert text == "N,Y\n1.7e+308,1\n1.7e+308,2\n" and ens.parse_csv(text) == ([1.7e308] * 2, [1.0, 2.0])

    def test_render_takes_iterators(self):
        ns, ys = ens.generate(spec(n_samples=25, seed=6))
        assert ens.samples_to_csv(iter(ns), (y for y in ys)) == ens.samples_to_csv(ns, ys)

    @pytest.mark.parametrize(
        "ns, row",
        [([Fraction(1, 3), 1], "0.333333333333,1"), ([Decimal("1E+2"), 2], "100,1")],
        ids=["fraction", "decimal"],
    )
    def test_render_writes_each_cell_as_its_float(self, ns, row):
        assert ens.samples_to_csv(ns, [1.0, 2.0]).split("\n")[1] == row

    def test_render_takes_int_cells_whose_sum_no_float_holds(self):
        assert ens.samples_to_csv([10**308, 10**308], [1, 2]) == "N,Y\n1e+308,1\n1e+308,2\n"

    def test_render_reads_a_bytes_column_as_its_ints(self):
        # Eight bytes, which array("d", ...) alone would read as one raw double.
        assert ens.samples_to_csv(bytes(range(1, 9)), range(1, 9)) == ens.samples_to_csv(range(1, 9), range(1, 9))

    def test_ingest_reads_files(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("N,Y\n10,100\n20,300\n", encoding="utf-8")
        assert ens.ingest_csv(path) == ([10.0, 20.0], [100.0, 300.0])


class TestTabular:
    def test_header_must_match_exactly(self):
        with pytest.raises(CsvFormatError) as err:
            parse_pairs("n,y\n1,2\n", "N,Y")
        assert "row 1" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(CsvFormatError):
            parse_pairs("", "N,Y")

    def test_column_count(self):
        with pytest.raises(CsvFormatError) as err:
            parse_pairs("N,Y\n1,2,3\n", "N,Y")
        assert "row 2" in str(err.value)

    def test_bad_number_names_row_and_column(self):
        with pytest.raises(CsvFormatError) as err:
            parse_pairs("N,Y\n1,2\n3,oops\n", "N,Y")
        assert "row 3, column 2" in str(err.value)

    def test_rows_are_numbered_from_the_header(self):
        # Index i of each column is file row i + 2, as error messages count rows.
        assert parse_pairs("N,Y\n1,2\n3,4\n", "N,Y") == ([1.0, 3.0], [2.0, 4.0])
        with pytest.raises(CsvFormatError, match="row 3, column 1"):
            parse_pairs("N,Y\n1,2\nx,4\n", "N,Y")

    def test_format_emits_trailing_newline_and_12_digits(self):
        text = format_pairs([1 / 3], [2e-7], "a,b")
        assert text == "a,b\n0.333333333333,2e-07\n"

    @pytest.mark.parametrize("xs, ys", [([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0]), ([1.0], ["x"]), ([10**400], [1.0])],
                             ids=["longer-x", "longer-y", "text", "int-beyond-float"])
    def test_format_refuses_what_percent_cannot_write(self, xs, ys):
        with pytest.raises(DomainError, match="^x and y columns must be equal in length and hold only numbers"):
            format_pairs(xs, ys, "a,b")

    @settings(max_examples=2000)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
                     .filter(math.isfinite)))
    def test_percent_format_writes_what_format_writes(self, x):
        assert "%.12g" % x == format(x, ".12g")
