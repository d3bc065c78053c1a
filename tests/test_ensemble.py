import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commscale import _philox
from commscale import ensemble as ens
from commscale.errors import CsvFormatError, DomainError, UnsupportedConfigError
from commscale.ensemble import EnsembleSample, EnsembleSpec, PowerLawFit
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
        with pytest.raises(DomainError):
            EnsembleSample(0.0, 1.0)
        with pytest.raises(DomainError):
            EnsembleSample(1.0, -1.0)
        for n, y in [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(DomainError, match="finite"):
                EnsembleSample(n, y)

    def test_fit_diagnostics_bounds(self):
        with pytest.raises(DomainError):
            PowerLawFit(1.0, 0.0, 1.5, 0.0, 10)
        with pytest.raises(DomainError):
            PowerLawFit(1.0, 0.0, 0.5, -0.1, 10)


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


class TestGenerate:
    def test_deterministic(self):
        s = spec(n_samples=50, seed=9)
        assert ens.generate(s) == ens.generate(s)

    def test_seed_changes_the_draw(self):
        assert ens.generate(spec(n_samples=10, seed=1)) != ens.generate(spec(n_samples=10, seed=2))

    def test_sample_count_prefix_stable(self):
        # Growing an ensemble never changes the samples already drawn.
        short = ens.generate(spec(n_samples=10, seed=4))
        long = ens.generate(spec(n_samples=60, seed=4))
        assert long[:10] == short

    def test_populations_inside_bounds(self):
        for s in ens.generate(spec(n_samples=200, N_min=50.0, N_max=5000.0, seed=3)):
            assert 50.0 <= s.N <= 5000.0
            assert s.Y > 0

    def test_zero_noise_lies_on_the_model(self):
        for s in ens.generate(spec(n_samples=20, noise_sigma=0.0, seed=5)):
            assert s.Y == pytest.approx(ens.model_value(ScalingClass.INTERACTION, s.N, 0.0, D2H1), rel=1e-12)


def reference_generate(spec):
    """The per-sample construction generate() must match: a fresh Philox
    generator keyed (seed, i) and a model_value call for every sample."""
    ln_lo = math.log(spec.N_min)
    ln_hi = math.log(spec.N_max)
    out = []
    for i in range(spec.n_samples):
        rng = np.random.Generator(np.random.Philox(key=np.array([spec.seed, i], dtype=np.uint64)))
        u = rng.random()
        z = rng.standard_normal()
        n = math.exp(ln_lo + u * (ln_hi - ln_lo))
        y = ens.model_value(spec.scaling_class, n, spec.inactive_fraction, spec.params)
        out.append(EnsembleSample(n, y * math.exp(spec.noise_sigma * z)))
    return out


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
        w0, w1 = _philox.first_words(seed, 300)
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
        _, w1 = _philox.first_words(s.seed, s.n_samples)
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
        samples = [EnsembleSample(n, 4.0 * n**2.3) for n in (10, 100, 1000, 12345)]
        fit = ens.fit_power_law(samples)
        assert fit.beta == pytest.approx(2.3, rel=1e-12)
        assert fit.log_intercept == pytest.approx(math.log(4.0), rel=1e-12)
        assert fit.r_squared == 1.0
        assert fit.stderr_beta == pytest.approx(0.0, abs=1e-12)
        assert fit.n == 4

    def test_two_points_define_a_slope(self):
        fit = ens.fit_power_law([EnsembleSample(10, 100), EnsembleSample(1000, 10000)])
        assert fit.beta == pytest.approx(1.0, rel=1e-12)
        assert fit.stderr_beta == 0.0

    def test_rejects_nonpositive_duck_typed_samples(self):
        # fit_power_law takes any objects with N and Y; EnsembleSample's own check does not run for them.
        with pytest.raises(DomainError, match="positive"):
            ens.fit_power_law([SimpleNamespace(N=10.0, Y=1.0), SimpleNamespace(N=0.0, Y=1.0)])

    def test_needs_two_distinct_populations(self):
        with pytest.raises(DomainError):
            ens.fit_power_law([EnsembleSample(10, 1), EnsembleSample(10, 2)])
        with pytest.raises(DomainError):
            ens.fit_power_law([])

    def test_noiseless_ensembles_recover_theory_for_every_class(self):
        from commscale.meanfield import predicted_exponent

        for D in (1, 2, 3):
            for H in (0.5, 1.0, min(2.0, float(D))):
                params = ScalingParams(D=D, H=H)
                for cls in ScalingClass:
                    if cls is ScalingClass.RECURSIVE_DEPENDENCY and H != 1.0:
                        continue
                    s = EnsembleSpec(cls, params, n_samples=40, noise_sigma=0.0, seed=11)
                    fit = ens.fit_power_law(ens.generate(s))
                    assert fit.beta == pytest.approx(predicted_exponent(cls, params), abs=1e-9)
                    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_inactive_fraction_preserves_the_exponent(self):
        # A fixed inactive share shifts the intercept, never the slope.
        s = spec(n_samples=40, noise_sigma=0.0, inactive_fraction=0.3, seed=13)
        fit = ens.fit_power_law(ens.generate(s))
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
        fit = ens.fit_power_law(ens.generate(spec(cls, seed=42)))
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

    def test_end_to_end_gap_is_small(self):
        fit = ens.fit_power_law(ens.generate(spec(seed=42)))
        report = ens.compare(fit, ScalingClass.INTERACTION, D2H1)
        assert report.gap <= 0.02


class TestCsv:
    def test_render_parse_render_is_bytewise_stable(self):
        samples = ens.generate(spec(n_samples=25, seed=6))
        text = ens.samples_to_csv(samples)
        assert text.startswith("N,Y\n")
        assert ens.samples_to_csv(ens.parse_csv(text)) == text

    def test_parse_rejects_nonpositive_rows(self):
        with pytest.raises(CsvFormatError) as err:
            ens.parse_csv("N,Y\n10,1\n-3,1\n")
        assert "row 3" in str(err.value)

    def test_ingest_reads_files(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("N,Y\n10,100\n20,300\n", encoding="utf-8")
        samples = ens.ingest_csv(path)
        assert samples == [EnsembleSample(10.0, 100.0), EnsembleSample(20.0, 300.0)]


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
        text = format_pairs([(1 / 3, 2e-7)], "a,b")
        assert text == "a,b\n0.333333333333,2e-07\n"
