import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commscale import meanfield as mf
from commscale.ensemble import EnsembleSpec, model_value
from commscale.errors import DomainError, UnsupportedConfigError
from commscale.meanfield import Population, ScalingClass, ScalingParams
from commscale.promisegraph import Agent, PromiseGraph
from commscale.uslkit import QueueParams, SerialModel, UslParams


def params(D=2, H=1.0, **kw):
    return ScalingParams(D=D, H=H, **kw)


class TestDeltaExponent:
    def test_plane_with_line_infrastructure(self):
        assert mf.delta_exponent(params(2, 1.0)) == pytest.approx(1 / 6, abs=1e-15)

    def test_unconnected_nodes(self):
        assert mf.delta_exponent(params(2, 0.0)) == 0.0

    def test_three_dimensions(self):
        assert mf.delta_exponent(params(3, 1.0)) == pytest.approx(1 / 12, abs=1e-15)

    def test_range_for_connected_networks(self):
        # 0 < H <= D pins delta into (0, 1/2], with 1/2 reached at H = D.
        rng = random.Random(101)
        for _ in range(200):
            D = rng.randint(1, 5)
            H = rng.uniform(1e-6, D)
            d = mf.delta_exponent(params(D, H))
            assert 0 < d <= 0.5
        assert mf.delta_exponent(params(3, 3.0)) == 0.5


class TestInfrastructureVolume:
    def test_hand_value(self):
        v = mf.infrastructure_volume(10000, Population(100, 0), params())
        assert v == pytest.approx(1000.0, rel=1e-12)

    def test_no_connected_agents_no_infrastructure(self):
        assert mf.infrastructure_volume(10.0, Population(0, 5), params()) == 0.0

    def test_linear_in_span_fraction(self):
        pop = Population(50, 20)
        lo = mf.infrastructure_volume(500.0, pop, params(g_I=0.4))
        hi = mf.infrastructure_volume(500.0, pop, params(g_I=0.8))
        assert hi == pytest.approx(2 * lo, rel=1e-12)

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(DomainError):
            mf.infrastructure_volume(0.0, Population(10, 0), params())

    def test_rejects_empty_population(self):
        with pytest.raises(DomainError):
            mf.infrastructure_volume(10.0, Population(0, 0), params())


class TestEquilibriumVolume:
    def test_hand_value(self):
        v = mf.equilibrium_volume(Population(100, 0), params())
        assert v == pytest.approx(100 ** (2 / 3), rel=1e-12)

    def test_unit_argument(self):
        # N_I^2 = N collapses the argument to 1.
        assert mf.equilibrium_volume(Population(10, 90), params()) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_connected_count(self):
        values = [mf.equilibrium_volume(Population(ni, 200 - ni), params()) for ni in (10, 50, 100, 200)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_rejects_zero_population(self):
        with pytest.raises(DomainError):
            mf.equilibrium_volume(Population(0, 10), params())


class TestYieldOutput:
    def test_superlinear_ratio_law(self):
        p = params()
        for gamma in (2.0, 10.0, 3.7):
            base = mf.yield_output(Population(500, 0), p)
            scaled = mf.yield_output(Population(500 * gamma, 0), p)
            assert scaled / base == pytest.approx(gamma ** (7 / 6), rel=1e-12)

    def test_single_agent_base_case(self):
        y = mf.yield_output(Population(1, 0), params())
        assert y > 0 and math.isfinite(y)

    def test_split_population_matches_factored_form(self):
        # Composition equals N_I^(7/6) (1 + N_0/N_I)^(5/6) at unit couplings.
        y = mf.yield_output(Population(100, 100), params())
        assert y == pytest.approx(100 ** (7 / 6) * 2 ** (5 / 6), rel=1e-12)

    def test_rejects_zero_connected(self):
        with pytest.raises(DomainError):
            mf.yield_output(Population(0, 10), params())


class TestLinearConsumption:
    def test_hand_value(self):
        inp, out = mf.linear_consumption(Population(10, 0), mf.ConsumptionCoeffs(2.0, 3.0))
        assert inp == 20.0
        assert out == 30.0

    def test_empty_city(self):
        assert mf.linear_consumption(Population(0, 0), mf.ConsumptionCoeffs(2.0, 3.0)) == (0.0, 0.0)

    def test_unit_coefficients(self):
        pop = Population(7, 5)
        assert mf.linear_consumption(pop, mf.ConsumptionCoeffs(1.0, 1.0)) == (pop.N, pop.N)


EXPECTED_D2H1 = {
    ScalingClass.INFRASTRUCTURE_VOLUME: Fraction(5, 6),
    ScalingClass.LINEAR_CONSUMPTION: Fraction(1),
    ScalingClass.INTERACTION: Fraction(7, 6),
    ScalingClass.SCARCE_AGENT: Fraction(1, 6),
    ScalingClass.SCARCE_DEPENDENCY: Fraction(4, 3),
    ScalingClass.RECURSIVE_DEPENDENCY: Fraction(13, 12),
    ScalingClass.VIRTUAL_INTERACTION: Fraction(1, 2),
}


class TestPredictedExponent:
    @pytest.mark.parametrize("cls,expected", sorted(EXPECTED_D2H1.items(), key=lambda kv: kv[0].value))
    def test_reference_table(self, cls, expected):
        assert mf.predicted_exponent(cls, params()) == pytest.approx(float(expected), abs=1e-15)

    def test_linear_consumption_for_any_params(self):
        rng = random.Random(5)
        for _ in range(50):
            D = rng.randint(1, 4)
            p = params(D, rng.uniform(0, D))
            assert mf.predicted_exponent(ScalingClass.LINEAR_CONSUMPTION, p) == 1.0

    def test_recursive_needs_unit_trajectory_dimension(self):
        with pytest.raises(UnsupportedConfigError):
            mf.predicted_exponent(ScalingClass.RECURSIVE_DEPENDENCY, params(2, 0.5))

    def test_recursive_general_dimension(self):
        assert mf.predicted_exponent(ScalingClass.RECURSIVE_DEPENDENCY, params(3, 1.0)) == pytest.approx(
            float(1 + Fraction(1, 9) - Fraction(1, 12)), abs=1e-15
        )

    def test_non_pervasive_is_rejected(self):
        with pytest.raises(DomainError):
            mf.predicted_exponent(ScalingClass.INTERACTION, params(), pervasive=False)

    def test_exponent_duality(self):
        # Supply and interaction exponents are 1 -+ delta, so they sum to 2.
        for D in (1, 2, 3, 4):
            for H in (0.0, 0.25, 0.5, 1.0, float(D)):
                p = params(D, H)
                total = mf.predicted_exponent(ScalingClass.INFRASTRUCTURE_VOLUME, p) + mf.predicted_exponent(
                    ScalingClass.INTERACTION, p
                )
                assert total == pytest.approx(2.0, abs=1e-15)


class TestCorrectionFactor:
    def test_pervasive_population_is_unity_for_every_class(self):
        pop = Population(123.0, 0.0)
        for cls in ScalingClass:
            assert mf.correction_factor(cls, pop, params()) == 1.0

    def test_interaction_hand_value(self):
        f = mf.correction_factor(ScalingClass.INTERACTION, Population(100, 100), params())
        assert f == pytest.approx(2 ** (5 / 6), rel=1e-12)

    def test_interaction_increasing_in_bystanders(self):
        factors = [mf.correction_factor(ScalingClass.INTERACTION, Population(100, n0), params()) for n0 in (0, 10, 100, 1000)]
        assert factors == sorted(factors)
        assert all(f >= 1 for f in factors)

    def test_matches_composed_pipeline(self):
        # At fixed N_I the yield composition factors exactly into the
        # pervasive power times this correction (D = 2H regime).
        p = params()
        base = mf.yield_output(Population(100, 0), p)
        for n0 in (10.0, 50.0, 300.0):
            ratio = mf.yield_output(Population(100, n0), p) / base
            assert ratio == pytest.approx(mf.correction_factor(ScalingClass.INTERACTION, Population(100, n0), p), rel=1e-12)
        # Every class value at fixed N_I, with and without bystanders, differs
        # by exactly this factor: for every class at D = 2H, and for the
        # recursive and virtual classes, whose shares are exact, at any D, H.
        # The recursive class is derived for H = 1 only, so not at (4, 2).
        cases = [
            (cls, D, H)
            for cls in ScalingClass
            for D, H in ((2, 1.0), (4, 2.0))
            if H == 1 or cls is not ScalingClass.RECURSIVE_DEPENDENCY
        ]
        cases += [(ScalingClass.RECURSIVE_DEPENDENCY, D, 1.0) for D in (1, 3)]
        cases += [(ScalingClass.VIRTUAL_INTERACTION, D, H) for D, H in ((1, 0.5), (3, 1.0), (3, 2.5))]
        for cls, D, H in cases:
            p = params(D, H)
            for n, f in ((1000.0, 0.3), (5e5, 0.9)):
                ratio = model_value(cls, n, f, p) / model_value(cls, (1 - f) * n, 0.0, p)
                factor = mf.correction_factor(cls, Population((1 - f) * n, f * n), p)
                assert ratio == pytest.approx(factor, rel=1e-12), (cls, D, H, n, f)

    def test_rejects_zero_connected(self):
        with pytest.raises(DomainError):
            mf.correction_factor(ScalingClass.INTERACTION, Population(0, 10), params())


class TestNodeDegree:
    def test_definition_identity_exact(self):
        rng = random.Random(17)
        for _ in range(100):
            pop = Population(rng.uniform(1, 1e4), rng.uniform(0, 1e4))
            p = params(rng.randint(1, 3), rng.uniform(0.1, 1.0), g_I=rng.uniform(0.1, 1.0))
            V = rng.uniform(1, 1e6)
            k = mf.node_degree(pop, V, p)
            assert k * mf.infrastructure_volume(V, pop, p) == pytest.approx(pop.N_I, rel=1e-12)

    def test_equilibrium_scaling(self):
        p = params()
        def k(n):
            pop = Population(n, 0)
            return mf.node_degree(pop, mf.equilibrium_volume(pop, p), p)
        for gamma in (2.0, 10.0):
            assert k(gamma * 1000) / k(1000) == pytest.approx(gamma ** (1 / 6), rel=1e-12)

    def test_hand_value(self):
        assert mf.node_degree(Population(100, 0), 10000, params()) == pytest.approx(0.1, rel=1e-12)

    def test_rejects_zero_infrastructure(self):
        with pytest.raises(DomainError):
            mf.node_degree(Population(0, 10), 100.0, params())


def _outcome(f):
    """f()'s value, or the type and message of the exception it raises."""
    try:
        return f()
    except (DomainError, ArithmeticError) as exc:
        return type(exc), str(exc)


positive = st.floats(1e-6, 1e6)


class TestScarceDependencyLaw:
    @settings(max_examples=300, deadline=None)
    @given(
        N_I=st.one_of(st.just(0.0), st.floats(0.0, 1e200)),
        N_0=st.one_of(st.just(0.0), st.floats(0.0, 1e200)),
        D=st.integers(1, 4),
        H_share=st.floats(0.0, 1.0),
        couplings=st.tuples(*[positive] * 5),
        g_I=st.floats(1e-6, 1.0),
    )
    @example(N_I=1e-300, N_0=0.0, D=1, H_share=1.0, couplings=(1.0,) * 5, g_I=1.0)
    @example(N_I=1e200, N_0=1e200, D=2, H_share=0.5, couplings=(1e6, 1e-6, 1.0, 1e6, 1e-6), g_I=1e-6)
    @example(N_I=1e-50, N_0=1e200, D=2, H_share=1.0, couplings=(1e6, 1.0, 1e-6, 1e6, 1.0), g_I=1e-6)
    def test_equals_yield_times_node_degree(self, N_I, N_0, D, H_share, couplings, g_I):
        # The class law computes the equilibrium and infrastructure volumes
        # once; it must give exactly the value, or exactly the error, of
        # the two public calls it replaces.
        g_Y, G_Y, c_Y, v_Y, L = couplings
        p = params(D, D * H_share, g_I=g_I, g_Y=g_Y, G_Y=G_Y, c_Y=c_Y, v_Y=v_Y, L=L)
        pop = Population(N_I, N_0)
        law = mf._LAWS[ScalingClass.SCARCE_DEPENDENCY].value
        got = _outcome(lambda: law(pop, p))
        want = _outcome(lambda: mf.yield_output(pop, p) * mf.node_degree(pop, mf.equilibrium_volume(pop, p), p))
        assert got == want or (got != got and want != want)

    def test_no_connected_agents_is_the_yield_error(self):
        with pytest.raises(DomainError, match=r"^yield requires N_I > 0$"):
            model_value(ScalingClass.SCARCE_DEPENDENCY, 10.0, 1.0, params())


class TestSupportCounts:
    def test_infra_agent_count_hand_value(self):
        assert mf.infra_agent_count(100, 10, 1.0, 1.0) == pytest.approx(10.0)

    def test_infra_agent_count_no_clients(self):
        assert mf.infra_agent_count(0, 5, 0.7, 0.9) == 0.0

    def test_infra_agent_count_halving_valency_doubles(self):
        assert mf.infra_agent_count(100, 5, 1.0, 1.0) == pytest.approx(2 * mf.infra_agent_count(100, 10, 1.0, 1.0))

    def test_infra_agent_count_rejects_zero_acceptance(self):
        with pytest.raises(DomainError):
            mf.infra_agent_count(100, 10, 1.0, 0.0)

    def test_infra_agent_count_rejects_small_valency_and_negative_clients(self):
        with pytest.raises(DomainError, match="valency"):
            mf.infra_agent_count(100, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError, match="client count"):
            mf.infra_agent_count(-1, 10, 1.0, 1.0)

    def test_serialized_client_count_unit_capture(self):
        assert mf.serialized_client_count(100, 100, 2, 1.0) == pytest.approx(100.0)

    def test_serialized_client_count_hand_value(self):
        assert mf.serialized_client_count(10000, 100, 2, 1.0) == pytest.approx(1000.0)

    def test_serialized_client_count_crowding(self):
        # Per-user serialized share shrinks as users crowd a fixed catchment.
        shares = [mf.serialized_client_count(1e4, n, 2, 1.0) / n for n in (10, 100, 1000)]
        assert shares == sorted(shares, reverse=True)

    def test_serialized_client_count_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            mf.serialized_client_count(0, 10, 2, 1.0)
        with pytest.raises(DomainError):
            mf.serialized_client_count(10, 0, 2, 1.0)
        with pytest.raises(DomainError, match="cross-section"):
            mf.serialized_client_count(10, 10, 2, 0.0)
        with pytest.raises(DomainError, match="D must be"):
            mf.serialized_client_count(10, 10, 0, 1.0)


class TestImpulseRates:
    def test_virtual_independent_of_volume(self):
        p = mf.ImpulseParams(B=3.0, T_explore=2.0, density_I=0.5, alpha_tau=0.5)
        r1 = mf.impulse_rate(mf.Channel.VIRTUAL, 10.0, p, 2)
        r2 = mf.impulse_rate(mf.Channel.VIRTUAL, 1e6, p, 2)
        assert r1 == r2 == pytest.approx(1.5)

    def test_physical_hand_value(self):
        p = mf.ImpulseParams(r=1.0, T_explore=1.0, density_I=1.0, alpha_tau=0.5)
        assert mf.impulse_rate(mf.Channel.PHYSICAL, 100.0, p, 2) == pytest.approx(5.0)

    def test_zero_receptivity_silences_both_channels(self):
        p = mf.ImpulseParams(alpha_tau=0.0)
        assert mf.impulse_rate(mf.Channel.PHYSICAL, 100.0, p, 2) == 0.0
        assert mf.impulse_rate(mf.Channel.VIRTUAL, 100.0, p, 2) == 0.0

    def test_physical_rejects_nonpositive_volume(self):
        with pytest.raises(DomainError):
            mf.impulse_rate(mf.Channel.PHYSICAL, 0.0, mf.ImpulseParams(), 2)

    def test_unknown_channel(self):
        with pytest.raises(DomainError, match="unknown channel"):
            mf.impulse_rate("physical", 100.0, mf.ImpulseParams(), 2)

    def test_city_idea_rate_hand_value(self):
        p = mf.ImpulseParams(N_W=10, N_D=5, c_phys=1.0, c_virt=0.0)
        assert mf.city_idea_rate(p, 2.0, 99.0) == pytest.approx(100.0)

    def test_city_idea_rate_channel_switch_and_linearity(self):
        p = mf.ImpulseParams(N_W=3, N_D=2, c_phys=1.5, c_virt=0.0)
        pure_phys = mf.city_idea_rate(p, 4.0, 0.0)
        assert mf.city_idea_rate(p, 4.0, 123.0) == pure_phys
        doubled = mf.ImpulseParams(N_W=6, N_D=2, c_phys=1.5, c_virt=0.0)
        assert mf.city_idea_rate(doubled, 4.0, 0.0) == pytest.approx(2 * pure_phys)


class TestPipelineConsistency:
    def test_yield_ratio_reproduces_interaction_exponent(self):
        # log Y(gamma N) - log Y(N) = (1 + delta) log gamma across the grid.
        for D in (1, 2, 3):
            for H in (0.5, 1.0, min(2.0, float(D))):
                p = params(D, H)
                delta = mf.delta_exponent(p)
                for gamma in (2.0, 10.0):
                    lhs = math.log(mf.yield_output(Population(gamma * 1e4, 0), p)) - math.log(
                        mf.yield_output(Population(1e4, 0), p)
                    )
                    assert lhs == pytest.approx((1 + delta) * math.log(gamma), rel=1e-9)

    def test_supply_ratio_reproduces_sublinear_exponent(self):
        for D in (1, 2, 3):
            for H in (0.5, 1.0, min(2.0, float(D))):
                p = params(D, H)
                delta = mf.delta_exponent(p)
                def vi(n):
                    pop = Population(n, 0)
                    return mf.infrastructure_volume(mf.equilibrium_volume(pop, p), pop, p)
                for gamma in (2.0, 10.0):
                    lhs = math.log(vi(gamma * 1e4)) - math.log(vi(1e4))
                    assert lhs == pytest.approx((1 - delta) * math.log(gamma), rel=1e-9)

    def test_yield_at_fixed_total_peaks_when_everyone_connects(self):
        # More bystanders at the same N always costs output (D > H here).
        for D in (2, 3):
            p = params(D, 1.0)
            n = 1000.0
            yields = [mf.yield_output(Population(n - n0, n0), p) for n0 in (0.0, 100.0, 500.0, 900.0)]
            assert yields == sorted(yields, reverse=True)


class TestValidation:
    def test_population_rejects_negative(self):
        with pytest.raises(DomainError):
            Population(-1, 0)

    def test_population_total(self):
        pop = Population(2.5, 1.5)
        assert pop.N == 4.0

    def test_params_reject_bad_dimensions(self):
        with pytest.raises(DomainError):
            ScalingParams(D=0, H=0.0)
        with pytest.raises(DomainError):
            ScalingParams(D=2, H=2.5)
        with pytest.raises(DomainError):
            ScalingParams(D=2, H=-0.1)

    def test_params_reject_bad_couplings(self):
        with pytest.raises(DomainError):
            ScalingParams(D=2, H=1.0, g_I=0.0)
        with pytest.raises(DomainError):
            ScalingParams(D=2, H=1.0, g_I=1.5)
        with pytest.raises(DomainError):
            ScalingParams(D=2, H=1.0, c_Y=-1.0)

    def test_consumption_rejects_negative(self):
        with pytest.raises(DomainError):
            mf.ConsumptionCoeffs(-1.0, 0.0)

    def test_impulse_rejects_bad_receptivity(self):
        with pytest.raises(DomainError):
            mf.ImpulseParams(alpha_tau=1.5)


# One valid instance per parameter record; each numeric field is replaced in turn.
RECORDS = {
    "ScalingParams": (ScalingParams, dict(D=2, H=1.0, g_I=0.5, g_Y=1.0, G_Y=1.0, c_Y=1.0, v_Y=1.0, L=1.0)),
    "Population": (Population, dict(N_I=10.0, N_0=1.0)),
    "ConsumptionCoeffs": (mf.ConsumptionCoeffs, dict(e_minus=1.0, e_plus=1.0)),
    "ImpulseParams": (mf.ImpulseParams, dict(r=1.0, T_explore=1.0, B=1.0, density_I=1.0, alpha_tau=0.5, c_phys=1.0,
                                             c_virt=1.0, N_D=1.0, N_W=1.0)),
    "UslParams": (UslParams, dict(contention=0.1, coherency=0.01)),
    "SerialModel": (SerialModel, dict(sigma=1.0, pi_par=1.0, kappa=1.0)),
    "QueueParams": (QueueParams, dict(lam=0.5, mu=1.0)),
    "EnsembleSpec": (lambda **kw: EnsembleSpec(ScalingClass.INTERACTION, ScalingParams(D=2, H=1.0), **kw),
                     dict(n_samples=10, N_min=10.0, N_max=100.0, noise_sigma=0.1, inactive_fraction=0.1, seed=1)),
    "PromiseGraph": (lambda calibration: PromiseGraph([Agent("a")], calibration=calibration), dict(calibration=2.0)),
    "PromiseGraph-mapping": (lambda svc: PromiseGraph([Agent("a")], calibration={"svc": svc}), dict(svc=2.0)),
}


@pytest.mark.parametrize(
    "record,field,bad",
    [
        pytest.param(record, field, bad, id=f"{record}-{field}-{bad}")
        for record, (_, kwargs) in RECORDS.items()
        for field in kwargs
        for bad in (math.nan, math.inf, -math.inf)
        # Population rejects nan and negative counts but not inf, to keep ensemble draws cheap.
        if not (record == "Population" and bad == math.inf)
    ],
)
def test_non_finite_parameters_are_domain_errors(record, field, bad):
    make, kwargs = RECORDS[record]
    make(**kwargs)
    with pytest.raises(DomainError):
        make(**{**kwargs, field: bad})
