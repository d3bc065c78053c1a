import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commscale import ensemble as ens
from commscale import meanfield as mf
from commscale.ensemble import CompareReport, EnsembleSpec, model_value
from commscale.errors import DomainError, UnsupportedConfigError
from commscale.meanfield import Population, ScalingClass, ScalingParams
from commscale.promisegraph import Agent, PromiseGraph
from commscale import uslkit
from commscale.uslkit import QueueParams, SerialModel, UslFit, UslParams


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
        # The class kernel computes the equilibrium and infrastructure volumes
        # once; checked for range like the public functions, it must give
        # exactly the value, or exactly the error, of the two public calls
        # it replaces. Their product, unchecked, may leave the float range.
        g_Y, G_Y, c_Y, v_Y, L = couplings
        p = params(D, D * H_share, g_I=g_I, g_Y=g_Y, G_Y=G_Y, c_Y=c_Y, v_Y=v_Y, L=L)
        pop = Population(N_I, N_0)
        law = mf._LAWS[ScalingClass.SCARCE_DEPENDENCY]
        got = _outcome(mf._finite(lambda: law.kernel(p)(N_I, N_0)))
        want = _outcome(lambda: mf.yield_output(pop, p) * mf.node_degree(pop, mf.equilibrium_volume(pop, p), p))
        if isinstance(want, float) and not math.isfinite(want):
            want = (DomainError, "result is out of the finite float range")
        assert got == want

    def test_no_connected_agents_is_the_yield_error(self):
        with pytest.raises(DomainError, match=r"^equilibrium volume requires N > 0 and N_I > 0$"):
            model_value(ScalingClass.SCARCE_DEPENDENCY, 10.0, 1.0, params())


UNIT = {}
COUPLED = dict(g_I=0.4, g_Y=2.5, G_Y=0.7, c_Y=1.9, v_Y=3.1, L=0.6)


def composed_value(cls, pop, p):
    """The class value composed from the public meanfield functions, as _ClassLaw documents it."""
    v_eq = lambda: mf.equilibrium_volume(pop, p)  # noqa: E731
    return {
        ScalingClass.INFRASTRUCTURE_VOLUME: lambda: mf.infrastructure_volume(v_eq(), pop, p),
        ScalingClass.LINEAR_CONSUMPTION: lambda: mf.linear_consumption(pop, mf.ConsumptionCoeffs(1.0, 1.0))[0],
        ScalingClass.INTERACTION: lambda: mf.yield_output(pop, p),
        ScalingClass.SCARCE_AGENT: lambda: mf.node_degree(pop, v_eq(), p),
        ScalingClass.SCARCE_DEPENDENCY: lambda: mf.yield_output(pop, p) * mf.node_degree(pop, v_eq(), p),
        ScalingClass.RECURSIVE_DEPENDENCY: lambda: pop.N_I**2 / ((v_eq() / pop.N_I) ** (1 / p.D**2) * pop.N_I),
        ScalingClass.VIRTUAL_INTERACTION: lambda: pop.N_I ** (2 * p.H / p.D) * pop.N ** (-p.H / p.D),
    }[cls]()


def written_out_value(cls, N_I, N_0, p):
    """The class value written out from the formulas in the meanfield docstrings, sharing no code with them."""
    N = N_I + N_0
    expo = p.D / (p.D + p.H)
    v_eq = (p.g_Y * p.v_Y / p.c_Y) ** expo * (N_I**2 / N) ** expo
    hd = p.H / p.D
    v_i = p.g_I * v_eq**hd * p.L ** (p.D - p.H) * N_I * N**-hd
    return {
        ScalingClass.INFRASTRUCTURE_VOLUME: v_i,
        ScalingClass.LINEAR_CONSUMPTION: N,
        ScalingClass.INTERACTION: p.G_Y * N_I**2 / v_i,
        ScalingClass.SCARCE_AGENT: N_I / v_i,
        ScalingClass.SCARCE_DEPENDENCY: p.G_Y * N_I**2 / v_i * (N_I / v_i),
        ScalingClass.RECURSIVE_DEPENDENCY: N_I**2 / ((v_eq / N_I) ** (1 / p.D**2) * N_I),
        ScalingClass.VIRTUAL_INTERACTION: N_I ** (2 * p.H / p.D) * N ** (-p.H / p.D),
    }[cls]


class TestClassKernels:
    @pytest.mark.parametrize("couplings", [UNIT, COUPLED], ids=["unit", "coupled"])
    @pytest.mark.parametrize("share", [0.0, 0.3])
    @pytest.mark.parametrize(
        "cls,D,H",
        [
            pytest.param(cls, D, H, id=f"{cls.value}-D{D}-H{H}")
            for cls in ScalingClass
            for D, H in ((2, 1.0), (3, 1.0), (3, 2.5), (2, 0.5))
            if H == 1 or cls is not ScalingClass.RECURSIVE_DEPENDENCY
        ],
    )
    @settings(max_examples=25, deadline=None)
    @given(N=st.floats(1e-3, 1e150))
    @example(N=1.0)
    @example(N=1e150)
    def test_bit_identical_to_the_public_composition(self, cls, D, H, share, couplings, N):
        # model_value and generate evaluate only the kernel, so this is their
        # oracle: every float operation of the composition in the same order.
        p = params(D, H, **couplings)
        n0 = share * N
        pop = Population(N - n0, n0)
        got = mf._LAWS[cls].kernel(p)(pop.N_I, pop.N_0)
        assert got.hex() == composed_value(cls, pop, p).hex() == written_out_value(cls, pop.N_I, pop.N_0, p).hex()
        assert got.hex() == model_value(cls, N, share, p).hex()


class TestColumnKernels:
    @settings(max_examples=300, deadline=None)
    @given(
        cls=st.sampled_from(list(ScalingClass)),
        D=st.integers(1, 4),
        H_share=st.floats(0.0, 1.0),
        couplings=st.tuples(*[positive] * 5),
        g_I=st.floats(1e-6, 1.0),
        Ns=st.lists(st.floats(1e-3, 1e150), min_size=1, max_size=40),
        share=st.one_of(st.just(0.0), st.just(1 - 2**-53), st.floats(0.0, 1 - 2**-53)),
    )
    @example(cls=ScalingClass.INTERACTION, D=2, H_share=0.5, couplings=(1.0,) * 5, g_I=1.0, Ns=[1e-3, 1.0, 1e150],
             share=0.25)
    # A power that overflows in one cell, a division by an infrastructure volume that underflows to 0 (L**2), and
    # at H = 0 a volume that overflows in one cell, whose power H/D = 0 would read inf as 1.
    @example(cls=ScalingClass.INTERACTION, D=2, H_share=0.5, couplings=(1.0,) * 5, g_I=1.0, Ns=[1.0, 1e200, 2.0],
             share=0.0)
    @example(cls=ScalingClass.INTERACTION, D=3, H_share=1 / 3, couplings=(1.0,) * 4 + (1e-300,), g_I=1.0, Ns=[5.0],
             share=0.0)
    @example(cls=ScalingClass.INTERACTION, D=2, H_share=0.0, couplings=(1e300,) + (1.0,) * 4, g_I=1.0, Ns=[1.0, 1e10],
             share=0.0)
    def test_cells_equal_the_scalar_kernel(self, cls, D, H_share, couplings, g_I, Ns, share):
        # generate runs a block's kernel over float64 columns, with libm's pow mapped over the cells; every cell must carry
        # the bits of the scalar kernel, and a cell that fails alone must fail the column, which generate reruns.
        g_Y, G_Y, c_Y, v_Y, L = couplings
        p = params(D, D * H_share, g_I=g_I, g_Y=g_Y, G_Y=G_Y, c_Y=c_Y, v_Y=v_Y, L=L)
        n0 = [share * N for N in Ns]
        ni = [N - x for N, x in zip(Ns, n0)]
        law = mf._LAWS[cls]
        cells = [_outcome(lambda: law.kernel(p)(a, b)) for a, b in zip(ni, n0)]
        with np.errstate(all="ignore"):
            column = _outcome(lambda: law.kernel(p, lambda x, e: ens._cells(pow, x, e))(np.array(ni), np.array(n0)))
        if all(type(cell) is float for cell in cells):
            assert [cell.hex() for cell in column.tolist()] == [cell.hex() for cell in cells]
            assert [cell.hex() for cell in cells] == [written_out_value(cls, a, b, p).hex() for a, b in zip(ni, n0)]
        else:
            assert type(column) is tuple or not ((column > 0) & (column < math.inf)).all()


@pytest.mark.parametrize(
    "call",
    [
        lambda: model_value("infrastructure_volume", 1e200, 0.0, params()),
        lambda: model_value(ScalingClass.INTERACTION, 1e200, 0.3, params()),
        lambda: mf.yield_output(Population(1e200), params()),
        lambda: mf.equilibrium_volume(Population(1e200, 1.0), params()),
        lambda: mf.infrastructure_volume(1e300, Population(1e300), params(L=1e300)),
        lambda: mf.infrastructure_volume(1.0, Population(1.0), params(3, 1.0, L=1e300)),
        lambda: mf.node_degree(Population(1e300), 1e-200, params(g_I=1e-200)),
        lambda: mf.correction_factor(ScalingClass.SCARCE_DEPENDENCY, Population(1.0, 1e200), params()),
        lambda: mf.correction_factor(ScalingClass.SCARCE_DEPENDENCY, Population(1e-200, 1e200), params()),
        # V_I underflows to 0, and the yield divides by it.
        lambda: mf.yield_output(Population(1e-100), params(1, 0.0, g_I=1e-300, L=1e-300)),
        lambda: mf.infra_agent_count(1e300, 1.0, 1e300, 1e-300),
        lambda: mf.serialized_client_count(1e300, 1e-300, 1, 1e300),
        lambda: mf.impulse_rate(mf.Channel.PHYSICAL, 1e300, mf.ImpulseParams(r=1e300), 1),
        lambda: mf.city_idea_rate(mf.ImpulseParams(N_W=1e300, N_D=1e300), 1.0, 1.0),
        lambda: mf.linear_consumption(Population(1e308, 1e308), mf.ConsumptionCoeffs(1, 1)),
        lambda: uslkit.serial_time(1e308, SerialModel(1e308, 1.0, 1e308)),
        lambda: uslkit.response_time(QueueParams(0.0, 1e-320)),
        # pi_par / sigma overflows, and inf / (1 + inf) is nan.
        lambda: uslkit.effective_exponent(1.0, SerialModel(1e-320, 1e308, 0.0)),
        # The denominator overflows, and N / inf would read as a speedup of 0.
        lambda: uslkit.usl_speedup(1e308, UslParams(0.0, 1e-300)),
    ],
    ids=["model-infrastructure", "model-interaction", "yield", "equilibrium", "infrastructure-inf",
         "infrastructure-L-power", "node-degree", "correction-overflow", "correction-inf", "yield-zero-division",
         "infra-agents", "serialized-clients", "impulse-rate", "city-idea-rate", "linear-consumption",
         "serial-time", "response-time", "effective-exponent", "usl-speedup"],
)
def test_results_outside_the_float_range_are_domain_errors(call):
    with pytest.raises(DomainError, match="^result is out of the finite float range$"):
        call()


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
        with pytest.raises(DomainError, match="N_client"):
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
        with pytest.raises(DomainError, match="cross_section"):
            mf.serialized_client_count(10, 10, 2, 0.0)
        with pytest.raises(DomainError, match="D must be"):
            mf.serialized_client_count(10, 10, 0, 1.0)

    def test_serialized_client_count_needs_an_integral_dimension(self):
        # ScalingParams' rule for D: an integral float such as 2.0 stays a dimension, 1.5 is none.
        with pytest.raises(DomainError, match="^D must be an integer >= 1, got 1.5$"):
            mf.serialized_client_count(8.0, 2.0, 1.5, 1.0)
        assert mf.serialized_client_count(8.0, 2.0, 2.0, 1.0) == mf.serialized_client_count(8.0, 2.0, 2, 1.0)


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

    def test_physical_needs_an_integral_dimension(self):
        with pytest.raises(DomainError, match="^D must be an integer >= 1, got 2.5$"):
            mf.impulse_rate(mf.Channel.PHYSICAL, 8.0, mf.ImpulseParams(), 2.5)

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

    def test_params_refuse_a_bool_dimension(self):
        # 1 <= True holds, yet a bool is no dimension, as it is no EnsembleSpec count.
        with pytest.raises(DomainError, match="^D must be an integer >= 1, got True$"):
            ScalingParams(D=True, H=1.0)

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


# One valid instance per parameter or output record; each numeric field is replaced in turn.
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
    # Output records: the fitted residual and every float field of a report.
    "UslFit": (lambda residual: UslFit(UslParams(0.1, 0.01), residual), dict(residual=0.5)),
    "CompareReport": (lambda **kw: CompareReport(**kw, within_k_stderr=True),
                      dict(theory_beta=7 / 6, fitted_beta=1.17, gap=0.0033, stderr_beta=0.01, k=2.0)),
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
    ],
)
def test_non_finite_parameters_are_domain_errors(record, field, bad):
    make, kwargs = RECORDS[record]
    make(**kwargs)
    with pytest.raises(DomainError):
        make(**{**kwargs, field: bad})


def test_fitted_residual_is_not_negative():
    with pytest.raises(DomainError, match=r"residual must be a real number in \[0, inf\)"):
        UslFit(UslParams(0.1, 0.01), -1.0)


# One valid call per public function of plain-number arguments, and the arguments that must also reject inf.
SCALAR_CALLS = {
    "usl_speedup": (uslkit.usl_speedup, dict(N=8.0, p=UslParams(0.1, 0.01)), {"N"}),
    "serial_time": (uslkit.serial_time, dict(N=8.0, m=SerialModel(1.0, 4.0)), {"N"}),
    "effective_exponent": (uslkit.effective_exponent, dict(N=8.0, m=SerialModel(1.0, 4.0)), set()),
    "infrastructure_volume": (mf.infrastructure_volume, dict(V=100.0, pop=Population(10.0, 1.0), params=params()),
                              {"V"}),
    "node_degree": (mf.node_degree, dict(pop=Population(10.0, 1.0), V=100.0, params=params()), {"V"}),
    "impulse_rate": (mf.impulse_rate, dict(channel=mf.Channel.PHYSICAL, V=100.0, p=mf.ImpulseParams(), D=2), {"V"}),
    # The virtual rate reads neither V nor D, so an infinite one still gives the bandwidth-limited rate.
    "impulse_rate-virtual": (mf.impulse_rate, dict(channel=mf.Channel.VIRTUAL, V=100.0, p=mf.ImpulseParams(), D=2),
                             set()),
    "infra_agent_count": (mf.infra_agent_count, dict(N_client=100.0, valency=4.0, alpha_minus=0.5, alpha_plus=0.25),
                          {"N_client", "alpha_minus"}),
    "serialized_client_count": (mf.serialized_client_count,
                                dict(V_catchment=100.0, N_users=10.0, D=2, cross_section=1.0),
                                {"V_catchment", "N_users", "cross_section"}),
    "city_idea_rate": (mf.city_idea_rate, dict(p=mf.ImpulseParams(), i_phys=1.0, i_virt=2.0), {"i_phys", "i_virt"}),
}


@pytest.mark.parametrize(
    "func,arg,bad",
    [
        pytest.param(func, arg, bad, id=f"{func}-{arg}-{bad}")
        for func, (_, kwargs, inf_rejected) in SCALAR_CALLS.items()
        for arg, value in kwargs.items()
        if isinstance(value, (int, float))
        for bad in ((math.nan, math.inf) if arg in inf_rejected else (math.nan,))
    ],
)
def test_non_finite_scalar_arguments_are_domain_errors(func, arg, bad):
    call, kwargs, _ = SCALAR_CALLS[func]
    assert math.isfinite(call(**kwargs))
    with pytest.raises(DomainError):
        call(**{**kwargs, arg: bad})
