"""One number rule for every record field and scalar argument of the library.

errors._real and errors._integer decide what a number is: a real is a
value that float() converts, other than a bool (Python's or numpy's) or
text, and is kept as that float; an integer is an integral real, kept as
an int (3.0 gives 3). Every public record and every public function with
a number parameter has one valid call below; each number argument is
replaced in turn. A float in the valid call marks a real position, an int
an integer one. Each real position takes exactly the interval INTERVALS
gives it; an integer position takes the integers from its least value on.
"""

import importlib
import inspect
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from commscale import ensemble, meanfield as mf, promisegraph as pg, uslkit
from commscale._record import Record
from commscale.errors import DomainError

PARAMS = mf.ScalingParams(D=2, H=1.0)
POP = mf.Population(10.0, 1.0)
OFFER = pg.Promise("a", "b", "svc", pg.Polarity.OFFER)
GRAPH = pg.PromiseGraph([pg.Agent("a"), pg.Agent("b")], [OFFER, pg.Promise("b", "a", "svc", pg.Polarity.ACCEPT)])
FIT = ensemble.PowerLawFit(1.1, 0.5, 0.75, 0.01, 3)
INTERACTION = mf.ScalingClass.INTERACTION

ENTRIES = {
    "ScalingParams": (mf.ScalingParams, dict(D=3, H=1.0, g_I=0.5, g_Y=1.0, G_Y=1.0, c_Y=1.0, v_Y=1.0, L=1.0)),
    "Population": (mf.Population, dict(N_I=10.0, N_0=1.0)),
    "ConsumptionCoeffs": (mf.ConsumptionCoeffs, dict(e_minus=1.0, e_plus=2.0)),
    "ImpulseParams": (mf.ImpulseParams, dict(r=1.0, T_explore=1.0, B=1.0, density_I=1.0, alpha_tau=0.5, c_phys=1.0,
                                             c_virt=1.0, N_D=1.0, N_W=1.0)),
    "infrastructure_volume": (mf.infrastructure_volume, dict(V=100.0, pop=POP, params=PARAMS)),
    "node_degree": (mf.node_degree, dict(pop=POP, V=100.0, params=PARAMS)),
    "infra_agent_count": (mf.infra_agent_count, dict(N_client=100.0, valency=4.0, alpha_minus=0.5, alpha_plus=0.25)),
    "serialized_client_count": (mf.serialized_client_count,
                                dict(V_catchment=100.0, N_users=10.0, D=3, cross_section=1.0)),
    "impulse_rate": (mf.impulse_rate, dict(channel=mf.Channel.PHYSICAL, V=100.0, p=mf.ImpulseParams(), D=3)),
    "city_idea_rate": (mf.city_idea_rate, dict(p=mf.ImpulseParams(), i_phys=1.0, i_virt=2.0)),
    "UslParams": (uslkit.UslParams, dict(contention=0.1, coherency=0.01)),
    "UslFit": (uslkit.UslFit, dict(params=uslkit.UslParams(0.1, 0.01), residual=0.5)),
    "SerialModel": (uslkit.SerialModel, dict(sigma=1.0, pi_par=4.0, kappa=0.5)),
    "QueueParams": (uslkit.QueueParams, dict(lam=0.5, mu=1.0)),
    "usl_speedup": (uslkit.usl_speedup, dict(N=8.0, p=uslkit.UslParams(0.1, 0.01))),
    "serial_time": (uslkit.serial_time, dict(N=8.0, m=uslkit.SerialModel(1.0, 4.0))),
    "effective_exponent": (uslkit.effective_exponent, dict(N=8.0, m=uslkit.SerialModel(1.0, 4.0))),
    "EnsembleSpec": (ensemble.EnsembleSpec, dict(scaling_class=INTERACTION, params=PARAMS, n_samples=3, N_min=10.0,
                                                 N_max=100.0, noise_sigma=0.1, inactive_fraction=0.25, seed=3)),
    "PowerLawFit": (ensemble.PowerLawFit, dict(beta=1.1, log_intercept=0.5, r_squared=0.75, stderr_beta=0.01, n=3)),
    "CompareReport": (ensemble.CompareReport, dict(theory_beta=1.25, fitted_beta=1.125, gap=0.125, stderr_beta=0.0625,
                                                   k=2.0, within_k_stderr=True)),
    "model_value": (ensemble.model_value, dict(scaling_class=INTERACTION, N=100.0, inactive_fraction=0.5,
                                               params=PARAMS)),
    "compare": (ensemble.compare, dict(fit=FIT, scaling_class=INTERACTION, params=PARAMS, k=2.0)),
    "Agent": (pg.Agent, dict(id="a", assessment=0.5)),
    "classify_pattern": (pg.classify_pattern, dict(graph=GRAPH, output_promise=OFFER, scarcity_threshold=0.1)),
    "PromiseGraph": (pg.PromiseGraph, dict(agents=[pg.Agent("a")], calibration=2.0)),
    "PromiseGraph-mapping": (lambda svc: pg.PromiseGraph([pg.Agent("a")], calibration={"svc": svc}), dict(svc=2.0)),
}


# The interval of each real position, as its refusal names it; nan lies in none.
NONNEGATIVE, POSITIVE, FINITE = "[0, inf)", "(0, inf)", "(-inf, inf)"
INTERVALS = {
    "ScalingParams": dict(H=NONNEGATIVE, g_I="(0, 1]", g_Y=POSITIVE, G_Y=POSITIVE, c_Y=POSITIVE, v_Y=POSITIVE,
                          L=POSITIVE),
    "Population": dict(N_I=NONNEGATIVE, N_0=NONNEGATIVE),
    "ConsumptionCoeffs": dict(e_minus=NONNEGATIVE, e_plus=NONNEGATIVE),
    "ImpulseParams": dict(r=NONNEGATIVE, T_explore=NONNEGATIVE, B=NONNEGATIVE, density_I=NONNEGATIVE,
                          alpha_tau="[0, 1]", c_phys=NONNEGATIVE, c_virt=NONNEGATIVE, N_D=NONNEGATIVE, N_W=NONNEGATIVE),
    "infrastructure_volume": dict(V=POSITIVE),
    "node_degree": dict(V=POSITIVE),
    "infra_agent_count": dict(N_client=NONNEGATIVE, valency="[1, inf]", alpha_minus=NONNEGATIVE,
                              alpha_plus="(0, inf]"),
    "serialized_client_count": dict(V_catchment=POSITIVE, N_users=POSITIVE, cross_section=POSITIVE),
    "impulse_rate": dict(V=POSITIVE),
    "city_idea_rate": dict(i_phys=NONNEGATIVE, i_virt=NONNEGATIVE),
    "UslParams": dict(contention="[-1, inf)", coherency=NONNEGATIVE),
    "UslFit": dict(residual=NONNEGATIVE),
    "SerialModel": dict(sigma=POSITIVE, pi_par=NONNEGATIVE, kappa=NONNEGATIVE),
    "QueueParams": dict(lam=NONNEGATIVE, mu=NONNEGATIVE),
    "usl_speedup": dict(N="[1, inf)"),
    "serial_time": dict(N="[1, inf)"),
    "effective_exponent": dict(N="[1, inf]"),
    "EnsembleSpec": dict(N_min="[1, inf)", N_max="[1, inf)", noise_sigma=NONNEGATIVE, inactive_fraction="[0, 1)"),
    "PowerLawFit": dict(beta=FINITE, log_intercept=FINITE, r_squared="[0, 1]", stderr_beta=NONNEGATIVE),
    "CompareReport": dict(theory_beta=FINITE, fitted_beta=FINITE, gap=FINITE, stderr_beta=FINITE, k=FINITE),
    "model_value": dict(N=POSITIVE, inactive_fraction="[0, 1]"),
    "compare": dict(k=NONNEGATIVE),
    "Agent": dict(assessment="[0, 1]"),
    "classify_pattern": dict(scarcity_threshold="[-inf, inf]"),
    "PromiseGraph": dict(calibration=FINITE),
    "PromiseGraph-mapping": dict(svc=FINITE),
}


def positions(kind):
    return [pytest.param(entry, name, id=f"{entry}-{name}")
            for entry, (_, kwargs) in ENTRIES.items() for name, value in kwargs.items() if type(value) is kind]


def call(entry, **changed):
    target, kwargs = ENTRIES[entry]
    return target(**{**kwargs, **changed})


def kept(result, name):
    """What a record or a graph keeps of the argument name; None for a function's result."""
    if isinstance(result, pg.PromiseGraph):
        return result.calibration if name == "calibration" else result.calibration_for(name)
    return getattr(result, name) if isinstance(result, Record) else None


@pytest.mark.parametrize("entry, name", positions(float) + positions(int))
@pytest.mark.parametrize("bad", ["1", None, 1j, True, np.True_], ids=repr)
def test_a_non_number_is_a_domain_error(entry, name, bad):
    call(entry)
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        call(entry, **{name: bad})


@pytest.mark.parametrize("entry, name", positions(float))
@pytest.mark.parametrize("kind", [Fraction, Decimal, np.float64])
def test_a_real_is_its_float(entry, name, kind):
    value = ENTRIES[entry][1][name]
    # Each of these holds a float exactly, so it converts back to the same float.
    again = call(entry, **{name: kind(value)})
    assert again == call(entry)
    assert kept(again, name) is None or (type(kept(again, name)) is float and kept(again, name) == value)


@pytest.mark.parametrize("entry, name", positions(int))
def test_an_integral_number_is_its_int(entry, name):
    result = call(entry)
    for value in (3.0, np.int64(3), np.float64(3.0), Fraction(3), Decimal(3)):
        again = call(entry, **{name: value})
        assert again == result and (kept(again, name) is None or type(kept(again, name)) is int), value


@pytest.mark.parametrize("entry, name", positions(int))
@pytest.mark.parametrize("bad", [2.5, True, "3", math.nan, math.inf, np.True_], ids=repr)
def test_anything_else_is_no_integer(entry, name, bad):
    with pytest.raises(DomainError, match=f"^{name} must be an integer >= "):
        call(entry, **{name: bad})


def test_every_number_parameter_is_in_the_table():
    # A public record or function parameter annotated float or int is a number position; each needs a row above.
    covered = {(target, name) for target, kwargs in ENTRIES.values() for name, value in kwargs.items()
               if type(value) in (float, int)}
    wanted = set()
    for module_name in ("meanfield", "uslkit", "ensemble", "promisegraph", "graphio", "tabular"):
        module = importlib.import_module(f"commscale.{module_name}")
        for public in module.__all__:
            target = getattr(module, public)
            if callable(target) and not isinstance(target, type(mf.ScalingClass)):
                wanted |= {(target, name) for name, param in inspect.signature(target).parameters.items()
                           if param.annotation in ("float", "int")}
    assert wanted - covered == set()


def test_each_real_position_has_one_interval():
    wanted = {(entry, name) for entry, names in INTERVALS.items() for name in names}
    assert {tuple(p.values) for p in positions(float)} == wanted


def bounds(interval):
    """(lo, hi, lo is in, hi is in) of an interval written as "[lo, hi)" and the like."""
    lo, hi = map(float, interval[1:-1].split(", "))
    return lo, hi, interval[0] == "[", interval[-1] == "]"


def refusal(entry, name):
    """The message that refuses a value at a position: its own, but for the graph's calibration, which is kept."""
    if entry.startswith("PromiseGraph"):
        return r"^calibration values must be finite numbers, got "
    return rf"^{name} must be a real number in {re.escape(INTERVALS[entry][name])}, got "


@pytest.mark.parametrize("entry, name", positions(float))
def test_a_real_position_takes_exactly_its_interval(entry, name):
    lo, hi, lo_in, hi_in = bounds(INTERVALS[entry][name])
    # Each edge, just inside and just outside it, and the values no finite interval holds.
    grid = [lo, math.nextafter(lo, math.inf), math.nextafter(lo, -math.inf),
            hi, math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf), math.nan, -math.inf, math.inf]
    for x in grid:
        if (lo < x or lo_in and x == lo) and (x < hi or hi_in and x == hi):
            try:
                result = call(entry, **{name: x})
            except DomainError as exc:
                # Another check may refuse it (H <= D, a result beyond the float range), but not the position's.
                assert not re.search(refusal(entry, name), str(exc)), x
            else:
                assert kept(result, name) in (None, x), x
        else:
            with pytest.raises(DomainError, match=refusal(entry, name)):
                call(entry, **{name: x})
