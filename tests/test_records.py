"""One contract for the package's fifteen frozen value records.

Each record compares, hashes, prints, pickles and copies by its field
values, is built by keyword with its defaults, and refuses assignment
and deletion, as the frozen dataclasses they replaced did.
"""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError

import pytest

from commscale import ensemble, meanfield as mf, promisegraph as pg, uslkit
from commscale._record import Record

OFFER = pg.Promise("a", "b", "svc", pg.Polarity.OFFER, frozenset({"x"}), ("q", "c"))
ACCEPT = pg.Promise("b", "a", "svc", pg.Polarity.ACCEPT, frozenset({"x"}))
PARAMS = mf.ScalingParams(D=2, H=1.0)
PROMISE_REPR = ("Promise(giver='{}', receiver='{}', type_tag='svc', polarity=<Polarity.{}>, "
                "constraint=frozenset({{{}}}), condition={})")

# Per record: the class, its required keyword arguments (every default left
# out), and the repr its frozen dataclass printed for them.
CASES = {
    "ScalingParams": (mf.ScalingParams, dict(D=2, H=0.5),
                      "ScalingParams(D=2, H=0.5, g_I=1.0, g_Y=1.0, G_Y=1.0, c_Y=1.0, v_Y=1.0, L=1.0)"),
    "Population": (mf.Population, dict(N_I=10.0), "Population(N_I=10.0, N_0=0.0)"),
    "ConsumptionCoeffs": (mf.ConsumptionCoeffs, dict(e_minus=1.0, e_plus=2.0),
                          "ConsumptionCoeffs(e_minus=1.0, e_plus=2.0)"),
    "ImpulseParams": (mf.ImpulseParams, dict(r=2.0),
                      "ImpulseParams(r=2.0, T_explore=1.0, B=1.0, density_I=1.0, alpha_tau=1.0, c_phys=1.0, "
                      "c_virt=1.0, N_D=1.0, N_W=1.0)"),
    "_ClassLaw": (mf._ClassLaw, dict(exponent=abs, share=min, kernel=max),
                  "_ClassLaw(exponent=<built-in function abs>, share=<built-in function min>, "
                  "kernel=<built-in function max>, unit_h_only=False)"),
    "UslParams": (uslkit.UslParams, dict(contention=0.1), "UslParams(contention=0.1, coherency=0.0)"),
    "UslFit": (uslkit.UslFit, dict(params=uslkit.UslParams(0.1, 0.01), residual=0.25),
               "UslFit(params=UslParams(contention=0.1, coherency=0.01), residual=0.25)"),
    "SerialModel": (uslkit.SerialModel, dict(sigma=1.0), "SerialModel(sigma=1.0, pi_par=0.0, kappa=0.0)"),
    "QueueParams": (uslkit.QueueParams, dict(lam=1.0, mu=2.0), "QueueParams(lam=1.0, mu=2.0)"),
    "EnsembleSpec": (ensemble.EnsembleSpec, dict(scaling_class=mf.ScalingClass.INTERACTION, params=PARAMS),
                     "EnsembleSpec(scaling_class=<ScalingClass.INTERACTION: 'interaction'>, "
                     "params=ScalingParams(D=2, H=1.0, g_I=1.0, g_Y=1.0, G_Y=1.0, c_Y=1.0, v_Y=1.0, L=1.0), "
                     "n_samples=500, N_min=1000.0, N_max=10000000.0, noise_sigma=0.1, inactive_fraction=0.0, seed=0)"),
    "PowerLawFit": (ensemble.PowerLawFit, dict(beta=1.1, log_intercept=0.5, r_squared=0.99, stderr_beta=0.01, n=10),
                    "PowerLawFit(beta=1.1, log_intercept=0.5, r_squared=0.99, stderr_beta=0.01, n=10)"),
    "CompareReport": (ensemble.CompareReport,
                      dict(theory_beta=1.25, fitted_beta=1.17, gap=0.08, stderr_beta=0.01, k=2.0,
                           within_k_stderr=False),
                      "CompareReport(theory_beta=1.25, fitted_beta=1.17, gap=0.08, stderr_beta=0.01, k=2.0, "
                      "within_k_stderr=False)"),
    "Agent": (pg.Agent, dict(id="a"), "Agent(id='a', assessment=1.0)"),
    "Promise": (pg.Promise, dict(giver="a", receiver="b", type_tag="svc", polarity=pg.Polarity.OFFER),
                PROMISE_REPR.format("a", "b", "OFFER: '+'", "'*'", "()")),
    "Binding": (pg.Binding, dict(offer=OFFER, accept=ACCEPT, effective_constraint=frozenset({"x"})),
                "Binding(offer=" + PROMISE_REPR.format("a", "b", "OFFER: '+'", "'x'", "('c', 'q')")
                + ", accept=" + PROMISE_REPR.format("b", "a", "ACCEPT: '-'", "'x'", "()")
                + ", effective_constraint=frozenset({'x'}))"),
}

records = pytest.mark.parametrize("name", CASES)


def make(name):
    cls, kwargs, _ = CASES[name]
    return cls(**kwargs)


def fields(record, cls=None):
    """{field: value} of a record, the fields being the keyword arguments of cls (default: the record's class)."""
    return {name: getattr(record, name) for name in inspect.signature(cls or type(record)).parameters}


def test_every_record_is_covered():
    assert {cls for cls, _, _ in CASES.values()} == set(Record.__subclasses__())


@records
def test_repr_is_the_dataclass_text(name):
    assert repr(make(name)) == CASES[name][2]


@records
def test_keywords_positions_and_defaults_build_the_same_record(name):
    cls, kwargs, _ = CASES[name]
    record = make(name)
    assert fields(record).items() >= kwargs.items()
    assert cls(*kwargs.values()) == record == cls(**fields(record))


@records
def test_equal_records_hash_equal(name):
    a, b = make(name), make(name)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@records
def test_other_classes_with_the_same_values_are_unequal(name):
    record = make(name)
    twin = type("Twin", (type(record),), {"__slots__": ()})(**fields(record))
    assert fields(twin, type(record)) == fields(record)
    assert record != twin and twin != record
    assert record != tuple(fields(record).values())


def test_two_field_records_of_the_same_values_differ():
    same = [mf.Population(1.0, 2.0), mf.ConsumptionCoeffs(1.0, 2.0), uslkit.UslParams(1.0, 2.0),
            uslkit.QueueParams(1.0, 2.0)]
    assert len(set(same)) == len(same)
    assert all(a != b for a in same for b in same if a is not b)


@records
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_round_trip(name, clone):
    record = make(name)
    again = clone(record)
    assert again == record and type(again) is type(record) and repr(again) == repr(record)


@records
def test_assignment_and_deletion_raise(name):
    record = make(name)
    for field in [*fields(record), "not_a_field"]:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 1)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert repr(record) == CASES[name][2]


@records
def test_records_are_slotted(name):
    assert not hasattr(make(name), "__dict__")
