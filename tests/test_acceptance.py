"""End-to-end acceptance gates for the package.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <n> <name>: PASS`` (or FAIL) line; run pytest with -s to
see the lines as they go by.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

import numpy as np
from test_promisegraph import brute_force_bindings

from commscale import ensemble as ens
from commscale import promisegraph as pg
from commscale import uslkit
from commscale.errors import QueueInstabilityError
from commscale.meanfield import Population, ScalingClass, ScalingParams, predicted_exponent
from commscale.promisegraph import Agent, Polarity, Promise, PromiseGraph
from commscale.uslkit import QueueParams, SerialModel, UslParams

D2H1 = ScalingParams(D=2, H=1.0)


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_exponent_table():
    expected = {
        ScalingClass.INFRASTRUCTURE_VOLUME: Fraction(5, 6),
        ScalingClass.LINEAR_CONSUMPTION: Fraction(1),
        ScalingClass.INTERACTION: Fraction(7, 6),
        ScalingClass.SCARCE_AGENT: Fraction(1, 6),
        ScalingClass.SCARCE_DEPENDENCY: Fraction(4, 3),
        ScalingClass.RECURSIVE_DEPENDENCY: Fraction(13, 12),
        ScalingClass.VIRTUAL_INTERACTION: Fraction(1, 2),
    }
    with criterion(1, "exponent_table"):
        start = time.perf_counter()
        for cls, frac in expected.items():
            assert abs(predicted_exponent(cls, D2H1) - float(frac)) <= 1e-12, cls
        assert time.perf_counter() - start < 1.0


def test_criterion_2_ensemble_recovery():
    with criterion(2, "ensemble_recovery"):
        start = time.perf_counter()
        for cls in ScalingClass:
            spec = ens.EnsembleSpec(
                scaling_class=cls,
                params=D2H1,
                n_samples=500,
                N_min=1e3,
                N_max=1e7,
                noise_sigma=0.1,
                seed=42,
            )
            fit = ens.fit_power_law(*ens.generate(spec))
            theory = predicted_exponent(cls, D2H1)
            assert abs(fit.beta - theory) <= 0.02, (cls, fit.beta, theory)
        assert time.perf_counter() - start < 5.0


def test_criterion_3_observed_exponent_concordance():
    # Reported city exponents: wages 1.12, private R&D employment 1.34,
    # patents across UK cities 1.13; held against the class predictions.
    cases = [
        (1.12, ScalingClass.INTERACTION, 0.047),
        (1.34, ScalingClass.SCARCE_DEPENDENCY, 0.007),
        (1.13, ScalingClass.INTERACTION, 0.037),
    ]
    with criterion(3, "observed_exponent_concordance"):
        for beta, cls, expected_gap in cases:
            fit = ens.PowerLawFit(beta=beta, log_intercept=0.0, r_squared=1.0, stderr_beta=0.0, n=0)
            report = ens.compare(fit, cls, D2H1)
            assert round(report.gap, 3) == expected_gap, (beta, cls, report.gap)
            # The class prediction brackets the observation to within 0.05.
            assert report.gap < 0.05


def test_criterion_4_network_value_oracle():
    with criterion(4, "network_value_oracle"):
        for n in range(2, 51):
            ids = [f"a{i:02d}" for i in range(n)]
            promises = []
            for i in ids:
                for j in ids:
                    if i != j:
                        promises.append(Promise(i, j, "link", Polarity.OFFER))
                        promises.append(Promise(i, j, "link", Polarity.ACCEPT))
            for c in (1.0, 2.5):
                g = PromiseGraph([Agent(i) for i in ids], promises, calibration=c)
                assert pg.total_value(g) == c * n * (n - 1), (n, c)

        # Random partial meshes against brute-force pair enumeration.
        rng = random.Random(404)
        for _ in range(50):
            n = rng.randint(2, 30)
            ids = [f"a{i:02d}" for i in range(n)]
            alphas = {i: rng.random() for i in ids}
            c = rng.choice([1.0, 2.5, 0.3])
            pairs = [(i, j) for i in ids for j in ids if i != j]
            chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
            promises = []
            for i, j in chosen:
                promises.append(Promise(i, j, "link", Polarity.OFFER))
                promises.append(Promise(j, i, "link", Polarity.ACCEPT))
            g = PromiseGraph([Agent(i, alphas[i]) for i in ids], promises, calibration=c)
            expected = math.fsum(c * alphas[i] * alphas[j] for i, j in chosen)
            assert pg.total_value(g) == expected, n


def test_criterion_5_scalability_law_properties():
    with criterion(5, "scalability_law_properties"):
        rng = random.Random(55)
        for _ in range(100):
            p = UslParams(rng.uniform(-1.0, 3.0), rng.uniform(0.0, 1.0))
            assert uslkit.usl_speedup(1, p) == 1.0, p

        for _ in range(200):
            p = UslParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.1))
            n = rng.uniform(1.0, 1e4)
            assert uslkit.usl_speedup(n, p) <= n, (p, n)

        truth = UslParams(contention=0.05, coherency=0.001)
        fit = uslkit.usl_fit([(n, uslkit.usl_speedup(n, truth)) for n in range(1, 65)])
        assert abs(fit.params.contention - truth.contention) <= 1e-6
        assert abs(fit.params.coherency - truth.coherency) <= 1e-6
        assert fit.residual <= 1e-6

        super_truth = UslParams(contention=-0.05, coherency=1e-4)
        data = [(n, uslkit.usl_speedup(n, super_truth)) for n in range(1, 17)]
        assert any(s > n for n, s in data)
        assert uslkit.usl_fit(data).params.contention < 0


def test_criterion_6_completion_time_regimes():
    with criterion(6, "completion_time_regimes"):
        # Parallel-dominated: the ratio tracks the local power-law slope.
        m = SerialModel(sigma=1.0, pi_par=1e4, kappa=0.0)
        n, gamma = 1e6, 2.0
        ratio = uslkit.serial_time(gamma * n, m) / uslkit.serial_time(n, m)
        predicted = gamma ** -uslkit.effective_exponent(n, m)
        assert abs(ratio - predicted) < 0.01

        # Coherency-dominated: doubling N doubles the completion time.
        m = SerialModel(sigma=1.0, pi_par=1.0, kappa=0.1)
        n = 1e4
        ratio = uslkit.serial_time(gamma * n, m) / uslkit.serial_time(n, m)
        assert abs(ratio / 2.0 - 1.0) < 0.01


def _random_graph(rng, n_max=30):
    n = rng.randint(2, n_max)
    ids = [f"a{i:02d}" for i in range(n)]
    agents = [Agent(i, rng.random()) for i in ids]
    promises = []
    for _ in range(rng.randint(0, 3 * n)):
        # Conditions name real promise types so discharge can actually fire.
        cond = tuple(rng.sample(["s", "t"], rng.randint(0, 1)))
        promises.append(
            Promise(
                rng.choice(ids),
                rng.choice(ids),
                rng.choice(["s", "t"]),
                rng.choice(list(Polarity)),
                frozenset(rng.sample(["*", "x", "y"], rng.randint(1, 2))),
                cond,
            )
        )
    return PromiseGraph(agents, promises)


def _induced_adjacency(graph, ids, tag):
    order = sorted(ids)
    index = {a: i for i, a in enumerate(graph.agent_ids())}
    rows = [index[a] for a in order]
    return pg.adjacency(graph, tag)[np.ix_(rows, rows)].tolist()


def test_criterion_7_promise_graph_laws():
    with criterion(7, "promise_graph_laws"):
        # Law 1 and 2: reduction idempotence, binding intersection rule.
        rng = random.Random(77)
        for _ in range(200):
            g = _random_graph(rng)
            reduced = pg.reduce_conditionals(g)
            assert pg.reduce_conditionals(reduced) == reduced
            got = {(b.offer._key(), b.accept._key(), b.effective_constraint) for b in pg.find_bindings(g)}
            assert got == brute_force_bindings(g)

        # Law 3: aggregation preserves the exterior structure.
        rng = random.Random(78)
        for _ in range(200):
            g = _random_graph(rng)
            ids = g.agent_ids()
            members = rng.sample(ids, rng.randint(1, len(ids) - 1))
            outside = [a for a in ids if a not in members]
            after = pg.aggregate(g, members, "SUPER")
            assert sorted(after.agent_ids()) == sorted(outside + ["SUPER"])
            for tag in ("s", "t"):
                assert _induced_adjacency(after, outside, tag) == _induced_adjacency(g, outside, tag)

        # Law 4: classification lands on the class whose exponent the
        # mean-field table predicts.
        rng = random.Random(79)
        expected_exponents = {
            ScalingClass.INTERACTION: 7 / 6,
            ScalingClass.SCARCE_AGENT: 1 / 6,
            ScalingClass.SCARCE_DEPENDENCY: 4 / 3,
            ScalingClass.RECURSIVE_DEPENDENCY: 13 / 12,
        }
        cases = 0
        for _ in range(50):
            for target in expected_exponents:
                g, probe = _pattern_graph(rng, target)
                got = pg.classify_pattern(g, probe)
                assert got is target, (target, got)
                assert abs(predicted_exponent(got, D2H1) - expected_exponents[target]) <= 1e-12
                cases += 1
        assert cases == 200


def _pattern_graph(rng, target):
    """A randomized graph whose probe offer belongs to the target class."""
    n = rng.randint(4, 30)
    ids = [f"a{i:02d}" for i in range(n)]
    giver, hub, provider, receiver = ids[0], ids[1], ids[2], ids[3]
    others = ids[1:]
    promises = []

    if target in (ScalingClass.INTERACTION, ScalingClass.SCARCE_AGENT):
        limit = 0.1 * (n - 1)
        if target is ScalingClass.INTERACTION:
            k = rng.randint(max(1, math.ceil(limit)), n - 1)
        else:
            k = rng.randint(0, max(0, int(math.floor(limit - 1e-9))))
        for consumer in rng.sample(others, k):
            promises.append(Promise(giver, consumer, "svc", Polarity.OFFER))
            promises.append(Promise(consumer, giver, "svc", Polarity.ACCEPT))
        probe = Promise(giver, receiver, "svc", Polarity.OFFER)
        promises.append(probe)
        return PromiseGraph([Agent(i) for i in ids], promises), probe

    probe = Promise(giver, receiver, "widget", Polarity.OFFER, condition=("steel",))
    promises.append(probe)
    promises.append(Promise(giver, provider, "steel", Polarity.ACCEPT))
    promises.append(Promise(provider, giver, "steel", Polarity.OFFER))
    if target is ScalingClass.RECURSIVE_DEPENDENCY:
        for m in (giver, provider):
            promises.append(Promise(m, hub, "member", Polarity.OFFER))
            promises.append(Promise(hub, m, "member", Polarity.ACCEPT))
    return PromiseGraph([Agent(i) for i in ids], promises), probe


def test_criterion_8_queue_stability():
    with criterion(8, "queue_stability"):
        rng = random.Random(88)
        for _ in range(100):
            mu = rng.uniform(0.0, 10.0)
            lam = mu + rng.uniform(0.0, 10.0)
            try:
                uslkit.response_time(QueueParams(lam=lam, mu=mu))
            except QueueInstabilityError:
                pass
            else:
                raise AssertionError(f"lam={lam} >= mu={mu} must be rejected")
        for _ in range(100):
            mu = rng.uniform(0.1, 10.0)
            lam = rng.uniform(0.0, mu * 0.999)
            got = uslkit.response_time(QueueParams(lam=lam, mu=mu))
            want = 1.0 / (mu - lam)
            assert abs(got - want) <= 1e-12 * want, (lam, mu)
