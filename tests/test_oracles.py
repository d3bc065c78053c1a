"""The program held against the independent oracles of bench/oracles.py on random inputs.

bench/oracles.py shares no code with commscale: it reads graph text
with a parser of its own, discharges conditions by a worklist fixed
point and redraws ensembles from numpy's Philox. The benchmark runs it
only on the workloads' own inputs; here it is imported (never written),
as tests/test_golden.py imports bench/digest.py, and fed random graphs,
ensembles and the speedup curves of bench/inputs.py.
"""

import contextlib
import importlib.util
import io
import json
import math
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _run_isolated

from commscale import cli, ensemble, graphio, promisegraph
from commscale.ensemble import EnsembleSpec
from commscale.meanfield import ScalingClass, ScalingParams


def _bench_module(name):
    """bench/<name>.py imported as bench_<name>, registered in sys.modules first, as dataclasses need."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles, inputs = _bench_module("oracles"), _bench_module("inputs")

AGENTS = [f"a{i}" for i in range(6)]
# Two promise types that double as conditions, so that discharge fires often.
TYPES = ["s", "t"]


@st.composite
def graph_texts(draw, types=TYPES):
    """Graph text of 1-6 agents, each giving up to 5 promises of types, about 35% of them conditional on types.

    Half the offers come with the receiver's unconditional accept, so that
    bindings and supply chains form often.
    """
    ids = AGENTS[:draw(st.integers(1, 6))]
    lines = [f"agent {a} {draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))!r}" for a in ids]
    for giver in ids:
        for _ in range(draw(st.integers(0, 5))):
            receiver, tag, sign = draw(st.sampled_from(ids)), draw(st.sampled_from(types)), draw(st.sampled_from("+-"))
            chi = ",".join(draw(st.lists(st.sampled_from("*x"), min_size=1, unique=True)))
            line = f"promise {giver} {receiver} {tag} {sign} {chi}"
            if draw(st.integers(0, 19)) < 7:
                line += " | " + ",".join(draw(st.lists(st.sampled_from(types), min_size=1, unique=True)))
            lines.append(line)
            if sign == "+" and draw(st.booleans()):
                lines.append(f"promise {receiver} {giver} {tag} - {chi}")
    return "\n".join(lines) + "\n"


# The --calibration of graph value and graph bindings: a finite float of either sign, small enough that no total of
# graph_texts() leaves the float range.
CALIBRATIONS = st.floats(-1e6, 1e6)


class TestGraphsAgainstTheFixedPointOracle:
    @settings(max_examples=300, deadline=None)
    @given(graph_texts())
    def test_reduce_is_the_oracles_fixed_point(self, text):
        out = graphio.emit_graph(promisegraph.reduce_conditionals(graphio.parse_graph(text)))
        oracles.check_graph_reduce(out, oracles.Graph.parse(text))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_aggregate_is_the_oracles_restricted_fixed_point(self, data):
        text = data.draw(graph_texts())
        g = oracles.Graph.parse(text)
        members = data.draw(st.lists(st.sampled_from(sorted(g.agents)), min_size=1, unique=True))
        out = graphio.emit_graph(promisegraph.aggregate(graphio.parse_graph(text), members, "S"))
        # The superagent's assessment is the program's own; the oracle checks the promises around it.
        oracles.check_graph_aggregate(out, g, members, "S", None)

    # The binding values and totals of graph value and graph bindings, through cli.main: the JSON writer's 12-digit
    # rounding is part of the run.
    @settings(max_examples=300, deadline=None)
    @given(graph_texts(), CALIBRATIONS)
    def test_value_passes_check_graph_value(self, text, calibration):
        code, out = _main(["graph", "value", f"--calibration={calibration!r}"], text)
        assert code == 0
        oracles.check_graph_value(out, oracles.Graph.parse(text), calibration)

    @settings(max_examples=300, deadline=None)
    @given(graph_texts(), CALIBRATIONS)
    def test_bindings_pass_check_graph_bindings(self, text, calibration):
        code, out = _main(["graph", "bindings", f"--calibration={calibration!r}"], text)
        assert code == 0
        oracles.check_graph_bindings(out, oracles.Graph.parse(text), calibration)

    @settings(max_examples=300, deadline=None)
    @given(graph_texts(), st.fixed_dictionaries({t: CALIBRATIONS for t in TYPES}))
    def test_per_type_calibration_values_each_binding_by_its_type(self, text, calibration):
        # The CLI takes only a scalar calibration, so a mapping is held to the oracle through the library.
        g = oracles.Graph.parse(text)
        graph = graphio.parse_graph(text, calibration)
        assert promisegraph.binding_values(graph) == [
            (giver, receiver, t, effective, calibration[t] * g.agents[giver] * g.agents[receiver])
            for giver, receiver, t, effective in g.bindings()]
        reduced = g.reduced()
        assert promisegraph.total_value(graph) == math.fsum(
            calibration[t] * reduced.agents[giver] * reduced.agents[receiver]
            for giver, receiver, t, _ in reduced.bindings())

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_community_passes_check_graph_community(self, data):
        text = data.draw(graph_texts(["member", "t"]))
        g = oracles.Graph.parse(text)
        authority = data.draw(st.sampled_from(sorted(g.agents)))
        # The members the oracle's own bindings give; check_graph_community holds the program's JSON to them.
        expected = sorted(b[0] for b in g.bindings() if b[2] == "member" and b[1] == authority)
        code, out = _main(["graph", "community", "--authority", authority], text)
        assert code == 0
        oracles.check_graph_community(out, g, authority, expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.sampled_from([1.0, 2.5, 1e-7, 3e20, 0.1]))
    def test_complete_unit_mesh_is_metcalfe(self, n, calibration):
        ids = [f"m{i}" for i in range(n)]
        text = "".join(f"agent {a} 1.0\n" for a in ids) + "".join(
            f"promise {a} {b} svc + *\npromise {b} {a} svc - *\n" for a in ids for b in ids if a != b)
        assert len(oracles.Graph.parse(text).reduced().bindings()) == n * (n - 1)
        assert promisegraph.total_value(graphio.parse_graph(text, calibration)) == n * (n - 1) * calibration


class TestLineOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_graph_commands_do_not_depend_on_line_order(self, data):
        text = data.draw(graph_texts())
        lines = text.splitlines()
        shuffled = "\n".join(data.draw(st.permutations(lines))) + "\n"
        agents = [line.split()[1] for line in lines if line.startswith("agent ")]
        offers = [line.split()[1:4] for line in lines if line.split()[4:5] == ["+"]]
        giver, receiver, type_tag = data.draw(st.sampled_from(offers)) if offers else (agents[0], agents[0], "s")
        members = data.draw(st.lists(st.sampled_from(agents), min_size=1, unique=True))
        calibration = f"--calibration={data.draw(CALIBRATIONS)!r}"
        commands = [
            ["graph", "value", calibration],
            ["graph", "bindings", calibration],
            ["graph", "reduce"],
            ["graph", "classify", "--giver", giver, "--receiver", receiver, "--type", type_tag],
            ["graph", "classify", "--giver", agents[0], "--receiver", agents[-1], "--type", "missing"],
            ["graph", "aggregate", "--members", ",".join(members), "--super-id", "S"],
            ["graph", "community", "--authority", data.draw(st.sampled_from(agents))],
        ]
        for argv in commands:
            assert _run_isolated(argv, text) == _run_isolated(argv, shuffled), argv


class TestEnsemblesAgainstTheDrawOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(2, 100), st.integers(1, 100))
    def test_generate_is_prefix_stable(self, seed, n, extra):
        def spec(n_samples):
            return EnsembleSpec(ScalingClass.INTERACTION, ScalingParams(D=2, H=1.0), n_samples=n_samples, seed=seed)

        ns, ys = ensemble.generate(spec(n + extra))
        assert ensemble.generate(spec(n)) == (ns[:n], ys[:n])
        # Every row is the oracle's fresh Philox draw keyed by (seed, row).
        oracles.check_ensemble(ensemble.samples_to_csv(ns, ys), "interaction", 2, 1.0, seed, n + extra, 0.1)

    # An ensemble written by the ensemble command and read back by the fit command, both through cli.main.
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_ensemble_then_fit_pass_check_fit(self, data):
        cls = data.draw(st.sampled_from(CLASSES), label="class")
        D, H = data.draw(dimensions(cls), label="D, H")
        seed, n = data.draw(st.integers(0, 2**64 - 1), label="seed"), data.draw(st.integers(2, 2000), label="n")
        noise = data.draw(st.one_of(st.just(0.0), st.floats(0, 2)), label="noise")
        code, csv = _main(["ensemble", f"--class={cls}", f"--D={D}", f"--H={H!r}", f"--n={n}", f"--noise={noise!r}",
                           f"--seed={seed}"], "")
        assert code == 0
        oracles.check_csv_roundtrip(csv)
        code, out = _main(["fit"], csv)
        assert code == 0
        oracles.check_fit(out, csv)


CLASSES = [c.value for c in ScalingClass]


@st.composite
def dimensions(draw, cls=None):
    """D in 1-50 and H in [0, D]; H = 1 for recursive_dependency, whose law holds there alone."""
    D = draw(st.integers(1, 50))
    return D, 1.0 if cls == "recursive_dependency" else draw(st.one_of(st.just(1.0), st.floats(0, D)))


class TestExponentsAgainstTheRationalOracle:
    """exponents and compare through cli.main, against the exact rationals of the oracle; the JSON writer's 12-digit
    rounding is part of the run."""

    @settings(max_examples=200, deadline=None)
    @given(dimensions())
    def test_exponents_pass_check_exponents(self, dims):
        D, H = dims
        code, out = _main(["exponents", f"--D={D}", f"--H={H!r}"], "")
        assert code == 0
        oracles.check_exponents(out, D, H)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_compare_passes_check_compare(self, data):
        cls = data.draw(st.sampled_from(CLASSES), label="class")
        D, H = data.draw(dimensions(), label="D, H")
        # k as the JSON writer prints it, since check_compare asks for it exactly.
        k = data.draw(st.floats(0, 100).map(lambda x: float(f"{x:.12g}")), label="k")
        fit_json = json.dumps(data.draw(st.fixed_dictionaries({
            "beta": st.floats(-5, 5), "log_intercept": st.floats(-50, 50), "r_squared": st.floats(0, 1),
            "stderr_beta": st.floats(0, 1), "n": st.integers(0, 10**6)}), label="fit"))
        code, out = _main(["compare", f"--class={cls}", f"--D={D}", f"--H={H!r}", f"--k={k!r}"], fit_json)
        if oracles.exponent(cls, D, H) is None:
            # recursive_dependency away from H = 1.
            assert code == 1
        else:
            assert code == 0
            oracles.check_compare(out, fit_json, cls, D, H, k)


def _main(argv, stdin_text):
    """(exit code, stdout) of cli.main(argv) run in this process with stdin_text on stdin."""
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


class TestUslFitAgainstTheCurveOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.booleans())
    def test_usl_fit_passes_check_usl_fit(self, seed, noisy):
        # The benchmark's curves at N = 1..64: exact ones give back their parameters, noisy ones a residual
        # no worse than at the parameters they were drawn from; the JSON writer's rounding is part of the run.
        text, params = inputs.usl_curve(random.Random(seed), noisy)
        code, out = _main(["usl-fit"], text)
        assert code == 0
        oracles.check_usl_fit(out, text, params, noisy)
