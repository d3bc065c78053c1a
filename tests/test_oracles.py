"""The program held against the independent oracles of bench/oracles.py on random inputs.

bench/oracles.py shares no code with commscale: it reads graph text
with a parser of its own, discharges conditions by a worklist fixed
point and redraws ensembles from numpy's Philox. The benchmark runs it
only on the workloads' own inputs; here it is imported (never written),
as tests/test_golden.py imports bench/digest.py, and fed random graphs
and ensembles.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from commscale import ensemble, graphio, promisegraph
from commscale.ensemble import EnsembleSpec
from commscale.meanfield import ScalingClass, ScalingParams

_SPEC = importlib.util.spec_from_file_location(
    "bench_oracles", Path(__file__).resolve().parents[1] / "bench" / "oracles.py")
oracles = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracles)

AGENTS = [f"a{i}" for i in range(6)]
# Two promise types that double as conditions, so that discharge fires often.
TYPES = ["s", "t"]


@st.composite
def graph_texts(draw):
    """Graph text of 1-6 agents, each giving up to 5 promises, about 35% of them conditional.

    Half the offers come with the receiver's unconditional accept, so that
    bindings and supply chains form often.
    """
    ids = AGENTS[:draw(st.integers(1, 6))]
    lines = [f"agent {a} {draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))!r}" for a in ids]
    for giver in ids:
        for _ in range(draw(st.integers(0, 5))):
            receiver, tag, sign = draw(st.sampled_from(ids)), draw(st.sampled_from(TYPES)), draw(st.sampled_from("+-"))
            chi = ",".join(draw(st.lists(st.sampled_from("*x"), min_size=1, unique=True)))
            line = f"promise {giver} {receiver} {tag} {sign} {chi}"
            if draw(st.integers(0, 19)) < 7:
                line += " | " + ",".join(draw(st.lists(st.sampled_from(TYPES), min_size=1, unique=True)))
            lines.append(line)
            if sign == "+" and draw(st.booleans()):
                lines.append(f"promise {receiver} {giver} {tag} - {chi}")
    return "\n".join(lines) + "\n"


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.sampled_from([1.0, 2.5, 1e-7, 3e20, 0.1]))
    def test_complete_unit_mesh_is_metcalfe(self, n, calibration):
        ids = [f"m{i}" for i in range(n)]
        text = "".join(f"agent {a} 1.0\n" for a in ids) + "".join(
            f"promise {a} {b} svc + *\npromise {b} {a} svc - *\n" for a in ids for b in ids if a != b)
        assert len(oracles.Graph.parse(text).reduced().bindings()) == n * (n - 1)
        assert promisegraph.total_value(graphio.parse_graph(text, calibration)) == n * (n - 1) * calibration


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
