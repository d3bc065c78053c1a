import gc
import importlib.util
import io
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import _run_isolated, mutated_graph_text

from commscale import cli, promisegraph
from commscale.errors import DomainError, GraphFormatError, UnknownAgentError
from commscale.graphio import emit_graph, parse_graph
from commscale.promisegraph import Agent, Binding, Polarity, Promise, PromiseGraph

SAMPLE = """\
# a three-party research arrangement
agent company 1.0
agent researcher 0.9
agent university 0.75

promise university researcher lab_access + *
promise researcher university lab_access - *
promise researcher company patent + design,prototype | lab_access
promise company researcher patent - design
"""


class TestParse:
    def test_sample_contents(self):
        g = parse_graph(SAMPLE)
        assert g.agent_ids() == ["company", "researcher", "university"]
        assert g.agent("university").assessment == 0.75
        assert len(g.promises) == 4
        patent_offer = [p for p in g.promises if p.type_tag == "patent" and p.polarity is Polarity.OFFER]
        assert patent_offer[0].constraint == frozenset({"design", "prototype"})
        assert patent_offer[0].condition == ("lab_access",)

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# only a comment\nagent a 1.0   # trailing comment\n\n"
        g = parse_graph(text)
        assert g.agent_ids() == ["a"]

    def test_order_independent(self):
        reordered = "\n".join(reversed(SAMPLE.strip().splitlines())) + "\n"
        assert parse_graph(reordered) == parse_graph(SAMPLE)

    def test_calibration_passthrough(self):
        assert parse_graph(SAMPLE, calibration=3.5).calibration == 3.5
        assert parse_graph(SAMPLE).calibration == 1.0

    def test_empty_text_is_empty_graph(self):
        g = parse_graph("")
        assert g.agents == () and g.promises == ()

    def test_equal_tokens_are_one_string_object(self):
        # str.split makes a new object of each multi-character token, so equal tokens are distinct until interned.
        g = parse_graph("agent alice 1.0\nagent bob 1.0\npromise alice bob svc + bob,xy | svc\n"
                        "promise bob alice svc - xy\npromise alice bob svc + alice\n")
        tokens = [a.id for a in g.agents]
        for p in g.promises:
            tokens += [p.giver, p.receiver, p.type_tag, *p.constraint, *p.condition]
        assert len({id(t) for t in tokens}) == len(set(tokens)) == 4


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("agent a\n", "line 1"),
            ("agent a 1.0 extra\n", "line 1"),
            ("agent a not-a-number\n", "not a number"),
            ("agent a 1.5\n", "line 1: assessment must be a real number in [0, 1], got 1.5"),
            ("agent b 1.0\nagent a -1\n", "line 2: assessment must be a real number in [0, 1], got -1.0"),
            ("agent a nan\n", "line 1: assessment must be a real number in [0, 1], got nan"),
            ("agent a inf\n", "line 1: assessment must be a real number in [0, 1], got inf"),
            ("agent a 1.0\nagent a 0.5\n", "first declared on line 1"),
            ("widget a b\n", "unknown record"),
            ("agent a 1.0\npromise a a svc ? *\n", "polarity"),
            ("agent a 1.0\npromise a a svc +\n", "promise records"),
            ("agent a 1.0\npromise a a svc + * | x | y\n", "promise records"),
            ("agent a 1.0\npromise a a svc + ,\n", "empty entry"),
            ("agent a 1.0\npromise a b svc + *\n", "undeclared agent 'b'"),
        ],
    )
    def test_bad_records(self, text, fragment):
        with pytest.raises(GraphFormatError, match=None) as err:
            parse_graph(text)
        assert fragment in str(err.value)

    def test_error_reports_the_right_line(self):
        text = "agent a 1.0\nagent b 1.0\n\nbogus\n"
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize(
        "bad_line,fragment",
        [
            ("promise a|x b svc + x,y | c", "invalid agent id 'a|x'"),
            ("promise a b svc|x + x,y | c", "invalid promise type 'svc|x'"),
            ("promise a b svc + x,y|z | c", "invalid constraint entry 'y|z'"),
            ("promise a b svc + x,y | c,d|e", "invalid condition entry 'd|e'"),
        ],
        ids=["agent-id", "type", "constraint", "condition"],
    )
    def test_invalid_token_after_many_valid_repeats_names_its_line(self, bad_line, fragment):
        # Lines 3-4999 repeat every field of the bad line in valid form, so
        # each token and csv field is seen thousands of times before it.
        lines = ["agent a 1.0", "agent b 1.0"] + ["promise a b svc + x,y | c"] * 4997 + [bad_line]
        with pytest.raises(GraphFormatError) as err:
            parse_graph("\n".join(lines) + "\n")
        assert str(err.value).startswith("line 5000: ")
        assert fragment in str(err.value)


class TestEmit:
    def test_canonical_round_trip_is_byte_identical(self):
        g = parse_graph(SAMPLE)
        canonical = emit_graph(g)
        assert emit_graph(parse_graph(canonical)) == canonical

    def test_round_trip_preserves_graph(self):
        g = parse_graph(SAMPLE, calibration=2.0)
        assert parse_graph(emit_graph(g), calibration=2.0) == g

    def test_non_string_type_is_domain_error(self):
        # Unchecked, a type of 5 reaches the emitter's token check as a TypeError.
        with pytest.raises(DomainError, match="giver, receiver and type must be strings"):
            emit_graph(PromiseGraph([Agent("a"), Agent("b")], [Promise("a", "b", 5, Polarity.OFFER)]))

    def test_negative_zero_assessment_emits_as_zero(self):
        # The two graphs are equal, so their canonical text is too.
        assert parse_graph("agent a -0.0\n") == parse_graph("agent a 0.0\n")
        assert emit_graph(parse_graph("agent a -0.0\n")) == "agent a 0.0\n"
        assert emit_graph(PromiseGraph([Agent("a", -0.0)])) == "agent a 0.0\n"

    def test_agents_sorted_then_promises(self):
        g = PromiseGraph([Agent("b"), Agent("a", 0.5)], [Promise("b", "a", "svc", Polarity.OFFER)])
        assert emit_graph(g) == "agent a 0.5\nagent b 1.0\npromise b a svc + *\n"

    def test_constraint_and_condition_sorted(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [Promise("a", "b", "svc", Polarity.OFFER, frozenset({"z", "x"}), ("q", "c"))],
        )
        assert "promise a b svc + x,z | c,q\n" in emit_graph(g)

    def test_constraint_orders_promises_before_condition(self):
        # Promises that tie on (giver, receiver, type, polarity) are ordered
        # by their sorted constraint entries first, then by their condition.
        text = (
            "agent a 1.0\nagent b 1.0\n"
            "promise a b svc + x | c\n"
            "promise a b svc + y\n"
            "promise a b svc - a,z | c\n"
            "promise a b svc - m\n"
        )
        assert emit_graph(parse_graph(text)) == text

    def test_empty_graph_emits_empty_string(self):
        assert emit_graph(PromiseGraph([])) == ""

    def test_reserved_characters_rejected_on_emit(self):
        g = PromiseGraph([Agent("a,b")])
        with pytest.raises(GraphFormatError):
            emit_graph(g)

    @pytest.mark.parametrize(
        "bad,fragment",
        [
            ({"type_tag": "svc|x"}, "invalid promise type"),
            ({"constraint": frozenset({"x", "y z"})}, "invalid constraint entry"),
            ({"condition": ("c", "d,e")}, "invalid condition entry"),
        ],
        ids=["type", "constraint", "condition"],
    )
    def test_invalid_token_on_a_later_promise_rejected(self, bad, fragment):
        good = Promise("a", "b", "svc", Polarity.OFFER, frozenset({"x", "y"}), ("c", "d"))
        fields = {"giver": "b", "receiver": "a", "type_tag": "svc", "polarity": Polarity.OFFER,
                  "constraint": frozenset({"x", "y"}), "condition": ("c", "d")}
        later = Promise(**{**fields, **bad})
        g = PromiseGraph([Agent("a"), Agent("b")], [good, later])
        assert g.promises == (good, later)
        with pytest.raises(GraphFormatError) as err:
            emit_graph(g)
        assert fragment in str(err.value)

    def test_random_graphs_round_trip(self):
        rng = random.Random(7)
        tags = ["s", "t", "member"]
        bodies = ["*", "x", "y", "z"]
        for _ in range(50):
            n = rng.randint(1, 8)
            ids = [f"n{i}" for i in range(n)]
            agents = [Agent(i, round(rng.random(), 6)) for i in ids]
            promises = []
            for _ in range(rng.randint(0, 20)):
                cond = tuple(rng.sample(tags, rng.randint(0, 2)))
                promises.append(
                    Promise(
                        rng.choice(ids),
                        rng.choice(ids),
                        rng.choice(tags),
                        rng.choice(list(Polarity)),
                        frozenset(rng.sample(bodies, rng.randint(1, 3))),
                        cond,
                    )
                )
            g = PromiseGraph(agents, promises)
            text = emit_graph(g)
            assert parse_graph(text) == g
            assert emit_graph(parse_graph(text)) == text


_TOKENS = st.sampled_from(["*", "x", "y", "z", "svc", "member", "q"])
_IDS = [f"n{i}" for i in range(6)]


@st.composite
def graphs_sharing_constraint_sets(draw):
    """Graphs whose promises draw their constraint sets and conditions from small pools."""
    chis = draw(st.lists(st.frozensets(_TOKENS, min_size=1, max_size=3), min_size=1, max_size=3))
    conds = draw(st.lists(st.lists(_TOKENS, max_size=3).map(tuple), min_size=1, max_size=3))
    ids = _IDS[: draw(st.integers(1, len(_IDS)))]
    agents = [Agent(i, draw(st.floats(0, 1))) for i in ids]
    promise = st.builds(
        Promise,
        st.sampled_from(ids),
        st.sampled_from(ids),
        st.sampled_from(["svc", "member", "t"]),
        st.sampled_from(list(Polarity)),
        st.sampled_from(chis),
        st.sampled_from(conds),
    )
    return PromiseGraph(agents, draw(st.lists(promise, max_size=30)))


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(graphs_sharing_constraint_sets())
    def test_emit_parse_round_trip(self, g):
        text = emit_graph(g)
        again = parse_graph(text)
        assert again == g
        assert emit_graph(again) == text


SEED_TOKEN = re.compile(r"[^\s,|#]+\Z")


def seed_parse_graph(text, calibration=1.0):
    """Reference parser: one Promise per line, endpoints checked after the loop, then the public PromiseGraph."""

    def token(t, what, lineno):
        if not SEED_TOKEN.match(t):
            raise GraphFormatError(f"line {lineno}: invalid {what} {t!r} (whitespace, ',', '|' and '#' are reserved)")
        return t

    def csv(field, what, lineno):
        parts = field.split(",")
        if any(not p for p in parts):
            raise GraphFormatError(f"line {lineno}: empty entry in {what} {field!r}")
        return [token(p, f"{what} entry", lineno) for p in parts]

    agents, agent_lines, promises = {}, {}, []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "agent":
            if len(fields) != 3:
                raise GraphFormatError(f"line {lineno}: agent records take exactly 2 fields, got {len(fields) - 1}")
            agent_id = token(fields[1], "agent id", lineno)
            if agent_id in agents:
                raise GraphFormatError(
                    f"line {lineno}: duplicate agent {agent_id!r} (first declared on line {agent_lines[agent_id]})"
                )
            try:
                alpha = float(fields[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: assessment {fields[2]!r} is not a number") from None
            if not 0 <= alpha <= 1:
                raise GraphFormatError(f"line {lineno}: assessment must be a real number in [0, 1], got {alpha!r}")
            agents[agent_id] = Agent(agent_id, alpha)
            agent_lines[agent_id] = lineno
        elif fields[0] == "promise":
            if len(fields) == 8 and fields[6] == "|":
                condition = csv(fields[7], "condition", lineno)
            elif len(fields) == 6:
                condition = ()
            else:
                raise GraphFormatError(
                    f"line {lineno}: promise records take 5 fields plus an optional '| <cond-csv>', got {line!r}"
                )
            giver = token(fields[1], "agent id", lineno)
            receiver = token(fields[2], "agent id", lineno)
            type_tag = token(fields[3], "promise type", lineno)
            polarity = {"+": Polarity.OFFER, "-": Polarity.ACCEPT}.get(fields[4])
            if polarity is None:
                raise GraphFormatError(f"line {lineno}: polarity must be '+' or '-', got {fields[4]!r}")
            constraint = frozenset(csv(fields[5], "constraint", lineno))
            promises.append((lineno, Promise(giver, receiver, type_tag, polarity, constraint, condition)))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {fields[0]!r} (expected 'agent' or 'promise')")
    for lineno, p in promises:
        for endpoint in (p.giver, p.receiver):
            if endpoint not in agents:
                raise GraphFormatError(f"line {lineno}: promise references undeclared agent {endpoint!r}")
    return PromiseGraph(agents.values(), [p for _, p in promises], calibration)


def assert_parses_like_seed(text, calibration=1.0):
    try:
        expected = seed_parse_graph(text, calibration)
    except DomainError as exc:
        with pytest.raises(DomainError) as err:
            parse_graph(text, calibration)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
    else:
        g = parse_graph(text, calibration)
        assert g == expected
        # The merge table the parser hands on, in graph order, is the one the public constructor builds from the same
        # graph.
        ordered = list(promisegraph._graph_order(g._table).items())
        built = PromiseGraph(g.agents, g.promises, g.calibration)
        assert ordered == list(promisegraph._graph_order(built._table).items())
        assert [(p._key(), p.constraint) for p in g.promises] == ordered


def seed_emit_graph(graph):
    """Reference writer: one line per item of graph.promises, each token checked as the line is written."""

    def token(t, what):
        if not SEED_TOKEN.match(t):
            raise GraphFormatError(f"invalid {what} {t!r} (whitespace, ',', '|' and '#' are reserved)")
        return t

    lines = [f"agent {token(a, 'agent id')} {graph.agent(a).assessment!r}" for a in graph.agent_ids()]
    for p in graph.promises:
        line = (f"promise {p.giver} {p.receiver} {token(p.type_tag, 'promise type')} {p.polarity.value} "
                + ",".join(token(t, "constraint entry") for t in sorted(p.constraint)))
        if p.condition:
            line += " | " + ",".join(token(t, "condition entry") for t in p.condition)
        lines.append(line)
    return "".join(line + "\n" for line in lines)


# Tokens and types of which some hold a character the grammar reserves.
_RESERVED_TOKENS = st.sampled_from(["*", "x", "y", "a b", "c,d", "p|q", "h#"])


@st.composite
def graphs_with_reserved_tokens(draw):
    """(agents, promises) for the public constructor, with reserved characters in types, constraints and conditions."""
    ids = _IDS[: draw(st.integers(1, 4))]
    promise = st.builds(
        Promise,
        st.sampled_from(ids),
        st.sampled_from(ids),
        st.sampled_from(["s", "t", "t|u", "v w"]),
        st.sampled_from(list(Polarity)),
        st.frozensets(_RESERVED_TOKENS, min_size=1, max_size=3),
        st.lists(_RESERVED_TOKENS, max_size=2).map(tuple),
    )
    return [Agent(i) for i in ids], draw(st.lists(promise, max_size=12))


class TestEmitMatchesSeedWriter:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_reserved_tokens())
    def test_text_or_first_bad_token_in_graph_order(self, agents_and_promises):
        # Each writer gets a graph of its own, so emit_graph starts from a table not yet in graph order.
        def written(write):
            try:
                return write(PromiseGraph(*agents_and_promises))
            except GraphFormatError as exc:
                return str(exc)

        assert written(emit_graph) == written(seed_emit_graph)


def _bench_inputs():
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


BENCH_INPUTS = _bench_inputs()


class TestAgentsAsAssessments:
    """A graph keeps each agent as its assessment; an Agent record is built only when one is read."""

    def test_graph_commands_build_no_agent_record(self, monkeypatch):
        org = BENCH_INPUTS.org_graph(7)
        giver, receiver, type_tag, threshold, _ = org.classify[0]
        members, super_id, _ = org.aggregates[0]
        commands = [
            ["value", "--calibration", "2.0"], ["bindings"], ["reduce"],
            ["classify", "--giver", giver, "--receiver", receiver, "--type", type_tag, "--threshold", repr(threshold)],
            ["aggregate", "--members", ",".join(members), "--super-id", super_id],
            ["community", "--authority", org.community[0]],
        ]
        built = []
        init = Agent.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Agent, "__init__", counted)
        assert [_run_isolated(["graph", *argv], org.text)[0] for argv in commands] == [0] * len(commands)
        assert built == []
        # The records are still there to read.
        assert len(parse_graph(org.text).agents) == len(built) == org.text.count("agent ")

    @pytest.mark.parametrize("alpha,emitted", [("-0.0", "0.0"), ("0", "0.0"), ("1", "1.0"), ("5e-324", "5e-324")])
    def test_edge_assessments_parse_and_emit_as_records(self, alpha, emitted):
        g = parse_graph(f"agent b 1.0\nagent a {alpha}\n")
        assert emit_graph(g) == f"agent a {emitted}\nagent b 1.0\n"
        assert math.copysign(1.0, g.agent("a").assessment) == 1.0
        assert g.agent("a") == Agent("a", float(alpha)) and g.agents == (Agent("b"), Agent("a", float(alpha)))

    def test_agents_view_holds_the_records_in_read_order(self):
        g = parse_graph("agent c 0.25\nagent a 1.0\nagent b 0.5\npromise c a s + *\n")
        assert "agents" not in vars(g)
        assert g.agents == (Agent("c", 0.25), Agent("a"), Agent("b", 0.5)) and g.agents is g.agents
        assert [g.agent(a) for a in g.agent_ids()] == [Agent("a"), Agent("b", 0.5), Agent("c", 0.25)]
        with pytest.raises(UnknownAgentError, match="unknown agent 'd'"):
            g.agent("d")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1 - 2 ** -53]), min_size=1, max_size=5),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(list(Polarity))), max_size=8))
    def test_constructor_equals_its_round_trip(self, alphas, rows):
        agents = [Agent(f"a{i}", alpha) for i, alpha in enumerate(alphas)]
        promises = [Promise(f"a{g % len(alphas)}", f"a{r % len(alphas)}", "s", pol) for g, r, pol in rows]
        g = PromiseGraph(agents, promises)
        assert parse_graph(emit_graph(g)) == g and g.agents == tuple(agents)


class TestParseMatchesSeedParser:
    """parse_graph returns the graph, or raises the error, of the line-at-a-time reference parser."""

    @settings(max_examples=300, deadline=None)
    @given(text=mutated_graph_text())
    @example("agent a 1.0\npromise  a\tb   svc\t+ *  |  \n")
    @example("agent a 1.0\n  promise a \t b svc + * | x | y   # two bars\n")
    @example("promise x y svc + *\nagent a 1.0\n")
    @example("agent x 1.0\npromise x y svc + *\npromise z x svc - *\n")
    @example("promise x y svc + *\nbogus\n")
    @example("agent a 1.0\npromise a a svc + x,y|z\tq\n")
    # The same records split in C (no '#' in the text) and line by line (a '#' anywhere).
    @example("agent a 1.0\nagent b 0.5\npromise a b svc + x,y | c\npromise b a svc - y\npromise a b svc + z | c\n")
    @example("agent a 1.0\nagent b 0.5\npromise a b svc + x,y | c\npromise b a svc - y\npromise a b svc + z | c\n#\n")
    # Every line break str.splitlines knows, on both split paths.
    @example("agent a 1.0\r\npromise a a svc + *\rpromise a a svc - x\x0cagent b 1.0\x1cpromise b a svc + x"
             "\u2028promise a b svc - x\n")
    @example("agent a 1.0\r\npromise a a svc + *\rpromise a a svc - x#\x0cagent b 1.0\x1cpromise b a svc + x"
             "\u2028promise a b svc - x # b\u2028bogus\n")
    # An 8-field promise followed by a comment.
    @example("agent a 1.0\npromise a a svc + x | c # note\npromise a a svc - x | c#note\n")
    # Bad or unknown fields on a line whose other tokens were all seen before take the slow path's checks.
    @example("agent a 1.0\npromise a a svc + x | c\npromise a a svc ? x | c\n")
    @example("agent a 1.0\npromise a a svc + x | c\npromise a a svc - x | c\npromise a a svc + x | a|c\n")
    @example("agent a 1.0\npromise a a svc + x | c\npromise a a svc + x,a | c\npromise a a svc + x | svc\n")
    @example("agent a 1.0\npromise a a svc + x\npromise a svc a + x\npromise a b svc ? x\n")
    @example("agent a 1.0\npromise a a svc + x\npromise a a svc - x,\n")
    # Several bad fields on one line: the first in the order condition, giver, receiver, type, polarity, constraint
    # names the error.
    @example("agent a 1.0\npromise a a svc + x | c\npromise a|b a svc ? x,, | c|d\n")
    @example("agent a 1.0\npromise a a svc + x\npromise a a|b s|v ? x,\n")
    @example("agent a 1.0\npromise a a svc + x\npromise a a s|v ? x,\n")
    @example("agent a 1.0\npromise a a svc + x\npromise a a svc ? x,\n")
    def test_mutated_text(self, text):
        assert_parses_like_seed(text)

    def test_undeclared_endpoint_wins_over_a_bad_calibration(self):
        assert_parses_like_seed("agent a 1.0\npromise a b svc + *\n", math.nan)
        assert_parses_like_seed("agent a 1.0\npromise a a svc + *\n", math.nan)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_meshes(self, seed):
        for shape in [(8, 1.0, 0.1, 1.0), (24, 0.3, 0.3, 2.5)]:
            mesh = BENCH_INPUTS.mesh(seed, *shape)
            assert_parses_like_seed(mesh.text, mesh.calibration)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_org_graphs(self, seed):
        assert_parses_like_seed(BENCH_INPUTS.org_graph(seed, chain_depth=30, ladder_depth=4, community=8).text)


class TestRecordsOnRequest:
    """graph value, bindings and reduce read the merge table: they build no Promise and no Binding record, and
    graph classify builds only the record of the offer it classifies."""

    TEXTS = {
        "thinned-mesh": BENCH_INPUTS.mesh(3, 24, 0.3, 0.3, 2.5).text,
        "mesh-with-conditional": BENCH_INPUTS.mesh_with_conditional_offer(8),
    }

    @staticmethod
    def count_inits(monkeypatch):
        counts = {Promise: 0, Binding: 0}
        for cls in counts:
            def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                counts[_cls] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        return counts

    @pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
    @pytest.mark.parametrize("command", [["value", "--calibration", "2.5"], ["bindings", "--calibration", "2.5"],
                                         ["reduce"]], ids=["value", "bindings", "reduce"])
    def test_graph_commands_build_no_records(self, monkeypatch, capsys, text, command):
        counts = self.count_inits(monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli.main(["graph", *command]) == 0
        assert capsys.readouterr().out != "[]\n"
        assert counts == {Promise: 0, Binding: 0}

    @pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
    def test_graph_classify_builds_one_record(self, monkeypatch, capsys, text):
        giver, receiver, type_tag, _, _ = next(key for key in reversed(parse_graph(text)._table) if not key[3])
        counts = self.count_inits(monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli.main(["graph", "classify", "--giver", giver, "--receiver", receiver, "--type", type_tag]) == 0
        assert json.loads(capsys.readouterr().out)["class"]
        assert counts == {Promise: 1, Binding: 0}

    @pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
    def test_graph_value_values_each_binding_once(self, monkeypatch, capsys, text):
        calls = []
        calibration_for = PromiseGraph.calibration_for
        monkeypatch.setattr(PromiseGraph, "calibration_for", lambda g, t: calls.append(t) or calibration_for(g, t))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli.main(["graph", "value", "--calibration", "2.5"]) == 0
        bindings = json.loads(capsys.readouterr().out)["bindings"]
        assert len(calls) == bindings > 0

    @pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
    def test_parse_builds_the_records_on_the_first_read_of_promises(self, monkeypatch, text):
        counts = self.count_inits(monkeypatch)
        g = parse_graph(text)
        assert counts == {Promise: 0, Binding: 0}
        promises = g.promises
        assert g.promises is promises
        assert counts == {Promise: len(promises), Binding: 0} and len(promises) == len(g._table) > 0


class TestOrderOnOutput:
    """A merge table is put in graph order only to be written: graph value, bindings and classify order none, and
    graph reduce orders one, the table it emits."""

    @pytest.mark.parametrize("text", TestRecordsOnRequest.TEXTS.values(), ids=TestRecordsOnRequest.TEXTS.keys())
    @pytest.mark.parametrize("command,orderings", [(["value", "--calibration", "2.5"], 0),
                                                   (["bindings", "--calibration", "2.5"], 0), (["classify"], 0),
                                                   (["reduce"], 1)], ids=["value", "bindings", "classify", "reduce"])
    def test_full_table_orderings(self, monkeypatch, capsys, text, command, orderings):
        if command == ["classify"]:
            # The last offer read: on the mesh with a conditional offer, that offer.
            giver, receiver, type_tag, _, _ = next(key for key in reversed(parse_graph(text)._table) if not key[3])
            command = [*command, "--giver", giver, "--receiver", receiver, "--type", type_tag]
        sizes = []
        graph_order = promisegraph._graph_order
        monkeypatch.setattr(promisegraph, "_graph_order", lambda table: sizes.append(len(table)) or graph_order(table))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli.main(["graph", *command]) == 0
        assert capsys.readouterr().out not in ("", "[]\n")
        assert len(sizes) == orderings


class TestReadsKeepReadOrder:
    def test_no_read_reorders_a_graph(self):
        # Read order is not graph order: agents, givers, polarities and constraint sets all come out of order.
        text = ("agent b 1.0\nagent a 0.5\npromise b a s + *\npromise a b s - x,*\npromise a b s + x\n"
                "promise a b s + *\npromise b a s - *\npromise a b t + * | s\n")
        g = parse_graph(text)
        read_order = list(g._table)
        assert read_order != list(promisegraph._graph_order(g._table))
        reads = [lambda: g.promises, lambda: promisegraph.find_bindings(g),
                 lambda: promisegraph.find_offer(g, "a", "b", "s"), lambda: emit_graph(g)]
        for read in reads:
            read()
            assert list(g._table) == read_order


class TestCommandsLeaveNoCycles:
    """What a command builds is freed by reference counting, which is why cli.main may pause the cyclic collector:
    with the collector off, the cycles a command leaves do not grow with its input (json's indented encoder leaves
    a fixed few; a usage error's exception leaves a few more)."""

    @staticmethod
    def commands(n_agents):
        mesh = BENCH_INPUTS.mesh(n_agents, n_agents, 1.0, 0.1, 2.0).text
        org = BENCH_INPUTS.org_graph(n_agents, chain_depth=n_agents, ladder_depth=4, community=n_agents // 2)
        giver, receiver, type_tag, threshold, _ = org.classify[0]
        members, super_id, _ = org.aggregates[0]
        ensemble = ["ensemble", "--class", "interaction", "--D", "2", "--H", "1", "--n", str(25 * n_agents)]
        usl = BENCH_INPUTS.usl_curve(random.Random(n_agents), True, n_agents)[0]
        return {
            "value": (["graph", "value", "--calibration", "2"], mesh),
            "bindings": (["graph", "bindings"], mesh),
            "reduce": (["graph", "reduce"], org.text),
            "classify": (["graph", "classify", "--giver", giver, "--receiver", receiver, "--type", type_tag,
                          "--threshold", repr(threshold)], org.text),
            "aggregate": (["graph", "aggregate", "--members", ",".join(members), "--super-id", super_id], org.text),
            "community": (["graph", "community", "--authority", org.community[0]], org.text),
            "ensemble": (ensemble, ""),
            "fit": (["fit"], _run_isolated(ensemble)[1]),
            "usl-fit": (["usl-fit"], usl),
            "usage-error": (["usl-eval", "--contention", "0.1"], ""),
        }

    def test_cycles_left_do_not_grow_with_the_input(self):
        was = gc.isenabled()
        gc.disable()
        try:
            left = {}
            # The first run of a command in a process leaves one-time cycles (caches, imports); a warm-up round at
            # the smallest size takes them, and only the two rounds after it are compared.
            for n_agents in (10, 10, 40):
                for name, (argv, stdin_text) in self.commands(n_agents).items():
                    gc.collect()
                    code = _run_isolated(argv, stdin_text)[0]
                    left.setdefault(name, []).append((code, gc.collect()))
        finally:
            if was:
                gc.enable()
        left = {name: runs[1:] for name, runs in left.items()}
        assert all(small == large for small, large in left.values()), left
        assert all(code == (2 if name == "usage-error" else 0) for name, ((code, _), _) in left.items())
