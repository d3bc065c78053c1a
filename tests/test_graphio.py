import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commscale.errors import GraphFormatError
from commscale.graphio import emit_graph, parse_graph
from commscale.promisegraph import Agent, Polarity, Promise, PromiseGraph

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


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("agent a\n", "line 1"),
            ("agent a 1.0 extra\n", "line 1"),
            ("agent a not-a-number\n", "not a number"),
            ("agent a 1.5\n", "must be in [0, 1]"),
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
