import copy
import gc
import itertools
import math
import pickle
import random
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracles import graph_texts

from commscale import promisegraph as pg
from commscale.errors import DomainError, UnknownAgentError
from commscale.graphio import emit_graph, parse_graph
from commscale.meanfield import ScalingClass
from commscale.promisegraph import Agent, Binding, Polarity, Promise, PromiseGraph


def offer(giver, receiver, tag, chi=("*",), cond=()):
    return Promise(giver, receiver, tag, Polarity.OFFER, frozenset(chi), tuple(cond))


def accept(giver, receiver, tag, chi=("*",), cond=()):
    return Promise(giver, receiver, tag, Polarity.ACCEPT, frozenset(chi), tuple(cond))


def pair(a, b, tag="svc"):
    """Offer a -> b plus matching accept b -> a: one binding."""
    return [offer(a, b, tag), accept(b, a, tag)]


def mesh_graph(n, calibration=1.0):
    agents = [Agent(f"a{i:02d}") for i in range(n)]
    promises = []
    for i in range(n):
        for j in range(n):
            if i != j:
                promises += pair(agents[i].id, agents[j].id)
    return PromiseGraph(agents, promises, calibration)


def supply_chain(depth):
    """d0000 offers 'prod' to 'out' once supplied with 'part' by d0001, which
    needs 'part' from d0002, and so on; the last link supplies unconditionally."""
    ids = [f"d{i:04d}" for i in range(depth)]
    promises = [offer(ids[0], "out", "prod", cond=("part",)), accept("out", ids[0], "prod")]
    for i in range(depth - 1):
        promises.append(offer(ids[i + 1], ids[i], "part", cond=("part",) if i + 2 < depth else ()))
        promises.append(accept(ids[i], ids[i + 1], "part"))
    return PromiseGraph([Agent(a) for a in ids] + [Agent("out")], promises), ids


def naive_reduce(graph):
    # Reference: re-derive every supplied (giver, type) pair from scratch
    # and discharge one level per sweep until a sweep changes nothing.
    promises = list(graph.promises)
    while True:
        supplied = {
            (a.giver, a.type_tag)
            for a in promises
            for o in promises
            if a.polarity is Polarity.ACCEPT
            and o.polarity is Polarity.OFFER
            and not a.conditional
            and not o.conditional
            and (o.giver, o.receiver, o.type_tag) == (a.receiver, a.giver, a.type_tag)
        }
        fired = [
            p.polarity is Polarity.OFFER and p.conditional and all((p.giver, d) in supplied for d in p.condition)
            for p in promises
        ]
        if not any(fired):
            return PromiseGraph(graph.agents, promises, graph.calibration)
        promises = [Promise(p.giver, p.receiver, p.type_tag, p.polarity, p.constraint) if f else p
                    for p, f in zip(promises, fired)]


def brute_force_bindings(graph):
    # Independent oracle: double loop over unconditional promise pairs.
    found = set()
    for o in graph.promises:
        if o.polarity is not Polarity.OFFER or o.conditional:
            continue
        for a in graph.promises:
            if a.polarity is not Polarity.ACCEPT or a.conditional:
                continue
            if (a.giver, a.receiver, a.type_tag) != (o.receiver, o.giver, o.type_tag):
                continue
            chi = o.constraint & a.constraint
            if chi:
                found.add((o._key(), a._key(), chi))
    return found


def naive_community(graph, authority, membership_type="member"):
    # Reference from the docstring: every giver whose membership offer to the
    # authority binds with the authority's accept back, over all promise pairs.
    return {
        o.giver
        for o in graph.promises
        for a in graph.promises
        if o.polarity is Polarity.OFFER
        and a.polarity is Polarity.ACCEPT
        and not o.conditional
        and not a.conditional
        and o.type_tag == a.type_tag == membership_type
        and o.receiver == a.giver == authority
        and a.receiver == o.giver
        and o.constraint & a.constraint
    }


def naive_classify(graph, stored, threshold=0.1, membership_type="member"):
    # Reference from the classify_pattern docstring, scanning every promise pair.
    if stored.conditional:
        needed = {stored.giver}
        for d in stored.condition:
            providers = {
                a.receiver
                for a in graph.promises
                for o in graph.promises
                if a.polarity is Polarity.ACCEPT
                and o.polarity is Polarity.OFFER
                and not a.conditional
                and not o.conditional
                and a.giver == o.receiver == stored.giver
                and a.receiver == o.giver
                and a.type_tag == o.type_tag == d
            }
            if not providers:
                break
            needed |= providers
        else:
            # The authority sits inside its own community.
            if any(needed <= naive_community(graph, u, membership_type) | {u} for u in graph.agent_ids()):
                return ScalingClass.RECURSIVE_DEPENDENCY
            return ScalingClass.SCARCE_DEPENDENCY
    consumers = {
        offer_key[1]
        for offer_key, _, _ in brute_force_bindings(graph)
        if offer_key[0] == stored.giver and offer_key[2] == stored.type_tag
    }
    others = len(graph.agents) - 1
    fraction = len(consumers) / others if others > 0 else 0.0
    return ScalingClass.INTERACTION if fraction >= threshold else ScalingClass.SCARCE_AGENT


class TestAgent:
    def test_assessment_bounds(self):
        with pytest.raises(DomainError):
            Agent("a", -0.1)
        with pytest.raises(DomainError):
            Agent("a", 1.1)

    def test_id_must_be_nonempty_string(self):
        with pytest.raises(DomainError):
            Agent("")

    def test_assessment_normalized_to_float(self):
        assert Agent("a", 1).assessment == 1.0
        assert isinstance(Agent("a", 1).assessment, float)

    @pytest.mark.parametrize("bad", ["0.5", None, "x", [0.5]], ids=repr)
    def test_non_numeric_assessment_is_domain_error(self, bad):
        with pytest.raises(DomainError, match="assessment"):
            Agent("a", bad)


class TestPromise:
    def test_constraint_defaults_to_catch_all(self):
        p = offer("a", "b", "svc")
        assert p.constraint == frozenset({pg.ANY_BODY})

    def test_constraint_must_be_nonempty(self):
        with pytest.raises(DomainError):
            Promise("a", "b", "svc", Polarity.OFFER, frozenset())

    def test_condition_sorted_and_deduped(self):
        p = offer("a", "b", "svc", cond=("z", "x", "z"))
        assert p.condition == ("x", "z")
        assert p.conditional

    def test_unconditional(self):
        assert not offer("a", "b", "svc").conditional

    def test_set_and_list_fields_are_normalised(self):
        p = Promise("a", "b", "svc", Polarity.OFFER, {"y", "x"}, [])
        assert type(p.constraint) is frozenset and p.constraint == {"x", "y"}
        assert p.condition == () and type(p.condition) is tuple
        assert Promise("a", "b", "svc", Polarity.OFFER, ["x"], ["q", "c", "q"]).condition == ("c", "q")

    def test_polarity_must_be_typed(self):
        with pytest.raises(DomainError):
            Promise("a", "b", "svc", "+")

    @pytest.mark.parametrize(
        "field, value", [("constraint", "xy"), ("constraint", "x"), ("condition", "xy"), ("condition", "x")]
    )
    def test_string_is_not_split_into_characters(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be a collection"):
            Promise("a", "b", "svc", Polarity.OFFER, **{field: value})

    def test_non_string_giver_is_domain_error(self):
        # Unchecked, an unhashable giver reaches the graph's endpoint lookup as a TypeError.
        with pytest.raises(DomainError, match=r"giver, receiver and type must be strings, got \['b'\], 'a', 'svc'"):
            PromiseGraph([Agent("a"), Agent("b")], [Promise(["b"], "a", "svc", Polarity.OFFER)])

    @pytest.mark.parametrize("bad", [5, [["x"]]], ids=["not-iterable", "unhashable-entry"])
    def test_constraint_that_is_not_a_collection_of_tokens_is_domain_error(self, bad):
        with pytest.raises(DomainError, match="constraint must be a collection of tokens"):
            Promise("a", "b", "svc", Polarity.OFFER, bad)

    def test_non_string_condition_entry_is_domain_error(self):
        # Unchecked, sorting a mixed condition raises TypeError.
        with pytest.raises(DomainError, match=r"condition entries must be strings, got \(1, 'y'\)"):
            Promise("a", "b", "svc", Polarity.OFFER, condition=(1, "y"))


class TestSlottedRecords:
    OFFER = Promise("a", "b", "svc", Polarity.OFFER, frozenset({"x", "y"}), ("q", "c"))
    ACCEPT = Promise("b", "a", "svc", Polarity.ACCEPT, frozenset({"y"}))

    def records(self):
        return [Agent("a", 0.5), self.OFFER, Binding(self.OFFER, self.ACCEPT, frozenset({"y"}))]

    def test_records_have_no_instance_dict(self):
        for record in self.records():
            assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_records_and_graph_round_trip(self, clone):
        promises = [Promise("a", "b", "svc", Polarity.OFFER, self.OFFER.constraint), self.ACCEPT]
        g = PromiseGraph([Agent("a", 0.5), Agent("b")], promises, {"svc": 2.0})
        for value in self.records() + [g]:
            again = clone(value)
            assert again == value and type(again) is type(value)
        assert pg.total_value(clone(g)) == pg.total_value(g) == 1.0

    def test_replace_resorts_condition(self):
        o = self.OFFER
        p = Promise(o.giver, o.receiver, o.type_tag, o.polarity, o.constraint, condition=("z", "d", "z"))
        assert p.condition == ("d", "z")
        assert self.OFFER.condition == ("c", "q")

    @pytest.mark.parametrize("index,field", [(0, "id"), (1, "giver"), (2, "offer")])
    def test_setting_an_attribute_raises(self, index, field):
        with pytest.raises(FrozenInstanceError):
            setattr(self.records()[index], field, "c")


class TestKeptBindings:
    """A graph binds at most once and keeps the list; callers never get it, and it holds no graph alive."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        f = getattr(pg, name)
        monkeypatch.setattr(pg, name, lambda *args: calls.append(name) or f(*args))
        return calls

    def test_find_bindings_returns_a_new_list(self):
        g = mesh_graph(3)
        first = pg.find_bindings(g)
        second = pg.find_bindings(g)
        assert first == second and first is not second
        first.clear()
        assert pg.find_bindings(g) == second
        assert (pg.total_value(g), pg.mesh_density(g), pg.largest_binding_component(g)) == (6.0, 1.0, 3)

    def test_measures_bind_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "_bindings")
        g = mesh_graph(4)
        for measure in (pg.find_bindings, pg.total_value, pg.mesh_density, pg.largest_binding_component):
            measure(g)
        assert len(calls) == 1

    def test_a_reduced_graph_is_not_discharged_again(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "_discharge")
        g = PromiseGraph([Agent("a"), Agent("b"), Agent("c")],
                         [offer("a", "b", "svc", cond=("fuel",)), accept("b", "a", "svc")] + pair("c", "a", "fuel"))
        reduced = pg.reduce_conditionals(g)
        assert reduced != g and len(calls) == 1
        assert pg.reduce_conditionals(reduced) is reduced
        assert pg.total_value(reduced) == 2.0 and len(calls) == 1

    def test_a_graph_with_nothing_to_discharge_is_its_own_reduction(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "_discharge")
        g = mesh_graph(3)
        assert pg.reduce_conditionals(g) is g and pg.reduce_conditionals(g) is g
        assert pg.total_value(g) == 6.0 and len(calls) == 1

    def test_graphs_are_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            g = PromiseGraph([Agent("a"), Agent("b"), Agent("c")],
                             [offer("a", "b", "svc", cond=("fuel",)), accept("b", "a", "svc")] + pair("c", "a", "fuel"))
            reduced = pg.reduce_conditionals(g)
            # A parsed graph keeps its records and its binding rows once these have run.
            parsed = parse_graph(emit_graph(g))
            for graph in (g, reduced, parsed):
                pg.find_bindings(graph), pg.total_value(graph), pg.largest_binding_component(graph)
                pg.binding_values(graph)
                out = next(p for p in graph.promises if p.polarity is Polarity.OFFER and p.giver == "a")
                pg.classify_pattern(graph, out)
            assert parsed._records is not None and parsed._bound
            refs = [weakref.ref(g), weakref.ref(reduced), weakref.ref(parsed)]
            del g, reduced, parsed, graph
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    @settings(max_examples=200, deadline=None)
    @given(graph_texts(), st.sampled_from([1.0, 2.5, 0.1, -3.0, {"s": 0.5, "t": 3.0}]))
    def test_binding_values_are_the_valued_find_bindings(self, text, calibration):
        g = parse_graph(text, calibration)
        for graph in (g, pg.reduce_conditionals(g)):
            values = pg.binding_values(graph)
            bindings = pg.find_bindings(graph)
            assert values == [(b.offer.giver, b.offer.receiver, b.offer.type_tag, b.effective_constraint,
                               pg.valuation(graph, b)) for b in bindings]
            promises = graph.promises
            assert graph.promises is promises
            kept = set(promises)
            assert all(b.offer in kept and b.accept in kept for b in bindings)

    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_a_clone_of_a_bound_graph_binds_the_same(self, clone):
        g = mesh_graph(3, calibration={"svc": 2.0})
        bindings = pg.find_bindings(g)
        again = clone(g)
        assert again == g and pg.find_bindings(again) == bindings
        assert pg.total_value(again) == pg.total_value(g) == 12.0


class TestCachedViews:
    """A graph's fields are its three inputs; everything else it keeps is a cached view, added on first read."""

    INPUTS = {"_agents", "_table", "_calibration"}
    VIEWS = {"_bound", "_valued", "_records", "_fired"}

    @staticmethod
    def conditional_graph():
        return PromiseGraph([Agent("a"), Agent("b"), Agent("c")],
                            [offer("a", "b", "svc", cond=("fuel",)), accept("b", "a", "svc")] + pair("c", "a", "fuel"))

    def test_a_new_graph_holds_only_its_inputs(self):
        g = self.conditional_graph()
        reduced = pg.reduce_conditionals(g)
        assert reduced != g
        assert set(vars(reduced)) == self.INPUTS | {"_fired"} and reduced._fired == []
        built = [self.conditional_graph(), parse_graph(emit_graph(g)), pg.aggregate(g, ["c"], "S")]
        assert [set(vars(graph)) for graph in built] == [self.INPUTS] * 3

    def test_measures_add_only_the_cached_views(self):
        g = self.conditional_graph()
        out = pg.find_offer(g, "c", "a", "fuel")
        pg.adjacency(g, "svc"), pg.degree(g, "a"), pg.reputation(g, "a"), emit_graph(g)
        pg.find_bindings(g), pg.binding_values(g), pg.total_value(g), pg.mesh_density(g)
        pg.largest_binding_component(g), pg.reduce_conditionals(g), g.promises
        pg.aggregate(g, ["c"], "S"), pg.community_members(g, "a"), pg.classify_pattern(g, out)
        assert set(vars(g)) == self.INPUTS | self.VIEWS

    def test_a_missing_calibration_raises_on_each_read_and_keeps_no_values(self):
        g = mesh_graph(3, calibration={"other": 2.0})
        for _ in range(2):
            with pytest.raises(DomainError, match="no calibration for promise type 'svc'"):
                pg.binding_values(g)
        assert "_valued" not in vars(g) and "_bound" in vars(g)


class TestPromiseGraph:
    def test_never_equals_a_non_graph(self):
        assert PromiseGraph([]) != 5 and not PromiseGraph([]) == 5

    def test_duplicate_agent_rejected(self):
        with pytest.raises(DomainError):
            PromiseGraph([Agent("a"), Agent("a", 0.5)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownAgentError):
            PromiseGraph([Agent("a")], [offer("a", "ghost", "svc")])

    def test_duplicate_promises_merge_constraints(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc", ("x",)), offer("a", "b", "svc", ("y",))],
        )
        assert len(g.promises) == 1
        assert g.promises[0].constraint == frozenset({"x", "y"})

    def test_same_shape_different_condition_kept_apart(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc"), offer("a", "b", "svc", cond=("dep",))],
        )
        assert len(g.promises) == 2

    def test_promise_order_is_canonical(self):
        ps = pair("a", "b") + pair("b", "a", "other")
        g1 = PromiseGraph([Agent("a"), Agent("b")], ps)
        g2 = PromiseGraph([Agent("b"), Agent("a")], list(reversed(ps)))
        assert g1 == g2
        assert g1.promises == g2.promises

    def test_agent_lookup(self):
        g = PromiseGraph([Agent("b"), Agent("a", 0.5)])
        assert g.agent_ids() == ["a", "b"]
        assert g.agent("a").assessment == 0.5
        assert g.has_agent("b") and not g.has_agent("c")
        with pytest.raises(UnknownAgentError):
            g.agent("c")

    def test_scalar_calibration(self):
        g = PromiseGraph([Agent("a")], calibration=2.5)
        assert g.calibration_for("anything") == 2.5

    def test_mapping_calibration(self):
        g = PromiseGraph([Agent("a")], calibration={"svc": 3.0})
        assert g.calibration_for("svc") == 3.0
        with pytest.raises(DomainError):
            g.calibration_for("other")

    def test_non_string_constraint_entry_is_domain_error(self):
        # Unchecked, sorting a mixed constraint into graph order raises TypeError.
        with pytest.raises(DomainError, match="constraint entries must be strings"):
            PromiseGraph([Agent("a"), Agent("b")], [Promise("a", "b", "svc", Polarity.OFFER, frozenset({1, "x"}))])

    def test_non_string_constraint_entries_are_named_in_the_order_given(self):
        # b -> a is given first and named, though a -> b comes first in graph order.
        promises = [Promise("b", "a", "svc", Polarity.OFFER, frozenset({1})),
                    Promise("a", "b", "svc", Polarity.OFFER, frozenset({2}))]
        with pytest.raises(DomainError, match=r"constraint entries must be strings, got \{1\}$"):
            PromiseGraph([Agent("a"), Agent("b")], promises)

    def test_calibration_is_checked_before_constraint_entries(self):
        promise = Promise("a", "a", "svc", Polarity.OFFER, frozenset({1}))
        with pytest.raises(DomainError, match="calibration values must be finite numbers"):
            PromiseGraph([Agent("a")], [promise], calibration="x")

    @pytest.mark.parametrize("bad", ["x", "2", None, {"s": None}, {"s": "1"}], ids=repr)
    def test_non_numeric_calibration_is_domain_error(self, bad):
        with pytest.raises(DomainError, match="calibration values must be finite numbers"):
            PromiseGraph([Agent("a")], calibration=bad)


class TestAdjacency:
    def test_hand_matrix(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b"), Agent("c")],
            [offer("a", "b", "svc"), accept("c", "a", "svc"), offer("a", "b", "other")],
        )
        m = pg.adjacency(g, "svc")
        assert m.dtype == np.int64
        assert m.tolist() == [[0, 1, 0], [0, 0, 0], [1, 0, 0]]

    def test_unknown_type_is_zero(self):
        g = mesh_graph(3)
        assert not pg.adjacency(g, "nope").any()

    def test_repeats_do_not_stack(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc", ("x",)), offer("a", "b", "svc", ("y",)), accept("a", "b", "svc")],
        )
        assert pg.adjacency(g, "svc")[0, 1] == 1


class TestDegree:
    def test_counts_distinct_receiver_type_pairs(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b"), Agent("c")],
            [
                offer("a", "b", "svc"),
                accept("a", "b", "svc"),
                offer("a", "b", "other"),
                offer("a", "c", "svc"),
            ],
        )
        assert pg.degree(g, "a") == 3
        assert pg.degree(g, "b") == 0

    def test_unknown_agent(self):
        with pytest.raises(UnknownAgentError):
            pg.degree(mesh_graph(2), "ghost")


class TestFindBindings:
    def test_matched_pair_binds(self):
        g = PromiseGraph([Agent("a"), Agent("b")], pair("a", "b"))
        (b,) = pg.find_bindings(g)
        assert b.offer.giver == "a" and b.accept.giver == "b"
        assert b.effective_constraint == frozenset({"*"})

    def test_unmatched_offer_does_not_bind(self):
        g = PromiseGraph([Agent("a"), Agent("b")], [offer("a", "b", "svc")])
        assert pg.find_bindings(g) == []

    def test_two_offers_do_not_bind(self):
        g = PromiseGraph([Agent("a"), Agent("b")], [offer("a", "b", "svc"), offer("b", "a", "svc")])
        assert pg.find_bindings(g) == []

    def test_type_mismatch_does_not_bind(self):
        g = PromiseGraph([Agent("a"), Agent("b")], [offer("a", "b", "svc"), accept("b", "a", "other")])
        assert pg.find_bindings(g) == []

    def test_disjoint_constraints_do_not_bind(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc", ("x",)), accept("b", "a", "svc", ("y",))],
        )
        assert pg.find_bindings(g) == []

    def test_effective_constraint_is_intersection(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc", ("x", "y")), accept("b", "a", "svc", ("y", "z"))],
        )
        (b,) = pg.find_bindings(g)
        assert b.effective_constraint == frozenset({"y"})

    def test_conditional_promises_are_inert(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc", cond=("dep",)), accept("b", "a", "svc")],
        )
        assert pg.find_bindings(g) == []

    def test_self_binding_is_allowed(self):
        g = PromiseGraph([Agent("a")], [offer("a", "a", "svc"), accept("a", "a", "svc")])
        assert len(pg.find_bindings(g)) == 1

    def test_sorted_output(self):
        g = mesh_graph(4)
        keys = [(b.offer.giver, b.offer.receiver, b.offer.type_tag) for b in pg.find_bindings(g)]
        assert keys == sorted(keys)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(23)
        tags = ["s", "t", "u"]
        bodies = ["*", "x", "y"]
        for _ in range(60):
            n = rng.randint(2, 8)
            ids = [f"a{i}" for i in range(n)]
            promises = []
            for _ in range(rng.randint(0, 25)):
                g_, r_ = rng.choice(ids), rng.choice(ids)
                chi = frozenset(rng.sample(bodies, rng.randint(1, 3)))
                cond = ("dep",) if rng.random() < 0.2 else ()
                promises.append(
                    Promise(g_, r_, rng.choice(tags), rng.choice(list(Polarity)), chi, cond)
                )
            g = PromiseGraph([Agent(i) for i in ids], promises)
            got = {(b.offer._key(), b.accept._key(), b.effective_constraint) for b in pg.find_bindings(g)}
            assert got == brute_force_bindings(g)


class TestReduceConditionals:
    def lab_graph(self):
        # A researcher's patent offer is conditional on lab access, which
        # the university supplies; the salary binding is unconditional.
        return PromiseGraph(
            [Agent("researcher"), Agent("university"), Agent("company")],
            [
                offer("university", "researcher", "lab_access"),
                accept("researcher", "university", "lab_access"),
                offer("researcher", "company", "patent", cond=("lab_access",)),
                accept("company", "researcher", "patent"),
                offer("company", "researcher", "salary"),
                accept("researcher", "company", "salary"),
            ],
        )

    def test_discharge_unlocks_binding(self):
        g = self.lab_graph()
        assert len(pg.find_bindings(g)) == 2
        reduced = pg.reduce_conditionals(g)
        assert len(pg.find_bindings(reduced)) == 3
        patent = [p for p in reduced.promises if p.type_tag == "patent" and p.polarity is Polarity.OFFER]
        assert patent[0].condition == ()

    def test_unsupplied_condition_is_retained(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc", cond=("fuel",)), accept("b", "a", "svc")],
        )
        reduced = pg.reduce_conditionals(g)
        assert reduced == g
        assert pg.find_bindings(reduced) == []

    def test_graph_where_nothing_fires_is_returned_as_is(self):
        # Graphs are immutable, so reduce hands back its input rather than a rebuilt copy.
        unconditional = mesh_graph(4)
        assert pg.reduce_conditionals(unconditional) is unconditional
        unsupplied = PromiseGraph([Agent("a"), Agent("b")], [offer("a", "b", "svc", cond=("fuel",))])
        assert pg.reduce_conditionals(unsupplied) is unsupplied

    def test_offer_without_matching_accept_does_not_supply(self):
        # b offers fuel but a never accepts it: the dependency stays open.
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc", cond=("fuel",)), offer("b", "a", "fuel")],
        )
        assert pg.reduce_conditionals(g) == g

    def test_chained_conditions_resolve_to_fixed_point(self):
        # c supplies power to b, unlocking b's fuel offer, unlocking a's svc.
        g = PromiseGraph(
            [Agent("a"), Agent("b"), Agent("c")],
            [
                offer("a", "b", "svc", cond=("fuel",)),
                accept("a", "b", "fuel"),
                offer("b", "a", "fuel", cond=("power",)),
                accept("b", "c", "power"),
                offer("c", "b", "power"),
            ],
        )
        reduced = pg.reduce_conditionals(g)
        assert all(not p.conditional for p in reduced.promises)

    def test_conditional_accept_is_never_discharged(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b"), Agent("c")],
            [
                accept("a", "b", "svc", cond=("fuel",)),
                accept("a", "c", "fuel"),
                offer("c", "a", "fuel"),
            ],
        )
        reduced = pg.reduce_conditionals(g)
        kept = [p for p in reduced.promises if p.type_tag == "svc"]
        assert kept[0].condition == ("fuel",)

    def test_idempotent(self):
        for g in (self.lab_graph(), mesh_graph(5)):
            once = pg.reduce_conditionals(g)
            assert pg.reduce_conditionals(once) == once

    def test_deep_chain_discharges_every_link(self):
        g, _ = supply_chain(3000)
        reduced = pg.reduce_conditionals(g)
        assert not any(p.conditional for p in reduced.promises)
        assert len(pg.find_bindings(reduced)) == 3000

    def test_multiple_conditions_all_required(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [
                offer("a", "b", "svc", cond=("fuel", "water")),
                accept("a", "b", "fuel"),
                offer("b", "a", "fuel"),
            ],
        )
        reduced = pg.reduce_conditionals(g)
        svc = [p for p in reduced.promises if p.type_tag == "svc"]
        # Discharge is all-or-nothing: water is missing, so fuel stays listed too.
        assert svc[0].condition == ("fuel", "water")


class TestValuation:
    def test_assessments_multiply(self):
        g = PromiseGraph([Agent("a", 0.5), Agent("b", 0.4)], pair("a", "b"), calibration=10.0)
        (b,) = pg.find_bindings(g)
        assert pg.valuation(g, b) == pytest.approx(10.0 * 0.5 * 0.4, rel=1e-15)

    def test_per_type_calibration(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            pair("a", "b", "gold") + pair("a", "b", "dust"),
            calibration={"gold": 100.0, "dust": 0.5},
        )
        values = sorted(pg.valuation(g, b) for b in pg.find_bindings(g))
        assert values == [0.5, 100.0]


class TestTotalValue:
    def test_complete_mesh_is_metcalfe(self):
        for n in (2, 3, 7, 12):
            assert pg.total_value(mesh_graph(n)) == float(n * (n - 1))

    def test_calibration_scales_linearly(self):
        assert pg.total_value(mesh_graph(4, calibration=2.5)) == 2.5 * 12

    def test_counts_conditional_bindings_after_reduction(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc", cond=("fuel",)), accept("b", "a", "svc")]
            + pair("b", "a", "fuel"),
        )
        # svc discharges via the fuel binding: fuel + svc both count.
        assert pg.total_value(g) == 2.0

    def test_empty_graph(self):
        assert pg.total_value(PromiseGraph([])) == 0.0

    @pytest.mark.parametrize("calibration", [1e308, -1e308, {"svc": 1e308, "fuel": 1e308}])
    def test_sum_outside_the_float_range_is_a_domain_error(self, calibration):
        # Each valuation is finite; their sum is not, and fsum raises OverflowError on its own.
        g = PromiseGraph([Agent("a"), Agent("b")], pair("a", "b") + pair("b", "a", "fuel"), calibration)
        with pytest.raises(DomainError, match="^result is out of the finite float range$"):
            pg.total_value(g)

    @pytest.mark.parametrize("values", sorted(set(itertools.permutations([1e308, 1e308, -1e308]))))
    def test_sum_near_the_float_limit_does_not_depend_on_binding_order(self, values):
        calibration = dict(zip("xyz", values))
        g = PromiseGraph([Agent("a"), Agent("b")], [p for t in "xyz" for p in pair("a", "b", t)], calibration)
        assert [b.offer.type_tag for b in pg.find_bindings(g)] == ["x", "y", "z"]
        assert pg.total_value(g) == 1e308

    def test_exact_sum_outside_the_float_range_is_a_domain_error(self):
        g = PromiseGraph([Agent("a"), Agent("b")], [p for t in "xyz" for p in pair("a", "b", t)], 1e308)
        with pytest.raises(DomainError, match="^result is out of the finite float range$"):
            pg.total_value(g)


class TestMeshDensity:
    def test_complete_mesh(self):
        assert pg.mesh_density(mesh_graph(6)) == 1.0

    def test_partial_mesh(self):
        g = PromiseGraph([Agent("a"), Agent("b"), Agent("c")], pair("a", "b"))
        assert pg.mesh_density(g) == pytest.approx(1 / 6, rel=1e-15)

    def test_small_graphs(self):
        assert pg.mesh_density(PromiseGraph([])) == 0.0
        assert pg.mesh_density(PromiseGraph([Agent("a")])) == 0.0

    def test_counts_bindings_not_pairs(self):
        # Bindings over N(N-1): two types bound both ways give 2.0, and a self-binding adds one more.
        both_ways = [*pair("a", "b", "s"), *pair("b", "a", "s"), *pair("a", "b", "t"), *pair("b", "a", "t")]
        assert pg.mesh_density(PromiseGraph([Agent("a"), Agent("b")], both_ways)) == 2.0
        with_self = [*pair("a", "b"), *pair("b", "a"), *pair("a", "a")]
        assert pg.mesh_density(PromiseGraph([Agent("a"), Agent("b")], with_self)) == 1.5


class TestLargestBindingComponent:
    def test_empty(self):
        assert pg.largest_binding_component(PromiseGraph([])) == 0

    def test_isolated_agents(self):
        assert pg.largest_binding_component(PromiseGraph([Agent("a"), Agent("b")])) == 1

    def test_two_islands(self):
        agents = [Agent(x) for x in "abcde"]
        promises = pair("a", "b") + pair("b", "c") + pair("d", "e")
        assert pg.largest_binding_component(PromiseGraph(agents, promises)) == 3

    def test_unbound_promises_do_not_connect(self):
        g = PromiseGraph([Agent("a"), Agent("b")], [offer("a", "b", "svc")])
        assert pg.largest_binding_component(g) == 1


    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdef"),
                st.sampled_from("abcdef"),
                st.sampled_from("st"),
                st.sampled_from(list(Polarity)),
                st.frozensets(st.sampled_from("*x"), min_size=1),
            ),
            max_size=24,
        )
    )
    def test_matches_networkx_components(self, rows):
        nx = pytest.importorskip("networkx")
        g = PromiseGraph([Agent(a) for a in "abcdef"], [Promise(*row) for row in rows])
        oracle = nx.Graph()
        oracle.add_nodes_from("abcdef")
        oracle.add_edges_from((offer_key[0], offer_key[1]) for offer_key, _, _ in brute_force_bindings(g))
        assert pg.largest_binding_component(g) == max(len(c) for c in nx.connected_components(oracle))


class TestReputation:
    def test_distinct_acceptors(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b"), Agent("c")],
            [
                accept("b", "a", "svc"),
                accept("b", "a", "other"),
                accept("c", "a", "svc"),
                offer("c", "a", "svc"),
            ],
        )
        assert pg.reputation(g, "a") == 2
        assert pg.reputation(g, "b") == 0


class TestAggregate:
    def triangle(self):
        return PromiseGraph(
            [Agent("a", 0.8), Agent("b", 0.6), Agent("c"), Agent("d")],
            pair("a", "b") + pair("a", "c") + pair("c", "d", "ext"),
        )

    def test_interior_promises_vanish(self):
        g = pg.aggregate(self.triangle(), ["a", "b"], "S")
        assert not any(p.giver == "S" and p.receiver == "S" for p in g.promises)
        assert sorted(g.agent_ids()) == ["S", "c", "d"]

    def test_crossing_promises_reattach(self):
        g = pg.aggregate(self.triangle(), ["a", "b"], "S")
        assert any(p.giver == "S" and p.receiver == "c" and p.polarity is Polarity.OFFER for p in g.promises)
        assert any(p.giver == "c" and p.receiver == "S" and p.polarity is Polarity.ACCEPT for p in g.promises)

    def test_exterior_structure_untouched(self):
        before = self.triangle()
        after = pg.aggregate(before, ["a", "b"], "S")
        # c, d occupy the trailing rows both before (a, b, c, d) and after (S, c, d).
        assert pg.adjacency(after, "ext")[1:, 1:].tolist() == pg.adjacency(before, "ext")[2:, 2:].tolist()

    def test_string_member_set_is_domain_error(self):
        # set("ab") would aggregate the agents a and b, not the agent ab.
        g = PromiseGraph([Agent("a"), Agent("b"), Agent("ab")], pair("a", "ab"))
        with pytest.raises(DomainError, match="members must be a collection of agent ids, got the string 'ab'"):
            pg.aggregate(g, "ab", "S")
        assert pg.aggregate(g, ["ab"], "S").agent_ids() == ["S", "a", "b"]

    def test_default_assessment_is_member_mean(self):
        g = pg.aggregate(self.triangle(), ["a", "b"], "S")
        assert g.agent("S").assessment == pytest.approx(0.7, rel=1e-15)

    def test_parallel_crossing_promises_collapse(self):
        base = PromiseGraph(
            [Agent("a"), Agent("b"), Agent("c")],
            [offer("a", "c", "svc", ("x",)), offer("b", "c", "svc", ("y",))],
        )
        g = pg.aggregate(base, ["a", "b"], "S")
        svc = [p for p in g.promises if p.type_tag == "svc"]
        assert len(svc) == 1
        assert svc[0].constraint == frozenset({"x", "y"})

    def test_interior_supply_discharges_condition_and_multiplies_alpha(self):
        base = PromiseGraph(
            [Agent("a", 0.9), Agent("b", 0.5), Agent("c")],
            [
                offer("a", "c", "svc", cond=("fuel",)),
                accept("a", "b", "fuel"),
                offer("b", "a", "fuel"),
            ],
        )
        g = pg.aggregate(base, ["a", "b"], "S")
        (svc,) = [p for p in g.promises if p.type_tag == "svc"]
        assert svc.condition == ()
        assert g.agent("S").assessment == pytest.approx(0.9 * 0.5, rel=1e-15)

    def test_witness_is_the_first_supplier_in_graph_order(self):
        # k2 is given first, but k1's offer comes first in graph order and witnesses g's fuel, so S has g's and k1's
        # assessment.
        base = PromiseGraph(
            [Agent("g"), Agent("k1", 0.5), Agent("k2", 0.25), Agent("c")],
            [offer("k2", "g", "fuel"), accept("g", "k2", "fuel"), offer("k1", "g", "fuel"), accept("g", "k1", "fuel"),
             offer("g", "c", "svc", cond=("fuel",))],
        )
        assert pg.aggregate(base, ["g", "k1", "k2"], "S").agent("S").assessment == 0.5

    def test_witness_among_offers_fired_in_one_round_is_the_first_in_graph_order(self):
        # k's fuel offers on condition of power and of oil fire in the same round; the one on oil comes first in
        # graph order, so its chain (k, o) witnesses g's fuel, and not the chain (k, p).
        base = PromiseGraph(
            [Agent("g"), Agent("k"), Agent("o", 0.5), Agent("p", 0.25), Agent("c")],
            [offer("k", "g", "fuel", cond=("power",)), offer("k", "g", "fuel", cond=("oil",)), accept("g", "k", "fuel"),
             offer("p", "k", "power"), accept("k", "p", "power"), offer("o", "k", "oil"), accept("k", "o", "oil"),
             offer("g", "c", "svc", cond=("fuel",))],
        )
        assert pg.aggregate(base, ["g", "k", "o", "p"], "S").agent("S").assessment == 0.5

    def test_recursive_interior_chain(self):
        base = PromiseGraph(
            [Agent("a", 0.9), Agent("b", 0.5), Agent("m", 0.8), Agent("c")],
            [
                offer("a", "c", "svc", cond=("fuel",)),
                accept("a", "b", "fuel"),
                offer("b", "a", "fuel", cond=("power",)),
                accept("b", "m", "power"),
                offer("m", "b", "power"),
            ],
        )
        g = pg.aggregate(base, ["a", "b", "m"], "S")
        (svc,) = [p for p in g.promises if p.type_tag == "svc"]
        assert svc.condition == ()
        assert g.agent("S").assessment == pytest.approx(0.9 * 0.5 * 0.8, rel=1e-15)

    def test_sorted_first_provider_is_witness(self):
        # b1 and b2 both supply fuel unconditionally; b1 sorts first.
        base = PromiseGraph(
            [Agent("a", 0.9), Agent("b1", 0.5), Agent("b2", 0.4), Agent("c")],
            [
                offer("a", "c", "svc", cond=("fuel",)),
                accept("a", "b1", "fuel"),
                offer("b1", "a", "fuel"),
                accept("a", "b2", "fuel"),
                offer("b2", "a", "fuel"),
            ],
        )
        g = pg.aggregate(base, ["a", "b1", "b2"], "S")
        assert g.agent("S").assessment == pytest.approx(0.9 * 0.5, rel=1e-15)

    def test_shortest_supply_chain_is_witness(self):
        # b1 sorts first but supplies fuel only once m powers it; b2 supplies
        # it outright, one discharge round earlier, so b2 is the witness.
        base = PromiseGraph(
            [Agent("a", 0.9), Agent("b1", 0.5), Agent("b2", 0.3), Agent("m", 0.8), Agent("c")],
            [
                offer("a", "c", "svc", cond=("fuel",)),
                accept("a", "b1", "fuel"),
                offer("b1", "a", "fuel", cond=("power",)),
                accept("b1", "m", "power"),
                offer("m", "b1", "power"),
                accept("a", "b2", "fuel"),
                offer("b2", "a", "fuel"),
            ],
        )
        g = pg.aggregate(base, ["a", "b1", "b2", "m"], "S")
        assert g.agent("S").assessment == pytest.approx(0.9 * 0.3, rel=1e-15)

    def test_fired_offers_are_taken_in_graph_order(self):
        # Round 1 takes m1's offer before m2's, so b2's fuel offer fires before
        # b1's; round 2 still takes b1's first, by graph order, so b1 is the witness.
        base = PromiseGraph(
            [Agent("a", 0.9), Agent("b1", 0.5), Agent("b2", 0.4), Agent("m1", 0.8), Agent("m2", 0.7), Agent("c")],
            [
                offer("a", "c", "svc", cond=("fuel",)),
                accept("a", "b1", "fuel"),
                offer("b1", "a", "fuel", cond=("q1",)),
                accept("a", "b2", "fuel"),
                offer("b2", "a", "fuel", cond=("q2",)),
                accept("b1", "m2", "q1"),
                offer("m2", "b1", "q1"),
                accept("b2", "m1", "q2"),
                offer("m1", "b2", "q2"),
            ],
        )
        g = pg.aggregate(base, ["a", "b1", "b2", "m1", "m2"], "S")
        assert g.agent("S").assessment == pytest.approx(0.9 * 0.5 * 0.7, rel=1e-15)

    def test_interior_cycle_does_not_discharge(self):
        # a needs fuel from b, which needs power from a, which needs fuel.
        base = PromiseGraph(
            [Agent("a", 0.9), Agent("b", 0.5), Agent("c")],
            [
                offer("a", "c", "svc", cond=("fuel",)),
                accept("a", "b", "fuel"),
                offer("b", "a", "fuel", cond=("power",)),
                accept("b", "a", "power"),
                offer("a", "b", "power", cond=("fuel",)),
            ],
        )
        g = pg.aggregate(base, ["a", "b"], "S")
        (svc,) = [p for p in g.promises if p.type_tag == "svc"]
        assert svc.condition == ("fuel",)
        assert g.agent("S").assessment == pytest.approx(0.7, rel=1e-15)
        assert pg.reduce_conditionals(base) == base

    def test_unconditional_twin_of_conditional_offer_supplies(self):
        # b offers fuel to a twice: outright, and on a condition nobody
        # supplies. The outright offer is enough, as it is for reduce.
        base = PromiseGraph(
            [Agent("a", 0.9), Agent("b", 0.5), Agent("c")],
            [
                offer("a", "c", "svc", cond=("fuel",)),
                accept("a", "b", "fuel"),
                offer("b", "a", "fuel"),
                offer("b", "a", "fuel", cond=("zinc",)),
            ],
        )
        g = pg.aggregate(base, ["a", "b"], "S")
        (svc,) = [p for p in g.promises if p.type_tag == "svc"]
        assert svc.condition == ()
        assert g.agent("S").assessment == pytest.approx(0.9 * 0.5, rel=1e-15)
        reduced = pg.reduce_conditionals(base)
        assert not any(p.conditional for p in reduced.promises if p.type_tag == "svc")

    def test_deep_interior_chain(self):
        g, ids = supply_chain(3000)
        agg = pg.aggregate(g, ids, "S")
        assert agg.agent("S").assessment == 1.0
        assert [(p.giver, p.receiver, p.condition) for p in agg.promises] == [("S", "out", ()), ("out", "S", ())]

    def test_exterior_condition_is_kept(self):
        base = PromiseGraph(
            [Agent("a"), Agent("b"), Agent("c")],
            [offer("a", "c", "svc", cond=("fuel",)), accept("a", "c", "fuel"), offer("c", "a", "fuel")],
        )
        g = pg.aggregate(base, ["a", "b"], "S")
        (svc,) = [p for p in g.promises if p.type_tag == "svc"]
        assert svc.condition == ("fuel",)

    def test_validation(self):
        base = self.triangle()
        with pytest.raises(DomainError):
            pg.aggregate(base, [], "S")
        with pytest.raises(UnknownAgentError):
            pg.aggregate(base, ["ghost"], "S")
        with pytest.raises(DomainError):
            pg.aggregate(base, ["a"], "c")
        with pytest.raises(DomainError):
            pg.aggregate(base, ["a"], "a")


class TestCommunityMembers:
    def community(self):
        # m1 registers and is accepted; m2 registers but is ignored.
        return PromiseGraph(
            [Agent("hub"), Agent("m1"), Agent("m2")],
            [
                offer("m1", "hub", "member"),
                accept("hub", "m1", "member"),
                offer("m2", "hub", "member"),
            ],
        )

    def test_mutual_promises_required(self):
        assert pg.community_members(self.community(), "hub") == {"m1"}

    def test_custom_membership_type(self):
        g = PromiseGraph(
            [Agent("hub"), Agent("m")],
            [offer("m", "hub", "staff"), accept("hub", "m", "staff")],
        )
        assert pg.community_members(g, "hub", "staff") == {"m"}
        assert pg.community_members(g, "hub") == set()

    def test_unknown_authority(self):
        with pytest.raises(UnknownAgentError):
            pg.community_members(self.community(), "ghost")


def membership(member, hub):
    return [offer(member, hub, "member"), accept(hub, member, "member")]


class TestClassifyPattern:
    def test_interaction_for_meshed_giver(self):
        g = mesh_graph(8)
        p = offer("a00", "a01", "svc")
        assert pg.classify_pattern(g, p) == ScalingClass.INTERACTION

    def test_scarce_agent_for_narrow_giver(self):
        # 1 consumer out of 11 others sits below the 0.1 default threshold.
        agents = [Agent(f"a{i:02d}") for i in range(12)]
        g = PromiseGraph(agents, pair("a00", "a01"))
        p = offer("a00", "a01", "svc")
        assert pg.classify_pattern(g, p) == ScalingClass.SCARCE_AGENT

    def test_threshold_boundary_counts_as_interaction(self):
        # 1 of 10 others is exactly the threshold.
        agents = [Agent(f"a{i:02d}") for i in range(11)]
        g = PromiseGraph(agents, pair("a00", "a01"))
        p = offer("a00", "a01", "svc")
        assert pg.classify_pattern(g, p) == ScalingClass.INTERACTION
        assert pg.classify_pattern(g, p, scarcity_threshold=0.2) == ScalingClass.SCARCE_AGENT

    def test_nan_threshold_is_a_domain_error(self):
        # fraction >= nan is false, which would read as SCARCE_AGENT; the infinite thresholds keep their classes.
        agents = [Agent(f"a{i:02d}") for i in range(11)]
        g = PromiseGraph(agents, pair("a00", "a01"))
        p = offer("a00", "a01", "svc")
        with pytest.raises(DomainError, match="nan"):
            pg.classify_pattern(g, p, scarcity_threshold=math.nan)
        assert pg.classify_pattern(g, p, scarcity_threshold=-math.inf) == ScalingClass.INTERACTION
        assert pg.classify_pattern(g, p, scarcity_threshold=math.inf) == ScalingClass.SCARCE_AGENT

    def test_scarce_dependency_for_exterior_provider(self):
        g = PromiseGraph(
            [Agent("maker"), Agent("supplier"), Agent("buyer")],
            [
                offer("maker", "buyer", "widget", cond=("steel",)),
                accept("maker", "supplier", "steel"),
                offer("supplier", "maker", "steel"),
            ],
        )
        p = offer("maker", "buyer", "widget", cond=("steel",))
        assert pg.classify_pattern(g, p) == ScalingClass.SCARCE_DEPENDENCY

    def test_recursive_dependency_for_interior_provider(self):
        promises = [
            offer("maker", "buyer", "widget", cond=("steel",)),
            accept("maker", "supplier", "steel"),
            offer("supplier", "maker", "steel"),
        ]
        promises += membership("maker", "hub") + membership("supplier", "hub")
        g = PromiseGraph([Agent("maker"), Agent("supplier"), Agent("buyer"), Agent("hub")], promises)
        p = offer("maker", "buyer", "widget", cond=("steel",))
        assert pg.classify_pattern(g, p) == ScalingClass.RECURSIVE_DEPENDENCY

    def test_partial_membership_is_not_recursive(self):
        promises = [
            offer("maker", "buyer", "widget", cond=("steel",)),
            accept("maker", "supplier", "steel"),
            offer("supplier", "maker", "steel"),
        ]
        promises += membership("maker", "hub")
        g = PromiseGraph([Agent("maker"), Agent("supplier"), Agent("buyer"), Agent("hub")], promises)
        p = offer("maker", "buyer", "widget", cond=("steel",))
        assert pg.classify_pattern(g, p) == ScalingClass.SCARCE_DEPENDENCY

    def test_giver_as_its_own_provider_is_recursive(self):
        # The giver accepts steel from itself and offers it to itself: the
        # whole chain sits inside the giver, a community of one.
        g = PromiseGraph(
            [Agent("maker"), Agent("buyer")],
            [
                offer("maker", "buyer", "widget", cond=("steel",)),
                accept("maker", "maker", "steel"),
                offer("maker", "maker", "steel"),
            ],
        )
        p = offer("maker", "buyer", "widget", cond=("steel",))
        assert pg.classify_pattern(g, p) == ScalingClass.RECURSIVE_DEPENDENCY

    def test_unrealized_condition_falls_through_to_breadth(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [offer("a", "b", "svc", cond=("fuel",))] + pair("a", "b"),
        )
        p = offer("a", "b", "svc", cond=("fuel",))
        assert pg.classify_pattern(g, p) == ScalingClass.INTERACTION

    def test_unknown_promise_rejected(self):
        with pytest.raises(DomainError):
            pg.classify_pattern(mesh_graph(3), offer("a00", "a01", "nope"))

    def test_accept_cannot_be_classified(self):
        g = PromiseGraph([Agent("a"), Agent("b")], [accept("a", "b", "svc")])
        with pytest.raises(DomainError):
            pg.classify_pattern(g, accept("a", "b", "svc"))

    def test_lookup_matches_the_condition(self):
        g = PromiseGraph([Agent("a"), Agent("b")], [offer("a", "b", "svc", cond=("fuel",)), accept("b", "a", "svc")])
        for missing in (offer("a", "b", "svc"), offer("a", "b", "svc", cond=("oil",)), offer("b", "a", "svc")):
            with pytest.raises(DomainError, match="output promise not found in graph"):
                pg.classify_pattern(g, missing)
        assert pg.classify_pattern(g, offer("a", "b", "svc", chi=("x",), cond=("fuel",))) == ScalingClass.SCARCE_AGENT


class TestRandomizedInvariants:
    def random_graph(self, rng, n_max=10, conditional_rate=0.15):
        n = rng.randint(1, n_max)
        ids = [f"a{i:02d}" for i in range(n)]
        agents = [Agent(i, rng.random()) for i in ids]
        promises = []
        for _ in range(rng.randint(0, 4 * n)):
            # Conditions name real promise types so discharge can fire.
            cond = (rng.choice(["s", "t"]),) if rng.random() < conditional_rate else ()
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

    def test_reduction_never_loses_bindings(self):
        rng = random.Random(91)
        for _ in range(100):
            g = self.random_graph(rng)
            before = len(pg.find_bindings(g))
            after = len(pg.find_bindings(pg.reduce_conditionals(g)))
            assert after >= before

    def test_total_value_matches_manual_sum(self):
        rng = random.Random(92)
        for _ in range(100):
            g = self.random_graph(rng)
            reduced = pg.reduce_conditionals(g)
            manual = math.fsum(pg.valuation(reduced, b) for b in pg.find_bindings(reduced))
            assert pg.total_value(g) == manual

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abc"),
                st.sampled_from("abc"),
                st.sampled_from("st"),
                st.sampled_from(list(Polarity)),
                st.frozensets(st.sampled_from("*x"), min_size=1),
                st.lists(st.sampled_from("st"), max_size=2),
            ),
            max_size=10,
        ),
        # Offers paired with the matching accept, so that supply chains form often.
        st.lists(
            st.tuples(
                st.sampled_from("abc"),
                st.sampled_from("abc"),
                st.sampled_from("st"),
                st.lists(st.sampled_from("st"), max_size=2),
            ),
            max_size=8,
        ),
    )
    def test_reduce_matches_naive_sweep(self, rows, links):
        promises = [Promise(*row) for row in rows]
        for giver, receiver, tag, cond in links:
            promises += [offer(giver, receiver, tag, cond=cond), accept(receiver, giver, tag)]
        g = PromiseGraph([Agent(a) for a in "abc"], promises)
        reduced = pg.reduce_conditionals(g)
        assert reduced == naive_reduce(g)
        assert pg.reduce_conditionals(reduced) == reduced

    def test_density_bounds(self):
        # Single type, no self-promises: at most one binding per ordered pair.
        rng = random.Random(93)
        for _ in range(100):
            n = rng.randint(2, 8)
            ids = [f"a{i:02d}" for i in range(n)]
            promises = [
                Promise(*rng.sample(ids, 2), "s", rng.choice(list(Polarity)))
                for _ in range(rng.randint(0, 4 * n))
            ]
            assert 0.0 <= pg.mesh_density(PromiseGraph([Agent(i) for i in ids], promises)) <= 1.0


# Promise rows over four agents whose types double as conditions and membership.
TAGS = ["s", "t", "member"]
PROMISE_ROWS = st.lists(
    st.tuples(
        st.sampled_from("abcd"),
        st.sampled_from("abcd"),
        st.sampled_from(TAGS),
        st.sampled_from(list(Polarity)),
        st.frozensets(st.sampled_from("*x"), min_size=1),
        st.lists(st.sampled_from(TAGS), max_size=2),
    ),
    max_size=14,
)
# Offers paired with the matching accept, so that supply chains and communities form often.
LINK_ROWS = st.lists(
    st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"), st.sampled_from(TAGS),
              st.lists(st.sampled_from(TAGS), max_size=2)),
    max_size=10,
)


def random_lookup_graph(rows, links, repeats):
    promises = [Promise(*row) for row in rows]
    for giver, receiver, tag, cond in links:
        promises += [offer(giver, receiver, tag, cond=cond), accept(receiver, giver, tag)]
    promises += promises[:repeats]  # exact duplicates, merged by the graph
    return PromiseGraph([Agent(a) for a in "abcd"], promises)


class TestMergeKey:
    @settings(max_examples=200, deadline=None)
    @given(PROMISE_ROWS, LINK_ROWS, st.integers(0, 6))
    def test_table_keys_are_promise_keys(self, rows, links, repeats):
        # promises builds each record from its merge-table item with Promise._from_key, which _key must undo.
        g = random_lookup_graph(rows, links, repeats)
        for graph in (g, pg.reduce_conditionals(g), pg.aggregate(g, ["a", "b"], "S")):
            assert [(p._key(), p.constraint) for p in graph.promises] == list(pg._graph_order(graph._table).items())


class TestLookupsMatchPairScans:
    """classify_pattern and community_members against oracles that scan every promise pair."""

    @settings(max_examples=200, deadline=None)
    @given(PROMISE_ROWS, LINK_ROWS, st.integers(0, 6), st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 1.0]))
    def test_classify_matches_naive(self, rows, links, repeats, threshold):
        g = random_lookup_graph(rows, links, repeats)
        for p in g.promises:
            if p.polarity is not Polarity.OFFER:
                continue
            for membership_type in ("member", "s"):
                got = pg.classify_pattern(g, p, scarcity_threshold=threshold, membership_type=membership_type)
                assert got == naive_classify(g, p, threshold, membership_type), (p, membership_type)

    @settings(max_examples=200, deadline=None)
    @given(PROMISE_ROWS, LINK_ROWS, st.integers(0, 6))
    def test_community_matches_naive(self, rows, links, repeats):
        g = random_lookup_graph(rows, links, repeats)
        for u in g.agent_ids():
            for membership_type in ("member", "s"):
                assert pg.community_members(g, u, membership_type) == naive_community(g, u, membership_type)
