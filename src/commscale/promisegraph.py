"""Typed, polarized promise graphs between autonomous agents.

Agents declare promises: an offer (+) of some behaviour type toward a
receiver, or an acceptance (-) of such behaviour from a giver. A matched
offer/accept pair of one type, running in opposite directions, whose
body constraints overlap is a binding - the unit of cooperation and of
value. Promises may carry conditions naming behaviour types the giver
must itself be supplied with first; conditional promises are inert until
reduce_conditionals discharges them.

On top of the raw graph sit the derived views used by the scaling
model: adjacency matrices, Metcalfe-style value totals, reputation,
superagent aggregation (interior promises hidden), community membership
via mutual membership promises, and classification of an offer into one
of the meanfield dependency classes.

Graphs are immutable after construction; every operation returns new
values and is safe to call concurrently. A graph's fields are its
inputs, and everything it keeps is a cached view computed at most once.
The inputs are its agents, its calibration and its merge table, which
maps (giver, receiver, type, is_accept, condition) to the constraint
set, in read order; no read reorders it, and parsing, binding, valuing,
reducing and aggregating build no records. Order is made at output:
emit_graph and promises sort a copy of the table, find_bindings and
binding_values only the bindings. The views are the binding rows
(giver, receiver, type, effective constraint), those rows with their
value added, the Promise records in graph order, and the conditional
offers that discharge fires. find_bindings and find_offer build the
records they return on each call. The records (Agent, Promise, Binding)
are plain slotted classes that compare, hash and pickle by value and
refuse assignment.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Union

from ._record import Record
from .errors import DomainError, UnknownAgentError, _finite, _real

if TYPE_CHECKING:
    import numpy as np

    from .meanfield import ScalingClass
__all__ = [
    "Agent",
    "Polarity",
    "Promise",
    "Binding",
    "PromiseGraph",
    "adjacency",
    "degree",
    "find_bindings",
    "binding_values",
    "find_offer",
    "reduce_conditionals",
    "valuation",
    "total_value",
    "mesh_density",
    "largest_binding_component",
    "reputation",
    "aggregate",
    "classify_pattern",
    "community_members",
]

# Conventional catch-all body token; it has no special algebra, it is just
# a token both sides can name so their constraint sets overlap.
ANY_BODY = "*"


class Agent(Record):
    """An autonomous agent with an impartial promise-keeping assessment in [0, 1]."""

    __slots__ = ("id", "assessment")

    def __init__(self, id: str, assessment: float = 1.0) -> None:
        if not isinstance(id, str) or not id:
            raise DomainError(f"agent id must be a non-empty string, got {id!r}")
        # + 0.0 turns -0.0 into 0.0, so equal agents emit the same text; it keeps every other value.
        self._freeze(id, _real(assessment, "assessment", "[0, 1]") + 0.0)


class Polarity(enum.Enum):
    OFFER = "+"
    ACCEPT = "-"


class Promise(Record):
    """One declared intention: giver -> receiver, a type, a polarity, a body.

    constraint is the finite, non-empty body constraint set; a binding
    needs the offer and accept sets to intersect. condition lists
    behaviour types the giver must be supplied with before this promise
    takes effect (conjunctive, stored sorted). A giver may promise to
    itself.
    """

    __slots__ = ("giver", "receiver", "type_tag", "polarity", "constraint", "condition")

    def __init__(self, giver: str, receiver: str, type_tag: str, polarity: Polarity,
                 constraint: frozenset = frozenset({ANY_BODY}), condition: tuple = ()) -> None:
        if not (isinstance(giver, str) and isinstance(receiver, str) and isinstance(type_tag, str)):
            raise DomainError(f"giver, receiver and type must be strings, got {giver!r}, {receiver!r}, {type_tag!r}")
        if type(constraint) is not frozenset:
            if isinstance(constraint, str):
                raise DomainError(f"constraint must be a collection of tokens, got the string {constraint!r}")
            try:
                constraint = frozenset(constraint)
            except TypeError:
                raise DomainError(f"constraint must be a collection of tokens, got {constraint!r}") from None
        if condition != ():
            if isinstance(condition, str):
                raise DomainError(f"condition must be a collection of types, got the string {condition!r}")
            try:
                ordered = tuple(sorted(set(condition)))
                "".join(ordered)  # str.join takes only strings, so this checks every entry at C speed
            except TypeError:
                raise DomainError(f"condition entries must be strings, got {condition!r}") from None
            # An already sorted tuple is kept, so that promises parsed from one field share it.
            if ordered != condition:
                condition = ordered
        if not constraint:
            raise DomainError("constraint set must be non-empty")
        if not isinstance(polarity, Polarity):
            raise DomainError(f"polarity must be a Polarity, got {polarity!r}")
        self._freeze(giver, receiver, type_tag, polarity, constraint, condition)

    @property
    def conditional(self) -> bool:
        return bool(self.condition)

    def _key(self):
        # This promise's key in a graph's merge table, laid out as graphio.parse_graph builds it inline; the two
        # must stay the same, and _from_key must undo it.
        return (self.giver, self.receiver, self.type_tag, self.polarity is Polarity.ACCEPT, self.condition)

    @classmethod
    def _from_key(cls, key: tuple, constraint: frozenset) -> Promise:
        # The record of a merge-table item, key -> constraint: the inverse of _key.
        giver, receiver, type_tag, accepts, condition = key
        return cls(giver, receiver, type_tag, Polarity.ACCEPT if accepts else Polarity.OFFER, constraint, condition)


class Binding(Record):
    """A matched offer/accept pair of one type with overlapping bodies."""

    __slots__ = ("offer", "accept", "effective_constraint")

    def __init__(self, offer: Promise, accept: Promise, effective_constraint: frozenset) -> None:
        self._freeze(offer, accept, effective_constraint)


Calibration = Union[float, Mapping[str, float]]


class PromiseGraph:
    """Immutable set of agents and promises plus a per-type currency calibration.

    Duplicate promises with identical (giver, receiver, type, polarity,
    condition) collapse into one, with their constraint sets unioned:
    adjacency is 0/1, a repeated declaration is not a stronger link.
    calibration is either one scalar applied to every type or a mapping
    from type tag to currency value; calibration values must be finite
    reals, and are stored as their floats.
    """

    def __init__(self, agents: Iterable[Agent], promises: Iterable[Promise] = (), calibration: Calibration = 1.0):
        agent_map: dict[str, Agent] = {}
        for a in agents:
            if a.id in agent_map:
                raise DomainError(f"duplicate agent id {a.id!r}")
            agent_map[a.id] = a
        table: dict[tuple, frozenset] = {}
        for p in promises:
            if p.giver not in agent_map or p.receiver not in agent_map:
                missing = p.receiver if p.giver in agent_map else p.giver
                raise UnknownAgentError(f"promise references unknown agent {missing!r}")
            _merge(table, p._key(), p.constraint)
        self._adopt(agent_map, table, calibration)
        # Parsed text holds only string tokens, so only promises built in code can carry other entries.
        for constraint in dict.fromkeys(table.values()):
            try:
                "".join(sorted(constraint))  # str.join takes only strings, as in Promise
            except TypeError:
                # The entries by their reprs, so that the message does not follow string hashing.
                entries = ", ".join(sorted(map(repr, constraint)))
                raise DomainError(f"constraint entries must be strings, got {{{entries}}}") from None

    @classmethod
    def _from_table(cls, agents: dict, table: dict, calibration: Calibration) -> PromiseGraph:
        """The graph of agents ({id: Agent}) and table, a merge table over them as __init__ builds it."""
        graph = cls.__new__(cls)
        graph._adopt(agents, table, calibration)
        return graph

    def _adopt(self, agents: dict, table: dict, calibration: Calibration) -> None:
        """Keep agents ({id: Agent}) and table, a merge table over them as __init__ builds it, in the order given."""
        mapping = isinstance(calibration, Mapping)
        try:
            values = [_real(c, "calibration", "(-inf, inf)")
                      for c in (calibration.values() if mapping else (calibration,))]
        except DomainError:
            raise DomainError(f"calibration values must be finite numbers, got {calibration!r}") from None
        self._agents = agents
        # The merge table, the graph's one promise state: {(giver, receiver, type, is_accept, condition): constraint}.
        self._table = table
        self._calibration = dict(zip(calibration, values)) if mapping else values[0]

    # The cached views of the three fields above, each computed on first read; callers must not change them.
    @cached_property
    def _bound(self) -> list:
        # (giver, receiver, type, effective constraint) of each binding, in merge-table order.
        return _bindings(self)

    @cached_property
    def _valued(self) -> list:
        # The binding_values rows, in merge-table order; a missing per-type calibration raises and keeps nothing.
        agents = self._agents
        calibration_for = self.calibration_for
        return [(giver, receiver, type_tag, effective,
                 calibration_for(type_tag) * agents[giver].assessment * agents[receiver].assessment)
                for giver, receiver, type_tag, effective in self._bound]

    @cached_property
    def _records(self) -> tuple:
        return tuple(Promise._from_key(key, chi) for key, chi in _graph_order(self._table).items())

    @cached_property
    def _fired(self) -> list:
        # The merge keys of the conditional offers that discharge fires; [] when the graph is its own reduction.
        return _discharge(self)[1]

    @property
    def agents(self) -> tuple:
        return tuple(self._agents.values())

    @property
    def promises(self) -> tuple:
        """The Promise records in graph order, built from the merge table on first use and then kept."""
        return self._records

    @property
    def calibration(self) -> Calibration:
        return self._calibration

    def agent_ids(self) -> list[str]:
        """All agent ids, sorted; the row/column order used by adjacency."""
        return sorted(self._agents)

    def agent(self, agent_id: str) -> Agent:
        try:
            return self._agents[agent_id]
        except KeyError:
            raise UnknownAgentError(f"unknown agent {agent_id!r}") from None

    def has_agent(self, agent_id: str) -> bool:
        return agent_id in self._agents

    def calibration_for(self, type_tag: str) -> float:
        # The stored form: a dict for a per-type calibration, else one float.
        if type(self._calibration) is dict:
            try:
                return self._calibration[type_tag]
            except KeyError:
                raise DomainError(f"no calibration for promise type {type_tag!r}") from None
        return self._calibration

    def __eq__(self, other) -> bool:
        if not isinstance(other, PromiseGraph):
            return NotImplemented
        return (
            self._agents == other._agents
            and self._table == other._table
            and self._calibration == other._calibration
        )


def _graph_order(table: dict) -> dict:
    """table rebuilt in graph order: (giver, receiver, type, polarity, sorted constraint, condition), '+' before '-'."""
    # The first six items already differ between merge keys, so the C tuple sort never compares the last two.
    chis: dict[frozenset, tuple] = {}
    decorated = []
    for key, constraint in table.items():
        giver, receiver, type_tag, accepts, condition = key
        chi = chis.get(constraint)
        if chi is None:
            chi = chis[constraint] = tuple(sorted(constraint))
        decorated.append((giver, receiver, type_tag, accepts, chi, condition, key, constraint))
    decorated.sort()
    return {d[6]: d[7] for d in decorated}


def _precedes(table: dict, key: tuple, other: tuple) -> bool:
    # Whether merge key comes before other in graph order, without putting the table in that order.
    if key[:4] != other[:4]:
        return key < other
    return (sorted(table[key]), key[4]) < (sorted(table[other]), other[4])


def adjacency(graph: PromiseGraph, type_tag: str) -> np.ndarray:
    """0/1 matrix over sorted agent ids: entry (i, j) = 1 iff any promise of
    this type runs from agent i to agent j. Unknown types give the zero matrix."""
    import numpy as np
    ids = graph.agent_ids()
    index = {a: i for i, a in enumerate(ids)}
    out = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for giver, receiver, tag, _, _ in graph._table:
        if tag == type_tag:
            out[index[giver], index[receiver]] = 1
    return out


def degree(graph: PromiseGraph, agent_id: str) -> int:
    """Number of distinct (receiver, type) pairs this agent promises toward."""
    graph.agent(agent_id)
    return len({(receiver, tag) for giver, receiver, tag, _, _ in graph._table if giver == agent_id})


def find_bindings(graph: PromiseGraph) -> list[Binding]:
    """All bindings, sorted by (offer giver, offer receiver, type).

    A binding pairs an unconditional offer S -> R with an unconditional
    accept R -> S of the same type whose constraint sets intersect;
    the intersection is the binding's effective constraint. Conditional
    promises never bind (reduce them first). Each call builds the Binding
    and Promise records anew from the binding rows the graph keeps; each
    offer and accept is equal to an item of graph.promises.
    """
    table = graph._table
    bindings = []
    # Rows differ in (giver, receiver, type), so the sort never compares effective constraints.
    for giver, receiver, type_tag, effective in sorted(graph._bound):
        offer, accept = (giver, receiver, type_tag, False, ()), (receiver, giver, type_tag, True, ())
        bindings.append(Binding(Promise._from_key(offer, table[offer]), Promise._from_key(accept, table[accept]),
                                effective))
    return bindings


def binding_values(graph: PromiseGraph) -> list[tuple]:
    """(giver, receiver, type, effective constraint, value) of each binding, in find_bindings order.

    The value is the binding's valuation, c_S * alpha_giver * alpha_receiver.
    No Binding or Promise record is built. The graph keeps the rows, built
    at most once, and each call sorts them into a new list; a per-type
    calibration that lacks a bound type raises DomainError on each call.
    """
    # Rows differ in (giver, receiver, type), so the sort never compares constraints or values.
    return sorted(graph._valued)


def find_offer(graph: PromiseGraph, giver: str, receiver: str, type_tag: str) -> Promise:
    """The first offer giver -> receiver of type_tag in graph order, whatever its condition, as a Promise.

    Such offers differ only in constraint and condition, so the first is
    the least by (sorted constraint, condition); the graph is not put in
    order. Only that one record is built. No such offer raises
    DomainError.
    """
    table = graph._table
    want = (giver, receiver, type_tag, False)
    first = min((key for key in table if key[:4] == want), key=lambda key: (sorted(table[key]), key[4]), default=None)
    if first is None:
        raise DomainError(f"no offer of type {type_tag!r} from {giver!r} to {receiver!r} in the graph")
    return Promise._from_key(first, table[first])


def _bindings(graph: PromiseGraph) -> list[tuple]:
    # (giver, receiver, type, effective constraint) of each binding, in merge-table order; each accept back is one
    # merge-table lookup. Only unconditional promises bind, so a row's first three fields name both its keys.
    table = graph._table
    out = []
    for (giver, receiver, type_tag, accepts, condition), chi in table.items():
        if not accepts and not condition:
            back = table.get((receiver, giver, type_tag, True, ()))
            if back is not None and (effective := chi & back):
                out.append((giver, receiver, type_tag, effective))
    return out


def _discharge(graph: PromiseGraph, inside=None) -> tuple[dict, list]:
    """Least fixed point of supply: {(g, d): witness offer key} for every supplied pair, and the fired offers.

    g is supplied with d when it unconditionally accepts d from some k whose
    offer of d to g is unconditional or has fired; a conditional offer fires
    once its giver is supplied with every condition. Counting unmet conditions
    per offer makes this linear in promises plus conditions (Dowling &
    Gallier, 1984). With inside given, only offers among those agents count.
    Offers are taken in rounds (unconditional ones, then those the previous
    round fired); of a round's offers that supply a pair not supplied
    before, the first in graph order is its witness, so following witnesses
    always ends at unconditional offers. The fired offers are returned as
    their merge keys, round by round. A graph without conditions returns
    ({}, []) at once.
    """
    table = graph._table
    if not any(map(itemgetter(4), table)):
        return {}, []
    round_: list = []
    waiting: dict[tuple, list] = {}
    unmet: dict[tuple, int] = {}
    for key in table:
        giver, receiver, _, accepts, condition = key
        if accepts or (inside is not None and (giver not in inside or receiver not in inside)):
            continue
        if not condition:
            round_.append(key)
            continue
        unmet[key] = len(condition)
        for d in condition:
            waiting.setdefault((giver, d), []).append(key)
    supplied: dict[tuple, tuple] = {}
    fired: list = []
    while round_:
        witnesses: dict[tuple, tuple] = {}
        for offer in round_:
            giver, receiver, type_tag, _, _ = offer
            pair = (receiver, type_tag)
            if pair in supplied or (receiver, giver, type_tag, True, ()) not in table:
                continue
            first = witnesses.get(pair)
            if first is None or _precedes(table, offer, first):
                witnesses[pair] = offer
        supplied.update(witnesses)
        round_ = []
        for pair in witnesses:
            for w in waiting.get(pair, ()):
                unmet[w] -= 1
                if not unmet[w]:
                    round_.append(w)
        fired += round_
    return supplied, fired


def _merge(table: dict, key: tuple, chi: frozenset) -> None:
    # Adds a promise to a merge table: a key already there gets the union of both constraint sets.
    prev = table.setdefault(key, chi)
    if prev is not chi:
        table[key] = prev | chi


def reduce_conditionals(graph: PromiseGraph) -> PromiseGraph:
    """Discharge assisted conditional offers; idempotent.

    A conditional offer +S|d1,d2,... becomes the unconditional +S once,
    for every named dependency d, the giver unconditionally accepts d
    from some agent that unconditionally offers d back. Iterates to a
    fixed point so chains of conditions resolve; unsatisfied
    conditionals (and conditional accepts) are retained unchanged. The
    graph keeps the offers that fire; when none does, it is returned
    itself. None fires in the result, so reducing it returns it at once.
    """
    if not graph._fired:
        return graph
    table = dict(graph._table)
    for key in graph._fired:
        _merge(table, key[:4] + ((),), table.pop(key))
    reduced = PromiseGraph._from_table(graph._agents, table, graph.calibration)
    # Discharge reaches a fixed point, so nothing fires in the result.
    reduced._fired = []
    return reduced


def valuation(graph: PromiseGraph, binding: Binding) -> float:
    """Currency value of one binding: c_S * alpha_giver * alpha_receiver."""
    c = graph.calibration_for(binding.offer.type_tag)
    giver = graph.agent(binding.offer.giver)
    receiver = graph.agent(binding.offer.receiver)
    return c * giver.assessment * receiver.assessment


@_finite
def total_value(graph: PromiseGraph) -> float:
    """Total network value: the sum of binding valuations after reduction.

    For a complete positive mesh of N unit-assessment agents this is
    c * N * (N - 1); thinning the mesh to a fraction rho of the possible
    directed pairs scales it to c * rho * N * (N - 1). Summed exactly, so
    the result is independent of binding order. A sum outside the finite
    float range raises DomainError.
    """
    values = [row[4] for row in reduce_conditionals(graph)._valued]
    try:
        return math.fsum(values)
    except OverflowError:
        # fsum overflows where a partial sum leaves the float range, even if the whole sum does not.
        from fractions import Fraction

        return float(sum(map(Fraction, values)))


def mesh_density(graph: PromiseGraph) -> float:
    """The number of bindings divided by N(N-1), the count of directed agent pairs.

    Every binding counts, so this is not a fraction of pairs: two agents
    bound both ways on two types give 2.0, and a self-binding adds to
    the count (a<->b plus a->a gives 1.5). Measured on the graph as given
    (reduce first if conditional promises should count). Zero for graphs
    with fewer than two agents.
    """
    n = len(graph.agents)
    if n < 2:
        return 0.0
    return len(graph._bound) / (n * (n - 1))


def largest_binding_component(graph: PromiseGraph) -> int:
    """Size of the largest set of agents connected through bindings.

    Bindings are treated as undirected edges; an agent with no bindings
    forms a component of size 1. Empty graph gives 0.
    """
    ids = graph.agent_ids()
    if not ids:
        return 0
    parent = {a: a for a in ids}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for giver, receiver, _, _ in graph._bound:
        ra, rb = find(giver), find(receiver)
        if ra != rb:
            parent[ra] = rb
    sizes: dict[str, int] = {}
    for a in ids:
        root = find(a)
        sizes[root] = sizes.get(root, 0) + 1
    return max(sizes.values())


def reputation(graph: PromiseGraph, agent_id: str) -> int:
    """Count of distinct agents that promise acceptance toward this agent."""
    graph.agent(agent_id)
    return len({giver for giver, receiver, _, accepts, _ in graph._table if accepts and receiver == agent_id})


def aggregate(graph: PromiseGraph, members: Iterable[str], super_id: str) -> PromiseGraph:
    """Collapse a set of member agents into one superagent.

    Promises entirely among members disappear from the exterior view.
    Promises crossing the boundary are re-attached to super_id, with
    duplicates collapsing per (counterparty, type, polarity) exactly as
    graph construction already guarantees. Conditions on outgoing
    crossing promises that are satisfied inside the member set are
    discharged, since their suppliers are no longer visible; the
    superagent's assessment is then the product of the assessments along
    those interior supply chains (givers included). When no interior
    chain feeds any exterior promise, the assessment defaults to the
    mean of the member assessments. Structure among non-members is
    untouched.
    """
    if isinstance(members, str):
        raise DomainError(f"members must be a collection of agent ids, got the string {members!r}")
    # In the order given, so that of several unknown members the first is the one named.
    member_set = dict.fromkeys(members)
    if not member_set:
        raise DomainError("member set must be non-empty")
    for m in member_set:
        graph.agent(m)
    if graph.has_agent(super_id):
        raise DomainError(f"superagent id {super_id!r} collides with an existing agent")

    supplied, _ = _discharge(graph, member_set)
    todo = []
    table: dict[tuple, frozenset] = {}
    for key, chi in graph._table.items():
        giver, receiver, type_tag, accepts, condition = key
        giver_in = giver in member_set
        receiver_in = receiver in member_set
        if giver_in and receiver_in:
            continue
        if giver_in:
            todo += [(giver, d) for d in condition if (giver, d) in supplied]
            residual = tuple(d for d in condition if (giver, d) not in supplied)
            key = (super_id, receiver, type_tag, accepts, residual)
        elif receiver_in:
            key = (giver, super_id, type_tag, accepts, condition)
        _merge(table, key, chi)

    # The interior chains: each discharged condition's giver and the givers of its witness offers.
    chain_agents: set = set()
    seen = set(todo)
    while todo:
        g, d = todo.pop()
        witness_giver, _, _, _, witness_condition = supplied[(g, d)]
        chain_agents |= {g, witness_giver}
        fresh = {(witness_giver, e) for e in witness_condition} - seen
        seen |= fresh
        todo += fresh

    if chain_agents:
        alpha = math.prod(graph.agent(a).assessment for a in sorted(chain_agents))
    else:
        alpha = math.fsum(graph.agent(m).assessment for m in member_set) / len(member_set)
    agents = {a: agent for a, agent in graph._agents.items() if a not in member_set}
    agents[super_id] = Agent(super_id, alpha)
    return PromiseGraph._from_table(agents, table, graph.calibration)


def community_members(graph: PromiseGraph, authority: str, membership_type: str = "member") -> set:
    """Agents bound to the authority by a mutual membership promise.

    A is a member when A offers the membership type to the authority and
    the authority accepts it from A (registration plus acceptance, as a
    binding). The authority itself is a member only if it promises both
    sides to itself.
    """
    graph.agent(authority)
    return _communities(graph, membership_type).get(authority, set())


def _communities(graph: PromiseGraph, membership_type: str) -> dict:
    """{authority: the givers bound to it by a membership_type offer it accepts back}."""
    communities: dict[str, set] = {}
    for giver, receiver, type_tag, _ in graph._bound:
        if type_tag == membership_type:
            communities.setdefault(receiver, set()).add(giver)
    return communities


def classify_pattern(
    graph: PromiseGraph,
    output_promise: Promise,
    *,
    scarcity_threshold: float = 0.1,
    membership_type: str = "member",
) -> ScalingClass:
    """Map an offer's dependency structure to its meanfield scaling class.

    Decision order, most specific first:

      1. The offer is conditional and every condition has a provider
         (the giver unconditionally accepts it from an agent that
         unconditionally offers it back). If giver and providers all sit
         inside one agent's community (mutual membership promises of
         membership_type), the chain is interior: RECURSIVE_DEPENDENCY.
         Otherwise the providers are exterior specialists:
         SCARCE_DEPENDENCY.
      2. Otherwise the consumer breadth decides: the distinct agents
         holding a binding for this giver's offers of this type, as a
         fraction of the other agents. At or above scarcity_threshold
         the giver is meshed with the community: INTERACTION. Below it
         the giver is a scarce specialist: SCARCE_AGENT.

    The graph is inspected as given; reduce first when providers sit
    behind their own conditional chains. Offers whose conditions are
    unrealized fall through to rule 2. output_promise must be an offer
    stored in graph (same giver, receiver, type and condition); it is
    looked up in the graph's merge table, which every rule reads.
    """
    from .meanfield import ScalingClass
    if output_promise.polarity is not Polarity.OFFER:
        raise DomainError("only offers can be classified")
    scarcity_threshold = _real(scarcity_threshold, "scarcity_threshold", "[-inf, inf]")
    table = graph._table
    key = output_promise._key()
    if key not in table:
        raise DomainError("output promise not found in graph")

    giver, _, type_tag, _, condition = key
    if condition:
        needed = {giver}
        for d in condition:
            ks = {k for k in graph._agents if (giver, k, d, True, ()) in table and (k, giver, d, False, ()) in table}
            if not ks:
                break
            needed |= ks
        else:
            communities = _communities(graph, membership_type)
            # An agent without members is a community of itself alone, which
            # holds the chain only when the giver is its own sole provider.
            if len(needed) == 1 or any(needed - {u} <= members for u, members in communities.items()):
                return ScalingClass.RECURSIVE_DEPENDENCY
            return ScalingClass.SCARCE_DEPENDENCY

    consumers = {receiver for g, receiver, t, _ in graph._bound if g == giver and t == type_tag}
    others = len(graph.agents) - 1
    fraction = len(consumers) / others if others > 0 else 0.0
    if fraction >= scarcity_threshold:
        return ScalingClass.INTERACTION
    return ScalingClass.SCARCE_AGENT
