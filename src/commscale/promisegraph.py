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
values and is safe to call concurrently. That holds as well for what a
graph keeps once computed: its bindings, found at most once, on first
use (find_bindings hands out a new list each time), and the mark that
it is its own reduction. The records (Agent, Promise, Binding) are plain
slotted classes that compare, hash and pickle by value and refuse
assignment.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping
from numbers import Real
from typing import TYPE_CHECKING, Union

from ._record import Record
from .errors import DomainError, UnknownAgentError, _finite
from .meanfield import ScalingClass

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Agent",
    "Polarity",
    "Promise",
    "Binding",
    "PromiseGraph",
    "adjacency",
    "degree",
    "find_bindings",
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
        if not (isinstance(assessment, Real) and 0 <= assessment <= 1):
            raise DomainError(f"assessment must be a number in [0, 1], got {assessment!r}")
        self._freeze(id, float(assessment))


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
        if type(constraint) is not frozenset:
            if isinstance(constraint, str):
                raise DomainError(f"constraint must be a collection of tokens, got the string {constraint!r}")
            constraint = frozenset(constraint)
        if condition != ():
            if isinstance(condition, str):
                raise DomainError(f"condition must be a collection of types, got the string {condition!r}")
            # An already sorted tuple is kept, so that promises parsed from one field share it.
            ordered = tuple(sorted(set(condition)))
            if ordered != condition:
                condition = ordered
        if not constraint:
            raise DomainError("constraint set must be non-empty")
        if not isinstance(polarity, Polarity):
            raise DomainError(f"polarity must be a Polarity, got {polarity!r}")
        # Field by field rather than through _freeze's loop: a parse builds one Promise per record.
        set_field = object.__setattr__
        set_field(self, "giver", giver)
        set_field(self, "receiver", receiver)
        set_field(self, "type_tag", type_tag)
        set_field(self, "polarity", polarity)
        set_field(self, "constraint", constraint)
        set_field(self, "condition", condition)

    @property
    def conditional(self) -> bool:
        return bool(self.condition)

    def _key(self):
        # The key of PromiseGraph._by_key, laid out as __init__ builds it inline; the two must stay the same.
        return (self.giver, self.receiver, self.type_tag, self.polarity is Polarity.ACCEPT, self.condition)


def _in_graph_order(promises) -> list:
    """Promises sorted by (giver, receiver, type, polarity, sorted constraint, condition), '+' before '-'."""
    # Merge keys are distinct within a graph, so the C tuple sort never compares the Promise items.
    accept = Polarity.ACCEPT
    chis: dict[frozenset, tuple] = {}
    decorated = []
    for p in promises:
        chi = chis.get(p.constraint)
        if chi is None:
            chi = chis[p.constraint] = tuple(sorted(p.constraint))
        decorated.append((p.giver, p.receiver, p.type_tag, p.polarity is accept, chi, p.condition, p))
    decorated.sort()
    return [d[-1] for d in decorated]


class Binding(Record):
    """A matched offer/accept pair of one type with overlapping bodies."""

    __slots__ = ("offer", "accept", "effective_constraint")

    def __init__(self, offer: Promise, accept: Promise, effective_constraint: frozenset) -> None:
        # Field by field, as in Promise: a bind builds one Binding per matched pair.
        set_field = object.__setattr__
        set_field(self, "offer", offer)
        set_field(self, "accept", accept)
        set_field(self, "effective_constraint", effective_constraint)


Calibration = Union[float, Mapping[str, float]]


class PromiseGraph:
    """Immutable set of agents and promises plus a per-type currency calibration.

    Duplicate promises with identical (giver, receiver, type, polarity,
    condition) collapse into one, with their constraint sets unioned:
    adjacency is 0/1, a repeated declaration is not a stronger link.
    calibration is either one scalar applied to every type or a mapping
    from type tag to currency value; calibration values must be finite.
    """

    def __init__(self, agents: Iterable[Agent], promises: Iterable[Promise] = (), calibration: Calibration = 1.0):
        agent_map: dict[str, Agent] = {}
        for a in agents:
            if a.id in agent_map:
                raise DomainError(f"duplicate agent id {a.id!r}")
            agent_map[a.id] = a
        accept = Polarity.ACCEPT
        merged: dict[tuple, Promise] = {}
        for p in promises:
            giver, receiver = p.giver, p.receiver
            if giver not in agent_map or receiver not in agent_map:
                missing = receiver if giver in agent_map else giver
                raise UnknownAgentError(f"promise references unknown agent {missing!r}")
            key = (giver, receiver, p.type_tag, p.polarity is accept, p.condition)
            prev = merged.setdefault(key, p)
            if prev is not p:
                chi = prev.constraint | p.constraint
                merged[key] = Promise(giver, receiver, p.type_tag, p.polarity, chi, p.condition)
        values = calibration.values() if isinstance(calibration, Mapping) else (calibration,)
        if not all(isinstance(c, Real) and -math.inf < c < math.inf for c in values):
            raise DomainError(f"calibration values must be finite numbers, got {calibration!r}")
        self._agents = agent_map
        # The merge table, the graph's one promise index: bindings, discharge, classification and communities read it.
        self._by_key = merged
        self._promises = tuple(_in_graph_order(merged.values()))
        self._calibration = calibration
        self._bound: list | None = None  # the graph's bindings, once _kept_bindings has found them
        self._reduced = False  # set by reduce_conditionals on the graph it returns

    @property
    def agents(self) -> tuple:
        return tuple(self._agents.values())

    @property
    def promises(self) -> tuple:
        return self._promises

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
        if isinstance(self._calibration, Mapping):
            try:
                return float(self._calibration[type_tag])
            except KeyError:
                raise DomainError(f"no calibration for promise type {type_tag!r}") from None
        return float(self._calibration)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PromiseGraph):
            return NotImplemented
        return (
            self._agents == other._agents
            and self._promises == other._promises
            and self._calibration == other._calibration
        )


def adjacency(graph: PromiseGraph, type_tag: str) -> np.ndarray:
    """0/1 matrix over sorted agent ids: entry (i, j) = 1 iff any promise of
    this type runs from agent i to agent j. Unknown types give the zero matrix."""
    import numpy as np
    ids = graph.agent_ids()
    index = {a: i for i, a in enumerate(ids)}
    out = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for p in graph.promises:
        if p.type_tag == type_tag:
            out[index[p.giver], index[p.receiver]] = 1
    return out


def degree(graph: PromiseGraph, agent_id: str) -> int:
    """Number of distinct (receiver, type) pairs this agent promises toward."""
    graph.agent(agent_id)
    return len({(p.receiver, p.type_tag) for p in graph.promises if p.giver == agent_id})


def find_bindings(graph: PromiseGraph) -> list[Binding]:
    """All bindings, sorted by (offer giver, offer receiver, type).

    A binding pairs an unconditional offer S -> R with an unconditional
    accept R -> S of the same type whose constraint sets intersect;
    the intersection is the binding's effective constraint. Conditional
    promises never bind (reduce them first).
    """
    return list(_kept_bindings(graph))


def _kept_bindings(graph: PromiseGraph) -> list[Binding]:
    # The graph's own list, computed on first use: callers must not change it.
    if graph._bound is None:
        graph._bound = _bindings(graph, graph.promises)
    return graph._bound


def _bindings(graph: PromiseGraph, promises) -> list[Binding]:
    # The bindings of the unconditional offers among the given promises, in their
    # order; each offer's unconditional accept back is one merge-table lookup.
    by_key = graph._by_key
    offer = Polarity.OFFER
    out = []
    for p in promises:
        if p.polarity is offer and not p.condition:
            acc = by_key.get((p.receiver, p.giver, p.type_tag, True, ()))
            if acc is not None and (effective := p.constraint & acc.constraint):
                out.append(Binding(p, acc, effective))
    return out


def _discharge(graph: PromiseGraph, inside=None) -> tuple[dict, list]:
    """Least fixed point of supply: {(g, d): witness offer} for every supplied pair, and the fired offers.

    g is supplied with d when it unconditionally accepts d from some k whose
    offer of d to g is unconditional or has fired; a conditional offer fires
    once its giver is supplied with every condition. Counting unmet conditions
    per offer makes this linear in promises plus conditions (Dowling &
    Gallier, 1984). With inside given, only offers among those agents count.
    Offers are taken in rounds (unconditional ones, then those the previous
    round fired), each in graph order, and the first to supply a pair is its
    witness, so following witnesses always ends at unconditional offers.
    """
    by_key = graph._by_key
    offer = Polarity.OFFER
    round_: list = []
    waiting: dict[tuple, list] = {}
    unmet: dict[int, int] = {}
    for o in graph.promises:
        if o.polarity is not offer or (inside is not None and (o.giver not in inside or o.receiver not in inside)):
            continue
        if not o.condition:
            round_.append(o)
            continue
        unmet[id(o)] = len(o.condition)
        for d in o.condition:
            waiting.setdefault((o.giver, d), []).append(o)
    supplied: dict[tuple, Promise] = {}
    fired: list = []
    while round_:
        start = len(fired)
        for o in round_:
            pair = (o.receiver, o.type_tag)
            if pair in supplied or (o.receiver, o.giver, o.type_tag, True, ()) not in by_key:
                continue
            supplied[pair] = o
            for w in waiting.get(pair, ()):
                unmet[id(w)] -= 1
                if not unmet[id(w)]:
                    fired.append(w)
        round_ = _in_graph_order(fired[start:])
    return supplied, fired


def reduce_conditionals(graph: PromiseGraph) -> PromiseGraph:
    """Discharge assisted conditional offers; idempotent.

    A conditional offer +S|d1,d2,... becomes the unconditional +S once,
    for every named dependency d, the giver unconditionally accepts d
    from some agent that unconditionally offers d back. Iterates to a
    fixed point so chains of conditions resolve; unsatisfied
    conditionals (and conditional accepts) are retained unchanged. When
    no offer fires, the graph itself is returned. The result is marked
    as reduced, so reducing it again returns it at once.
    """
    if graph._reduced:
        return graph
    fired = {id(p) for p in _discharge(graph)[1]}
    if fired:
        promises = [
            Promise(p.giver, p.receiver, p.type_tag, p.polarity, p.constraint) if id(p) in fired else p
            for p in graph.promises
        ]
        graph = PromiseGraph(graph.agents, promises, graph.calibration)
    # Discharge reaches a fixed point, so the result is its own reduction.
    graph._reduced = True
    return graph


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
    reduced = reduce_conditionals(graph)
    values = [valuation(reduced, b) for b in _kept_bindings(reduced)]
    try:
        return math.fsum(values)
    except OverflowError:
        # fsum overflows where a partial sum leaves the float range, even if the whole sum does not.
        from fractions import Fraction

        return float(sum(map(Fraction, values)))


def mesh_density(graph: PromiseGraph) -> float:
    """Bindings as a fraction of the N(N-1) possible directed pairs.

    Measured on the graph as given (reduce first if conditional promises
    should count). Zero for graphs with fewer than two agents.
    """
    n = len(graph.agents)
    if n < 2:
        return 0.0
    return len(_kept_bindings(graph)) / (n * (n - 1))


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

    for b in _kept_bindings(graph):
        ra, rb = find(b.offer.giver), find(b.offer.receiver)
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
    return len({p.giver for p in graph.promises if p.polarity is Polarity.ACCEPT and p.receiver == agent_id})


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
    member_set = set(members)
    if not member_set:
        raise DomainError("member set must be non-empty")
    for m in member_set:
        graph.agent(m)
    if graph.has_agent(super_id):
        raise DomainError(f"superagent id {super_id!r} collides with an existing agent")

    supplied, _ = _discharge(graph, member_set)
    todo = []
    new_promises = []
    for p in graph.promises:
        giver_in = p.giver in member_set
        receiver_in = p.receiver in member_set
        if giver_in and receiver_in:
            continue
        if not giver_in and not receiver_in:
            new_promises.append(p)
            continue
        if giver_in:
            todo += [(p.giver, d) for d in p.condition if (p.giver, d) in supplied]
            residual = tuple(d for d in p.condition if (p.giver, d) not in supplied)
            new_promises.append(Promise(super_id, p.receiver, p.type_tag, p.polarity, p.constraint, residual))
        else:
            new_promises.append(Promise(p.giver, super_id, p.type_tag, p.polarity, p.constraint, p.condition))

    # The interior chains: each discharged condition's giver and its witnesses.
    chain_agents: set = set()
    seen = set(todo)
    while todo:
        g, d = todo.pop()
        witness = supplied[(g, d)]
        chain_agents |= {g, witness.giver}
        fresh = {(witness.giver, e) for e in witness.condition} - seen
        seen |= fresh
        todo += fresh

    if chain_agents:
        alpha = math.prod(graph.agent(a).assessment for a in sorted(chain_agents))
    else:
        alpha = math.fsum(graph.agent(m).assessment for m in member_set) / len(member_set)
    agents = [a for a in graph.agents if a.id not in member_set]
    agents.append(Agent(super_id, alpha))
    return PromiseGraph(agents, new_promises, graph.calibration)


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
    for b in _bindings(graph, (p for p in graph.promises if p.type_tag == membership_type)):
        communities.setdefault(b.offer.receiver, set()).add(b.offer.giver)
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
    if output_promise.polarity is not Polarity.OFFER:
        raise DomainError("only offers can be classified")
    by_key = graph._by_key
    stored = by_key.get(output_promise._key())
    if stored is None:
        raise DomainError("output promise not found in graph")

    giver = stored.giver
    if stored.condition:
        needed = {giver}
        for d in stored.condition:
            ks = {k for k in graph._agents if (giver, k, d, True, ()) in by_key and (k, giver, d, False, ()) in by_key}
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

    own = (p for p in graph.promises if p.giver == giver and p.type_tag == stored.type_tag)
    consumers = {b.offer.receiver for b in _bindings(graph, own)}
    others = len(graph.agents) - 1
    fraction = len(consumers) / others if others > 0 else 0.0
    if fraction >= scarcity_threshold:
        return ScalingClass.INTERACTION
    return ScalingClass.SCARCE_AGENT
