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
values and is safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Union

from .errors import DomainError, UnknownAgentError
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


@dataclass(frozen=True, slots=True)
class Agent:
    """An autonomous agent with an impartial promise-keeping assessment in [0, 1]."""

    id: str
    assessment: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise DomainError(f"agent id must be a non-empty string, got {self.id!r}")
        if not 0 <= self.assessment <= 1:
            raise DomainError(f"assessment must be in [0, 1], got {self.assessment}")
        object.__setattr__(self, "assessment", float(self.assessment))


class Polarity(enum.Enum):
    OFFER = "+"
    ACCEPT = "-"


@dataclass(frozen=True, slots=True)
class Promise:
    """One declared intention: giver -> receiver, a type, a polarity, a body.

    constraint is the finite, non-empty body constraint set; a binding
    needs the offer and accept sets to intersect. condition lists
    behaviour types the giver must be supplied with before this promise
    takes effect (conjunctive, stored sorted). A giver may promise to
    itself.
    """

    giver: str
    receiver: str
    type_tag: str
    polarity: Polarity
    constraint: frozenset = frozenset({ANY_BODY})
    condition: tuple = ()

    def __post_init__(self) -> None:
        if type(self.constraint) is not frozenset:
            object.__setattr__(self, "constraint", frozenset(self.constraint))
        if self.condition != ():
            condition = tuple(sorted(set(self.condition)))
            if condition != self.condition:
                object.__setattr__(self, "condition", condition)
        if not self.constraint:
            raise DomainError("constraint set must be non-empty")
        if not isinstance(self.polarity, Polarity):
            raise DomainError(f"polarity must be a Polarity, got {self.polarity!r}")

    @property
    def conditional(self) -> bool:
        return bool(self.condition)

    def _key(self):
        return (self.giver, self.receiver, self.type_tag, self.polarity is Polarity.ACCEPT, self.condition)


def _in_graph_order(promises) -> list:
    """Promises sorted by (giver, receiver, type, polarity, sorted constraint, condition), '+' before '-'."""
    ordered: dict[frozenset, tuple] = {}

    def key(p):
        chi = ordered.get(p.constraint)
        if chi is None:
            chi = ordered[p.constraint] = tuple(sorted(p.constraint))
        return (p.giver, p.receiver, p.type_tag, p.polarity is Polarity.ACCEPT, chi, p.condition)

    return sorted(promises, key=key)


@dataclass(frozen=True, slots=True)
class Binding:
    """A matched offer/accept pair of one type with overlapping bodies."""

    offer: Promise
    accept: Promise
    effective_constraint: frozenset


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
        values = calibration.values() if isinstance(calibration, Mapping) else (calibration,)
        if not all(-math.inf < c < math.inf for c in values):
            raise DomainError(f"calibration values must be finite numbers, got {calibration!r}")
        agent_map: dict[str, Agent] = {}
        for a in agents:
            if a.id in agent_map:
                raise DomainError(f"duplicate agent id {a.id!r}")
            agent_map[a.id] = a
        merged: dict[tuple, Promise] = {}
        for p in promises:
            for endpoint in (p.giver, p.receiver):
                if endpoint not in agent_map:
                    raise UnknownAgentError(f"promise references unknown agent {endpoint!r}")
            key = p._key()
            if key in merged:
                merged[key] = replace(p, constraint=merged[key].constraint | p.constraint)
            else:
                merged[key] = p
        self._agents = agent_map
        self._promises = tuple(_in_graph_order(merged.values()))
        self._calibration = calibration

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
    accepts, offers, _ = _supply_index(graph.promises)
    return _bindings(accepts, offers.values())


def _bindings(accepts, offers) -> list[Binding]:
    # The bindings of the given unconditional offers, in their order.
    out = []
    for off in offers:
        acc = accepts.get((off.receiver, off.type_tag), {}).get(off.giver)
        if acc is not None and (effective := off.constraint & acc.constraint):
            out.append(Binding(off, acc, effective))
    return out


def _supply_index(promises):
    # (acceptor, type) -> {provider: its unconditional accept}, (giver,
    # receiver, type) -> the unconditional offer, and the conditional
    # offers; all in graph order.
    accepts: dict[tuple, dict] = {}
    offers: dict[tuple, Promise] = {}
    pending: list = []
    for p in promises:
        if p.polarity is Polarity.ACCEPT:
            if not p.condition:
                accepts.setdefault((p.giver, p.type_tag), {})[p.receiver] = p
        elif p.condition:
            pending.append(p)
        else:
            offers[(p.giver, p.receiver, p.type_tag)] = p
    return accepts, offers, pending


def _discharge(promises, inside=None) -> tuple[dict, list]:
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
    accepts, offers, pending = _supply_index(promises)
    round_ = list(offers.values())
    if inside is not None:
        round_ = [o for o in round_ if o.giver in inside and o.receiver in inside]
        pending = [o for o in pending if o.giver in inside and o.receiver in inside]
    waiting: dict[tuple, list] = {}
    unmet: dict[int, int] = {}
    for o in pending:
        unmet[id(o)] = len(o.condition)
        for d in o.condition:
            waiting.setdefault((o.giver, d), []).append(o)
    supplied: dict[tuple, Promise] = {}
    fired: list = []
    while round_:
        start = len(fired)
        for o in round_:
            pair = (o.receiver, o.type_tag)
            if pair in supplied or o.giver not in accepts.get(pair, ()):
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
    no offer fires, the graph itself is returned.
    """
    fired = {id(p) for p in _discharge(graph.promises)[1]}
    if not fired:
        return graph
    promises = [replace(p, condition=()) if id(p) in fired else p for p in graph.promises]
    return PromiseGraph(graph.agents, promises, graph.calibration)


def valuation(graph: PromiseGraph, binding: Binding) -> float:
    """Currency value of one binding: c_S * alpha_giver * alpha_receiver."""
    c = graph.calibration_for(binding.offer.type_tag)
    giver = graph.agent(binding.offer.giver)
    receiver = graph.agent(binding.offer.receiver)
    return c * giver.assessment * receiver.assessment


def total_value(graph: PromiseGraph) -> float:
    """Total network value: the sum of binding valuations after reduction.

    For a complete positive mesh of N unit-assessment agents this is
    c * N * (N - 1); thinning the mesh to a fraction rho of the possible
    directed pairs scales it to c * rho * N * (N - 1). Summed with
    math.fsum so the result is independent of binding order.
    """
    reduced = reduce_conditionals(graph)
    return _value_of(reduced, find_bindings(reduced))


def _value_of(graph: PromiseGraph, bindings) -> float:
    return math.fsum(valuation(graph, b) for b in bindings)


def mesh_density(graph: PromiseGraph) -> float:
    """Bindings as a fraction of the N(N-1) possible directed pairs.

    Measured on the graph as given (reduce first if conditional promises
    should count). Zero for graphs with fewer than two agents.
    """
    return _density_of(graph, find_bindings(graph))


def _density_of(graph: PromiseGraph, bindings) -> float:
    n = len(graph.agents)
    if n < 2:
        return 0.0
    return len(bindings) / (n * (n - 1))


def largest_binding_component(graph: PromiseGraph) -> int:
    """Size of the largest set of agents connected through bindings.

    Bindings are treated as undirected edges; an agent with no bindings
    forms a component of size 1. Empty graph gives 0.
    """
    return _largest_component_of(graph, find_bindings(graph))


def _largest_component_of(graph: PromiseGraph, bindings) -> int:
    ids = graph.agent_ids()
    if not ids:
        return 0
    parent = {a: a for a in ids}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for b in bindings:
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

    supplied, _ = _discharge(graph.promises, member_set)
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
            new_promises.append(replace(p, giver=super_id, condition=residual))
        else:
            new_promises.append(replace(p, receiver=super_id))

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
    accepts, offers, _ = _supply_index(graph.promises)
    return _communities(accepts, offers, membership_type).get(authority, set())


def _communities(accepts, offers, membership_type: str) -> dict:
    """{authority: the givers bound to it by a membership_type offer it accepts back}."""
    communities: dict[str, set] = {}
    for b in _bindings(accepts, (o for o in offers.values() if o.type_tag == membership_type)):
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
    stored in graph (same giver, receiver, type and condition); the
    supply index the rules use is also where it is looked up.
    """
    if output_promise.polarity is not Polarity.OFFER:
        raise DomainError("only offers can be classified")
    accepts, offers, pending = _supply_index(graph.promises)
    key = output_promise._key()
    if output_promise.condition:
        stored = next((p for p in pending if p._key() == key), None)
    else:
        stored = offers.get(key[:3])
    if stored is None:
        raise DomainError("output promise not found in graph")

    if stored.condition:
        needed = {stored.giver}
        for d in stored.condition:
            ks = {k for k in accepts.get((stored.giver, d), ()) if (k, stored.giver, d) in offers}
            if not ks:
                break
            needed |= ks
        else:
            communities = _communities(accepts, offers, membership_type)
            # An agent without members is a community of itself alone, which
            # holds the chain only when the giver is its own sole provider.
            if len(needed) == 1 or any(needed - {u} <= members for u, members in communities.items()):
                return ScalingClass.RECURSIVE_DEPENDENCY
            return ScalingClass.SCARCE_DEPENDENCY

    own = [o for o in offers.values() if o.giver == stored.giver and o.type_tag == stored.type_tag]
    consumers = {b.offer.receiver for b in _bindings(accepts, own)}
    others = len(graph.agents) - 1
    fraction = len(consumers) / others if others > 0 else 0.0
    if fraction >= scarcity_threshold:
        return ScalingClass.INTERACTION
    return ScalingClass.SCARCE_AGENT


def _find_offer(graph: PromiseGraph, giver: str, receiver: str, type_tag: str) -> Promise:
    """The first offer giver -> receiver of type_tag in graph order, whatever its condition."""
    for p in graph.promises:
        if p.giver == giver and p.receiver == receiver and p.type_tag == type_tag and p.polarity is Polarity.OFFER:
            return p
    raise DomainError(f"no offer of type {type_tag!r} from {giver!r} to {receiver!r} in the graph")
