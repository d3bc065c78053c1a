"""Mean-field scaling model of functional communities.

A community (a city, a datacentre, a company) is reduced to aggregate
variables: a population N split into N_I agents coupled to shared
infrastructure and N_0 bystanders, an equivalent volume V, and a few
dimensional couplings. Agent identity and geography are deliberately
discarded; every quantity here is a closed-form function of the
aggregates.

The central number is the elasticity

    delta = H**2 / (D * (D + H))

where D is the embedding dimension and H the effective space-filling
dimension of the supply trajectories. Infrastructure volume grows
sublinearly as N**(1-delta), interaction outputs superlinearly as
N**(1+delta), and the remaining dependency configurations listed in
``ScalingClass`` fill out the other combinations. At D=2, H=1 the
family is 5/6, 1, 7/6, 1/6, 4/3, 13/12 and 1/2.

Exponents are computed in exact rational arithmetic (D and H, stored as
machine floats, are binary rationals) and converted to float on return,
so reported values carry no accumulated drift.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, UnsupportedConfigError

__all__ = [
    "ScalingParams",
    "Population",
    "ScalingClass",
    "ConsumptionCoeffs",
    "ImpulseParams",
    "Channel",
    "delta_exponent",
    "infrastructure_volume",
    "equilibrium_volume",
    "yield_output",
    "linear_consumption",
    "predicted_exponent",
    "correction_factor",
    "node_degree",
    "infra_agent_count",
    "serialized_client_count",
    "impulse_rate",
    "city_idea_rate",
]


@dataclass(frozen=True)
class ScalingParams:
    """Dimensional and coupling constants of the mean-field model.

    D: embedding dimension, integer >= 1.
    H: effective space-filling (Hausdorff) dimension of the supply
       trajectories, 0 <= H <= D. H=0 means unconnected nodes.
    g_I: fraction of the community volume spanned by infrastructure,
       0 < g_I <= 1.
    g_Y: yield coupling (money units).
    G_Y: interaction yield coupling (money x volume units).
    c_Y: transport cost per unit path length.
    v_Y: process volume coefficient.
    L: fixed cross-section length scale, L > 0.
    """

    D: int
    H: float
    g_I: float = 1.0
    g_Y: float = 1.0
    G_Y: float = 1.0
    c_Y: float = 1.0
    v_Y: float = 1.0
    L: float = 1.0

    def __post_init__(self) -> None:
        if not 1 <= self.D < math.inf or self.D != int(self.D):
            raise DomainError(f"D must be an integer >= 1, got {self.D}")
        object.__setattr__(self, "D", int(self.D))
        if not 0 <= self.H <= self.D:
            raise DomainError(f"H must satisfy 0 <= H <= D, got H={self.H} with D={self.D}")
        for name in ("g_I", "g_Y", "G_Y", "c_Y", "v_Y", "L"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and strictly positive, got {getattr(self, name)}")
        if self.g_I > 1:
            raise DomainError(f"g_I is a volume fraction and must not exceed 1, got {self.g_I}")


@dataclass(frozen=True)
class Population:
    """Active/inactive split of a community.

    N_I agents are connected to the shared infrastructure; N_0 are
    bystanders. Counts are non-negative reals: the model is a continuum
    approximation, so fractional populations are meaningful.
    """

    N_I: float
    N_0: float = 0.0

    def __post_init__(self) -> None:
        # False for nan. inf is let through: ensembles build one Population per sample, and a bound costs time there.
        if not (self.N_I >= 0 and self.N_0 >= 0):
            raise DomainError(f"population counts must be non-negative, got N_I={self.N_I}, N_0={self.N_0}")

    @property
    def N(self) -> float:
        """Total population N_I + N_0."""
        return self.N_I + self.N_0


class ScalingClass(enum.Enum):
    """Dependency configurations, each with one predicted scaling exponent."""

    INFRASTRUCTURE_VOLUME = "infrastructure_volume"
    LINEAR_CONSUMPTION = "linear_consumption"
    INTERACTION = "interaction"
    SCARCE_AGENT = "scarce_agent"
    SCARCE_DEPENDENCY = "scarce_dependency"
    RECURSIVE_DEPENDENCY = "recursive_dependency"
    VIRTUAL_INTERACTION = "virtual_interaction"


@dataclass(frozen=True)
class ConsumptionCoeffs:
    """Per-capita input (e_minus) and output (e_plus) coefficients, both >= 0."""

    e_minus: float
    e_plus: float

    def __post_init__(self) -> None:
        if not (0 <= self.e_minus < math.inf and 0 <= self.e_plus < math.inf):
            raise DomainError("consumption coefficients must be finite and non-negative")


class Channel(enum.Enum):
    """How discovery impulses travel: by physical exploration or over a virtual link."""

    PHYSICAL = "physical"
    VIRTUAL = "virtual"


@dataclass(frozen=True)
class ImpulseParams:
    """Parameters of the impulse (idea/discovery) rate model.

    r: exploration speed in community-size units per time.
    T_explore: exploration time window.
    B: virtual channel bandwidth (impulses per time).
    density_I: impulse density per unit length.
    alpha_tau: receptivity probability, in [0, 1].
    c_phys, c_virt: channel weights.
    N_D: agents per workgroup; N_W: workgroup count.
    """

    r: float = 1.0
    T_explore: float = 1.0
    B: float = 1.0
    density_I: float = 1.0
    alpha_tau: float = 1.0
    c_phys: float = 1.0
    c_virt: float = 1.0
    N_D: float = 1.0
    N_W: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.alpha_tau <= 1:
            raise DomainError(f"alpha_tau is a probability, got {self.alpha_tau}")
        for name in ("r", "T_explore", "B", "density_I", "c_phys", "c_virt", "N_D", "N_W"):
            if not 0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and non-negative, got {getattr(self, name)}")


def _delta(D: int, H: Fraction) -> Fraction:
    return H * H / (D * (D + H))


def delta_exponent(params: ScalingParams) -> float:
    """Elasticity delta = H^2 / (D (D + H)).

    Reduces to 1/(D(D+1)) for H=1 and to 0 for unconnected nodes (H=0).
    For 0 < H <= D it lies in (0, 1/2].
    """
    return float(_delta(params.D, Fraction(params.H)))


def infrastructure_volume(V: float, pop: Population, params: ScalingParams) -> float:
    """Serialized volume of the shared supply network inside community volume V.

    Evaluates the lower bound

        V_I = g_I * V**(H/D) * L**(D-H) * N_I * N**(-H/D)

    as an equality; every scaling statement uses the bound as the
    operating point. Zero connected agents means zero infrastructure.
    """
    if V <= 0:
        raise DomainError(f"community volume must be positive, got {V}")
    if pop.N == 0:
        raise DomainError("total population is zero")
    hd = params.H / params.D
    return params.g_I * V**hd * params.L ** (params.D - params.H) * pop.N_I * pop.N**-hd


def equilibrium_volume(pop: Population, params: ScalingParams) -> float:
    """Largest sustainable community volume for a given population.

    Transport cost grows with volume while process yield grows with
    N_I^2/N; balancing the two at the margin gives

        V = a * (N_I**2 / N)**(D/(D+H)),  a = (g_Y v_Y / c_Y)**(D/(D+H))
    """
    if pop.N == 0 or pop.N_I == 0:
        raise DomainError("equilibrium volume requires N > 0 and N_I > 0")
    expo = params.D / (params.D + params.H)
    a = (params.g_Y * params.v_Y / params.c_Y) ** expo
    return a * (pop.N_I**2 / pop.N) ** expo


def yield_output(pop: Population, params: ScalingParams) -> float:
    """Interaction yield G_Y * N_I^2 / V_I, evaluated at the equilibrium volume.

    The volume fed to the infrastructure term is not a free argument: it
    is pinned to equilibrium_volume(pop, params). That composition is
    what produces the superlinear N**(1+delta) scaling of outputs; with
    all couplings at 1 and N = N_I it reduces to exactly N**(1+delta).
    """
    if pop.N_I == 0:
        raise DomainError("yield requires N_I > 0")
    v_eq = equilibrium_volume(pop, params)
    v_i = infrastructure_volume(v_eq, pop, params)
    return params.G_Y * pop.N_I**2 / v_i


def linear_consumption(pop: Population, coeffs: ConsumptionCoeffs) -> tuple[float, float]:
    """Per-capita input and output totals (e_minus * N, e_plus * N)."""
    return coeffs.e_minus * pop.N, coeffs.e_plus * pop.N


def _yield_times_degree(pop: Population, params: ScalingParams) -> float:
    """yield_output(pop, params) * node_degree(pop, V_eq, params) at the equilibrium volume V_eq.

    Computes V_eq and V_I once instead of twice, with the same float
    operations in the same order and the same errors as the two calls.
    """
    if pop.N_I == 0:
        raise DomainError("yield requires N_I > 0")
    v_i = infrastructure_volume(equilibrium_volume(pop, params), pop, params)
    return params.G_Y * pop.N_I**2 / v_i * (pop.N_I / v_i)


@dataclass(frozen=True)
class _ClassLaw:
    """One scaling class: exponent beta, split share p and model value.

    exponent and share take (D, H, delta) and return exact rationals. p is
    the power of the (1 + N_0/N_I) factor: a class value N_I**q * N**p with
    N = N_I (1 + N_0/N_I) is N_I**(p+q) * (1 + N_0/N_I)**p. Shares are
    written through delta, which makes them exact at D = 2H (the headline
    regime); the recursive and virtual shares are exact at every supported
    D, H. value(pop, params) is the noise-free class output at the
    equilibrium volume; unit_h_only marks a class derived for H = 1 only.
    """

    exponent: Callable[[int, Fraction, Fraction], Fraction]
    share: Callable[[int, Fraction, Fraction], Fraction]
    value: Callable[[Population, ScalingParams], float]
    unit_h_only: bool = False


_LAWS = {
    ScalingClass.INFRASTRUCTURE_VOLUME: _ClassLaw(
        exponent=lambda D, H, d: 1 - d,
        share=lambda D, H, d: d - 1,
        value=lambda pop, p: infrastructure_volume(equilibrium_volume(pop, p), pop, p),
    ),
    ScalingClass.LINEAR_CONSUMPTION: _ClassLaw(
        exponent=lambda D, H, d: Fraction(1),
        share=lambda D, H, d: Fraction(1),
        value=lambda pop, p: pop.N,
    ),
    ScalingClass.INTERACTION: _ClassLaw(
        exponent=lambda D, H, d: 1 + d,
        share=lambda D, H, d: 1 - d,
        value=yield_output,
    ),
    ScalingClass.SCARCE_AGENT: _ClassLaw(
        exponent=lambda D, H, d: d,
        share=lambda D, H, d: 1 - d,
        value=lambda pop, p: node_degree(pop, equilibrium_volume(pop, p), p),
    ),
    ScalingClass.SCARCE_DEPENDENCY: _ClassLaw(
        exponent=lambda D, H, d: 1 + 2 * d,
        share=lambda D, H, d: 2 * (1 - d),
        value=_yield_times_degree,
    ),
    ScalingClass.RECURSIVE_DEPENDENCY: _ClassLaw(
        exponent=lambda D, H, d: 1 + Fraction(1, D * D) - Fraction(1, D * (D + 1)),
        share=lambda D, H, d: d,
        # N_I**2 over the cascaded chain volume (V_eq/N_I)**(1/D**2) * N_I.
        value=lambda pop, p: pop.N_I**2 / ((equilibrium_volume(pop, p) / pop.N_I) ** (1 / p.D**2) * pop.N_I),
        unit_h_only=True,
    ),
    ScalingClass.VIRTUAL_INTERACTION: _ClassLaw(
        exponent=lambda D, H, d: H / D,
        share=lambda D, H, d: -H / D,
        value=lambda pop, p: pop.N_I ** (2 * p.H / p.D) * pop.N ** (-p.H / p.D),
    ),
}


def _law(scaling_class, params: ScalingParams) -> _ClassLaw:
    """The record of a ScalingClass or its string value, checked against params."""
    try:
        cls = ScalingClass(scaling_class)
    except ValueError:
        raise DomainError(f"unknown scaling class {scaling_class!r}") from None
    law = _LAWS[cls]
    if law.unit_h_only and params.H != 1:
        raise UnsupportedConfigError(f"the {cls.value.replace('_', ' ')} exponent is only derived for H = 1")
    return law


def _rational(part: Callable[[int, Fraction, Fraction], Fraction], params: ScalingParams) -> float:
    H = Fraction(params.H)
    return float(part(params.D, H, _delta(params.D, H)))


def predicted_exponent(scaling_class: ScalingClass, params: ScalingParams, pervasive: bool = True) -> float:
    """Predicted ensemble exponent beta for one dependency class.

    With delta = delta_exponent(params):

        InfrastructureVolume -> 1 - delta      (sublinear supply)
        LinearConsumption    -> 1              (per-capita)
        Interaction          -> 1 + delta      (pairwise outputs)
        ScarceAgent          -> delta          (per-node utilization)
        ScarceDependency     -> 1 + 2*delta    (two stacked economies)
        RecursiveDependency  -> 1 + 1/D**2 - 1/(D(D+1))   (H=1 only)
        VirtualInteraction   -> H/D            (no longer superlinear)

    A single power law only holds for a pervasive network (N close to
    N_I). Passing pervasive=False raises instead of returning something
    misleading; the split-population factor lives in correction_factor.
    """
    if not pervasive:
        raise DomainError(
            "exponents are single powers only for a pervasive network (N ~= N_I); "
            "use correction_factor for the (1 + N_0/N_I) adjustment"
        )
    return _rational(_law(scaling_class, params).exponent, params)


def correction_factor(scaling_class: ScalingClass, pop: Population, params: ScalingParams) -> float:
    """Multiplier on the pervasive power law when part of the population idles.

    Returns (1 + N_0/N_I)**p with the class share p documented in
    _ClassLaw; exactly 1 for every class when N_0 = 0. For Interaction
    at D=2, H=1 this is the (1 + N_0/N_I)**(5/6) factor that multiplies
    N_I**(7/6).
    """
    if pop.N_I == 0:
        raise DomainError("correction factor requires N_I > 0")
    return (1 + pop.N_0 / pop.N_I) ** _rational(_law(scaling_class, params).share, params)


def node_degree(pop: Population, V: float, params: ScalingParams) -> float:
    """Average utilization per unit of supply volume, k = N_I / V_I.

    By construction node_degree * infrastructure_volume = N_I exactly.
    At the equilibrium volume k scales as N**delta.
    """
    v_i = infrastructure_volume(V, pop, params)
    if v_i == 0:
        raise DomainError("infrastructure volume is zero (no connected agents)")
    return pop.N_I / v_i


def infra_agent_count(N_client: float, valency: float, alpha_minus: float, alpha_plus: float) -> float:
    """Minimum number of supply-side agents that balances client demand.

    Detailed balance of accepted versus offered interactions gives

        N_infra = (alpha_minus / alpha_plus) * N_client / valency

    where valency is how many clients one supply agent can serve at once.
    """
    if alpha_plus <= 0:
        raise DomainError(f"alpha_plus must be positive, got {alpha_plus}")
    if valency < 1:
        raise DomainError(f"valency must be >= 1, got {valency}")
    if N_client < 0:
        raise DomainError(f"client count must be non-negative, got {N_client}")
    return (alpha_minus / alpha_plus) * N_client / valency


def serialized_client_count(V_catchment: float, N_users: float, D: int, cross_section: float) -> float:
    """Clients serialized along a supply tube through a shared catchment.

    Each user claims a capture volume V_catchment/N_users; its linear
    extent to the 1/D power, times the tube cross-section, times the
    user count gives the serialized total.
    """
    if V_catchment <= 0:
        raise DomainError(f"catchment volume must be positive, got {V_catchment}")
    if N_users <= 0:
        raise DomainError(f"user count must be positive, got {N_users}")
    if cross_section <= 0:
        raise DomainError(f"cross-section must be positive, got {cross_section}")
    if D < 1:
        raise DomainError(f"D must be >= 1, got {D}")
    return (V_catchment / N_users) ** (1 / D) * cross_section * N_users


def impulse_rate(channel: Channel, V: float, p: ImpulseParams, D: int) -> float:
    """Impulses received per exploration window over one channel.

    Physical discovery sweeps a linear extent V**(1/D) at speed r;
    virtual discovery is bandwidth-limited and independent of volume.
    """
    if channel is Channel.PHYSICAL:
        if V <= 0:
            raise DomainError(f"physical discovery requires a positive volume, got {V}")
        return p.r * p.T_explore * V ** (1 / D) * p.density_I * p.alpha_tau
    if channel is Channel.VIRTUAL:
        return p.B * p.T_explore * p.density_I * p.alpha_tau
    raise DomainError(f"unknown channel {channel!r}")


def city_idea_rate(p: ImpulseParams, i_phys: float, i_virt: float) -> float:
    """Community-wide idea rate: N_W workgroups of N_D agents mixing both channels."""
    return p.N_W * p.N_D * (p.c_phys * i_phys + p.c_virt * i_virt)
