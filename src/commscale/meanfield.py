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
from typing import TYPE_CHECKING, Callable

from ._record import Record
from .errors import DomainError, UnsupportedConfigError, _finite, _integer, _real

if TYPE_CHECKING:
    from fractions import Fraction

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


class ScalingParams(Record):
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

    __slots__ = ("D", "H", "g_I", "g_Y", "G_Y", "c_Y", "v_Y", "L")

    def __init__(self, D: int, H: float, g_I: float = 1.0, g_Y: float = 1.0, G_Y: float = 1.0, c_Y: float = 1.0,
                 v_Y: float = 1.0, L: float = 1.0) -> None:
        self._freeze(_integer(D, "D", 1), *map(_real, (H, g_I, g_Y, G_Y, c_Y, v_Y, L), self._fields[1:],
                                               ["[0, inf)", "(0, 1]"] + 5 * ["(0, inf)"]))
        if self.H > self.D:
            raise DomainError(f"H must not exceed D, got H={self.H} with D={self.D}")


class Population(Record):
    """Active/inactive split of a community.

    N_I agents are connected to the shared infrastructure; N_0 are
    bystanders. Counts are finite non-negative reals: the model is a
    continuum approximation, so fractional populations are meaningful.
    """

    __slots__ = ("N_I", "N_0")

    def __init__(self, N_I: float, N_0: float = 0.0) -> None:
        self._freeze(_real(N_I, "N_I", "[0, inf)"), _real(N_0, "N_0", "[0, inf)"))

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


class ConsumptionCoeffs(Record):
    """Per-capita input (e_minus) and output (e_plus) coefficients, both >= 0."""

    __slots__ = ("e_minus", "e_plus")

    def __init__(self, e_minus: float, e_plus: float) -> None:
        self._freeze(_real(e_minus, "e_minus", "[0, inf)"), _real(e_plus, "e_plus", "[0, inf)"))


class Channel(enum.Enum):
    """How discovery impulses travel: by physical exploration or over a virtual link."""

    PHYSICAL = "physical"
    VIRTUAL = "virtual"


class ImpulseParams(Record):
    """Parameters of the impulse (idea/discovery) rate model.

    r: exploration speed in community-size units per time.
    T_explore: exploration time window.
    B: virtual channel bandwidth (impulses per time).
    density_I: impulse density per unit length.
    alpha_tau: receptivity probability, in [0, 1].
    c_phys, c_virt: channel weights.
    N_D: agents per workgroup; N_W: workgroup count.
    """

    __slots__ = ("r", "T_explore", "B", "density_I", "alpha_tau", "c_phys", "c_virt", "N_D", "N_W")

    def __init__(self, r: float = 1.0, T_explore: float = 1.0, B: float = 1.0, density_I: float = 1.0,
                 alpha_tau: float = 1.0, c_phys: float = 1.0, c_virt: float = 1.0, N_D: float = 1.0,
                 N_W: float = 1.0) -> None:
        self._freeze(*map(_real, (r, T_explore, B, density_I, alpha_tau, c_phys, c_virt, N_D, N_W), self._fields,
                          4 * ["[0, inf)"] + ["[0, 1]"] + 4 * ["[0, inf)"]))


def delta_exponent(params: ScalingParams) -> float:
    """Elasticity delta = H^2 / (D (D + H)).

    Reduces to 1/(D(D+1)) for H=1 and to 0 for unconnected nodes (H=0).
    For 0 < H <= D it lies in (0, 1/2].
    """
    return _rational(lambda D, H, d: d, params)


def _holds(mask) -> bool:
    """A comparison of floats, or whether the comparison of float64 columns holds in every cell."""
    return mask if mask.__class__ is bool else mask.all()


def _equilibrium(params: ScalingParams, power=pow):
    """equilibrium_volume as v_eq(n_i, n), with its constants hoisted."""
    expo = params.D / (params.D + params.H)
    a = (params.g_Y * params.v_Y / params.c_Y) ** expo

    def v_eq(n_i: float, n: float) -> float:
        if not _holds((n != 0) & (n_i != 0)):
            raise DomainError("equilibrium volume requires N > 0 and N_I > 0")
        return a * power(power(n_i, 2) / n, expo)

    return v_eq


def _infrastructure(params: ScalingParams, power=pow):
    """infrastructure_volume as v_i(V, n_i, n), with g_I, H/D and L**(D-H) hoisted."""
    g_I, hd, Lc = params.g_I, params.H / params.D, params.L ** (params.D - params.H)

    def v_i(V: float, n_i: float, n: float) -> float:
        # An equilibrium volume that a kernel computes may underflow to 0 or overflow to inf.
        if not _holds((V > 0) & (V < math.inf)):
            raise DomainError(f"community volume must be finite and positive, got {V}")
        if not _holds(n != 0):
            raise DomainError("total population is zero")
        return g_I * power(V, hd) * Lc * n_i * power(n, -hd)

    return v_i


@_finite
def infrastructure_volume(V: float, pop: Population, params: ScalingParams) -> float:
    """Serialized volume of the shared supply network inside community volume V.

    Evaluates the lower bound

        V_I = g_I * V**(H/D) * L**(D-H) * N_I * N**(-H/D)

    as an equality; every scaling statement uses the bound as the
    operating point. Zero connected agents means zero infrastructure.
    """
    return _infrastructure(params)(_real(V, "V", "(0, inf)"), pop.N_I, pop.N)


@_finite
def equilibrium_volume(pop: Population, params: ScalingParams) -> float:
    """Largest sustainable community volume for a given population.

    Transport cost grows with volume while process yield grows with
    N_I^2/N; balancing the two at the margin gives

        V = a * (N_I**2 / N)**(D/(D+H)),  a = (g_Y v_Y / c_Y)**(D/(D+H))
    """
    return _equilibrium(params)(pop.N_I, pop.N)


@_finite
def yield_output(pop: Population, params: ScalingParams) -> float:
    """Interaction yield G_Y * N_I^2 / V_I, evaluated at the equilibrium volume.

    The volume fed to the infrastructure term is not a free argument: it
    is pinned to equilibrium_volume(pop, params). That composition is
    what produces the superlinear N**(1+delta) scaling of outputs; with
    all couplings at 1 and N = N_I it reduces to exactly N**(1+delta).
    """
    return _LAWS[ScalingClass.INTERACTION].kernel(params)(pop.N_I, pop.N_0)


def linear_consumption(pop: Population, coeffs: ConsumptionCoeffs) -> tuple[float, float]:
    """Per-capita input and output totals (e_minus * N, e_plus * N)."""
    return _total(coeffs.e_minus, pop.N), _total(coeffs.e_plus, pop.N)


@_finite
def _total(e: float, N: float) -> float:
    return e * N


def _yield(G_Y: float, n_i: float, v_i: float, power) -> float:
    return G_Y * power(n_i, 2) / v_i


def _degree(n_i: float, v_i: float) -> float:
    if not _holds(v_i != 0):
        raise DomainError("infrastructure volume is zero (no connected agents)")
    return n_i / v_i


def _at_equilibrium(out):
    """kernel(params, power) of (n_i, n_0) -> out(G_Y, n_i, V_I, power), V_I at the equilibrium volume of n_i + n_0.

    n_i = 0 raises the equilibrium volume's DomainError before any volume is computed.
    """

    def factory(params: ScalingParams, power=pow):
        v_eq, v_i, G_Y = _equilibrium(params, power), _infrastructure(params, power), params.G_Y
        return lambda n_i, n_0: out(G_Y, n_i, v_i(v_eq(n_i, n := n_i + n_0), n_i, n), power)

    return factory


def _recursive(params: ScalingParams, power=pow):
    """Kernel of N_I**2 over the cascaded chain volume (V_eq/N_I)**(1/D**2) * N_I."""
    v_eq, r = _equilibrium(params, power), 1 / params.D**2
    return lambda n_i, n_0: power(n_i, 2) / (power(v_eq(n_i, n_i + n_0) / n_i, r) * n_i)


def _virtual(params: ScalingParams, power=pow):
    """Kernel of N_I**(2H/D) * N**(-H/D)."""
    e_i, e_n = 2 * params.H / params.D, -params.H / params.D
    return lambda n_i, n_0: power(n_i, e_i) * power(n_i + n_0, e_n)


class _ClassLaw(Record):
    """One scaling class: exponent beta, split share p and model kernel.

    exponent and share take (D, H, delta) and return exact rationals. p is
    the power of the (1 + N_0/N_I) factor: a class value N_I**q * N**p with
    N = N_I (1 + N_0/N_I) is N_I**(p+q) * (1 + N_0/N_I)**p. Shares are
    written through delta, which makes them exact at D = 2H (the headline
    regime); the recursive and virtual shares are exact at every supported
    D, H. kernel(params, power=pow) hoists the constants of params and
    returns the noise-free class output at the equilibrium volume as a
    function of (N_I, N_0), raising powers by power: builtin pow, or pow
    mapped over float64 columns. It may overflow, which callers turn into
    DomainError. unit_h_only marks an H = 1 only class.
    """

    __slots__ = ("exponent", "share", "kernel", "unit_h_only")

    def __init__(self, exponent: Callable[[Fraction, Fraction, Fraction], Fraction],
                 share: Callable[[Fraction, Fraction, Fraction], Fraction],
                 kernel: Callable[..., Callable[[float, float], float]], unit_h_only: bool = False) -> None:
        self._freeze(exponent, share, kernel, unit_h_only)


_LAWS = {
    ScalingClass.INFRASTRUCTURE_VOLUME: _ClassLaw(
        exponent=lambda D, H, d: 1 - d,
        share=lambda D, H, d: d - 1,
        kernel=_at_equilibrium(lambda G_Y, n_i, v_i, power: v_i),
    ),
    ScalingClass.LINEAR_CONSUMPTION: _ClassLaw(
        exponent=lambda D, H, d: 1,
        share=lambda D, H, d: 1,
        kernel=lambda p, power=pow: lambda n_i, n_0: n_i + n_0,
    ),
    ScalingClass.INTERACTION: _ClassLaw(
        exponent=lambda D, H, d: 1 + d,
        share=lambda D, H, d: 1 - d,
        kernel=_at_equilibrium(_yield),
    ),
    ScalingClass.SCARCE_AGENT: _ClassLaw(
        exponent=lambda D, H, d: d,
        share=lambda D, H, d: 1 - d,
        kernel=_at_equilibrium(lambda G_Y, n_i, v_i, power: _degree(n_i, v_i)),
    ),
    ScalingClass.SCARCE_DEPENDENCY: _ClassLaw(
        exponent=lambda D, H, d: 1 + 2 * d,
        share=lambda D, H, d: 2 * (1 - d),
        # Yield times node degree, from one V_eq and one V_I.
        kernel=_at_equilibrium(lambda G_Y, n_i, v_i, power: _yield(G_Y, n_i, v_i, power) * _degree(n_i, v_i)),
    ),
    ScalingClass.RECURSIVE_DEPENDENCY: _ClassLaw(
        exponent=lambda D, H, d: 1 + 1 / (D * D) - 1 / (D * (D + 1)),
        share=lambda D, H, d: d,
        kernel=_recursive,
        unit_h_only=True,
    ),
    ScalingClass.VIRTUAL_INTERACTION: _ClassLaw(
        exponent=lambda D, H, d: H / D,
        share=lambda D, H, d: -H / D,
        kernel=_virtual,
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


def _rational(part: Callable[[Fraction, Fraction, Fraction], Fraction], params: ScalingParams) -> float:
    """part(D, H, delta) in exact arithmetic, as a float."""
    from fractions import Fraction  # here, not at the top: it loads decimal, and most commands need no exponent

    D, H = Fraction(params.D), Fraction(params.H)
    return float(part(D, H, H * H / (D * (D + H))))


def predicted_exponent(scaling_class: ScalingClass, params: ScalingParams) -> float:
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
    N_I); the split-population factor lives in correction_factor.
    """
    return _rational(_law(scaling_class, params).exponent, params)


@_finite
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


@_finite
def node_degree(pop: Population, V: float, params: ScalingParams) -> float:
    """Average utilization per unit of supply volume, k = N_I / V_I.

    By construction node_degree * infrastructure_volume = N_I exactly.
    At the equilibrium volume k scales as N**delta.
    """
    return _degree(pop.N_I, infrastructure_volume(V, pop, params))


@_finite
def infra_agent_count(N_client: float, valency: float, alpha_minus: float, alpha_plus: float) -> float:
    """Minimum number of supply-side agents that balances client demand.

    Detailed balance of accepted versus offered interactions gives

        N_infra = (alpha_minus / alpha_plus) * N_client / valency

    where valency is how many clients one supply agent can serve at once.
    """
    alpha_plus, alpha_minus = _real(alpha_plus, "alpha_plus", "(0, inf]"), _real(alpha_minus, "alpha_minus", "[0, inf)")
    valency, N_client = _real(valency, "valency", "[1, inf]"), _real(N_client, "N_client", "[0, inf)")
    return (alpha_minus / alpha_plus) * N_client / valency


@_finite
def serialized_client_count(V_catchment: float, N_users: float, D: int, cross_section: float) -> float:
    """Clients serialized along a supply tube through a shared catchment.

    Each user claims a capture volume V_catchment/N_users; its linear
    extent to the 1/D power, times the tube cross-section, times the
    user count gives the serialized total.
    """
    V_catchment, N_users = _real(V_catchment, "V_catchment", "(0, inf)"), _real(N_users, "N_users", "(0, inf)")
    cross_section = _real(cross_section, "cross_section", "(0, inf)")
    return (V_catchment / N_users) ** (1 / _integer(D, "D", 1)) * cross_section * N_users


@_finite
def impulse_rate(channel: Channel, V: float, p: ImpulseParams, D: int) -> float:
    """Impulses received per exploration window over one channel.

    Physical discovery sweeps a linear extent V**(1/D) at speed r;
    virtual discovery is bandwidth-limited and independent of volume.
    """
    # The virtual rate reads neither V nor D; both are still checked, V as any real number but nan.
    V, D = _real(V, "V", "(0, inf)" if channel is Channel.PHYSICAL else "[-inf, inf]"), _integer(D, "D", 1)
    if channel is Channel.PHYSICAL:
        return p.r * p.T_explore * V ** (1 / D) * p.density_I * p.alpha_tau
    if channel is Channel.VIRTUAL:
        return p.B * p.T_explore * p.density_I * p.alpha_tau
    raise DomainError(f"unknown channel {channel!r}")


@_finite
def city_idea_rate(p: ImpulseParams, i_phys: float, i_virt: float) -> float:
    """Community-wide idea rate: N_W workgroups of N_D agents mixing both channels."""
    i_phys, i_virt = _real(i_phys, "i_phys", "[0, inf)"), _real(i_virt, "i_virt", "[0, inf)")
    return p.N_W * p.N_D * (p.c_phys * i_phys + p.c_virt * i_virt)
