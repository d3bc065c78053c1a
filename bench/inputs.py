"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain text or argv
lists; the program under test sees nothing else. Sizes and structure are
fixed per workload so that the work done does not depend on the seed:
the seed picks which pairs are thinned, constraint tokens, assessments,
argument values and record order.

Each generator also returns the facts it built in (bound pairs,
community members, the class of each classified offer), which the
oracles check on top of their own computation from the text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

TOKENS = [f"q{i}" for i in range(8)]
CLASSES = [
    "infrastructure_volume",
    "linear_consumption",
    "interaction",
    "scarce_agent",
    "scarce_dependency",
    "recursive_dependency",
    "virtual_interaction",
]


def _alpha(x: float) -> str:
    return repr(float(x))


def _promise(giver, receiver, tag, pol, chi, cond=()) -> str:
    line = f"promise {giver} {receiver} {tag} {pol} {','.join(chi)}"
    if cond:
        line += " | " + ",".join(cond)
    return line


def _finish(rng: random.Random, agent_lines: list, promise_lines: list) -> str:
    lines = agent_lines + promise_lines
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# mesh-graph


@dataclass
class Mesh:
    text: str
    bound: set  # directed (giver, receiver) pairs that bind
    complete: bool
    calibration: float


def mesh(seed: int, n_agents: int, pair_share: float, dup_share: float, calibration: float) -> Mesh:
    """A unit-assessment mesh of one promise type, 'svc'.

    pair_share of the N(N-1) directed pairs carry promises (1.0 makes a
    complete mesh, where every such pair binds). In a thinned mesh a
    fixed tenth of the chosen pairs offer with no accept and another
    tenth offer and accept with disjoint constraints, so neither binds.
    dup_share of the binding pairs declare their offer twice with
    different tokens; only the merged constraint set overlaps the accept,
    so the pair binds only if duplicates merge.
    """
    rng = random.Random(seed)
    ids = [f"m{i:03d}" for i in range(n_agents)]
    pairs = [(a, b) for a in ids for b in ids if a != b]
    complete = pair_share >= 1.0
    chosen = pairs if complete else rng.sample(pairs, round(pair_share * len(pairs)))
    n = len(chosen)
    n_half = 0 if complete else n // 10
    n_disjoint = 0 if complete else n // 10
    order = list(range(n))
    rng.shuffle(order)
    n_dup = round(dup_share * (n - n_half - n_disjoint))
    promise_lines = []
    bound = set()
    for rank, idx in enumerate(order):
        g, r = chosen[idx]
        t1, t2 = rng.sample(TOKENS, 2)
        if rank < n_half:
            promise_lines.append(_promise(g, r, "svc", "+", [t1]))
        elif rank < n_half + n_disjoint:
            promise_lines.append(_promise(g, r, "svc", "+", [t1]))
            promise_lines.append(_promise(r, g, "svc", "-", [t2]))
        elif rank < n_half + n_disjoint + n_dup:
            promise_lines.append(_promise(g, r, "svc", "+", [t1]))
            promise_lines.append(_promise(g, r, "svc", "+", [t2]))
            promise_lines.append(_promise(r, g, "svc", "-", [t2]))
            bound.add((g, r))
        else:
            promise_lines.append(_promise(g, r, "svc", "+", [t1]))
            promise_lines.append(_promise(r, g, "svc", "-", sorted({t1, t2})))
            bound.add((g, r))
    agent_lines = [f"agent {a} 1.0" for a in ids]
    text = _finish(rng, agent_lines, promise_lines)
    return Mesh(text, bound, complete, calibration)


# Fixed make-up of one mesh-graph round: (agents, pair share, duplicate share, calibration).
MESH_ROUND = [
    (80, 1.0, 0.1, 1.0),
    (200, 0.16, 0.3, 2.5),
]


def mesh_round(seed: int) -> list[Mesh]:
    return [mesh(seed * 7919 + i, *shape) for i, shape in enumerate(MESH_ROUND)]


# --------------------------------------------------------------------------
# conditional-graph


@dataclass
class OrgGraph:
    text: str
    classify: list  # (giver, receiver, type, threshold, expected class)
    community: tuple  # (authority, expected members)
    aggregates: list  # (members, super id, expected assessment or None)
    expected_discharged: int


def org_graph(seed: int, chain_depth: int = 300, ladder_depth: int = 16, community: int = 50) -> OrgGraph:
    """An organisation built from three parts plus a few specialists.

    - A conditional supply chain c0000..: each link offers 'part' to the
      one above only once it is itself supplied, so discharge must walk
      the whole depth; the top offers 'prod' to 'cust'.
    - A two-wide conditional ladder l..: every rung offers 'rung' to both
      agents above on condition of 'rung' from below, and the bottom row
      is never supplied. Nothing discharges; the two top agents offer
      'kit' to 'buyer' on condition of 'rung'.
    - A membership community under authority 'hq': member agents m..
      register with 'member' offers that hq accepts; a few more offer
      membership that hq never accepts. Every member offers 'report' to
      hq on condition of 'data', supplied unconditionally by the next
      member (a unique interior witness), and hq sends 'news' to all
      members. One member needs 'power' from the exterior specialist
      'grid'.
    """
    rng = random.Random(seed)
    agents: dict[str, float] = {}
    lines: list[str] = []

    def tok() -> list:
        return [rng.choice(TOKENS)]

    def bind(giver, receiver, tag, cond=()):
        # Offer and matching accept; the offer may be conditional.
        chi = tok()
        lines.append(_promise(giver, receiver, tag, "+", chi, cond))
        lines.append(_promise(receiver, giver, tag, "-", sorted(set(chi) | set(tok()))))

    for x in ("cust", "buyer", "grid", "hq"):
        agents[x] = rng.choice([0.5, 0.75, 1.0])

    chain = [f"c{i:04d}" for i in range(chain_depth + 1)]
    for c in chain:
        agents[c] = rng.choice([0.5, 1.0])
    bind(chain[0], "cust", "prod", ("part",))
    for i in range(chain_depth):
        bind(chain[i + 1], chain[i], "part", ("part",) if i + 1 < chain_depth else ())

    ladder_alpha = rng.choice([0.25, 0.5, 0.75])
    rows = [[f"l{r:02d}{s}" for s in "ab"] for r in range(ladder_depth)]
    for row in rows:
        for a in row:
            agents[a] = ladder_alpha
    for a in rows[0]:
        bind(a, "buyer", "kit", ("rung",))
    for r in range(1, ladder_depth):
        for giver in rows[r]:
            for receiver in rows[r - 1]:
                bind(giver, receiver, "rung", ("rung",))

    members = [f"m{i:02d}" for i in range(community)]
    outsiders = [f"n{i:02d}" for i in range(5)]
    for m in members + outsiders:
        agents[m] = rng.choice([0.25, 0.5, 1.0])
    for m in members:
        bind(m, "hq", "member")
        bind("hq", m, "news")
    for m in outsiders:
        lines.append(_promise(m, "hq", "member", "+", tok()))
    for i, m in enumerate(members):
        bind(members[(i + 1) % community], m, "data")
        bind(m, "hq", "report", ("data",))
    powered = members[rng.randrange(community)]
    bind("grid", powered, "power")
    bind(powered, "cust", "energy", ("power",))
    sparse = members[rng.randrange(community)]
    bind(sparse, "cust", "advice")

    # A small supply cell inside the community: cell0 sells 'widget' to
    # cust once supplied with 'gear' by cell1, which needs 'bolt' from
    # cell2. Witnesses are unique, so the superagent's assessment is the
    # product over the cell.
    cell = ["cell0", "cell1", "cell2"]
    for c in cell:
        agents[c] = rng.choice([0.5, 1.0])
    bind("cell0", "cust", "widget", ("gear",))
    bind("cell1", "cell0", "gear", ("bolt",))
    bind("cell2", "cell1", "bolt")
    cell_alpha = agents["cell0"] * agents["cell1"] * agents["cell2"]

    agent_lines = [f"agent {a} {_alpha(x)}" for a, x in agents.items()]
    text = _finish(rng, agent_lines, lines)
    interior = members[rng.randrange(community)]
    classify = [
        (interior, "hq", "report", 0.1, "recursive_dependency"),
        (powered, "cust", "energy", 0.1, "scarce_dependency"),
        ("hq", members[0], "news", 0.05, "interaction"),
        (sparse, "cust", "advice", 0.1, "scarce_agent"),
    ]
    ladder_members = [a for row in rows for a in row]
    aggregates = [
        (ladder_members, "ladder", ladder_alpha),
        (cell, "cell", cell_alpha),
    ]
    # chain links + top product + community reports + energy + cell (widget, gear)
    discharged = chain_depth + community + 1 + 2
    return OrgGraph(text, classify, ("hq", sorted(members)), aggregates, discharged)


def deep_chain(depth: int = 3000) -> str:
    """A seed-independent interior supply chain of the given depth.

    Aggregating all d.... agents asks for an interior chain as deep as
    the graph, which a recursive search cannot follow past the
    interpreter's recursion limit.
    """
    ids = [f"d{i:04d}" for i in range(depth)]
    lines = [f"agent {a} 1.0" for a in ids] + ["agent out 1.0"]
    lines.append(_promise(ids[0], "out", "prod", "+", ["*"], ("part",)))
    lines.append(_promise("out", ids[0], "prod", "-", ["*"]))
    for i in range(depth - 1):
        cond = ("part",) if i + 2 < depth else ()
        lines.append(_promise(ids[i + 1], ids[i], "part", "+", ["*"], cond))
        lines.append(_promise(ids[i], ids[i + 1], "part", "-", ["*"]))
    return "\n".join(lines) + "\n"


DEEP_MEMBERS = ",".join(f"d{i:04d}" for i in range(3000))


# --------------------------------------------------------------------------
# fit-study and cli-session


@dataclass
class Study:
    scaling_class: str
    D: int
    H: float
    n: int
    noise: float
    seed: int
    usl_text: str
    usl_params: tuple  # (contention, coherency) the curve was drawn from
    usl_noisy: bool
    k: float = 5.0


def usl_curve(rng: random.Random, noisy: bool, points: int = 64) -> tuple[str, tuple]:
    """A 64-point speedup curve at N = 1..points, a quarter of them superlinear.

    Noisy curves carry 1% multiplicative noise, enough that the fitter
    always falls back to its restart grid.
    """
    if rng.random() < 0.25:
        # Above -1/63 the denominator stays positive up to N = 64 for any coherency.
        a = rng.uniform(-0.012, -0.004)
    else:
        a = rng.uniform(0.005, 0.1)
    b = rng.uniform(1e-5, 1e-3)
    rows = ["N,value"]
    for n in range(1, points + 1):
        s = n / (1 + a * (n - 1) + b * n * (n - 1))
        if noisy:
            s *= 1 + 0.01 * rng.gauss(0, 1)
        rows.append(f"{n},{s:.12g}")
    return "\n".join(rows) + "\n", (a, b)


def fit_round(seed: int, n_samples: int = 20000) -> list[Study]:
    """One study per class at (D, H) = (2, 1) and (3, 1); every other usl curve is noisy."""
    rng = random.Random(seed)
    out = []
    for D in (2, 3):
        for cls in CLASSES:
            noisy = len(out) % 2 == 1
            text, params = usl_curve(rng, noisy)
            out.append(Study(cls, D, 1.0, n_samples, 0.1, rng.getrandbits(64), text, params, noisy))
    return out


@dataclass
class CliOp:
    argv: list
    kind: str
    facts: dict = field(default_factory=dict)
    piped: bool = False  # reads the previous op's stdout as its --input


def small_graph(seed: int) -> OrgGraph:
    """23 agents: a 3-deep chain, a 2-deep ladder, a 3-member community, five outsiders, the cell."""
    return org_graph(seed, chain_depth=3, ladder_depth=2, community=3)


def cli_round(seed: int) -> tuple[list[CliOp], dict]:
    """Twelve commands, one of each, in seeded order and with seeded arguments.

    usl-eval evaluates the curve at one N or, on half the seeds, finds its peak.

    ensemble -> fit -> compare stay consecutive because each reads the
    previous one's output. Returns the ops and the input files to write
    (name -> text); argv refers to them by name as '@name'.
    """
    rng = random.Random(seed)
    files = {}
    D = rng.choice([1, 2, 3, 4])
    H = rng.choice([h for h in (0.5, 1.0, 1.5, 2.0) if h <= D])
    cls = rng.choice(CLASSES[:5])
    ens_seed = rng.getrandbits(64)
    usl_text, usl_params = usl_curve(rng, noisy=False)
    files["usl.csv"] = usl_text
    g = small_graph(seed)
    files["graph.txt"] = g.text
    # The interior offer: classify then searches every agent's community,
    # and the per-operation counts do not depend on the seed.
    giver, receiver, tag, threshold, expected = g.classify[0]
    a = rng.uniform(0.0, 0.2)
    b = rng.uniform(1e-4, 1e-2)
    sigma, pi_par, kappa = rng.uniform(0.5, 2), rng.uniform(1, 100), rng.choice([0.0, rng.uniform(0.001, 0.1)])
    lam = rng.uniform(0.1, 5)
    singles = [
        CliOp(["exponents", "--D", str(D), "--H", str(H)], "exponents", {"D": D, "H": H}),
        CliOp(["yield", "--D", str(D), "--H", str(H), "--n", str(rng.randint(10, 10**6))], "yield"),
        CliOp(["usl-eval", "--contention", repr(a), "--coherency", repr(b), "--n", str(rng.randint(1, 500))], "usl-eval")
        if rng.random() < 0.5
        else CliOp(["usl-eval", "--contention", repr(a), "--coherency", repr(b), "--peak"], "usl-peak"),
        CliOp(["usl-fit", "--input", "@usl.csv"], "usl-fit", {"params": usl_params}),
        CliOp(["serial", "--sigma", repr(sigma), "--pi", repr(pi_par), "--kappa", repr(kappa),
               "--n", str(rng.randint(1, 1000))] + (["--exponent"] if kappa == 0 else []), "serial"),
        CliOp(["queue", "--lambda", repr(lam), "--mu", repr(lam + rng.uniform(0.1, 5))], "queue"),
        CliOp(["graph", "value", "--input", "@graph.txt", "--calibration", "1.5"], "graph-value", {"graph": g}),
        CliOp(["graph", "reduce", "--input", "@graph.txt"], "graph-reduce", {"graph": g}),
        CliOp(["graph", "classify", "--input", "@graph.txt", "--giver", giver, "--receiver", receiver,
               "--type", tag, "--threshold", str(threshold), "--D", "2", "--H", "1"], "graph-classify",
              {"expected": expected}),
    ]
    rng.shuffle(singles)
    at = rng.randrange(len(singles) + 1)
    pipe = [
        CliOp(["ensemble", "--class", cls, "--D", str(D), "--H", str(H), "--n", "500", "--noise", "0",
               "--seed", str(ens_seed)], "ensemble", {"class": cls, "D": D, "H": H, "seed": ens_seed, "n": 500}),
        CliOp(["fit"], "fit", {"class": cls, "D": D, "H": H}, piped=True),
        CliOp(["compare", "--class", cls, "--D", str(D), "--H", str(H)], "compare",
              {"class": cls, "D": D, "H": H}, piped=True),
    ]
    return singles[:at] + pipe + singles[at:], files


def mesh_with_conditional_offer(n_agents: int) -> str:
    """A complete unit mesh plus one conditional offer m000 -> m001 whose
    condition the exterior agent 'sup' supplies; classifying it makes
    classify_pattern search every agent's community."""
    m = mesh(n_agents, n_agents, 1.0, 0.0, 1.0)
    extra = [
        "agent sup 1.0",
        _promise("sup", "m000", "dep", "+", ["*"]),
        _promise("m000", "sup", "dep", "-", ["*"]),
        _promise("m000", "m001", "out", "+", ["*"], ("dep",)),
    ]
    return m.text + "\n".join(extra) + "\n"
