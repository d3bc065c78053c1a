"""Independent checks of the program's outputs.

Nothing here imports commscale. Graph text is read by a parser of its
own, discharge is a worklist least fixed point over Horn clauses
(Dowling and Gallier, J. Logic Programming 1984), exponents come from
exact rationals, and fits from plain sums. Each check raises
CheckFailed with a message naming what differed.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(got: float, want: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_tol),
        f"{what}: got {got!r}, want {want!r} (rel {rel:g})",
    )


def number(text: str) -> float:
    lines = text.splitlines()
    require(len(lines) == 1, f"expected one number, got {text[:80]!r}")
    return float(lines[0])


# --------------------------------------------------------------------------
# mean-field exponents


def delta(D: int, H: Fraction) -> Fraction:
    return H * H / (D * (D + H))


def exponent(cls: str, D: int, H: float):
    """Exact exponent of a class, or None where it is undefined (recursive, H != 1)."""
    H = Fraction(H)
    d = delta(D, H)
    table = {
        "infrastructure_volume": 1 - d,
        "linear_consumption": Fraction(1),
        "interaction": 1 + d,
        "scarce_agent": d,
        "scarce_dependency": 1 + 2 * d,
        "recursive_dependency": (1 + Fraction(1, D * D) - Fraction(1, D * (D + 1))) if H == 1 else None,
        "virtual_interaction": H / D,
    }
    return table[cls]


def check_exponents(out: str, D: int, H: float) -> None:
    got = json.loads(out)
    for cls, want in ((c, exponent(c, D, H)) for c in got):
        if want is None:
            require(got[cls] is None, f"{cls} should be null at H={H}")
        else:
            close(got[cls], float(want), 1e-11, f"exponent {cls}", 1e-12)
    require(len(got) == 7, "exponent table must list seven classes")


# --------------------------------------------------------------------------
# series, fits and ensembles


def read_pairs(text: str, header: str) -> list[tuple[float, float]]:
    lines = text.split("\n")
    require(lines[-1] == "", "CSV must end with a newline")
    require(lines[0] == header, f"CSV header must be {header!r}")
    rows = []
    for line in lines[1:-1]:
        a, b = line.split(",")
        rows.append((float(a), float(b)))
    return rows


def ols(rows) -> dict:
    """OLS of ln Y on ln N with fsum accumulation."""
    x = [math.log(n) for n, _ in rows]
    y = [math.log(v) for _, v in rows]
    n = len(rows)
    xb = math.fsum(x) / n
    yb = math.fsum(y) / n
    sxx = math.fsum((a - xb) ** 2 for a in x)
    sxy = math.fsum((a - xb) * (b - yb) for a, b in zip(x, y))
    beta = sxy / sxx
    icpt = yb - beta * xb
    ssr = math.fsum((b - icpt - beta * a) ** 2 for a, b in zip(x, y))
    sst = math.fsum((b - yb) ** 2 for b in y)
    r2 = 1.0 if sst == 0 else max(0.0, min(1.0, 1 - ssr / sst))
    return {"beta": beta, "log_intercept": icpt, "r_squared": r2,
            "stderr_beta": math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0, "n": n}


def check_fit(out: str, csv_text: str) -> dict:
    got = json.loads(out)
    want = ols(read_pairs(csv_text, "N,Y"))
    require(got["n"] == want["n"], "fit sample count")
    for key in ("beta", "log_intercept", "r_squared"):
        close(got[key], want[key], 1e-9, f"fit {key}", 1e-12)
    close(got["stderr_beta"], want["stderr_beta"], 1e-6, "fit stderr_beta", 1e-15)
    return got


def check_ensemble(out: str, cls: str, D: int, H: float, seed: int, n: int, noise: float,
                   nmin: float = 1e3, nmax: float = 1e7, stride: int = 1) -> None:
    """Rows reproduce the (seed, i)-keyed draws; output lies on c * N**beta times the drawn noise.

    Draws are recomputed with numpy's Philox keyed by (seed, i), as the
    documented randomness contract states; every stride-th row is
    recomputed, every row is checked for range and shape.
    """
    rows = read_pairs(out, "N,Y")
    require(len(rows) == n, f"ensemble has {len(rows)} rows, want {n}")
    beta = float(exponent(cls, D, H))
    lo, hi = math.log(nmin), math.log(nmax)
    consts = []
    for i in range(0, n, stride):
        N, Y = rows[i]
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        u = rng.random()
        z = rng.standard_normal()
        close(N, math.exp(lo + u * (hi - lo)), 1e-11, f"ensemble row {i} N")
        consts.append(math.log(Y) - noise * z - beta * math.log(N))
    spread = max(consts) - min(consts)
    require(spread < 1e-9, f"ensemble rows off the class power law by {spread:g} in ln Y")
    require(all(nmin * (1 - 1e-11) <= N <= nmax * (1 + 1e-11) and Y > 0 for N, Y in rows), "ensemble row out of range")


def check_compare(out: str, fit_json: str, cls: str, D: int, H: float, k: float) -> None:
    got = json.loads(out)
    fit = json.loads(fit_json)
    theory = float(exponent(cls, D, H))
    close(got["theory_beta"], theory, 1e-11, "theory_beta")
    close(got["fitted_beta"], fit["beta"], 1e-11, "fitted_beta")
    gap = abs(fit["beta"] - theory)
    close(got["gap"], gap, 1e-9, "gap", 1e-14)
    close(got["stderr_beta"], fit["stderr_beta"], 1e-11, "stderr_beta")
    require(got["k"] == k, "k")
    require(got["within_k_stderr"] == (gap <= k * fit["stderr_beta"]), "within_k_stderr")


def usl(n: float, a: float, b: float) -> float:
    return n / (1 + a * (n - 1) + b * n * (n - 1))


def check_usl_fit(out: str, csv_text: str, params: tuple, noisy: bool) -> None:
    """Noiseless curves: parameters within 1e-6 relative. Noisy curves: the
    reported residual is the fit's own sum of squares and is no worse than
    the residual of the parameters the curve was drawn from."""
    got = json.loads(out)
    rows = read_pairs(csv_text, "N,value")
    a, b = got["contention"], got["coherency"]
    sse = math.fsum((usl(n, a, b) - s) ** 2 for n, s in rows)
    # Noiseless fits leave a residual at the level of 12-digit rounding.
    close(got["residual"], sse, 1e-6, "usl-fit residual", 1e-12)
    if noisy:
        truth = math.fsum((usl(n, *params) - s) ** 2 for n, s in rows)
        require(sse <= truth * (1 + 1e-9), f"usl-fit residual {sse:g} worse than at the true parameters {truth:g}")
    else:
        close(a, params[0], 1e-6, "usl-fit contention")
        close(b, params[1], 1e-6, "usl-fit coherency")


def check_study(outs: list, study, csv_stride: int) -> None:
    """One fit-study operation: ensemble CSV, fit JSON, compare JSON, usl-fit JSON."""
    csv_text, fit_out, cmp_out, usl_out = outs
    check_ensemble(csv_text, study.scaling_class, study.D, study.H, study.seed, study.n, study.noise,
                   stride=csv_stride)
    fit = check_fit(fit_out, csv_text)
    theory = float(exponent(study.scaling_class, study.D, study.H))
    require(abs(fit["beta"] - theory) <= study.k * fit["stderr_beta"],
            f"{study.scaling_class}: fitted beta {fit['beta']} more than {study.k} stderr from {theory}")
    check_csv_roundtrip(csv_text)
    check_compare(cmp_out, fit_out, study.scaling_class, study.D, study.H, study.k)
    check_usl_fit(usl_out, study.usl_text, study.usl_params, study.usl_noisy)


def check_csv_roundtrip(csv_text: str) -> None:
    """Every value re-printed at 12 significant digits gives back the same text.

    This is the round-trip the format supports; parsing does not give
    back the generator's unrounded floats bit for bit.
    """
    for line in csv_text.split("\n")[1:-1]:
        a, b = line.split(",")
        require(f"{float(a):.12g},{float(b):.12g}" == line, f"CSV row {line!r} does not round-trip")


# --------------------------------------------------------------------------
# promise graphs


class Graph:
    """Agents and merged promises read from the text format.

    promises maps (giver, receiver, type, polarity, condition) to the
    union of the constraint sets declared under that key.
    """

    def __init__(self, agents: dict, promises: dict):
        self.agents = agents
        self.promises = promises

    @classmethod
    def parse(cls, text: str) -> "Graph":
        agents: dict = {}
        promises: dict = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0]
            f = line.split()
            if not f:
                continue
            if f[0] == "agent":
                agents[f[1]] = float(f[2])
            else:
                cond = tuple(sorted(set(f[7].split(",")))) if len(f) == 8 else ()
                key = (f[1], f[2], f[3], f[4], cond)
                promises.setdefault(key, set()).update(f[5].split(","))
        return cls(agents, promises)

    def canonical(self) -> str:
        lines = [f"agent {a} {self.agents[a]!r}" for a in sorted(self.agents)]
        # Sorted by (giver, receiver, type, polarity); records that tie there
        # (same key, different conditions) by constraint set, then condition.
        order = sorted(self.promises.items(), key=lambda kv: (kv[0][:4], tuple(sorted(kv[1])), kv[0][4]))
        for (g, r, t, pol, cond), chi in order:
            line = f"promise {g} {r} {t} {pol} {','.join(sorted(chi))}"
            if cond:
                line += " | " + ",".join(cond)
            lines.append(line)
        return "\n".join(lines) + "\n" if lines else ""

    def accepts(self, members=None) -> dict:
        """(acceptor, type) -> agents it unconditionally accepts that type from."""
        out: dict = {}
        for (g, r, t, pol, cond) in self.promises:
            if pol == "-" and not cond and (members is None or r in members):
                out.setdefault((g, t), set()).add(r)
        return out

    def fire(self, members=None) -> tuple[set, set]:
        """Least fixed point of discharge, linear in promises plus conditions.

        Returns the conditional offer keys that fire and the supplied
        (agent, type) facts. Restricted to members, only offers among
        members count as supply.
        """
        acc = self.accepts(members)
        inside = (lambda a: True) if members is None else (lambda a: a in members)
        missing: dict = {}
        watch: dict = {}
        queue: deque = deque()
        for key in self.promises:
            g, r, t, pol, cond = key
            if pol != "+" or not (inside(g) and inside(r)):
                continue
            if cond:
                missing[key] = len(cond)
                for d in cond:
                    watch.setdefault((g, d), []).append(key)
            else:
                queue.append((g, r, t))
        supplied: set = set()
        fired: set = set()
        while queue:
            k, g, d = queue.popleft()
            if (g, d) in supplied or k not in acc.get((g, d), ()):
                continue
            supplied.add((g, d))
            for key in watch.get((g, d), ()):
                missing[key] -= 1
                if missing[key] == 0:
                    fired.add(key)
                    queue.append(key[:3])
        return fired, supplied

    def reduced(self) -> "Graph":
        fired, _ = self.fire()
        promises: dict = {}
        for key, chi in self.promises.items():
            new = key[:4] + ((),) if key in fired else key
            promises.setdefault(new, set()).update(chi)
        return Graph(self.agents, promises)

    def bindings(self) -> list:
        """(giver, receiver, type, effective constraint) of unconditional offer/accept pairs."""
        out = []
        for (g, r, t, pol, cond), chi in self.promises.items():
            if pol == "+" and not cond:
                acc = self.promises.get((r, g, t, "-", ()))
                if acc is not None and chi & acc:
                    out.append((g, r, t, chi & acc))
        return sorted(out, key=lambda b: b[:3])

    def largest_component(self, bindings) -> int:
        adj = {a: set() for a in self.agents}
        for g, r, _, _ in bindings:
            adj[g].add(r)
            adj[r].add(g)
        seen: set = set()
        best = 0
        for start in adj:
            if start in seen:
                continue
            seen.add(start)
            todo = [start]
            size = 0
            while todo:
                a = todo.pop()
                size += 1
                for b in adj[a] - seen:
                    seen.add(b)
                    todo.append(b)
            best = max(best, size)
        return best

    def aggregated(self, members: list, super_id: str, alpha) -> "Graph":
        """Expected superagent view: residual conditions from the fixed point restricted to members."""
        m = set(members)
        _, supplied = self.fire(m)
        promises: dict = {}
        for (g, r, t, pol, cond), chi in self.promises.items():
            if g in m and r in m:
                continue
            if g in m:
                key = (super_id, r, t, pol, tuple(d for d in cond if (g, d) not in supplied))
            elif r in m:
                key = (g, super_id, t, pol, cond)
            else:
                key = (g, r, t, pol, cond)
            promises.setdefault(key, set()).update(chi)
        agents = {a: x for a, x in self.agents.items() if a not in m}
        agents[super_id] = alpha
        return Graph(agents, promises)


def check_graph_value(out: str, g: Graph, calibration: float, bound_pairs=None, complete=False) -> None:
    got = json.loads(out)
    red = g.reduced()
    binds = red.bindings()
    n = len(g.agents)
    if bound_pairs is not None:
        require({(b[0], b[1]) for b in binds} == bound_pairs, "bound pairs differ from the generator's")
    nb = len(binds)
    if complete:
        require(nb == n * (n - 1), "complete mesh must bind every directed pair")
    want = math.fsum(calibration * red.agents[b[0]] * red.agents[b[1]] for b in binds)
    close(got["total_value"], want, 1e-11, "total_value", 1e-12)
    close(got["rho"], nb / (n * (n - 1)) if n > 1 else 0.0, 1e-11, "rho", 1e-15)
    require(got["largest_component"] == red.largest_component(binds), "largest_component")
    require(got["agents"] == n, "agents")
    require(got["bindings"] == nb, "bindings")


def check_graph_bindings(out: str, g: Graph, calibration: float) -> None:
    got = json.loads(out)
    want = g.bindings()
    require(len(got) == len(want), f"{len(got)} bindings, want {len(want)}")
    for b, (giver, receiver, t, eff) in zip(got, want):
        require((b["giver"], b["receiver"], b["type"]) == (giver, receiver, t), f"binding order at {giver}->{receiver}")
        require(b["constraint"] == sorted(eff), f"effective constraint of {giver}->{receiver}")
        close(b["value"], calibration * g.agents[giver] * g.agents[receiver], 1e-11, "binding value", 1e-15)


def check_graph_reduce(out: str, g: Graph, discharged=None) -> None:
    if discharged is not None:
        require(len(g.fire()[0]) == discharged, "generator and fixed point disagree on discharges")
    require(out == g.reduced().canonical(), "reduce output differs from the fixed-point canonical text")


def check_reduce_again(out: str, first: str) -> None:
    """Reducing canonical reduced text gives the same bytes: round trip and idempotence."""
    require(out == first, "reduce is not idempotent or canonical text does not round-trip")


def check_graph_aggregate(out: str, g: Graph, members: list, super_id: str, alpha) -> None:
    """alpha is the expected assessment (unique witness or mean), or None to take the program's."""
    got = Graph.parse(out)
    want_alpha = alpha if alpha is not None else got.agents.get(super_id)
    want = g.aggregated(members, super_id, want_alpha)
    require(out == want.canonical(), f"aggregate into {super_id} differs from the restricted fixed point")


def check_graph_classify(out: str, expected: str, D=None, H=None) -> None:
    got = json.loads(out)
    require(got["class"] == expected, f"classify gave {got['class']}, want {expected}")
    if D is not None:
        close(got["exponent"], float(exponent(expected, D, H)), 1e-11, "classify exponent")


def check_graph_community(out: str, g: Graph, authority: str, expected: list) -> None:
    got = json.loads(out)
    own = sorted(b[0] for b in g.bindings() if b[2] == "member" and b[1] == authority)
    require(own == expected, "generator and bindings disagree on community members")
    require(got == expected, "community members")


# --------------------------------------------------------------------------
# closed forms


def check_scalar(kind: str, argv: list, out: str) -> None:
    v = number(out)
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    if kind == "yield":
        D, H, N = int(opt["--D"]), Fraction(float(opt["--H"])), float(opt["--n"])
        close(v, N ** (1 + float(delta(D, H))), 1e-10, "yield")
    elif kind == "usl-eval":
        close(v, usl(float(opt["--n"]), float(opt["--contention"]), float(opt["--coherency"])), 1e-10, "usl-eval")
    elif kind == "usl-peak":
        a, b = float(opt["--contention"]), float(opt["--coherency"])
        close(v, max(1.0, math.sqrt((1 - a) / b)), 1e-10, "usl peak")
        # The peak is a maximum of the curve.
        require(usl(v, a, b) >= max(usl(v * 0.99, a, b), usl(v * 1.01, a, b)), "usl peak is not a maximum")
    elif kind == "serial":
        s, p, k, n = (float(opt[f]) for f in ("--sigma", "--pi", "--kappa", "--n"))
        if "--exponent" in argv:
            x = p / (s * n)
            close(v, x / (1 + x), 1e-10, "serial exponent", 1e-15)
        else:
            close(v, s + p / n + k * n, 1e-10, "serial time")
    elif kind == "queue":
        close(v, 1 / (float(opt["--mu"]) - float(opt["--lambda"])), 1e-10, "queue response time")
    else:
        raise CheckFailed(f"no closed form for {kind}")
