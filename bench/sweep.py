"""Size sweeps: how one layer's time grows with its input.

    python3 bench/sweep.py [--out sweep.json]

Each sweep drives commscale.cli.main in this process with the tracer
installed and takes the inclusive time of one function's spans, the
median over REPEATS calls, at each size. The time-vs-size exponent is the
slope of ln time on ln size, fitted with commscale.ensemble.fit_power_law.
A slope near 1 is linear, near 2 quadratic; a slope that keeps rising
with size is worse than any fixed power (the ladder sweep).

The sweeps are not part of the benchmark's workloads; sizes are small
enough for the whole command to finish in about a minute on two cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import call, load_commscale  # noqa: E402


def _ladder(depth: int):
    g = inputs.org_graph(1, chain_depth=1, ladder_depth=depth, community=2)
    members, sid, _ = g.aggregates[0]
    return g.text, ["graph", "aggregate", "--members", ",".join(members), "--super-id", sid]


def _ensemble(n: int):
    return "", ["ensemble", "--class", "interaction", "--D", "2", "--H", "1", "--n", str(n), "--seed", "7"]


REPEATS = 3

# name -> (traced function, sizes, input maker returning (stdin, argv))
SWEEPS = {
    "reduce_vs_chain_depth": ("promisegraph.reduce_conditionals", [100, 200, 400, 800],
                              lambda d: (inputs.deep_chain(d), ["graph", "reduce"])),
    "aggregate_vs_ladder_depth": ("promisegraph.aggregate", [8, 10, 12, 14], _ladder),
    "classify_vs_mesh_agents": ("promisegraph.classify_pattern", [15, 20, 30, 40],
                                lambda n: (inputs.mesh_with_conditional_offer(n),
                                           ["graph", "classify", "--giver", "m000", "--receiver", "m001",
                                            "--type", "out"])),
    "parse_vs_mesh_agents": ("graphio.parse_graph", [50, 100, 150, 200],
                             lambda n: (inputs.mesh(n, n, 1.0, 0.1, 1.0).text,
                                        ["graph", "community", "--authority", "m000"])),
    "generate_vs_samples": ("ensemble.generate", [2000, 8000, 32000], _ensemble),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    commscale = load_commscale(BENCH.parent)
    from commscale.ensemble import EnsembleSample, fit_power_law

    tracer = Tracer()
    tracer.install(commscale)
    from commscale import cli

    report = {}
    for name in SWEEPS:
        target, sizes, make = SWEEPS[name]
        points = []
        for size in sizes:
            stdin, argv_ = make(size)
            times = []
            for _ in range(REPEATS):
                tracer.clear()
                tracer.begin(0)
                rc, _, err = call(cli, argv_, stdin)
                tracer.begin(None)
                if rc != 0:
                    raise SystemExit(f"{name} at size {size}: exit {rc}: {err}")
                times.append(tracer.inclusive_s(target))
            points.append((size, statistics.median(times)))
            print(f"{name:28s} size {size:7d}  {points[-1][1]:.6f} s", flush=True)
        fit = fit_power_law([EnsembleSample(n, t) for n, t in points])
        last = fit_power_law([EnsembleSample(n, t) for n, t in points[-2:]])
        report[name] = {"function": target, "points": points, "exponent": fit.beta,
                        "stderr": fit.stderr_beta, "exponent_last_pair": last.beta}
        print(f"{name:28s} exponent {fit.beta:.3f} (stderr {fit.stderr_beta:.3f}; last pair {last.beta:.3f})")
    tracer.uninstall()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
