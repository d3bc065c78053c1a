"""Golden digests: a byte-identical output gate on a fixed corpus.

    python3 bench/digest.py --write bench/golden/digests.json
    python3 bench/digest.py --check bench/golden/digests.json

Runs a fixed set of commands through commscale.cli.main in this process
- ensembles for every class at fixed (seed, n), their fits and compare
reports, exponent tables, scalars, a usl-fit, and every graph command
on fixed meshes and organisation graphs - and takes the SHA-256 of each
output: CSV, canonical graph text and JSON. --write stores the digests
with the commit they came from; --check recomputes them and lists every
entry that differs from the stored file, exiting 1 if any does. The
file is only ever written by this command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from report import commit  # noqa: E402
from worker import call, load_commscale  # noqa: E402


def corpus() -> list:
    """(name, argv, stdin or the name of an earlier entry whose output is piped in)."""
    out = []
    for cls in inputs.CLASSES:
        for seed, n, noise in ((42, 500, "0.1"), (7, 2000, "0")):
            key = f"ensemble/{cls}/{seed}/{n}"
            out.append((key, ["ensemble", "--class", cls, "--D", "2", "--H", "1", "--n", str(n), "--noise", noise,
                              "--seed", str(seed), "--inactive", "0.25"], None))
            out.append((f"fit/{cls}/{seed}/{n}", ["fit"], ("pipe", key)))
            out.append((f"compare/{cls}/{seed}/{n}", ["compare", "--class", cls, "--D", "2", "--H", "1"],
                        ("pipe", f"fit/{cls}/{seed}/{n}")))
    for D, H in ((1, 1.0), (2, 1.0), (3, 1.5), (4, 2.0)):
        out.append((f"exponents/{D}/{H}", ["exponents", "--D", str(D), "--H", str(H)], None))
        out.append((f"yield/{D}/{H}", ["yield", "--D", str(D), "--H", str(H), "--n", "12345", "--inactive", "0.3"], None))
    out += [
        ("usl-eval", ["usl-eval", "--contention", "0.05", "--coherency", "0.0002", "--n", "64"], None),
        ("usl-peak", ["usl-eval", "--contention", "0.05", "--coherency", "0.0002", "--peak"], None),
        ("serial", ["serial", "--sigma", "1.5", "--pi", "40", "--kappa", "0.01", "--n", "32"], None),
        ("serial-exponent", ["serial", "--sigma", "1.5", "--pi", "40", "--n", "32", "--exponent"], None),
        ("queue", ["queue", "--lambda", "3.5", "--mu", "4.25"], None),
    ]
    for noisy in (False, True):
        text, _ = inputs.usl_curve(random.Random(5), noisy)
        out.append((f"usl-fit/{'noisy' if noisy else 'exact'}", ["usl-fit"], text))
    org = inputs.org_graph(3, chain_depth=40, ladder_depth=6, community=12)
    graphs = {
        "mesh-complete": inputs.mesh(1, 30, 1.0, 0.2, 1.0).text,
        "mesh-thinned": inputs.mesh(2, 40, 0.4, 0.3, 1.0).text,
        "org": org.text,
    }
    for gname, text in graphs.items():
        for cmd in (["value", "--calibration", "1.5"], ["bindings", "--calibration", "0.5"], ["reduce"]):
            out.append((f"graph/{gname}/{cmd[0]}", ["graph", *cmd], text))
    for gv, rc, t, th, _ in org.classify:
        out.append((f"graph/org/classify/{gv}/{t}", ["graph", "classify", "--giver", gv, "--receiver", rc, "--type", t,
                                                     "--threshold", repr(th), "--D", "2", "--H", "1"], org.text))
    for members, sid, _ in org.aggregates:
        out.append((f"graph/org/aggregate/{sid}", ["graph", "aggregate", "--members", ",".join(members),
                                                   "--super-id", sid], org.text))
    out.append(("graph/org/community", ["graph", "community", "--authority", org.community[0]], org.text))
    return out


def digests() -> dict:
    load_commscale(BENCH.parent)
    from commscale import cli

    outputs, result = {}, {}
    for name, argv, stdin in corpus():
        if isinstance(stdin, tuple):
            stdin = outputs[stdin[1]]
        rc, out, err = call(cli, argv, stdin or "")
        outputs[name] = out
        result[name] = hashlib.sha256(f"exit {rc}\n{out}".encode()).hexdigest()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", type=Path)
    mode.add_argument("--check", type=Path)
    args = ap.parse_args(argv)
    now = digests()
    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps({"commit": commit(), "digests": now}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(now)} digests to {args.write}")
        return 0
    stored = json.loads(args.check.read_text())
    differ = sorted(k for k in stored["digests"].keys() | now.keys() if stored["digests"].get(k) != now.get(k))
    for k in differ:
        print(f"differs: {k}")
    print(f"{len(now) - len(differ)} of {len(now)} outputs identical to commit {stored['commit']}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
