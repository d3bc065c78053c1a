"""Repeat the benchmark over seeds and write one result file.

    python3 bench/report.py --seeds 1-10 --out bench/results/BENCH_label.json
    python3 bench/report.py --seeds 1-5 --workloads mesh-graph --traced 1

For every workload, runs bench/run.py once per seed, for the run length
BENCHMARK.json fixes, then --traced more runs with tracing on. The
result file holds the commit and machine, each
workload's attempted and failed counts, and for every metric the median
and quartiles over the runs, the spread (quartile distance over the
median) next to the metric's bound, and the tracing overhead: how much
the traced runs' end-to-end figures differ from the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "platform": platform.platform(), "python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            info[mod] = __import__(mod).__version__
        except ImportError:
            info[mod] = None
    return info


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("traced_end_to_end "):
            result["traced_end_to_end"] = json.loads(line.split(" ", 1)[1])
    return result


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload, after the untraced ones")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"commit": commit(), "machine": machine(), "run_seconds": seconds, "workloads": {}}
    for w in workloads:
        runs = [run_once(w, s, seconds, 0) for s in seeds(args.seeds)]
        traced = [run_once(w, s, seconds, 1) for s in seeds(args.seeds)[: args.traced]]
        entry = {
            "seeds": seeds(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs + traced),
            "end_to_end": {},
        }
        for name in runs[0]["metrics"]:
            entry["end_to_end"][name] = stats([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name]["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name]["bound"] = bounds.get(name)
        if traced:
            entry["per_layer"] = {}
            for name in traced[0]["metrics"]:
                entry["per_layer"][name] = stats([r["metrics"][name]["value"] for r in traced])
                entry["per_layer"][name]["unit"] = traced[0]["metrics"][name]["unit"]
            entry["tracing_overhead"] = {
                name: statistics.median(r["traced_end_to_end"][name] for r in traced) / e["median"] - 1
                for name, e in entry["end_to_end"].items()
            }
        report["workloads"][w] = entry
        print(f"{w}: attempted {entry['attempted']} failed {entry['failed']} correct {entry['correct']}")
        for name, e in entry["end_to_end"].items():
            flag = "" if e["bound"] is None or e["spread"] <= e["bound"] / 3 else "  <-- spread above a third of the bound"
            print(f"  {name:16s} median {e['median']:.6g} {e['unit']:5s} q1 {e['q1']:.6g} q3 {e['q3']:.6g} "
                  f"spread {e['spread']:.4f} bound {e['bound']}{flag}")
        for name, o in entry.get("tracing_overhead", {}).items():
            print(f"  tracing overhead {name:16s} {o:+.3%}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
