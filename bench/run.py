"""commscale benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mesh-graph --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, measures set-up time in
fresh interpreters, runs operations from one closed-loop client in whole
rounds, stopping at the round boundary nearest the run length, checks
every output against the independent oracles in bench/oracles.py, and
prints the metrics. Times are scaled to a fixed machine speed by
references run before and after each operation (see scaled()). The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.

cli-session runs each operation as its own `python3 -m commscale`
process. The other workloads run in one child process (bench/worker.py)
that calls commscale.cli.main(argv) with stdin and stdout captured. At
most one child runs at a time and the client uses no threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from worker import REFERENCE_S  # noqa: E402

# Per-layer metric names follow the span and counter names of
# bench/tracer.py: "<layer>.import_s" is a layer's import time,
# "<span>.calls" a call count, "<span>_s" a self time and any other name a
# counter, all per operation. Where a metric's span is not named by the
# rule, SPAN_OF names it.
SPAN_OF = {"cli.main_self_s": "cli.main"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


SETUP_PROBES = 5


# Nominal seconds of one bare interpreter start (`python3 -I -c pass`):
# process launches are reported at the speed at which it takes this long.
PROCESS_REFERENCE_S = 0.040


def process_slowdown() -> float:
    """How many times slower than nominal a bare interpreter starts now."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], capture_output=True, check=True)
    return (perf_counter() - t0) / PROCESS_REFERENCE_S


def scaled(seconds: float, k: int, slow: list) -> float:
    """seconds of the k-th timed interval at the nominal machine speed.

    slow[k] and slow[k + 1] are slowdowns measured just before and just
    after the interval. On a shared 2-core virtual machine every process
    was seen to change speed by up to 2x, in phases of seconds to minutes.
    Work inside one interpreter followed the reference loop next to it
    (correlation 0.7-0.9); a process launch followed a bare interpreter
    start (0.79) but hardly the loop (0.3). So in-process operations are
    scaled by the worker's reference loop (worker.reference_s) and process
    launches by process_slowdown().
    Neither reference runs the program, so a change in the program shows
    in full.
    """
    return seconds * 2 / (slow[k] + slow[k + 1])


def env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def measure_setup(trace: bool) -> tuple[float, dict]:
    """Median wall time of fresh interpreters importing commscale.cli, scaled.

    With tracing, the interpreters run under -X importtime and the
    per-layer import seconds are medians over the probes, each scaled
    like the probe's wall time.
    """
    walls, imports, refs = [], [], [process_slowdown()]
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", "import commscale.cli"]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env(), cwd=ROOT, capture_output=True, text=True)
        walls.append(perf_counter() - t0)
        refs.append(process_slowdown())
        if proc.returncode != 0:
            raise SystemExit(f"error: importing commscale.cli failed:\n{proc.stderr[-2000:]}")
        if trace:
            k = len(walls) - 1
            imports.append({m: scaled(t, k, refs) for m, t in tracing.import_times(proc.stderr).items()})
    layers = {m: statistics.median(t.get(m, 0.0) for t in imports) for m in tracing.LAYERS} if trace else {}
    return statistics.median(scaled(w, k, refs) for k, w in enumerate(walls)), layers


# --------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    ops: list  # worker op specs: {"calls": [{"argv", "stdin"|"pipe"}], "probe": bool}
    records: list  # input records per op
    check: object  # check(outputs: dict[(op, call)] -> str, post: list[str]) -> None
    post: list = field(default_factory=list)
    files: dict = field(default_factory=dict)  # file name -> text, written to the work dir


def _graph_calls(kind_argv: list, stdin: str) -> list:
    return [{"argv": ["graph"] + a, "stdin": stdin} for a in kind_argv]


def build_fit_study(seed: int) -> Workload:
    studies = inputs.fit_round(seed)
    ops, files = [], {}
    for i, s in enumerate(studies):
        files[f"usl{i}.csv"] = s.usl_text
        dh = ["--D", str(s.D), "--H", repr(s.H)]
        ops.append({"calls": [
            {"argv": ["ensemble", "--class", s.scaling_class, *dh, "--n", str(s.n), "--noise", repr(s.noise),
                      "--seed", str(s.seed)]},
            {"argv": ["fit"], "pipe": 0},
            {"argv": ["compare", "--class", s.scaling_class, *dh, "--k", repr(s.k)], "pipe": 1},
            {"argv": ["usl-fit"], "stdin": f"usl{i}.csv"},
        ]})

    def check(out, post):
        for i, s in enumerate(studies):
            oracles.check_study([out[i, j] for j in range(4)], s, csv_stride=97)

    return Workload(ops, [s.n for s in studies], check, files=files)


def _promise_records(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith("promise "))


def build_mesh_graph(seed: int) -> Workload:
    meshes = inputs.mesh_round(seed)
    ops, files, post = [], {}, []
    for i, m in enumerate(meshes):
        name = f"mesh{i}.txt"
        files[name] = m.text
        cal = ["--calibration", repr(m.calibration)]
        ops.append({"calls": _graph_calls([["value", *cal], ["bindings", *cal], ["reduce"]], name)})
    # One round trip, on the thinned mesh, keeps the untimed part of a run short.
    post.append({"argv": ["graph", "reduce"], "input": [len(meshes) - 1, 2]})

    def check(out, post_out):
        for i, m in enumerate(meshes):
            g = oracles.Graph.parse(m.text)
            oracles.check_graph_value(out[i, 0], g, m.calibration, bound_pairs=m.bound, complete=m.complete)
            oracles.check_graph_bindings(out[i, 1], g, m.calibration)
            oracles.check_graph_reduce(out[i, 2], g)
        oracles.check_reduce_again(post_out[0], out[len(meshes) - 1, 2])

    return Workload(ops, [_promise_records(m.text) for m in meshes], check, post, files)


ORG_GRAPHS = 2


def build_conditional_graph(seed: int) -> Workload:
    graphs = [inputs.org_graph(seed * 104729 + i) for i in range(ORG_GRAPHS)]
    ops, files, post = [], {"deep.txt": inputs.deep_chain()}, []
    for i, g in enumerate(graphs):
        name = f"org{i}.txt"
        files[name] = g.text
        argvs = [["value", "--calibration", "2.0"], ["reduce"]]
        argvs += [["classify", "--giver", gv, "--receiver", rc, "--type", t, "--threshold", repr(th)]
                  for gv, rc, t, th, _ in g.classify]
        argvs += [["aggregate", "--members", ",".join(mem), "--super-id", sid] for mem, sid, _ in g.aggregates]
        argvs.append(["community", "--authority", g.community[0]])
        ops.append({"calls": _graph_calls(argvs, name)})
        post.append({"argv": ["graph", "reduce"], "input": [len(ops) - 1, 1]})
        if i == 0:
            # The deep interior chain: one aggregate attempt per round, not timed as an operation.
            ops.append({"calls": _graph_calls([["aggregate", "--members", inputs.DEEP_MEMBERS, "--super-id", "deep"]],
                                              "deep.txt"), "probe": True})
    org_ops = [i for i, op in enumerate(ops) if not op.get("probe")]
    probe = org_ops[0] + 1

    def check(out, post_out):
        if (probe, 0) in out:
            deep = oracles.Graph.parse(files["deep.txt"])
            oracles.check_graph_aggregate(out[probe, 0], deep, inputs.DEEP_MEMBERS.split(","), "deep", 1.0)
        for k, (i, g) in enumerate(zip(org_ops, graphs)):
            parsed = oracles.Graph.parse(g.text)
            oracles.check_graph_value(out[i, 0], parsed, 2.0)
            oracles.check_graph_reduce(out[i, 1], parsed, discharged=g.expected_discharged)
            for j, c in enumerate(g.classify):
                oracles.check_graph_classify(out[i, 2 + j], c[4])
            base = 2 + len(g.classify)
            for j, (mem, sid, alpha) in enumerate(g.aggregates):
                oracles.check_graph_aggregate(out[i, base + j], parsed, mem, sid, alpha)
            oracles.check_graph_community(out[i, base + len(g.aggregates)], parsed, *g.community)
            oracles.check_reduce_again(post_out[k], out[i, 1])

    records = [_promise_records(g.text) for g in graphs]
    records.insert(1, 0)
    return Workload(ops, records, check, post, files)


BUILDERS = {
    "fit-study": build_fit_study,
    "mesh-graph": build_mesh_graph,
    "conditional-graph": build_conditional_graph,
}


# --------------------------------------------------------------------------
# running


@dataclass
class Outcome:
    times: list  # scaled seconds of each completed operation
    records: int  # input records of the completed operations
    attempted: int
    failed: int
    errors: list
    trace: dict | None
    wall: float = 0.0  # scaled seconds of the run, references left out
    refs: list = field(default_factory=list)  # slowdowns measured between operations
    rounds: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)


def run_inprocess(wl: Workload, work: Path, seconds: float, spans: Path | None) -> Outcome:
    for name, text in wl.files.items():
        (work / name).write_text(text)
    ops = [{**op, "calls": [{**c, "stdin": str(work / c["stdin"])} if c.get("stdin") else c for c in op["calls"]]}
           for op in wl.ops]
    spec = {"root": str(ROOT), "out_dir": str(work), "seconds": seconds, "spans": spans and str(spans), "ops": ops,
            "post": wl.post}
    (work / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(work / "spec.json"), str(work / "result.json")],
                          env=env(), cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker failed with exit {proc.returncode}:\n{proc.stderr[-3000:]}")
    res = json.loads((work / "result.json").read_text())
    refs = [r / REFERENCE_S for r in res["refs"]]
    out = Outcome(times=[], records=0, attempted=len(res["attempts"]), failed=0, errors=[], trace=res["trace"],
                  wall=sum(scaled(s, k, refs) for k, s in enumerate(res["slots"])), refs=refs, rounds=res["rounds"])
    for k, (i, seconds, error) in enumerate(res["attempts"]):
        if error is not None:
            out.failed += 1
            out.errors.append(error)
        elif not wl.ops[i].get("probe"):
            out.times.append(scaled(seconds, k, refs))
            out.records += wl.records[i]
    outputs = {}
    for i in range(len(wl.ops)):
        j = 0
        while (work / f"op{i}_{j}.out").exists():
            outputs[i, j] = (work / f"op{i}_{j}.out").read_text()
            j += 1
    post = [(work / f"post{k}.out").read_text() for k in range(len(wl.post))]
    _check(out, lambda: wl.check(outputs, post))
    if res["mismatches"]:
        out.correct = False
        out.notes.append(f"{res['mismatches']} repeated operations gave different output")
    return out


def _check(out: Outcome, fn) -> None:
    try:
        fn()
    except (oracles.CheckFailed, KeyError, ValueError, IndexError) as exc:
        out.correct = False
        out.notes.append(f"check failed: {type(exc).__name__}: {exc}")


def _cli_argv(op, work: Path, prev_out: Path | None) -> list:
    argv = [str(work / a[1:]) if a.startswith("@") else a for a in op.argv]
    if op.piped:
        argv += ["--input", str(prev_out)]
    return argv


def check_cli_op(op, argv: list, out: str, inp: str | None) -> None:
    f = op.facts
    if op.kind == "exponents":
        oracles.check_exponents(out, f["D"], f["H"])
    elif op.kind == "ensemble":
        oracles.check_ensemble(out, f["class"], f["D"], f["H"], f["seed"], f["n"], 0.0)
        oracles.check_csv_roundtrip(out)
    elif op.kind == "fit":
        fit = oracles.check_fit(out, inp)
        oracles.close(fit["beta"], float(oracles.exponent(f["class"], f["D"], f["H"])), 1e-9, "noiseless fitted beta")
    elif op.kind == "compare":
        oracles.check_compare(out, inp, f["class"], f["D"], f["H"], 2.0)
    elif op.kind == "usl-fit":
        oracles.check_usl_fit(out, Path(argv[argv.index("--input") + 1]).read_text(), f["params"], noisy=False)
    elif op.kind == "graph-value":
        oracles.check_graph_value(out, oracles.Graph.parse(f["graph"].text), 1.5)
    elif op.kind == "graph-reduce":
        oracles.check_graph_reduce(out, oracles.Graph.parse(f["graph"].text), f["graph"].expected_discharged)
    elif op.kind == "graph-classify":
        oracles.check_graph_classify(out, f["expected"], 2, 1.0)
    else:
        oracles.check_scalar(op.kind, argv, out)


def _cli_records(op, files: dict, inp: str | None) -> int:
    if op.kind.startswith("graph-"):
        return _promise_records(files["graph.txt"])
    if op.kind == "usl-fit":
        return files["usl.csv"].count("\n") - 1
    if op.kind == "ensemble":
        return op.facts["n"]
    if op.kind == "fit":
        return inp.count("\n") - 1
    return 0


def run_cli(seed: int, work: Path, seconds: float, spans_path: Path | None) -> Outcome:
    ops, files = inputs.cli_round(seed)
    for name, text in files.items():
        (work / name).write_text(text)
    out = Outcome(times=[], records=0, attempted=0, failed=0, errors=[], trace=None)
    trace = spans_path is not None
    summaries = []
    spans = tracing.Tracer()
    first: dict = {}  # op index -> (digest, argv, stdout, input)
    mismatches = 0
    done = []  # (attempt number, seconds) of each completed operation
    slots = []  # seconds from one process reference to the next
    out.refs = [process_slowdown()]
    start = perf_counter()
    while True:
        round_start = perf_counter()
        prev_out = None
        for i, op in enumerate(ops):
            slot_start = perf_counter()
            argv = _cli_argv(op, work, prev_out)
            inp = prev_out.read_text() if op.piped else None
            if trace:
                spans_file = work / "spans.json"
                cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_file), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "commscale", *argv]
            out.attempted += 1
            t0 = perf_counter()
            proc = subprocess.run(cmd, env=env(), cwd=work, capture_output=True, text=True, timeout=60)
            elapsed = perf_counter() - t0
            prev_out = work / f"out{i}.txt"
            prev_out.write_text(proc.stdout)
            if proc.returncode != 0:
                out.failed += 1
                out.errors.append(f"{op.kind}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                done.append((len(slots), elapsed))
                out.records += _cli_records(op, files, inp)
                if trace:
                    traced = json.loads(spans_file.read_text())
                    summaries.append(traced["summary"])
                    spans.extend(traced["spans"], (out.rounds, i))
                digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
                if i not in first:
                    first[i] = (digest, argv, proc.stdout, inp)
                elif first[i][0] != digest:
                    mismatches += 1
            slots.append(perf_counter() - slot_start)
            out.refs.append(process_slowdown())
        out.rounds += 1
        now = perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break
    out.times = [scaled(t, k, out.refs) for k, t in done]
    out.wall = sum(scaled(s, k, out.refs) for k, s in enumerate(slots))
    for i, (_, argv, stdout, inp) in first.items():
        _check(out, lambda: check_cli_op(ops[i], argv, stdout, inp))
    if trace:
        out.trace = tracing.merge(summaries)
        spans.write(spans_path)
    if mismatches:
        out.correct = False
        out.notes.append(f"{mismatches} repeated operations gave different output")
    return out


# --------------------------------------------------------------------------
# metrics and output


def _with_units(values: dict, metrics: list) -> dict:
    units = {m["name"]: m["unit"] for m in metrics}
    if set(values) != set(units):
        raise SystemExit(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def end_to_end(out: Outcome, setup_s: float, spec: dict) -> dict:
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(out.times),
        "ops_per_s": len(out.times) / out.wall,
        "records_per_s": out.records / out.wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    return _with_units(values, spec["end_to_end"])


def per_layer(out: Outcome, imports: dict, spec: dict) -> dict:
    tr = out.trace
    ops = max(tr["ops"], 1)
    # Self times are summed over the run, so they are scaled by its median slowdown.
    speed = 1 / statistics.median(out.refs)
    # The solver runs on uslkit's behalf: count its time in usl_fit.
    self_s = dict(tr["self_s"])
    self_s["uslkit.usl_fit"] = self_s.get("uslkit.usl_fit", 0.0) + self_s.get("uslkit.least_squares", 0.0)
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name.endswith(".import_s"):
            values[name] = imports[name.split(".")[0]]
        elif name.endswith(".calls"):
            values[name] = tr["calls"].get(name[: -len(".calls")], 0) / ops
        elif name.endswith("_s"):
            values[name] = self_s.get(SPAN_OF.get(name, name[: -len("_s")]), 0.0) * speed / ops
        else:
            values[name] = tr["counts"].get(name, 0) / ops
    return _with_units(values, spec["per_layer"])


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "commscale" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'commscale'} is missing", file=sys.stderr)
        return 2
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # Spans of a traced run outlive its work directory.
    spans = BENCH / "_work" / f"spans-{args.workload}-seed{args.seed}.npz"
    try:
        trace = bool(args.trace)
        setup_s, imports = measure_setup(trace)
        if args.workload == "cli-session":
            out = run_cli(args.seed, work, args.seconds, spans if trace else None)
        else:
            out = run_inprocess(BUILDERS[args.workload](args.seed), work, args.seconds, spans if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not out.times:
        print(f"error: no operation completed: {out.errors[:3]}", file=sys.stderr)
        return 1
    e2e = end_to_end(out, setup_s, spec)
    print(f"workload {args.workload} seed {args.seed}: {out.rounds} rounds in {out.wall:.2f} scaled s, "
          f"attempted {out.attempted} failed {out.failed} correct {out.correct}")
    print(f"  slowdown against the nominal machine speed: median {statistics.median(out.refs):.3f}")
    for note in out.notes + [f"failed: {e}" for e in sorted(set(out.errors))]:
        print(f"  {note}")
    if trace:
        # Traced end-to-end figures, for the tracing overhead (bench/report.py).
        print("traced_end_to_end " + json.dumps({k: v["value"] for k, v in e2e.items()}))
        print(f"spans written to {spans}")
        metrics = per_layer(out, imports, spec)
    else:
        metrics = e2e
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": out.correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}))
    # Timings of wrong output are no measurement.
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
