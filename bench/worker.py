"""Runs one in-process workload: the measured child of bench/run.py.

Reads a spec written by run.py, imports commscale from the checkout's
src/, and calls commscale.cli.main(argv) with stdin fed from the
generated inputs and stdout captured, one operation at a time, in whole
rounds, stopping at the round boundary nearest the run length. Writes the outputs of the first
round for run.py to check, a digest of every later output, the
operation times and, when tracing, the tracer's summary and spans.
Operations marked as probes are attempted and checked like the others
but kept out of the timings and the trace. A reference loop runs before
every operation and after the last one, so run.py can scale each
operation's time by the machine's speed around it.

    python3 bench/worker.py SPEC.json RESULT.json
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter


def call(cli, argv: list, stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _run_op(cli, op: dict, texts: dict) -> tuple[float, list, str | None]:
    """Runs every call of one operation; returns (seconds, outputs, error or None)."""
    outs: list = []
    t0 = perf_counter()
    for c in op["calls"]:
        stdin = outs[c["pipe"]] if c.get("pipe") is not None else texts.get(c.get("stdin"), "")
        rc, out, err = call(cli, c["argv"], stdin)
        if rc != 0:
            return perf_counter() - t0, outs, f"exit {rc}: {err.strip()[:300]}"
        outs.append(out)
    return perf_counter() - t0, outs, None


# Nominal seconds of one reference loop: in-process times are reported at
# the machine speed at which reference_s() takes this long.
REFERENCE_S = 0.040


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop, a sample of the machine's current speed.

    The garbage collector is off during the loop, so the objects the
    program left behind do not change its time, and the loop holds about
    100 KB, so it does not raise the process's peak memory.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        acc = 0.0
        for k in range(240_000):
            table[k & 1023] = k * 0.5
            acc += (k % 7) * 1.25
        for _ in range(20):
            sorted(table.values())
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def load_commscale(root: Path):
    """Import commscale from root/src and nowhere else."""
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import commscale

    if Path(commscale.__file__).resolve().parent != (src / "commscale").resolve():
        raise SystemExit(f"imported commscale from {commscale.__file__}, not from {src}")
    return commscale


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    commscale = load_commscale(spec["root"])
    tracer = None
    if spec["spans"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(commscale)
    from commscale import cli

    out_dir = Path(spec["out_dir"])
    ops = spec["ops"]
    texts = {c["stdin"]: Path(c["stdin"]).read_text() for op in ops for c in op["calls"] if c.get("stdin")}
    attempts: list = []  # [op index, seconds, error or None], in the order run
    gc.collect()
    refs = [reference_s()]  # one before every attempt and one after the last
    slots: list = []  # seconds from one reference loop to the next
    digests: list = [None] * len(ops)
    mismatches = 0
    rounds = 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for i, op in enumerate(ops):
            slot_start = perf_counter()
            probe = op.get("probe", False)
            if tracer is not None:
                tracer.begin(None if probe else (rounds, i))
            try:
                seconds, outs, error = _run_op(cli, op, texts)
            except Exception as exc:  # an uncaught exception out of cli.main is a failed operation
                seconds, outs, error = 0.0, [], f"{type(exc).__name__}: {exc}"[:300]
                if not probe:
                    traceback.print_exc()
            if tracer is not None:
                tracer.begin(None)
            attempts.append([i, seconds, error])
            if error is None:
                digest = [hashlib.sha256(o.encode()).hexdigest() for o in outs]
                if digests[i] is None:
                    digests[i] = digest
                    for j, o in enumerate(outs):
                        (out_dir / f"op{i}_{j}.out").write_text(o)
                elif digest != digests[i]:
                    mismatches += 1
            gc.collect()
            slots.append(perf_counter() - slot_start)
            refs.append(reference_s())
        rounds += 1
        now = perf_counter()
        # Stop at the round boundary nearest the run length, judged by the last round.
        if now - start + (now - round_start) / 2 >= spec["seconds"]:
            break

    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(spec["spans"]))
    # Untimed follow-up calls on the program's own outputs (round trips).
    for k, post in enumerate(spec.get("post", [])):
        i, j = post["input"]
        src_path = out_dir / f"op{i}_{j}.out"
        stdin = src_path.read_text() if src_path.exists() else ""
        rc, out, err = call(cli, post["argv"], stdin)
        (out_dir / f"post{k}.out").write_text(out if rc == 0 else f"exit {rc}: {err}")

    Path(result_path).write_text(
        json.dumps(
            {
                "rounds": rounds,
                "attempts": attempts,
                "refs": refs,
                "slots": slots,
                "mismatches": mismatches,
                "trace": tracer.summary() if tracer is not None else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
