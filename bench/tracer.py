"""Out-of-program tracer for the traced benchmark runs.

install() replaces every public function of the seven commscale layers,
wherever a layer module holds a reference to it (names imported from
another module included), with a wrapper that records a span, and wraps
PromiseGraph construction and the least-squares solver uslkit imports.
The program's files are not touched; the wrappers live only in the
traced process.

A span is (span id, name, start, end, parent span id, operation id),
kept in memory in flat arrays and written once, by write(), when the
run ends. Self time is a span's duration minus the time its child spans
cover. Counters are computed from arguments and results after the
wrapped call returns; the time they take is charged to neither the
call nor its parent.

Run as a script, it traces one CLI invocation:

    python3 bench/tracer.py SPANS.json -- graph value --input g.txt
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ["cli", "graphio", "promisegraph", "ensemble", "tabular", "uslkit", "meanfield"]


def _records(args, kwargs, result) -> dict:
    text = args[0] if args else kwargs["text"]
    n = sum(1 for line in text.splitlines() if line.split("#", 1)[0].strip())
    return {"graphio.records": n}


def _conditional_offers(graph) -> int:
    return sum(1 for p in graph.promises if p.condition and p.polarity.value == "+")


def _discharged(args, kwargs, result) -> dict:
    graph = args[0] if args else kwargs["graph"]
    return {"promisegraph.discharged": _conditional_offers(graph) - _conditional_offers(result)}


COUNTERS = {
    "graphio.parse_graph": _records,
    "promisegraph.find_bindings": lambda a, k, r: {"promisegraph.bindings": len(r)},
    "promisegraph.reduce_conditionals": _discharged,
    "ensemble.generate": lambda a, k, r: {"ensemble.samples": len(r)},
    "uslkit.least_squares": lambda a, k, r: {"uslkit.optimizer_starts": 1},
}


class Tracer:
    def __init__(self):
        self.names: list = []  # span name of each name index
        self.op_ids: list = []  # operation id of each operation index
        self.times = array("d")  # start, end per span
        self.ids = array("q")  # span id, name index, parent span id (-1: none), operation index (-1: none)
        self._op = -1
        self._next = 0  # next span id
        self._stack: list = []  # [span id, time covered by children]
        self._undo: list = []
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)

    def begin(self, op) -> None:
        """Attribute the spans that follow to operation op; None marks work outside any counted operation."""
        if op is None:
            self._op = -1
        else:
            self._op = len(self.op_ids)
            self.op_ids.append(op)

    def wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        nidx = self._name_index(name)

        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next
            tracer._next += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                op = tracer._op
                tracer.times.append(t0)
                tracer.times.append(t1)
                tracer.ids.extend((sid, nidx, parent, op))
                if op >= 0:
                    tracer.self_s[name] += (t1 - t0) - frame[1]
                    tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if counter is not None and tracer._op >= 0:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[key] += value
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def extend(self, spans, op) -> None:
        """Add the spans of another traced process as one operation, renumbering span ids."""
        self.begin(op)
        base = self._next
        for sid, name, start, end, parent, _ in spans:
            self.times.extend((start, end))
            self.ids.extend((base + sid, self._name_index(name), -1 if parent is None else base + parent, self._op))
            self._next = max(self._next, base + sid + 1)
        self.begin(None)

    def install(self, package) -> None:
        """Wrap the layers of an imported commscale package."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        wrappers: dict = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(package.__name__ + "."):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                elif attr == "least_squares" and mod is modules["uslkit"]:
                    name = "uslkit.least_squares"
                else:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(name, obj)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        cls = modules["promisegraph"].PromiseGraph
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap("promisegraph.construct", cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def spans(self):
        """(span id, name, start, end, parent span id or None, operation id or None) per span, in end order."""
        for k in range(len(self.ids) // 4):
            sid, nidx, parent, op = self.ids[4 * k: 4 * k + 4]
            yield (sid, self.names[nidx], self.times[2 * k], self.times[2 * k + 1],
                   None if parent < 0 else parent, None if op < 0 else self.op_ids[op])

    def inclusive_s(self, name: str) -> float:
        """Summed duration of all spans of one name."""
        nidx = self.names.index(name)
        return sum(self.times[2 * k + 1] - self.times[2 * k]
                   for k in range(len(self.ids) // 4) if self.ids[4 * k + 1] == nidx)

    def clear(self) -> None:
        del self.times[:], self.ids[:]

    def summary(self) -> dict:
        """Self seconds, calls and counters over all counted operations."""
        return {
            "ops": len(self.op_ids),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def write(self, path: Path) -> None:
        """All spans as one compressed numpy archive.

        times[k] = (start, end) and ids[k] = (span id, name index, parent
        span id or -1, operation index or -1) for span k; names and ops
        map the indices to span names and operation ids.
        """
        import numpy as np  # not at module level: a traced CLI process must import numpy through commscale

        np.savez_compressed(
            path,
            times=np.frombuffer(self.times, dtype=np.float64).reshape(-1, 2),
            ids=np.frombuffer(self.ids, dtype=np.int64).reshape(-1, 4),
            names=np.array(self.names, dtype=str),
            ops=np.array([json.dumps(op) for op in self.op_ids], dtype=str),
        )


def merge(summaries: list) -> dict:
    out = {"ops": 0, "self_s": defaultdict(float), "calls": defaultdict(int), "counts": defaultdict(float)}
    for s in summaries:
        out["ops"] += s["ops"]
        for key in ("self_s", "calls", "counts"):
            for name, value in s[key].items():
                out[key][name] += value
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(stderr: str) -> dict:
    """Seconds each commscale layer adds to an import, from `python -X importtime` output.

    A layer's figure is its cumulative import time minus that of the
    commscale modules it imports, so third-party imports are charged to
    the layer that first pulls them in.
    """
    pending: dict = defaultdict(list)  # depth -> [(name, cumulative us, children)]
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(3)) // 2  # one space, then two per level of nesting
        node = (m.group(4), int(m.group(2)), pending.pop(depth + 1, []))
        pending[depth].append(node)

    def nested_commscale(children) -> int:
        total = 0
        for name, cum, grand in children:
            total += cum if name.startswith("commscale.") else nested_commscale(grand)
        return total

    out = {}

    def walk(nodes):
        for name, cum, children in nodes:
            if name.startswith("commscale.") and name.split(".")[1] in LAYERS:
                out[name.split(".")[1]] = (cum - nested_commscale(children)) / 1e6
            walk(children)

    for nodes in pending.values():
        walk(nodes)
    return out


def _main(argv: list) -> int:
    spans_path = Path(argv[0])
    if argv[1] != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- COMMAND ...")
    from worker import load_commscale

    commscale = load_commscale(Path(__file__).resolve().parent.parent)
    tracer = Tracer()
    tracer.install(commscale)
    from commscale import cli

    tracer.begin(0)
    try:
        rc = cli.main(argv[2:])
    finally:
        spans_path.write_text(json.dumps({"summary": tracer.summary(), "spans": list(tracer.spans())}))
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
