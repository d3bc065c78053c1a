"""Command-line front end.

One command per invocation; scalar results print as bare numbers,
reports as JSON, series as CSV, graphs in the text format documented in
graphio. All numbers carry 12 significant digits. Exit codes: 0 on
success, 1 on domain errors (message on stderr, nothing on stdout),
2 on usage errors. A non-finite result is a domain error.

_COMMANDS is the command table: each command's handler, help line and
flags in help order ("graph value" is value in the group graph, a row
without handler). main builds one parser per command, once: that of the
row its argv names, with the root and the row's group; any other argv
gets every row's, so a message that lists the commands lists them all.
Handlers return results and main alone writes stdout: a str as it is, a
dict or list as JSON with every float rounded and checked, a number as
one line.

At start this module loads only errors and tabular. meanfield loads only
for --class (ScalingClass gives its choices), a class law or an exponent;
each handler imports the library modules it runs, so a command loads no
module it does not use.

main pauses Python's cyclic garbage collector for its one command and
restores the caller's setting on every exit. Everything a command builds
is acyclic, so reference counting frees it, and the collections a large
graph would otherwise set off (every few hundred allocations) find
nothing to free. The pause is here and not in the library because the
collector's state is process-wide and library calls may run
concurrently.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys

from .errors import CsvFormatError, DomainError
from .tabular import finite_float

__all__ = ["main"]


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"result {x} is not a finite number")
    return format(x, ".12g")


def _jnum(x: float) -> float:
    # Rounds to the printed 12 significant digits so JSON carries the same value.
    return float(_fmt(x))


def _rounded(obj):
    """obj with _jnum applied to every float among its dict values and list items."""
    if isinstance(obj, float):
        return _jnum(obj)
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_rounded(item) for item in obj]
    return obj


def _fields(record) -> dict:
    """A record's fields by name, in field order."""
    return dict(zip(record._fields, record._values))


def _read_input(args) -> str:
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    # Strict UTF-8, as for --input: under a C/POSIX locale sys.stdin would pass bad bytes on as
    # lone surrogates. A text-only stream such as io.StringIO has no bytes to decode.
    buffer = getattr(sys.stdin, "buffer", None)
    return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")


def _cmd_exponents(args) -> dict:
    from . import meanfield
    params = meanfield.ScalingParams(D=args.D, H=args.H)
    table = {}
    for cls in meanfield.ScalingClass:
        try:
            table[cls.value] = meanfield.predicted_exponent(cls, params)
        except DomainError:
            table[cls.value] = None
    return table


def _cmd_yield(args) -> float:
    from . import meanfield
    n0 = args.inactive * args.n
    return meanfield.yield_output(meanfield.Population(args.n - n0, n0), meanfield.ScalingParams(D=args.D, H=args.H))


def _cmd_ensemble(args) -> str:
    from . import ensemble, meanfield, tabular
    spec = ensemble.EnsembleSpec(
        scaling_class=meanfield.ScalingClass(args.scaling_class),
        params=meanfield.ScalingParams(D=args.D, H=args.H),
        n_samples=args.n,
        N_min=args.nmin,
        N_max=args.nmax,
        noise_sigma=args.noise,
        inactive_fraction=args.inactive,
        seed=args.seed,
    )
    # One block at a time; generate checks each cell, so format_pairs writes it unchecked. Later blocks drop "N,Y\n".
    texts, start = [], 0
    while start < spec.n_samples:
        ns, ys = ensemble.generate(spec, _start=start)
        texts.append(tabular.format_pairs(ns, ys, "N,Y")[4 if start else 0:])
        start += len(ns)
    return "".join(texts)


_CHUNK = 1 << 17  # characters of CSV text, about 5,000 rows, that fit reads per parse_csv call


def _cmd_fit(args) -> dict:
    from array import array

    from . import ensemble
    text = _read_input(args)
    # parse_csv reads newline-ended chunks, each but the first under the text's header line, into array("d") columns,
    # so no list grows with the text. A row parses or fails alone: a chunk fails only where the whole text does.
    ns, ys, head, start = array("d"), array("d"), "", 0
    try:
        while not start or start < len(text):
            stop = text.find("\n", start + _CHUNK) + 1 or len(text)
            for column, cells in zip((ns, ys), ensemble.parse_csv(head + text[start:stop])):
                column.fromlist(cells)
            head, start = text[:text.find("\n") + 1], stop
    except CsvFormatError:
        ensemble.parse_csv(text)  # raises the error that one read of the whole text names
        raise
    del text  # the fit needs only the columns
    return _fields(ensemble.fit_power_law(ns, ys))


def _cmd_compare(args) -> dict:
    from . import ensemble, meanfield
    try:
        obj = json.loads(_read_input(args))
        fit = ensemble.PowerLawFit(obj["beta"], obj.get("log_intercept", 0.0), obj.get("r_squared", 1.0),
                                   obj.get("stderr_beta", 0.0), obj.get("n", 0))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, RecursionError):
        raise DomainError("input must be fit JSON with at least a 'beta' field, all numeric fields finite") from None
    params = meanfield.ScalingParams(D=args.D, H=args.H)
    report = ensemble.compare(fit, meanfield.ScalingClass(args.scaling_class), params, k=args.k)
    return _fields(report)


def _cmd_usl_eval(args) -> float:
    if args.n is None and not args.peak:
        args.usage_error("--n is required unless --peak is given")
    if args.n is not None and args.peak:
        args.usage_error("--n and --peak exclude each other")
    from . import uslkit
    params = uslkit.UslParams(contention=args.contention, coherency=args.coherency)
    if args.peak:
        return uslkit.usl_peak(params)
    return uslkit.usl_speedup(args.n, params)


def _cmd_usl_fit(args) -> dict:
    from . import tabular, uslkit
    ns, speedups = tabular.parse_pairs(_read_input(args), "N,value")
    # usl_fit refuses these rows too, but names no row: the command names the first, as fit does.
    for row, (n, s) in enumerate(zip(ns, speedups), 2):
        if n < 1 or s <= 0:
            raise CsvFormatError(f"row {row}: N must be >= 1, got {n:g}" if n < 1
                                 else f"row {row}: speedup must be positive, got {s:g}")
    fit = uslkit.usl_fit(zip(ns, speedups))
    return {**_fields(fit.params), "residual": fit.residual}


def _cmd_serial(args) -> float:
    from . import uslkit
    model = uslkit.SerialModel(sigma=args.sigma, pi_par=args.pi, kappa=args.kappa)
    if args.exponent:
        return uslkit.effective_exponent(args.n, model)
    return uslkit.serial_time(args.n, model)


def _cmd_queue(args) -> float:
    from . import uslkit
    return uslkit.response_time(uslkit.QueueParams(lam=args.lam, mu=args.mu))


def _cmd_graph_value(args) -> dict:
    from . import graphio, promisegraph
    graph = graphio.parse_graph(_read_input(args), args.calibration)
    reduced = promisegraph.reduce_conditionals(graph)
    # total_value binds and values the reduced graph, once; the measures after it read the bindings it keeps.
    return {
        "total_value": promisegraph.total_value(reduced),
        "rho": promisegraph.mesh_density(reduced),
        "largest_component": promisegraph.largest_binding_component(reduced),
        "agents": len(graph._agents),
        "bindings": len(reduced._bound),
    }


# A row of json.dumps(rows, indent=2), written directly: with indent=2 json runs its pure-Python encoder.
# All rows are written by one '%' format over their columns, and each distinct token, constraint set and value is
# formatted once.
_BINDING_ROW = (
    '  {\n    "giver": %s,\n    "receiver": %s,\n    "type": %s,\n'
    '    "constraint": [\n      %s\n    ],\n    "value": %r\n  }'
)


def _cmd_graph_bindings(args) -> str:
    from . import graphio, promisegraph
    graph = graphio.parse_graph(_read_input(args), args.calibration)
    rows = promisegraph.binding_values(graph)
    if not rows:
        return "[]\n"
    givers, receivers, types, constraints, values = zip(*rows)
    quote = json.encoder.encode_basestring_ascii
    quoted = {token: quote(token) for token in {*givers, *receivers, *types}}.__getitem__
    # _jnum meets the values in row order, so a value it refuses is the first a row-by-row writer would refuse.
    rounded = {value: _jnum(value) for value in dict.fromkeys(values)}
    cells = [None] * (5 * len(rows))
    cells[0::5], cells[1::5], cells[2::5] = map(quoted, givers), map(quoted, receivers), map(quoted, types)
    cells[3::5] = map({c: ",\n      ".join(map(quote, sorted(c))) for c in set(constraints)}.__getitem__, constraints)
    # 0.0 and -0.0 are one key of rounded, so a table holding a zero rounds every value again, keeping its sign.
    cells[4::5] = map(_jnum if 0.0 in rounded else rounded.__getitem__, values)
    return "[\n" + ",\n".join([_BINDING_ROW] * len(rows)) % tuple(cells) + "\n]\n"


def _cmd_graph_reduce(args) -> str:
    from . import graphio, promisegraph
    return graphio.emit_graph(promisegraph.reduce_conditionals(graphio.parse_graph(_read_input(args))))


def _cmd_graph_aggregate(args) -> str:
    from . import graphio, promisegraph
    members = [m for m in args.members.split(",") if m]
    return graphio.emit_graph(promisegraph.aggregate(graphio.parse_graph(_read_input(args)), members, args.super_id))


def _cmd_graph_classify(args) -> dict:
    if (args.D is None) != (args.H is None):
        args.usage_error("--D and --H must be given together")
    from . import graphio, meanfield, promisegraph
    graph = graphio.parse_graph(_read_input(args))
    offer = promisegraph.find_offer(graph, args.giver, args.receiver, args.type)
    cls = promisegraph.classify_pattern(
        graph, offer, scarcity_threshold=args.threshold, membership_type=args.membership_type
    )
    out = {"class": cls.value}
    if args.D is not None:
        out["exponent"] = meanfield.predicted_exponent(cls, meanfield.ScalingParams(D=args.D, H=args.H))
    return out


def _cmd_graph_community(args) -> list:
    from . import graphio, promisegraph
    graph = graphio.parse_graph(_read_input(args))
    return sorted(promisegraph.community_members(graph, args.authority, args.membership_type))


_INPUT = [("--input", {"help": "read from this file instead of stdin"})]
_CLASS = [("--class", {"dest": "scaling_class", "required": True})]
_DH = [("--D", {"type": int, "required": True, "help": "embedding dimension (integer >= 1)"}),
       ("--H", {"type": finite_float, "required": True, "help": "trajectory dimension (0 <= H <= D)"})]
_INACTIVE = [("--inactive", {"type": finite_float, "default": 0.0, "help": "inactive fraction N_0/N (default 0)"})]
_CALIBRATION = [("--calibration", {"type": finite_float, "default": 1.0,
                                   "help": "currency value per binding type (default 1)"})]
_MEMBERSHIP = [("--membership-type", {"dest": "membership_type", "default": "member"})]

_COMMANDS = {
    "exponents": (_cmd_exponents, "predicted exponent for every scaling class, as JSON", _DH),
    "yield": (_cmd_yield, "interaction yield at the equilibrium volume",
              [*_DH, ("--n", {"type": finite_float, "required": True, "help": "total population N"}), *_INACTIVE]),
    "ensemble": (_cmd_ensemble, "generate a synthetic (N,Y) ensemble as CSV", [
        *_CLASS, *_DH,
        ("--n", {"type": int, "default": 500, "help": "sample count (default 500)"}),
        ("--nmin", {"type": finite_float, "default": 1e3, "help": "smallest population (default 1e3)"}),
        ("--nmax", {"type": finite_float, "default": 1e7, "help": "largest population (default 1e7)"}),
        ("--noise", {"type": finite_float, "default": 0.1, "help": "log-normal noise sigma (default 0.1)"}),
        *_INACTIVE,
        ("--seed", {"type": int, "default": 0, "help": "64-bit unsigned seed (default 0)"}),
    ]),
    "fit": (_cmd_fit, "fit a power law to N,Y CSV from a file or stdin", _INPUT),
    "compare": (_cmd_compare, "compare fit JSON against the theoretical exponent", [
        *_CLASS, *_DH,
        ("--k", {"type": finite_float, "default": 2.0, "help": "stderr multiple for the pass flag (default 2)"}),
        *_INPUT,
    ]),
    "usl-eval": (_cmd_usl_eval, "evaluate the scalability law", [
        ("--contention", {"type": finite_float, "required": True}),
        ("--coherency", {"type": finite_float, "default": 0.0}),
        ("--n", {"type": finite_float, "help": "concurrency level N >= 1"}),
        ("--peak", {"action": "store_true", "help": "print the speedup-maximizing N instead"}),
    ]),
    "usl-fit": (_cmd_usl_fit, "fit contention/coherency to N,value speedup CSV", _INPUT),
    "serial": (_cmd_serial, "serial-fraction completion time sigma + pi/N + kappa*N", [
        ("--sigma", {"type": finite_float, "required": True}),
        ("--pi", {"type": finite_float, "default": 0.0}),
        ("--kappa", {"type": finite_float, "default": 0.0}),
        ("--n", {"type": finite_float, "required": True}),
        ("--exponent", {"action": "store_true", "help": "print the local power-law slope (kappa=0 regime)"}),
    ]),
    "queue": (_cmd_queue, "steady-state response time 1/(mu - lambda)", [
        ("--lambda", {"dest": "lam", "type": finite_float, "required": True, "help": "arrival rate"}),
        ("--mu", {"type": finite_float, "required": True, "help": "service rate"}),
    ]),
    "graph": (None, "promise-graph operations on the text format", []),
    "graph value": (_cmd_graph_value, "total value, mesh density and largest component, as JSON",
                    [*_INPUT, *_CALIBRATION]),
    "graph bindings": (_cmd_graph_bindings, "list bindings as JSON", [*_INPUT, *_CALIBRATION]),
    "graph reduce": (_cmd_graph_reduce, "discharge assisted conditional promises; emits canonical text", _INPUT),
    "graph aggregate": (_cmd_graph_aggregate, "collapse members into a superagent; emits canonical text", [
        *_INPUT,
        ("--members", {"required": True, "help": "comma-separated member agent ids"}),
        ("--super-id", {"dest": "super_id", "required": True, "help": "fresh id for the superagent"}),
    ]),
    "graph classify": (_cmd_graph_classify, "scaling class of one offer, as JSON", [
        *_INPUT, *_MEMBERSHIP,
        ("--giver", {"required": True}), ("--receiver", {"required": True}), ("--type", {"required": True}),
        ("--threshold", {"type": finite_float, "default": 0.1,
                         "help": "scarcity consumer-fraction threshold (default 0.1)"}),
        *[(flag, {**kwargs, "required": False}) for flag, kwargs in _DH],
    ]),
    "graph community": (_cmd_graph_community, "members mutually bound to an authority, as JSON",
                        [*_INPUT, *_MEMBERSHIP, ("--authority", {"required": True})]),
}


@functools.cache
def _parser(row: str | None = None) -> argparse.ArgumentParser:
    """The parser of row of _COMMANDS and its group, or of every row when row is None; built once and reused."""
    parser = argparse.ArgumentParser(
        prog="commscale",
        description="Community scaling toolkit: mean-field exponents, promise graphs, USL, synthetic ensembles.",
    )
    # Under one row the root's usage, which its errors print, still names every command.
    every = {} if row is None else {"metavar": "{%s}" % ",".join(name for name in _COMMANDS if " " not in name)}
    groups = {"": parser.add_subparsers(dest="command", required=True, **every)}
    for name, (handler, help_text, flags) in _COMMANDS.items():
        if row is not None and not f"{row} ".startswith(f"{name} "):
            continue
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=help_text)
        for flag, kwargs in flags:
            if flag == "--class":
                from .meanfield import ScalingClass
                kwargs = {**kwargs, "choices": [c.value for c in ScalingClass]}
            p.add_argument(flag, **kwargs)
        if handler is None:
            groups[name] = p.add_subparsers(dest=f"{name}_command", required=True)
        else:
            p.set_defaults(handler=handler, usage_error=p.error)
    return parser


def main(argv=None) -> int:
    # The cyclic collector is paused for the command (see the module docstring) and its state restored on every exit.
    enabled = gc.isenabled()
    gc.disable()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        parser = _parser(next((name for name, (handler, *_) in _COMMANDS.items()
                               if handler and name.split(" ") == argv[:name.count(" ") + 1]), None))
        args = parser.parse_args(argv)
        # argparse before Python 3.12 takes --flag=-- as [], neither converted nor checked.
        if [] in vars(args).values():
            parser.error("'--' is not a flag value")
        try:
            result = args.handler(args)
            if isinstance(result, (dict, list)):
                result = json.dumps(_rounded(result), indent=2, allow_nan=False) + "\n"
            elif not isinstance(result, str):
                result = _fmt(result) + "\n"
            sys.stdout.write(result)
            return 0
        except (DomainError, OSError, UnicodeDecodeError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()
