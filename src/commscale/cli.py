"""Command-line front end.

One command per invocation; scalar results print as bare numbers,
reports as JSON, series as CSV, graphs in the text format documented in
graphio. All numbers carry 12 significant digits. Exit codes: 0 on
success, 1 on domain errors (message on stderr, nothing on stdout),
2 on usage errors. A non-finite result is a domain error.

_COMMANDS is the command table: each command's handler, help line and
flags in help order ("graph value" is value in the group graph, a row
without handler). The parser is built once per process. Handlers return
results and main alone writes stdout: a str as it is, a dict or list as
JSON with every float rounded and checked, a number as one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import ensemble, graphio, meanfield, promisegraph, tabular, uslkit
from .errors import DomainError
from .meanfield import Population, ScalingClass, ScalingParams
from .promisegraph import Polarity
from .tabular import finite_float
from .uslkit import QueueParams, SerialModel, UslParams

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


def _population(args) -> Population:
    n0 = args.inactive * args.n
    return Population(args.n - n0, n0)


def _cmd_exponents(args) -> dict:
    params = ScalingParams(D=args.D, H=args.H)
    table = {}
    for cls in ScalingClass:
        try:
            table[cls.value] = meanfield.predicted_exponent(cls, params)
        except DomainError:
            table[cls.value] = None
    return table


def _cmd_yield(args) -> float:
    return meanfield.yield_output(_population(args), ScalingParams(D=args.D, H=args.H))


def _cmd_ensemble(args) -> str:
    spec = ensemble.EnsembleSpec(
        scaling_class=ScalingClass(args.scaling_class),
        params=ScalingParams(D=args.D, H=args.H),
        n_samples=args.n,
        N_min=args.nmin,
        N_max=args.nmax,
        noise_sigma=args.noise,
        inactive_fraction=args.inactive,
        seed=args.seed,
    )
    return ensemble.samples_to_csv(*ensemble.generate(spec))


def _cmd_fit(args) -> dict:
    return _fields(ensemble.fit_power_law(*ensemble.parse_csv(_read_input(args))))


_FIT_DEFAULTS = (("log_intercept", 0.0), ("r_squared", 1.0), ("stderr_beta", 0.0))


def _cmd_compare(args) -> dict:
    try:
        obj = json.loads(_read_input(args))
        values = [obj["beta"]] + [obj.get(k, d) for k, d in _FIT_DEFAULTS]
        # Only JSON numbers: float() would also take "1.17" and true.
        if any(type(v) not in (int, float) for v in values):
            raise TypeError
        fit = ensemble.PowerLawFit(*map(finite_float, values), n=obj.get("n", 0))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, RecursionError):
        raise DomainError("input must be fit JSON with at least a 'beta' field, all numeric fields finite") from None
    report = ensemble.compare(fit, ScalingClass(args.scaling_class), ScalingParams(D=args.D, H=args.H), k=args.k)
    return _fields(report)


def _cmd_usl_eval(args) -> float:
    params = UslParams(contention=args.contention, coherency=args.coherency)
    if args.peak:
        return uslkit.usl_peak(params)
    if args.n is None:
        raise DomainError("--n is required unless --peak is given")
    return uslkit.usl_speedup(args.n, params)


def _cmd_usl_fit(args) -> dict:
    fit = uslkit.usl_fit(zip(*tabular.parse_pairs(_read_input(args), "N,value")))
    return {**_fields(fit.params), "residual": fit.residual}


def _cmd_serial(args) -> float:
    model = SerialModel(sigma=args.sigma, pi_par=args.pi, kappa=args.kappa)
    if args.exponent:
        return uslkit.effective_exponent(args.n, model)
    return uslkit.serial_time(args.n, model)


def _cmd_queue(args) -> float:
    return uslkit.response_time(QueueParams(lam=args.lam, mu=args.mu))


def _load_graph(args) -> promisegraph.PromiseGraph:
    return graphio.parse_graph(_read_input(args), calibration=args.calibration)


def _cmd_graph_value(args) -> dict:
    graph = _load_graph(args)
    reduced = promisegraph.reduce_conditionals(graph)
    # This binds the reduced graph, once: the measures below read the bindings it keeps.
    bindings = promisegraph.find_bindings(reduced)
    return {
        "total_value": promisegraph.total_value(reduced),
        "rho": promisegraph.mesh_density(reduced),
        "largest_component": promisegraph.largest_binding_component(reduced),
        "agents": len(graph.agents),
        "bindings": len(bindings),
    }


# A row of json.dumps(rows, indent=2), written directly: with indent=2 json runs its pure-Python encoder.
_BINDING_ROW = (
    '  {\n    "giver": %s,\n    "receiver": %s,\n    "type": %s,\n'
    '    "constraint": [\n      %s\n    ],\n    "value": %r\n  }'
)


def _cmd_graph_bindings(args) -> str:
    graph = _load_graph(args)
    quote = json.encoder.encode_basestring_ascii
    rows = [
        _BINDING_ROW % (quote(b.offer.giver), quote(b.offer.receiver), quote(b.offer.type_tag),
                        ",\n      ".join(map(quote, sorted(b.effective_constraint))),
                        _jnum(promisegraph.valuation(graph, b)))
        for b in promisegraph.find_bindings(graph)
    ]
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def _cmd_graph_reduce(args) -> str:
    return graphio.emit_graph(promisegraph.reduce_conditionals(_load_graph(args)))


def _cmd_graph_aggregate(args) -> str:
    members = [m for m in args.members.split(",") if m]
    return graphio.emit_graph(promisegraph.aggregate(_load_graph(args), members, args.super_id))


def _find_offer(graph: promisegraph.PromiseGraph, giver: str, receiver: str, type_tag: str) -> promisegraph.Promise:
    """The first offer giver -> receiver of type_tag in graph order, whatever its condition."""
    for p in graph.promises:
        if p.giver == giver and p.receiver == receiver and p.type_tag == type_tag and p.polarity is Polarity.OFFER:
            return p
    raise DomainError(f"no offer of type {type_tag!r} from {giver!r} to {receiver!r} in the graph")


def _cmd_graph_classify(args) -> dict:
    if (args.D is None) != (args.H is None):
        args.usage_error("--D and --H must be given together")
    graph = _load_graph(args)
    offer = _find_offer(graph, args.giver, args.receiver, args.type)
    cls = promisegraph.classify_pattern(
        graph, offer, scarcity_threshold=args.threshold, membership_type=args.membership_type
    )
    out = {"class": cls.value}
    if args.D is not None:
        out["exponent"] = meanfield.predicted_exponent(cls, ScalingParams(D=args.D, H=args.H))
    return out


def _cmd_graph_community(args) -> list:
    return sorted(promisegraph.community_members(_load_graph(args), args.authority, args.membership_type))


_INPUT = [("--input", {"help": "read from this file instead of stdin"})]
_CLASS = [("--class", {"dest": "scaling_class", "choices": [c.value for c in ScalingClass], "required": True})]
_DH = [("--D", {"type": int, "required": True, "help": "embedding dimension (integer >= 1)"}),
       ("--H", {"type": finite_float, "required": True, "help": "trajectory dimension (0 <= H <= D)"})]
_INACTIVE = [("--inactive", {"type": finite_float, "default": 0.0, "help": "inactive fraction N_0/N (default 0)"})]
_GRAPH_INPUT = [*_INPUT, ("--calibration", {"type": finite_float, "default": 1.0,
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
    "graph value": (_cmd_graph_value, "total value, mesh density and largest component, as JSON", _GRAPH_INPUT),
    "graph bindings": (_cmd_graph_bindings, "list bindings as JSON", _GRAPH_INPUT),
    "graph reduce": (_cmd_graph_reduce, "discharge assisted conditional promises; emits canonical text", _GRAPH_INPUT),
    "graph aggregate": (_cmd_graph_aggregate, "collapse members into a superagent; emits canonical text", [
        *_GRAPH_INPUT,
        ("--members", {"required": True, "help": "comma-separated member agent ids"}),
        ("--super-id", {"dest": "super_id", "required": True, "help": "fresh id for the superagent"}),
    ]),
    "graph classify": (_cmd_graph_classify, "scaling class of one offer, as JSON", [
        *_GRAPH_INPUT, *_MEMBERSHIP,
        ("--giver", {"required": True}), ("--receiver", {"required": True}), ("--type", {"required": True}),
        ("--threshold", {"type": finite_float, "default": 0.1,
                         "help": "scarcity consumer-fraction threshold (default 0.1)"}),
        *[(flag, {**kwargs, "required": False}) for flag, kwargs in _DH],
    ]),
    "graph community": (_cmd_graph_community, "members mutually bound to an authority, as JSON",
                        [*_GRAPH_INPUT, *_MEMBERSHIP, ("--authority", {"required": True})]),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every row of _COMMANDS, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="commscale",
        description="Community scaling toolkit: mean-field exponents, promise graphs, USL, synthetic ensembles.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (handler, help_text, flags) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        if handler is None:
            groups[name] = p.add_subparsers(dest=f"{name}_command", required=True)
        else:
            p.set_defaults(handler=handler, usage_error=p.error)
    return parser


def main(argv=None) -> int:
    parser = _parser()
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
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
