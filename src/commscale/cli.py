"""Command-line front end.

One command per invocation; scalar results print as bare numbers,
reports as JSON, series as CSV, graphs in the text format documented in
graphio. All numbers carry 12 significant digits. Exit codes: 0 on
success, 1 on domain errors (message on stderr, nothing on stdout),
2 on usage errors. A non-finite result is a domain error. The handlers
pass raw library values and records to the JSON writer, which rounds and
checks every float in one place.
"""

from __future__ import annotations

import argparse
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


def _emit(text: str) -> int:
    sys.stdout.write(text)
    return 0


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


def _emit_json(obj) -> int:
    return _emit(json.dumps(_rounded(obj), indent=2, allow_nan=False) + "\n")


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


def _cmd_exponents(args) -> int:
    params = ScalingParams(D=args.D, H=args.H)
    table = {}
    for cls in ScalingClass:
        try:
            table[cls.value] = meanfield.predicted_exponent(cls, params)
        except DomainError:
            table[cls.value] = None
    return _emit_json(table)


def _cmd_yield(args) -> int:
    params = ScalingParams(D=args.D, H=args.H)
    return _emit(_fmt(meanfield.yield_output(_population(args), params)) + "\n")


def _cmd_ensemble(args) -> int:
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
    return _emit(ensemble.samples_to_csv(*ensemble.generate(spec)))


def _cmd_fit(args) -> int:
    return _emit_json(_fields(ensemble.fit_power_law(*ensemble.parse_csv(_read_input(args)))))


_FIT_DEFAULTS = (("log_intercept", 0.0), ("r_squared", 1.0), ("stderr_beta", 0.0))


def _cmd_compare(args) -> int:
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
    return _emit_json(_fields(report))


def _cmd_usl_eval(args) -> int:
    params = UslParams(contention=args.contention, coherency=args.coherency)
    if args.peak:
        return _emit(_fmt(uslkit.usl_peak(params)) + "\n")
    if args.n is None:
        raise DomainError("--n is required unless --peak is given")
    return _emit(_fmt(uslkit.usl_speedup(args.n, params)) + "\n")


def _cmd_usl_fit(args) -> int:
    fit = uslkit.usl_fit(zip(*tabular.parse_pairs(_read_input(args), "N,value")))
    return _emit_json({**_fields(fit.params), "residual": fit.residual})


def _cmd_serial(args) -> int:
    model = SerialModel(sigma=args.sigma, pi_par=args.pi, kappa=args.kappa)
    if args.exponent:
        return _emit(_fmt(uslkit.effective_exponent(args.n, model)) + "\n")
    return _emit(_fmt(uslkit.serial_time(args.n, model)) + "\n")


def _cmd_queue(args) -> int:
    return _emit(_fmt(uslkit.response_time(QueueParams(lam=args.lam, mu=args.mu))) + "\n")


def _load_graph(args) -> promisegraph.PromiseGraph:
    return graphio.parse_graph(_read_input(args), calibration=args.calibration)


def _cmd_graph_value(args) -> int:
    graph = _load_graph(args)
    reduced = promisegraph.reduce_conditionals(graph)
    # This binds the reduced graph, once: the measures below read the bindings it keeps.
    bindings = promisegraph.find_bindings(reduced)
    return _emit_json(
        {
            "total_value": promisegraph.total_value(reduced),
            "rho": promisegraph.mesh_density(reduced),
            "largest_component": promisegraph.largest_binding_component(reduced),
            "agents": len(graph.agents),
            "bindings": len(bindings),
        }
    )


# A row of json.dumps(rows, indent=2), written directly: with indent=2 json runs its pure-Python encoder.
_BINDING_ROW = (
    '  {\n    "giver": %s,\n    "receiver": %s,\n    "type": %s,\n'
    '    "constraint": [\n      %s\n    ],\n    "value": %r\n  }'
)


def _cmd_graph_bindings(args) -> int:
    graph = _load_graph(args)
    quote = json.encoder.encode_basestring_ascii
    rows = [
        _BINDING_ROW % (quote(b.offer.giver), quote(b.offer.receiver), quote(b.offer.type_tag),
                        ",\n      ".join(map(quote, sorted(b.effective_constraint))),
                        _jnum(promisegraph.valuation(graph, b)))
        for b in promisegraph.find_bindings(graph)
    ]
    return _emit("[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n")


def _cmd_graph_reduce(args) -> int:
    return _emit(graphio.emit_graph(promisegraph.reduce_conditionals(_load_graph(args))))


def _cmd_graph_aggregate(args) -> int:
    members = [m for m in args.members.split(",") if m]
    graph = promisegraph.aggregate(_load_graph(args), members, args.super_id)
    return _emit(graphio.emit_graph(graph))


def _find_offer(graph: promisegraph.PromiseGraph, giver: str, receiver: str, type_tag: str) -> promisegraph.Promise:
    """The first offer giver -> receiver of type_tag in graph order, whatever its condition."""
    for p in graph.promises:
        if p.giver == giver and p.receiver == receiver and p.type_tag == type_tag and p.polarity is Polarity.OFFER:
            return p
    raise DomainError(f"no offer of type {type_tag!r} from {giver!r} to {receiver!r} in the graph")


def _cmd_graph_classify(args) -> int:
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
    return _emit_json(out)


def _cmd_graph_community(args) -> int:
    members = promisegraph.community_members(_load_graph(args), args.authority, args.membership_type)
    return _emit_json(sorted(members))


def _add_input_flag(parser) -> None:
    parser.add_argument("--input", help="read from this file instead of stdin")


def _add_dh(parser, required: bool = True) -> None:
    parser.add_argument("--D", type=int, required=required, help="embedding dimension (integer >= 1)")
    parser.add_argument("--H", type=finite_float, required=required, help="trajectory dimension (0 <= H <= D)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commscale",
        description="Community scaling toolkit: mean-field exponents, promise graphs, USL, synthetic ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="predicted exponent for every scaling class, as JSON")
    _add_dh(p)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("yield", help="interaction yield at the equilibrium volume")
    _add_dh(p)
    p.add_argument("--n", type=finite_float, required=True, help="total population N")
    p.add_argument("--inactive", type=finite_float, default=0.0, help="inactive fraction N_0/N (default 0)")
    p.set_defaults(func=_cmd_yield)

    p = sub.add_parser("ensemble", help="generate a synthetic (N,Y) ensemble as CSV")
    class_names = [c.value for c in ScalingClass]
    p.add_argument("--class", dest="scaling_class", choices=class_names, required=True)
    _add_dh(p)
    p.add_argument("--n", type=int, default=500, help="sample count (default 500)")
    p.add_argument("--nmin", type=finite_float, default=1e3, help="smallest population (default 1e3)")
    p.add_argument("--nmax", type=finite_float, default=1e7, help="largest population (default 1e7)")
    p.add_argument("--noise", type=finite_float, default=0.1, help="log-normal noise sigma (default 0.1)")
    p.add_argument("--inactive", type=finite_float, default=0.0, help="inactive fraction N_0/N (default 0)")
    p.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed (default 0)")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("fit", help="fit a power law to N,Y CSV from a file or stdin")
    _add_input_flag(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", help="compare fit JSON against the theoretical exponent")
    p.add_argument("--class", dest="scaling_class", choices=class_names, required=True)
    _add_dh(p)
    p.add_argument("--k", type=finite_float, default=2.0, help="stderr multiple for the pass flag (default 2)")
    _add_input_flag(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("usl-eval", help="evaluate the scalability law")
    p.add_argument("--contention", type=finite_float, required=True)
    p.add_argument("--coherency", type=finite_float, default=0.0)
    p.add_argument("--n", type=finite_float, help="concurrency level N >= 1")
    p.add_argument("--peak", action="store_true", help="print the speedup-maximizing N instead")
    p.set_defaults(func=_cmd_usl_eval)

    p = sub.add_parser("usl-fit", help="fit contention/coherency to N,value speedup CSV")
    _add_input_flag(p)
    p.set_defaults(func=_cmd_usl_fit)

    p = sub.add_parser("serial", help="serial-fraction completion time sigma + pi/N + kappa*N")
    p.add_argument("--sigma", type=finite_float, required=True)
    p.add_argument("--pi", type=finite_float, default=0.0)
    p.add_argument("--kappa", type=finite_float, default=0.0)
    p.add_argument("--n", type=finite_float, required=True)
    p.add_argument("--exponent", action="store_true", help="print the local power-law slope (kappa=0 regime)")
    p.set_defaults(func=_cmd_serial)

    p = sub.add_parser("queue", help="steady-state response time 1/(mu - lambda)")
    p.add_argument("--lambda", dest="lam", type=finite_float, required=True, help="arrival rate")
    p.add_argument("--mu", type=finite_float, required=True, help="service rate")
    p.set_defaults(func=_cmd_queue)

    p = sub.add_parser("graph", help="promise-graph operations on the text format")
    gsub = p.add_subparsers(dest="graph_command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    _add_input_flag(shared)
    shared.add_argument(
        "--calibration", type=finite_float, default=1.0, help="currency value per binding type (default 1)"
    )
    membership = argparse.ArgumentParser(add_help=False)
    membership.add_argument("--membership-type", dest="membership_type", default="member")

    g = gsub.add_parser("value", parents=[shared], help="total value, mesh density and largest component, as JSON")
    g.set_defaults(func=_cmd_graph_value)

    g = gsub.add_parser("bindings", parents=[shared], help="list bindings as JSON")
    g.set_defaults(func=_cmd_graph_bindings)

    g = gsub.add_parser(
        "reduce", parents=[shared], help="discharge assisted conditional promises; emits canonical text"
    )
    g.set_defaults(func=_cmd_graph_reduce)

    g = gsub.add_parser("aggregate", parents=[shared], help="collapse members into a superagent; emits canonical text")
    g.add_argument("--members", required=True, help="comma-separated member agent ids")
    g.add_argument("--super-id", dest="super_id", required=True, help="fresh id for the superagent")
    g.set_defaults(func=_cmd_graph_aggregate)

    g = gsub.add_parser("classify", parents=[shared, membership], help="scaling class of one offer, as JSON")
    g.add_argument("--giver", required=True)
    g.add_argument("--receiver", required=True)
    g.add_argument("--type", required=True)
    g.add_argument(
        "--threshold", type=finite_float, default=0.1, help="scarcity consumer-fraction threshold (default 0.1)"
    )
    _add_dh(g, required=False)
    g.set_defaults(func=_cmd_graph_classify, usage_error=g.error)

    g = gsub.add_parser(
        "community", parents=[shared, membership], help="members mutually bound to an authority, as JSON"
    )
    g.add_argument("--authority", required=True)
    g.set_defaults(func=_cmd_graph_community)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.12 takes --flag=-- as [], neither converted nor checked.
    if [] in vars(args).values():
        parser.error("'--' is not a flag value")
    try:
        return args.func(args)
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
