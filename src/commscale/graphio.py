"""Line-oriented text format for promise graphs.

Grammar, one record per line ('#' starts a comment, blank lines are
ignored):

    agent <id> <alpha>
    promise <giver> <receiver> <type> <+|-> <chi-csv> [| <cond-csv>]

Tokens (ids, types, constraint and condition entries) may not contain
whitespace, ',', '|' or '#'. <chi-csv> is the comma-separated body
constraint set; '*' is the conventional catch-all body token. The
optional '| <cond-csv>' suffix lists the behaviour types the giver must
be supplied with before the promise takes effect.

Canonical form: agents first, sorted by id, alpha in shortest
round-tripping decimal; then promises sorted by (giver, receiver, type,
polarity), constraint and condition entries sorted, single spaces,
trailing newline. parse_graph and emit_graph are mutually inverse on
canonical text, byte for byte.

Duplicate promise records, equal in all but their constraint sets,
merge while the text is read, into one promise whose constraint set is
their union, as PromiseGraph merges them. parse_graph hands the graph
the merge table it reads, in the order it was read, and builds no
Promise records; records are built only when graph.promises is read.
Order is made at output: emit_graph writes a sorted copy of the table
and leaves the graph's own table in the order it was read.

Calibration is not part of the wire format; pass it to parse_graph (or
the --calibration flag of graph value and graph bindings) when values
matter.
"""

from __future__ import annotations

import re
from operator import itemgetter

from . import promisegraph
from .errors import DomainError, GraphFormatError
from .promisegraph import Agent, Calibration, PromiseGraph

__all__ = ["parse_graph", "emit_graph"]

_TOKEN = re.compile(r"[^\s,|#]+\Z")
_ACCEPTS = {"+": False, "-": True}


def _check_token(token: str, what: str, passed: dict, lineno: int | None = None) -> str:
    # passed maps each token this call has already accepted to its one string object, which is returned;
    # a failing token is never added.
    checked = passed.get(token)
    if checked is None:
        if not _TOKEN.match(token):
            where = f"line {lineno}: " if lineno is not None else ""
            raise GraphFormatError(f"{where}invalid {what} {token!r} (whitespace, ',', '|' and '#' are reserved)")
        checked = passed[token] = token
    return checked


def _split_csv(text: str, what: str, passed: dict, lineno: int) -> list[str]:
    parts = text.split(",")
    if any(not p for p in parts):
        raise GraphFormatError(f"line {lineno}: empty entry in {what} {text!r}")
    return [_check_token(p, f"{what} entry", passed, lineno) for p in parts]


def _joined(entries, what: str, passed: dict, memo: dict) -> str:
    text = memo.get(entries)
    if text is None:
        text = memo[entries] = ",".join(_check_token(t, what, passed) for t in sorted(entries))
    return text


def _promise_key(fields: list, passed: dict, constraints: dict, conditions: dict, lineno: int) -> tuple:
    """(merge key, constraint set) of a promise row whose tokens, polarity or csv fields are not all known yet.

    Checks condition, giver, receiver, type, polarity and constraint in that order, so the first bad field names
    the error; each field that passes is kept for the lines after it.
    """
    if len(fields) == 6:
        condition = ()
    else:
        condition = conditions.get(fields[7])
        if condition is None:
            parts = _split_csv(fields[7], "condition", passed, lineno)
            condition = conditions[fields[7]] = tuple(sorted(set(parts)))
    giver = _check_token(fields[1], "agent id", passed, lineno)
    receiver = _check_token(fields[2], "agent id", passed, lineno)
    type_tag = _check_token(fields[3], "promise type", passed, lineno)
    accepts = _ACCEPTS.get(fields[4])
    if accepts is None:
        raise GraphFormatError(f"line {lineno}: polarity must be '+' or '-', got {fields[4]!r}")
    chi = fields[5]
    constraint = constraints.get(chi)
    if constraint is None:
        constraint = constraints[chi] = frozenset(_split_csv(chi, "constraint", passed, lineno))
    return (giver, receiver, type_tag, accepts, condition), constraint


def parse_graph(text: str, calibration: Calibration = 1.0) -> PromiseGraph:
    """Parse the text format into a PromiseGraph.

    Agents and promises may appear in any order; every error names the
    offending line.
    """
    agents: dict[str, Agent] = {}
    agent_lines: dict[str, int] = {}
    # The merge table as it is read: (giver, receiver, type, is_accept, condition) -> the union of the
    # constraint sets of its records.
    table: dict[tuple, frozenset] = {}
    # Each distinct token is checked once and kept as one string object, and each distinct csv field is
    # parsed once into one shared value. A 6-field row reads the condition of None, its absent field.
    passed: dict[str, str] = {}
    constraints: dict[str, frozenset] = {}
    conditions: dict[str | None, tuple] = {None: ()}
    lines = text.splitlines()
    # Text without comments is split into rows in C.
    rows = (line.split("#", 1)[0].split() for line in lines) if "#" in text else map(str.split, lines)
    for lineno, fields in enumerate(rows, 1):
        if not fields:
            continue
        kind = fields[0]
        if kind == "promise":
            if len(fields) == 6:
                _, giver, receiver, type_tag, sign, chi = fields
                cond = None
            elif len(fields) == 8 and fields[6] == "|":
                _, giver, receiver, type_tag, sign, chi, _, cond = fields
            else:
                raise GraphFormatError(
                    f"line {lineno}: promise records take 5 fields plus an optional '| <cond-csv>', "
                    f"got {lines[lineno - 1].split('#', 1)[0].strip()!r}"
                )
            try:
                key = (passed[giver], passed[receiver], passed[type_tag], _ACCEPTS[sign], conditions[cond])
                constraint = constraints[chi]
            except KeyError:
                key, constraint = _promise_key(fields, passed, constraints, conditions, lineno)
            merged = table.setdefault(key, constraint)
            if merged is not constraint and not constraint <= merged:
                table[key] = merged | constraint
        elif kind == "agent":
            if len(fields) != 3:
                raise GraphFormatError(f"line {lineno}: agent records take exactly 2 fields, got {len(fields) - 1}")
            agent_id = _check_token(fields[1], "agent id", passed, lineno)
            if agent_id in agents:
                raise GraphFormatError(
                    f"line {lineno}: duplicate agent {agent_id!r} (first declared on line {agent_lines[agent_id]})"
                )
            try:
                alpha = float(fields[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: assessment {fields[2]!r} is not a number") from None
            try:
                agents[agent_id] = Agent(agent_id, alpha)
            except DomainError as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from None
            agent_lines[agent_id] = lineno
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {kind!r} (expected 'agent' or 'promise')")

    # Endpoints are checked once per key, in C; only an error walks the lines again, to name the first bad one.
    if set(map(itemgetter(0), table)).union(map(itemgetter(1), table)).difference(agents):
        raise _undeclared(lines, agents)
    return PromiseGraph._from_table(agents, table, calibration)


def _undeclared(lines: list, agents: dict) -> GraphFormatError:
    """The error of the first promise line that names an agent missing from agents; every line parses."""
    for lineno, line in enumerate(lines, 1):
        fields = line.split("#", 1)[0].split()
        if fields[:1] == ["promise"] and not (fields[1] in agents and fields[2] in agents):
            endpoint = fields[2] if fields[1] in agents else fields[1]
            return GraphFormatError(f"line {lineno}: promise references undeclared agent {endpoint!r}")


def emit_graph(graph: PromiseGraph) -> str:
    """Emit the canonical text form of a graph."""
    passed: dict[str, str] = {}
    lines = []
    for agent_id in graph.agent_ids():
        _check_token(agent_id, "agent id", passed)
        lines.append(f"agent {agent_id} {graph.agent(agent_id).assessment!r}\n")
    # Every promise endpoint is a graph agent, checked above. The rest of a line is checked and written once per
    # (type, polarity, condition, constraint), where it first occurs, so a bad token is named on the line where a
    # writer that checks every line would name it.
    constraints: dict[frozenset, str] = {}
    conditions: dict[tuple, str] = {}
    rests: dict[tuple, str] = {}
    for (giver, receiver, type_tag, accepts, condition), chi in promisegraph._graph_order(graph._table).items():
        part = (type_tag, accepts, condition, chi)
        rest = rests.get(part)
        if rest is None:
            _check_token(type_tag, "promise type", passed)
            rest = f"{type_tag} {'-' if accepts else '+'} {_joined(chi, 'constraint entry', passed, constraints)}"
            if condition:
                rest += " | " + _joined(condition, "condition entry", passed, conditions)
            rest = rests[part] = rest + "\n"
        lines.append(f"promise {giver} {receiver} {rest}")
    return "".join(lines)
