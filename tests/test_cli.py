import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commscale import ensemble, tabular, uslkit
from commscale.cli import main
from commscale.errors import CsvFormatError, DomainError
from commscale.graphio import emit_graph, parse_graph
from commscale.meanfield import ScalingClass, ScalingParams
from commscale.uslkit import UslParams

MESH3 = """\
agent a 1.0
agent b 1.0
agent c 1.0
promise a b svc + *
promise b a svc - *
promise b a svc + *
promise a b svc - *
promise a c svc + *
promise c a svc - *
promise c a svc + *
promise a c svc - *
promise b c svc + *
promise c b svc - *
promise c b svc + *
promise b c svc - *
"""

LAB = """\
agent company 1.0
agent researcher 1.0
agent university 1.0
promise university researcher lab_access + *
promise researcher university lab_access - *
promise researcher company patent + * | lab_access
promise company researcher patent - *
"""

COMMUNITY = """\
agent hub 1.0
agent m1 1.0
agent m2 1.0
promise m1 hub member + *
promise hub m1 member - *
promise m2 hub member + *
"""


@pytest.fixture
def run(monkeypatch, capsys):
    def runner(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return runner


class TestExponents:
    def test_reference_table(self, run):
        code, out, err = run(["exponents", "--D", "2", "--H", "1"])
        assert code == 0 and err == ""
        assert json.loads(out) == {
            "infrastructure_volume": 0.833333333333,
            "linear_consumption": 1.0,
            "interaction": 1.16666666667,
            "scarce_agent": 0.166666666667,
            "scarce_dependency": 1.33333333333,
            "recursive_dependency": 1.08333333333,
            "virtual_interaction": 0.5,
        }
        # The literal 12-significant-digit rendering is part of the contract.
        assert '"interaction": 1.16666666667' in out

    def test_undefined_exponent_is_null(self, run):
        code, out, _ = run(["exponents", "--D", "2", "--H", "0.5"])
        assert code == 0
        assert json.loads(out)["recursive_dependency"] is None

    def test_bad_dimension_is_a_domain_error(self, run):
        code, out, err = run(["exponents", "--D", "0", "--H", "0"])
        assert code == 1 and out == "" and err.startswith("error:")


class TestYield:
    def test_bare_scalar(self, run):
        code, out, err = run(["yield", "--D", "2", "--H", "1", "--n", "100"])
        assert code == 0 and err == ""
        assert out == "215.443469003\n"

    def test_inactive_split(self, run):
        code, out, _ = run(["yield", "--D", "2", "--H", "1", "--n", "200", "--inactive", "0.5"])
        assert code == 0
        assert out == "383.876620733\n"

    def test_overflow_is_an_error_line(self, run):
        code, out, err = run(["yield", "--D", "2", "--H", "1", "--n", "1e300"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestUsl:
    def test_speedup(self, run):
        code, out, _ = run(["usl-eval", "--contention", "0.1", "--coherency", "0.001", "--n", "32"])
        assert code == 0
        assert float(out) == pytest.approx(uslkit.usl_speedup(32, UslParams(0.1, 0.001)), rel=1e-11)

    def test_peak(self, run):
        code, out, _ = run(["usl-eval", "--contention", "0.5", "--coherency", "0.001", "--peak"])
        assert code == 0
        assert out == "22.360679775\n"

    def test_missing_n_without_peak(self, run):
        code, out, err = run(["usl-eval", "--contention", "0.1"])
        assert code == 1 and out == "" and "--n is required" in err

    def test_unbounded_peak_reported(self, run):
        code, _, err = run(["usl-eval", "--contention", "0.5", "--peak"])
        assert code == 1 and err.startswith("error:")

    def test_fit_round_trip(self, run):
        truth = UslParams(0.05, 0.001)
        rows = "\n".join(f"{n},{uslkit.usl_speedup(n, truth):.12g}" for n in range(1, 33))
        code, out, _ = run(["usl-fit"], stdin_text="N,value\n" + rows + "\n")
        assert code == 0
        fit = json.loads(out)
        assert fit["contention"] == pytest.approx(0.05, abs=1e-5)
        assert fit["coherency"] == pytest.approx(0.001, abs=1e-6)
        assert fit["residual"] <= 1e-6

    def test_fit_rejects_non_finite_rows(self, run):
        code, out, err = run(["usl-fit"], stdin_text="N,value\n1,1\n2,nan\n4,3\n8,5\n")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_fit_rejects_wrong_header(self, run):
        code, out, err = run(["usl-fit"], stdin_text="N,Y\n1,1\n2,1.8\n3,2.4\n")
        assert code == 1 and out == "" and "header" in err


class TestSerialAndQueue:
    def test_serial_time(self, run):
        code, out, _ = run(["serial", "--sigma", "1", "--pi", "10", "--kappa", "0.5", "--n", "4"])
        assert code == 0 and out == "5.5\n"

    def test_serial_exponent(self, run):
        code, out, _ = run(["serial", "--sigma", "1", "--pi", "1", "--n", "1", "--exponent"])
        assert code == 0 and out == "0.5\n"

    def test_serial_exponent_rejects_kappa(self, run):
        code, _, err = run(["serial", "--sigma", "1", "--pi", "1", "--kappa", "1", "--n", "1", "--exponent"])
        assert code == 1 and err.startswith("error:")

    def test_queue_response(self, run):
        code, out, err = run(["queue", "--lambda", "0.5", "--mu", "1.0"])
        assert code == 0 and err == ""
        assert out == "2\n"

    def test_queue_instability(self, run):
        code, out, err = run(["queue", "--lambda", "2.0", "--mu", "1.0"])
        assert code == 1 and out == ""
        assert "unstable queue" in err


class TestEnsemblePipeline:
    ARGS = ["ensemble", "--class", "interaction", "--D", "2", "--H", "1", "--seed", "42"]

    def test_deterministic_csv(self, run):
        code1, out1, _ = run(self.ARGS)
        code2, out2, _ = run(self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("N,Y\n")
        assert out1.count("\n") == 501

    def test_pipe_into_fit(self, run):
        _, csv_text, _ = run(self.ARGS)
        code, out, _ = run(["fit"], stdin_text=csv_text)
        assert code == 0
        fit = json.loads(out)
        assert fit["beta"] == pytest.approx(1.1652640346237646, abs=1e-9)
        assert fit["n"] == 500
        assert fit["r_squared"] > 0.99

    def test_stdin_and_file_agree_bytewise(self, run, tmp_path):
        _, csv_text, _ = run(self.ARGS)
        path = tmp_path / "series.csv"
        path.write_text(csv_text, encoding="utf-8")
        _, via_stdin, _ = run(["fit"], stdin_text=csv_text)
        _, via_file, _ = run(["fit", "--input", str(path)])
        assert via_stdin == via_file

    def test_missing_input_file(self, run):
        code, out, err = run(["fit", "--input", "/nonexistent/series.csv"])
        assert code == 1 and out == "" and err.startswith("error:")

    def test_compare_consumes_fit_json(self, run):
        _, csv_text, _ = run(self.ARGS)
        _, fit_json, _ = run(["fit"], stdin_text=csv_text)
        code, out, _ = run(
            ["compare", "--class", "interaction", "--D", "2", "--H", "1"], stdin_text=fit_json
        )
        assert code == 0
        report = json.loads(out)
        assert report["theory_beta"] == 1.16666666667
        assert report["gap"] == pytest.approx(abs(report["fitted_beta"] - 7 / 6), abs=1e-9)
        assert report["within_k_stderr"] is True

    def test_compare_rejects_non_fit_input(self, run):
        code, _, err = run(
            ["compare", "--class", "interaction", "--D", "2", "--H", "1"], stdin_text="not json"
        )
        assert code == 1 and "'beta'" in err


class TestGraphCommands:
    def test_value_on_complete_mesh(self, run):
        code, out, _ = run(["graph", "value"], stdin_text=MESH3)
        assert code == 0
        assert json.loads(out) == {
            "total_value": 6.0,
            "rho": 1.0,
            "largest_component": 3,
            "agents": 3,
            "bindings": 6,
        }

    def test_value_applies_calibration(self, run):
        _, out, _ = run(["graph", "value", "--calibration", "2.5"], stdin_text=MESH3)
        assert json.loads(out)["total_value"] == 15.0

    def test_value_counts_discharged_bindings(self, run):
        _, out, _ = run(["graph", "value"], stdin_text=LAB)
        report = json.loads(out)
        assert report["total_value"] == 2.0
        assert report["bindings"] == 2
        assert report["largest_component"] == 3

    def test_bindings_listing(self, run):
        code, out, _ = run(["graph", "bindings"], stdin_text=LAB)
        assert code == 0
        assert json.loads(out) == [
            {
                "giver": "university",
                "receiver": "researcher",
                "type": "lab_access",
                "constraint": ["*"],
                "value": 1.0,
            }
        ]

    def test_reduce_emits_canonical_text(self, run):
        code, out, _ = run(["graph", "reduce"], stdin_text=LAB)
        assert code == 0
        assert "promise researcher company patent + *\n" in out
        assert "|" not in out

    def test_aggregate(self, run):
        code, out, _ = run(
            ["graph", "aggregate", "--members", "a,b", "--super-id", "S"], stdin_text=MESH3
        )
        assert code == 0
        assert "agent S 1.0\n" in out
        assert "promise S c svc + *\n" in out
        assert "promise a b" not in out

    def test_classify_with_exponent(self, run):
        code, out, _ = run(
            ["graph", "classify", "--giver", "a", "--receiver", "b", "--type", "svc", "--D", "2", "--H", "1"],
            stdin_text=MESH3,
        )
        assert code == 0
        assert json.loads(out) == {"class": "interaction", "exponent": 1.16666666667}

    def test_classify_without_dimensions(self, run):
        _, out, _ = run(
            ["graph", "classify", "--giver", "a", "--receiver", "b", "--type", "svc"], stdin_text=MESH3
        )
        assert json.loads(out) == {"class": "interaction"}

    def test_classify_missing_offer(self, run):
        code, _, err = run(
            ["graph", "classify", "--giver", "a", "--receiver", "b", "--type", "nope"], stdin_text=MESH3
        )
        assert code == 1 and "no offer" in err

    def test_community(self, run):
        code, out, _ = run(["graph", "community", "--authority", "hub"], stdin_text=COMMUNITY)
        assert code == 0
        assert json.loads(out) == ["m1"]

    def test_parse_errors_carry_line_numbers(self, run):
        code, out, err = run(["graph", "value"], stdin_text="agent a 1.0\nbogus\n")
        assert code == 1 and out == ""
        assert "line 2" in err

    def test_graph_file_input(self, run, tmp_path):
        path = tmp_path / "mesh.graph"
        path.write_text(MESH3, encoding="utf-8")
        _, via_stdin, _ = run(["graph", "value"], stdin_text=MESH3)
        _, via_file, _ = run(["graph", "value", "--input", str(path)])
        assert via_stdin == via_file


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, stdin_text",
        [
            (["queue", "--lambda", "nan", "--mu", "1"], None),
            (["usl-eval", "--contention", "nan", "--n", "4"], None),
            (["serial", "--sigma", "nan", "--n", "4"], None),
            (["yield", "--D", "2", "--H", "1", "--n", "inf"], None),
            (["ensemble", "--class", "interaction", "--D", "2", "--H", "1", "--noise", "nan"], None),
            (["fit"], "N,Y\n10,1\n20,nan\n40,3\n"),
            (["graph", "value", "--calibration", "nan"], MESH3),
            (["compare", "--class", "interaction", "--D", "2", "--H", "1"], '{"beta": NaN}'),
            (["compare", "--class", "interaction", "--D", "2", "--H", "1"], '{"beta": 1.1, "stderr_beta": Infinity}'),
        ],
        ids=["queue", "usl-eval", "serial", "yield", "ensemble", "fit", "graph-value", "compare-nan", "compare-inf"],
    )
    def test_rejected_without_output(self, monkeypatch, capsys, argv, stdin_text):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (1, 2)
        assert out == ""
        assert "Traceback" not in err and "finite" in err

    def test_csv_error_names_row_and_column(self, run):
        code, out, err = run(["fit"], stdin_text="N,Y\n10,1\n20,inf\n")
        assert code == 1 and out == ""
        assert "row 3, column 2" in err


class TestNonFiniteResult:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serial", "--sigma", "1e308", "--kappa", "1e308", "--n", "1e308"],
            ["queue", "--lambda", "0", "--mu", "1e-320"],
            ["usl-eval", "--contention", "-1", "--coherency", "1e-320", "--peak"],
            ["ensemble", "--class", "interaction", "--D", "1", "--H", "1", "--n", "20",
             "--nmin", "1e140", "--nmax", "1e150", "--noise", "100", "--seed", "3"],
        ],
        ids=["serial", "queue", "usl-eval-peak", "ensemble-overflow"],
    )
    def test_overflowing_result_exits_1_without_output(self, run, argv):
        code, out, err = run(argv)
        assert code == 1 and out == ""
        assert "Traceback" not in err and "finite" in err


EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-320", "1e150", "1e308"]
# Ordinary values per flag of ensemble, fit and compare; edge values replace them on a few flags per run.
ORDINARY = {
    "--D": ["1", "2", "3"],
    "--H": ["0.5", "1", "2"],
    "--n": [str(k) for k in range(2, 65)],
    "--nmin": ["1", "10", "1e3"],
    "--nmax": ["1e4", "1e7"],
    "--noise": ["0", "0.1", "2"],
    "--inactive": ["0", "0.25", "0.9"],
    "--seed": ["0", "7", "123456789"],
    "--k": ["0.5", "2"],
}
EDGE = {flag: EDGE_VALUES for flag in ORDINARY}
EDGE["--n"] = [str(k) for k in range(-1, 2)] + EDGE_VALUES
EDGE["--seed"] = ["-1", str(2**64 - 1), str(2**64)]


@st.composite
def pipeline_flags(draw):
    """{flag: value}: every flag left at its default or set to an ordinary value, up to three set to edge values."""
    edged = draw(st.sets(st.sampled_from(sorted(ORDINARY)), max_size=3))
    flags = {}
    for flag, ordinary in ORDINARY.items():
        if flag in edged:
            flags[flag] = draw(st.sampled_from(EDGE[flag]))
        elif flag in ("--D", "--H") or draw(st.booleans()):
            flags[flag] = draw(st.sampled_from(ordinary))
    return flags


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _run_isolated(argv, stdin_text=""):
    """main(argv) with its own stdin, stdout and stderr; a usage error's SystemExit becomes its code."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class TestEnsemblePipelineFuzz:
    @settings(max_examples=300, deadline=None)
    @given(cls=st.sampled_from([c.value for c in ScalingClass]), flags=pipeline_flags())
    def test_ensemble_fit_compare(self, cls, flags):
        def opts(*names):
            return [x for f in names if f in flags for x in (f, flags[f])]

        stages = [
            (["ensemble", "--class", cls, *opts("--D", "--H", "--n", "--nmin", "--nmax", "--noise", "--inactive",
                                                "--seed")],
             lambda out: tabular.parse_pairs(out, "N,Y")),
            (["fit"], _strict_json),
            (["compare", "--class", cls, *opts("--D", "--H", "--k")], _strict_json),
        ]
        stdin_text = ""
        for command, strict in stages:
            code, out, err = _run_isolated(command, stdin_text)
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if code != 0:
                assert out == ""
                return
            strict(out)
            stdin_text = out


def seed_parse_pairs(text, expected_header):
    """The row-by-row reader tabular.parse_pairs must agree with, kept as the reference."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CsvFormatError(f"empty input: expected header {expected_header!r}")
    if lines[0] != expected_header:
        raise CsvFormatError(f"row 1: header must be exactly {expected_header!r}, got {lines[0]!r}")
    out = []
    for row, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != 2:
            raise CsvFormatError(f"row {row}: expected 2 columns, got {len(cells)}")
        values = []
        for col, cell in enumerate(cells, 1):
            try:
                values.append(tabular.finite_float(cell))
            except ValueError:
                raise CsvFormatError(f"row {row}, column {col}: {cell!r} is not a finite number") from None
        out.append((row, values[0], values[1]))
    return out


def seed_parse_csv(text):
    out = []
    for row, n, y in seed_parse_pairs(text, "N,Y"):
        if n <= 0 or y <= 0:
            raise CsvFormatError(f"row {row}: samples must be positive, got N={n:g}, Y={y:g}")
        out.append(ensemble.EnsembleSample(n, y))
    return out


def seed_fit_power_law(samples):
    pts = list(samples)
    if any(s.N <= 0 or s.Y <= 0 for s in pts):
        raise DomainError("samples must be positive for log-log fitting")
    x = np.array([math.log(s.N) for s in pts])
    y = np.array([math.log(s.Y) for s in pts])
    if len(set(x.tolist())) < 2:
        raise DomainError("need at least 2 distinct N values to fit a slope")
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    sxy = float(((x - xbar) * (y - ybar)).sum())
    beta = sxy / sxx
    intercept = ybar - beta * xbar
    resid = y - (intercept + beta * x)
    ssr = float((resid**2).sum())
    sst = float(((y - ybar) ** 2).sum())
    n = len(pts)
    r_squared = 1.0 if sst == 0 else max(0.0, min(1.0, 1.0 - ssr / sst))
    stderr = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0
    return ensemble.PowerLawFit(beta, intercept, r_squared, stderr, n)


def seed_fit_command(text):
    """(exit code, stdout, stderr) of `fit` built from the row-by-row reader and fit."""
    try:
        fit = seed_fit_power_law(seed_parse_csv(text))
        fields = {"beta": fit.beta, "log_intercept": fit.log_intercept, "r_squared": fit.r_squared,
                  "stderr_beta": fit.stderr_beta}
        out = {}
        for name, value in fields.items():
            if not math.isfinite(value):
                raise DomainError(f"result {value} is not a finite number")
            out[name] = float(format(value, ".12g"))
        out["n"] = fit.n
    except DomainError as exc:
        return 1, "", f"error: {exc}\n"
    return 0, json.dumps(out, indent=2, allow_nan=False) + "\n", ""


CSV_BASE = "N,Y\n1000,20\n2500.5,61.25\n1e4,333\n31622.7766017,1500\n1e5,7000.5\n"
CSV_CELLS = ["nan", "NaN", "inf", "-inf", "1e999", "x", "", " 7", "8 ", "0", "-3", "-0.0", "1e-320", "1_000", "0x10",
             "4\r", "5,6", "1000", "2500.5"]
CSV_ROWS = ["", "\r", "7", "7,8,9", "0,5", "5,-1", "-1,x", "N,Y", "12,13", "12,13\r", ",", "1000,20"]
CSV_HEADERS = ["n,y", "N,Y,Z", "N;Y", "N,Y\r", "", " N,Y", "N,value"]


@st.composite
def mutated_csv_text(draw):
    """CSV_BASE after up to four cell, row, header and line-ending edits."""
    rows = [line.split(",") for line in CSV_BASE.splitlines()]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["cell", "cell", "insert", "insert", "delete", "nonpositive", "header"]))
        i = draw(st.integers(1, max(len(rows) - 1, 1)))
        if op == "cell" and i < len(rows) and len(rows[i]) > 0:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(CSV_CELLS))
        elif op == "insert":
            rows.insert(i, draw(st.sampled_from(CSV_ROWS)).split(","))
        elif op == "delete" and i < len(rows):
            del rows[i]
        elif op == "header" and rows:
            rows[0] = draw(st.sampled_from(CSV_HEADERS)).split(",")
        elif op == "nonpositive" and i < len(rows) and len(rows[i]) == 2:
            rows[i][draw(st.integers(0, 1))] = draw(st.sampled_from(["0", "-2.5", "-1e-300"]))
    newline = "\r\n" if draw(st.integers(0, 7)) == 0 else "\n"
    text = newline.join(",".join(cells) for cells in rows)
    return text + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestFitCsvMatchesRowReader:
    @settings(max_examples=400, deadline=None)
    @given(mutated_csv_text())
    @example(CSV_BASE)
    @example("")
    @example("N,Y\n")
    @example("N,Y\n0,5\n3,x\n")  # a bad cell after a non-positive row: the cell error wins
    @example("N,Y\r\n1,2\r\n3,4\r\n")
    @example("N,Y\n1,2\n\n3,4\n")
    @example("N,Y\n1,2\n3,4,5\n6\n")  # comma counts that balance across rows
    @example("N,Y\n10,5\n10,7\n")
    @example("N,Y\n1e308,1e308\n1e-308,1e-308\n")
    def test_same_result_or_error(self, text):
        assert _run_isolated(["fit"], text) == seed_fit_command(text)
        try:
            expected = seed_parse_pairs(text, "N,Y")
        except CsvFormatError as exc:
            with pytest.raises(CsvFormatError) as err:
                tabular.parse_pairs(text, "N,Y")
            assert str(err.value) == str(exc)
        else:
            assert tabular.parse_pairs(text, "N,Y") == ([n for _, n, _ in expected], [y for _, _, y in expected])


GRAPH_COMMANDS = {
    "value": [],
    "bindings": [],
    "reduce": [],
    "aggregate": ["--members", "a,b", "--super-id", "S"],
    "classify": ["--giver", "a", "--receiver", "b", "--type", "svc", "--D", "2", "--H", "1"],
    "community": ["--authority", "hub"],
}
# One valid graph with a mesh, a conditional promise and a community.
FUZZ_BASE = (MESH3 + LAB + COMMUNITY).splitlines()
FUZZ_LINES = [
    "", "# comment", "agent d 0.5", "agent a 1.0", "agent S 1.0", "promise a d svc + *", "promise d a svc - *",
    "promise b a svc + x,y | member", "promise m2 hub member - *", "promise", "agent", "promise a b svc + * |",
]
# Half the tokens come from the graph's own vocabulary, which often keeps the text valid.
FUZZ_TOKENS = st.one_of(
    st.sampled_from(["a", "b", "c", "hub", "m1", "m2", "researcher", "svc", "member", "lab_access", "*", "x,y", "-"]),
    st.sampled_from(["d", "S", "agent", "promise", "+", "|", "#", ",", "x,,y", "", "\t", "nan", "inf", "-1", "2",
                     "0", "1e-320", "\u00e9", "a#b"]),
)


@st.composite
def mutated_graph_text(draw):
    """FUZZ_BASE after up to four random line edits and token edits."""
    lines = list(FUZZ_BASE)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "insert", "retoken", "untoken", "addtoken"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, draw(st.sampled_from(FUZZ_LINES)))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            if op == "retoken":
                tokens[k] = draw(FUZZ_TOKENS)
            elif op == "untoken":
                del tokens[k]
            else:
                tokens.insert(k, draw(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


class TestGraphTextFuzz:
    """Regression gate: mutated graph text through every graph subcommand."""

    def test_base_graph_runs_every_command(self):
        for command, flags in GRAPH_COMMANDS.items():
            code, out, err = _run_isolated(["graph", command, *flags], "\n".join(FUZZ_BASE) + "\n")
            assert code == 0 and out and err == "", command

    @settings(max_examples=200, deadline=None)
    @given(text=mutated_graph_text())
    def test_mutated_text(self, text):
        for command, flags in GRAPH_COMMANDS.items():
            code, out, err = _run_isolated(["graph", command, *flags], text)
            assert code in (0, 1, 2), command
            assert "Traceback" not in err, command
            if code != 0:
                assert out == "", command
            elif command in ("reduce", "aggregate"):
                assert emit_graph(parse_graph(out)) == out, command


SRC = Path(uslkit.__file__).resolve().parents[1]
# Runs cli.main(argv) in a fresh interpreter, then reports the exit code and
# whether numpy was imported as the last line of stderr.
START_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from commscale.cli import main\n"
    "try:\n    code = main(sys.argv[2:])\nexcept SystemExit as exc:\n    code = exc.code\n"
    "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
)


def _fresh_main(argv, stdin_text=""):
    """(exit code, numpy imported) of main(argv) in a fresh `python -I` interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", START_PROBE, str(SRC), *argv],
        input=stdin_text, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded = proc.stderr.splitlines()[-1].split()
    return int(code), numpy_loaded == "True"


FIT_JSON = '{"beta": 1.17, "log_intercept": 0.1, "r_squared": 0.99, "stderr_beta": 0.01, "n": 50}'
SPEEDUPS = "N,value\n1,1\n2,1.9\n4,3.4\n8,5.5\n16,7.1\n"


class TestNumpyFreeStart:
    """Only drawing an ensemble, fitting and building an adjacency matrix import numpy."""

    @pytest.mark.parametrize(
        "argv, stdin_text, want_code",
        [
            pytest.param(["exponents", "--D", "2", "--H", "1"], "", 0, id="exponents"),
            pytest.param(["yield", "--D", "2", "--H", "1", "--n", "1000"], "", 0, id="yield"),
            pytest.param(["compare", "--class", "interaction", "--D", "2", "--H", "1"], FIT_JSON, 0, id="compare"),
            pytest.param(["usl-eval", "--contention", "0.1", "--coherency", "0.01", "--n", "8"], "", 0, id="usl-eval"),
            pytest.param(["usl-eval", "--contention", "0.1", "--coherency", "0.01", "--peak"], "", 0,
                         id="usl-eval-peak"),
            pytest.param(["serial", "--sigma", "1", "--pi", "4", "--n", "8"], "", 0, id="serial"),
            pytest.param(["serial", "--sigma", "1", "--pi", "4", "--n", "8", "--exponent"], "", 0,
                         id="serial-exponent"),
            pytest.param(["queue", "--lambda", "1", "--mu", "2"], "", 0, id="queue"),
            *[pytest.param(["graph", command, *flags], MESH3 + COMMUNITY, 0, id=f"graph-{command}")
              for command, flags in GRAPH_COMMANDS.items()],
            pytest.param(["--help"], "", 0, id="help"),
            pytest.param(["yield", "--D", "2", "--H", "1"], "", 2, id="usage-error"),
        ],
    )
    def test_command_does_not_import_numpy(self, argv, stdin_text, want_code):
        assert _fresh_main(argv, stdin_text) == (want_code, False)

    @pytest.mark.parametrize(
        "argv, stdin_text",
        [
            (["ensemble", "--class", "interaction", "--D", "2", "--H", "1", "--n", "20"], ""),
            (["fit"], "N,Y\n10,1\n20,2.2\n40,4.9\n"),
            (["usl-fit"], SPEEDUPS),
        ],
        ids=["ensemble", "fit", "usl-fit"],
    )
    def test_drawing_and_fitting_import_numpy(self, argv, stdin_text):
        # Keeps the gate above from passing because the probe cannot see numpy.
        assert _fresh_main(argv, stdin_text) == (0, True)

    def test_package_import_and_adjacency(self):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import commscale\n"
            "assert 'numpy' not in sys.modules\n"
            "a = commscale.adjacency(commscale.parse_graph(sys.stdin.read()), 'svc')\n"
            "print(type(a).__module__, type(a).__name__, a.dtype, a.tolist())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)], input=MESH3, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "numpy ndarray int64 [[0, 1, 1], [1, 0, 1], [1, 1, 0]]\n"


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["widgets"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["yield", "--D", "2", "--H", "1"])
        assert exc.value.code == 2

    def test_bad_class_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--class", "nope", "--D", "2", "--H", "1"])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "commscale", "exponents", "--D", "2", "--H", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["interaction"] == 1.16666666667
