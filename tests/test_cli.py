import argparse
import ast
import builtins
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import BENCH, STORED

from commscale import cli, ensemble, errors, meanfield, promisegraph, tabular, uslkit
from commscale.cli import main
from commscale.errors import CsvFormatError, DomainError
from commscale.graphio import emit_graph, parse_graph
from commscale.meanfield import ScalingClass, ScalingParams
from commscale.promisegraph import Agent, Polarity, Promise, PromiseGraph
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

    def test_missing_n_without_peak(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["usl-eval", "--contention", "0.1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: commscale usl-eval ")
        assert err.endswith("error: --n is required unless --peak is given\n")

    def test_n_with_peak(self, capsys):
        # --peak prints the speedup-maximizing N instead of the speedup at --n, so the two exclude each other.
        with pytest.raises(SystemExit) as exc:
            main(["usl-eval", "--contention", "0.1", "--n", "8", "--peak"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: commscale usl-eval ")
        assert err.endswith("error: --n and --peak exclude each other\n")

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

    def test_arithmetic_error_exits_1_with_its_message(self, run, monkeypatch):
        def overflow(params):
            raise OverflowError("math range error")

        monkeypatch.setattr(uslkit, "response_time", overflow)
        assert run(["queue", "--lambda", "1", "--mu", "2"]) == (1, "", "error: math range error\n")


class TestEnsemblePipeline:
    ARGS = ["ensemble", "--class", "interaction", "--D", "2", "--H", "1", "--seed", "42"]

    def test_deterministic_csv(self, run):
        code1, out1, _ = run(self.ARGS)
        code2, out2, _ = run(self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("N,Y\n")
        assert out1.count("\n") == 501

    @pytest.mark.parametrize("n", [10**7 + 1, 2**64])
    def test_a_sample_count_over_the_cap_exits_1(self, run, n):
        # 2**64 samples once reached numpy as a ValueError traceback.
        assert run([*self.ARGS, "--n", str(n)]) == (1, "", f"error: n_samples must be at most 10**7, got {n}\n")

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

    def test_compare_on_deeply_nested_json(self, run, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        code, out, err = run(["compare", "--class", "interaction", "--D", "2", "--H", "1", "--input", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("n", ["true", "2.7", '"3"', "-5", "null", "1e400", "[3]"])
    def test_compare_rejects_a_non_integer_count(self, run, n):
        fit_json = '{"beta": 1.17, "stderr_beta": 0.01, "n": %s}' % n
        code, out, err = run(["compare", "--class", "interaction", "--D", "2", "--H", "1"], stdin_text=fit_json)
        assert code == 1 and out == ""
        assert err == "error: input must be fit JSON with at least a 'beta' field, all numeric fields finite\n"

    @pytest.mark.parametrize("field", ["beta", "log_intercept", "r_squared", "stderr_beta"])
    @pytest.mark.parametrize("kind", ["string", "true", "false", "null"])
    def test_compare_rejects_a_non_number_float_field(self, run, field, kind):
        fields = {"beta": "1.17", "log_intercept": "0.5", "r_squared": "0.9", "stderr_beta": "0.01"}
        fields[field] = {"string": '"%s"' % fields[field]}.get(kind, kind)
        fit_json = "{%s}" % ", ".join('"%s": %s' % item for item in fields.items())
        code, out, err = run(["compare", "--class", "interaction", "--D", "2", "--H", "1"], stdin_text=fit_json)
        assert code == 1 and out == ""
        assert err == "error: input must be fit JSON with at least a 'beta' field, all numeric fields finite\n"

    def test_compare_takes_json_integers_in_float_fields(self, run):
        fit_json = '{"beta": 1, "log_intercept": -2, "r_squared": 1, "stderr_beta": 0}'
        code, out, _ = run(["compare", "--class", "linear_consumption", "--D", "2", "--H", "1"], stdin_text=fit_json)
        assert code == 0 and json.loads(out)["gap"] == 0.0

    def test_compare_keeps_an_integer_count(self, run):
        for n in ("0", "50", "12345678901234567890"):
            fit_json = '{"beta": 1.17, "stderr_beta": 0.01, "n": %s}' % n
            assert run(["compare", "--class", "interaction", "--D", "2", "--H", "1"], stdin_text=fit_json)[0] == 0

    def test_compare_rejects_a_negative_k(self, run):
        code, out, err = run(["compare", "--class", "interaction", "--D", "2", "--H", "1", "--k", "-1"],
                             stdin_text=FIT_JSON)
        assert code == 1 and out == "" and err == "error: k must be a real number in [0, inf), got -1.0\n"


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

    @pytest.mark.parametrize("text", [MESH3, LAB], ids=["mesh", "conditional"])
    def test_value_discharges_once_and_binds_once(self, run, monkeypatch, text):
        calls = {"_discharge": 0, "_bindings": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(promisegraph, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(promisegraph, name, counted)
        assert run(["graph", "value"], stdin_text=text)[0] == 0
        assert calls == {"_discharge": 1, "_bindings": 1}

    def test_bindings_name_the_first_refused_value_in_row_order(self, run, monkeypatch):
        # c's bindings (0.25) are read first, but a's (0.5) are listed first, so 0.5 is named.
        jnum = cli._jnum

        def refusing(x):
            if x in (0.25, 0.5):
                raise DomainError(f"refused {x!r}")
            return jnum(x)

        monkeypatch.setattr(cli, "_jnum", refusing)
        text = ("agent c 0.25\npromise c b svc + *\npromise b c svc - *\nagent a 0.5\nagent b 1.0\n"
                "promise a b svc + *\npromise b a svc - *\n")
        assert run(["graph", "bindings"], stdin_text=text) == (1, "", "error: refused 0.5\n")

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


# Tokens that JSON must escape or, with ensure_ascii, write as \\u escapes (one surrogate pair).
JSON_TOKENS = ["a", "b", "*", 'q"t', "back\\slash", "\u00e9", "\U0001f600", '"\\\u00e9\U0001f600']


@st.composite
def escaped_token_graphs(draw):
    """Graph text whose ids, types and constraint entries need JSON escapes, with binding pairs."""
    ids = draw(st.lists(st.sampled_from(JSON_TOKENS), min_size=1, max_size=5, unique=True))
    lines = [f"agent {a} {draw(st.floats(0, 1))!r}" for a in ids]
    chi = st.lists(st.sampled_from(JSON_TOKENS), min_size=1, max_size=3).map(",".join)
    for _ in range(draw(st.integers(0, 8))):
        giver, receiver = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        tag = draw(st.sampled_from(JSON_TOKENS))
        lines.append(f"promise {giver} {receiver} {tag} + {draw(chi)}")
        lines.append(f"promise {receiver} {giver} {tag} - {draw(chi)}")
    return "\n".join(lines) + "\n"


def expected_bindings_json(text, calibration):
    graph = parse_graph(text, calibration)
    rows = [
        {
            "giver": b.offer.giver,
            "receiver": b.offer.receiver,
            "type": b.offer.type_tag,
            "constraint": sorted(b.effective_constraint),
            "value": float(format(promisegraph.valuation(graph, b), ".12g")),
        }
        for b in promisegraph.find_bindings(graph)
    ]
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


class TestBindingsWriter:
    """graph bindings prints exactly what json.dumps(rows, indent=2) would."""

    @settings(max_examples=150, deadline=None)
    @given(text=escaped_token_graphs(), calibration=st.sampled_from([1.0, 2.5, 1e-7, 3e20, 0.1]))
    def test_matches_json_dumps(self, text, calibration):
        code, out, err = _run_isolated(["graph", "bindings", "--calibration", repr(calibration)], text)
        assert (code, err) == (0, "")
        assert out == expected_bindings_json(text, calibration)

    def test_multi_entry_constraint(self, run):
        text = "agent a 0.3\nagent b 1.0\npromise a b svc + x,y,z\npromise b a svc - z,x,w\n"
        _, out, _ = run(["graph", "bindings"], stdin_text=text)
        assert '"constraint": [\n      "x",\n      "z"\n    ],' in out
        assert out == expected_bindings_json(text, 1.0)

    def test_no_bindings(self, run):
        _, out, _ = run(["graph", "bindings"], stdin_text="agent a 1.0\npromise a a svc + *\n")
        assert out == "[]\n" == expected_bindings_json("agent a 1.0\n", 1.0)


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
        "argv, stdin_text",
        [
            (["serial", "--sigma", "1e308", "--kappa", "1e308", "--n", "1e308"], None),
            (["queue", "--lambda", "0", "--mu", "1e-320"], None),
            (["usl-eval", "--contention", "0", "--coherency", "1e-300", "--n", "1e308"], None),
            (["serial", "--sigma", "1e-320", "--pi", "1e308", "--n", "1", "--exponent"], None),
            (["ensemble", "--class", "interaction", "--D", "1", "--H", "1", "--n", "20",
              "--nmin", "1e140", "--nmax", "1e150", "--noise", "100", "--seed", "3"], None),
            (["ensemble", "--class", "interaction", "--D", "2", "--H", "1", "--nmin", "1e200", "--nmax", "1e300"],
             None),
            (["yield", "--D", "2", "--H", "1", "--n", "1e200"], None),
            # Six bindings of 1e308 each: every valuation is finite, their sum is not.
            (["graph", "value", "--calibration", "1e308"], MESH3),
        ],
        ids=["serial", "queue", "usl-eval-speedup", "serial-exponent", "ensemble-overflow",
             "ensemble-law-overflow", "yield-overflow", "graph-value"],
    )
    def test_overflowing_result_exits_1_without_output(self, run, argv, stdin_text):
        code, out, err = run(argv, stdin_text)
        assert code == 1 and out == ""
        assert "Traceback" not in err and "finite" in err

    def test_scalar_result_is_checked_where_it_is_written(self, run, monkeypatch):
        # The last guard: a library result that is not finite never reaches stdout.
        monkeypatch.setattr(uslkit, "response_time", lambda params: math.inf)
        assert run(["queue", "--lambda", "1", "--mu", "2"]) == (1, "", "error: result inf is not a finite number\n")

    def test_json_result_is_checked_where_it_is_written(self, run, monkeypatch):
        monkeypatch.setattr(meanfield, "predicted_exponent", lambda cls, params: math.nan)
        assert run(["exponents", "--D", "2", "--H", "1"]) == (1, "", "error: result nan is not a finite number\n")

    def test_peak_of_a_tiny_coherency_is_finite(self, run):
        # sqrt(2) / sqrt(1e-320) is about 1.4e160; the quotient 2 / 1e-320 alone would overflow.
        argv = ["usl-eval", "--contention", "-1", "--coherency", "1e-320", "--peak"]
        assert run(argv) == (0, "1.41422143453e+160\n", "")


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


@contextlib.contextmanager
def _isolated(stdin_text):
    """Runs its block with stdin reading stdin_text, and yields the buffers that take stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            yield out, err
    finally:
        sys.stdin = saved


def _run_isolated(argv, stdin_text=""):
    """main(argv) with its own stdin, stdout and stderr; a usage error's SystemExit becomes its code."""
    with _isolated(stdin_text) as (out, err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
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
        out.append(SimpleNamespace(N=n, Y=y))
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


def _chunked_rows(rows=10_000):
    """N,Y text over more than two chunks of cli._CHUNK characters, and where its second chunk starts."""
    text = "N,Y\n" + "".join(f"{1000 + i}.123456789,{3000 + 2 * i}.987654321\n" for i in range(rows))
    assert len(text) > 2 * cli._CHUNK
    return text, text.find("\n", cli._CHUNK) + 1


class TestFitChunks:
    """fit parses its text in newline-ended chunks of cli._CHUNK characters, with the result of one read."""

    @staticmethod
    def check(text):
        expected = seed_fit_command(text)
        assert _run_isolated(["fit"], text) == expected
        return expected

    def test_a_bad_cell_in_the_first_row_of_the_second_chunk(self):
        text, second = _chunked_rows()
        text = text[:second] + "x" + text[text.index(",", second):]
        row = text[:second].count("\n") + 1
        assert self.check(text)[2] == f"error: row {row}, column 1: 'x' is not a finite number\n"

    def test_a_row_across_a_chunk_boundary_parses_whole(self):
        text, _ = _chunked_rows()
        assert text[cli._CHUNK - 1] != "\n" and self.check(text)[0] == 0

    def test_a_cell_error_in_a_later_chunk_wins_over_a_nonpositive_row_before_it(self):
        text, second = _chunked_rows()
        text = "N,Y\n0,5\n" + text[4:second] + "1,y\n" + text[second:]
        assert "row 2" not in self.check(text)[2]

    @pytest.mark.parametrize("edit", ["crlf", "no-final-newline", "header-only", "header-without-newline"])
    def test_line_endings_and_short_files(self, edit):
        text, _ = _chunked_rows()
        text = {"crlf": "N,Y\n" + text[4:].replace("\n", "\r\n"), "no-final-newline": text[:-1],
                "header-only": "N,Y\n", "header-without-newline": "N,Y"}[edit]
        self.check(text)

    @settings(max_examples=200, deadline=None)
    @given(mutated_csv_text(), st.sampled_from([1, 7, 24]))
    def test_small_chunks_give_what_one_read_gives(self, text, chunk):
        with mock.patch.object(cli, "_CHUNK", chunk):
            self.check(text)

    @pytest.mark.parametrize("second_cell", ["x", "1e999"])
    def test_usl_fit_reads_the_same_files(self, second_cell):
        text, second = _chunked_rows()
        text = "N,value\n" + text[4:second] + f"1,{second_cell}\n" + text[second:]
        _, _, err = _run_isolated(["fit"], "N,Y\n" + text[8:])
        assert _run_isolated(["usl-fit"], text) == (1, "", err)


class TestUslFitRows:
    @pytest.mark.parametrize("row, message", [("0,5", "N must be >= 1, got 0"), ("0.5,-1", "N must be >= 1, got 0.5"),
                                              ("5,-1", "speedup must be positive, got -1"),
                                              ("5,0", "speedup must be positive, got 0")])
    def test_a_refused_row_is_named(self, row, message):
        text = SPEEDUPS + row + "\n" + "3,0\n"
        assert _run_isolated(["usl-fit"], text) == (1, "", f"error: row 7: {message}\n")

    def test_the_library_keeps_its_messages(self):
        with pytest.raises(DomainError, match="^N values must be >= 1$"):
            uslkit.usl_fit([(1, 1), (2, 1.9), (0, 5)])
        with pytest.raises(DomainError, match="^speedup values must be positive$"):
            uslkit.usl_fit([(1, 1), (2, 1.9), (5, -1)])


class TestMemoryGrowth:
    # Traced bytes per extra sample: the CSV text is ~26 B a sample and is held twice when the ensemble command
    # joins its blocks. A command that held a list of floats per column, 64 B a sample, would not stay below.
    BOUND = 96

    @staticmethod
    def peak(argv, out_path):
        with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_ensemble_and_fit_grow_by_less_than_the_bound_per_sample(self, tmp_path):
        argv = ["ensemble", "--class", "interaction", "--D", "2", "--H", "1"]
        self.peak([*argv, "--n", "100"], tmp_path / "warm.csv")  # first calls load modules and fill caches
        self.peak(["fit", "--input", str(tmp_path / "warm.csv")], tmp_path / "fit.json")
        peaks = {}
        sizes = (24_576, 49_152)  # three and six blocks of 8192 samples
        for n in sizes:
            path = tmp_path / f"{n}.csv"
            peaks["ensemble", n] = self.peak([*argv, "--n", str(n)], path)
            # From a file: a StringIO stdin would add its own copy of the text.
            peaks["fit", n] = self.peak(["fit", "--input", str(path)], tmp_path / "fit.json")
        growth = {cmd: (peaks[cmd, sizes[1]] - peaks[cmd, sizes[0]]) / (sizes[1] - sizes[0])
                  for cmd in ("ensemble", "fit")}
        assert max(growth.values()) < self.BOUND, growth


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


FIT_JSON = '{"beta": 1.17, "log_intercept": 0.1, "r_squared": 0.99, "stderr_beta": 0.01, "n": 50}'
SPEEDUPS = "N,value\n1,1\n2,1.9\n4,3.4\n8,5.5\n16,7.1\n"


def _canonical_graph(text):
    assert emit_graph(parse_graph(text)) == text


# Every command that reads stdin or --input, with the parser of its stdout format.
INPUT_COMMANDS = {
    "fit": (["fit"], _strict_json),
    "compare": (["compare", "--class", "interaction", "--D", "2", "--H", "1"], _strict_json),
    "usl-fit": (["usl-fit"], _strict_json),
    **{f"graph-{command}": (["graph", command, *flags],
                            _canonical_graph if command in ("reduce", "aggregate") else _strict_json)
       for command, flags in GRAPH_COMMANDS.items()},
}
HOSTILE_BASES = [FIT_JSON, SPEEDUPS, CSV_BASE, "\n".join(FUZZ_BASE) + "\n"]
HOSTILE_PIECES = [
    "\x00", "\r\n", "\r", "\ufeff", "\u2028", "\x85", "\udcff", "1e99999", "-1e99999", "1e-99999",
    "9" * 400, "nan", "Infinity", "[" * 64, "{", '"', "\\", ",", "|", "#", " ", "\t",
]


@st.composite
def hostile_text(draw):
    """A valid input of some command after up to three insertions of hostile pieces or arbitrary text."""
    text = draw(st.sampled_from(HOSTILE_BASES))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.one_of(st.sampled_from(HOSTILE_PIECES), st.text(max_size=4))) + text[i:]
    return text


def _check_exit(name, code, out, err):
    assert code in (0, 1, 2), name
    assert "Traceback" not in err, name
    if code == 0:
        INPUT_COMMANDS[name][1](out)
    else:
        assert out == "", name


# Per command, a valid input but for one non-UTF-8 byte; in the JSON and graph inputs it sits where the
# parser would take it as text, if it came through.
NON_UTF8_INPUTS = {
    "fit": CSV_BASE.encode() + b"1e6\xff,9000\n",
    "compare": b'{"beta": 1.17, "note": "\xff"}',
    "usl-fit": SPEEDUPS.encode() + b"32\xff,8\n",
    **{f"graph-{command}": ("\n".join(FUZZ_BASE) + "\n").encode() + b"agent z\xff 1.0\n"
       for command in GRAPH_COMMANDS},
}

DUPLICATES = "agent a 1.0\nagent b 1.0\n" + "promise a b svc + *\npromise b a svc - *\n" * 5_000


class TestHostileInputFuzz:
    """Every input-reading command on hostile text: exit 0, 1 or 2, no traceback, and on 0 a parseable stdout."""

    @settings(max_examples=60, deadline=None)
    @given(text=st.one_of(hostile_text(), st.text(max_size=40)))
    @example(text="[" * 200_000)
    @example(text="[" * 200_000 + "]" * 200_000)
    @example(text='{"beta": ' * 100_000)
    @example(text="N,Y\n1000\x00,20\n2000,45\n")
    @example(text="agent a\x00 1.0\nagent b 1.0\npromise a\x00 b svc + *\npromise b a\x00 svc - *\n")
    @example(text="N,Y\r\n1000,20\r\n2000,45\r\n4000,99\r\n")
    @example(text="N,value\r\n1,1\r\n2,1.9\r\n4,3.4\r\n")
    @example(text=DUPLICATES)
    @example(text="N,Y\n1e99999,2\n3,4\n5,6\n")
    @example(text="N,Y\n1000,1e308\n2000,1e-400\n4000,1e-308\n")
    @example(text="N,value\n1,1e308\n2,1e-320\n4,1e99999\n")
    @example(text='{"beta": 1e99999, "n": 50}')
    @example(text='{"beta": 1.1, "stderr_beta": 1e-400, "n": 1e400}')
    @example(text='{"beta": 1%s}' % ("0" * 5_000))
    @example(text="agent a 1e99999\nagent b 1e-99999\npromise a b svc + *\npromise b a svc - *\n")
    def test_every_input_command(self, text):
        for name, (argv, _) in INPUT_COMMANDS.items():
            _check_exit(name, *_run_isolated(argv, text))

    @pytest.mark.parametrize("name", sorted(INPUT_COMMANDS))
    def test_non_utf8_bytes(self, name, tmp_path):
        # Bytes that no UTF-8 decoder accepts, on stdin (decoded strictly) and through --input.
        data = b"agent \xff\xfe 1.0\nN,Y\n1,2\n{\"beta\": 1\xc3}"
        path = tmp_path / "input.bin"
        path.write_bytes(data)
        argv = INPUT_COMMANDS[name][0]
        strict = _child_env(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8:strict")
        # The C locale without PYTHONIOENCODING decodes stdin with surrogateescape, which lets the bad byte through.
        posix = _child_env(PYTHONPATH=str(SRC), LC_ALL="C")
        for env, extra, stdin in ((strict, [], data), (strict, ["--input", str(path)], b""),
                                  (posix, [], NON_UTF8_INPUTS[name])):
            proc = subprocess.run([sys.executable, "-m", "commscale", *argv, *extra], input=stdin,
                                  capture_output=True, env=env)
            _check_exit(name, proc.returncode, proc.stdout.decode(), proc.stderr.decode(errors="replace"))
            assert proc.returncode == 1 and proc.stderr.startswith(b"error: ")


# The argv fuzz. Each flag has ordinary values; up to two flags of a run take an edge value instead, one that the
# flag should refuse or that sits at the limit of what it takes.
ARGV_EDGE = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-320", "1e-300", "1e150", "1e308", "1e999", "x", "",
                     "0x10", "1_000", " 2", "--"]),
    st.floats().map(repr),
    st.integers(-5, 10**6).map(str),
)
ARGV_TOKENS = st.sampled_from(["a", "b", "c", "hub", "m1", "m2", "researcher", "university", "company", "svc",
                               "member", "lab_access", "patent", "S", "*", "", "a,b", "x y", "#", "--"])
# Edge values of the flags that do not take a number, or take one of their own kind.
ARGV_EDGES = {
    **{flag: ARGV_TOKENS for flag in ("--giver", "--receiver", "--type", "--super-id", "--authority",
                                      "--membership-type")},
    "--members": st.lists(ARGV_TOKENS, max_size=4).map(",".join),
    "--class": st.sampled_from(["nope", "", "Interaction", "--"]),
    "--D": st.sampled_from(["0", "-1", "1000", str(2**64), str(10**400), "1.5", "nan", "x", "--"]),
    "--seed": st.sampled_from(["-1", str(2**64 - 1), str(2**64), "1e3", "x", "--"]),
    "--input": st.just("no-such-input.txt"),
    # A calibration near the float limit overflows the sum of a few bindings.
    "--calibration": st.sampled_from(["1e308", "-1e308", "1.7976931348623157e+308", "1e-320", "0", "nan", "x", "--"]),
}
ARGV_DH = {"--D": ["1", "2", "3", "4"], "--H": ["0", "0.5", "1", "1.5", "2"]}
ARGV_CLASS = {"--class": [c.value for c in ScalingClass]}
# "" reads stdin, as no --input does.
ARGV_INPUT = {"--input": [""]}
# graph value and graph bindings, which value bindings, take a calibration; the other graph commands do not.
ARGV_GRAPH = {**ARGV_INPUT, "--calibration": ["1", "0.5", "2.5", "-1"]}
ARGV_MEMBERSHIP = {"--membership-type": ["member", "svc"]}


@st.composite
def fit_json_text(draw):
    """Fit JSON with 'beta' most of the time, its fields numbers of any size or other JSON values."""
    value = st.one_of(st.sampled_from([0, 0.01, 0.5, 1, 1.17, 50]), st.floats(), st.integers(-10**20, 10**20),
                      st.sampled_from([True, None, "1.1", [], {}]))
    optional = {key: value for key in ("beta", "log_intercept", "r_squared", "stderr_beta", "n")}
    required = {"beta": optional.pop("beta")} if draw(st.integers(0, 7)) else {}
    return json.dumps(draw(st.fixed_dictionaries(required, optional=optional)))


@st.composite
def speedup_csv_text(draw):
    """`N,value` CSV of up to 30 rows of concurrency levels and speedups; in half of them one cell is any float."""
    rows = draw(st.lists(st.tuples(st.integers(1, 256), st.floats(0.1, 300)).map(list), max_size=30))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = draw(st.floats())
    return "N,value\n" + "".join(f"{n!r},{v!r}\n" for n, v in rows)


def _argv_spec(argv, stdout, required=(), optional=(), switches=(), stdin=st.just(""), edges=(), one_of=()):
    """required and optional map each flag to its ordinary values; edges gives a flag edge values of its own;
    one_of names optional flags and switches that exclude each other, of which each run passes exactly one."""
    return SimpleNamespace(argv=argv, stdout=stdout, required=dict(required), optional=dict(optional),
                           switches=switches, stdin=stdin, edges={**ARGV_EDGES, **dict(edges)}, one_of=one_of)


# Every subcommand: its flags, the form of its stdout, and what it reads on stdin (TestHostileInputFuzz gives
# the input commands hostile text).
ARGV_FUZZ = {
    "exponents": _argv_spec(["exponents"], "json", ARGV_DH),
    "yield": _argv_spec(["yield"], "scalar", {**ARGV_DH, "--n": ["1", "1000", "12345"]},
                        {"--inactive": ["0", "0.3", "0.9"]}),
    "ensemble": _argv_spec(
        ["ensemble"], "csv", {**ARGV_CLASS, **ARGV_DH},
        {"--n": ["2", "20", "500"], "--nmin": ["1", "10", "1e3"], "--nmax": ["1e4", "1e7"],
         "--noise": ["0", "0.1", "2"], "--inactive": ["0", "0.25", "0.9"], "--seed": ["0", "7", "123456789"]},
        # At most 2,000 samples: --n sizes the ensemble.
        edges={"--n": st.one_of(st.integers(-2, 2000).map(str), st.sampled_from(["1e3", "2.5", "x", "", "--"]))},
    ),
    "fit": _argv_spec(["fit"], "json", optional=ARGV_INPUT, stdin=mutated_csv_text()),
    "compare": _argv_spec(["compare"], "json", {**ARGV_CLASS, **ARGV_DH}, {**ARGV_INPUT, "--k": ["0", "2", "3.5"]},
                          stdin=fit_json_text()),
    "usl-eval": _argv_spec(["usl-eval"], "scalar", {"--contention": ["0", "0.05", "0.5", "-0.5"]},
                           {"--coherency": ["0", "0.0002", "0.1"], "--n": ["1", "8", "64"]}, switches=("--peak",),
                           one_of=("--n", "--peak")),
    "usl-fit": _argv_spec(["usl-fit"], "json", optional=ARGV_INPUT, stdin=speedup_csv_text()),
    "serial": _argv_spec(["serial"], "scalar", {"--sigma": ["0", "1.5"], "--n": ["1", "32"]},
                         {"--pi": ["0", "40"], "--kappa": ["0", "0.01"]}, switches=("--exponent",)),
    "queue": _argv_spec(["queue"], "scalar", {"--lambda": ["0", "3.5"], "--mu": ["1", "4.25"]}),
    **{f"graph-{command}": _argv_spec(["graph", command], form, optional=flags, stdin=mutated_graph_text())
       for command, form, flags in (("value", "json", ARGV_GRAPH), ("bindings", "json", ARGV_GRAPH),
                                    ("reduce", "graph", ARGV_INPUT))},
    "graph-aggregate": _argv_spec(["graph", "aggregate"], "graph",
                                  {"--members": ["a,b", "m1,m2", "a", "researcher,university"],
                                   "--super-id": ["S", "T"]}, ARGV_INPUT, stdin=mutated_graph_text()),
    # The ordinary offer is one of FUZZ_BASE's; edge values of the three flags name others, or none.
    "graph-classify": _argv_spec(["graph", "classify"], "json",
                                 {"--giver": ["a"], "--receiver": ["b"], "--type": ["svc"]},
                                 {**ARGV_INPUT, **ARGV_MEMBERSHIP, **ARGV_DH, "--threshold": ["0", "0.1", "0.5"]},
                                 stdin=mutated_graph_text()),
    "graph-community": _argv_spec(["graph", "community"], "json", {"--authority": ["hub", "a"]},
                                  {**ARGV_INPUT, **ARGV_MEMBERSHIP}, stdin=mutated_graph_text()),
}


# True in 15 of 16 entries. Hypothesis draws the first entry most often, so True comes first.
ALMOST_ALWAYS = st.sampled_from([True] * 15 + [False])


@st.composite
def fuzzed_argv(draw, spec):
    """spec's argv with each flag as --flag=value. A required flag is left out in a few runs in a hundred and an
    optional flag or a switch in half of them, but each run passes exactly one of the flags that one_of names; up to
    two of the flags given take an edge value; now and then a stray token goes in."""
    picked = draw(st.sampled_from(spec.one_of)) if spec.one_of else None

    def drawn(flag):
        return flag == picked if flag in spec.one_of else draw(st.booleans())

    values = {**spec.required, **spec.optional}
    flags = [f for f in spec.required if draw(ALMOST_ALWAYS)] + [f for f in spec.optional if drawn(f)]
    edged = draw(st.sets(st.sampled_from(flags), max_size=2)) if flags else set()
    argv = spec.argv + [
        f"{f}={draw(spec.edges.get(f, ARGV_EDGE) if f in edged else st.sampled_from(values[f]))}" for f in flags
    ]
    argv += [switch for switch in spec.switches if drawn(switch)]
    if not draw(ALMOST_ALWAYS):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "extra", "--n", "-x"])))
    return argv


# A word that names a Python exception class, which a domain-error message must not show.
EXCEPTION_NAME = re.compile(r"\b(%s)\b" % "|".join(
    [name for name, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)]
    + errors.__all__))


def _json_floats(text):
    """The floats of strict JSON text, as parsed."""
    floats = []
    json.loads(text, parse_float=lambda s: floats.append(float(s)),
               parse_constant=lambda c: pytest.fail(f"non-strict JSON constant {c}"))
    return floats


def _check_stdout(form, out):
    if form == "json":
        assert all(x == float(format(x, ".12g")) and math.isfinite(x) for x in _json_floats(out)), out
    elif form == "scalar":
        assert math.isfinite(float(out)) and out == format(float(out), ".12g") + "\n"
    elif form == "csv":
        assert out == tabular.format_pairs(*tabular.parse_pairs(out, "N,Y"), "N,Y")
    else:
        _canonical_graph(out)


class TestArgvFuzz:
    """Every subcommand with generated flags and stdin: exit 0 or 1 or a usage SystemExit(2) and nothing else,
    stdout only on 0 and then strict with 12-digit floats, and no exception class named in an error message."""

    @pytest.mark.parametrize("name", sorted(ARGV_FUZZ))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_subcommand(self, name, data):
        spec = ARGV_FUZZ[name]
        argv = data.draw(fuzzed_argv(spec), label="argv")
        with _isolated(data.draw(spec.stdin, label="stdin")) as (out, err):
            try:
                code, exited = main(argv), False
            except SystemExit as exc:
                code, exited = exc.code, True
        out, err = out.getvalue(), err.getvalue()
        assert code == 2 if exited else code in (0, 1)
        if code:
            assert out == ""
        if code == 1:
            assert err.startswith("error: ") and not EXCEPTION_NAME.search(err), err
        if code == 0:
            assert err == ""
            _check_stdout(spec.stdout, out)


HELP_TEXT = Path(__file__).with_name("cli_help.txt")


def _help_pages():
    """The --help page of the root parser, of every command and of the graph group, each under its command line."""
    levels = [[], *(spec.argv for spec in ARGV_FUZZ.values() if spec.argv[0] != "graph"), ["graph"],
              *(spec.argv for spec in ARGV_FUZZ.values() if spec.argv[0] == "graph")]
    pages = []
    for argv in levels:
        code, out, err = _run_isolated([*argv, "--help"])
        assert code == 0 and err == "", argv
        pages.append(f"$ commscale {' '.join([*argv, '--help'])}\n{out}")
    return "\n".join(pages)


class TestHelpText:
    def test_every_level_matches_the_stored_text(self, monkeypatch):
        # argparse wraps help to the terminal width, which COLUMNS sets.
        monkeypatch.setenv("COLUMNS", "80")
        assert _help_pages() == HELP_TEXT.read_text(encoding="utf-8")


SRC = Path(uslkit.__file__).resolve().parents[1]


def _child_env(**env):
    """env for a child interpreter, plus the caller's PYTHONDONTWRITEBYTECODE when it is set, so that a run asked
    to write no bytecode cache writes none through its children either."""
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


# An isolated child interpreter; -I ignores PYTHONDONTWRITEBYTECODE, so -B passes the caller's choice on.
ISOLATED = [sys.executable, "-I", *(["-B"] if sys.dont_write_bytecode else [])]


# The modules whose loading the start probe reports: numpy, scipy (which no run may load), the
# Philox draws, dataclasses with the inspect, ast and dis that it would pull in, the library
# modules that cli does not import at start, and fractions, which pulls in decimal.
PROBED = ("numpy", "scipy", "commscale._philox", "dataclasses", "inspect", "ast", "dis", "commscale.ensemble",
          "commscale.graphio", "commscale.meanfield", "commscale.promisegraph", "commscale.uslkit", "fractions")
# Runs cli.main(argv) in a fresh interpreter, or only imports commscale.cli when argv is empty, then
# reports the exit code, the number of argparse parsers built and the PROBED modules loaded as the
# last line of stderr.
START_PROBE = (
    "import argparse, sys; sys.path.insert(0, sys.argv[1])\n"
    "built, init = [], argparse.ArgumentParser.__init__\n"
    "argparse.ArgumentParser.__init__ = lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs))\n"
    "from commscale.cli import main\n"
    "try:\n    code = main(sys.argv[2:]) if sys.argv[2:] else 0\nexcept SystemExit as exc:\n    code = exc.code\n"
    f"print(code, len(built), *[m for m in {PROBED!r} if m in sys.modules], file=sys.stderr)\n"
)
# numpy imports these itself, so only a run without numpy is held to their absence.
NUMPY_LOADS = {"inspect", "ast", "dis"}


def _fresh_probe(argv, stdin_text=""):
    """(exit code, parsers built, the PROBED modules loaded) of main(argv) in a fresh `python -I` interpreter."""
    proc = subprocess.run(
        [*ISOLATED, "-c", START_PROBE, str(SRC), *argv],
        input=stdin_text, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, built, *loaded = proc.stderr.splitlines()[-1].split()
    return int(code), int(built), set(loaded)


def _fresh_main(argv, stdin_text=""):
    """(exit code, the PROBED modules loaded) of main(argv) in a fresh `python -I` interpreter."""
    code, _, loaded = _fresh_probe(argv, stdin_text)
    return code, loaded


def _fresh_module_main(argv, stdin_text=""):
    """(exit code, the PROBED modules loaded) of `python -m commscale argv`, as the benchmark runs each command.

    -I would drop PYTHONPATH, so the package is found through it alone, with no other variable set and no user
    site; -X importtime names every module the run imports.
    """
    proc = subprocess.run(
        [sys.executable, "-s", "-X", "importtime", "-m", "commscale", *argv],
        input=stdin_text, capture_output=True, text=True, env=_child_env(PYTHONPATH=str(SRC)),
    )
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, imported & set(PROBED)


LEAN = frozenset()
# A class law (meanfield), and an exact exponent.
LAW = frozenset({"commscale.meanfield"})
EXACT = LAW | {"fractions"}
USL = frozenset({"commscale.uslkit"})
GRAPH = frozenset({"commscale.graphio", "commscale.promisegraph"})
# One row per probed run: argv, stdin, exit code, the PROBED modules it loads (numpy's own aside)
# and the probe that runs it: main in a fresh interpreter, or `python -m commscale`.
START_RUNS = [
    pytest.param([], "", 0, LEAN, _fresh_main, id="import"),
    pytest.param(["exponents", "--D", "2", "--H", "1"], "", 0, EXACT, _fresh_main, id="exponents"),
    pytest.param(["yield", "--D", "2", "--H", "1", "--n", "1000"], "", 0, LAW, _fresh_main, id="yield"),
    pytest.param(["compare", "--class", "interaction", "--D", "2", "--H", "1"], FIT_JSON, 0,
                 EXACT | {"commscale.ensemble"}, _fresh_main, id="compare"),
    pytest.param(["usl-eval", "--contention", "0.1", "--coherency", "0.01", "--n", "8"], "", 0, USL, _fresh_main,
                 id="usl-eval"),
    pytest.param(["usl-eval", "--contention", "0.1", "--coherency", "0.01", "--peak"], "", 0, USL, _fresh_main,
                 id="usl-eval-peak"),
    pytest.param(["serial", "--sigma", "1", "--pi", "4", "--n", "8"], "", 0, USL, _fresh_main, id="serial"),
    pytest.param(["serial", "--sigma", "1", "--pi", "4", "--n", "8", "--exponent"], "", 0, USL, _fresh_main,
                 id="serial-exponent"),
    pytest.param(["queue", "--lambda", "1", "--mu", "2"], "", 0, USL, _fresh_main, id="queue"),
    pytest.param(["queue", "--lambda", "1", "--mu", "2"], "", 0, USL, _fresh_module_main, id="python-m-queue"),
    # Only classify's --D/--H asks for an exponent; classify names a class even without them.
    *[pytest.param(["graph", command, *flags], MESH3 + COMMUNITY, 0, GRAPH | (EXACT if "--D" in flags else LEAN),
                   _fresh_main, id=f"graph-{command}")
      for command, flags in GRAPH_COMMANDS.items()],
    pytest.param(["graph", "classify", *GRAPH_COMMANDS["classify"][:6]], MESH3, 0, GRAPH | LAW, _fresh_main,
                 id="graph-classify-class"),
    # The full tree gives --class its choices.
    pytest.param(["--help"], "", 0, LAW, _fresh_main, id="help"),
    pytest.param(["yield", "--D", "2", "--H", "1"], "", 2, LEAN, _fresh_main, id="usage-error"),
    pytest.param(["ensemble", "--class", "interaction", "--D", "2", "--H", "1", "--n", "20"], "", 0,
                 LAW | {"numpy", "commscale._philox", "commscale.ensemble"}, _fresh_main, id="ensemble"),
    pytest.param(["fit"], "N,Y\n10,1\n20,2.2\n40,4.9\n", 0, frozenset({"numpy", "commscale.ensemble"}), _fresh_main,
                 id="fit"),
    pytest.param(["usl-fit"], SPEEDUPS, 0, USL, _fresh_main, id="usl-fit"),
]


class TestStartImports:
    """Each run loads only the library modules its handler runs; only drawing, `fit` and adjacency import numpy,
    only drawing imports _philox, only an exponent imports fractions, only --class, a class law or an exponent
    imports meanfield, no run imports dataclasses or scipy."""

    @pytest.mark.parametrize("argv, stdin_text, want_code, want_loaded, probe", START_RUNS)
    def test_start_loads_only_what_the_run_needs(self, argv, stdin_text, want_code, want_loaded, probe):
        code, loaded = probe(argv, stdin_text)
        if "numpy" in loaded:
            loaded -= NUMPY_LOADS
        assert (code, loaded) == (want_code, want_loaded)

    # Each run of START_RUNS, the help of the graph group and an unknown command, with the parsers it builds: a root
    # and a leaf, and the graph group between them for a graph command; 17, the root and every row of the command
    # table, where argv names no command.
    @pytest.mark.parametrize("argv, stdin_text, want_built", [
        *[pytest.param(argv, stdin_text, 0 if not argv else 17 if argv[0].startswith("-") else
                       3 if argv[0] == "graph" else 2, id=p.id)
          for p in START_RUNS for argv, stdin_text, *_ in [p.values]],
        pytest.param(["graph", "--help"], "", 17, id="graph-help"), pytest.param(["nope"], "", 17, id="unknown"),
    ])
    def test_start_builds_only_the_named_parser(self, argv, stdin_text, want_built):
        assert _fresh_probe(argv, stdin_text)[1] == want_built

    def test_package_import_and_adjacency(self):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import commscale\n"
            "assert 'numpy' not in sys.modules\n"
            "a = commscale.adjacency(commscale.parse_graph(sys.stdin.read()), 'svc')\n"
            "print(type(a).__module__, type(a).__name__, a.dtype, a.tolist())\n"
        )
        proc = subprocess.run(
            [*ISOLATED, "-c", code, str(SRC)], input=MESH3, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "numpy ndarray int64 [[0, 1, 1], [1, 0, 1], [1, 1, 0]]\n"


def _leaf_commands(parser, prefix=()):
    """The command lines ("graph value") of parser's leaf parsers."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {" ".join(prefix)}
    return {leaf for name, sub in subparsers[0].choices.items() for leaf in _leaf_commands(sub, (*prefix, name))}


class TestParserReuse:
    """main builds the parser of each command once; no flag or default of one call carries into the next."""

    CLASSIFY = ["graph", "classify", "--giver", "a", "--receiver", "b", "--type", "svc"]
    ENSEMBLE = ["ensemble", "--class", "interaction", "--D", "2", "--H", "1"]

    def test_calls_in_sequence(self):
        cli._parser.cache_clear()
        code, out, _ = _run_isolated([*self.CLASSIFY, "--D", "2", "--H", "1"], MESH3)
        assert code == 0 and json.loads(out) == {"class": "interaction", "exponent": 1.16666666667}
        code, out, _ = _run_isolated(self.CLASSIFY, MESH3)
        assert code == 0 and json.loads(out) == {"class": "interaction"}
        every_flag = ["--n", "7", "--nmin", "10", "--nmax", "1e4", "--noise", "0.5", "--inactive", "0.3",
                      "--seed", "9"]
        assert _run_isolated([*self.ENSEMBLE, *every_flag])[0] == 0
        defaults = _run_isolated(self.ENSEMBLE)
        assert _run_isolated(["yield", "--D", "2", "--H", "1"])[0] == 2
        assert _run_isolated(["queue", "--lambda", "1", "--mu", "2"]) == (0, "1\n", "")
        # Six calls of four commands: graph classify, ensemble, yield and queue.
        assert cli._parser.cache_info()[:2] == (2, 4)
        cli._parser.cache_clear()
        assert defaults == _run_isolated(self.ENSEMBLE)
        assert defaults[0] == 0 and defaults[1].count("\n") == 501

    def test_every_command_is_fuzzed_and_start_probed(self):
        commands = _leaf_commands(cli._parser())
        assert len(commands) == 15
        assert commands == {" ".join(spec.argv) for spec in ARGV_FUZZ.values()}
        assert commands == {" ".join(argv[:2] if argv[0] == "graph" else argv[:1])
                            for argv, *_ in (p.values for p in START_RUNS) if argv and argv[0] != "--help"}


@st.composite
def abbreviated_argv(draw, spec):
    """fuzzed_argv(spec) with some of its --flag=value words cut to a prefix of the flag, which argparse takes for the
    one flag it starts and refuses as ambiguous where it starts more."""
    argv = draw(fuzzed_argv(spec))
    for i, word in enumerate(argv):
        flag, eq, value = word.partition("=")
        if eq and flag.startswith("--") and len(flag) > 3 and draw(st.booleans()):
            argv[i] = f"{flag[:draw(st.integers(3, len(flag) - 1))]}={value}"
    return argv


def _parsed(parser, argv):
    """(namespace less the bound usage_error, or the exit code; stdout; stderr) of parser.parse_args(argv)."""
    with _isolated("") as (out, err):
        try:
            result = vars(parser.parse_args(argv))
            del result["usage_error"]
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _main_passing(argv, passed, full_tree=False):
    """(exit code, stdout, stderr) of main given argv as a list, a tuple or sys.argv, and the rows it asked _parser
    for; with full_tree, _parser hands it the parser of every row whatever the row."""
    build, rows = cli._parser, []

    def parser(row=None):
        rows.append(row)
        return build(None if full_tree else row)

    with mock.patch.object(cli, "_parser", parser), mock.patch.object(sys, "argv", ["commscale", *argv]):
        run = _run_isolated({"list": argv, "tuple": tuple(argv), "sys.argv": None}[passed])
    return run, rows


PASSED = ["list", "tuple", "sys.argv"]


class TestParserPerCommand:
    """main parses with the parser of the one row its argv names, and that parser makes of argv what the full tree
    makes of it: the same namespace, or the same exit with the same message."""

    @staticmethod
    def check(argv, row, passed):
        assert _parsed(cli._parser(row), argv) == _parsed(cli._parser(), argv)
        run, rows = _main_passing(argv, passed)
        assert rows == [row]
        assert run == _main_passing(argv, passed, full_tree=True)[0]

    @pytest.mark.parametrize("name", sorted(ARGV_FUZZ))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_fuzzed_argv(self, name, data):
        spec = ARGV_FUZZ[name]
        argv = data.draw(abbreviated_argv(spec), label="argv")
        # A stray word among the first ones leaves argv naming no row.
        self.check(argv, " ".join(spec.argv) if argv[:len(spec.argv)] == spec.argv else None,
                   data.draw(st.sampled_from(PASSED), label="passed"))

    @pytest.mark.parametrize("passed", PASSED)
    @pytest.mark.parametrize("argv, row", [
        (["queue", "--lam=1", "--m", "2"], "queue"),
        (["ensemble", "--cl=interaction", "--D=2", "--H=1", "--n=3", "--nm=10"], "ensemble"),
        (["queue", "--lambda=--", "--mu=2"], "queue"),
        (["graph", "value", "--cal=--"], "graph value"),
        (["queue", "--lambda", "1", "--mu", "2", "extra"], "queue"),
        (["graph", "community", "--help"], "graph community"),
        (["graph value"], None), (["graph", "--", "value"], None), (["--", "queue"], None), (["-h"], None),
        (["graph"], None), ([], None),
    ])
    def test_edges(self, argv, row, passed):
        self.check(argv, row, passed)


class TestCliUsesPublicEnsembleApi:
    @pytest.mark.parametrize("module", ["ensemble", "graphio", "meanfield", "promisegraph", "tabular", "uslkit"])
    def test_no_private_ensemble_attribute(self, module):
        # The benchmark tracer wraps public functions only; a private helper would hide its stage.
        tree = ast.parse((SRC / "commscale" / "cli.py").read_text(encoding="utf-8"))
        private = [node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == module and node.attr.startswith("_")]
        private += [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == module
                    for alias in node.names if alias.name.startswith("_")]
        assert private == []


class TestFindOffer:
    def test_find_offer_takes_the_first_in_graph_order(self):
        g = PromiseGraph(
            [Agent("a"), Agent("b")],
            [Promise("a", "b", "svc", Polarity.OFFER, frozenset("z")),
             Promise("a", "b", "svc", Polarity.OFFER, frozenset("y"), ("fuel",)),
             Promise("a", "b", "svc", Polarity.ACCEPT, frozenset("a"))],
        )
        offer = promisegraph.find_offer(g, "a", "b", "svc")
        assert offer.condition == ("fuel",) and offer == g.promises[0]
        with pytest.raises(DomainError, match="no offer of type 'svc' from 'b' to 'a' in the graph"):
            promisegraph.find_offer(g, "b", "a", "svc")


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

    @pytest.mark.parametrize("half", [["--D", "2"], ["--H", "1"]], ids=["D-only", "H-only"])
    def test_classify_with_only_one_dimension(self, half, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["graph", "classify", "--giver", "a", "--receiver", "b", "--type", "svc", *half])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--D and --H must be given together" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce"],
            ["aggregate", "--members", "a,b", "--super-id", "S"],
            ["classify", "--giver", "a", "--receiver", "b", "--type", "svc"],
            ["community", "--authority", "hub"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_calibration_only_where_bindings_are_valued(self, argv, capsys):
        # Only graph value and graph bindings turn bindings into value.
        with pytest.raises(SystemExit) as exc:
            main(["graph", *argv, "--calibration", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: unrecognized arguments: --calibration 2\n")


    @pytest.mark.parametrize(
        "argv",
        [
            ["exponents", "--D", "2", "--H=--"],
            ["exponents", "--D=--", "--H", "1"],
            ["graph", "aggregate", "--members=--", "--super-id", "S"],
        ],
        ids=["float", "int", "text"],
    )
    def test_double_dash_as_a_flag_value(self, argv):
        # argparse before Python 3.12 passes --flag=-- on as [], neither converted nor checked.
        code, out, err = _run_isolated(argv)
        assert code in (1, 2) and out == "" and "error: " in err


class TestCollectorPause:
    """main runs its command with the cyclic collector off and leaves the caller's setting as it found it."""

    EXITS = {
        "exit-0": (["queue", "--lambda", "1", "--mu", "2"], 0),
        "exit-1": (["queue", "--lambda", "2", "--mu", "1"], 1),
        "argparse-2": (["queue", "--lambda", "1"], 2),
        "usage-error-2": (["usl-eval", "--contention", "0.1"], 2),
    }

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def caller_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv, code", EXITS.values(), ids=EXITS.keys())
    def test_every_exit_restores_the_callers_state(self, caller_state, argv, code):
        assert _run_isolated(argv)[0] == code
        assert gc.isenabled() is caller_state

    def test_an_uncaught_exception_restores_the_callers_state(self, caller_state, monkeypatch):
        def fail(x):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "_fmt", fail)
        with pytest.raises(RuntimeError, match="unexpected"):
            _run_isolated(["queue", "--lambda", "1", "--mu", "2"])
        assert gc.isenabled() is caller_state

    def test_the_command_runs_with_the_collector_off(self, caller_state, monkeypatch):
        seen = []
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda x: seen.append(gc.isenabled()) or fmt(x))
        assert _run_isolated(["queue", "--lambda", "1", "--mu", "2"]) == (0, "1\n", "")
        assert seen == [False] and gc.isenabled() is caller_state


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "commscale", "exponents", "--D", "2", "--H", "1"],
            capture_output=True,
            text=True,
            env=_child_env(PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["interaction"] == 1.16666666667


# Errors that name entries of a collection, each run with empty stdin: the first of several unknown members of
# graph aggregate, and the entries of a constraint set that are not all strings.
HASH_SEED_CASES = {
    "aggregate": (["-m", "commscale", "graph", "aggregate", "--members=a,b,c", "--super-id=S"],
                  b"error: unknown agent 'a'\n"),
    "constraint-entries": (["-c", "import sys\n"
                                  "from commscale.errors import DomainError\n"
                                  "from commscale.promisegraph import Agent, Polarity, Promise, PromiseGraph\n"
                                  "try:\n"
                                  "    promise = Promise('a', 'a', 't', Polarity.OFFER, {'x', 1, 'y'})\n"
                                  "    PromiseGraph([Agent('a')], [promise])\n"
                                  "except DomainError as exc:\n"
                                  "    sys.exit(f'error: {exc}')\n"],
                           b"error: constraint entries must be strings, got {'x', 'y', 1}\n"),
}


# A valid stdin for each ARGV_FUZZ command that reads one.
ORDINARY_STDIN = {"fit": CSV_BASE, "compare": FIT_JSON, "usl-fit": SPEEDUPS,
                  **{f"graph-{command}": "\n".join(FUZZ_BASE) + "\n" for command in GRAPH_COMMANDS}}
# A value that each ARGV_FUZZ command refuses, for one of its flags.
REFUSED = {
    "exponents": ("--D", "0"), "yield": ("--n", "nan"), "ensemble": ("--class", "nope"),
    "fit": ("--input", "no-such-input.txt"), "compare": ("--k", "-1"), "usl-eval": ("--contention", "inf"),
    "usl-fit": ("--input", "no-such-input.txt"), "serial": ("--sigma", "x"), "queue": ("--mu", "1e999"),
    "graph-value": ("--calibration", "nan"), "graph-bindings": ("--calibration", "x"),
    "graph-reduce": ("--input", "no-such-input.txt"), "graph-aggregate": ("--super-id", "a"),
    "graph-classify": ("--type", "nope"), "graph-community": ("--authority", "nobody"),
}
# One graph text per GraphFormatError message of graphio.parse_graph.
BAD_GRAPH_TEXTS = [
    "agent a,b 1.0\n", "agent a 1.0\npromise a a s + x,,y\n", "agent a 1.0\npromise a a s * x\n",
    "promise a a s +\n", "agent a\n", "agent a 1.0\nagent a 1.0\n", "agent a x\n", "agent a 2\n", "node a\n",
    "agent a 1.0\npromise a b s + *\n",
]
BAD_CSV_ROWS = ["7", "7,8,9", "0,5", "5,-1", "-1,x", "1e999,3"]


def _error_corpus():
    """(name, argv, stdin) of runs that must fail: per ARGV_FUZZ command, its first required flag left out and a
    refused value; a bad graph text per format error; aggregate over several unknown members; bad CSV rows."""
    cases = []
    for name, spec in ARGV_FUZZ.items():
        flags = {flag: values[0] for flag, values in spec.required.items()}
        flags.update({flag: spec.optional[flag][0] for flag in spec.one_of[:1]})
        stdin = ORDINARY_STDIN.get(name, "")
        if spec.required:
            missing = {flag: value for flag, value in flags.items() if flag != next(iter(spec.required))}
            cases.append((f"{name}/missing", spec.argv + [f"{f}={v}" for f, v in missing.items()], stdin))
        flag, value = REFUSED[name]
        refused = {**flags, flag: value}
        cases.append((f"{name}/refused", spec.argv + [f"{f}={v}" for f, v in refused.items()], stdin))
    cases += [(f"graph-text/{i}", ["graph", "value"], text) for i, text in enumerate(BAD_GRAPH_TEXTS)]
    cases += [("aggregate/unknown", ["graph", "aggregate", "--members=a,b,c", "--super-id=S"], ""),
              ("aggregate/unknown-among-known", ["graph", "aggregate", "--members=a,zz,b,yy,xx", "--super-id=S"],
               ORDINARY_STDIN["graph-aggregate"])]
    cases += [(f"fit/row/{row}", ["fit"], CSV_BASE + row + "\n") for row in BAD_CSV_ROWS]
    cases += [(f"usl-fit/row/{row}", ["usl-fit"], SPEEDUPS + row + "\n") for row in BAD_CSV_ROWS]
    return cases


# Runs the bench/digest.py corpus through its digests(), then each (name, argv, stdin) of the JSON list on stdin
# through cli.main, in this one interpreter, and writes {"digests": ..., "errors": {name: [code, out, err]}}.
HASH_SEED_CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1])\n"
    "import digest, worker\n"
    "cases = json.load(sys.stdin)\n"
    "digests = digest.digests()\n"
    "from commscale import cli\n"
    "errors = {name: worker.call(cli, argv, stdin) for name, argv, stdin in cases}\n"
    "json.dump({'digests': digests, 'errors': errors}, sys.stdout, indent=0)\n"
)


class TestHashSeeds:
    @pytest.mark.parametrize("args,stderr", HASH_SEED_CASES.values(), ids=HASH_SEED_CASES.keys())
    def test_error_text_does_not_follow_string_hashing(self, args, stderr):
        runs = [subprocess.run([sys.executable, *args], input=b"", capture_output=True,
                               env=_child_env(PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)) for seed in ("1", "2")]
        first, second = [(run.returncode, run.stdout, run.stderr) for run in runs]
        assert first == second
        assert first == (1, b"", stderr)

    def test_digest_and_error_corpora_do_not_follow_string_hashing(self):
        cases = _error_corpus()
        children = [subprocess.Popen([sys.executable, "-c", HASH_SEED_CHILD, str(BENCH)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     env=_child_env(PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)) for seed in ("1", "2")]
        corpus = json.dumps(cases).encode()
        first, second = [(child.communicate(corpus), child.returncode) for child in children]
        assert first == second
        (stdout, stderr), returncode = first
        assert (returncode, stderr) == (0, b"")
        result = json.loads(stdout)
        assert sorted(result["digests"]) == sorted(STORED)
        # Every error case fails with a message and no output.
        failed = [name for name, (code, out, err) in result["errors"].items() if code and not out and err]
        assert failed == [name for name, _, _ in cases]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """Each `$ command` of the README's sh blocks, continuation lines joined, with the text shown below it."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, shown = re.fullmatch(r"((?:.*\\\n)*.*)\n((?s:.*))", chunk).groups()
            examples.append((re.sub(r"\s*\\\n\s*", " ", command), shown))
    return examples


README_EXAMPLES = _readme_examples()
README_FILES = {command[len("cat "):]: shown for command, shown in README_EXAMPLES if command.startswith("cat ")}
# The commscale examples whose whole output the README shows; `...` marks a cut one.
README_RUNS = [(command, shown) for command, shown in README_EXAMPLES
               if command.startswith("commscale ") and shown and "..." not in shown]


class TestReadmeExamples:
    def test_the_examples_cover_the_commands(self):
        assert {command.split(" | ")[-1].split()[1] for command, _ in README_RUNS} == {
            "exponents", "yield", "compare", "usl-eval", "usl-fit", "serial", "queue", "graph"}
        assert sorted(README_FILES) == ["mesh.graph", "org.graph", "speedups.csv"]

    @pytest.mark.parametrize("command, shown", README_RUNS, ids=[command for command, _ in README_RUNS])
    def test_prints_what_the_readme_shows(self, command, shown, tmp_path, monkeypatch):
        for name, text in README_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        out = ""
        for stage in command.split(" | "):
            argv = stage.split()
            assert argv.pop(0) == "commscale"
            if "<" in argv:
                argv, (_, name) = argv[:-2], argv[-2:]
                out = README_FILES[name]
            code, out, err = _run_isolated(argv, out)
            assert (code, err) == (0, ""), stage
        assert out == shown
