"""Byte-identical output gate on the fixed corpus of bench/digest.py.

Recomputes the corpus (bench/digest.py is imported, never written) and
compares every entry with bench/golden/digests.json: the graph outputs,
and the ensembles, their fits and compare reports, the exponent tables
and the yield, usl-eval, serial and queue scalars. The usl-fit/* entries
are not compared: the numpy fit moved their digits within solver
tolerance on purpose, so they differ from the stored file.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
STORED = json.loads((BENCH / "golden" / "digests.json").read_text())["digests"]
GRAPH_ENTRIES = sorted(k for k in STORED if k.startswith("graph/"))
OTHER_ENTRIES = sorted(k for k in STORED if not k.startswith(("graph/", "usl-fit/")))


@pytest.fixture(scope="module")
def current():
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_digest", BENCH / "digest.py")
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        yield digest.digests()
    finally:
        sys.path[:] = saved


def test_corpus_has_the_stored_graph_entries(current):
    assert sorted(k for k in current if k.startswith("graph/")) == GRAPH_ENTRIES


def test_corpus_has_every_stored_entry(current):
    assert sorted(current) == sorted(STORED)


@pytest.mark.parametrize("name", GRAPH_ENTRIES)
def test_graph_output_matches_golden(current, name):
    assert current[name] == STORED[name]


@pytest.mark.parametrize("name", OTHER_ENTRIES)
def test_output_matches_golden(current, name):
    assert current[name] == STORED[name]
