"""Byte-identical output gate for the graph commands.

Recomputes the fixed output corpus of bench/digest.py (imported, never
written) and compares every graph/* entry with bench/golden/digests.json.
The usl-fit/* entries are not compared: the numpy fit moved their digits
within solver tolerance on purpose, so they differ from the stored file.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
STORED = json.loads((BENCH / "golden" / "digests.json").read_text())["digests"]
GRAPH_ENTRIES = sorted(k for k in STORED if k.startswith("graph/"))


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


@pytest.mark.parametrize("name", GRAPH_ENTRIES)
def test_graph_output_matches_golden(current, name):
    assert current[name] == STORED[name]
