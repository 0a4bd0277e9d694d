"""Smoke tests of the timing scripts in tools/: each prints or returns one
JSON line per input, with the keys its docstring documents.  The timings
themselves are not checked."""

import importlib
import json
from pathlib import Path

import pytest

from exotic_invariants.snf import IntMatrix

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def tools(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module


def test_render_layers_prints_one_line_per_input(tools, capsys):
    tools("render_layers").main(["--k", "2"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["input"] for line in lines] == [
        "lattice 11 3 2 2 2 --json",
        "lattice 2 2 2 3 11 --json",
        "spectrum 11 11 11 8 --json",
        "brieskorn 11 9 7 4 6 --spectrum --json",
    ]
    lattices, spectra = lines[:2], lines[2:]
    for lattice in lattices:
        assert list(lattice) == [
            "input", "rank", "milnor_lattice_s", "canonical_json_s", "run_s", "bytes",
        ]
        assert lattice["rank"] == 20
    assert lattices[0]["bytes"] == lattices[1]["bytes"]
    for line in spectra:
        assert list(line) == ["input", "mu", "spectrum_json_s", "canonical_json_s", "run_s", "bytes"]
    assert [line["mu"] for line in spectra] == [7000, 7200]
    for line in lines:
        assert line["bytes"] > 0
        assert all(line[key] >= 0 for key in line if key.endswith("_s"))


def test_snf_layers_row_on_a_small_matrix(tools):
    line = tools("snf_layers").row("small", IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert list(json.loads(json.dumps(line))) == [
        "input", "shape", "rank", "D_bits", "invariant_factors_s", "bareiss_s", "ratio",
    ]
    assert line["input"] == "small"
    assert (line["shape"], line["rank"], line["D_bits"]) == ([2, 2], 2, 4)
