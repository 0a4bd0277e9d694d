"""Smoke tests of the timing scripts in tools/: each prints or returns one
JSON line per input, with the keys its docstring documents.  The timings
themselves are not checked."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exotic_invariants.snf import IntMatrix

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = TOOLS.parent / "src"


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
        "input", "shape", "rank", "D_bits", "modulus_bits", "invariant_factors_s",
        "bareiss_s", "ratio",
    ]
    assert line["input"] == "small"
    # det -8 and pivot before last 2: the pass runs modulo all of D = 8.
    assert (line["shape"], line["rank"], line["D_bits"], line["modulus_bits"]) == ([2, 2], 2, 4, 4)


def test_snf_layers_modulus_is_zero_when_the_pass_is_skipped(tools):
    # det -2 and pivot before last 1: D2 = 2 goes into d2 with no pass.
    line = tools("snf_layers").row("skipped", IntMatrix.from_rows([[1, 2], [3, 4]]))
    assert (line["D_bits"], line["modulus_bits"]) == (2, 0)


@pytest.mark.parametrize(
    "script, argv",
    [("render_layers.py", ["--k", "2"]), ("snf_layers.py", ["--k", "6", "10"])],
)
def test_closed_stdout_exits_one_without_traceback(script, argv):
    """The reader closes the pipe after the first line; the lines after it
    take longer to compute than that, so a later write fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(
        [sys.executable, str(TOOLS / script), *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert json.loads(proc.stdout.readline())
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr
    assert stderr == ""
