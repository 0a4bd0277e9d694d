"""Byte-for-byte replay of recorded CLI invocations.

`goldens/cli.json` holds (argv, rc, stdout, stderr) for every argv below,
once in table mode and once with --json, `goldens/cli_help.json` the
same for the top-level --help and each subcommand's --help, and
`goldens/cli_usage.json` the same for the usage errors of USAGE_ARGV,
which the top-level parser or a subcommand's parser reports.  Every
invocation runs at COLUMNS=80, because argparse wraps help and usage
messages to the terminal width.  Re-record all three with

    PYTHONPATH=src python tests/test_cli_goldens.py

only when an output change is intended.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest

from exotic_invariants.cli import run

GOLDENS = Path(__file__).parent / "goldens" / "cli.json"
HELP_GOLDENS = Path(__file__).parent / "goldens" / "cli_help.json"
USAGE_GOLDENS = Path(__file__).parent / "goldens" / "cli_usage.json"

SUBCOMMANDS = [
    "milnor", "tdual", "brieskorn", "lattice", "spectrum", "theta7",
    "sigma8", "fano", "isotropy", "hodge", "kunneth", "family-report",
]
HELP_ARGV = [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
# No subcommand, an unknown one, a missing, a mistyped and a leftover
# positional, an option before the subcommand, a bad choice, and an option
# short of its arguments.
USAGE_ARGV = [
    [],
    ["frobnicate"],
    ["milnor", "1"],
    ["milnor", "x", "1"],
    ["milnor", "1", "2", "extra"],
    ["--json", "milnor", "1", "2"],
    ["hodge", "--branch", "sideways"],
    ["theta7", "1", "2", "--steps", "1", "2"],
]

ARGV = [
    ["milnor", "2", "-1"],
    ["milnor", "1", "0"],
    ["milnor", "3", "3"],
    ["milnor", "0", "0"],
    ["milnor", "-3", "4"],
    ["milnor", "0", "1", "--lambda"],
    ["milnor", "2", "2", "--lambda"],
    ["tdual", "--m", "3", "--k", "1", "--flux", "5"],
    ["tdual", "--m", "3", "--k", "3", "--flux", "5", "--principal"],
    ["tdual", "--m", "0", "--k", "-2", "--flux", "4", "--principal"],
    ["tdual", "--m", "2", "--k", "1", "--flux", "4", "--principal"],
    ["tdual", "--m", "0", "--k", "0", "--flux", "0"],
    ["tdual", "--m", "0", "--k", "3", "--flux", "0"],
    ["brieskorn", "5", "3", "2", "2", "2"],
    ["brieskorn", "5", "3", "2", "2", "2", "--spectrum"],
    ["brieskorn", "3", "3", "3", "--spectrum"],
    ["brieskorn", "7", "3", "2"],
    ["brieskorn", "2"],
    ["brieskorn", "1", "2"],
    ["lattice", "3", "3"],
    ["lattice", "4"],
    ["lattice", "5", "3", "2", "2", "2"],
    ["lattice", "1", "3"],
    ["spectrum", "5", "3", "2", "2", "2"],
    ["spectrum", "3", "3", "3"],
    ["spectrum", "2"],
    ["theta7", "2", "-1"],
    ["theta7", "3", "5", "--order", "7", "--coeff", "3"],
    ["theta7", "0", "1", "--steps", "0", "1", "5"],
    ["theta7", "2", "3", "--order", "10", "--coeff", "4", "--steps", "1", "3", "7"],
    ["theta7", "0", "1", "--steps", "0", "2", "5"],
    ["theta7", "1", "1", "--order", "0"],
    ["sigma8", "2", "-1", "1"],
    ["sigma8", "3", "4", "5", "--order", "12", "--coeff", "5"],
    ["fano", "3", "4"],
    ["fano", "0"],
    ["fano", "2", "-2", "--order", "5"],
    ["isotropy", "1", "3"],
    ["isotropy", "28", "1"],
    ["isotropy", "0", "0"],
    ["isotropy", "1", "0"],
    ["hodge", "--branch", "unit"],
    ["hodge", "--branch", "nonunit"],
    ["kunneth", "--m", "3", "--k", "3"],
    ["kunneth", "--m", "2", "--k", "1"],
    ["kunneth", "--m", "1", "--k", "-4"],
    ["kunneth", "--m", "0", "--k", "0"],
    ["family-report", "--start", "1", "--end", "3"],
    ["family-report", "--start", "27", "--end", "28"],
    ["family-report"],
    ["family-report", "--start", "5", "--end", "4"],
    ["family-report", "--start", "1", "--end", "30"],
]


def invoke(argv, run=run) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
        rc = run(argv)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> None:
    entries = [invoke(argv + mode) for argv in ARGV for mode in ([], ["--json"])]
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(entries, indent=1) + "\n")
    help_entries = [invoke(argv) for argv in HELP_ARGV]
    HELP_GOLDENS.write_text(json.dumps(help_entries, indent=1) + "\n")
    usage_entries = [invoke(argv) for argv in USAGE_ARGV]
    USAGE_GOLDENS.write_text(json.dumps(usage_entries, indent=1) + "\n")


GOLDEN_ENTRIES = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else []
HELP_ENTRIES = json.loads(HELP_GOLDENS.read_text()) if HELP_GOLDENS.exists() else []
USAGE_ENTRIES = json.loads(USAGE_GOLDENS.read_text()) if USAGE_GOLDENS.exists() else []


def test_goldens_cover_every_argv_in_both_modes():
    recorded = [entry["argv"] for entry in GOLDEN_ENTRIES]
    assert recorded == [argv + mode for argv in ARGV for mode in ([], ["--json"])]


@pytest.mark.parametrize("entry", GOLDEN_ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_golden(entry):
    assert invoke(entry["argv"]) == entry


def test_help_goldens_cover_every_subcommand():
    assert [entry["argv"] for entry in HELP_ENTRIES] == HELP_ARGV


@pytest.mark.parametrize("entry", HELP_ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_help_matches_golden(entry):
    assert invoke(entry["argv"]) == entry


def test_usage_goldens_cover_every_usage_error():
    assert [entry["argv"] for entry in USAGE_ENTRIES] == USAGE_ARGV


@pytest.mark.parametrize("entry", USAGE_ENTRIES, ids=lambda e: " ".join(e["argv"]) or "(empty)")
def test_usage_error_matches_golden(entry):
    assert entry["rc"] == 2 and entry["stdout"] == ""
    assert invoke(entry["argv"]) == entry


if __name__ == "__main__":
    record()
