import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exotic_invariants import cli
from exotic_invariants.cli import canonical_json, run
from oracles import canonical_json_oracle
from test_cli_goldens import invoke

COMMANDS = [
    ["milnor", "2", "-1"],
    ["tdual", "--m", "3", "--k", "1", "--flux", "5"],
    ["brieskorn", "5", "3", "2", "2", "2", "--spectrum"],
    ["lattice", "3", "3"],
    ["spectrum", "5", "3", "2", "2", "2"],
    ["theta7", "2", "-1"],
    ["theta7", "0", "1", "--steps", "0", "1", "5"],
    ["sigma8", "2", "-1", "1"],
    ["fano", "3", "4"],
    ["isotropy", "1", "3"],
    ["hodge", "--branch", "unit"],
    ["hodge", "--branch", "nonunit"],
    ["kunneth", "--m", "3", "--k", "3"],
    ["family-report", "--start", "1", "--end", "3"],
]


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, out


def test_milnor_json_values(capsys):
    code, out = run_json(capsys, ["milnor", "2", "-1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["euler"] == 1
    assert doc["lambda"] == 1
    assert doc["pontryagin"] == 6
    assert doc["canonical"] == {"m": 1, "n": -2}
    assert doc["cohomology"] == [
        [0, {"free_rank": 1, "torsion": []}],
        [7, {"free_rank": 1, "torsion": []}],
    ]


def test_tdual_example(capsys):
    code, out = run_json(capsys, ["tdual", "--m", "3", "--k", "1", "--flux", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dual"] == {"bundle": {"m": 5, "n": -4}, "flux": 3}
    assert doc["correspondence_h7"] == {"free_rank": 1, "torsion": []}


def test_brieskorn_spectrum_min(capsys):
    code, out = run_json(capsys, ["brieskorn", "5", "3", "2", "2", "2", "--spectrum"])
    assert code == 0
    doc = json.loads(out)
    assert doc["spectrum_min"] == "61/30"
    assert doc["type"] == "Fano"
    assert doc["gorenstein"] == "31/30"
    assert doc["weights"] == [6, 10, 15, 15, 15]


def test_kunneth_flags_degree_five(capsys):
    code, out = run_json(capsys, ["kunneth", "--m", "3", "--k", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["torsion_degrees"] == [4, 5]
    assert "degree 5" in doc["metadata"]["note"] or "degree-4" in doc["metadata"]["note"]
    degrees = dict((d, g) for d, g in doc["cohomology"])
    assert degrees[4] == {"free_rank": 0, "torsion": [3]}
    assert degrees[5] == {"free_rank": 0, "torsion": [3]}


def test_hodge_counts(capsys):
    code, out = run_json(capsys, ["hodge", "--branch", "unit"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2


def test_family_report_rows(capsys):
    code, out = run_json(capsys, ["family-report", "--start", "1", "--end", "2"])
    assert code == 0
    doc = json.loads(out)
    assert [r["k"] for r in doc["rows"]] == [1, 2]
    assert all(r["type"] == "Fano" and r["mu_match"] for r in doc["rows"])
    assert doc["rows"][0]["gorenstein"] == "31/30"


def test_family_report_empty_range(capsys):
    assert run(["family-report", "--start", "5", "--end", "4"]) == 0


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
def test_json_round_trip_and_schema(capsys, argv):
    code, out = run_json(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert canonical_json(doc) == out.rstrip("\n")


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
def test_table_mode_exits_zero(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out


def test_domain_errors_exit_one(capsys):
    cases = [
        ["milnor", "2", "2", "--lambda"],  # not a homotopy sphere
        ["tdual", "--m", "2", "--k", "1", "--flux", "4", "--principal"],
        ["isotropy", "0", "3"],  # out of family
        ["isotropy", "1", "0"],  # invalid representation
        ["theta7", "0", "1", "--steps", "0", "2", "5"],  # unreachable
        ["family-report", "--start", "1", "--end", "30"],
    ]
    for argv in cases:
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err.startswith("error:"), argv


def test_step_count_at_large_order(capsys):
    order = 10**12
    base = ["theta7", "0", "1", "--order", str(order), "--steps"]
    assert run(base + ["0", "2", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: 1 not reachable from 0 by steps of 2 mod {order}\n"
    )
    code, out = run_json(capsys, base + ["5", "3", "2"])
    assert code == 0
    count = json.loads(out)["steps"]["count"]
    assert 0 <= count < order // gcd(3, order)
    assert (5 + count * 3) % order == 2


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    assert run(["milnor"]) == 2
    assert run(["hodge", "--branch", "weird"]) == 2
    capsys.readouterr()


def test_fano_rejects_group_options(capsys):
    assert run(["fano", "3", "--order", "0", "--coeff", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --order 0 --coeff 9" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["theta7", "1", "1", "--order", "0"],
        ["brieskorn", "1", "2"],
        ["spectrum", "2", "1", "--json"],
        ["lattice", "1", "3"],
    ],
    ids=" ".join,
)
def test_invalid_arguments_exit_two(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_negative_positionals_parse(capsys):
    assert run(["milnor", "-3", "4"]) == 0
    capsys.readouterr()
    _, out = run_json(capsys, ["milnor", "-3", "4"])
    assert json.loads(out)["euler"] == 1


# Characters that JSON escapes or that ASCII output must spell as \uXXXX.
AWKWARD = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9", "\u2028", "\U0001d11e"]
)
TEXT = st.text(AWKWARD | st.characters(), max_size=6)
INTS = st.integers(-(10**100), 10**100)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | TEXT
    | st.lists(st.booleans()) | st.lists(INTS | st.booleans()),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(TEXT, JSON_VALUES, max_size=4))
@example({})
@example({"empty": [], "nested": {"": {}, "x": [[], {}]}})
@example({"bits": [True, False], "mixed": [1, True, 0, False], "none": None})
@example({"big": [10**100, -(10**100)], "one": 10**100})
@example({'"\\\x00\u00e9\U0001d11e': '\x1f"\\\u2028'})
def test_canonical_json_matches_json_dumps(payload):
    assert canonical_json(payload) == canonical_json_oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [{"x": 1.0}, {"x": [1, 2.5]}, {"x": (1, 2)}, {"x": {1}}, {1: "x"}, {"x": {"y": {None: 1}}}],
    ids=["float", "float in list", "tuple", "set", "int key", "None key"],
)
def test_canonical_json_rejects_non_canonical_values(payload):
    with pytest.raises(TypeError):
        canonical_json(payload)


def test_build_parser_returns_one_shared_parser():
    assert cli.build_parser() is cli.build_parser()


# Requests whose state would leak into the next one if parsing kept any:
# an option set, then defaulted; --steps given, then absent; a usage error,
# then a valid request; --json, then table mode.
REUSE_SEQUENCE = [
    ["theta7", "1", "1", "--order", "5"],
    ["theta7", "1", "1"],
    ["theta7", "0", "1", "--steps", "0", "1", "5", "--json"],
    ["theta7", "0", "1", "--json"],
    ["milnor", "2"],
    ["milnor", "2", "-1"],
    ["kunneth", "--m", "3", "--k", "3", "--json"],
    ["kunneth", "--m", "3", "--k", "3"],
]


def test_shared_parser_matches_a_fresh_parser_per_request(monkeypatch):
    shared = [invoke(argv) for argv in REUSE_SEQUENCE]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [invoke(argv) for argv in REUSE_SEQUENCE]
    assert shared == fresh
    out = [entry["stdout"] for entry in shared]
    assert "in Z_5" in out[0] and "in Z_28" in out[1]
    assert "steps" in json.loads(out[2]) and "steps" not in json.loads(out[3])
    assert shared[4]["rc"] == 2 and out[4] == "" and shared[5]["rc"] == 0
    assert out[6].startswith("{") and out[7].startswith("H*(")


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv, code, stderr_lines",
    [
        (["milnor", "1", "0"], 0, 0),
        (["milnor", "1", "1", "--lambda"], 1, 1),
        (["brieskorn", "1", "2"], 2, 1),
    ],
    ids=["success", "domain error", "invalid argument"],
)
def test_module_entry_point_exit_status(argv, code, stderr_lines):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "exotic_invariants.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == stderr_lines
    assert all(line.startswith("error: ") for line in lines)
    assert bool(proc.stdout) == (code == 0)
