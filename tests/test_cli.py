import argparse
import enum
import json
import os
import shlex
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exotic_invariants import brieskorn as bk
from exotic_invariants import cli
from exotic_invariants.cli import canonical_json, rational_str, run
from exotic_invariants.snf import IntMatrix
from oracles import canonical_json_oracle, cli_run_oracle, fraction_sum_spectrum
from test_cli_goldens import SUBCOMMANDS, invoke

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


class Exponent(enum.IntEnum):
    TWO = 2


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
# Ints about the range that canonical_json writes from its decimal table,
# both ends and just past them included.
SMALL_INTS = st.integers(-1100, 1100)


@st.composite
def sparse_int_lists(draw, sizes=st.integers(1, 12)):
    """Int lists of a size drawn from sizes, at most 3 of their items
    nonzero (from both ranges above), as a family gram row is:
    canonical_json writes a list more than half of whose items are 0 by
    zero runs."""
    items = [0] * draw(sizes)
    for _ in range(draw(st.integers(0, min(3, len(items))))):
        items[draw(st.integers(0, len(items) - 1))] = draw(SMALL_INTS | INTS)
    return items


@st.composite
def int_matrices(draw):
    """IntMatrix values of 0 to 4 rows and 0 to 6 columns, each row dense
    or mostly zeros, with ints from inside and outside the decimal table."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    dense = st.lists(SMALL_INTS | INTS, min_size=cols, max_size=cols)
    row = dense | sparse_int_lists(st.just(cols))
    return IntMatrix(rows, cols, tuple(x for _ in range(rows) for x in draw(row)))


def matrices_as_lists(value):
    """value with each IntMatrix in it replaced by its rows as lists."""
    if type(value) is IntMatrix:
        return value.to_lists()
    if type(value) is list:
        return [matrices_as_lists(item) for item in value]
    if type(value) is dict:
        return {key: matrices_as_lists(item) for key, item in value.items()}
    return value


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | SMALL_INTS | TEXT
    | st.lists(st.booleans()) | st.lists(INTS | st.booleans())
    | st.lists(SMALL_INTS) | st.lists(SMALL_INTS | INTS | st.booleans())
    | sparse_int_lists(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(TEXT, JSON_VALUES, max_size=4))
@example({})
@example({"empty": [], "nested": {"": {}, "x": [[], {}]}})
@example({"bits": [True, False], "mixed": [1, True, 0, False], "none": None})
@example({"big": [10**100, -(10**100)], "one": 10**100})
@example({'"\\\x00\u00e9\U0001d11e': '\x1f"\\\u2028'})
@example({"gram": [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]], "zeros": [0] * 40})
@example({"x": [1, True], "y": [[2, 0], [0, True]], "z": [[2, 0], [0, 1]]})
@example({"big": [10**100, 10**100, -(10**100), -(10**100), 10**100]})
@example({"ends": [-1025, -1024, 1024, 1025], "inside": [-1024, -1, 0, 1, 1024]})
@example({"first out": [10**30, 3], "last out": [3, 0, -(10**30)]})
@example({"runs": [0, 0, 5, 0, 0], "ends": [-1, 0, 0, 0, 7], "one": [0], "half": [0, 1, 0, 1]}).via(
    "zero runs at both ends, a single zero, and half zeros (the table join)"
)
@example({"far": [0, 10**30, 0, 0, -1025, 0, 0], "near": [0, 0, 1024, 0, -1024]}).via(
    "ints outside the decimal table between zero runs"
)
@example({"x": [0, 0, False, 0]}).via("False among zeros is written as false")
@example({"x": [0, 0, 0.0, 0]}).via("0.0 among zeros is a float").xfail(raises=TypeError)
@example({"gram": IntMatrix.from_rows([[True, 0, 0, 0]]).to_lists()}).via(
    "IntMatrix stores a bool entry as the int 0 or 1, so its rows hold 1, not True"
)
def test_canonical_json_matches_json_dumps(payload):
    assert canonical_json(payload) == canonical_json_oracle(payload)


@given(
    st.dictionaries(
        TEXT,
        st.recursive(
            int_matrices() | JSON_VALUES,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
            max_leaves=6,
        ),
        max_size=4,
    )
)
@example({"a": IntMatrix.zero(0, 0), "b": IntMatrix.zero(0, 3), "c": IntMatrix.zero(3, 0)}).via(
    "empty shapes"
)
@example({"one": IntMatrix.from_rows([[7]]), "zero": IntMatrix.from_rows([[0]])}).via("1 x 1")
@example(
    {"big": IntMatrix.from_rows([[10**30]]), "col": IntMatrix.from_rows([[-1025], [0], [1025]])}
).via("one-entry rows outside the decimal table: a one-item tuple's repr ends in a comma")
@example(
    {"far": IntMatrix.from_rows([[0, 10**30, 0, 0], [0, 0, 0, -1025], [3, 10**30, -1, 5]])}
).via("ints outside the decimal table among zeros and in a dense row")
@example(
    {"gram": [IntMatrix.identity(3), {"bool": IntMatrix.from_rows([[True, 0, 0]])}], "x": [0, False]}
).via("matrices nested in a list and a dict, one built from a bool")
def test_canonical_json_writes_a_matrix_as_its_rows(payload):
    assert canonical_json(payload) == canonical_json_oracle(matrices_as_lists(payload))


@pytest.mark.parametrize(
    "payload",
    [
        {"x": 1.0},
        {"x": [1, 2.5]},
        {"x": [1, 2.0]},
        {"x": (1, 2)},
        {"x": {1}},
        {1: "x"},
        {"x": {"y": {None: 1}}},
        {"x": [1, Exponent.TWO, 3]},
    ],
    ids=[
        "float", "float in list", "integral float in list", "tuple", "set",
        "int key", "None key", "IntEnum in int list",
    ],
)
def test_canonical_json_rejects_non_canonical_values(payload):
    with pytest.raises(TypeError):
        canonical_json(payload)


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "5", "3", "2", "2", "2"],
        ["lattice", "2", "2", "2", "3", "5"],
        ["lattice", "167", "3", "2", "2", "2"],
        # The factor order that lattice-render draws moves the zero runs.
        ["lattice", "2", "2", "167", "2", "3"],
        ["brieskorn", "7", "9", "3", "11", "8", "--spectrum"],
    ],
    ids=" ".join,
)
def test_large_payloads_match_json_dumps(capsys, argv):
    code, out = run_json(capsys, argv)
    assert code == 0
    assert out == canonical_json_oracle(json.loads(out)) + "\n"


def test_oversized_requests_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(bk, "MAX_ENTRIES", 16)
    for argv in (["lattice", "4", "3"], ["spectrum", "5", "6"], ["brieskorn", "5", "6", "--spectrum"]):
        assert run(argv + ["--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the ") and err.count("\n") == 1
    assert run(["brieskorn", "5", "6", "--json"]) == 0


def test_oversized_spectrum_is_refused_before_other_work(capsys, monkeypatch):
    monkeypatch.setattr(bk, "MAX_ENTRIES", 16)
    monkeypatch.setattr(bk.BrieskornPham, "weights_and_degree", None)  # runs after the guard
    for argv in (["spectrum", "5", "6", "--json"], ["brieskorn", "5", "6", "--spectrum"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the spectrum of (5,6) has 20 entries, above the limit of 16\n"


@given(st.lists(st.integers(2, 7), min_size=1, max_size=4).map(tuple))
def test_spectrum_text_matches_fraction_oracle(exps):
    texts = cli.spectrum_json(bk.BrieskornPham(exps))
    assert texts == [rational_str(v) for v in fraction_sum_spectrum(exps)]


def test_integer_spectrum_values_are_written_over_one():
    assert cli.spectrum_json(bk.BrieskornPham.of(3, 3)) == ["2/3", "1/1", "1/1", "4/3"]
    assert cli.spectrum_json(bk.BrieskornPham.of(2, 2, 2, 2)) == ["2/1"]


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


def _option_strings_and_prefixes(parser):
    """Every option string of parser, and each prefix of a long one that
    argparse may expand to it: "--s", "--sp", ... "--spectrum"."""
    tokens = set()
    for action in parser._actions:
        for option in action.option_strings:
            tokens.update(option[:end] for end in range(3, len(option) + 1))
            tokens.add(option)
    return sorted(tokens)


SUBPARSERS = cli.build_parser().subcommands
OPTIONS = {name: _option_strings_and_prefixes(p) for name, p in SUBPARSERS.items()}
ALL_OPTIONS = sorted(set().union(*OPTIONS.values()))
NAMES = SUBCOMMANDS + ["frobnicate", "mil", "family_report", "Milnor", ""]
FLAGS = ["-h", "--help", "--json", "--"]
JUNK = st.sampled_from(["x", "-", "-x", "--x", "1.5", "1e3", "0x1", "--json=1", "-j", "=", " "])
INT_TOKENS = st.integers(-9, 9).map(str)


@st.composite
def argvs(draw):
    """An argv of at most one top-level flag (one draw in four), at most one
    name and up to 5 more tokens: ints from -9 to 9 (twice as likely as any
    other kind), the named subcommand's own option strings and their
    prefixes, any subcommand's, the flags, names, the hodge branches and
    junk."""
    head = draw(st.sampled_from([[]] * 12 + [[flag] for flag in FLAGS]))
    name = draw(st.sampled_from(NAMES + [None]))
    own = OPTIONS.get(name, ALL_OPTIONS)
    tokens = (
        INT_TOKENS
        | INT_TOKENS
        | st.sampled_from(own)
        | st.sampled_from(ALL_OPTIONS)
        | st.sampled_from(FLAGS + NAMES + ["unit", "nonunit"])
        | JUNK
        | st.text(max_size=3)
    )
    return head + ([] if name is None else [name]) + draw(st.lists(tokens, max_size=5))


@given(argvs())
@example([])
@example(["--", "milnor", "1", "2"])
@example(["milnor", "--", "-1", "2"])
@example(["theta7", "1", "2", "--st", "1", "2", "3", "--json"])
@example(["milnor", "1", "2", "-h"])
@example(["fano", "3", "--order", "0"])
@example(["tdual", "--m", "3", "--k", "1", "--flux", "5", "--principal"])
@example(["family-report", "--start", "1", "--end", "2", "--json"])
def test_run_matches_the_top_level_parser_route(argv):
    """Whatever argv is, `run` answers with the exit code, stdout and stderr
    of parsing all of it with the top-level parser, and never escapes with a
    traceback."""
    expected = invoke(argv, cli_run_oracle)
    assert invoke(argv) == expected
    assert expected["rc"] in (0, 1, 2) and "Traceback" not in expected["stderr"]


def test_every_subcommand_has_a_payload_and_a_table():
    (subparsers,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(subparsers.choices) == SUBCOMMANDS
    assert cli.build_parser().subcommands is subparsers.choices
    for name in (choice.replace("-", "_") for choice in subparsers.choices):
        assert callable(getattr(cli, f"cmd_{name}"))
        assert callable(getattr(cli, f"{name}_table"))


def test_run_calls_the_functions_bound_at_call_time(monkeypatch):
    assert invoke(["milnor", "1", "0"])["rc"] == 0  # the shared parser exists now
    monkeypatch.setattr(cli, "cmd_milnor", lambda args: {"replaced": [args.m, args.n]})
    monkeypatch.setattr(cli, "milnor_table", lambda p: f"replaced {p['replaced']}")
    assert invoke(["milnor", "1", "0"])["stdout"] == "replaced [1, 0]\n"
    doc = json.loads(invoke(["milnor", "1", "0", "--json"])["stdout"])
    assert doc == {"replaced": [1, 0], "schema_version": cli.SCHEMA_VERSION}


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


def test_closed_stdout_exits_one_without_traceback():
    """The reader closes the pipe after a few bytes of a lattice payload of
    about 1 MB, more than a pipe buffer holds, so the CLI's writes fail."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["lattice", "167", "3", "2", "2", "2", "--json"]
    with subprocess.Popen(
        [sys.executable, "-m", "exotic_invariants.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(16)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert stderr == ""  # no traceback, no error line


README = Path(__file__).resolve().parent.parent / "README.md"
README_EXAMPLES = [
    shlex.split(line, comments=True)
    for line in README.read_text().splitlines()
    if line.startswith("exotic-invariants ")
]


def test_readme_lists_cli_examples():
    assert len(README_EXAMPLES) == 13


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=shlex.join)
def test_readme_cli_examples_exit_zero(capsys, argv):
    assert run(argv[1:]) == 0, capsys.readouterr().err
