"""The exact-int rule and the library-type rule are written once, in
`errors._require`: outside errors.py no library module names the builtin
`isinstance`, except `cli.run`, which picks the exit status by the class
of the error.  A request checks its inputs once, not once in each module
it passes through, and a value the library built is not checked again."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import exotic_invariants
from exotic_invariants import cli, errors

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ALLOWED = {("cli.py", "run")}


def isinstance_sites(source):
    """Sorted (line, enclosing qualified name) of the lines of `source`
    that name `isinstance`, as a call or as a value."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, SCOPES) else scope
            if isinstance(child, ast.Name) and child.id == "isinstance":
                sites.add((child.lineno, ".".join(inner)))
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(sites)


def test_isinstance_sites_finds_calls_and_references_only():
    source = (
        "def f(x):\n"
        "    return isinstance(x, int) and isinstance(x, bool)\n"
        "class C:\n"
        "    def g(self, xs):\n"
        "        return all(map(isinstance, xs, [int] * len(xs)))\n"
        "s = 'isinstance(x, int)'  # isinstance(\n"
    )
    assert isinstance_sites(source) == [(2, "f"), (5, "C.g")]


def test_type_checks_live_in_errors_only():
    package = Path(exotic_invariants.__file__).parent
    found = [
        f"{path.name}:{line} {scope}"
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for line, scope in isinstance_sites(path.read_text())
        if (path.name, scope) not in ALLOWED
    ]
    assert found == []


@pytest.fixture
def checks(monkeypatch):
    """The arguments of each `_require` call made in the test, in order."""
    calls = []
    require = errors._require

    def counted(*args):
        calls.append(args)
        return require(*args)

    for info in pkgutil.iter_modules(exotic_invariants.__path__):
        module = importlib.import_module(f"exotic_invariants.{info.name}")
        if hasattr(module, "_require"):
            monkeypatch.setattr(module, "_require", counted)
    return calls


def test_a_kunneth_request_checks_its_inputs_once(checks, capsys):
    # 15 checks: the two integers, the circle's dimension, the two graded
    # groups, and two for the normalization of each of the six output
    # degrees.  Re-checking what the library built (at `GradedGroups`, and
    # the table's rebuilt groups) made 35; checking the bundle as it went
    # from `MilnorBundle` to its cohomology, and its degree-4 group, 19.
    for form in ([], ["--json"]):
        checks.clear()
        assert cli.run(["kunneth", "--m", "1", "--k", "3", *form]) == 0
        assert 0 < len(checks) <= 15
    assert "H*(M(1,2) x S^1):" in capsys.readouterr().out


# At most `bound` checks in table and --json form, and none when the
# bound is 0.  The tables made 18 and 14 when the values they rebuild to
# print were checked again; the Brieskorn invariants, as functions that
# each checked the singularity, made 10 and 168; the diamonds, built
# through the public `from_entries`, made 20.  The bundle and
# representation invariants, as functions that checked their value again,
# and the link family, built through the public constructor on each call,
# made 4, 5, 4, 56, 8 and 5 for the milnor, milnor-torsion, brieskorn,
# family-report, fano and isotropy rows.  The report, reading each member
# through `milnor_family` after its range check, made 28.
@pytest.mark.parametrize("form", [[], ["--json"]], ids=["table", "json"])
@pytest.mark.parametrize(
    "argv, bound",
    [
        (["tdual", "--m", "3", "--k", "1", "--flux", "5"], 8),
        (["milnor", "2", "-1"], 2),
        (["milnor", "3", "4"], 1),
        (["brieskorn", "5", "3", "2", "2", "2", "--spectrum"], 2),
        (["family-report", "--start", "1", "--end", "28"], 0),
        (["hodge", "--branch", "unit"], 0),
        (["fano", "3", "4"], 5),
        (["isotropy", "1", "3"], 3),
    ],
    ids=[
        "tdual", "milnor", "milnor-torsion", "brieskorn", "family-report", "hodge", "fano",
        "isotropy",
    ],
)
def test_a_request_checks_its_inputs_once(checks, argv, bound, form):
    assert cli.run(argv + form) == 0
    assert (0 < len(checks) <= bound) if bound else checks == []
