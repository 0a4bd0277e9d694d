"""The exact-int rule and the library-type rule are written once, in
`errors._require`: outside errors.py no library module names the builtin
`isinstance`, except `GradedGroups.__eq__`, which answers NotImplemented
to a value of another type, and `cli.run`, which picks the exit status by
the class of the error.  A request checks its inputs once, not once in
each module it passes through."""

import ast
import importlib
import pkgutil
from pathlib import Path

import exotic_invariants
from exotic_invariants import cli, errors

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ALLOWED = {("abelian.py", "GradedGroups.__eq__"), ("cli.py", "run")}


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


def test_a_kunneth_request_checks_its_inputs_once(monkeypatch, capsys):
    # The bound lies between one normalization per output degree (35
    # checks) and a group built and re-checked per pair of degrees (105).
    calls = []
    require = errors._require

    def counted(*args):
        calls.append(args)
        return require(*args)

    for info in pkgutil.iter_modules(exotic_invariants.__path__):
        module = importlib.import_module(f"exotic_invariants.{info.name}")
        if hasattr(module, "_require"):
            monkeypatch.setattr(module, "_require", counted)
    assert cli.run(["kunneth", "--m", "1", "--k", "3"]) == 0
    assert "H*(M(1,2) x S^1):" in capsys.readouterr().out
    assert 0 < len(calls) < 50
