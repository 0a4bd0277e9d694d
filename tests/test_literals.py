"""The order of bP_8 is derived once, as `brieskorn.BP8_ORDER`: outside
docstrings no library module writes 28, or the 29 that ends a range up to
it, as a literal."""

import ast
import re
from pathlib import Path

import exotic_invariants

WRITTEN = re.compile(r"(?<!\d)(28|29)(?!\d)")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def written_orders(source):
    """Line numbers of the non-docstring constants in `source` that
    contain 28 or 29 as a whole number."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and id(node) not in docstrings
        and WRITTEN.search(str(node.value))
    ]


def test_written_orders_finds_numbers_and_messages_only():
    source = '"""Order 28."""\nN = 28\nr = range(1, 29)\nm = f"1..28, got {N}"\nx = 128\n'
    assert written_orders(source) == [2, 3, 4]


def test_no_literal_bp8_order_in_src():
    package = Path(exotic_invariants.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        for line in written_orders(path.read_text())
    ]
    assert found == []
