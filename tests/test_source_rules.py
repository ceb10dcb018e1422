"""Rules the package source keeps, checked on its syntax tree.

Certificate checks are explicit raises, so that they still run under
``python -O``, which strips every ``assert`` statement: the package holds
none.  The package factors every polynomial itself, so no module of it
imports sympy, which only the test oracle uses.
"""

import ast
from pathlib import Path

import cuspidal

PACKAGE = Path(cuspidal.__file__).resolve().parent


def _nodes():
    """(file name, node) for every node of every module of the package."""
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def test_the_package_has_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in the package: {found}"


def _imported(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def test_no_module_imports_sympy():
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if any(module.split(".")[0] == "sympy" for module in _imported(node))
    ]
    assert found == [], f"sympy imports in the package: {found}"
