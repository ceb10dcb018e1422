"""Rules the package source keeps, checked on its syntax tree.

Certificate checks are explicit raises, so that they still run under
``python -O``, which strips every ``assert`` statement: the package holds
none.  The package factors every polynomial itself, so no module of it
imports sympy, which only the test oracle uses.  No module names numpy
either: complex roots are seeded from the Newton polygon in pure Python,
and the span search of ``oracle`` runs in Python floats.  The two older,
weaker numpy rules stay as well: none imports it when it loads, and none
but ``oracle`` names it.
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


def _load_time_nodes(tree):
    """The nodes of a module that run when it is imported: all but the
    bodies of its functions."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )


def test_the_package_has_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in the package: {found}"


def _imported(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def _importers(package):
    return [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if any(module.split(".")[0] == package for module in _imported(node))
    ]


def test_no_module_imports_sympy():
    found = _importers("sympy")
    assert found == [], f"sympy imports in the package: {found}"


def test_no_module_names_numpy():
    found = _importers("numpy")
    assert found == [], f"numpy imports in the package: {found}"


def test_no_module_imports_numpy_when_it_loads():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in _load_time_nodes(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if any(module.split(".")[0] == "numpy" for module in _imported(node))
    ]
    assert found == [], f"numpy imported at module level: {found}"


def test_only_the_oracle_names_numpy():
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if name != "oracle.py"
        and any(module.split(".")[0] == "numpy" for module in _imported(node))
    ]
    assert found == [], f"numpy imported outside oracle.py: {found}"
