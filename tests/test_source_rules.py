"""Rules the package source keeps, checked on its syntax tree.

Certificate checks are explicit raises, so that they still run under
``python -O``, which strips every ``assert`` statement: the package holds
none.  The package factors every polynomial itself, so no module of it
imports sympy, which only the test oracle uses.  No module names numpy
either: complex roots are seeded from the Newton polygon in pure Python,
and the span search of ``oracle`` runs in Python floats.  The two older,
weaker numpy rules stay as well: none imports it when it loads, and none
but ``oracle`` names it.  Every function of the package has a caller in
the package or the benchmark, or a stated reason to be public: code that
only tests call lives in ``tests/oracles.py``.  Only the functions listed
in ``NULLSPACE_CALLERS``, each with its reason, name ``linalg.nullspace``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import cuspidal

PACKAGE = Path(cuspidal.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"

# functions no code of the package or the benchmark calls, kept public
PUBLIC_UNCALLED = {
    "o_in_span": "the classifier's dual-route span test, a library entry point the README names",
    "classify_e3": "the border-gap classification alone, a library entry point the README names",
    "classify_e4": "the reduced-set classification alone, a library entry point the README names",
}

# the functions of the package that may call linalg.nullspace; every other
# kernel is built from the structure the mathematics gives
NULLSPACE_CALLERS = {
    "projection._Pencil.kernel_at": "the 2 x dim K block of the pencil at one lambda, dim K <= 4 at w_gen",
    "oracle._moment_seeds": "the moment rows of the numeric span search, which leaves the package",
}


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


def _named(tree):
    """Each identifier the code of tree names: a variable, an attribute, an
    imported name, and each part of a dotted string such as the benchmark
    tracer's layer names ("projection.special_lambdas").  Docstrings and
    other prose are not dotted names, so they name nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)+", node.value)):
            yield from node.value.split(".")


def test_every_function_has_a_caller_outside_the_tests():
    """Every function and method of the package but the dunders is named in
    the package or the benchmark outside its own definition, or is listed in
    ``PUBLIC_UNCALLED`` with its reason; a listed function that gains a
    caller, or goes, leaves the list."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.rglob("*.py")) + sorted(BENCH.rglob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _named(tree))
    uncalled = {
        node.name: f"{path.name}:{node.lineno}"
        for path, tree in trees.items() if PACKAGE in path.parents
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == Counter(_named(node))[node.name]
    }
    only_tests = sorted(f"{where} {name}" for name, where in uncalled.items()
                        if name not in PUBLIC_UNCALLED)
    assert only_tests == [], f"functions only tests call: {only_tests}"
    assert sorted(PUBLIC_UNCALLED) == sorted(uncalled)


def _owners(tree, owner):
    """(owner, node) for each node of tree below it, the owner being the
    dotted name of the innermost class or function around the node."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _owners(child, f"{owner}.{child.name}")
        else:
            yield owner, child
            yield from _owners(child, owner)


def test_only_the_listed_functions_call_nullspace():
    """A function of the package that names ``nullspace`` is listed in
    ``NULLSPACE_CALLERS``, and a listed function names it."""
    found = {
        owner
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, node in _owners(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and "nullspace" in _named(node)
    }
    assert sorted(found) == sorted(NULLSPACE_CALLERS)
