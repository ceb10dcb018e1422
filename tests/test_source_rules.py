"""Rules the package source keeps, checked on its syntax tree.

Certificate checks are explicit raises, so that they still run under
``python -O``, which strips every ``assert`` statement: the package holds
none.  The package finds every rational root itself, so no module of it
imports sympy, which only the test oracle uses.  A zero scheme stops at its
rational points and one square-free cofactor per multiplicity, so no
module imports ``itertools.combinations``, the subset recombination of an
irreducible split, and ``ratfactor`` imports nothing from ``random``.  No module names numpy
either: complex roots are seeded from the Newton polygon in pure Python,
and the span search of ``oracle`` runs in Python floats.  The two older,
weaker numpy rules stay as well: none imports it when it loads, and none
but ``oracle`` names it.  Every function of the package has a caller in
the package or the benchmark, or a stated reason to be public: code that
only tests call lives in ``tests/oracles.py``.  No kernel of the package is
found by elimination, so no code of it names ``nullspace`` or
``_bareiss``, which ``tests/oracles.py`` keeps as the reference; and the
special lambda of the fiber scan come from the closed form in degrees 1
and 2, so ``projection`` names no ``primitive_factors``.
Polynomials have one exact format, the primitive integer vector: ``univar``
names no ``Fraction``, and it alone defines the primitive part.
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


def test_no_subset_recombination_or_randomized_split():
    """No module imports ``combinations`` from ``itertools``, and
    ``ratfactor`` imports nothing from ``random``: a zero scheme needs no
    irreducible split, whose recombination is exponential in the degree."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if (isinstance(node, ast.ImportFrom) and node.module == "itertools"
            and any(alias.name == "combinations" for alias in node.names))
        or (name == "ratfactor.py"
            and any(module.split(".")[0] == "random" for module in _imported(node)))
    ]
    assert found == [], f"subset recombination or random splits in the package: {found}"


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
    tracer's layer names ("projection.x_rank").  Docstrings and
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


def _namers(names, module=None):
    """file:line of each node of the package, or of one module, that names
    one of names: a definition, or an identifier in the sense of
    ``_named``."""
    found = set()
    for file, node in _nodes():
        if module is not None and file != f"{module}.py":
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            named = {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.Constant)):
            named = set(_named(node))
        else:
            continue
        if named & set(names):
            found.add(f"{file}:{node.lineno}")
    return sorted(found)


def test_no_code_names_nullspace_or_bareiss():
    """No code of the package defines or names ``nullspace`` or
    ``_bareiss``: every kernel is read off the structure the mathematics
    gives, the span search's moment kernel off the apolar ideal of B''."""
    found = _namers({"nullspace", "_bareiss"})
    assert found == [], f"kernel elimination in the package: {found}"


def test_projection_names_no_primitive_factors():
    """The special lambda of a level are the roots of a polynomial of
    degree 1 or 2, read off the closed form, not ``primitive_factors``."""
    found = _namers({"primitive_factors"}, "projection")
    assert found == [], f"primitive_factors in projection: {found}"


def test_univar_names_no_fraction():
    """``univar`` works in primitive integers: it imports nothing from
    ``fractions`` and names no ``Fraction``."""
    tree = ast.parse((PACKAGE / "univar.py").read_text(encoding="utf-8"))
    imports = [m for node in ast.walk(tree) for m in _imported(node)]
    assert not [m for m in imports if m.split(".")[0] == "fractions"]
    assert "Fraction" not in set(_named(tree))


def test_only_univar_defines_the_primitive_part():
    """A function named ``primitive`` or ``_primitive`` is defined in
    ``univar`` only; every other module calls ``univar.primitive``."""
    found = {
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.lstrip("_") == "primitive"
    }
    assert len(found) == 1 and found.pop().startswith("univar.py:")
