"""Rules the package source keeps, checked on its syntax tree.

Certificate checks are explicit raises, so that they still run under
``python -O``, which strips every ``assert`` statement: the package holds
none.
"""

import ast
from pathlib import Path

import cuspidal

PACKAGE = Path(cuspidal.__file__).resolve().parent


def test_the_package_has_no_assert_statements():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"
