"""Every imported name is used by the module that imports it.

No linter ships with the package, so this walks the syntax trees of the
library and the test modules.  ``__init__.py`` files are exempt because their
imports are the package's re-exports, and so are ``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "bncells", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that the module never loads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return sorted(name for name in imported if name not in loaded)


def test_modules_found():
    names = {path.name for path in MODULES}
    assert {"group.py", "vogan.py", "test_vogan.py"} <= names


def test_guard_sees_an_unused_import():
    assert unused_imports("from a import b, c\nc()\n") == ["b"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import a.b\na.b.f()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
