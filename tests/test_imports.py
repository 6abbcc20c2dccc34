"""Every imported name is used, the library imports only the standard library,
and every library definition has a caller.

No linter ships with the package, so this walks the syntax trees of the
library and the test modules.  ``__init__.py`` files are exempt from the
unused-import check because their imports are the package's re-exports, and
so are ``__future__`` imports.

Only ``group.py`` reads the enumeration buffer ``window_bytes``, so the
byte encoding of a window value is known to one module.

A top-level function or class of the library, or a method or property of
one of its classes, is called when another definition of the library, a
script or the benchmark loads it.  None is left to the tests alone: a
helper that loses its last caller, or a new one written for tests alone,
fails here, and belongs in the tests.

No two of those definitions share a name.  A syntax tree does not say
what type ``x`` has in a load of ``x.name``, so the load is matched by the
name alone; with one definition per name it is matched exactly, and a
method with no caller cannot hide behind a namesake that has one.
"""

import ast
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bncells"
MODULES = sorted(
    path
    for folder in (PACKAGE, ROOT / "tests")
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


def non_stdlib_imports(source: str) -> list[str]:
    """Absolute imports in ``source`` of modules outside the standard library."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append(node.module)
    return sorted(
        m for m in modules if m.split(".")[0] not in sys.stdlib_module_names
    )


def test_dependency_guard_sees_a_third_party_import():
    assert non_stdlib_imports("import numpy\n") == ["numpy"]
    assert non_stdlib_imports("from numpy.linalg import det\n") == ["numpy.linalg"]
    assert non_stdlib_imports("import os.path\nfrom . import group\n") == []
    assert non_stdlib_imports("from bncells import group\n") == ["bncells"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_no_runtime_dependencies_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []


# Reference code and the paper's statements live in the tests, so none is pinned.
CALLED_ONLY_BY_UNIT_TESTS: set[str] = set()


# each library module's source, by module name
LIBRARY = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def library_definitions(sources: dict[str, str]) -> dict[tuple[str, str], ast.AST]:
    """``(module, name)`` of every top-level function and class of ``sources``,
    and ``(module, "Class.name")`` of every method and property of a class.

    Dunder methods are left out, as the language calls them, and so are
    dataclass fields, which are not definitions.
    """
    out = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out[module, node.name] = node
            if isinstance(node, ast.ClassDef):
                out.update(
                    ((module, f"{node.name}.{item.name}"), item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not is_dunder(item.name)
                )
    return out


def loaded_definitions(source: str, module: str | None, definitions):
    """``((module, name), line)`` for each load of a library definition.

    A bare name resolves to ``module``'s own top-level definitions or through
    ``from .m import x`` and ``from bncells.m import x``; an attribute
    ``anything.x`` counts for the one definition, method or property named
    ``x``.
    """
    tree = ast.parse(source)
    bound = {name: (m, name) for m, name in definitions if m == module and "." not in name}
    by_attribute = {key[1].rpartition(".")[2]: key for key in definitions}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.level or node.module.startswith("bncells.")
        ):
            m = node.module.rpartition(".")[2]
            bound.update({a.asname or a.name: (m, a.name) for a in node.names})
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            key = bound.get(node.id)
        elif isinstance(node, ast.Attribute):
            key = by_attribute.get(node.attr)
        else:
            continue
        if key in definitions:
            yield key, node.lineno


def shared_names(definitions) -> list[str]:
    """The names that more than one of ``definitions`` bears."""
    names = [name.rpartition(".")[2] for _, name in definitions]
    return sorted({name for name in names if names.count(name) > 1})


def test_no_two_library_definitions_share_a_name():
    clash = {
        "a": "def size():\n    pass\n",
        "b": "class C:\n    def size(self):\n        pass\n",
    }
    assert shared_names(library_definitions(clash)) == ["size"]
    assert shared_names(library_definitions(LIBRARY)) == []


def lacking_a_caller(library: dict[str, str], outside: list[str]) -> set[str]:
    """``module.name`` of each definition of ``library`` that no caller loads.

    The callers are the library modules themselves, where a load inside the
    definition's own body does not count, and the ``outside`` sources.
    """
    definitions = library_definitions(library)
    callers = [*library.items(), *((None, source) for source in outside)]
    called = set()
    for module, source in callers:
        for key, line in loaded_definitions(source, module, definitions):
            node = definitions[key]
            if key[0] != module or not node.lineno <= line <= node.end_lineno:
                called.add(key)
    return {f"{m}.{name}" for m, name in definitions.keys() - called}


def called_only_by_unit_tests() -> set[str]:
    """Library definitions that neither the library, a script nor the benchmark loads."""
    outside = [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
    return lacking_a_caller(LIBRARY, [path.read_text(encoding="utf-8") for path in outside])


def test_only_the_pinned_definitions_lack_a_caller_outside_unit_tests():
    assert called_only_by_unit_tests() == CALLED_ONLY_BY_UNIT_TESTS


def window_bytes_loads(source: str, module: str) -> list[int]:
    """Lines of ``source`` (module ``module``) that load ``group.window_bytes``."""
    return [
        line
        for key, line in loaded_definitions(source, module, library_definitions(LIBRARY))
        if key == ("group", "window_bytes")
    ]


def test_buffer_guard_sees_a_load():
    by_name = "from .group import window_bytes\nwindow_bytes(3)\n"
    by_attribute = "from . import group\nbuf = group.window_bytes(3)\n"
    through_columns = "from .group import window_columns\nwindow_columns(3)\n"
    assert window_bytes_loads(by_name, "vogan") == [2]
    assert window_bytes_loads(by_attribute, "knuth") == [2]
    assert window_bytes_loads(through_columns, "area") == []


def test_caller_guard_flags_a_definition_with_no_outside_caller():
    library = {
        "a": "def used():\n    pass\n\n\ndef for_tests(k):\n    return for_tests(k - 1)\n",
        "b": "from .a import used\nused()\n",
    }
    assert lacking_a_caller(library, []) == {"a.for_tests"}
    script = "from bncells.a import for_tests\nfor_tests(3)\n"
    assert lacking_a_caller(library, [script]) == set()


def test_caller_guard_flags_a_method_with_no_outside_caller():
    library = {
        "a": (
            "class C:\n"
            "    size: int\n"
            "    def __init__(self):\n        self.size = 0\n"
            "    @property\n    def used(self):\n        return self.size\n"
            "    def for_tests(self, k):\n        return self.for_tests(k - 1)\n"
        ),
        "b": "from .a import C\nC().used\n",
    }
    assert lacking_a_caller(library, []) == {"a.C.for_tests"}
    script = "from bncells.a import C\nC().for_tests(3)\n"
    assert lacking_a_caller(library, [script]) == set()


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "group.py"],
    ids=lambda path: path.name,
)
def test_only_group_reads_the_enumeration_buffer(path):
    assert window_bytes_loads(path.read_text(encoding="utf-8"), path.stem) == []
