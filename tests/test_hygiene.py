"""Source hygiene: no module imports a name it never uses, and the package
defines nothing it never reads.

Plain AST scans, no linter needed.  An import counts as used when the name is
read anywhere in the module, including annotations and `__all__`; the package
`__init__` is skipped, because its imports are the public re-exports.  A
top-level definition in `src/omlat` counts as used when `omlat.__all__`
exports it or when some module of the package reads it as a name, an
attribute or an import.  A function nested in a package function counts as
used when the enclosing function reads its name outside the nested body, so
a helper that only calls itself, or that nothing calls, shows.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import omlat

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "omlat").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "omlat").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_scan_finds_an_unused_import():
    source = "import os\nfrom x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(sources: dict[str, str], exported) -> list[str]:
    """Top-level functions, classes and assignments that no source reads."""
    defined: list[tuple[str, int, str]] = []
    read: set[str] = set(exported)
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(
                    (module, node.lineno, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(
        f"{module} line {line}: {name}"
        for module, line, name in defined
        if name not in read and not name.startswith("__")
    )


def test_scan_finds_a_dead_definition():
    sources = {
        "a": "def f(): pass\ndef g(): pass\nclass C: pass\nX, Y = 1, 2\nZ: int = 3\n",
        "b": "from a import g\nimport a\nprint(a.C, X)\n__all__ = []\n",
    }
    assert dead_definitions(sources, {"f"}) == [
        "a line 4: Y",
        "a line 5: Z",
    ]


def test_no_dead_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert dead_definitions(sources, omlat.__all__) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dead_nested_functions(source: str) -> list[str]:
    """Nested functions whose enclosing function never reads them, apart
    from reads inside their own body."""
    dead = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, FUNCTIONS):
                continue
            own = {id(node) for node in ast.walk(inner)}
            if not any(
                isinstance(node, ast.Name) and node.id == inner.name and id(node) not in own
                for node in ast.walk(outer)
            ):
                dead.add(f"line {inner.lineno}: {inner.name}")
    return sorted(dead)


def test_scan_finds_a_dead_nested_function():
    source = (
        "def f():\n"
        "    def used(): return 1\n"
        "    def unused(): return used()\n"
        "    def loop(k): return loop(k - 1)\n"
        "    def outer_helper():\n"
        "        def inner(): pass\n"
        "    return used()\n"
    )
    assert dead_nested_functions(source) == [
        "line 3: unused",
        "line 4: loop",
        "line 5: outer_helper",
        "line 6: inner",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"omlat/{p.name}")
def test_no_dead_nested_functions(path):
    assert dead_nested_functions(path.read_text(encoding="utf-8")) == []
