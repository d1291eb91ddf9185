"""Every module of the package uses each name it imports, and every
module-level private function or class is referenced by package code other
than its own definition (stdlib `ast` scans). `__init__.py` is exempt from
the first: its imports are the public API."""

import ast
from pathlib import Path

import pytest

import bigrule

PACKAGE = sorted(Path(bigrule.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "from .errors import ParseError, SafetyError\nimport re\nraise ParseError(re)\n"
    assert unused_imports(source) == ["SafetyError (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_definitions(sources: list[str]) -> list[str]:
    """Module-level `_name` functions and classes that no code refers to
    (by name, attribute or import) outside their own definition."""
    defined: list[str] = []
    referenced: set[str] = set()
    for source in sources:
        for statement in ast.parse(source).body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                if statement.name.startswith("_") and not statement.name.startswith("__"):
                    own = statement.name
                    defined.append(own)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return [name for name in defined if name not in referenced]


def test_scan_finds_an_unreferenced_private_definition():
    sources = [
        "def _walk(t):\n    return _walk(t)\nclass _Kept: pass\ndef _used(): pass\n",
        "from .a import _Kept\nimport a\na._used()\n",
    ]
    assert unreferenced_private_definitions(sources) == ["_walk"]


def test_package_references_every_private_definition():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert unreferenced_private_definitions(sources) == []
