"""Every module of the package, the tests and the benchmark (`perfbench/`,
read only) uses each name it imports, no package module reads a private
name of another, every module-level private function, class or constant is
referenced by package code other than its own definition, every public one
has a reader in the package or the benchmark, every public method or
property of a package class is read as an attribute in the package, no
package or benchmark module asserts (a broken invariant raises
`InternalError`, which the command line reports without a traceback), and
every function that calls itself has a cap on its depth (stdlib `ast`
scans). `__init__.py` is exempt from the first: its imports are the public
API."""

import ast
from pathlib import Path

import pytest

import bigrule

PACKAGE = sorted(Path(bigrule.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
BENCH_PIPELINE = Path(__file__).parent.parent / "perfbench" / "pipeline.py"


def _path_id(path: Path) -> str:
    return f"perfbench/{path.name}" if path in BENCH else path.name


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


@pytest.mark.parametrize("path", MODULES + TESTS + BENCH, ids=_path_id)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_names_of_other_modules(source: str) -> list[str]:
    """Private names the module reads from other package modules: `from .m
    import _x`, and `m._x` with `m` bound by `from . import m`. A private
    attribute of a class, such as `GroundProgram._trusted`, is not one."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found: list[tuple[int, int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                found += [
                    (node.lineno, node.col_offset, f"from .{node.module} import {alias.name}")
                    for alias in node.names
                    if _private(alias.name)
                ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append((node.lineno, node.col_offset, f"{node.value.id}.{node.attr}"))
    return [f"{text} (line {line})" for line, _, text in sorted(found)]


def test_scan_finds_private_names_of_other_modules():
    source = (
        "from . import parse as p, oracle\n"
        "from .syntax import Rule, _scc_index, __doc__\n"
        "def _own(): pass\n"
        "p._clip(oracle.ground, oracle._Plan.__init__, Rule._trusted, _own())\n"
    )
    assert private_names_of_other_modules(source) == [
        "from .syntax import _scc_index (line 2)",
        "p._clip (line 4)",
        "oracle._Plan (line 4)",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another_module(path):
    assert private_names_of_other_modules(path.read_text(encoding="utf-8")) == []


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)
ASSIGNMENTS = (ast.Assign, ast.AnnAssign)


def _definitions_and_references(sources: list[str], kinds, wanted) -> tuple[list[str], set[str]]:
    """The module-level names for which `wanted(name)` holds, defined by
    statements of the given kinds, and every name that code refers to (by
    name, attribute or import) outside the definition of that name."""
    defined: list[str] = []
    referenced: set[str] = set()
    for source in sources:
        for statement in ast.parse(source).body:
            if not isinstance(statement, kinds):
                names = []
            elif isinstance(statement, DEFINITIONS):
                names = [statement.name]
            else:
                targets = getattr(statement, "targets", None) or [statement.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            own = {name for name in names if wanted(name)}
            defined += sorted(own)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    referenced.add(name)
    return defined, referenced


def unreferenced_private_definitions(sources: list[str]) -> list[str]:
    """Module-level `_name` functions, classes and constants (`_NAME = ...`)
    that no code refers to (by name, attribute or import) outside their own
    definition."""
    defined, referenced = _definitions_and_references(
        sources, DEFINITIONS + ASSIGNMENTS, _private
    )
    return [name for name in defined if name not in referenced]


def test_scan_finds_an_unreferenced_private_definition():
    sources = [
        "def _walk(t):\n    return _walk(t)\nclass _Kept: pass\ndef _used(): pass\n",
        "from .a import _Kept\nimport a\na._used()\n",
    ]
    assert unreferenced_private_definitions(sources) == ["_walk"]


def test_scan_finds_an_unreferenced_private_constant():
    sources = [
        "_GROUND_TERMS = (int, str)\n_INT, _SYM = 0, 1\n_LIMIT: int = 3\n__version__ = '1'\n",
        "from .a import _INT\nTABLE = {_LIMIT: _SYM}\n",
    ]
    assert unreferenced_private_definitions(sources) == ["_GROUND_TERMS"]


def test_package_references_every_private_definition():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert unreferenced_private_definitions(sources) == []


def bench_readers(source: str) -> set[str]:
    """Library names the benchmark pipeline reads: the keys of `LAYER_OF`,
    the entries of `TREEDECOMP_NAMES`, and `from bigrule... import` names."""
    names: set[str] = set()
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.ImportFrom) and (statement.module or "").startswith("bigrule"):
            names.update(alias.name for alias in statement.names)
        elif isinstance(statement, ast.Assign) and isinstance(statement.targets[0], ast.Name):
            target = statement.targets[0].id
            if target == "LAYER_OF":
                names.update(key.value for key in statement.value.keys)
            elif target == "TREEDECOMP_NAMES":
                names.update(entry.value for entry in statement.value.elts)
    return names


def unread_public_definitions(sources: list[str], bench: str) -> list[str]:
    """Module-level public functions and classes that no package code refers
    to outside their own definition, and that the benchmark pipeline does not
    read. `sources` leaves out `__init__.py`: a re-export is not a reader."""
    defined, referenced = _definitions_and_references(
        sources, DEFINITIONS, lambda name: not _private(name)
    )
    readers = referenced | bench_readers(bench)
    return [name for name in defined if name not in readers]


def test_scan_finds_an_unread_public_definition():
    sources = [
        "def walk(t):\n    return walk(t)\nclass Kept: pass\ndef used(): pass\n"
        "def ground(): pass\ndef traced(): pass\ndef imported(): pass\n"
        "def _private(): pass\nLIMIT = 3\n",
        "from .a import Kept\nimport a\na.used()\n",
    ]
    bench = (
        "from bigrule.a import imported\n"
        "LAYER_OF = {'ground': 'oracle.ground'}\n"
        "TREEDECOMP_NAMES = ('traced',)\n"
        "def f():\n    return walk\n"
    )
    # The benchmark's own code is not a reader, only its layer tables and
    # imports are.
    assert unread_public_definitions(sources, bench) == ["walk"]


# Public names that only tests read, each an independent slow route or a
# writer that a fast path or a parser is checked against.
CROSS_CHECKS = {
    "grounding_estimate": "the worst-case bound that decomposition estimates are checked under",
    "eval_qbf_expansion": "a second QBF evaluator, checked against eval_qbf",
    "abduce_bruteforce": "the brute-force reference for abduction_encoding",
    "exact_treewidth": "the exact width that the elimination heuristics are checked against",
    "emit_qdimacs": "the writer that parse_qdimacs round-trips",
    "emit_reified": "the writer that parse_reified round-trips",
}


def test_every_public_definition_has_a_reader():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    unread = unread_public_definitions(sources, BENCH_PIPELINE.read_text(encoding="utf-8"))
    assert [name for name in unread if name not in CROSS_CHECKS] == []
    # An exemption goes once its name has a reader or is gone.
    assert sorted(set(CROSS_CHECKS) - set(unread)) == []


def unread_public_methods(sources: list[str]) -> list[str]:
    """`Class.name` of each public method or property of a module-level
    class whose name no code refers to as an attribute outside the method's
    own definition."""
    trees = [ast.parse(source) for source in sources]
    attributes = [node.attr for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    unread = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                own = [node for node in ast.walk(method)
                       if isinstance(node, ast.Attribute) and node.attr == method.name]
                if attributes.count(method.name) == len(own):
                    unread.append(f"{cls.name}.{method.name}")
    return unread


def test_scan_finds_an_unread_public_method():
    sources = [
        "class Tree:\n"
        "    def depth(self):\n        return self.depth()\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def used(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "    def _own(self):\n        pass\n"
        "def walk(t):\n    return t.size\n",
        "from .a import Tree\nTree().used()\n",
    ]
    # walk reads size and the other module reads used; depth reads only
    # itself, and dunder and private methods are not checked.
    assert unread_public_methods(sources) == ["Tree.depth"]


def test_every_public_method_has_a_reader():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unread_public_methods(sources) == []


def assertions(source: str) -> list[str]:
    """`assert` statements and raises of `AssertionError`: both end in a
    traceback, and `python -O` drops the first."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append((node.lineno, "raise AssertionError"))
    return [f"{text} (line {line})" for line, text in sorted(found)]


def test_scan_finds_assertions():
    source = (
        "def f(x):\n    assert x, 'x'\n    if not x:\n        raise AssertionError('x')\n"
        "    raise AssertionError\n\n"
        "def g(x):\n    raise ValueError('assert')\n"
    )
    assert assertions(source) == [
        "assert (line 2)",
        "raise AssertionError (line 4)",
        "raise AssertionError (line 5)",
    ]


@pytest.mark.parametrize("path", PACKAGE + BENCH, ids=_path_id)
def test_module_has_no_assertion(path):
    assert assertions(path.read_text(encoding="utf-8")) == []


def self_recursive_functions(source: str) -> list[str]:
    """Qualified names (`outer.inner`, `Class.method`) of the functions,
    nested ones included, that call themselves by name or as `self.name`.
    Mutual recursion, such as the parser's term rules calling each other,
    is not caught."""
    found = []
    stack = [(node, "") for node in ast.parse(source).body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and _refers_to(call.func, node.name)
                for call in ast.walk(node)
            ):
                found.append(qualname)
            stack.extend((child, qualname + ".") for child in node.body)
        else:
            stack.extend((child, prefix) for child in ast.iter_child_nodes(node))
    return sorted(found)


def _refers_to(func: ast.expr, name: str) -> bool:
    if isinstance(func, ast.Attribute):
        return func.attr == name and isinstance(func.value, ast.Name) and func.value.id == "self"
    return isinstance(func, ast.Name) and func.id == name


def test_scan_finds_self_recursive_functions():
    source = (
        "def walk(t):\n    return [walk(c) for c in t]\n"
        "def outer(n):\n    def inner(k):\n        return inner(k - 1) if k else 0\n"
        "    return inner(n)\n"
        "class Tree:\n    def depth(self):\n        return self.depth()\n"
        "def even(n):\n    return n == 0 or odd(n - 1)\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n"
    )
    # even and odd recurse through each other, which the scan does not see.
    assert self_recursive_functions(source) == ["Tree.depth", "outer.inner", "walk"]


# Each self-recursive function of the package and what caps its depth: a
# module constant, or a parameter of the function it is nested in.
RECURSION_CAPS = {
    "syntax.term_variables": "MAX_TERM_DEPTH",
    "syntax.eval_term": "MAX_TERM_DEPTH",
    "oracle._term_fn": "MAX_TERM_DEPTH",
    "oracle.eval_qbf.rec": "max_vars",
    "oracle.eval_qbf_expansion.build": "max_vars",
    "oracle.eval_qbf_expansion.fold": "max_vars",
    "oracle.solve_coloring.assign": "max_vertices",
    "treedecomp.exact_treewidth.solve": "max_vertices",
}


def test_every_self_recursive_function_is_capped():
    found = []
    constants: set[str] = set()
    parameters: dict[str, list[str]] = {}
    for path in PACKAGE:
        source = path.read_text(encoding="utf-8")
        found += [f"{path.stem}.{name}" for name in self_recursive_functions(source)]
        for statement in ast.parse(source).body:
            if isinstance(statement, ast.Assign):
                constants.update(t.id for t in statement.targets if isinstance(t, ast.Name))
            elif isinstance(statement, ast.FunctionDef):
                parameters[f"{path.stem}.{statement.name}"] = [a.arg for a in statement.args.args]
    assert sorted(found) == sorted(RECURSION_CAPS)
    for name, cap in RECURSION_CAPS.items():
        outer = name.rsplit(".", 1)[0]
        assert cap in parameters.get(outer, constants), name
