"""Every module-level import in the lightspan package is read somewhere, and
so is every function, class and method it defines.  Every UPPER_CASE
module-level constant is read inside the package itself.

Deleting code tends to leave its imports, or a helper it alone called,
behind; these guards find them with the standard library's ast, so they need
nothing beyond the test runner.
"""

import ast
from pathlib import Path

import pytest

import lightspan

MODULES = sorted(Path(lightspan.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# every file whose reads keep a definition alive
READERS = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))


def _module_imports(tree: ast.Module):
    """(bound name, line) per module-level import, including those nested in
    module-level if blocks such as `if TYPE_CHECKING:`."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, names inside string annotations, and __all__."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for ann in filter(None, _annotations(tree)):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                parsed = ast.parse(const.value, mode="eval")
                read |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return read


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    read = _names_read(tree)
    return sorted((name, line) for name, line in _module_imports(tree) if name not in read)


def test_the_guard_sees_annotations_and_aliases():
    source = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "import os.path\n"
        "from json import dumps as to_json, loads\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "    from fractions import Fraction\n"
        "def f(x: 'Decimal') -> None:\n"
        "    return to_json(x)\n"
    )
    assert unused_imports(source) == [("Fraction", 7), ("loads", 4), ("os", 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function and class and of each
    method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno


def names_read(source: str) -> set[str]:
    """Names and attributes loaded, names imported, and string constants (a
    bench hook names its target as a string)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def dead_definitions(source: str, read: set[str]) -> list[tuple[str, int]]:
    return sorted((name, line) for name, line in _definitions(ast.parse(source)) if name not in read)


def test_the_dead_definition_guard_sees_reads_of_every_kind():
    source = (
        "class Part:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "    def grow(self):\n"
        "        return self.size\n"
        "    def shrink(self):\n"
        "        pass\n"
        "def hooked():\n"
        "    pass\n"
        "def imported():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
        "class Unused:\n"
        "    pass\n"
    )
    user = (
        "from mod import imported as alias\n"
        "HOOKS = [('mod', 'hooked')]\n"
        "Part().grow()\n"
    )
    read = names_read(source) | names_read(user)
    assert dead_definitions(source, read) == [("Unused", 14), ("orphan", 12), ("shrink", 6)]


@pytest.fixture(scope="module")
def read_anywhere() -> set[str]:
    return set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_read(path, read_anywhere):
    assert dead_definitions(path.read_text(encoding="utf-8"), read_anywhere) == []


def _constants(tree: ast.Module):
    """(name, line) of each UPPER_CASE name bound at module level."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.lstrip("_").isupper():
                yield target.id, node.lineno


def unread_constants(source: str, read: set[str]) -> list[tuple[str, int]]:
    return sorted((name, line) for name, line in _constants(ast.parse(source)) if name not in read)


def test_the_constant_guard_sees_reads_in_other_modules():
    source = "LIMIT = 3\n_TABLE: dict = {}\nSPARE = 1\nlower = 2\n__all__ = []\ndef f():\n    return LIMIT\n"
    user = "from mod import _TABLE\n"
    read = names_read(source) | names_read(user)
    assert unread_constants(source, read) == [("SPARE", 3)]


@pytest.fixture(scope="module")
def read_in_package() -> set[str]:
    return set().union(*(names_read(p.read_text(encoding="utf-8")) for p in MODULES))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_constant_is_read_in_the_package(path, read_in_package):
    # a constant only the tests read pins nothing the package does
    assert unread_constants(path.read_text(encoding="utf-8"), read_in_package) == []
