"""Every module-level import in the lightspan package is read somewhere.

Deleting code tends to leave its imports behind; this guard finds them with
the standard library's ast, so it needs nothing beyond the test runner.
"""

import ast
from pathlib import Path

import pytest

import lightspan

MODULES = sorted(Path(lightspan.__file__).parent.glob("*.py"))


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
