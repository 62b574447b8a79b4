"""No module in src/ or tests/ imports a name it never uses.

A standard-library stand-in for pyflakes' unused-import check.  A name
counts as used when the module reads it anywhere, a string annotation
included, or lists it in ``__all__``, so the re-exports of the package's
``__init__.py`` count as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pwlienard"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])


def imported_names(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_sees_an_unused_import(tmp_path):
    """The check flags what it should and passes what it should."""
    module = tmp_path / "sample.py"
    module.write_text(
        "import os\n"
        "import os.path as osp\n"
        "from math import pi, tau\n"
        "from typing import Dict\n"
        "__all__ = ['tau']\n"
        "def f() -> 'Dict[str, int]':\n"
        "    import json\n"
        "    return osp.sep, pi\n")
    assert unused_imports(module) == [("os", 1), ("json", 7)]
