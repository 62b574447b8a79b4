"""Every function and class the package defines has a caller.

A standard-library check of the package's module-level functions and
classes and of the non-dunder methods of its module-level classes.  A
definition has a caller when its name is read, as a name, an attribute or
a string constant equal to it (``monkeypatch.setattr(module, "name", ...)``
style patching), outside the definition itself, in one of:

- the package's modules, apart from ``__init__.py``, whose imports and
  ``__all__`` only re-export;
- ``perfbench/*.py``;
- the python blocks of README.md;
- ``tests/test_acceptance.py``.

Other tests do not count: a name that only its own tests call is not part
of what the package does.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pwlienard"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """(qualified name, node) of each module-level function and class and
    each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS[:2]) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def reads(tree):
    """{name: [ids of the definitions enclosing each read of it]}."""
    out = {}

    def visit(node, inside):
        if isinstance(node, _DEFS):
            inside = inside | {id(node)}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None:
            out.setdefault(name, []).append(inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def readme_blocks(path: Path):
    return [ast.parse(block) for block in
            re.findall(r"```python\n(.*?)```", path.read_text(), re.S)]


def unreferenced(modules, callers):
    """Qualified names defined in ``modules`` (paths) that no tree among
    the modules and ``callers`` reads outside the definition itself."""
    parsed = {path: ast.parse(path.read_text(), filename=str(path))
              for path in modules}
    trees = [tree for path, tree in parsed.items()
             if path.name != "__init__.py"] + list(callers)
    seen = {}
    for tree in trees:
        for name, places in reads(tree).items():
            seen.setdefault(name, []).extend(places)
    missing = []
    for path, tree in parsed.items():
        for qualname, node in definitions(tree):
            if not any(id(node) not in inside
                       for inside in seen.get(node.name, ())):
                missing.append(f"{path.stem}.{qualname}")
    return missing


def test_every_name_has_a_caller():
    callers = [ast.parse(path.read_text(), filename=str(path)) for path in
               [*sorted((ROOT / "perfbench").glob("*.py")),
                ROOT / "tests" / "test_acceptance.py"]]
    callers += readme_blocks(ROOT / "README.md")
    assert unreferenced(sorted(PACKAGE.glob("*.py")), callers) == []


def test_check_sees_an_uncalled_name(tmp_path):
    """The check flags what it should and passes what it should."""
    module = tmp_path / "sample.py"
    module.write_text(
        "import functools\n"
        "def used(): return 1\n"
        "def unused(): return used()\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def patched(): pass\n"
        "class Box:\n"
        "    def __init__(self): self.open()\n"
        "    def open(self): pass\n"
        "    def close(self): pass\n"
        "    @functools.cache\n"
        "    def size(self): return self.size\n")
    init = tmp_path / "__init__.py"
    init.write_text("from .sample import unused\n__all__ = ['unused']\n")
    caller = ast.parse("import sample\n"
                       "setattr(sample, 'patched', None)\n"
                       "sample.Box()\n")
    assert unreferenced([module, init], [caller]) == [
        "sample.unused", "sample.recursive", "sample.Box.close",
        "sample.Box.size"]
