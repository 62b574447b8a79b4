"""Only ``algebra`` turns source text into code.

The kernel's arcs and the oracle's integrands are generated per
polynomial shape, and ``algebra`` owns the writers of that code and its
one compile step, so the order in which generated code reads
coefficients is known in one module.  A call of the builtins ``exec``,
``eval`` or ``compile``, by name or through ``builtins``, anywhere else
in the package would be a second compile step.  And a module that
generates code has one writer: exactly one of its functions calls
``compile_source``, so a counting or tracing variant of the generated
code has one place to go.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pwlienard"
_COMPILERS = {"exec", "eval", "compile"}
# the one function of each generating module that calls compile_source
WRITERS = {"_kernel_py.py": "_arc", "oracle.py": "_integrand"}


def compiler_calls(tree):
    """(name, line) of each call of exec, eval or compile."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _COMPILERS:
                yield func.id, node.lineno
            elif isinstance(func, ast.Attribute) \
                    and func.attr in _COMPILERS \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "builtins":
                yield func.attr, node.lineno


def calls_in(path: Path):
    return list(compiler_calls(ast.parse(path.read_text(),
                                         filename=str(path))))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_algebra_compiles(path):
    if path.name == "algebra.py":
        assert [name for name, _ in calls_in(path)] == ["exec"]
    else:
        assert calls_in(path) == []


def test_check_sees_a_compile_call(tmp_path):
    """The check flags what it should and passes what it should."""
    module = tmp_path / "sample.py"
    module.write_text(
        "import builtins\n"
        "import re\n"
        "exec('x = 1')\n"
        "code = compile('1', '<s>', 'eval')\n"
        "builtins.eval(code)\n"
        "re.compile('a')\n"
        "def f(exec): return exec\n")
    assert calls_in(module) == [("exec", 3), ("compile", 4), ("eval", 5)]


def compile_source_callers(tree):
    """The innermost function around each call of ``compile_source``, by
    name or as an attribute, or "<module>" outside every function."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) \
                    else getattr(func, "attr", None)
                if name == "compile_source":
                    callers.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return callers


def callers_in(path: Path):
    return compile_source_callers(ast.parse(path.read_text(),
                                            filename=str(path)))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_writer_per_generating_module(path):
    expected = {WRITERS[path.name]} if path.name in WRITERS else set()
    assert set(callers_in(path)) == expected


def test_check_sees_each_writer(tmp_path):
    """The writer check names every function that calls compile_source,
    nested and module-level calls included, and nothing else."""
    module = tmp_path / "sample.py"
    module.write_text(
        "from . import algebra\n"
        "from .algebra import compile_source\n"
        "def line(n):\n"
        "    return compile_source('line', [], {})\n"
        "def weight(n):\n"
        "    def inner():\n"
        "        return algebra.compile_source('w', [], {})\n"
        "    return inner()\n"
        "def reader(n):\n"
        "    return compile_source\n"
        "table = compile_source('t', [], {})\n")
    assert callers_in(module) == ["line", "inner", "<module>"]
