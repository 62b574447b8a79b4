"""Only ``algebra`` turns source text into code.

The kernel's arcs and the oracle's integrands are generated per
polynomial shape, and ``algebra`` owns the writers of that code and its
one compile step, so the order in which generated code reads
coefficients is known in one module.  A call of the builtins ``exec``,
``eval`` or ``compile``, by name or through ``builtins``, anywhere else
in the package would be a second compile step.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pwlienard"
_COMPILERS = {"exec", "eval", "compile"}


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
