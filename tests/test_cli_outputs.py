"""Only ``cli._write`` writes a CLI output, and only ``main`` calls it.

Each subcommand returns its outputs to ``main``, which hands them to
``_write``, so what every JSON or CSV output should carry is added in one
place.  A function of ``cli.py`` other than ``_write`` that opens a file
for writing, writes to stdout or serialises JSON would be a second output
path.  ``_load_system``'s read-only ``open`` is no output.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "pwlienard" / "cli.py"
_READ_MODES = {"r", "rt", "rb"}


def dotted(node):
    """``a.b.c`` of a chain of names and attributes, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def writes(call: ast.Call) -> bool:
    """Whether ``call`` opens a file other than for reading, writes to
    stdout or serialises JSON."""
    name = dotted(call.func)
    keywords = {k.arg: k.value for k in call.keywords}
    if name == "open":
        mode = call.args[1] if len(call.args) > 1 else keywords.get("mode")
        return mode is not None and not (isinstance(mode, ast.Constant)
                                         and mode.value in _READ_MODES)
    if name == "print":
        return dotted(keywords.get("file")) != "sys.stderr"
    return name in ("sys.stdout.write", "json.dump", "json.dumps")


def owners(tree):
    """(name of the enclosing module-level function, or ``<module>``,
    node) of every node, nested functions counted as their owner's."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            yield owner, node


def writers(tree):
    return {owner for owner, node in owners(tree)
            if isinstance(node, ast.Call) and writes(node)}


def readers(tree, name):
    """The owners of each read of ``name``, a call or not."""
    return {owner for owner, node in owners(tree)
            if isinstance(node, ast.Name) and node.id == name
            and isinstance(node.ctx, ast.Load)}


def cli_tree():
    return ast.parse(CLI.read_text(), filename=str(CLI))


def test_only_write_writes():
    assert writers(cli_tree()) == {"_write"}


def test_only_main_calls_write():
    assert readers(cli_tree(), "_write") == {"main"}


def test_check_sees_each_writer():
    """The checks flag what they should and pass what they should."""
    tree = ast.parse(
        "import json, sys\n"
        "def reads(p): return open(p).read()\n"
        "def reads_too(p): return open(p, 'r'), open(p, mode='rb')\n"
        "def opens(p): return open(p, 'w')\n"
        "def appends(p): return open(p, mode='a')\n"
        "def dumps(d): return json.dumps(d)\n"
        "def echoes(t): sys.stdout.write(t)\n"
        "def prints(t): print(t)\n"
        "def warns(t): print(t, file=sys.stderr)\n"
        "def nests():\n"
        "    def inner(d): json.dump(d, sys.stdout)\n"
        "def passes(): return map(_write, [])\n"
        "_write = None\n")
    assert writers(tree) == {"opens", "appends", "dumps", "echoes",
                             "prints", "nests"}
    assert readers(tree, "_write") == {"passes"}
