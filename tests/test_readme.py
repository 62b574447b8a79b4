"""The README's library quickstart runs as written, and its command lines
parse."""

import re
import shlex
from pathlib import Path

import pytest

from pwlienard import cli

README = Path(__file__).resolve().parents[1] / "README.md"
ROADMAP = README.with_name("ROADMAP.md")


def test_library_quickstart_runs(capsys):
    text = README.read_text()
    block = re.search(r"^## Library quickstart\n.*?^```python\n(.*?)^```",
                      text, re.S | re.M).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    # the comment line under print(exp.m1) is what it prints
    printed = re.search(r"^print\(exp\.m1\).*\n# (.*)\n", block, re.M)
    assert capsys.readouterr().out.splitlines()[0] == printed.group(1)
    mids = [r.mid for r in scope["report"].h_roots]
    assert mids == pytest.approx([1.0, 4.0, 9.0, 16.0], abs=1e-9)
    h_stars = [c.h_star for c in scope["scan"].cycles]
    assert h_stars == pytest.approx([1.0, 4.0], abs=1e-3)
    stated = re.search(
        r"The scan takes (\d+) of its budget\s+of (\d+) returns", text)
    assert int(stated.group(1)) == len(scope["scan"].grid)
    assert f"find_cycles(designed, (1.0, 3.4), {stated.group(2)}," in block


def test_command_lines_parse(tmp_path, monkeypatch):
    """Each ``pwlienard`` line of the "Command line" block is accepted by the
    CLI's parser, with the argument file shown after it written to the
    working directory; nothing runs.  That file's line parses as the typed
    ``design`` line does."""
    section = re.search(r"^## Command line\n(.*?)^## ", README.read_text(),
                        re.S | re.M).group(1)
    block, args_name, args_text = re.search(
        r"^```sh\n(.*?)^```.*?`(\S+\.args)` holds.*?^```text\n(.*?)^```",
        section, re.S | re.M).groups()
    (tmp_path / args_name).write_text(args_text)
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line) for line in block.splitlines()
             if line.startswith("pwlienard ")]
    assert len(lines) == 7
    parsed = {}
    for argv in lines:
        parsed[" ".join(argv)] = vars(cli.build_parser().parse_args(argv[1:]))
    from_file = parsed.pop(f"pwlienard design @{args_name}")
    assert from_file in parsed.values()


def test_command_lines_run(tmp_path, monkeypatch, capsys):
    """Each ``pwlienard`` line of the "Command line" block that reads no
    file runs, in an empty directory, to the exit code the README states:
    the ``verify`` line's, which ROADMAP's baseline states too, and 0 for
    every other line."""
    section = re.search(r"^## Command line\n(.*?)^## ", README.read_text(),
                        re.S | re.M).group(1)
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    verify_code, other_code = map(int, re.search(
        r"the `verify` line exits `(\d)`.*?Every other line\s+that reads no"
        r"\s+file exits `(\d)`", section, re.S).groups())
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PWLIENARD_REL_TOL", raising=False)
    ran = []
    for line in block.splitlines():
        argv = shlex.split(line)[1:]
        if not line.startswith("pwlienard ") or "--system" in argv \
                or any(arg.startswith("@") for arg in argv):
            continue
        expected = verify_code if "verify" in argv else other_code
        assert cli.main(argv) == expected, line
        ran.append(" ".join(argv))
    capsys.readouterr()
    assert len(ran) == 5
    assert (tmp_path / "results" / "oracle.csv").exists()
    verify_line = next(line for line in ran if line.startswith("verify "))
    stated = re.search(re.escape(f"`{verify_line}`")
                       + r"(.*?)still\s+exit (\d)", ROADMAP.read_text(), re.S)
    assert "\n\n" not in stated.group(1)
    assert int(stated.group(2)) == verify_code
