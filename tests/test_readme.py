"""The README's library quickstart runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    text = README.read_text()
    block = re.search(r"^## Library quickstart\n.*?^```python\n(.*?)^```",
                      text, re.S | re.M).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    mids = [r.mid for r in scope["report"].h_roots]
    assert mids == pytest.approx([1.0, 4.0, 9.0, 16.0], abs=1e-9)
    h_stars = [c.h_star for c in scope["scan"].cycles]
    assert h_stars == pytest.approx([1.0, 4.0], abs=1e-3)
    stated = re.search(
        r"The scan takes (\d+) of its budget\s+of (\d+) returns", text)
    assert int(stated.group(1)) == len(scope["scan"].grid)
    assert f"find_cycles(designed, (1.0, 3.4), {stated.group(2)}," in block
