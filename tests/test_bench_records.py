"""Every ``BENCH_*.json`` at the repository root is a readable record.

The speed claims in CHANGES.md and ROADMAP.md rest on these files, so each
must parse and say what it measured, how, and on which runs: ``label``,
``what`` and ``command``, plus ``parent`` and ``change`` or ``pairs``: a
list of pairs, or a list per workload.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_readable(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in ("label", "what", "command"):
        assert isinstance(record.get(key), str) and record[key], key
    runs = ("parent" in record and "change" in record
            or isinstance(record.get("pairs"), (list, dict)) and record["pairs"])
    assert runs, "needs parent and change, or pairs"
