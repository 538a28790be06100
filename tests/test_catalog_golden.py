"""Golden traces: every catalog entry reproduces its recorded run bit for bit.

For integral entries the data file holds `repr` of status, estimate,
error_bound, trace and strategy_sums; for path entries, `repr` of the
returned value.  `repr` of a float round-trips, so equal strings mean equal
bits.  A refactor of the integrators or of the catalog dispatch must leave
this file passing unchanged.

After a change that is meant to move a trace, rewrite the data file with

    PYTHONPATH=src python tests/test_catalog_golden.py

and say in the change description which entries moved and why.
"""

import json
from pathlib import Path

import pytest

from gaugelab.catalog import entry_names, get_entry, run_entry

GOLDEN = Path(__file__).parent / "data" / "catalog_golden.json"
FIELDS = ("status", "estimate", "error_bound", "trace", "strategy_sums")


def record(name: str) -> dict:
    entry = get_entry(name)
    out = run_entry(entry)
    if entry.kind == "path":
        return {"value": repr(out)}
    return {field: repr(getattr(out, field)) for field in FIELDS}


def test_golden_covers_every_entry():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(entry_names())


@pytest.mark.parametrize("name", entry_names())
def test_entry_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert record(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: record(name) for name in entry_names()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
