"""Golden traces: every catalog entry reproduces its recorded run bit for bit.

For integral entries the data file holds `repr` of status, estimate,
error_bound, trace and strategy_sums; for path entries, `repr` of the
returned value.  `repr` of a float round-trips, so equal strings mean equal
bits.  A refactor of the integrators or of the catalog dispatch must leave
this file passing unchanged.  The recorded sums alone also give each label:
replayed through the stop rules with no integrand evaluated, they stop at
the recorded level with the recorded status, estimate and bound.

After a change that is meant to move a trace, rewrite the data file with

    PYTHONPATH=src python tests/test_catalog_golden.py

and say in the change description which entries moved and why.
"""

import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from gaugelab import integrators
from gaugelab.catalog import entry_names, get_entry, run_entry
from gaugelab.results import TraceRow

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


class Replay(NamedTuple):
    status: object
    estimate: object
    error_bound: object
    levels: int


def replay(ctrl, columns, rules=integrators._PROBE_RULES, undecided=integrators._undecided):
    """What _decide makes of the columns' sums, one column per strategy,
    fed prefix by prefix until a rule fires, with the levels it read; the
    `undecided` label once every level is read, whatever the schedule."""
    rows = list(zip(*columns))
    for k in range(1, len(rows) + 1):
        decision = integrators._decide(ctrl, rows[:k], rules)
        if decision is not None:
            return Replay(*decision, k)
    return Replay(*undecided(ctrl, rows), len(rows))


@pytest.mark.parametrize("name", [n for n in entry_names() if get_entry(n).kind != "path"])
def test_decide_replays_the_golden_sums(name):
    # no integrand is evaluated: the recorded sums alone give the label
    golden = json.loads(GOLDEN.read_text())[name]
    entry, scope = get_entry(name), {"Fraction": Fraction, "TraceRow": TraceRow}
    columns = eval(golden["strategy_sums"], scope).values()
    trace = eval(golden["trace"], scope)
    ctrl = entry.controller
    if entry.method == "darboux":
        rules, undecided = (integrators._bracket,), integrators._last_bracket
    else:
        rules, undecided = integrators._PROBE_RULES, integrators._undecided
    got = replay(ctrl, columns, rules, undecided)
    assert got.levels == len(trace)
    if integrators._decide(ctrl, list(zip(*columns)), rules) is None:
        assert len(trace) == len(ctrl.schedule.levels())  # the schedule ran out
    assert [repr(got.status), repr(got.estimate), repr(got.error_bound)] == [
        golden["status"], golden["estimate"], golden["error_bound"]]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: record(name) for name in entry_names()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
