"""Checks of the benchmark itself; the tier-1 suite does not collect them.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = ("count", "bytes")


def _traced_round(workload: str, seed: int, run_dir: Path) -> dict:
    """Per-layer metrics of one traced round (--seconds 0 runs exactly one)."""
    run_dir.mkdir()
    res = run.run_worker(workload, seed, 0, run_dir, run.child_env(), spans=run_dir / "spans")
    assert res["failed"] == 0
    return layers.per_round(res["summary"], len(res["round_times"]))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload, tmp_path):
    first = _traced_round(workload, 7, tmp_path / "a")
    second = _traced_round(workload, 7, tmp_path / "b")
    counts = [name for name, unit, _ in layers.PER_LAYER
              if unit in COUNT_UNITS and name in first]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_catalog_path_entries_are_traced(tmp_path):
    # const_path and zigzag_path reach total_variation through a module-level
    # dict of catalog, which the tracer rebinds too.
    metrics = _traced_round("catalog", 7, tmp_path / "a")
    assert metrics["stochastic.total_variation.calls"] == 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)


def test_self_times_add_up_to_the_outer_span():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap(leaf, lambda: "leaf")
    counted_leaf = tracer.wrap(leaf, lambda: "counted", record=False)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        counted_leaf()

    tracer.wrap(outer, lambda: "outer")()
    (root,) = [s for s in tracer.spans if s[4] == -1]
    (child,) = [s for s in tracer.spans if s[4] == root[0]]
    assert child[1] == "leaf" and len(tracer.spans) == 2
    total_self = sum(stat["self_s"] for stat in tracer.stats.values())
    assert total_self == pytest.approx(root[3] - root[2], rel=1e-9)
    assert tracer.stats["counted"]["calls"] == 1
    assert tracer.stats["outer"]["self_s"] < root[3] - root[2] - 0.015


def test_untraced_runs_leave_gaugelab_unmodified(tmp_path):
    import worker
    from gaugelab import catalog, divisions

    worker.Catalog(1, tmp_path, None)
    assert not hasattr(catalog.run_entry, "__wrapped__")
    assert not hasattr(divisions.make_uniform, "__wrapped__")
    assert not any(hasattr(f, "__wrapped__") for f in catalog._PATH_QUANTITIES.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
