"""Paired benchmark runs of a change against its parent.

    python3 tools/bench_pairs.py --out BENCH_x.json --claim catalog:round_ref \
        --workload catalog --pairs 10 --holdout-seed 11 \
        --workload cli --workload montecarlo --workload deep --side-pairs 3

Runs perfbench/run.py (untraced) from two trees: the parent revision
(--base, default HEAD~1), unpacked with `git archive` into a temporary
directory, and the change (--change: a revision unpacked the same way, or
the repository's own tree by default).  Pair i runs the parent first when
i is even and the change first when it is odd, so drift on the host favours
neither side.  The claimed workload runs --pairs pairs at --seed and then
--holdout-pairs pairs at --holdout-seed; every other workload runs
--side-pairs pairs at --seed.

Writes one JSON document: for every workload and end-to-end metric of
BENCHMARK.json, both sides' runs with their median, quartiles and IQR, the
change's wins (pairs where its run is better, by the metric's direction),
the ratio of the medians and the gap between them, plus the failed
operations and whether the output digests of all runs agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unpack(rev: str, into: Path) -> Path:
    """The committed tree of `rev`, unpacked under `into`."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """{"metrics", "failed", "attempted", "digest"} of one untraced run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["metrics"] = {name: m["value"] for name, m in out["metrics"].items()}
    out["digest"] = next((line.split()[-1] for line in lines if line.strip().startswith("digest")),
                         None)
    return out


def spread(runs: list) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "runs": [round(x, 4) for x in runs]}


def pairs(trees: dict, workload: str, seed: int, count: int, seconds: float) -> list:
    """[{"parent": run, "change": run}] of `count` alternating pairs."""
    out = []
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(trees[side], workload, seed, seconds)
            m = pair[side]["metrics"]
            print(f"{workload} seed={seed} pair={i} {side}: "
                  + " ".join(f"{k}={v:.4f}" for k, v in m.items()), file=sys.stderr, flush=True)
        out.append(pair)
    return out


def rows(workload: str, seed: int, runs: list, metrics: list) -> list:
    """One row per end-to-end metric of `runs` (pairs)."""
    out = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [p["parent"]["metrics"][name] for p in runs]
        after = [p["change"]["metrics"][name] for p in runs]
        wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        b, a = spread(before), spread(after)
        out.append({
            "case": workload, "metric": name, "unit": metric["unit"], "better": metric["better"],
            "seed": seed, "pairs": len(runs), "change_wins": wins,
            "median_ratio": round(a["median"] / b["median"], 4) if b["median"] else None,
            "median_gap": round(b["median"] - a["median"], 4),
            "before": b, "after": a,
        })
    return out


def summary(runs: list) -> dict:
    every = [side for p in runs for side in p.values()]
    return {"failed": sum(r["failed"] for r in every),
            "attempted": sum(r["attempted"] for r in every),
            "digests": sorted({r["digest"] for r in every if r["digest"]})}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="parent revision")
    parser.add_argument("--change", default=None,
                        help="changed revision (default: the repository's own tree)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--holdout-seed", type=int, default=None)
    parser.add_argument("--holdout-pairs", type=int, default=3)
    parser.add_argument("--side-pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    claimed = args.claim.split(":")[0] if args.claim else args.workload[0]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": unpack(args.base, Path(tmp) / "parent"),
                 "change": unpack(args.change, Path(tmp) / "change") if args.change else ROOT}
        doc = {
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {args.seconds:g} --trace 0, alternating which side runs first",
            "parent": subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.base],
                                     check=True, capture_output=True, text=True).stdout.strip(),
            "rows": [], "runs": {},
        }
        for workload in args.workload:
            count = args.pairs if workload == claimed else args.side_pairs
            runs = pairs(trees, workload, args.seed, count, args.seconds)
            doc["rows"] += rows(workload, args.seed, runs, metrics)
            doc["runs"][f"{workload}/{args.seed}"] = summary(runs)
            if workload == claimed and args.holdout_seed is not None:
                held = pairs(trees, workload, args.holdout_seed, args.holdout_pairs, args.seconds)
                doc["rows"] += rows(workload, args.holdout_seed, held, metrics)
                doc["runs"][f"{workload}/{args.holdout_seed}"] = summary(held)
    if args.claim:
        workload, metric = args.claim.split(":")
        main_row, *held = [r for r in doc["rows"] if r["case"] == workload
                           and r["metric"] == metric]
        doc["claim"] = {
            "workload": workload, "metric": metric, "pairs": main_row["pairs"],
            "change_wins": main_row["change_wins"], "median_ratio": main_row["median_ratio"],
            "median_gap": main_row["median_gap"], "parent_iqr": main_row["before"]["iqr"],
            "holdout": [{k: r[k] for k in ("seed", "pairs", "change_wins", "median_ratio")}
                        for r in held],
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
