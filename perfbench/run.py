"""gaugelab benchmark: run one workload at one seed, untraced or traced.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 1

Run it from the root of a checkout; it imports gaugelab from `src/`.  See
perfbench/README.md for the workloads and metrics.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.  The
lines before it print the same numbers for a reader, with the output digest,
the host reference time and the workload's own name for round_s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog", "montecarlo", "deep", "cli")
SETUP_REPEATS = 7
# About one reference start (a cold `import numpy`) on the 2-core VM the
# bounds were set on.  setup_s is the set-up time in reference starts times
# this, so it reads in seconds there and does not move with the host's drift.
NOMINAL_REFERENCE_S = 0.2
IMPORT_REPEATS = 3
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "round_ref": "ref", "peak_rss_mb": "MB"}

clock = time.perf_counter


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker_argv(workload: str, seed: int, run_dir: Path) -> list:
    return [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--run-dir", str(run_dir),
    ]


def cold_start(workload: str, seed: int, run_dir: Path, env: dict) -> float:
    """Seconds from launching a fresh interpreter until the workload's first
    operation has completed (imports, inputs and the warm-up call)."""
    if workload == "cli":
        start = clock()
        proc = subprocess.run(
            [sys.executable, "-m", "gaugelab", "series", "--n", "1"],
            cwd=run_dir, env=env, capture_output=True, timeout=SETUP_TIMEOUT_S,
        )
        elapsed = clock() - start
        if proc.returncode != 0:
            raise BenchError(f"cold `gaugelab series --n 1` failed:\n{proc.stderr.decode()}")
        return elapsed
    argv = _worker_argv(workload, seed, run_dir) + ["--setup-probe"]
    start = clock()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = clock() - start
            proc.wait()
        finally:
            timer.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def reference_start(env: dict) -> float:
    """Seconds for a cold interpreter to import numpy: the host reference
    for start-up times."""
    start = clock()
    proc = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                          capture_output=True, timeout=SETUP_TIMEOUT_S)
    elapsed = clock() - start
    if proc.returncode != 0:
        raise BenchError("reference start (`import numpy`) failed")
    return elapsed


def measure_setup(workload: str, seed: int, run_dir: Path, env: dict):
    """(setup_s, median wall time) over SETUP_REPEATS cold starts.

    An untimed start comes first, so every timed one finds the bytecode
    caches written.  A reference start comes before and after each timed
    one, on the same core.  Each cold start is divided by the mean of its
    two neighbouring reference starts; setup_s is the median quotient times
    NOMINAL_REFERENCE_S.
    """
    cold_start(workload, seed, run_dir, env)
    refs = [reference_start(env)]
    starts = []
    for _ in range(SETUP_REPEATS):
        starts.append(cold_start(workload, seed, run_dir, env))
        refs.append(reference_start(env))
    in_refs = [2 * s / (refs[i] + refs[i + 1]) for i, s in enumerate(starts)]
    return (NOMINAL_REFERENCE_S * statistics.median(in_refs),
            statistics.median(starts))


def run_worker(workload: str, seed: int, seconds: float, run_dir: Path, env: dict,
               spans=None) -> dict:
    """One closed-loop run; traced, with its spans written out, if `spans`
    names a file."""
    argv = _worker_argv(workload, seed, run_dir) + ["--seconds", str(seconds)]
    if spans is not None:
        argv += ["--trace", str(spans)]
    proc = subprocess.run(
        argv, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(env: dict) -> dict:
    """Median cold import time of each layer of the import step."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "import_probe.py")],
            env=env, stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError("import probe failed")
        samples.append(json.loads(proc.stdout))
    return {
        f"import.{name}_s": statistics.median(s[name] for s in samples)
        for name in layers.IMPORTS
    }


def workload_name_for_round(workload: str, round_s: float):
    """round_s under the name the workload's users know it by."""
    if workload == "catalog":
        return "sweep_s", round_s, "s"
    if workload == "montecarlo":
        return "paths_per_s", 3 * 1000 / round_s, "paths/s"
    if workload == "deep":
        return "deep_path_s", round_s / 4, "s"
    return "cli_round_s", round_s, "s"


def untraced(args, run_dir: Path, env: dict):
    setup_s, setup_wall_s = measure_setup(args.workload, args.seed, run_dir, env)
    res = run_worker(args.workload, args.seed, args.seconds, run_dir, env)
    values = {
        "setup_s": setup_s,
        "round_ref": statistics.median(res["round_refs"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    round_s = statistics.median(res["round_times"])
    name, value, unit = workload_name_for_round(args.workload, round_s)
    rounds = len(res["round_times"])
    print(f"  setup_s      {setup_s:.4f} s     median of {SETUP_REPEATS} cold starts, "
          f"in reference starts x {NOMINAL_REFERENCE_S} s")
    print(f"  setup_wall_s {setup_wall_s:.4f} s     median of {SETUP_REPEATS} cold starts")
    print(f"  round_ref    {values['round_ref']:.4f} ref   median of {rounds} rounds")
    print(f"  round_s      {round_s:.4f} s     median of {rounds} rounds (wall time)")
    print(f"  {name:<12} {value:.4f} {unit}")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return res["attempted"], res["failed"], res, metrics


def traced(args, run_dir: Path, env: dict):
    half = args.seconds / 2
    base = run_worker(args.workload, args.seed, half, run_dir, env)
    spans = run_dir.parent / f"spans-{args.workload}-{args.seed}.jsonl"
    res = run_worker(args.workload, args.seed, half, run_dir, env, spans=spans)
    rounds = len(res["round_times"])
    values = layers.per_round(res["summary"], rounds)
    values.update(import_times(env))
    round_ms = 1e3 * statistics.fmean(res["round_times"])
    covered = layers.covered_ms(res["summary"], rounds)
    attempted = base["attempted"] + res["attempted"]
    failed = base["failed"] + res["failed"]
    values.update({
        "host.ref_s": res["host_ref_s"],
        "trace.round_ms": round_ms,
        "trace.covered_ms": covered,
        "trace.uncovered_ms": round_ms - covered,
        "trace.overhead_ms": 1e3 * res["host_ref_s"] * (
            statistics.median(res["round_refs"]) - statistics.median(base["round_refs"])
        ),
        "fail_ratio": failed / attempted,
    })
    print(f"  traced rounds {rounds}, untraced rounds {len(base['round_times'])}, "
          f"{res['spans']} spans in {spans.relative_to(ROOT)}")
    for name, unit, _ in layers.PER_LAYER:
        if values[name]:
            print(f"  {name:<52} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    return attempted, failed, res, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gaugelab" / "__init__.py").is_file():
        print(f"perfbench: no gaugelab package under {SRC}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    env = child_env()
    # One CPU for this process and every process it starts: the host
    # reference kernel then times the core the workload runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    try:
        measure = traced if args.trace else untraced
        attempted, failed, res, metrics = measure(args, run_dir, env)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(run_dir.parent.iterdir()):
            run_dir.parent.rmdir()
    print(f"  fail_ratio   {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"  host.ref_s   {res['host_ref_s']:.6f} s")
    print(f"  digest       sha256:{res['digest']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
