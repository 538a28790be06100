"""One workload in one process: a closed loop with output checks.

    python3 perfbench/worker.py --workload catalog --seed 1 --seconds 10 --run-dir DIR
    python3 perfbench/worker.py --workload catalog --seed 1 --run-dir DIR --setup-probe

run.py starts this with `src` on PYTHONPATH and BLAS/OpenMP pinned to one
thread.  The loop runs whole rounds (one pass over the workload's operation
list, each operation waiting for the previous one) until --seconds have
passed, times every operation, checks every output, and prints one JSON
object.  A wrong or failed operation is counted, never fatal.  With --trace
it first rebinds gaugelab's public functions to the timing wrappers of
tracer.py; without it gaugelab runs unmodified.  --setup-probe builds the
inputs, makes the warm-up call, prints "ready" and exits.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.special import ndtri

import tracer as tracing

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("catalog", "montecarlo", "deep", "cli")
COMMAND_TIMEOUT_S = 120

clock = time.perf_counter


def _canon(x) -> str:
    """Text form of an output for the digest; floats by their exact bits."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{_canon(v)}" for k, v in sorted(x.items())) + "}"
    return repr(x)


def python_kernel() -> int:
    """A pure-Python loop: the host reference for interpreter-bound work."""
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def numpy_kernel() -> float:
    """Philox uniforms through ndtri, summed: the kinds of work the Brownian
    paths do, as the host reference for numpy-bound work."""
    gen = np.random.Generator(np.random.Philox(key=12345))
    return float(np.cumsum(ndtri(gen.random(100_000)))[-1])


class HostReference:
    """A fixed kernel timed between operations.

    The kernel calls Python, numpy and scipy directly, so no change to
    gaugelab changes it.  On a shared VM the effective CPU speed can drift
    by +-15% within seconds, for the workload and this kernel alike.  An
    operation's time divided by the kernel's speed around it stays steady
    through such drift.  Single kernel samples are noisy, so the speed
    around an operation is the median of the samples within WINDOW_S of it.
    """

    EVERY_S = 0.25
    WINDOW_S = 4.0

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []  # (midpoint, seconds)
        self._last = -math.inf

    def sample(self) -> None:
        if clock() - self._last < self.EVERY_S:
            return
        start = clock()
        self.kernel()
        self._last = clock()
        self.samples.append(((start + self._last) / 2, self._last - start))

    def seconds(self) -> float:
        return statistics.median(s for _, s in self.samples)

    def around(self, t: float) -> float:
        """Median kernel time within WINDOW_S of t (the nearest if none)."""
        times = [m for m, _ in self.samples]
        lo = bisect.bisect_left(times, t - self.WINDOW_S)
        hi = bisect.bisect_right(times, t + self.WINDOW_S)
        if lo == hi:
            lo = min(range(len(times)), key=lambda j: abs(times[j] - t))
            hi = lo + 1
        return statistics.median(s for _, s in self.samples[lo:hi])

    def in_refs(self, op_log) -> list:
        """Round times in kernel units: each operation (round, midpoint,
        seconds) divided by the kernel time around it, summed per round."""
        rounds = {}
        for rnd, mid, seconds in op_log:
            rounds[rnd] = rounds.get(rnd, 0.0) + seconds / self.around(mid)
        return [rounds[r] for r in sorted(rounds)]


# --------------------------------------------------------------------------
# Workloads.  Each has `ops`, a list of (name, fn); fn() returns
# (output correct?, bytes for the digest).
# --------------------------------------------------------------------------


class Catalog:
    """run_entry over all catalog entries in a seed-shuffled order."""

    # Of the kernels tried, this one tracked the sweeps best (README).
    reference_kernel = staticmethod(python_kernel)

    def __init__(self, seed: int, run_dir: Path, tracer):
        from gaugelab import catalog

        self.catalog = catalog
        entries = list(catalog.standard_entries())
        random.Random(seed).shuffle(entries)
        self.ops = [(entry.name, self._op(entry)) for entry in entries]

    def _op(self, entry):
        def run():
            out = self.catalog.run_entry(entry)
            return self._check(entry, out), self._digest(out).encode()

        return run

    @staticmethod
    def _check(entry, out) -> bool:
        expected = entry.expected
        if entry.kind == "path":
            return abs(out - expected.value) <= expected.tolerance
        if out.status is not expected.status:
            return False
        if expected.value is None:
            return True
        if entry.regime == "exact":
            return out.estimate == expected.value
        return abs(float(out.estimate) - float(expected.value)) <= expected.tolerance

    @staticmethod
    def _digest(out) -> str:
        if not hasattr(out, "status"):
            return _canon(out)
        return "|".join(
            (str(out.status), _canon(out.estimate), _canon(out.error_bound),
             _canon(dict(out.strategy_sums or {})))
        )

    def warm_up(self) -> None:
        """run_entry on the first entry in catalog order, so set-up costs
        the same whichever entry the seed puts first."""
        self.catalog.run_entry(self.catalog.standard_entries()[0])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _first_op(workload) -> None:
    workload.ops[0][1]()


class MonteCarlo:
    """Shallow paths: three mc_run checks over 1000 paths at L=12."""

    reference_kernel = staticmethod(numpy_kernel)

    T = 1.0
    LEVEL = 12
    PATHS = 1000

    def __init__(self, seed: int, run_dir: Path, tracer):
        from gaugelab import stochastic

        st = stochastic
        level = self.LEVEL
        rng = random.Random(seed)
        self.st = st
        estimators = (
            # name, estimator, known mean
            ("qv", lambda p: st.quadratic_variation(p, level), self.T),
            ("strat", lambda p: st.stratonovich_sum(st.refine_path(p), lambda x: x, level),
             self.T / 2),
            ("ito", lambda p: st.ito_sum(p, np.sin, level), 0.0),
        )
        self.ops = [
            (name, self._op(estimator, known, rng.getrandbits(63)))
            for name, estimator, known in estimators
        ]

    def _op(self, estimator, known, master_seed):
        def run():
            stats = self.st.mc_run(
                estimator, self.PATHS, self.T, self.LEVEL, master_seed, keep_values=True
            )
            ok = abs(stats.mean - known) <= 5 * stats.stderr
            return ok, np.asarray(stats.values, dtype=np.float64).tobytes()

        return run

    warm_up = _first_op
    peak_rss_mb = Catalog.peak_rss_mb


class Deep:
    """Deep paths: a few L=20 paths through quadratic and total variation."""

    reference_kernel = staticmethod(numpy_kernel)

    T = 1.0
    LEVEL = 20
    PATHS = 4

    def __init__(self, seed: int, run_dir: Path, tracer):
        from gaugelab import stochastic

        self.st = stochastic
        self.master_seed = random.Random(seed).getrandbits(63)
        self.ops = [(f"path{i}", self._op(i)) for i in range(1, self.PATHS + 1)]

    def _op(self, path_id):
        t, level, st = self.T, self.LEVEL, self.st
        n = 1 << level
        # QV of a level-L path: mean t, variance 2 t^2 / 2^L.  TV: a sum of
        # 2^L |N(0, t/2^L)|, mean sqrt(2 n t / pi), variance t (1 - 2/pi).
        qv_sd = math.sqrt(2 * t * t / n)
        tv_mean = math.sqrt(2 * n * t / math.pi)
        tv_sd = math.sqrt(t * (1 - 2 / math.pi))

        def run():
            path = st.brownian_path(self.master_seed, path_id, t, level)
            qv = st.quadratic_variation(path, level)
            tv = st.total_variation(path, level)
            ok = abs(qv - t) <= 5 * qv_sd and abs(tv - tv_mean) <= 5 * tv_sd
            return ok, _canon((qv, tv)).encode()

        return run

    warm_up = _first_op
    peak_rss_mb = Catalog.peak_rss_mb


class Cli:
    """The command list, one cold `python -m gaugelab` per command."""

    reference_kernel = staticmethod(numpy_kernel)

    # name, arguments, artifact, (what to read, known value, tolerance)
    COMMANDS = (
        ("series", ["series", "--n", "100000"], None, ("series", -math.log(2), 1e-5)),
        ("gauge_h3", ["integrate", "--method", "gauge", "--catalog", "h3"],
         "h3.csv", ("estimate", 1 / 3, 1e-6)),
        ("lebesgue_twomass",
         ["integrate", "--method", "lebesgue", "--catalog", "twomass_step", "--format", "json"],
         "twomass.json", ("estimate", 4.0, 1e-9)),
        ("rs_expr", ["integrate", "--method", "rs", "--expr", "s^2", "--tol", "1e-4"],
         "rs.csv", ("estimate", 1 / 3, 1e-4)),
        ("darboux_expr",
         ["integrate", "--method", "darboux", "--expr", "exp(0-s)", "--a", "0", "--b", "1",
          "--tol", "1e-4"],
         None, ("estimate", 1 - math.exp(-1), 1e-4)),
        ("brownian_qv",
         ["brownian", "qv", "--t", "1", "--level", "12", "--paths", "1000", "--format", "json"],
         "qv.json", ("mean", 1.0, None)),
        ("brownian_strat",
         ["brownian", "strat", "--t", "1", "--level", "12", "--paths", "1000", "--f", "x"],
         None, ("mean", 0.5, None)),
        ("brownian_ito",
         ["brownian", "ito", "--t", "1", "--level", "10", "--paths", "200", "--f", "sin(x)"],
         None, ("mean", 0.0, None)),
    )

    def __init__(self, seed: int, run_dir: Path, tracer):
        rng = random.Random(seed)
        brownian_seed = str(rng.getrandbits(63))
        commands = list(self.COMMANDS)
        rng.shuffle(commands)
        self.run_dir = run_dir
        self.tracer = tracer
        self.first_artifacts = {}
        self.ops = []
        for name, args, artifact, check in commands:
            args = list(args)
            if args[0] == "brownian":
                args += ["--seed", brownian_seed]
            if artifact:
                args += ["--out", artifact, "--no-timestamp"]
            self.ops.append((name, self._op(name, args, artifact, check)))

    def _argv(self, name):
        if self.tracer is None:
            return [sys.executable, "-m", "gaugelab"]
        return [sys.executable, str(BENCH / "cli_launcher.py"), f"trace-{name}.json"]

    def _op(self, name, args, artifact, check):
        def run():
            if artifact:
                (self.run_dir / artifact).unlink(missing_ok=True)
            proc = subprocess.run(
                self._argv(name) + args, cwd=self.run_dir, capture_output=True,
                text=True, timeout=COMMAND_TIMEOUT_S,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
            ok = proc.returncode == 0 and self._check_stdout(proc.stdout, *check)
            data = b""
            if artifact:
                path = self.run_dir / artifact
                data = path.read_bytes() if path.exists() else b""
                ok = ok and bool(data) and self.first_artifacts.setdefault(name, data) == data
            if self.tracer is not None:
                trace_file = self.run_dir / f"trace-{name}.json"
                self.tracer.absorb(json.loads(trace_file.read_text()))
                trace_file.unlink()
                self.tracer.add("cli", "artifact_bytes", len(data))
            return ok, data

        return run

    @staticmethod
    def _check_stdout(stdout: str, what: str, known: float, tol) -> bool:
        if what == "series":
            value = float(stdout.strip().split(",")[1])
            return abs(value - known) <= tol
        if what == "estimate":
            match = re.search(r"^estimate: (\S+)$", stdout, re.MULTILINE)
            return bool(match) and abs(float(match.group(1)) - known) <= tol
        match = re.search(r"mean=(\S+) variance=\S+ stderr=(\S+)", stdout)
        return bool(match) and abs(float(match.group(1)) - known) <= 5 * float(match.group(2))

    warm_up = _first_op

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOAD_CLASSES = {"catalog": Catalog, "montecarlo": MonteCarlo, "deep": Deep, "cli": Cli}


# --------------------------------------------------------------------------
# Closed loop
# --------------------------------------------------------------------------


def run_loop(workload, seconds: float, host: HostReference, tracer) -> dict:
    """Whole rounds until `seconds` have passed; every output checked."""
    attempted = failed = 0
    round_times = []
    op_log = []  # (round, midpoint, seconds)
    digest_parts = {}
    start = clock()
    host.sample()
    while not round_times or clock() - start < seconds:
        busy = 0.0
        for name, op in workload.ops:
            attempted += 1
            if tracer is not None:
                tracer.op_id = attempted
            t0 = clock()
            try:
                ok, output = op()
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                traceback.print_exc()
                ok, output = False, b""
            t1 = clock()
            busy += t1 - t0
            op_log.append((len(round_times), (t0 + t1) / 2, t1 - t0))
            if not ok:
                failed += 1
                print(f"perfbench: {name}: wrong or failed output", file=sys.stderr)
            digest_parts.setdefault(name, output)
            host.sample()
        round_times.append(busy)
    digest = hashlib.sha256()
    for name in sorted(digest_parts):
        digest.update(name.encode() + b"\0" + digest_parts[name] + b"\0")
    return {
        "round_times": round_times,
        "round_refs": host.in_refs(op_log),
        "host_ref_s": host.seconds(),
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace", type=Path, metavar="SPANS_FILE",
                        help="trace, and write every span to this file")
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace is not None else None
    if tracer is not None and args.workload != "cli":
        tracing.install(tracer)
    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.run_dir, tracer)

    try:
        workload.warm_up()
    except Exception:  # noqa: BLE001 - the timed loop counts the failure
        traceback.print_exc()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if tracer is not None:
        tracer.stats.clear()
        tracer.spans.clear()
    host = HostReference(workload.reference_kernel)
    result = run_loop(workload, args.seconds, host, tracer)
    result["peak_rss_mb"] = workload.peak_rss_mb()
    if tracer is not None:
        result["summary"] = tracer.summary()
        result["spans"] = len(tracer.spans)
        with open(args.trace, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
