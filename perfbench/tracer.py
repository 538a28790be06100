"""Timing wrappers around gaugelab's public functions, for traced runs only.

`install(tracer)` rebinds each traced public name to a wrapper in every
gaugelab module that holds it (the defining module and every module that
imported a copy), and in every module-level dict that holds it (such as
`catalog._PATH_QUANTITIES`), and patches the two traced methods on their
classes.
Untraced runs never call `install`, so they run gaugelab unmodified.

Each wrapped call is a span: name, start, end, parent span and operation id.
Spans stay in memory until the run ends, when the worker writes them out.
Calls made once per cell or per
value (`expr.evaluate`) are folded into counters instead of one span each.
A span's self time is its duration minus the durations of its children,
counters included, so the self times of all spans add up to the time spent
inside the outermost traced calls.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Span recorder with per-key counters (calls, self time, work counts)."""

    def __init__(self):
        self.spans = []  # (span id, key, start, end, parent span id, op id)
        self.stats = defaultdict(lambda: defaultdict(float))
        self.op_id = 0
        self._stack = []  # [span id, key, child seconds]
        self._next_id = 0

    def inside(self, prefix: str) -> bool:
        """Whether a call whose key starts with `prefix` is on the stack."""
        return any(frame[1].startswith(prefix) for frame in self._stack)

    def add(self, key: str, counter: str, amount: float) -> None:
        self.stats[key][counter] += amount

    def wrap(self, fn, key_of, *, record=True, after=None):
        """Wrapper for `fn`: `key_of(*args, **kwargs)` names the span (and so
        its variant); `after(tracer, key, result, *args, **kwargs)` adds work
        counts once the call has returned."""
        tracer = self

        def traced(*args, **kwargs):
            key = key_of(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, key, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                stat = tracer.stats[key]
                stat["calls"] += 1
                stat["self_s"] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if record:
                    tracer.spans.append((span_id, key, start, end, parent, tracer.op_id))
            if after is not None:
                after(tracer, key, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def summary(self) -> dict:
        """{key: {counter: total}} over the whole run."""
        return {key: dict(stat) for key, stat in self.stats.items()}

    def dump(self) -> dict:
        """Counters and spans, for another process to absorb."""
        return {"summary": self.summary(), "spans": self.spans}

    def absorb(self, dumped: dict) -> None:
        """Add a child process's counters and spans (a traced CLI command)
        under the current operation, renumbering its span ids."""
        for key, stat in dumped["summary"].items():
            for counter, value in stat.items():
                self.stats[key][counter] += value
        base = self._next_id
        for span_id, key, start, end, parent, _ in dumped["spans"]:
            self.spans.append((base + span_id, key, start, end,
                               parent if parent < 0 else base + parent, self.op_id))
            self._next_id = max(self._next_id, base + span_id + 1)


# --------------------------------------------------------------------------
# Variant keys, read from each call's inputs
# --------------------------------------------------------------------------


def _fixed(key):
    return lambda *args, **kwargs: key


def _exact_bounds(a, b) -> bool:
    from gaugelab.exact import is_exact_scalar

    if isinstance(a, float) or isinstance(b, float):
        return False
    return is_exact_scalar(a) and is_exact_scalar(b)


def _key_uniform(a, b, *args, **kwargs):
    regime = "exact" if _exact_bounds(a, b) else "float"
    return f"divisions.make_uniform.{regime}"


def _key_shifted(a, b, n=None, tag_rule="left", shift=None):
    exact = _exact_bounds(a, b) and not isinstance(shift, float)
    return f"divisions.make_shifted_uniform.{'exact' if exact else 'float'}"


def _key_delta_fine(a, b, gauge, *args, **kwargs):
    if gauge.is_constant:
        variant = "constant"
    elif _exact_bounds(a, b):
        variant = "recursive"
    else:
        variant = "batched"
    return f"divisions.delta_fine_division.{variant}"


def _key_riemann(h, division, **kwargs):
    if division.exact:
        variant = "scalar_exact"
    elif h.batch is not None:
        variant = "batched"
    else:
        variant = "scalar_float"
    return f"divisions.riemann_sum.{variant}"


# --------------------------------------------------------------------------
# Work counts
# --------------------------------------------------------------------------


def _count_cells(tracer, key, division, *args, **kwargs):
    tracer.add(key, "cells", division.n)


def _count_riemann(tracer, key, value, h, division, **kwargs):
    tracer.add(key, "cells", division.n)
    if kwargs.get("compensated"):
        tracer.add("divisions.riemann_sum.compensated", "calls", 1)


def _count_division_init(tracer, key, _none, division, *args, **kwargs):
    tracer.add(key, "cells", division.n)
    if tracer.inside("integrators."):
        tracer.add("integrators", "label_cells", division.n)


def _count_points(tracer, key, widths, gauge, points, *args, **kwargs):
    tracer.add(key, "points", len(widths))


def _count_levels(tracer, key, result, *args, **kwargs):
    tracer.add(key, "levels", len(result.trace))
    if not tracer.inside("integrators."):
        tracer.add("integrators", "labels", 1)


def _count_brownian(tracer, key, path, *args, **kwargs):
    tracer.add("stochastic", "substreams", 1)  # the level-0 key


def _count_refine(tracer, key, new_path, path, *args, **kwargs):
    tracer.add(key, "values", path.n)
    if path.master_seed is not None and path.path_id is not None:
        tracer.add("stochastic", "substreams", 1)


# (module, public name, key function, record a span?, work counter)
_FUNCTIONS = (
    ("catalog", "run_entry", _fixed("catalog.run_entry"), True, None),
    ("integrators", "rs_integrate", _fixed("integrators.rs_integrate"), True, _count_levels),
    ("integrators", "gauge_integrate", _fixed("integrators.gauge_integrate"), True, _count_levels),
    ("integrators", "darboux_riemann", _fixed("integrators.darboux_riemann"), True, _count_levels),
    (
        "integrators",
        "lebesgue_distribution_integrate",
        _fixed("integrators.lebesgue_distribution_integrate"),
        True,
        _count_levels,
    ),
    ("divisions", "make_uniform", _key_uniform, True, _count_cells),
    ("divisions", "make_shifted_uniform", _key_shifted, True, _count_cells),
    ("divisions", "delta_fine_division", _key_delta_fine, True, _count_cells),
    ("divisions", "bisect_refine", _fixed("divisions.bisect_refine"), True, _count_cells),
    ("divisions", "riemann_sum", _key_riemann, True, _count_riemann),
    ("expr", "evaluate", _fixed("expr.evaluate"), False, None),
    ("stochastic", "brownian_path", _fixed("stochastic.brownian_path"), True, _count_brownian),
    ("stochastic", "refine_path", _fixed("stochastic.refine_path"), True, _count_refine),
    ("stochastic", "quadratic_variation", _fixed("stochastic.quadratic_variation"), True, None),
    ("stochastic", "total_variation", _fixed("stochastic.total_variation"), True, None),
    ("stochastic", "ito_sum", _fixed("stochastic.ito_sum"), True, None),
    ("stochastic", "stratonovich_sum", _fixed("stochastic.stratonovich_sum"), True, None),
    ("stochastic", "mc_run", _fixed("stochastic.mc_run"), True, None),
    ("cli", "main", _fixed("cli.main"), True, None),
)

# (class, method, key, work counter)
_METHODS = (
    ("TaggedDivision", "__init__", "cells.TaggedDivision", _count_division_init),
    ("Gauge", "evaluate_batch", "cells.Gauge.evaluate_batch", _count_points),
)

_MODULES = (
    "exact", "cells", "integrand", "divisions", "results", "integrators",
    "expr", "stochastic", "catalog", "cli",
)


def install(tracer: Tracer) -> None:
    """Rebind every traced public name in every gaugelab module and its
    module-level dicts."""
    import importlib

    import gaugelab

    modules = [gaugelab] + [importlib.import_module(f"gaugelab.{m}") for m in _MODULES]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    tables = [v for m in modules for k, v in vars(m).items()
              if type(v) is dict and not k.startswith("__")]
    for owner, name, key_of, record, after in _FUNCTIONS:
        original = getattr(by_name[owner], name)
        wrapper = tracer.wrap(original, key_of, record=record, after=after)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapper)
        for table in tables:
            for key in [k for k, v in table.items() if v is original]:
                table[key] = wrapper
    cells = by_name["cells"]
    for cls_name, method, key, after in _METHODS:
        cls = getattr(cells, cls_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), _fixed(key), after=after))
