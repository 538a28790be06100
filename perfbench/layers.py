"""Per-layer metrics of a traced run: names, units, directions, values.

Times are self times per round in ms; counts are per round.  A round is one
pass over the workload's operation list, and every round does the same
work, so each count is exact and repeats across runs at the same seed.
A name that the workload never reaches reads 0.
"""

from __future__ import annotations

INTEGRATORS = (
    "rs_integrate",
    "gauge_integrate",
    "darboux_riemann",
    "lebesgue_distribution_integrate",
)
ESTIMATORS = ("quadratic_variation", "total_variation", "ito_sum", "stratonovich_sum")

# (span key, its work counter or None); each gives .calls, .<counter>, .self_ms
SPANS = (
    ("catalog.run_entry", None),
    *((f"integrators.{name}", "levels") for name in INTEGRATORS),
    *((f"divisions.make_uniform.{v}", "cells") for v in ("float", "exact")),
    *((f"divisions.make_shifted_uniform.{v}", "cells") for v in ("float", "exact")),
    *(
        (f"divisions.delta_fine_division.{v}", "cells")
        for v in ("constant", "batched", "recursive")
    ),
    ("divisions.bisect_refine", "cells"),
    *(
        (f"divisions.riemann_sum.{v}", "cells")
        for v in ("batched", "scalar_float", "scalar_exact")
    ),
    ("cells.TaggedDivision", "cells"),
    ("cells.Gauge.evaluate_batch", "points"),
    ("expr.evaluate", None),
    ("stochastic.brownian_path", None),
    ("stochastic.refine_path", "values"),
    *((f"stochastic.{name}", None) for name in ESTIMATORS),
    ("stochastic.mc_run", None),
    ("cli.main", None),
)

IMPORTS = ("numpy", "scipy_special", "gaugelab", "gaugelab_cli")


def _schema():
    rows = []
    for key, counter in SPANS:
        rows.append((f"{key}.calls", "count", "lower"))
        if counter:
            rows.append((f"{key}.{counter}", "count", "lower"))
        rows.append((f"{key}.self_ms", "ms", "lower"))
    rows += [
        ("divisions.riemann_sum.compensated.calls", "count", "lower"),
        ("integrators.cells_per_label", "count", "lower"),
        ("stochastic.substreams", "count", "lower"),
        ("cli.artifact_bytes", "bytes", "lower"),
    ]
    rows += [(f"import.{name}_s", "s", "lower") for name in IMPORTS]
    rows += [
        ("host.ref_s", "s", "lower"),
        ("trace.round_ms", "ms", "lower"),
        ("trace.covered_ms", "ms", "lower"),
        ("trace.uncovered_ms", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
        ("fail_ratio", "ratio", "lower"),
    ]
    return tuple(rows)


# (name, unit, better) for every per-layer metric, in BENCHMARK.json order.
PER_LAYER = _schema()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def per_round(summary: dict, rounds: int) -> dict:
    """Layer metrics per round from a tracer summary ({key: {counter: total}}).

    Leaves out the import, host and trace metrics, which the caller measures.
    """
    out = {}
    for key, counter in SPANS:
        stat = summary.get(key, {})
        out[f"{key}.calls"] = stat.get("calls", 0) / rounds
        if counter:
            out[f"{key}.{counter}"] = stat.get(counter, 0) / rounds
        out[f"{key}.self_ms"] = 1e3 * stat.get("self_s", 0.0) / rounds
    integ = summary.get("integrators", {})
    labels = integ.get("labels", 0)
    out["divisions.riemann_sum.compensated.calls"] = (
        summary.get("divisions.riemann_sum.compensated", {}).get("calls", 0) / rounds
    )
    out["integrators.cells_per_label"] = integ.get("label_cells", 0) / labels if labels else 0
    out["stochastic.substreams"] = summary.get("stochastic", {}).get("substreams", 0) / rounds
    out["cli.artifact_bytes"] = summary.get("cli", {}).get("artifact_bytes", 0) / rounds
    return out


def covered_ms(summary: dict, rounds: int) -> float:
    """Sum of the self times of every span, per round."""
    return 1e3 * sum(stat.get("self_s", 0.0) for stat in summary.values()) / rounds
