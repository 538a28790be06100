"""Command-line front end: batch experiments, deterministic artifacts.

Three commands: `integrate` drives the four integral definitions over an
expression or a catalog entry, `brownian` runs Monte Carlo over dyadic
Brownian paths, `series` prints partial sums of the alternating harmonic
series.  Artifacts are CSV or JSON with fixed schemas; pass --no-timestamp
to make them byte-identical across runs.

Exit codes: 0 converged / success, 1 usage or contract error, 2 diverged or
oscillating, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shlex
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from . import __version__
from .catalog import (
    conditional_series,
    dirichlet_factor,
    entry_names,
    get_entry,
    run_entry,
    run_method,
    standard_entries,
)
from .divisions import MAX_LEVEL, RefinementSchedule
from .errors import GaugeLabError
from .expr import ExprError, as_function, evaluate, free_vars, parse
from .expr import derive_extrema_oracle
from .integrand import length_factor, make_integrand
from .integrators import ConvergenceController
from .results import EXIT_CODES, IntegralResult
from .stochastic import (
    BIT_GENERATOR,
    GAUSSIAN_TRANSFORM,
    PATH_SUMS,
    ito_formula_residual,
    ito_sum,
    mc_run,
    refine_path,
    stratonovich_sum,
)

MAX_LEVEL_ENV = "GAUGELAB_MAX_LEVEL"

GRAMMAR = """expression grammar:
  expr   := term (('+'|'-') term)*
  term   := factor (('*'|'/') factor)*
  factor := '-' factor | power
  power  := atom ('^' factor)?
  atom   := number | ident | ident '(' expr ')' | '(' expr ')'
functions: sin cos exp log sqrt abs; variables: s (domain), x (path value).
"""

_RULES = {"tag": "tag", "left": "left-endpoint", "mid": "midpoint"}


class _Parser(argparse.ArgumentParser):
    """argparse, but usage failures exit 1 as documented (not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    argv: Tuple[str, ...]
    fmt: str
    out: Optional[str]
    timestamp: bool


def _fmt_num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _jsonable(x):
    """Numbers as JSON numbers; exact sums as the text stdout prints."""
    if x is None or isinstance(x, (int, float, str)):
        return x
    return _fmt_num(x)


def _timestamp_line() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_artifact(config: RunConfig, header: Sequence[str], rows, payload) -> None:
    if config.out is None:
        return
    if config.fmt == "csv":
        lines = [f"# gaugelab {__version__}", f"# command: {shlex.join(config.argv)}"]
        if config.command == "brownian":
            lines.append(
                f"# bit_generator={BIT_GENERATOR} gaussian_transform={GAUSSIAN_TRANSFORM}"
            )
        if config.timestamp:
            lines.append(f"# generated: {_timestamp_line()}")
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt_num(x) for x in row))
        text = "\n".join(lines) + "\n"
    else:
        metadata = {"version": __version__, "command_line": shlex.join(config.argv)}
        if config.command == "brownian":
            metadata["bit_generator"] = BIT_GENERATOR
            metadata["gaussian_transform"] = GAUSSIAN_TRANSFORM
        if config.timestamp:
            metadata["generated"] = _timestamp_line()
        body = dict(payload)
        body["metadata"] = metadata
        text = json.dumps(body, indent=2, allow_nan=False) + "\n"
    with open(config.out, "w", encoding="utf-8") as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# integrate
# --------------------------------------------------------------------------


def _default_stop() -> int:
    raw = os.environ.get(MAX_LEVEL_ENV)
    if raw is None:
        return 22
    try:
        value = int(raw)
    except ValueError:
        raise GaugeLabError(f"{MAX_LEVEL_ENV} must be an integer, got {raw!r}") from None
    if not 0 <= value <= MAX_LEVEL:
        raise GaugeLabError(f"{MAX_LEVEL_ENV} must be in 0..{MAX_LEVEL}, got {value}")
    return value


def _parse_levels(text: str) -> Tuple[int, int]:
    try:
        start_s, stop_s = text.split(":", 1)
        return int(start_s), int(stop_s)
    except ValueError:
        raise GaugeLabError(
            f"--levels wants START:STOP (e.g. 4:18), got {text!r}"
        ) from None


def _controller_from_args(args, base: ConvergenceController) -> ConvergenceController:
    changes = {}
    if args.tol is not None:
        changes["tolerance_abs"] = args.tol
    if args.levels is not None:
        changes["schedule"] = RefinementSchedule(*_parse_levels(args.levels))
    return replace(base, **changes)


def _integrate_catalog(args, parser: _Parser) -> IntegralResult:
    entry = get_entry(args.catalog)
    if entry.kind == "path":
        parser.error(
            f"catalog entry {entry.name!r} is a path; integrate runs integrand, "
            "point-function, and distribution entries"
        )
    if args.method != entry.method:
        parser.error(
            f"catalog entry {entry.name!r} runs under --method {entry.method}"
        )
    if args.expr or args.dI or args.rule or args.a is not None or args.b is not None:
        parser.error("--catalog replaces --expr/--dI/--rule/--a/--b")
    return run_entry(entry, _controller_from_args(args, entry.controller))


def _integrate_expr(args, parser: _Parser) -> IntegralResult:
    if args.method == "lebesgue":
        names = ", ".join(e.name for e in standard_entries() if e.kind == "distribution")
        parser.error(
            "lebesgue integrates the identity against a catalog distribution; "
            f"use --catalog ({names})"
        )
    if not args.expr:
        parser.error("--expr or --catalog is required")
    ast = parse(args.expr)
    unknown = free_vars(ast) - {"s"}
    if unknown:
        parser.error(
            f"integrate expressions use the variable s; found {sorted(unknown)}"
        )
    exact = args.dI == "dD"
    a_raw = "0" if args.a is None else args.a
    b_raw = "1" if args.b is None else args.b
    try:
        a = Fraction(a_raw) if exact else float(a_raw)
        b = Fraction(b_raw) if exact else float(b_raw)
    except (ValueError, ZeroDivisionError):
        parser.error(f"bounds must be numeric, got --a {a_raw!r} --b {b_raw!r}")
    if not a < b:
        parser.error(f"bounds need a < b, got a={a_raw}, b={b_raw}")
    ctrl = _controller_from_args(
        args, ConvergenceController(schedule=RefinementSchedule(4, _default_stop()))
    )

    if args.method == "darboux":
        if args.dI not in (None, "length"):
            parser.error("darboux integrates point functions; only --dI length applies")
        if args.rule:
            parser.error("darboux bounds f over each cell; --rule does not apply")
        oracle = derive_extrema_oracle(ast, float(a), float(b))
        f = as_function(ast, "s")
        return run_method("darboux", (f, oracle), (float(a), float(b)), ctrl)

    dI = args.dI or "length"
    convention = _RULES[args.rule or "tag"]
    if dI == "length":
        factor = length_factor()
    elif dI == "dD":
        factor = dirichlet_factor()
    elif dI.startswith("dg:"):
        g_entry = get_entry(dI[3:])
        if g_entry.kind != "distribution":
            parser.error(
                f"--dI dg: wants a distribution entry; {g_entry.name!r} is {g_entry.kind}"
            )
        factor = g_entry.build().increments()
    else:
        parser.error(f"--dI must be length, dD, or dg:<name>, got {dI!r}")
    if exact:
        point = lambda s: evaluate(ast, {"s": s}, exact=True)
    else:
        point = as_function(ast, "s")
    h = make_integrand(point, factor, convention, name=args.expr)
    return run_method(args.method, h, (a, b), ctrl)


def cmd_integrate(args, parser: _Parser, config: RunConfig) -> int:
    if args.catalog:
        result = _integrate_catalog(args, parser)
    else:
        result = _integrate_expr(args, parser)

    print(f"{'level':>5} {'n':>9} {'sum_min':>24} {'sum_max':>24}")
    for row in result.trace:
        print(
            f"{row.level:>5} {row.n:>9} {_fmt_num(row.sum_min):>24} "
            f"{_fmt_num(row.sum_max):>24}"
        )
    print(f"status: {result.status}")
    if result.estimate is not None:
        print(f"estimate: {_fmt_num(result.estimate)}")
    if result.error_bound is not None:
        print(f"error bound: {_fmt_num(result.error_bound)}")

    last = result.trace[-1] if result.trace else None
    rows = []
    for row in result.trace:
        is_last = row is last
        rows.append(
            (
                row.level,
                row.n,
                row.sum_min,
                row.sum_max,
                result.estimate if is_last else None,
                str(result.status) if is_last else None,
            )
        )
    payload = {
        "command": "integrate",
        "method": args.method,
        "integrand": args.catalog or args.expr,
        "status": str(result.status),
        "estimate": _jsonable(result.estimate),
        "error_bound": _jsonable(result.error_bound),
        "trace": [
            {
                "level": row.level,
                "n": row.n,
                "sum_min": _jsonable(row.sum_min),
                "sum_max": _jsonable(row.sum_max),
            }
            for row in result.trace
        ],
    }
    _write_artifact(
        config, ("level", "n", "sum_min", "sum_max", "estimate", "status"), rows, payload
    )
    return EXIT_CODES[result.status]


# --------------------------------------------------------------------------
# brownian
# --------------------------------------------------------------------------


# The brownian subs over point functions of x: the flags each reads, in the
# order its pathwise sum takes them before the level, and that sum.  Each
# sum looks its functions up at call time, so the benchmark's tracer, which
# rebinds module names, times them.
_POINT_SUMS = {
    "ito": (("f",), lambda p, *fs: ito_sum(p, *fs)),
    "strat": (("f",), lambda p, *fs: stratonovich_sum(refine_path(p), *fs)),
    "ito-residual": (("f", "df", "d2f"), lambda p, *fs: ito_formula_residual(p, *fs)),
}


def _point_function(args, parser: _Parser, flag: str) -> Callable:
    text = vars(args)[flag]
    if not text:
        parser.error(f"{args.sub} requires --{flag} <expression in x>")
    ast = parse(text)
    unknown = free_vars(ast) - {"x"}
    if unknown:
        parser.error(f"--{flag} expressions use the variable x; found {sorted(unknown)}")
    return as_function(ast, "x")


def cmd_brownian(args, parser: _Parser, config: RunConfig) -> int:
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit decimal")
    if args.level < 0:
        parser.error("--level must be >= 0")
    level = args.level
    flags, path_sum = _POINT_SUMS.get(args.sub) or ((), PATH_SUMS[args.sub])
    ignored = [f"--{flag}" for flag in ("f", "df", "d2f")
               if vars(args)[flag] is not None and flag not in flags]
    if ignored:
        parser.error(f"{args.sub} does not read {'/'.join(ignored)}")
    fs = [_point_function(args, parser, flag) for flag in flags]
    estimator = lambda p: path_sum(p, *fs, level)

    stats = mc_run(estimator, args.paths, args.t, level, args.seed)
    print(
        f"{args.sub}: mean={_fmt_num(stats.mean)} variance={_fmt_num(stats.variance)} "
        f"stderr={_fmt_num(stats.stderr)} "
        f"(paths={stats.count}, t={_fmt_num(args.t)}, level={level}, seed={args.seed})"
    )
    row = (
        args.sub, args.t, level, args.paths, args.seed,
        stats.mean, stats.variance, stats.stderr,
    )
    payload = {
        "command": "brownian",
        "sub": args.sub,
        "t": args.t,
        "level": level,
        "paths": args.paths,
        "seed": args.seed,
        "mean": stats.mean,
        "variance": stats.variance,
        "stderr": stats.stderr,
    }
    _write_artifact(
        config,
        ("command", "t", "level", "paths", "seed", "mean", "variance", "stderr"),
        [row],
        payload,
    )
    return 0


# --------------------------------------------------------------------------
# series
# --------------------------------------------------------------------------


def cmd_series(args, parser: _Parser, config: RunConfig) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    partial, positive, negative = conditional_series(args.n)
    print(
        f"{args.n},{_fmt_num(partial)},{_fmt_num(positive)},{_fmt_num(negative)}"
    )
    payload = {
        "command": "series",
        "n": args.n,
        "partial": partial,
        "positive": positive,
        "negative": negative,
    }
    _write_artifact(
        config,
        ("n", "partial", "positive", "negative"),
        [(args.n, partial, positive, negative)],
        payload,
    )
    return 0


# --------------------------------------------------------------------------
# wiring
# --------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gaugelab",
        description="Refinement-probe integration experiments and "
        "pathwise stochastic sums.",
        epilog=GRAMMAR
        + f"\nenvironment: {MAX_LEVEL_ENV} overrides the default max refinement "
        f"level (22; at most {MAX_LEVEL}).\nexit codes: 0 converged/success, 1 usage error, "
        "2 diverged or oscillating, 3 inconclusive.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="artifact format (default csv)")
    common.add_argument("--out", help="write the artifact to this path")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-identical artifacts")

    pi = sub.add_parser(
        "integrate", parents=[common],
        help="run one integral definition over an expression or catalog entry",
        epilog=GRAMMAR, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    pi.add_argument("--method", required=True,
                    choices=("darboux", "rs", "gauge", "lebesgue"))
    pi.add_argument("--expr", help="point function of s")
    pi.add_argument("--dI", help="interval factor: length | dD | dg:<catalog name>")
    pi.add_argument("--rule", choices=tuple(_RULES),
                    help="where an --expr point factor is sampled under rs or "
                    "gauge (default: the tag)")
    pi.add_argument("--catalog", help=f"named entry: {', '.join(entry_names())}")
    pi.add_argument("--a", help="left endpoint (default 0)")
    pi.add_argument("--b", help="right endpoint (default 1)")
    pi.add_argument("--tol", type=float, help="stability tolerance override")
    pi.add_argument("--levels", help=f"refinement schedule START:STOP, STOP <= {MAX_LEVEL}")

    pb = sub.add_parser("brownian", parents=[common],
                        help="Monte Carlo over dyadic Brownian paths")
    pb.add_argument("sub", choices=(*PATH_SUMS, *_POINT_SUMS))
    pb.add_argument("--t", type=float, required=True, help="time horizon")
    pb.add_argument("--level", type=int, required=True, help="dyadic level L")
    pb.add_argument("--paths", type=int, required=True, help="number of paths M")
    pb.add_argument("--seed", type=int, required=True,
                    help="master seed (unsigned 64-bit decimal)")
    pb.add_argument("--f", help="point function of x (ito, strat, ito-residual)")
    pb.add_argument("--df", help="derivative of --f (ito-residual)")
    pb.add_argument("--d2f", help="second derivative of --f (ito-residual)")

    ps = sub.add_parser("series", parents=[common],
                        help="alternating harmonic partial sums")
    ps.add_argument("--n", type=int, required=True, help="number of terms")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        argv=tuple(argv),
        fmt=args.format,
        out=args.out,
        timestamp=not args.no_timestamp,
    )
    if args.command == "integrate":
        return cmd_integrate(args, parser, config)
    if args.command == "brownian":
        return cmd_brownian(args, parser, config)
    return cmd_series(args, parser, config)


def main_cli(argv: Optional[Sequence[str]] = None) -> None:
    try:
        raise SystemExit(main(argv))
    except (ExprError, GaugeLabError) as exc:
        print(f"gaugelab: error: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
