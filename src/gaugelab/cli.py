"""Command-line front end: batch experiments, deterministic artifacts.

Three commands: `integrate` drives the four integral definitions over an
expression or a catalog entry, `brownian` runs Monte Carlo over dyadic
Brownian paths, `series` prints partial sums of the alternating harmonic
series.  Artifacts are CSV or JSON with fixed schemas; pass --no-timestamp
to make them byte-identical across runs.

Exit codes: 0 converged / success, 1 usage or contract error (or a stdout
closed before the output was written), 2 diverged or oscillating, 3
inconclusive.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import shlex
import sys
from dataclasses import replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

from . import __version__
from .errors import MAX_LEVEL, GaugeLabError
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

# Each command imports the modules it runs inside its own functions, so a
# cold `gaugelab series` or `gaugelab brownian` never loads the integrators.
if TYPE_CHECKING:
    from .integrators import ConvergenceController

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
    """argparse, but usage failures exit 1 as documented (not argparse's 2),
    signed numbers in exponent form and -inf are values, and `--catalog`
    lists the entries only when help is shown."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1 and -0.5 as values but -1e-3 and -inf as options;
        # -inf and -infinity, in any case, reach float() and its refusal
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|(?i:inf|infinity))$"
        )

    def format_help(self):
        for action in self._actions:
            if action.dest == "catalog" and action.help is None:
                from .catalog import entry_names

                action.help = f"named entry: {', '.join(entry_names())}"
        return super().format_help()

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


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


def _write_artifact(args, header: Sequence[str], rows, payload) -> None:
    if args.out is None:
        return
    if args.format == "csv":
        lines = [f"# gaugelab {__version__}", f"# command: {shlex.join(args.argv)}"]
        if args.command == "brownian":
            lines.append(
                f"# bit_generator={BIT_GENERATOR} gaussian_transform={GAUSSIAN_TRANSFORM}"
            )
        if not args.no_timestamp:
            lines.append(f"# generated: {_timestamp_line()}")
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt_num(x) for x in row))
        text = "\n".join(lines) + "\n"
    else:
        metadata = {"version": __version__, "command_line": shlex.join(args.argv)}
        if args.command == "brownian":
            metadata["bit_generator"] = BIT_GENERATOR
            metadata["gaussian_transform"] = GAUSSIAN_TRANSFORM
        if not args.no_timestamp:
            metadata["generated"] = _timestamp_line()
        body = dict(payload)
        body["metadata"] = metadata
        text = json.dumps(body, indent=2, allow_nan=False) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GaugeLabError(f"cannot write {args.out!r}: {exc.strerror or exc}") from exc


# --------------------------------------------------------------------------
# integrate
# --------------------------------------------------------------------------


def _parse_levels(text: str) -> Tuple[int, int]:
    """--levels START:STOP as two ints; the schedule checks their range."""
    try:
        start_s, stop_s = text.split(":", 1)
        return int(start_s), int(stop_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"wants START:STOP (e.g. 4:18), got {text!r}") from None


def _controller_from_args(args, base: ConvergenceController) -> ConvergenceController:
    from .divisions import RefinementSchedule

    changes = {}
    if args.tol is not None:
        changes["tolerance_abs"] = args.tol
    if args.levels is not None:
        changes["schedule"] = RefinementSchedule(*args.levels)
    return replace(base, **changes)


def _catalog_entry(name: str, parser: _Parser, kind: Optional[str] = None):
    """The catalog entry `name`; an unknown name is a usage error that lists
    the entries, only those of `kind` when it is given."""
    from .catalog import standard_entries

    entries = standard_entries()
    for entry in entries:
        if entry.name == name:
            return entry
    names = ", ".join(e.name for e in entries if kind in (None, e.kind))
    parser.error(f"unknown catalog entry {name!r}; {kind or 'catalog'} entries: {names}")


def _integrate_catalog(args, parser: _Parser) -> IntegralResult:
    from .catalog import run_entry

    entry = _catalog_entry(args.catalog, parser)
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
    from .catalog import dirichlet_factor, run_method, standard_entries
    from .expr import as_function, derive_extrema_oracle, evaluate, free_vars, parse
    from .integrand import length_factor, make_integrand
    from .integrators import ConvergenceController

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
    ctrl = _controller_from_args(args, ConvergenceController())

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
        g_entry = _catalog_entry(dI[3:], parser, "distribution")
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


def cmd_integrate(args, parser: _Parser) -> int:
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
        args, ("level", "n", "sum_min", "sum_max", "estimate", "status"), rows, payload
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
    from .expr import as_function, free_vars, parse

    text = vars(args)[flag]
    if not text:
        parser.error(f"{args.sub} requires --{flag} <expression in x>")
    ast = parse(text)
    unknown = free_vars(ast) - {"x"}
    if unknown:
        parser.error(f"--{flag} expressions use the variable x; found {sorted(unknown)}")
    return as_function(ast, "x")


def cmd_brownian(args, parser: _Parser) -> int:
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
        args,
        ("command", "t", "level", "paths", "seed", "mean", "variance", "stderr"),
        [row],
        payload,
    )
    return 0


# --------------------------------------------------------------------------
# series
# --------------------------------------------------------------------------


def cmd_series(args, parser: _Parser) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    from .series import conditional_series

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
        args,
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
        epilog=GRAMMAR + "\nexit codes: 0 converged/success, 1 usage error, "
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
    pi.add_argument("--catalog")  # help filled in by _Parser.format_help
    pi.add_argument("--a", help="left endpoint (default 0)")
    pi.add_argument("--b", help="right endpoint (default 1)")
    pi.add_argument("--tol", type=float, help="stability tolerance override")
    pi.add_argument("--levels", type=_parse_levels,
                    help=f"refinement schedule START:STOP, STOP <= {MAX_LEVEL}")
    pi.set_defaults(run=cmd_integrate)

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
    pb.set_defaults(run=cmd_brownian)

    ps = sub.add_parser("series", parents=[common],
                        help="alternating harmonic partial sums")
    ps.add_argument("--n", type=int, required=True, help="number of terms")
    ps.set_defaults(run=cmd_series)
    # each command reports its usage errors through its own parser
    for command_parser in sub.choices.values():
        command_parser.set_defaults(command_parser=command_parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the artifact's `# command:` line: the run's whole input
    return args.run(args, args.command_parser)


def main_cli(argv: Optional[Sequence[str]] = None) -> None:
    try:
        code = main(argv)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        raise SystemExit(code)
    except GaugeLabError as exc:
        print(f"gaugelab: error: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): end quietly, as other
        # command-line tools do, with stdout on devnull so that the flush
        # at exit raises nothing more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1) from None
