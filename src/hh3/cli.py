"""Command line interface.

Five subcommands: ``bounds`` (single-interval bound report plus log-convexity
evidence), ``integrate`` (composite sums and certified bound for a fixed n),
``certify`` (double n until a target tolerance is certified), ``verify``
(hypothesis checks and the kernel-identity residual) and ``sweep`` (a CSV
table over a list of n).

Exit codes: 0 on success, 2 when the mathematics rejects the input (domain
errors, vanishing third derivative, non-convergence, unreachable tolerance),
64 for usage errors (bad flags, malformed expressions, invalid intervals).
Diagnostics go to stderr; stdout carries only the report, whose bytes are
deterministic for identical inputs.

Inputs may come from flags or from a JSON config file (``--config``); flags
win when both supply a value.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NamedTuple

from . import analysis, bounds, quadrature
from .errors import (BadInterval, DomainError, ExprSyntaxError, NonConvergence,
                     NonPositiveThirdDerivative, NotConvex,
                     ToleranceUnreachable)
from .expr import Node, eval_jet3, parse
from .reportfmt import Table, rows_to_csv, to_csv, to_json, to_text

EXIT_OK = 0
EXIT_MATH = 2
EXIT_USAGE = 64

_ORACLE_TOL = 1e-13


class UsageError(Exception):
    """Bad flags or config; reported on stderr with exit code 64."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to 64 instead
        raise UsageError(message)


# --------------------------------------------------------------------------
# Flag definitions
# --------------------------------------------------------------------------

def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="hh3",
        description="Certified corrected-midpoint quadrature for integrands "
                    "with log-convex |f'''|.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(p: _ArgumentParser, with_format: bool = True):
        p.add_argument("--f", dest="f", metavar="EXPR",
                       help="integrand as an expression in x")
        p.add_argument("--a", type=float, help="left endpoint")
        p.add_argument("--b", type=float, help="right endpoint")
        p.add_argument("--config", metavar="PATH",
                       help="JSON file supplying any of the other flags")
        p.add_argument("--out", metavar="PATH",
                       help="write the report to PATH instead of stdout")
        if with_format:
            p.add_argument("--format", choices=("json", "csv", "text"),
                           default=None, help="report format (default json)")

    p = sub.add_parser("bounds", help="single-interval error bound report")
    common(p)
    p.add_argument("--grid-n", dest="grid_points", type=int,
                   help="sample count for the log-convexity check "
                        "(odd, default 257)")

    p = sub.add_parser("integrate",
                       help="composite sums and certified bound at fixed n")
    common(p)
    p.add_argument("--n", type=int, help="number of subintervals (default 1)")
    p.add_argument("--method", choices=bounds.METHOD_NAMES,
                   help="bound selection (default best, which is thm1: "
                        "thm2 and thm3 never beat it)")
    p.add_argument("--q", type=float, help="exponent for thm2/thm3 "
                                           "(default 2)")
    p.add_argument("--per-interval", action="store_true",
                   help="include each subinterval's bound in the report")
    p.add_argument("--oracle", action="store_true",
                   help="also compute the reference integral and the true "
                        "error of the corrected sum")

    p = sub.add_parser("certify",
                       help="refine until the certified bound meets --tol")
    common(p)
    p.add_argument("--tol", type=float, help="target certified bound")
    p.add_argument("--method", choices=bounds.METHOD_NAMES)
    p.add_argument("--q", type=float)
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="give up beyond this many subintervals "
                        "(default 2^20)")

    p = sub.add_parser("verify",
                       help="hypothesis checks and the identity residual")
    common(p)
    p.add_argument("--grid-n", dest="grid_points", type=int)

    p = sub.add_parser("sweep", help="CSV table of sums/bounds over many n")
    common(p, with_format=False)
    p.add_argument("--n-list", dest="n_list", metavar="N1,N2,...",
                   help="comma-separated subinterval counts")

    return parser


# --------------------------------------------------------------------------
# Config resolution
# --------------------------------------------------------------------------

class RunConfig(NamedTuple):
    command: str
    expression: str
    ast: Node
    a: float
    b: float
    fmt: str
    out: str | None
    n: int = 1
    tol: float | None = None
    method: str = "best"
    q: float | None = None
    n_list: tuple[int, ...] = ()
    grid_points: int = analysis.GRID_POINTS_DEFAULT
    n_max: int = quadrature.MAX_SUBINTERVALS
    per_interval: bool = False
    oracle: bool = False


# What a config value must be: its flag's type.  json.load makes exact
# ints, floats, strs, bools and lists, so ``type(v) is int`` leaves out bools.
_STRING = ("a string", lambda v: type(v) is str)
_NUMBER = ("a number", lambda v: type(v) in (int, float))
_INTEGER = ("an integer", lambda v: type(v) is int)
_SWITCH = ("true or false", lambda v: type(v) is bool)
_COUNTS = ("a string or a list of integers", lambda v: type(v) is str
           or type(v) is list and all(type(i) is int for i in v))

_CONFIG_KEYS = {
    "f": _STRING, "a": _NUMBER, "b": _NUMBER, "n": _INTEGER, "tol": _NUMBER,
    "method": _STRING, "q": _NUMBER, "n_list": _COUNTS,
    "grid_points": _INTEGER, "n_max": _INTEGER, "format": _STRING,
    "out": _STRING, "per_interval": _SWITCH, "oracle": _SWITCH,
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"--config: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"--config: {path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise UsageError(f"--config: {path}: must hold a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"--config: unknown key {key!r}")
        what, has_type = _CONFIG_KEYS[key]
        if not has_type(value):
            raise UsageError(f"--config: {key!r} must be {what}, "
                             f"got {json.dumps(value)}")
    return data


def _merged(args: argparse.Namespace, config: dict, name: str):
    """The flag's value if it was given, else the config file's, if any.

    An unset flag reads None, or False for a switch; a flag set to 0 is set
    (0 == False, so this must test identity, not membership).
    """
    value = getattr(args, name, None)
    if value is not None and value is not False:
        return value
    fallback = config.get(name)
    return value if fallback is None else fallback


def _parse_n_list(raw) -> tuple[int, ...]:
    if isinstance(raw, (list, tuple)):
        items = list(raw)
    else:
        items = [piece.strip() for piece in str(raw).split(",")]
    values = []
    for item in items:
        try:
            n = int(item)
        except (TypeError, ValueError):
            raise UsageError(f"--n-list: {item!r} is not an integer") from None
        if n < 1:
            raise UsageError(f"--n-list: counts must be >= 1, got {n}")
        _require_at_most("--n-list", n, quadrature.MAX_SUBINTERVALS)
        values.append(n)
    if not values:
        raise UsageError("--n-list: needs at least one count")
    return tuple(values)


def _require_finite(name: str, value) -> float:
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise UsageError(f"{name}: must be finite, got {value!r}")
    return number


def _require_at_most(name: str, count: int, limit: int) -> None:
    """Refuse a count whose run would outgrow memory or time."""
    if count > limit:
        raise UsageError(f"{name}: must be <= {limit}, got {count}")


def resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags and config file into a validated RunConfig."""
    config = _load_config(args.config) if args.config else {}

    expression = _merged(args, config, "f")
    if not expression:
        raise UsageError("--f is required (set it on the command line "
                         "or in --config)")
    try:
        ast = parse(str(expression))
    except ExprSyntaxError as exc:
        raise UsageError(f"--f: {exc}") from None

    a = _merged(args, config, "a")
    b = _merged(args, config, "b")
    if a is None or b is None:
        raise UsageError("--a and --b are required")
    a = _require_finite("--a", a)
    b = _require_finite("--b", b)
    if not a < b:
        raise UsageError(f"--a/--b: need a < b, got [{a!r}, {b!r}]")

    fmt = _merged(args, config, "format") or "json"
    if fmt not in ("json", "csv", "text"):
        raise UsageError(f"--format: unknown format {fmt!r}")
    out = _merged(args, config, "out")

    method = _merged(args, config, "method") or "best"
    if method not in bounds.METHOD_NAMES:
        raise UsageError(f"--method: expected one of "
                         f"{'/'.join(bounds.METHOD_NAMES)}, got {method!r}")
    q = _merged(args, config, "q")
    if q is not None:
        q = _require_finite("--q", q)
    if method in ("thm1", "best"):
        q = None
    elif q is None:
        q = bounds.DEFAULT_Q
    try:
        bounds.bound_function(method, q)
    except DomainError as exc:
        raise UsageError(f"--q: {exc}") from None

    grid_points = _merged(args, config, "grid_points")
    if grid_points is None:
        grid_points = analysis.GRID_POINTS_DEFAULT
    if grid_points < 3 or grid_points % 2 == 0:
        raise UsageError(f"--grid-n: must be odd and >= 3, got {grid_points}")
    _require_at_most("--grid-n", grid_points, analysis.GRID_POINTS_MAX)

    n = _merged(args, config, "n")
    if n is None:
        n = 1
    if n < 1:
        raise UsageError(f"--n: need at least one subinterval, got {n}")
    _require_at_most("--n", n, quadrature.MAX_SUBINTERVALS)

    tol = _merged(args, config, "tol")
    if args.command == "certify":
        if tol is None:
            raise UsageError("--tol is required for certify")
        tol = _require_finite("--tol", tol)
        if not tol > 0.0:
            raise UsageError(f"--tol: must be positive, got {tol!r}")

    n_max = _merged(args, config, "n_max")
    if n_max is None:
        n_max = quadrature.MAX_SUBINTERVALS
    if n_max < 1:
        raise UsageError(f"--n-max: must be >= 1, got {n_max}")
    _require_at_most("--n-max", n_max, quadrature.MAX_SUBINTERVALS)

    n_list: tuple[int, ...] = ()
    if args.command == "sweep":
        raw = _merged(args, config, "n_list")
        if raw is None:
            raise UsageError("--n-list is required for sweep")
        n_list = _parse_n_list(raw)

    return RunConfig(
        command=args.command, expression=str(expression), ast=ast,
        a=a, b=b, fmt=fmt, out=out, n=n, tol=tol, method=method, q=q,
        n_list=n_list, grid_points=grid_points, n_max=n_max,
        per_interval=bool(_merged(args, config, "per_interval")),
        oracle=bool(_merged(args, config, "oracle")),
    )


# --------------------------------------------------------------------------
# Report assembly
# --------------------------------------------------------------------------

def _envelope(cfg: RunConfig) -> dict:
    return {"schema": 1, "command": cfg.command,
            "expression": cfg.expression, "a": cfg.a, "b": cfg.b}


def _convexity_doc(report: analysis.ConvexityReport, grid_points: int) -> dict:
    return {
        "passed": report.passed,
        "worst_violation": report.worst_violation,
        "witness": list(report.witness) if report.witness else None,
        "pairs_tested": report.pairs_tested,
        "grid_points": grid_points,
        "kind": "sampled-evidence",
    }


def cmd_bounds(cfg: RunConfig) -> dict:
    jet_a = eval_jet3(cfg.ast, cfg.a)
    jet_b = eval_jet3(cfg.ast, cfg.b)
    e = bounds.DerivEndpoints(f3a_abs=abs(jet_a[3]), f3b_abs=abs(jet_b[3]),
                              a=cfg.a, b=cfg.b)
    report = bounds.best_bound(e)
    convexity = analysis.check_log_convexity(cfg.ast, cfg.a, cfg.b,
                                             cfg.grid_points)
    doc = _envelope(cfg)
    doc.update({
        "f3a_abs": e.f3a_abs, "f3b_abs": e.f3b_abs,
        "K": e.f3a_abs / e.f3b_abs, "M": e.f3b_abs / e.f3a_abs,
        "chi1": report.chi1, "chi2": report.chi2, "chi3": report.chi3,
        "q": report.q,
        "min_value": report.min_value, "argmin": report.argmin_label,
        "log_convexity": _convexity_doc(convexity, cfg.grid_points),
        "hypothesis_supported": convexity.passed,
    })
    return doc


def cmd_integrate(cfg: RunConfig) -> dict:
    division = quadrature.uniform_division(cfg.a, cfg.b, cfg.n)
    result = quadrature.composite_bound(cfg.ast, division, method=cfg.method,
                                        q=cfg.q)
    doc = _envelope(cfg)
    doc.update({
        "n": cfg.n, "method": cfg.method, "q": cfg.q,
        "midpoint_sum": result.midpoint_sum,
        "corrected_sum": result.corrected_sum,
        "certified_bound": result.certified_bound,
        "midpoint_bound": result.certified_bound,
        "midpoint_bound_heuristic": result.midpoint_bound_heuristic,
    })
    if cfg.per_interval:
        label = "thm1" if cfg.method == "best" else cfg.method
        f3 = result.f3
        keys = ("lo", "hi", "bound", "k_ratio", "m_ratio", "method", "q")
        rows = zip(division, division[1:], f3, f3[1:],
                   result.interval_bounds)
        doc["intervals"] = Table(keys, [
            (lo, hi, bound, f3a / f3b, f3b / f3a, label, cfg.q)
            for lo, hi, f3a, f3b, bound in rows])
    if cfg.oracle:
        truth = quadrature.reference_integral(cfg.ast, cfg.a, cfg.b,
                                              _ORACLE_TOL)
        error = abs(result.corrected_sum - truth)
        doc["true_value"] = truth
        doc["true_error"] = error
        doc["sound"] = bool(result.certified_bound >= error - 1e-12)
    return doc


def cmd_certify(cfg: RunConfig) -> dict:
    outcome = quadrature.certify(cfg.ast, cfg.a, cfg.b, cfg.tol,
                                 method=cfg.method, q=cfg.q,
                                 n_max=cfg.n_max)
    doc = _envelope(cfg)
    doc.update({
        "tol": cfg.tol, "method": cfg.method, "q": cfg.q,
        "n_final": outcome.n_final, "iterations": outcome.iterations,
        "midpoint_sum": outcome.result.midpoint_sum,
        "corrected_sum": outcome.result.corrected_sum,
        "certified_bound": outcome.result.certified_bound,
    })
    return doc


def cmd_verify(cfg: RunConfig) -> dict:
    convexity = analysis.check_log_convexity(cfg.ast, cfg.a, cfg.b,
                                             cfg.grid_points)
    try:
        hh = analysis.check_hermite_hadamard(cfg.ast, cfg.a, cfg.b,
                                             cfg.grid_points)
        hh_doc = {
            "convex": True, "passed": hh.passed,
            "midpoint_value": hh.midpoint_value,
            "integral_mean": hh.integral_mean,
            "endpoint_mean": hh.endpoint_mean,
            "lower_slack": hh.lower_slack,
            "upper_slack": hh.upper_slack,
        }
    except NotConvex as exc:
        hh_doc = {"convex": False, "witness_x": exc.x,
                  "witness_second_derivative": exc.value}
    residual = quadrature.identity_residual(cfg.ast, cfg.a, cfg.b)
    doc = _envelope(cfg)
    doc.update({
        "grid_points": cfg.grid_points,
        "log_convexity": _convexity_doc(convexity, cfg.grid_points),
        "hermite_hadamard": hh_doc,
        "identity_residual": residual,
    })
    return doc


_SWEEP_HEADER = ("n", "midpoint_sum", "corrected_sum", "bound_thm1",
                 "bound_best", "true_error", "ratio")


def cmd_sweep(cfg: RunConfig) -> str:
    truth = quadrature.reference_integral(cfg.ast, cfg.a, cfg.b, _ORACLE_TOL)
    rows = []
    for n in cfg.n_list:
        division = quadrature.uniform_division(cfg.a, cfg.b, n)
        # "best" is thm1, so one bound fills both bound columns
        result = quadrature.composite_bound(cfg.ast, division, method="thm1")
        error = abs(result.corrected_sum - truth)
        ratio = result.certified_bound / error if error > 0.0 else math.inf
        rows.append((n, result.midpoint_sum, result.corrected_sum,
                     result.certified_bound, result.certified_bound,
                     error, ratio))
    return rows_to_csv(_SWEEP_HEADER, rows)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

_RENDERERS = {"json": to_json, "csv": to_csv, "text": to_text}


def _run(cfg: RunConfig) -> str:
    if cfg.command == "sweep":
        return cmd_sweep(cfg)
    command = {"bounds": cmd_bounds, "integrate": cmd_integrate,
               "certify": cmd_certify, "verify": cmd_verify}[cfg.command]
    return _RENDERERS[cfg.fmt](command(cfg))


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve(args)
    except UsageError as exc:
        print(f"hh3: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        text = _run(cfg)
    except (DomainError, NonPositiveThirdDerivative, BadInterval,
            NonConvergence, ToleranceUnreachable, NotConvex,
            OverflowError) as exc:
        print(f"hh3: {exc}", file=sys.stderr)
        return EXIT_MATH
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"hh3: error: --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
