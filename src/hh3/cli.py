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
win when both supply a value.  ``OPTIONS`` defines both: a flag is its exact
long name, as ``--flag VALUE`` or ``--flag=VALUE``.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from . import analysis, bounds, quadrature
from .errors import DomainError, ExprSyntaxError, Hh3Error, NotConvex
from .expr import Node, eval_jet3, parse
from .reportfmt import Table, rows_to_csv, to_csv, to_json, to_text

EXIT_OK = 0
EXIT_MATH = 2
EXIT_USAGE = 64

_ORACLE_TOL = 1e-13


class UsageError(Exception):
    """Bad flags or config; reported on stderr with exit code 64."""


# --------------------------------------------------------------------------
# Flags: one table serves the command line, the config file and --help
# --------------------------------------------------------------------------

COMMANDS = {
    "bounds": "single-interval error bound report",
    "integrate": "composite sums and certified bound at fixed n",
    "certify": "refine until the certified bound meets --tol",
    "verify": "hypothesis checks and the identity residual",
    "sweep": "CSV table of sums/bounds over many n",
}

# A kind of value: how flag text converts (None: a switch takes no text),
# and what a config value must be.  json.load makes exact ints, floats,
# strs, bools and lists, so ``type(v) is int`` leaves out bools.
_KINDS = {
    "string": (str, "a string", lambda v: type(v) is str),
    "number": (float, "a number", lambda v: type(v) in (int, float)),
    "integer": (int, "an integer", lambda v: type(v) is int),
    "switch": (None, "true or false", lambda v: type(v) is bool),
    "counts": (str, "a string or a list of integers", lambda v: type(v) is str
               or type(v) is list and all(type(i) is int for i in v)),
}


class Option(NamedTuple):
    flag: str
    kind: str
    commands: tuple[str, ...]
    help: str


_ALL, _BOUNDED = tuple(COMMANDS), ("integrate", "certify")
OPTIONS = {
    "f": Option("--f", "string", _ALL, "integrand, an expression in x"),
    "a": Option("--a", "number", _ALL, "left endpoint"),
    "b": Option("--b", "number", _ALL, "right endpoint"),
    "config": Option("--config", "string", _ALL, "JSON file of flag values"),
    "out": Option("--out", "string", _ALL, "write the report to this file"),
    "format": Option("--format", "string", _ALL[:4],
                     "json (the default), csv or text"),
    "grid_points": Option("--grid-n", "integer", ("bounds", "verify"),
                          "odd grid of the log-convexity check (default 257)"),
    "n": Option("--n", "integer", ("integrate",), "subintervals (default 1)"),
    "method": Option("--method", "string", _BOUNDED,
                     "/".join(bounds.METHOD_NAMES) + " (default best: thm1)"),
    "q": Option("--q", "number", _BOUNDED, "thm2/thm3 exponent (default 2)"),
    "per_interval": Option("--per-interval", "switch", ("integrate",),
                           "include each subinterval's bound in the report"),
    "oracle": Option("--oracle", "switch", ("integrate",),
                     "add the reference integral and the sum's true error"),
    "tol": Option("--tol", "number", ("certify",), "target certified bound"),
    "n_max": Option("--n-max", "integer", ("certify",),
                    "give up beyond this many subintervals (default 2^20)"),
    "n_list": Option("--n-list", "counts", ("sweep",),
                     "subinterval counts, comma-separated"),
}
_KEY_OF_FLAG = {option.flag: key for key, option in OPTIONS.items()}


def _usage(command: str | None) -> str:
    """The help text of ``command``, or of hh3 as a whole for None."""
    if command is None:
        title = "commands ('hh3 COMMAND -h' lists the flags of COMMAND)"
        rows = list(COMMANDS.items())
    else:
        title = f"{COMMANDS[command]}\n\nflags"
        rows = [(f"{o.flag} {o.kind.upper()}".removesuffix(" SWITCH"), o.help)
                for o in OPTIONS.values() if command in o.commands]
        rows.append(("-h, --help", "show this help and exit"))
    width = max(len(name) for name, _ in rows)
    return "".join([f"usage: hh3 {command or 'COMMAND'} [--flag VALUE | "
                    f"--flag=VALUE ...]\n\n{title}:\n",
                    *(f"  {name:<{width}}  {text}\n" for name, text in rows)])


def parse_args(argv: list[str]) -> tuple[str | None, dict | None]:
    """The command and its flags by key, each converted by its kind.

    A value is the text after ``=``, or else the next argument as it stands,
    so it may begin with ``-``.  A repeated flag keeps its last value.  The
    flags are None after ``-h`` or ``--help``, as is a command before it.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return None, None
    if command not in COMMANDS:
        problem = f"unknown command {command!r}" if argv else "no command"
        raise UsageError(f"{problem}: expected one of {', '.join(COMMANDS)}")
    given, rest = {}, iter(argv[1:])
    for arg in rest:
        if arg in ("-h", "--help"):
            return command, None
        flag, has_value, text = arg.partition("=")
        key = _KEY_OF_FLAG.get(flag)
        if key is None:
            raise UsageError(f"{command}: unrecognized argument {arg!r}")
        if command not in OPTIONS[key].commands:
            raise UsageError(f"{flag}: not a flag of {command}")
        convert, what, _ = _KINDS[OPTIONS[key].kind]
        if convert is None:   # a switch
            if has_value:
                raise UsageError(f"{flag}: takes no value, got {text!r}")
            given[key] = True
        elif not has_value and (text := next(rest, None)) is None:
            raise UsageError(f"{flag}: expected a value")
        else:
            try:
                given[key] = convert(text)
            except ValueError:
                raise UsageError(f"{flag}: expected {what}, got {text!r}") \
                    from None
    return command, given


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


def _load_config(path: str) -> dict:
    """The JSON object in ``path``: any keys but ``config``, each holding a
    value of its kind, so that one file can serve every command."""
    import json   # here, so that a run without --config does not load it
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
        if key not in OPTIONS or key == "config":
            raise UsageError(f"--config: unknown key {key!r}")
        _, what, has_kind = _KINDS[OPTIONS[key].kind]
        if not has_kind(value):
            raise UsageError(f"--config: {key!r} must be {what}, "
                             f"got {json.dumps(value)}")
    return data


def _parse_n_list(raw: str | list[int]) -> tuple[int, ...]:
    values = []
    for item in raw if type(raw) is list else raw.split(","):
        try:
            n = int(item)
        except ValueError:
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


def resolve(command: str, flags: dict) -> RunConfig:
    """Merge flags and config file into a validated RunConfig."""
    path = flags.get("config")
    values = {**_load_config(path), **flags} if path else flags

    expression = values.get("f")
    if not expression:
        raise UsageError("--f is required (set it on the command line "
                         "or in --config)")
    try:
        ast = parse(expression)
    except ExprSyntaxError as exc:
        raise UsageError(f"--f: {exc}") from None

    if "a" not in values or "b" not in values:
        raise UsageError("--a and --b are required")
    a = _require_finite("--a", values["a"])
    b = _require_finite("--b", values["b"])
    if not a < b:
        raise UsageError(f"--a/--b: need a < b, got [{a!r}, {b!r}]")

    fmt = values.get("format") or "json"
    if fmt not in ("json", "csv", "text"):
        raise UsageError(f"--format: unknown format {fmt!r}")
    out = values.get("out")

    method = values.get("method") or "best"
    if method not in bounds.METHOD_NAMES:
        raise UsageError(f"--method: expected one of "
                         f"{'/'.join(bounds.METHOD_NAMES)}, got {method!r}")
    q = _require_finite("--q", values.get("q", bounds.DEFAULT_Q))
    if method in ("thm1", "best"):
        q = None
    try:
        bounds.bound_function(method, q)
    except DomainError as exc:
        raise UsageError(f"--q: {exc}") from None

    grid_points = values.get("grid_points", analysis.GRID_POINTS_DEFAULT)
    if grid_points < 3 or grid_points % 2 == 0:
        raise UsageError(f"--grid-n: must be odd and >= 3, got {grid_points}")
    _require_at_most("--grid-n", grid_points, analysis.GRID_POINTS_MAX)

    n = values.get("n", 1)
    if n < 1:
        raise UsageError(f"--n: need at least one subinterval, got {n}")
    _require_at_most("--n", n, quadrature.MAX_SUBINTERVALS)

    tol = values.get("tol")
    if command == "certify":
        if tol is None:
            raise UsageError("--tol is required for certify")
        tol = _require_finite("--tol", tol)
        if not tol > 0.0:
            raise UsageError(f"--tol: must be positive, got {tol!r}")

    n_max = values.get("n_max", quadrature.MAX_SUBINTERVALS)
    if n_max < 1:
        raise UsageError(f"--n-max: must be >= 1, got {n_max}")
    _require_at_most("--n-max", n_max, quadrature.MAX_SUBINTERVALS)

    n_list: tuple[int, ...] = ()
    if command == "sweep":
        if "n_list" not in values:
            raise UsageError("--n-list is required for sweep")
        n_list = _parse_n_list(values["n_list"])

    return RunConfig(
        command=command, expression=expression, ast=ast,
        a=a, b=b, fmt=fmt, out=out, n=n, tol=tol, method=method, q=q,
        n_list=n_list, grid_points=grid_points, n_max=n_max,
        per_interval=values.get("per_interval", False),
        oracle=values.get("oracle", False),
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
    rows, coarse = [], None
    for n in cfg.n_list:
        division = quadrature.uniform_division(cfg.a, cfg.b, n)
        # "best" is thm1, so one bound fills both bound columns.  Given the
        # count before as coarse, a count twice it evaluates only new points.
        jets: list[tuple] = []
        result = quadrature.composite_bound(cfg.ast, division, method="thm1",
                                            coarse=coarse, midpoint_jets=jets)
        coarse = (division, result.f3, jets)
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
        command, flags = parse_args(sys.argv[1:] if argv is None else argv)
        if flags is None:
            sys.stdout.write(_usage(command))
            return EXIT_OK
        cfg = resolve(command, flags)
    except UsageError as exc:
        print(f"hh3: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        text = _run(cfg)
    except (Hh3Error, OverflowError) as exc:   # the mathematics said no
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
