"""Acceptance battery.

Each test covers one numbered acceptance criterion and prints a single
``criterion NN PASS/FAIL`` line (visible with ``pytest -s``).  Tolerances are
stated inline next to each check; none of them are tuned to the
implementation — they come from closed-form constants, independent
quadrature oracles, or exactness properties of the rule itself.
"""

import json
import math
import random
import time
from importlib import resources

import jsonschema
import pytest

from hh3 import analysis, bounds, cli, quadrature
from hh3.expr import parse
from test_analysis import CATALOG


def check(num: int, description: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num:02d} {status} {description}"
    if failures:
        line += " :: " + "; ".join(failures[:5])
    print(line)
    assert not failures, line


def sig3(x: float) -> float:
    """Round to three significant figures."""
    return float(f"{x:.3g}")


# --------------------------------------------------------------------------

def test_criterion_01_moment_matches_adaptive_quadrature():
    failures = []
    start = time.perf_counter()
    for i in range(1000):
        k = 10.0 ** (-8.0 + 16.0 * i / 999.0)
        half_log = 0.5 * math.log(k)
        numeric = quadrature.integrate_adaptive(
            lambda t: t ** 3 * math.exp(half_log * t), 0.0, 1.0, 1e-13)
        closed = bounds._moment_from_log(math.log(k))
        rel = abs(closed - numeric) / abs(numeric)
        if rel > 1e-10:
            failures.append(f"K={k:.3e}: rel={rel:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    check(1, "moment mu, as chi3 takes it from ln K, matches adaptive "
             "quadrature at 1000 ratios (rel 1e-10, under 5s)", failures)


def test_criterion_02_closed_form_constants():
    failures = []
    mu = bounds._moment_from_log   # of ln K
    cases = [
        ("mu(e^2)", mu(math.log(math.e ** 2)), 6.0 - 2.0 * math.e),
        ("mu(1/e)", mu(math.log(math.exp(-1.0))),
         96.0 - 158.0 * math.exp(-0.5)),
        ("hf(1/e, 2)^(1/2)",
         bounds._qth_root(math.log(math.exp(-1.0)), 2.0, False),
         math.sqrt(1.0 - math.exp(-1.0))),
    ]
    for label, got, want in cases:
        if abs(got - want) > 1e-12:
            failures.append(f"{label}: got {got!r}, want {want!r}")
    check(2, "antiderivative constants reproduced to 1e-12", failures)


def test_criterion_03_power_mean_at_q1_degenerates_to_direct():
    rng = random.Random(20260814)
    failures = []
    for _ in range(100):
        a = rng.uniform(-5.0, 5.0)
        e = bounds.DerivEndpoints(
            f3a_abs=math.exp(rng.uniform(-20.0, 20.0)),
            f3b_abs=math.exp(rng.uniform(-20.0, 20.0)),
            a=a, b=a + rng.uniform(1e-3, 10.0))
        direct = bounds.direct_bound(e)
        collapsed = bounds.power_mean_bound(e, 1.0)
        if abs(collapsed - direct) > 1e-12 * abs(direct):
            failures.append(f"{e}: {collapsed!r} vs {direct!r}")
    check(3, "power-mean bound at q=1 equals the direct bound "
             "(rel 1e-12, 100 random endpoint pairs)", failures)


def test_criterion_04_certified_bounds_are_sound():
    failures = []
    start = time.perf_counter()
    for source, a, b, log_convex in CATALOG:
        if not log_convex:
            continue
        truth = quadrature.reference_integral(parse(source), a, b)
        for n in (1, 2, 4, 8, 16, 32, 64):
            error = None
            for method in ("thm1", "best"):
                cfg = cli.resolve("integrate", {
                    "f": source, "a": a, "b": b, "n": n, "method": method})
                result = cli.cmd_integrate(cfg)
                if error is None:
                    error = abs(result["corrected_sum"] - truth)
                if result["certified_bound"] < error - 1e-12:
                    failures.append(
                        f"{source} n={n} {method}: bound "
                        f"{result['certified_bound']:.3e} < error "
                        f"{error:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    check(4, "certified bound covers the true corrected-sum error for every "
             "log-convex worked integrand, n in 1..64, both methods "
             "(under 30s)",
          failures)


def test_criterion_05_worked_exponential_example():
    failures = []
    ast = parse("exp(x)")
    division = quadrature.uniform_division(0.0, 1.0, 1)
    result = quadrature.composite_bound(ast, division)
    truth = math.e - 1.0
    defect = abs(result.corrected_sum - truth)
    bound = result.certified_bound
    ratio = bound / defect
    for label, got, want in (("defect", defect, 8.638e-4),
                             ("bound", bound, 8.6577e-3),
                             ("bound/defect", ratio, 10.0)):
        if sig3(got) != sig3(want):
            failures.append(f"{label}: {got:.6e} != {want:.6e} at 3 sig figs")
    check(5, "single-interval exp example reproduces defect 8.64e-4, "
             "bound 8.66e-3, ratio 10.0 to 3 significant figures", failures)


def test_criterion_06_sharpest_interval_bound_scales_like_h4():
    failures = []
    ast = parse("exp(x)")

    def max_interval_bound(n: int) -> float:
        division = quadrature.uniform_division(0.0, 1.0, n)
        result = quadrature.composite_bound(ast, division)
        return max(result.interval_bounds)

    for n in (8, 16, 32):
        ratio = max_interval_bound(n) / max_interval_bound(2 * n)
        if not 14.0 <= ratio <= 16.5:
            failures.append(f"n={n}: ratio {ratio:.4f} outside [14, 16.5]")
    check(6, "per-interval bound shrinks ~16x per doubling for exp on [0,1] "
             "(ratio in [14, 16.5] for n >= 8)", failures)


def test_criterion_07_kernel_identity_residual():
    failures = []
    cases = [("x^4", 0.0, 1.0), ("x^5", 0.0, 1.0), ("exp(x)", 0.0, 1.0),
             ("1/x", 1.0, 2.0)]
    for source, a, b in cases:
        residual = quadrature.identity_residual(parse(source), a, b)
        if abs(residual) > 1e-10:
            failures.append(f"{source} on [{a},{b}]: residual {residual:.2e}")
    check(7, "error-kernel identity residual below 1e-10 on x^4, x^5, "
             "exp(x), 1/x", failures)


def test_criterion_08_log_convexity_verdicts_and_power_invariance():
    failures = []
    for source, a, b, log_convex in CATALOG:
        ast = parse(source)
        report = analysis.check_log_convexity(ast, a, b)
        if report["passed"] != log_convex:
            failures.append(f"{source}: verdict {report['passed']}, "
                            f"worked verdict {log_convex}")
        xs, gs = analysis.grid_samples(ast, a, b)
        for q in (1.0, 2.0, 5.0):  # ln g^q = q ln g
            powered = analysis._midpoint_pairs(xs, tuple(g ** q for g in gs))
            if powered["passed"] != report["passed"]:
                failures.append(f"{source} q={q}: verdict flipped")
    check(8, "sampled log-convexity verdicts match the worked integrands' "
             "and are invariant under q in {1, 2, 5}", failures)


def test_criterion_09_corrected_rule_exact_through_degree_3():
    failures = []
    # composite_bound needs f''' != 0, so each monomial m rides on x^3: the
    # rule is linear, so sum(x^3 + m) - 1/4 is the rule's sum of m
    exact = {"1": 1.0, "x": 0.5, "x^2": 1.0 / 3.0, "x^3": 0.25}
    for source, integral in exact.items():
        ast = parse(f"x^3 + {source}")
        for n in (1, 2, 5):
            division = quadrature.uniform_division(0.0, 1.0, n)
            got = quadrature.composite_bound(ast, division).corrected_sum
            if abs(got - 0.25 - integral) > 1e-12:
                failures.append(f"{source} n={n}: {got - 0.25!r} vs "
                                f"{integral!r}")
    check(9, "corrected midpoint sum integrates monomials of degree <= 3 "
             "exactly (1e-12)", failures)


def test_criterion_10_cli_contract(capsys):
    failures = []
    schema = json.loads(
        resources.files("hh3").joinpath("schema.json").read_text())
    exp01 = ["--f", "exp(x)", "--a", "0", "--b", "1"]
    commands = {
        "bounds": ["bounds", *exp01],
        "integrate": ["integrate", *exp01, "--n", "4", "--per-interval",
                      "--oracle"],
        "certify": ["certify", *exp01, "--tol", "1e-6"],
        "verify": ["verify", *exp01],
        "sweep": ["sweep", *exp01, "--n-list", "1,2,4,8"],
    }

    def run(argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    for name, argv in commands.items():
        code, first = run(argv)
        if code != 0:
            failures.append(f"{name}: exit {code}")
            continue
        _, again = run(argv)
        if first != again:
            failures.append(f"{name}: output not byte-deterministic")
        if name == "sweep":
            rows = [line.split(",") for line in first.strip().split("\n")]
            if rows[0][0] != "n" or any(len(r) != 7 for r in rows):
                failures.append("sweep: malformed CSV")
        else:
            try:
                jsonschema.validate(json.loads(first), schema)
            except (ValueError, jsonschema.ValidationError) as exc:
                failures.append(f"{name}: schema violation ({exc})")

    for argv, want in [
        (["bounds", "--f", "log(x)", "--a", "-1", "--b", "1"], 2),
        (["certify", *exp01, "--tol", "1e-30", "--n-max", "64"], 2),
        (["bounds", "--f", "x ^", "--a", "0", "--b", "1"], 64),
        (["integrate", *exp01, "--n", "0"], 64),
    ]:
        code, _ = run(argv)
        if code != want:
            failures.append(f"{argv}: exit {code}, want {want}")

    check(10, "five subcommands emit schema-valid, byte-deterministic "
              "reports; exit codes 0/2/64 honored", failures)
