import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import mpmath
import pytest

import hh3
from hh3 import analysis, expr, quadrature
from hh3.cli import COMMANDS, EXIT_MATH, EXIT_OK, EXIT_USAGE, OPTIONS, \
    UsageError, main, parse_args, resolve
from hh3.expr import parse
from test_analysis import CATALOG

EXP01 = ["--f", "exp(x)", "--a", "0", "--b", "1"]
STEEP = ["--f", "exp(30*x)", "--a", "0", "--b", "1"]   # |ln K| = 30


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema():
    text = resources.files("hh3").joinpath("schema.json").read_text()
    return json.loads(text)


def _not_proved(a: float, b: float) -> str:
    """The stderr of integrate, sweep and certify where no proof is found."""
    return (f"hh3: no proof was found that f^(j), j <= 3, is plus or minus a "
            f"completely monotone function on [{a!r}, {b!r}], so no bound is "
            "certified there; sampling proves nothing\n")


# --------------------------------------------------------------------------
# Exit codes
# --------------------------------------------------------------------------

def test_success_is_zero(capsys):
    code, out, err = run(capsys, "bounds", *EXP01)
    assert code == EXIT_OK
    assert out
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["bounds", "--f", "x ^", "--a", "0", "--b", "1"],    # syntax error
    ["bounds", "--f", "exp(y)", "--a", "0", "--b", "1"],  # unknown name
    ["bounds", "--f", "exp(x)", "--a", "1", "--b", "0"],  # empty interval
    ["bounds", "--f", "exp(x)", "--a", "0", "--b", "0"],
    ["bounds", "--f", "exp(x)", "--a", "nan", "--b", "1"],
    ["bounds", *EXP01, "--format", "xml"],                # unknown format
    ["integrate", *EXP01, "--n", "0"],
    ["integrate", *EXP01, "--method", "simpson"],         # unknown choice
    ["integrate", *EXP01, "--method", "thm2"],            # chi1 only
    ["integrate", *EXP01, "--method", "thm3"],
    ["certify", *EXP01],                                  # missing --tol
    ["certify", *EXP01, "--tol", "-1"],
    ["sweep", *EXP01],                                    # missing --n-list
    ["sweep", *EXP01, "--n-list", "1,0"],
    ["sweep", *EXP01, "--n-list", "1,x"],                 # not an integer
    ["certify", *EXP01, "--tol", "1e-3", "--n-max", "0"],
    ["bounds", *EXP01, "--q-grid", "1:2:8(log)"],         # flag was removed
    ["bounds", "--a", "0", "--b", "1"],                   # missing --f
    ["frobnicate", *EXP01],                               # unknown command
    ["certify", *EXP01, "--tol", "1e-3", "--method", "thm2"],
    ["certify", *EXP01, "--tol", "1e-3", "--method", "thm3"],
    ["integrate", *EXP01, "--q", "2"],                    # a flag of bounds
    ["bounds", *EXP01, "--q", "1"],                       # chi2 needs q > 1
])
def test_usage_errors_are_64(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err


@pytest.mark.parametrize("command, extra", [
    ("bounds", []), ("integrate", []), ("certify", ["--tol", "1e-6"]),
    ("verify", []), ("sweep", ["--n-list", "1,2"])])
def test_an_interval_whose_width_overflows_is_refused(capsys, command,
                                                       extra):
    # b - a = inf: integrate and certify exited 2 naming a division point
    # nan, verify an evaluation point, bounds the cube of b - a
    code, out, err = run(capsys, command, "--f", "x^3", "--a", "-1e308",
                         "--b", "1e308", *extra)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("hh3: error: --a/--b: need a finite b - a, "
                   "got [-1e+308, 1e+308]\n")


# --------------------------------------------------------------------------
# Flag parsing
# --------------------------------------------------------------------------

@pytest.mark.parametrize("argv,named", [
    (["bounds", *EXP01, "--bogus", "1"], "'--bogus'"),        # unknown flag
    (["integrate", *EXP01, "--per"], "'--per'"),             # no prefixes
    (["bounds", *EXP01, "--n", "4"], "--n: not a flag of bounds"),
    (["sweep", *EXP01, "--n-list", "1", "--format", "csv"],
     "--format: not a flag of sweep"),
    (["integrate", *EXP01, "--n"], "--n: expected a value"),
    (["integrate", *EXP01, "--oracle=yes"], "--oracle: takes no value"),
    (["integrate", *EXP01, "--oracle", "yes"], "'yes'"),
    (["integrate", *EXP01, "--n", "2.5"], "--n: expected an integer"),
    (["integrate", *EXP01, "--n="], "--n: expected an integer"),
    (["bounds", "--f", "exp(x)", "--a", "zero", "--b", "1"],
     "--a: expected a number, got 'zero'"),
    ([], "no command"),
    (["--f", "exp(x)"], "unknown command '--f'"),
    (["frobnicate", *EXP01], "unknown command 'frobnicate'"),
])
def test_parser_refusals_name_the_flag_or_command(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("hh3: error: ") and named in err


@pytest.mark.parametrize("argv,spaced", [
    # argparse took only -\d+ and -\d*\.\d+ as values, so these exited 64
    (["bounds", "--f", "exp(x)", "--a", "-1e-3", "--b", "1"],
     ["bounds", "--f", "exp(x)", "--a=-1e-3", "--b", "1"]),
    (["integrate", "--f", "-exp(x)", "--a", "0", "--b", "1"],
     ["integrate", "--f=-exp(x)", "--a", "0", "--b", "1"]),
    # --flag=value is --flag value
    (["integrate", *EXP01, "--n=4", "--method=thm1", "--format=csv"],
     ["integrate", *EXP01, "--n", "4", "--method", "thm1", "--format",
      "csv"]),
    # a repeated flag keeps its last value
    (["integrate", *EXP01, "--n", "2", "--format", "csv", "--n", "4"],
     ["integrate", *EXP01, "--format", "csv", "--n", "4"]),
])
def test_values_are_taken_as_given(capsys, argv, spaced):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out and run(capsys, *spaced) == (EXIT_OK, out, "")


def listed(usage: str) -> set[str]:
    """The first word of each indented line of a help text."""
    return {line.split()[0] for line in usage.splitlines()
            if line.startswith("  ")}


@pytest.mark.parametrize("argv", [["-h"], ["--help"]])
def test_top_level_help_lists_every_command(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: hh3 COMMAND")
    assert listed(out) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("help_flag", ["-h", "--help"])
def test_command_help_lists_every_flag_of_the_command(capsys, command,
                                                      help_flag):
    # help wins wherever it stands among the flags, as it did in argparse
    code, out, err = run(capsys, command, *EXP01, help_flag, "--bogus")
    assert (code, err) == (EXIT_OK, "")
    assert listed(out) == {"-h,"} | {option.flag for option in
                                     OPTIONS.values()
                                     if command in option.commands}


@pytest.mark.parametrize("argv", [
    ["bounds", "--f", "log(x)", "--a", "-1", "--b", "1"],  # log of negatives
    ["bounds", "--f", "x^2", "--a", "0", "--b", "1"],      # f''' vanishes
    ["integrate", "--f", "1/x", "--a", "-1", "--b", "1"],  # pole at 0
    ["certify", "--f", "exp(x)", "--a", "0", "--b", "1",
     "--tol", "1e-30", "--n-max", "64"],                   # unreachable tol
    ["verify", "--f", "sqrt(x)", "--a", "-1", "--b", "1"],  # domain error
    ["verify", "--f", "exp(1400*x)", "--a", "-0.5",
     "--b", "0.49"],                   # proved, then a panel it cannot halve
])
def test_math_errors_are_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_MATH
    assert out == ""
    assert err


@pytest.mark.parametrize("command", ["bounds", "integrate", "verify"])
@pytest.mark.parametrize("source, expected", [
    ("(" * 2000 + "x^3" + ")" * 2000, EXIT_USAGE),   # the parser recursed
    ("+".join(["exp(x)"] * 3000), EXIT_USAGE),       # to_text recursed
    ("(" * 50 + "x^3" + ")" * 50, EXIT_OK),
], ids=["nest-2000", "sum-3000", "nest-50"])
def test_an_expression_too_deep_to_evaluate_is_a_usage_error(
        capsys, command, source, expected):
    # the RecursionError's traceback once exited 1
    code, out, err = run(capsys, command, "--f", source, "--a", "0",
                         "--b", "1")
    assert code == expected
    if expected == EXIT_USAGE:
        assert out == ""
        assert err == ("hh3: error: --f: the expression nests too deeply "
                       "to evaluate\n")


@pytest.mark.parametrize("command", ["bounds", "integrate"])
def test_a_config_nested_too_deeply_is_a_usage_error(capsys, tmp_path,
                                                      command):
    # json's RecursionError once exited 1 with a traceback
    path = tmp_path / "deep.json"
    path.write_text('{"f": ' + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"hh3: error: --config: {path}: nests too deeply\n"


def test_an_overflowed_literal_is_named_as_text_that_parses(capsys):
    code, out, err = run(capsys, "bounds", "--f", "x^3+2^(1e999)",
                         "--a", "0", "--b", "1")
    assert (code, out) == (EXIT_MATH, "")
    assert err == ("hh3: result is not finite (in 'x^3.0 + 2.0^1e999' at "
                   "x = 0.0)\n")
    # a literal that overflows is still valid input
    code, _, err = run(capsys, "bounds", "--f", "x^3+exp(-1e999)+exp(x)",
                       "--a", "0", "--b", "1")
    assert (code, err) == (EXIT_OK, "")


def test_integrate_certifies_exp_of_a_proved_argument(capsys):
    code, out, err = run(capsys, "integrate", "--f", "exp(-sqrt(x+1))",
                         "--a", "0", "--b", "2", "--n", "8")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["log_convexity"]["kind"] == "proved"


def test_reference_integration_stops_at_a_panel_it_cannot_halve(capsys):
    # exp's rounding makes the rule difference ~1.1x the 10-ulp floor near
    # x = 0.3658, and halving never shrinks it: once a failing panel's 33
    # nodes are no longer distinct floats, the run stops there instead of
    # spending the 1,000,000-evaluation budget
    code, out, err = run(capsys, "verify", "--f", "exp(1400*x)",
                         "--a", "-0.5", "--b", "0.49")
    assert (code, out) == (EXIT_MATH, "")
    assert err == ("hh3: reference integration cannot halve the panel "
                   "[0.3657670820320444, 0.36576708203205843]: its nodes are "
                   "not distinct floats\n")


@pytest.mark.parametrize("command, extra", [
    ("integrate", ["--oracle"]), ("sweep", ["--n-list", "1"]),
    ("verify", [])])
def test_a_reference_integral_outside_float_range_is_named(capsys, command,
                                                           extra):
    # the integral is 1.8846e308 (mpmath), past the largest float, while
    # every value of f and integrate's corrected sum at n = 1, 1.74e308, are
    # floats
    code, out, err = run(capsys, command, "--f", "1.85e306*exp(x/2)",
                         "--a", "0", "--b", "7.9", *extra)
    assert (code, out, err) == (
        EXIT_MATH, "", "hh3: reference integral leaves float range\n")


@pytest.mark.parametrize("command, extra, printed", [
    ("integrate", ["--oracle"], '"true_value": 5.001250208359378e+307'),
    ("sweep", ["--n-list", "1"], "5.001250208359378e+307,3.2560"),
    ("verify", [], '"integral_mean": 1.0002500416718756e+308')],
    ids=["integrate", "sweep", "verify"])
def test_a_reference_integral_near_the_top_of_float_range_is_printed(
        capsys, command, extra, printed):
    # the integral, 5.0012502083593776e307 in mpmath, is a float, though each
    # panel's weighted sum on [-1, 1] reaches about 2e308 before the halving
    # that scales it to the panel
    code, out, err = run(capsys, command, "--f", "1e308*exp(x/1000)",
                         "--a", "0", "--b", "0.5", *extra)
    assert (code, err) == (EXIT_OK, "")
    assert printed in out


# --------------------------------------------------------------------------
# JSON reports validate against the published schema
# --------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["bounds", *EXP01],
    ["bounds", "--f", "x^4", "--a", "1", "--b", "2"],     # failing evidence
    ["integrate", *EXP01, "--n", "4"],
    ["integrate", *EXP01, "--n", "4", "--per-interval", "--oracle"],
    ["integrate", *EXP01, "--method", "thm1"],
    ["certify", *EXP01, "--tol", "1e-6"],
    ["verify", *EXP01],
    ["verify", "--f", "log(x)", "--a", "1", "--b", "2"],  # concave branch
    ["integrate", "--f", "exp(690*x)", "--a", "-1", "--b", "1", "--n", "1",
     "--per-interval"],                                   # K = 0, M = inf
])
def test_json_reports_validate(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, schema())
    assert doc["command"] == argv[0]


@pytest.mark.parametrize("command, extra", [
    ("integrate", ["--n", "4"]), ("certify", ["--tol", "1e-6"])])
def test_the_schema_takes_only_a_proof_behind_a_certificate(capsys, command,
                                                            extra):
    # a sampled block, passed or not, is valid in verify's report only
    _, out, _ = run(capsys, command, *EXP01, *extra)
    doc = json.loads(out)
    for f, a, b in [("exp(x^2)", "2", "3"), ("x^4", "1", "2")]:
        _, out, _ = run(capsys, "verify", "--f", f, "--a", a, "--b", b)
        sampled = json.loads(out)
        jsonschema.validate(sampled, schema())
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(
                doc | {"log_convexity": sampled["log_convexity"]}, schema())


def test_bounds_report_values(capsys):
    _, out, _ = run(capsys, "bounds", *EXP01)
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["f3a_abs"] == 1.0
    assert doc["chi1"] == pytest.approx(0.008658969383756087, rel=1e-15)
    assert (doc["min_value"], doc["argmin"]) == (doc["chi1"], "chi1")
    assert doc["q"] == 2
    assert doc["hypothesis_supported"] is True
    assert doc["log_convexity"]["passed"] is True
    assert doc["log_convexity"]["kind"] == "proved"
    # exp of a quadratic is no completely monotone atom, so it is sampled
    _, out, _ = run(capsys, "bounds", "--f", "exp(x*x)", "--a", "1",
                    "--b", "2")
    doc = json.loads(out)
    assert doc["hypothesis_supported"] is True
    assert doc["log_convexity"]["passed"] is True
    assert doc["log_convexity"]["kind"] == "sampled-evidence"


def test_steep_ratio_bounds_report(capsys):
    code, out, _ = run(capsys, "bounds", *STEEP)
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, schema())
    assert doc["chi2"] >= doc["chi1"]
    assert doc["chi3"] >= doc["chi1"]
    assert doc["min_value"] == doc["chi1"]


@pytest.mark.parametrize("method", ["thm2", "thm3"])
def test_large_q_on_steep_ratio_does_not_overflow(capsys, method):
    # q * |ln K| / 2 = 960 puts K^(q/2) far beyond float range
    code, out, _ = run(capsys, "bounds", *STEEP, "--q", "64")
    assert code == EXIT_OK
    doc = json.loads(out)
    chi = doc["chi2" if method == "thm2" else "chi3"]
    assert math.isfinite(chi) and chi >= doc["chi1"]


@pytest.mark.parametrize("q", ["1e80", "1e150", "1.7e308"])
@pytest.mark.parametrize("f", ["exp(x)", "exp(-3*x)", "1/(x+0.5)"])
def test_any_finite_q_gives_finite_bounds_above_chi1(capsys, f, q):
    # q ln K / 2 far below -700: the parent exited 2 with a bare errno tuple
    # at 1e80, crashed at 1e150, and lost a term of chi2 where q ln K = -inf
    code, out, err = run(capsys, "bounds", "--f", f, "--a", "0", "--b", "1",
                         "--q", q)
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    floor = doc["chi1"] * (1.0 - 4.0 * sys.float_info.epsilon)
    for key in ("chi2", "chi3"):
        assert math.isfinite(doc[key]) and doc[key] >= floor


# The single-interval bounds that integrate --n 1 --per-interval printed
# for exp(x)+exp(2*x) on [0, 1] with --method thm2 --q 3 and with --method
# thm3 --q 1.5, before chi2 and chi3 left the composite path.
@pytest.mark.parametrize("q, key, bits", [
    ("3", "chi2", "0x1.92d0265961c9ep-3"),     # 0.19668607673904587
    ("1.5", "chi3", "0x1.0534f6d184f37p-3"),   # 0.12754242731954843
])
def test_bounds_q_gives_the_old_composite_thm2_thm3_bits(capsys, q, key,
                                                         bits):
    code, out, _ = run(capsys, "bounds", "--f", "exp(x)+exp(2*x)",
                       "--a", "0", "--b", "1", "--q", q)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["q"] == float(q)
    assert (doc[key] * (doc["b"] - doc["a"])).hex() == bits


def test_bounds_names_chi1_the_least_by_theorem(capsys):
    # chi3 rounds 2 ulps below chi1 at this q; min_value took it, "chi3"
    code, out, _ = run(capsys, "bounds", *EXP01, "--q", "1.0000000000000002")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["chi3"] < doc["chi1"]
    assert (doc["min_value"], doc["argmin"]) == (doc["chi1"], "chi1")


@pytest.mark.parametrize("f, b", [
    ("exp(x)", "1e-110"), ("1e-300*exp(x)", "1e-10"),   # chi1 = 0.0
    ("exp(x)", "1e-103"),                                # 5.2e-312
    # chi1 normal, but (b - a)^3/96 or the weighted |f'''| subnormal: about
    # 5% low, 2e-7 low, and |f'''| 2.4e-308 summed and weighted by 1/4
    ("1e300*exp(x)", "1e-107"), ("1e20*exp(x)", "1e-105"),
    ("4e-309*x^3", "100")])
def test_bounds_refuses_a_chi1_below_the_normal_range(capsys, f, b):
    # these printed chi1, chi2, chi3 and min_value as bounds on a positive
    # error: zero, or a value with too few bits
    code, out, err = run(capsys, "bounds", "--f", f, "--a", "0", "--b", b)
    assert (code, out) == (EXIT_MATH, "")
    assert err.startswith("hh3: chi1 ") and err.endswith(
        ": it or a factor is below the normal range, too few bits to bound "
        "the error\n")


def test_bounds_prints_a_tiny_normal_chi1(capsys):
    code, out, _ = run(capsys, "bounds", "--f", "exp(x)", "--a", "0",
                       "--b", "1e-100")
    assert code == EXIT_OK
    assert json.loads(out)["chi1"] == pytest.approx(1e-300 / 192, rel=1e-15)


def test_a_proved_bounds_run_compiles_one_jet_function(capsys, monkeypatch):
    # the f''' pick is compiled on first use, and bounds needs none
    sources = []

    def counted(source, *args):
        sources.append(source)
        return compile(source, *args)
    monkeypatch.setattr(expr, "compile", counted, raising=False)
    expr._lowered.cache_clear()
    code, out, _ = run(capsys, "bounds", *EXP01)
    assert code == EXIT_OK
    assert json.loads(out)["log_convexity"]["kind"] == "proved"
    assert len(sources) == 1 and sources[0].count("def ") == 1


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv", [
    ["integrate", *EXP01, "--n", "4", "--per-interval"],
    ["certify", *EXP01, "--tol", "1e-6"]], ids=["integrate", "certify"])
def test_method_is_checked_and_ignored(capsys, argv, fmt):
    reports = {run(capsys, *argv, "--format", fmt, *method)
               for method in ([], ["--method", "thm1"], ["--method", "best"])}
    (code, out, err), = reports
    assert (code, err) == (EXIT_OK, "") and "method" not in out


_K_OUT_OF_RANGE = ["--a", "-1", "--b", "1"]   # |ln K| = 1380 for exp(690*x)


@pytest.mark.parametrize("f", ["exp(690*x)", "exp(-690*x)"])
def test_ratio_outside_float_range_is_certified(capsys, f):
    # |f'''| is 7.13e-292 and 1.51e308 at the ends, so K underflows to 0 and
    # M overflows to inf; h * chi1 by mpmath at 50 digits is 6.673...e296
    code, out, err = run(capsys, "integrate", "--f", f, *_K_OUT_OF_RANGE,
                         "--n", "1")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["certified_bound"] == pytest.approx(
        6.6733426156275212e296, rel=1e-12)
    # certify's order-4 jet is not finite at one end, so p = 2; mpmath's
    # error of the printed sum is 0.086 of its bound
    code, out, err = run(capsys, "certify", "--f", f, *_K_OUT_OF_RANGE,
                         "--tol", "1e297")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert (doc["order"], doc["n_final"]) == (2, 512)
    with mpmath.workdps(50):
        exact = (mpmath.exp(690) - mpmath.exp(-690)) / 690
        assert abs(exact - mpmath.mpf(repr(doc["corrected_sum"]))) <= \
            doc["certified_bound"] <= 1e297


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_ratio_outside_float_range_passes_the_pair_test(capsys, command):
    # |f'''| spans [7.103426552598369e-292, 5.034881698050794e+307] on the
    # grid, beyond any common scale of its samples.  exp(690*x) itself is
    # proved (see test_bounds_proves_a_ratio_beyond_the_pair_tests_span); its
    # quotient by x + 2 mixes the two classes and is sampled.  The worst
    # violation is within 1e-16 of the one mpmath finds at 50 digits on the
    # same samples, -6.797346745697909e-06
    report = _log_convexity(capsys, command, "--f", "exp(690*x)/(x+2)",
                            *_K_OUT_OF_RANGE)
    assert report == {
        "passed": True, "worst_violation": -6.7973467456905468e-06,
        "witness": None, "pairs_tested": 16384, "grid_points": 257,
        "kind": "sampled-evidence"}
    assert report["worst_violation"] == pytest.approx(
        -6.797346745697909e-06, abs=1e-16)


# The integral of exp(690 x)/(x + 2) over [-1, 1], by u = x + 2, at 60 digits
with mpmath.workdps(60):
    _STEEP_QUOTIENT = mpmath.exp(-1380) * (mpmath.ei(2070) - mpmath.ei(690))


@pytest.mark.parametrize("argv", [
    ["integrate"], ["integrate", "--n", "8"],
    ["sweep", "--n-list", "16,64"]], ids=["integrate", "integrate-8",
                                          "sweep"])
def test_a_sampled_hypothesis_beyond_any_common_scale_is_certified(capsys,
                                                                   argv):
    # the pair test passes the samples above, and the library's
    # composite_bound holds on them; but the tree proves nothing, so
    # integrate and sweep refuse as certify does, and print no bound
    code, out, err = run(capsys, argv[0], "--f", "exp(690*x)/(x+2)",
                         *_K_OUT_OF_RANGE, *argv[1:])
    assert (code, out, err) == (EXIT_MATH, "", _not_proved(-1.0, 1.0))
    with mpmath.workdps(60):   # the counts argv names, n = 1 by default
        for n in map(int, argv[-1].split(",") if argv[1:] else "1"):
            result = quadrature.composite_bound(
                parse("exp(690*x)/(x+2)"),
                quadrature.uniform_division(-1.0, 1.0, n))
            assert abs(_STEEP_QUOTIENT - mpmath.mpf(result.corrected_sum)) \
                <= result.certified_bound


@pytest.mark.parametrize("command", ["integrate", "bounds"])
def test_a_subnormal_f3_sample_is_refused(capsys, command):
    # |f'''(-1.077)| rounds to 6.492e-315 where it is 6.016e-315: ln K off
    # by 0.076 could put chi1, the error itself for exp, below the error
    code, out, err = run(capsys, command, "--f", "exp(690*x)",
                         "--a", "-1.077", "--b", "1")
    assert (code, out) == (EXIT_MATH, "")
    assert err == ("hh3: |f'''| must be a normal float; got subnormal "
                   "6.49220045e-315 at x = -1.077\n")
    code, out, err = run(capsys, "integrate", "--f", "exp(690*x)",
                         *_K_OUT_OF_RANGE)
    assert json.loads(out)["certified_bound"] == 6.6733426156275206e+296


_OVERFLOW = ["--f", "1e280*x^3+x", "--a", "1", "--b", "1e8"]


@pytest.mark.parametrize("argv", [
    ["integrate", *_OVERFLOW],
    ["integrate", *_OVERFLOW, "--format", "text"],
    ["certify", *_OVERFLOW, "--tol", "1e300"],
])
def test_a_sum_outside_float_range_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_MATH, "",
                                "hh3: midpoint_sum leaves float range\n")


_SUBNORMAL = "is subnormal, too few bits for its derivatives"


@pytest.mark.parametrize("argv, why", [
    (["integrate", "--f", "sqrt(x*1e-320)", "--n", "4"],
     f"sqrt argument {_SUBNORMAL} (in 'sqrt(x*1e-320)' at x = 0.5)"),
    (["verify", "--f", "sqrt(x*1e-320)"],
     f"sqrt argument {_SUBNORMAL} (in 'sqrt(x*1e-320)' at x = 0.5)"),
    (["integrate", "--f", "(x*1e-320)^2.5", "--n", "4"],
     f"base {_SUBNORMAL} (in '(x*1e-320)^2.5' at x = 0.5)"),
    (["integrate", "--f", "(x*1e-200)^2.5", "--n", "4"],
     "|f'''| must be positive and finite; got 0.0 at x = 0.5"),
], ids=["integrate-sqrt", "verify-sqrt", "integrate-power",
        "integrate-power-underflow"])
def test_an_underflowing_derivative_divisor_exits_2(capsys, argv, why):
    # the rules divide by the argument, subnormal where it moves with x; a
    # normal base whose power underflows to 0 leaves |f'''| at 0
    code, out, err = run(capsys, *argv, "--a", "0.5", "--b", "1")
    assert (code, out, err) == (EXIT_MATH, "", f"hh3: {why}\n")


def test_log_refuses_a_subnormal_moving_argument_and_certifies_a_tiny_one(
        capsys):
    code, out, err = run(capsys, "integrate", "--f", "log(x*5e-323)",
                         "--a", "0.3", "--b", "0.9", "--n", "16")
    assert (code, out, err) == (
        EXIT_MATH, "", f"hh3: log argument {_SUBNORMAL} "
        "(in 'log(x*5e-323)' at x = 0.3)\n")
    # 1e-110 is normal: the derivatives of its log keep their bits
    code, out, _ = run(capsys, "integrate", "--f", "log(x*1e-110)",
                       "--a", "0.5", "--b", "1", "--n", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    with mpmath.workdps(30):
        c = mpmath.mpf(1e-110)
        antiderivative = [x * mpmath.log(c * x) - x
                          for x in (mpmath.mpf(0.5), mpmath.mpf(1))]
        error = abs(antiderivative[1] - antiderivative[0]
                    - mpmath.mpf(doc["corrected_sum"]))
    assert error <= doc["certified_bound"]


@pytest.mark.parametrize("argv, f, why", [
    ("verify --a 0.5 --b 1", "cos(x/1e-320)",
     "cos needs a finite argument (in 'cos(x/1e-320)' at x = 0.5)"),
    ("bounds --a 0 --b 1", "cos(1/1e-320)+exp(x)",
     "cos needs a finite argument (in 'cos(1.0/1e-320)' at x = 0.0)"),
    ("integrate --a 0.5 --b 1 --n 4", "(x*1e150)^1.5",
     "result is not finite (in '(x*1e+150)^1.5' at x = 0.5)"),
    ("verify --a 0.5 --b 1", "sin(x*1e150)",
     "result is not finite (in 'sin(x*1e+150)' at x = 0.5)"),
    ("verify --a 2 --b 3", "x^1.5e300",
     "power overflow (in 'x^1.5e+300' at x = 2.0)"),
    ("verify --a 0.5 --b 1", "x^(0*(1/1e-320))",
     "result is not finite (in 'x^(0.0*(1.0/1e-320))' at x = 0.5)"),
    ("verify --a 0.5 --b 1", "x^(1/1e-320)",
     "result is not finite (in 'x^(1.0/1e-320)' at x = 0.5)"),
    ("verify --a 1e150 --b 1e151", "-x",
     "identity_residual leaves float range"),
    ("bounds --a 0 --b 1e103", "sqrt(x+1)",
     "(b - a)^3 leaves float range at b - a = 1e+103"),
    ("integrate --a 0 --b 1e103 --n 1", "sqrt(x+1)",
     "h^3 of the corrected midpoint term leaves float range at h = 1e+103"),
    ("certify --a 0 --b 1e103 --tol 1", "sqrt(x+1)",
     "the error bound at every n up to 1048576 leaves float range"),
    ("bounds --a 0.1 --b 1", "x^-400",
     "base too small for a negative power (in 'x^-400.0' at x = 0.1)"),
    ("verify --a 1e-320 --b 2e-320", "x^x",
     f"log argument {_SUBNORMAL} (in 'x^x' at x = 1e-320)"),
    ("bounds --a 1 --b 2", "x^(800*x)",
     "exp overflow (in 'x^(800.0*x)' at x = 2.0)"),
], ids=["integrate-cos", "bounds-cos", "power-cube", "chain-cube", "power",
        "exponent-nan", "exponent-inf", "verify", "bounds-width-cube",
        "integrate-width-cube", "certify-width-cube",
        "bounds-negative-power", "variable-power-log", "variable-power-exp"])
def test_a_float_fault_exits_2_naming_where(capsys, argv, f, why):
    # sin or cos of an inf, a finite ** that overflows, int() of an inf or
    # a NaN exponent, the cube of a width above 5.6e102: each raised a bare
    # ValueError or OverflowError; 0.1^400, the divisor of 0.1^-400,
    # underflows to 0, which raised ZeroDivisionError; derivatives that
    # overflow (power-cube, chain-cube) leave the result not finite.  The
    # guards of u^v, v moving, name the ^ as written, not the exp(v log u)
    # it is computed as ('log(x)' and 'exp(x^(800.0*x))').  certify's bound
    # A_4 h^5 TV leaves float range at every n up to n_max: exit 2 before
    # any midpoint is evaluated.  integrate refuses six of these integrands
    # before any value of f, as nothing proves their hypothesis (see
    # test_one_refusal_for_the_three_certifying_commands); verify, which
    # evaluates f''' on its grid, names their faults (the ids keep the
    # command that named them once)
    code, out, err = run(capsys, *argv.split(), "--f", f)
    assert (code, out, err) == (EXIT_MATH, "", f"hh3: {why}\n")


def test_a_midpoint_bound_outside_float_range_exits_2(capsys, monkeypatch):
    # finite sums of opposite signs whose difference overflows
    result = quadrature.QuadResult(-1e308, 1e308, 1.0, (1.0, 1.0), (1.0,))
    monkeypatch.setattr(quadrature, "composite_bound", lambda f, d: result)
    code, out, err = run(capsys, "integrate", *EXP01)
    assert (code, out, err) == (EXIT_MATH, "",
                                "hh3: midpoint_bound leaves float range\n")


def _log_convexity(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    return json.loads(out)["log_convexity"]


@pytest.mark.parametrize("command", ["bounds", "verify"])
@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_log_convexity_evidence_does_not_depend_on_scale(capsys, command,
                                                         scale):
    # unscaled, the products of samples leave the float range: 1e200 read
    # every ratio as inf/inf and passed, 1e-200 divided by zero
    interval = ("--a", "1", "--b", "2")
    plain = _log_convexity(capsys, command, "--f", "x^4", *interval)
    scaled = _log_convexity(capsys, command, "--f", f"{scale}*x^4",
                            *interval)
    assert scaled["passed"] is plain["passed"] is False
    assert scaled["witness"] == plain["witness"]
    assert scaled["worst_violation"] == pytest.approx(
        plain["worst_violation"], rel=1e-12)


class _Sampled(Exception):
    """Raised by the sampled log-convexity test where a proof should hold."""


@pytest.mark.parametrize("command", ["bounds", "verify"])
@pytest.mark.parametrize("f, a, b", [
    ("exp(x)", "0", "1"), ("exp(-2.5*x)", "0.3", "1.7"),
    ("exp(x)+exp(3*x)", "0", "2"), ("x^3+exp(1.7*x)", "0.2", "1.1"),
    ("1/(x+0.7)", "0", "2"), ("log(x+0.4)", "0.5", "2.5"),
    ("exp(31.5*x)", "0.25", "1.25"), ("x^3", "0", "1")])
def test_a_proved_hypothesis_skips_the_sampled_test(capsys, monkeypatch,
                                                    command, f, a, b):
    def sampled(*args):
        raise _Sampled
    monkeypatch.setattr(analysis, "grid_samples", sampled)
    monkeypatch.setattr(analysis, "_midpoint_pairs", sampled)
    report = _log_convexity(capsys, command, "--f", f, "--a", a, "--b", b)
    assert (report["kind"], report["pairs_tested"]) == ("proved", 0)


@pytest.mark.parametrize("command", ["bounds", "verify"])
@pytest.mark.parametrize("sampler", ["grid_samples", "_midpoint_pairs"])
def test_an_unproved_hypothesis_is_sampled(monkeypatch, command, sampler):
    def sampled(*args):
        raise _Sampled
    monkeypatch.setattr(analysis, sampler, sampled)
    with pytest.raises(_Sampled):
        main([command, "--f", "x^4", "--a", "1", "--b", "2"])


@pytest.mark.parametrize("f, a, b", [
    ("exp(x)", 0.0, 1.0),      # proved
    ("exp(x^2)", 2.0, 3.0),    # sampled and passed
    ("x^4", 1.0, 2.0),         # convex, sampled and refuted
    ("sin(x)", 0.1, 3.0),      # not convex, sampled and refuted
])
def test_the_printed_blocks_are_the_librarys(capsys, f, a, b):
    # key for key and in order, the blocks come from hh3.analysis as printed;
    # integrate and certify print the log_convexity block after their bound,
    # and only a proof: where the verdict is sampled, passed or not, both
    # refuse with one message
    ast, argv = parse(f), ["--f", f, "--a", repr(a), "--b", repr(b)]
    log_convexity = analysis.log_convexity_verdict(ast, a, b)
    commands = {"bounds": [], "verify": []}
    certifying = {"integrate": ["--n", "4"], "certify": ["--tol", "1e-6"]}
    if log_convexity["kind"] == "proved":
        commands.update(certifying)
    else:
        for command, extra in certifying.items():
            assert run(capsys, command, *argv, *extra) == (
                EXIT_MATH, "", _not_proved(a, b))
    after = {"integrate": "midpoint_bound", "certify": "certified_bound"}
    for command, extra in commands.items():
        code, out, err = run(capsys, command, *argv, *extra)
        assert (code, err) == (EXIT_OK, ""), command
        doc = json.loads(out)
        assert list(doc["log_convexity"].items()) == list(
            log_convexity.items())
        keys = list(doc)
        if command in after:
            assert keys[keys.index("log_convexity") - 1] == after[command]
        if command == "verify":
            assert list(doc["hermite_hadamard"].items()) == list(
                analysis.check_hermite_hadamard(ast, a, b).items())


class _Refused(Exception):
    """Raised by the one refusal where a command asks it."""


@pytest.mark.parametrize("command, extra, asks", [
    ("integrate", [], True), ("certify", ["--tol", "1e-6"], True),
    ("sweep", ["--n-list", "1,2"], True), ("bounds", [], False),
    ("verify", [], False)])
def test_the_bounded_commands_refuse_through_one_function(
        capsys, monkeypatch, command, extra, asks):
    # integrate, sweep and certify ask quadrature.require_proof alone
    def refuse(f, a, b):
        raise _Refused
    monkeypatch.setattr(quadrature, "require_proof", refuse)
    argv = [command, "--f", "x^4", "--a", "1", "--b", "2", *extra]
    if asks:
        with pytest.raises(_Refused):
            main(argv)
    else:  # they print the refuted hypothesis instead
        assert run(capsys, *argv)[0] == EXIT_OK


@pytest.mark.parametrize("f, a, b", [
    *((source, repr(a), repr(b)) for source, a, b, _ in CATALOG),
    ("sqrt(x+0.1)*exp(-x)", "0", "1"),
    ("1/(1+25*(x-0.5)^2)", "0.1", "0.7"),
    ("x^4+exp(4*x)", "0.1", "0.7")])
def test_the_printed_verdict_is_the_gates(capsys, f, a, b):
    # integrate exits 0 exactly where bounds and verify print a proved
    # block; a sampled one, passed or not, is a diagnostic on one 257-point
    # grid, and integrate refuses it with the message certify gives
    argv = ["--f", f, "--a", a, "--b", b]
    code, out, err = run(capsys, "bounds", *argv)
    assert (code, err) == (EXIT_OK, "")
    verdict = json.loads(out)["log_convexity"]
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["log_convexity"] == verdict
    assert doc["grid_points"] == analysis.GRID_POINTS == 257
    assert doc["log_convexity"]["grid_points"] in (None, 257)
    code, out, err = run(capsys, "integrate", *argv)
    if verdict["kind"] == "proved":
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["log_convexity"] == verdict
    else:
        assert (code, out, err) == (
            EXIT_MATH, "", _not_proved(float(a), float(b)))


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_the_grid_is_neither_a_flag_nor_a_config_key(capsys, tmp_path,
                                                     command):
    code, out, err = run(capsys, command, "--f", "sqrt(x+0.1)*exp(-x)",
                         "--a", "0", "--b", "1", "--grid-n", "17")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"hh3: error: {command}: unrecognized argument "
                   "'--grid-n'\n")
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid_points": 257}))
    code, out, err = run(capsys, command, *EXP01, "--config", str(path))
    assert (code, out, err) == (
        EXIT_USAGE, "", "hh3: error: --config: unknown key 'grid_points'\n")


def test_bounds_proves_a_ratio_beyond_the_pair_tests_span(capsys):
    # |f'''| spans more than 2^1021 on the grid; the classifier proves it,
    # so no pair is tested
    code, out, err = run(capsys, "bounds", "--f", "exp(690*x)",
                         "--a", "-1", "--b", "1")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    jsonschema.validate(doc, schema())
    assert doc["hypothesis_supported"] is True
    assert doc["log_convexity"] == {
        "passed": True, "worst_violation": None, "witness": None,
        "pairs_tested": 0, "grid_points": None, "kind": "proved",
        "class": "cm(-x)", "j0": 0}


def test_verify_passes_a_log_affine_sample_near_underflow(capsys):
    report = _log_convexity(capsys, "verify", "--f", "exp(-700*x)",
                            "--a", "0.9", "--b", "1")
    assert report["passed"] is True
    assert report["witness"] is None


def test_integrate_oracle_soundness(capsys):
    _, out, _ = run(capsys, "integrate", *EXP01, "--n", "8", "--oracle")
    doc = json.loads(out)
    assert doc["sound"] is True
    assert doc["true_error"] <= doc["certified_bound"]
    gap = abs(doc["corrected_sum"] - doc["midpoint_sum"])
    assert doc["midpoint_bound"] == math.nextafter(
        doc["certified_bound"] + gap, math.inf)
    assert abs(doc["true_value"] - doc["midpoint_sum"]) <= \
        doc["midpoint_bound"]


def test_certify_report(capsys):
    _, out, _ = run(capsys, "certify", *EXP01, "--tol", "1e-6")
    doc = json.loads(out)
    assert (doc["rule"], doc["order"]) == ("euler-maclaurin", 4)
    assert doc["n_final"] == 8
    assert doc["certified_bound"] <= 1e-6
    assert doc["iterations"] == 4


def test_certify_below_rounding_floor_exits_2(capsys):
    # ulp(e - 1)/2 = 1.11e-16 > tol: no printed double can carry 1e-16.
    # Doubling once "certified" at n = 65536 with a bound of 3.2e-17,
    # below the 7.7e-17 error of the printed corrected_sum; the bound meets
    # tol at n = 512, whose sum shows the floor.
    code, out, err = run(capsys, "certify", *EXP01, "--tol", "1e-16")
    assert code == EXIT_MATH
    assert out == ""
    assert err == ("hh3: tol 1e-16 is below the rounding floor "
                   "1.1102230246251565e-16 of the corrected sum at n = 512; "
                   "no certified bound can reach it\n")


@pytest.mark.parametrize("f, a, b", [
    ("exp(x^2)", "2", "3"),             # sampled evidence, which passes
    ("exp(690*x)/(x+2)", "-1", "1"),    # two classes: sampled, and passes
    ("x^4", "1", "2"),                  # sampled and refuted
    ("(x+1)^3.5", "0", "1"),            # proved, but with j0 = 4
])
def test_certify_names_the_missing_proof(capsys, f, a, b):
    # the samples of the first two pass; certify, like integrate and sweep
    # (see test_one_refusal_for_the_three_certifying_commands), needs
    # classify_cm's proof and says so
    code, out, err = run(capsys, "certify", "--f", f, "--a", a, "--b", b,
                         "--tol", "1e-6")
    assert (code, out, err) == (EXIT_MATH, "", _not_proved(float(a), float(b)))


def test_certify_takes_a_cubic_at_order_2(capsys):
    # f'''' is 0 at both ends, so p = 2, and S_2 is exact for a cubic
    code, out, err = run(capsys, "certify", "--f", "8*x^3", "--a", "0",
                         "--b", "1", "--tol", "1e-6")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert (doc["order"], doc["n_final"], doc["corrected_sum"]) == (2, 128,
                                                                    2.0)
    assert doc["log_convexity"]["kind"] == "proved"


def test_certify_takes_a_cell_whose_cube_leaves_float_range(capsys):
    # h = 1e103 - 800, so h^3 overflows; certify forms h f(m) alone, where
    # integrate's corrected term exits 2 (see the integrate-width-cube row
    # of test_a_float_fault_exits_2_naming_where)
    code, out, err = run(capsys, "certify", "--f", "exp(-x)", "--a", "800",
                         "--b", "1e103", "--tol", "1")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert (doc["n_final"], doc["corrected_sum"]) == (1, 0.0)
    with mpmath.workdps(50):
        exact = mpmath.exp(-800) - mpmath.exp(-mpmath.mpf(1e103))
        assert abs(exact - doc["corrected_sum"]) <= doc["certified_bound"]


def test_certify_exits_2_before_any_midpoint(capsys, monkeypatch):
    # n = 1.9e6 would meet 1e-6 on exp(50x), above n_max = 2^20: only the
    # jets at the two ends, which size n, and S_1's at (a + b)/2, which
    # shows no rounding floor, are evaluated
    points = []

    def compile_counted(f, order, compile_jet=quadrature.compile_jet):
        jet = compile_jet(f, order)
        return lambda x: points.append(x) or jet(x)
    monkeypatch.setattr(quadrature, "compile_jet", compile_counted)
    code, out, err = run(capsys, "certify", "--f", "exp(50*x)", "--a", "0",
                         "--b", "1", "--tol", "1e-6")
    assert (code, out, points) == (EXIT_MATH, "", [0.0, 1.0, 0.5])
    assert err == ("hh3: certified bound 2.084047538390587e-05 did not "
                   "reach tol 1e-06 by n = 1048576\n")


# [1, 1 + 2^-40] holds 2^12 cells of one ulp, and 1/(x - c) on it, with
# c = 0.999999999999999, is log(1 + 2^-40 / (1 - c)) at 50 digits
_NARROW = ("--f", "1/(x-0.999999999999999)", "--a", "1",
           "--b", "1.0000000000009095")
with mpmath.workdps(50):
    _NARROW_INTEGRAL = mpmath.log(1 + mpmath.mpf(2) ** -40
                                  / (1 - mpmath.mpf(0.999999999999999)))


@pytest.mark.parametrize("argv, n, values", [
    # h = 2^-53: division points coincide
    pytest.param(("certify", "--tol", "1e-6"), 8192,
                 [1.0, 1 + 2 ** -40, 1 + 2 ** -41], id="1e-6-8192"),
    # h = 2^-52: every midpoint rounds onto an end
    pytest.param(("certify", "--tol", "2e-5"), 4096,
                 [1.0, 1 + 2 ** -40, 1 + 2 ** -41], id="2e-5-4096"),
    pytest.param(("integrate", "--n", "8192"), 8192, [], id="integrate-8192"),
    pytest.param(("integrate", "--n", "4096"), 4096, [], id="integrate-4096"),
])
def test_certify_refuses_cells_too_narrow_for_their_midpoints(
        capsys, monkeypatch, argv, n, values):
    # Summed as given, the certify runs print a sum 0.017 off, with bounds
    # 3.3e-7 and 1.1e-5, and integrate at n = 4096 one 0.019 off, with a
    # bound of 1.1e-4.  No cell's midpoint is evaluated: certify evaluates
    # f at its ends, which size n, and at (a + b)/2, which shows the
    # rounding floor before the sum; integrate evaluates nothing
    points = []

    def counting(compile_real):
        def compile_counted(f, *order):
            fn = compile_real(f, *order)
            return lambda x: points.append(x) or fn(x)
        return compile_counted
    for name in ("compile_jet", "compile_f3"):
        monkeypatch.setattr(quadrature, name,
                            counting(getattr(quadrature, name)))
    code, out, err = run(capsys, *argv, *_NARROW)
    assert (code, out, points) == (EXIT_MATH, "", values)
    assert err == (f"hh3: [1.0, 1.0000000000009095] is too narrow for {n} "
                   "cells\n")


def test_certify_on_cells_two_ulps_wide_holds_against_mpmath(capsys):
    # the same integrand at n = 2048: each midpoint is a float inside its cell
    code, out, err = run(capsys, "certify", "--tol", "5e-4", *_NARROW)
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert (doc["n_final"], doc["order"]) == (2048, 4)
    with mpmath.workdps(50):
        assert abs(_NARROW_INTEGRAL - mpmath.mpf(doc["corrected_sum"])) <= \
            doc["certified_bound"]


def test_integrate_on_cells_two_ulps_wide_holds_against_mpmath(capsys):
    # the paper's rule on the same cells: error 6.9e-4, bound 9.0e-4
    code, out, err = run(capsys, "integrate", "--n", "2048", *_NARROW)
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    with mpmath.workdps(50):
        assert abs(_NARROW_INTEGRAL - mpmath.mpf(doc["corrected_sum"])) <= \
            doc["certified_bound"]


# The integrals, at 30 digits: sqrt(pi) erf(5) / 10 and atan(10) / 10.
with mpmath.workdps(30):
    _GAUSSIAN = mpmath.sqrt(mpmath.pi) * mpmath.erf(5) / 10
    _LORENTZIAN = mpmath.atan(10) / 10


@pytest.mark.parametrize("argv, integral", [
    (["certify", "--f", "exp(-100*(x-0.5)^2)", "--a", "0", "--b", "1",
      "--tol", "1e-6"], _GAUSSIAN),
    (["integrate", "--f", "1/(1+400*(x-0.5)^2)", "--a", "0", "--b", "1",
      "--n", "7", "--oracle"], _LORENTZIAN),
    (["sweep", "--f", "exp(-100*(x-0.5)^2)", "--a", "0", "--b", "1",
      "--n-list", "1,3,5"], _GAUSSIAN),
], ids=["certify-gaussian", "integrate-lorentzian", "sweep-gaussian"])
def test_a_certificate_off_the_hypothesis_is_refused_or_true(capsys, argv,
                                                             integral):
    # each exited 0 once with a bound below the error (n_final 1, bound
    # 6.8e-8, error 7.5; bound 0.0102, error 0.0514; at n = 1, bound_thm1
    # 6.8e-8, true_error 7.51)
    code, out, _ = run(capsys, *argv)
    if code == EXIT_MATH:
        return
    if argv[0] == "sweep":  # n, midpoint_sum, corrected_sum, bound_thm1, ...
        rows = [line.split(",") for line in out.splitlines()[1:]]
        certificates = [(row[2], float(row[3])) for row in rows]
    else:
        doc = json.loads(out)
        certificates = [(repr(doc["corrected_sum"]), doc["certified_bound"])]
    with mpmath.workdps(30):
        for corrected_sum, bound in certificates:
            assert abs(integral - mpmath.mpf(corrected_sum)) <= bound


@pytest.mark.parametrize("f, a, b, proved", [
    ("x^2", "-1", "1", False),                  # f''' vanishes
    ("exp(x)+exp(-x)", "-1", "1", False),       # terms of both classes
    ("sin(10*x)", "0", "1", False),
    ("exp(x^2)", "2", "3", False),              # the pair test passes
    ("x^4", "1", "2", False),                   # the pair test refutes
    ("sqrt(x+0.1)*exp(-x)", "0", "1", False),
    ("(x+1)^(x*1e-320)", "0.5", "1", False),    # |f'''| is subnormal
    # one integrand of each bench family
    ("exp(2.5*x)", "0.1", "1.3", True),
    ("exp(-1.5*x)", "0.1", "1.3", True),
    ("exp(x)+exp(3*x)", "0.1", "1.3", True),
    ("x^3+exp(2*x)", "0.1", "1.3", True),
    ("1/(x+0.7)", "0.1", "1.3", True),
    ("log(x+0.9)", "0.1", "1.3", True),
])
def test_one_refusal_for_the_three_certifying_commands(capsys, monkeypatch,
                                                       f, a, b, proved):
    # integrate, sweep and certify all certify, or all exit 2 with the same
    # bytes; none of them samples the hypothesis, which verify still does
    calls = []

    def counted(*args, sample=analysis.check_log_convexity):
        calls.append(args)
        return sample(*args)
    monkeypatch.setattr(analysis, "check_log_convexity", counted)
    argv = ["--f", f, "--a", a, "--b", b]
    runs = {run(capsys, command, *argv, *extra) for command, extra in [
        ("integrate", ["--n", "4"]), ("sweep", ["--n-list", "1,4"]),
        ("certify", ["--tol", "1e-6"])]}
    assert calls == []
    if proved:
        assert {(code, err) for code, _, err in runs} == {(EXIT_OK, "")}
    else:
        assert runs == {(EXIT_MATH, "", _not_proved(float(a), float(b)))}
    assert run(capsys, "verify", *argv)[0] == EXIT_OK
    assert len(calls) == (not proved)


@pytest.mark.parametrize("command, flag", [
    ("integrate", "--n=4"), ("sweep", "--n-list=1,2")])
def test_a_refuted_hypothesis_exits_2_naming_the_pair(capsys, command, flag):
    # |f'''| = 24x has a concave logarithm: every pair fails, the widest
    # most, which verify names as a diagnostic; the classifier proves
    # nothing of x^4, so integrate and sweep refuse as certify does
    argv = ["--f", "x^4", "--a", "1", "--b", "2"]
    code, out, err = run(capsys, command, *argv, flag)
    assert (code, out, err) == (EXIT_MATH, "", _not_proved(1.0, 2.0))
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (EXIT_OK, "")
    verdict = json.loads(out)["log_convexity"]
    assert (verdict["passed"], verdict["witness"], verdict["worst_violation"]
            ) == (False, [1.0, 2.0], 0.125)


@pytest.mark.parametrize("argv, bound, floor", [
    # x + 1e60 rounds to 1e60, so |f'''| and the bound are tiny while the
    # printed sum is off by 1e133
    ("integrate --f (x+1e60)^2.5 --a 1.227 --b 2.497 --n 1",
     "2.5404750097656233e-32", "9.085484053695086e+133"),
    # tol is above the floor of the sum, but the bound that meets it at
    # n = 512 is below it
    ("certify --f exp(x) --a 0 --b 1 --tol 1.2e-16",
     "3.981508686326125e-17", "1.1102230246251565e-16"),
    # h^5 underflows, so the bound is the least subnormal; rounding the
    # width alone puts the sum 1.66e-316 off
    ("certify --f exp(x) --a 1e-300 --b 1e-299 --tol 1e-6",
     "5e-324", "6.63123685e-316"),
    # the row of n = 65536 is 7.75e-17 off
    ("sweep --f exp(x) --a 0 --b 1 --n-list 1,65536",
     "3.179460081225733e-17", "1.1102230246251565e-16"),
    # the subnormal sum 1.0000000000499964e-310 is 3.7e-325 off; half its
    # ulp rounds to 0.0
    ("integrate --f 1e-300*exp(x) --a 0 --b 1e-10", "0.0", "5e-324/2"),
], ids=["integrate-huge-sum", "certify-stop-let-through",
        "certify-h-cubed-underflow", "sweep-row", "integrate-subnormal-sum"])
def test_a_bound_below_the_rounding_floor_is_refused(capsys, argv, bound,
                                                     floor):
    # each but the first printed a certificate below the error of its sum
    # (mpmath), and the first did before integrate refused it
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (EXIT_MATH, "")
    assert err == (f"hh3: certified_bound {bound} is below the rounding "
                   f"floor {floor} of corrected_sum, so no float sum is "
                   "certified\n")


def test_verify_report(capsys):
    _, out, _ = run(capsys, "verify", *EXP01)
    doc = json.loads(out)
    assert doc["log_convexity"]["passed"] is True
    assert doc["hermite_hadamard"]["convex"] is True
    assert doc["hermite_hadamard"]["passed"] is True
    assert doc["identity_residual"] <= 1e-10


def test_verify_nonconvex_branch(capsys):
    code, out, _ = run(capsys, "verify", "--f", "log(x)",
                       "--a", "1", "--b", "2")
    assert code == EXIT_OK   # verify reports the failure, it does not abort
    doc = json.loads(out)
    assert doc["hermite_hadamard"]["convex"] is False
    assert doc["hermite_hadamard"]["witness_second_derivative"] < 0.0


# --------------------------------------------------------------------------
# Determinism
# --------------------------------------------------------------------------

def test_reports_are_byte_deterministic(capsys):
    _, first, _ = run(capsys, "integrate", *EXP01, "--n", "16",
                      "--per-interval", "--oracle")
    _, second, _ = run(capsys, "integrate", *EXP01, "--n", "16",
                       "--per-interval", "--oracle")
    assert first == second


def test_readme_sample_outputs_replay(capsys):
    # the bounds and certify JSON, the refusal of an unproved integrand and
    # the sweep CSV that README.md shows, byte for byte
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```$", readme, re.M | re.S)
    json_block = next(b for b in blocks if '"command": "bounds"' in b)
    certify_block = next(b for b in blocks if '"command": "certify"' in b)
    refusal = next(b for b in blocks if b.startswith("hh3: no proof"))
    csv_block = next(b for b in blocks if b.startswith("n,midpoint_sum"))
    assert run(capsys, "bounds", *EXP01) == (EXIT_OK, json_block, "")
    assert run(capsys, "certify", *EXP01, "--tol", "1e-6") == (
        EXIT_OK, certify_block, "")
    for command, *extra in (["integrate", "--n", "4"],
                            ["sweep", "--n-list", "4"],
                            ["certify", "--tol", "1e-6"]):
        assert run(capsys, command, "--f", "exp(x^2)", "--a", "2", "--b", "3",
                   *extra) == (EXIT_MATH, "", refusal)
    assert run(capsys, "sweep", *EXP01, "--n-list", "1,2,4,8") == (
        EXIT_OK, csv_block, "")


def test_json_ends_with_single_newline(capsys):
    _, out, _ = run(capsys, "bounds", *EXP01)
    assert out.endswith("}\n")
    assert not out.endswith("\n\n")


# --------------------------------------------------------------------------
# Sweep CSV
# --------------------------------------------------------------------------

def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "sweep", *EXP01, "--n-list", "1,2,4")
    assert code == EXIT_OK
    lines = out.split("\n")
    assert lines[-1] == ""           # trailing newline, LF only
    assert "\r" not in out
    rows = [line.split(",") for line in lines[:-1]]
    assert rows[0] == ["n", "midpoint_sum", "corrected_sum", "bound_thm1",
                       "bound_best", "true_error", "ratio"]
    assert len(rows) == 4
    assert all(len(row) == 7 for row in rows)
    assert [row[0] for row in rows[1:]] == ["1", "2", "4"]
    # certified bounds shrink as n grows
    bounds_col = [float(row[4]) for row in rows[1:]]
    assert bounds_col[0] > bounds_col[1] > bounds_col[2]
    # and they stay sound
    for row in rows[1:]:
        assert float(row[4]) >= float(row[5])


# --------------------------------------------------------------------------
# Config files, --out, formats
# --------------------------------------------------------------------------

def test_config_file_supplies_flags(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(
        {"f": "exp(x)", "a": 0, "b": 1, "n": 4, "oracle": True}))
    _, from_config, _ = run(capsys, "integrate", "--config", str(path))
    _, from_flags, _ = run(capsys, "integrate", *EXP01, "--n", "4",
                           "--oracle")
    assert from_config == from_flags


def test_flags_override_config(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"f": "exp(x)", "a": 0, "b": 1, "n": 4}))
    _, out, _ = run(capsys, "integrate", "--config", str(path), "--n", "8")
    assert json.loads(out)["n"] == 8


def test_flags_set_to_zero_override_config(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"f": "exp(x)", "a": 0.5, "b": 1, "n": 4}))
    code, out, _ = run(capsys, "integrate", "--config", str(path),
                       "--a", "0")
    assert code == EXIT_OK
    assert json.loads(out)["a"] == 0
    code, out, err = run(capsys, "integrate", "--config", str(path),
                         "--n", "0")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--n" in err


# A valid value of each key, under a run on [0, 1] with the flags of BASE
VALID = {"f": "exp(2*x)", "a": 0.25, "b": 0.75, "out": "report.txt",
         "format": "csv", "n": 3, "method": "thm1",
         "q": 3.0, "per_interval": True, "oracle": True, "tol": 1e-3,
         "n_max": 8, "n_list": "1,2"}
BASE = {"certify": {"tol": 1e-2}, "sweep": {"n_list": "4"}}


def flag_argv(values: dict) -> list[str]:
    argv = []
    for key, value in values.items():
        flag = OPTIONS[key].flag
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def test_config_keys_match_flags(tmp_path):
    # the one table: each key is a flag of exactly its commands, and its
    # --config key sets the same value under each of them
    assert sorted(OPTIONS) == sorted([*VALID, "config"])
    for key, value in VALID.items():
        option = OPTIONS[key]
        for command in COMMANDS:
            argv = [command, *flag_argv({key: value})]
            if command not in option.commands:
                with pytest.raises(UsageError, match=(
                        f"^{option.flag}: not a flag of {command}$")):
                    parse_args(argv)
                continue
            assert parse_args(argv) == (command, {key: value})
            unset = {"f": "exp(x)", "a": 0, "b": 1, **BASE.get(command, {})}
            values = {**unset, key: value}
            path = tmp_path / "run.json"
            path.write_text(json.dumps(values))
            from_flags = resolve(*parse_args([command, *flag_argv(values)]))
            from_config = resolve(command, {"config": str(path)})
            assert from_flags == from_config, (key, command)
            # every key sets the run but --method, checked and then ignored
            assert (from_flags == resolve(command, unset)) == (
                key == "method"), (key, command)


def test_config_rejects_unknown_keys(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"f": "exp(x)", "a": 0, "b": 1, "steps": 4}))
    code, _, err = run(capsys, "integrate", "--config", str(path))
    assert code == EXIT_USAGE
    assert "steps" in err
    # --config is a flag, not a key: one file cannot name another
    path.write_text(json.dumps({"f": "exp(x)", "a": 0, "b": 1,
                                "config": str(path)}))
    code, _, err = run(capsys, "integrate", "--config", str(path))
    assert code == EXIT_USAGE
    assert "unknown key 'config'" in err


@pytest.mark.parametrize("key,value", [
    ("n", 2.7),              # ran n = 2
    ("oracle", "false"),     # turned the oracle on
    ("out", 2),              # wrote the report to file descriptor 2
    ("a", True),             # numbers reject booleans
    ("q", "3"),
    ("n_max", 64.0),
    ("n", None),
    ("n_list", [1, 2.0]),
    ("per_interval", 1),
    ("f", 3),
    ("method", ["thm1"]),
])
def test_config_values_must_have_their_flags_type(capsys, tmp_path, key,
                                                  value):
    config = {"f": "exp(x)", "a": 0, "b": 1, key: value}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "sweep" if key == "n_list" else "integrate",
                         "--config", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert repr(key) in err


@pytest.mark.parametrize("command", ["integrate", "sweep"])
def test_counts_beyond_float_range_are_usage_errors(capsys, tmp_path,
                                                    command):
    huge = 10 ** 400
    if command == "integrate":
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n": huge}))
        argv, flag = ["--config", str(path)], "--n:"
    else:
        argv, flag = ["--n-list", f"1,{huge}"], "--n-list:"
    code, out, err = run(capsys, command, *EXP01, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"hh3: error: {flag} must be <= 1048576, got 1000")


def resolved(*argv):
    return resolve(*parse_args(list(argv)))


@pytest.mark.parametrize("argv,flag,limit", [
    (["integrate", "--n", "1048577"], "--n", 2 ** 20),
    (["integrate", "--n", "10000000000000000"], "--n", 2 ** 20),
    (["sweep", "--n-list", "1,1048577"], "--n-list", 2 ** 20),
    (["certify", "--tol", "1e-6", "--n-max", "1048577"], "--n-max", 2 ** 20),
])
def test_counts_above_their_caps_are_refused_before_any_work(argv, flag,
                                                             limit):
    # a per-interval run at 2^20 subintervals needs more than a gigabyte
    with pytest.raises(UsageError) as info:
        resolved(argv[0], *EXP01, *argv[1:])
    assert str(info.value).startswith(f"{flag}: must be <= {limit}, got ")


def test_counts_at_their_caps_are_accepted(tmp_path):
    assert resolved("integrate", *EXP01, "--n", "1048576").n == 2 ** 20
    assert resolved("sweep", *EXP01, "--n-list", "1048576").n_list == (2 ** 20,)
    # config keys meet the same caps, under any command
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n_max": 2 ** 20 + 1}))
    with pytest.raises(UsageError, match="^--n-max: must be <= "):
        resolved("integrate", *EXP01, "--config", str(path))


def test_config_rejects_non_object(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]")
    code, _, _ = run(capsys, "integrate", "--config", str(path))
    assert code == EXIT_USAGE


def test_missing_config_file(capsys, tmp_path):
    code, _, _ = run(capsys, "integrate", "--config",
                     str(tmp_path / "absent.json"))
    assert code == EXIT_USAGE


def test_out_matches_stdout_bytes(capsys, tmp_path):
    _, stdout_text, _ = run(capsys, "bounds", *EXP01)
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "bounds", *EXP01, "--out", str(path))
    assert code == EXIT_OK
    assert out == ""                 # report went to the file instead
    assert path.read_bytes() == stdout_text.encode("utf-8")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_out_matches_stdout_bytes_per_interval(capsys, tmp_path, fmt):
    argv = ["integrate", *EXP01, "--n", "12", "--method", "thm1",
            "--per-interval", "--format", fmt]
    _, stdout_text, _ = run(capsys, *argv)
    path = tmp_path / f"report.{fmt}"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    assert path.read_bytes() == stdout_text.encode("utf-8")


def test_text_format(capsys):
    _, out, _ = run(capsys, "bounds", *EXP01, "--format", "text")
    assert "chi1" in out
    assert "=" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_csv_format_flattens_keys(capsys):
    _, out, _ = run(capsys, "verify", *EXP01, "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "log_convexity.passed" in keys
    assert "hermite_hadamard.lower_slack" in keys


# --------------------------------------------------------------------------
# Module execution
# --------------------------------------------------------------------------

def _child(argv, **kwargs):
    """Run ``python *argv`` on the hh3 under test, installed or not, with
    stdout block-buffered as it is by default into a pipe or a file."""
    src = os.path.dirname(os.path.dirname(hh3.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *argv], stderr=subprocess.PIPE,
                          timeout=60, env=env, **kwargs)


def _into_closed_pipe(argv):
    """Run ``python *argv`` with a stdout whose reader is gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _child(argv, stdout=write_end)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv,code", [
    (["bounds", *EXP01], EXIT_OK),
    (["bounds", "--f", "x", "--a", "0", "--b", "1"], EXIT_MATH),
    (["bounds", "--f", "exp(", "--a", "0", "--b", "1"], EXIT_USAGE),
    # over 4 MB through a pipe: the exit must not cut the report short
    (["integrate", *EXP01, "--n", "20000", "--per-interval"], EXIT_OK),
], ids=["exit-0", "exit-2", "exit-64", "report-4mb"])
def test_python_dash_m_entry_point(capsys, argv, code):
    main_code, out, err = run(capsys, *argv)
    proc = _child(["-m", "hh3", *argv])
    assert proc.returncode == main_code == code
    assert proc.stdout == out.encode("utf-8")
    assert proc.stderr == err.encode("utf-8")


def test_dash_m_with_stdout_closed_writes_out_file(tmp_path):
    # with descriptor 1 closed, sys.stdout is None in the child
    path = tmp_path / "report.json"
    proc = _child(["-m", "hh3", "bounds", *EXP01, "--out", str(path)],
                  preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(path.read_text())["command"] == "bounds"


@pytest.mark.parametrize("argv,code,message", [
    # the write itself fails inside main(): a traceback and exit 1
    (["integrate", *EXP01, "--n", "20000", "--per-interval"], 1,
     b"Traceback (most recent call last)"),
    # a buffered report fails only at the flush after main(), which the
    # interpreter then reports on its own: exit 120
    (["bounds", *EXP01], 120, b"Exception ignored in"),
], ids=["write", "flush"])
def test_dash_m_into_closed_pipe(argv, code, message):
    proc = _into_closed_pipe(["-m", "hh3", *argv])
    assert proc.returncode == code
    assert proc.stderr.startswith(message)
    assert b"BrokenPipeError: [Errno 32] Broken pipe" in proc.stderr


@pytest.mark.parametrize("reader_gone", [False, True],
                         ids=["exit", "flush-fails"])
def test_exit_handlers_run_once(reader_gone):
    script = ("import atexit, runpy, sys\n"
              "atexit.register(sys.stderr.write, 'handler ran\\n')\n"
              f"sys.argv = ['hh3', 'bounds', *{EXP01!r}]\n"
              "runpy.run_module('hh3', run_name='__main__')\n")
    argv = ["-c", script]
    proc = _into_closed_pipe(argv) if reader_gone else _child(argv)
    assert proc.returncode == (120 if reader_gone else 0)
    assert proc.stderr.count(b"handler ran") == 1


def test_command_and_dash_m_end_through_the_same_function():
    tomllib = pytest.importorskip("tomllib")
    import ast
    import importlib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["hh3"]
    module_name, _, name = target.partition(":")
    script = getattr(importlib.import_module(module_name), name)
    main_module = importlib.import_module("hh3.__main__")
    with open(main_module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    exits = [node.args[0].func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "SystemExit"]
    assert exits == [script.__name__]
    assert getattr(main_module, exits[0]) is script
