import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import hh3
from hh3 import quadrature
from hh3.cli import COMMANDS, EXIT_MATH, EXIT_OK, EXIT_USAGE, OPTIONS, \
    UsageError, main, parse_args, resolve
from hh3.expr import parse

EXP01 = ["--f", "exp(x)", "--a", "0", "--b", "1"]
STEEP = ["--f", "exp(30*x)", "--a", "0", "--b", "1"]   # |ln K| = 30


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema():
    text = resources.files("hh3").joinpath("schema.json").read_text()
    return json.loads(text)


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
    ["bounds", *EXP01, "--grid-n", "4"],                  # even grid
    ["integrate", *EXP01, "--n", "0"],
    ["integrate", *EXP01, "--method", "simpson"],         # unknown choice
    ["integrate", *EXP01, "--method", "thm2", "--q", "1"],
    ["integrate", *EXP01, "--method", "thm3", "--q", "0.5"],
    ["certify", *EXP01],                                  # missing --tol
    ["certify", *EXP01, "--tol", "-1"],
    ["sweep", *EXP01],                                    # missing --n-list
    ["sweep", *EXP01, "--n-list", "1,0"],
    ["sweep", *EXP01, "--n-list", "1,x"],                 # not an integer
    ["certify", *EXP01, "--tol", "1e-3", "--n-max", "0"],
    ["bounds", *EXP01, "--q-grid", "1:2:8(log)"],         # flag was removed
    ["bounds", "--a", "0", "--b", "1"],                   # missing --f
    ["frobnicate", *EXP01],                               # unknown command
])
def test_usage_errors_are_64(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err


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
    (["integrate", *EXP01, "--n=4", "--method=thm2", "--q=3",
      "--format=csv"],
     ["integrate", *EXP01, "--n", "4", "--method", "thm2", "--q", "3",
      "--format", "csv"]),
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
])
def test_math_errors_are_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_MATH
    assert out == ""
    assert err


# --------------------------------------------------------------------------
# JSON reports validate against the published schema
# --------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["bounds", *EXP01],
    ["bounds", "--f", "x^4", "--a", "1", "--b", "2"],     # failing evidence
    ["integrate", *EXP01, "--n", "4"],
    ["integrate", *EXP01, "--n", "4", "--per-interval", "--oracle"],
    ["integrate", *EXP01, "--method", "thm2", "--q", "2"],
    ["certify", *EXP01, "--tol", "1e-6"],
    ["verify", *EXP01],
    ["verify", "--f", "log(x)", "--a", "1", "--b", "2"],  # concave branch
])
def test_json_reports_validate(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, schema())
    assert doc["command"] == argv[0]


def test_bounds_report_values(capsys):
    _, out, _ = run(capsys, "bounds", *EXP01)
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["f3a_abs"] == 1.0
    assert doc["chi1"] == pytest.approx(0.008658969383756087, rel=1e-15)
    assert doc["min_value"] <= doc["chi1"]
    assert doc["argmin"] in ("chi1", "chi2", "chi3")
    assert doc["q"] == 2
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
    code, out, _ = run(capsys, "integrate", *STEEP, "--method", method,
                       "--q", "64")
    assert code == EXIT_OK
    _, direct, _ = run(capsys, "integrate", *STEEP, "--method", "thm1")
    assert json.loads(out)["certified_bound"] >= \
        json.loads(direct)["certified_bound"]


def test_underflowing_ratio_is_a_math_error(capsys):
    # |f'''| is finite and positive at both ends, but K = f3a/f3b underflows
    # to 0; the ratio check must report it rather than fail in log(0.0)
    code, out, err = run(capsys, "integrate", "--f", "exp(690*x)",
                         "--a", "-1", "--b", "1", "--n", "1")
    assert code == EXIT_MATH
    assert out == ""
    assert "derivative ratio must be finite and positive" in err


def test_integrate_oracle_soundness(capsys):
    _, out, _ = run(capsys, "integrate", *EXP01, "--n", "8", "--oracle")
    doc = json.loads(out)
    assert doc["sound"] is True
    assert doc["true_error"] <= doc["certified_bound"]
    assert doc["midpoint_bound"] == doc["certified_bound"]
    assert doc["midpoint_bound_heuristic"] is True   # exp has f'' != 0


def test_certify_report(capsys):
    _, out, _ = run(capsys, "certify", *EXP01, "--tol", "1e-6")
    doc = json.loads(out)
    assert doc["n_final"] == 32
    assert doc["certified_bound"] <= 1e-6
    assert doc["iterations"] == 6


def test_certify_below_rounding_floor_exits_2(capsys):
    # ulp(e - 1)/2 = 1.11e-16 > tol: no printed double can carry 1e-16.
    # Doubling used to "certify" at n = 65536 with a bound of 3.2e-17,
    # below the 7.7e-17 error of the printed corrected_sum.
    code, out, err = run(capsys, "certify", *EXP01, "--tol", "1e-16")
    assert code == EXIT_MATH
    assert out == ""
    assert err == ("hh3: tol 1e-16 is below the rounding floor "
                   "1.1102230246251565e-16 of the corrected sum at n = 1; "
                   "no certified bound can reach it\n")


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


@pytest.mark.parametrize("n_list, jets", [
    ("1,2,4,8", 17),       # the 9 points and 8 midpoints of n = 8, once each
    ("1,3", 3 + 7),        # 3 does not refine 1: every point is evaluated
])
def test_sweep_evaluates_only_new_points_of_doubled_counts(
        capsys, monkeypatch, n_list, jets):
    calls = []
    compile_real = quadrature.compile_jet3

    def compile_counted(f):
        jet = compile_real(f)

        def counted(x):
            calls.append(x)
            return jet(x)
        return counted
    # the reference integral's evaluations are not the sweep's to count
    reference = quadrature.reference_integral(parse("exp(x)"), 0.0, 1.0)
    monkeypatch.setattr(quadrature, "reference_integral",
                        lambda *args: reference)
    monkeypatch.setattr(quadrature, "compile_jet3", compile_counted)
    code, out, _ = run(capsys, "sweep", *EXP01, "--n-list", n_list)
    assert code == EXIT_OK
    assert len(calls) == jets
    monkeypatch.undo()
    # each row is what a sweep of its count alone prints
    for row in out.splitlines()[1:]:
        alone = run(capsys, "sweep", *EXP01, "--n-list", row.split(",")[0])
        assert alone[1].splitlines()[1] == row


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
         "format": "csv", "grid_points": 5, "n": 3, "method": "thm2",
         "q": 3.0, "per_interval": True, "oracle": True, "tol": 1e-3,
         "n_max": 8, "n_list": "1,2"}
BASE = {"certify": {"tol": 1e-2}, "sweep": {"n_list": "4"}}
NEEDS = {"q": {"method": "thm3"}}   # best, the default, takes no q


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
            unset = {"f": "exp(x)", "a": 0, "b": 1, **BASE.get(command, {}),
                     **NEEDS.get(key, {})}
            values = {**unset, key: value}
            path = tmp_path / "run.json"
            path.write_text(json.dumps(values))
            from_flags = resolve(*parse_args([command, *flag_argv(values)]))
            from_config = resolve(command, {"config": str(path)})
            assert from_flags == from_config != resolve(command, unset), \
                (key, command)


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
    ("grid_points", None),
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
    (["bounds", "--grid-n", "4099"], "--grid-n", 4097),
    (["verify", "--grid-n", "1000001"], "--grid-n", 4097),
])
def test_counts_above_their_caps_are_refused_before_any_work(argv, flag,
                                                             limit):
    # a per-interval run at 2^20 subintervals needs more than a gigabyte;
    # the pair test on a 4097-point grid takes about a second, and it grows
    # as the square of the grid
    with pytest.raises(UsageError) as info:
        resolved(argv[0], *EXP01, *argv[1:])
    assert str(info.value).startswith(f"{flag}: must be <= {limit}, got ")


def test_counts_at_their_caps_are_accepted(tmp_path):
    assert resolved("integrate", *EXP01, "--n", "1048576").n == 2 ** 20
    assert resolved("verify", *EXP01, "--grid-n", "4097").grid_points == 4097
    assert resolved("sweep", *EXP01, "--n-list", "1048576").n_list == (2 ** 20,)
    # config keys meet the same caps, under any command
    for key, value, flag in (("grid_points", 4099, "--grid-n"),
                             ("n_max", 2 ** 20 + 1, "--n-max")):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(UsageError, match=f"^{flag}: must be <= "):
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
    argv = ["integrate", *EXP01, "--n", "12", "--method", "thm3",
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

def test_python_dash_m_entry_point():
    # run the hh3 under test, installed or not
    src = os.path.dirname(os.path.dirname(hh3.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "hh3", "bounds", *EXP01],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "bounds"
