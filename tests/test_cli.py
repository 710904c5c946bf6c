import argparse
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import hh3
from hh3.cli import _CONFIG_KEYS, EXIT_MATH, EXIT_OK, EXIT_USAGE, \
    UsageError, build_parser, main, resolve

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


def test_config_keys_match_flags():
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for sub in commands.choices.values()
             for action in sub._actions
             if not isinstance(action, argparse._HelpAction)}
    assert sorted(_CONFIG_KEYS) == sorted(dests - {"config"})


def test_config_rejects_unknown_keys(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"f": "exp(x)", "a": 0, "b": 1, "steps": 4}))
    code, _, err = run(capsys, "integrate", "--config", str(path))
    assert code == EXIT_USAGE
    assert "steps" in err


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
    return resolve(build_parser().parse_args(list(argv)))


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
