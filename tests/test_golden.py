"""Recorded CLI runs replayed byte for byte: exit code, stdout and stderr.

``tests/golden/cli_reports.json`` holds what ``hh3.cli.main`` printed and
returned for each command in ``CASES``.  The test replays every case in
process and names the first one whose bytes differ, so "report bytes
unchanged" is checked on every run of the suite.

The recorded floats come from the platform's libm (``exp``, ``log``, ...) on
the machine that recorded them; on another platform a last-digit difference
may be libm's, not the program's.  After a deliberate change of report
bytes, or on a new platform, rewrite the file and review its diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

from hh3 import cli

GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli_reports.json"

_EXP = ["--f", "exp(x)", "--a", "0", "--b", "1"]
_MIX = ["--f", "exp(x)+exp(2*x)", "--a", "0", "--b", "1"]
_ORACLE = ["integrate", *_EXP, "--n", "16", "--per-interval", "--oracle"]
_Q15 = ["bounds", *_MIX, "--q", "1.5"]
_K_OUT = ["integrate", "--f", "exp(690*x)", "--a", "-1", "--b", "1",
          "--n", "1", "--per-interval"]   # K underflows to 0, M to inf

CASES = {
    "integrate-oracle-json": _ORACLE,
    "integrate-oracle-csv": [*_ORACLE, "--format", "csv"],
    "integrate-oracle-text": [*_ORACLE, "--format", "text"],
    "bounds-q3": ["bounds", *_MIX, "--q", "3"],
    "bounds-q1.5": _Q15,
    "bounds-q1.5-csv": [*_Q15, "--format", "csv"],
    "bounds-q1.5-text": [*_Q15, "--format", "text"],
    "integrate-steep-json": ["integrate", "--f", "exp(20*x)", "--a", "0",
                             "--b", "1", "--n", "64", "--per-interval"],
    "integrate-non-dyadic": ["integrate", "--f", "exp(x)", "--a", "0.3",
                             "--b", "1.7", "--n", "11", "--per-interval",
                             "--oracle"],
    "integrate-distinct-ratios-csv": ["integrate", "--f", "1/(x+2.679)",
                                      "--a", "0.9", "--b", "1.427",
                                      "--n", "33", "--per-interval",
                                      "--format", "csv"],
    "certify": ["certify", *_MIX, "--tol", "1e-9"],
    "certify-tol-1e-14": ["certify", *_EXP, "--tol", "1e-14"],
    "sweep": ["sweep", *_EXP, "--n-list", "1,2,4,8,16"],
    "bounds-json": ["bounds", *_MIX],
    "bounds-text": ["bounds", *_MIX, "--format", "text"],
    "verify-exp": ["verify", "--f", "exp(x)", "--a", "1", "--b", "2"],
    "verify-x4": ["verify", "--f", "x^4", "--a", "1", "--b", "2"],
    "bounds-interior-witness": ["bounds", "--f", "1/(1+25*(x-0.5)^2)",
                                "--a", "0.1", "--b", "0.7"],
    "verify-witness-order": ["verify", "--f", "x^4+exp(4*x)", "--a", "0.1",
                             "--b", "0.7"],
    "integrate-k-out-of-range-json": _K_OUT,
    "integrate-k-out-of-range-csv": [*_K_OUT, "--format", "csv"],
    "exit2-log-domain": ["integrate", "--f", "log(x)", "--a", "-1",
                         "--b", "1"],
    "exit2-reciprocal-pole": ["integrate", "--f", "1/x", "--a", "-1",
                              "--b", "1", "--n", "2"],
    "exit2-vanishing-f3": ["integrate", "--f", "x^2", "--a", "0", "--b", "1",
                           "--n", "2"],
    "exit2-unreachable-tol": ["certify", *_EXP, "--tol", "1e-30",
                              "--n-max", "16"],
    "exit2-n-max-cap": ["certify", *_EXP, "--tol", "1e-12", "--n-max", "16"],
    "exit2-subnormal-f3": ["integrate", "--f", "exp(690*x)", "--a", "-1.077",
                           "--b", "1", "--n", "1"],
    "exit2-sum-overflow": ["integrate", "--f", "1e280*x^3+x", "--a", "1",
                           "--b", "1e8", "--n", "1"],
    "exit64-zero-n": ["integrate", *_EXP, "--n", "0"],
}


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_reports_match_recorded_bytes():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(recorded) == list(CASES), "regenerate the golden file"
    for name, want in recorded.items():
        assert want["argv"] == CASES[name], name
        got = run(want["argv"])
        for key in ("exit", "stdout", "stderr"):
            assert got[key] == want[key], f"{name}: {key} differs"


def regenerate() -> None:
    recorded = {name: {"argv": argv, **run(argv)}
                for name, argv in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    regenerate()
