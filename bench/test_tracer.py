"""Self-check of the benchmark's tracer: it must see every call.

Run with ``PYTHONPATH=src python -m pytest bench/test_tracer.py``.  Jet
counts are checked against closed formulas, integrator evaluations against
the 33-point panel, and every count must repeat exactly between two traced
runs of the same jobs.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hh3.cli  # noqa: E402
import hh3.quadrature  # noqa: E402
from tracer import JETS, Tracer, layer_metrics  # noqa: E402

EXP = ["--f", "exp(x)+exp(2*x)", "--a", "0", "--b", "1"]


def traced(*argvs: list[str]) -> Tracer:
    tracer = Tracer()
    with tracer.installed():
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert hh3.cli.main(argv) == 0
    return tracer


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("method", ["thm1", "best"])
def test_integrate_jets_are_2n_plus_1(n, method):
    tracer = traced(["integrate", *EXP, "--n", str(n), "--method", method,
                     "--oracle"])
    assert tracer.calls[JETS] == 2 * n + 1
    assert tracer.calls["quadrature.composite_bound"] == 1
    if method == "best":
        assert tracer.calls["bounds.best_bound"] == n
        # 64 grid points plus 24 golden-section probes for each q-bound
        assert tracer.calls["bounds.holder_bound"] == 88 * n
        assert tracer.calls["bounds.power_mean_bound"] == 88 * n


def test_certify_jets_follow_the_doubling_schedule():
    tracer = traced(["certify", *EXP, "--tol", "1e-9", "--method", "thm1"])
    iterations = tracer.counts["quadrature.certify.iterations"]
    final = 2 ** (iterations - 1)
    assert final > 1
    schedule = [2 * 2 ** k + 1 for k in range(iterations)]
    assert tracer.calls[JETS] == sum(schedule)
    assert tracer.calls["quadrature.composite_bound"] == iterations
    assert tracer.counts["quadrature.certify.jets"] == sum(schedule)
    assert tracer.counts["quadrature.certify.useful_jets"] == 2 * final + 1
    ratio = layer_metrics([tracer])["quadrature.certify.useful_ratio"]
    assert ratio["value"] == (2 * final + 1) / sum(schedule)


@pytest.mark.parametrize("argv", [
    ["verify", *EXP],
    ["integrate", *EXP, "--n", "4", "--oracle"],
    ["sweep", *EXP, "--n-list", "1,2,4"],
])
def test_integrator_evaluations_come_in_33_point_panels(argv):
    tracer = traced(argv)
    evals = tracer.counts["quadrature.integrate_adaptive.evals"]
    assert evals > 0
    assert evals % 33 == 0


def test_counts_repeat_exactly_between_runs():
    jobs = [["bounds", *EXP], ["verify", *EXP],
            ["certify", *EXP, "--tol", "1e-6"],
            ["integrate", *EXP, "--n", "16", "--format", "csv"]]
    first, second = traced(*jobs), traced(*jobs)
    assert first.exact_counts() == second.exact_counts()
    assert first.calls["reportfmt.render"] == len(jobs)
    assert first.calls["cli.main"] == len(jobs)


def test_failures_and_domain_errors_are_counted():
    tracer = Tracer()
    with tracer.installed(), contextlib.redirect_stderr(io.StringIO()):
        assert hh3.cli.main(["bounds", "--f", "exp(30*x)", "--a", "0",
                             "--b", "1"]) == 2
        assert hh3.cli.main(["integrate", "--f", "log(x)", "--a", "-1",
                             "--b", "1"]) == 2
    assert tracer.failed["bounds.best_bound"] == 1
    assert tracer.counts["expr.domain_error.count"] == 1


def test_uninstall_restores_every_function():
    before = (hh3.cli.main, hh3.quadrature.eval_jet3,
              hh3.quadrature.composite_bound, dict(hh3.cli._RENDERERS))
    with Tracer().installed():
        assert hh3.quadrature.eval_jet3 is not before[1]
    after = (hh3.cli.main, hh3.quadrature.eval_jet3,
             hh3.quadrature.composite_bound, dict(hh3.cli._RENDERERS))
    assert after == before
