import math

import pytest

from hh3.analysis import (GRID_POINTS_DEFAULT, CatalogEntry, catalog,
                          check_hermite_hadamard, check_log_convexity,
                          check_log_convexity_pow, grid_samples)
from hh3.errors import BadInterval, NotConvex
from hh3.expr import parse


def test_grid_samples_layout():
    xs, gs = grid_samples(parse("exp(x)"), 0.0, 1.0, 5)
    assert xs == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert gs == tuple(math.exp(x) for x in xs)
    xs, gs = grid_samples(parse("x^3"), 0.0, 1.0)
    assert len(xs) == len(gs) == GRID_POINTS_DEFAULT


def test_grid_samples_takes_magnitudes():
    # f''' of 1/x is -6/x^4: samples must be absolute values
    _, gs = grid_samples(parse("1/x"), 1.0, 2.0, 5)
    assert all(g > 0 for g in gs)
    assert gs[0] == pytest.approx(6.0, rel=1e-15)


def test_grid_samples_rejects_even_or_tiny_grids():
    with pytest.raises(ValueError):
        grid_samples(parse("x"), 0.0, 1.0, 256)
    with pytest.raises(ValueError):
        grid_samples(parse("x"), 0.0, 1.0, 1)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0)])
@pytest.mark.parametrize("check", [grid_samples, check_log_convexity,
                                   check_hermite_hadamard])
def test_degenerate_intervals_are_refused(check, a, b):
    # a grid over an empty or reversed interval holds no evidence
    with pytest.raises(BadInterval):
        check(parse("exp(x)"), a, b)


def test_log_convexity_exponential_passes():
    report = check_log_convexity(parse("exp(x)"), 0.0, 1.0)
    assert report.passed
    assert report.witness is None
    assert report.worst_violation <= 1e-12  # far inside the 1e-9 slack
    assert report.pairs_tested == 16384


def test_log_convexity_quartic_fails_with_witness():
    report = check_log_convexity(parse("x^4"), 1.0, 2.0)
    assert not report.passed
    # worst pair is the full interval: (1.5^2/(1*2))^... - 1 at g = 24x
    assert report.witness == (1.0, 2.0)
    assert report.worst_violation == pytest.approx(1.5 ** 2 / 2.0 - 1.0,
                                                   rel=1e-12)


def test_log_convexity_zero_third_derivative_fails_fast():
    report = check_log_convexity(parse("x^2"), 0.0, 1.0)
    assert not report.passed
    assert report.worst_violation == math.inf
    assert report.witness == (0.0, 0.0)
    assert report.pairs_tested == 0


def test_log_convexity_constant_passes():
    report = check_log_convexity(parse("x^3"), 0.0, 1.0)
    assert report.passed
    assert report.worst_violation == pytest.approx(0.0, abs=1e-15)


def test_log_convexity_power_invariance():
    for entry in catalog():
        base = check_log_convexity(entry.ast(), entry.a, entry.b)
        for q in (1.0, 2.0, 5.0):
            powered = check_log_convexity_pow(entry.ast(), entry.a, entry.b, q)
            assert powered.passed == base.passed


def test_log_convexity_pow_rejects_bad_q():
    with pytest.raises(ValueError):
        check_log_convexity_pow(parse("exp(x)"), 0.0, 1.0, 0.5)


def test_hermite_hadamard_exponential():
    report = check_hermite_hadamard(parse("exp(x)"), 0.0, 1.0)
    assert report.passed
    assert report.integral_mean == pytest.approx(math.e - 1.0, rel=1e-12)
    assert report.midpoint_value == pytest.approx(math.sqrt(math.e),
                                                  rel=1e-15)
    assert report.endpoint_mean == pytest.approx((1.0 + math.e) / 2.0,
                                                 rel=1e-15)
    assert report.lower_slack > 0.0
    assert report.upper_slack > 0.0


def test_hermite_hadamard_flat_function_passes_on_slack():
    # f(x) = x is convex with zero slack on both sides
    report = check_hermite_hadamard(parse("x"), 0.0, 2.0)
    assert report.passed
    assert report.lower_slack == pytest.approx(0.0, abs=1e-12)
    assert report.upper_slack == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("source,a,b,where", [
    ("x^3", -1.0, 1.0, -1.0),       # f'' = 6x < 0 on the left half
    ("sin(x)", 0.1, 3.0, None),     # concave on (0, pi)
    ("log(x)", 1.0, 2.0, 1.0),      # strictly concave
])
def test_hermite_hadamard_rejects_nonconvex(source, a, b, where):
    with pytest.raises(NotConvex) as info:
        check_hermite_hadamard(parse(source), a, b)
    assert info.value.value < 0.0
    if where is not None:
        assert info.value.x == pytest.approx(where, abs=1e-12)


def test_hermite_hadamard_convex_without_log_convexity():
    # x^4 on [1, 2] fails the log-convexity evidence but is convex, so the
    # mean inequalities still hold
    report = check_hermite_hadamard(parse("x^4"), 1.0, 2.0)
    assert report.passed


def test_catalog_contents():
    entries = catalog()
    assert len(entries) == 6
    assert all(isinstance(e, CatalogEntry) for e in entries)
    assert sum(1 for e in entries if e.log_convex) == 5
    for entry in entries:
        assert entry.a < entry.b
        entry.ast()  # must parse


def test_catalog_verdicts_match_checker():
    for entry in catalog():
        report = check_log_convexity(entry.ast(), entry.a, entry.b)
        assert report.passed == entry.log_convex, entry.expression
