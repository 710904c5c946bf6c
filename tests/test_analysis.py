import math
import struct
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hh3.analysis import (GRID_POINTS, CatalogEntry,
                          _midpoint_pairs, catalog, check_hermite_hadamard,
                          check_log_convexity, grid_samples)
from hh3.errors import BadInterval
from hh3.expr import parse
from pair_reference import midpoint_pairs_reference


def test_grid_samples_layout():
    xs, gs = grid_samples(parse("exp(x)"), 0.0, 1.0)
    assert xs == tuple(i / 256 for i in range(257))
    assert gs == tuple(math.exp(x) for x in xs)
    xs, gs = grid_samples(parse("x^3"), 0.0, 1.0)
    assert len(xs) == len(gs) == GRID_POINTS == 257


def test_grid_samples_takes_magnitudes():
    # f''' of 1/x is -6/x^4: samples must be absolute values
    _, gs = grid_samples(parse("1/x"), 1.0, 2.0)
    assert all(g > 0 for g in gs)
    assert gs[0] == pytest.approx(6.0, rel=1e-15)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0)])
@pytest.mark.parametrize("check", [grid_samples, check_log_convexity,
                                   check_hermite_hadamard])
def test_degenerate_intervals_are_refused(check, a, b):
    # a grid over an empty or reversed interval holds no evidence
    with pytest.raises(BadInterval):
        check(parse("exp(x)"), a, b)


def test_log_convexity_exponential_passes():
    report = check_log_convexity(parse("exp(x)"), 0.0, 1.0)
    assert report["passed"]
    assert report["witness"] is None
    assert report["worst_violation"] <= 1e-12  # far inside the 1e-9 slack
    assert report["pairs_tested"] == 16384


def test_log_convexity_quartic_fails_with_witness():
    report = check_log_convexity(parse("x^4"), 1.0, 2.0)
    assert not report["passed"]
    # worst pair is the full interval: (1.5^2/(1*2))^... - 1 at g = 24x
    assert report["witness"] == [1.0, 2.0]
    assert report["worst_violation"] == pytest.approx(1.5 ** 2 / 2.0 - 1.0,
                                                      rel=1e-12)


def test_log_convexity_zero_third_derivative_fails_fast():
    report = check_log_convexity(parse("x^2"), 0.0, 1.0)
    assert not report["passed"]
    assert report["worst_violation"] == math.inf
    assert report["witness"] == [0.0, 0.0]
    assert report["pairs_tested"] == 0


def test_log_convexity_constant_passes():
    report = check_log_convexity(parse("x^3"), 0.0, 1.0)
    assert report["passed"]
    assert report["worst_violation"] == pytest.approx(0.0, abs=1e-15)


def test_log_convexity_power_invariance():
    # |f'''|^q is log-convex exactly when |f'''| is (ln g^q = q ln g)
    for entry in catalog():
        xs, gs = grid_samples(entry.ast(), entry.a, entry.b)
        base = _midpoint_pairs(xs, gs)
        for q in (1.0, 2.0, 5.0):
            powered = _midpoint_pairs(xs, tuple(g ** q for g in gs))
            assert powered["passed"] == base["passed"]


def test_hermite_hadamard_exponential():
    block = check_hermite_hadamard(parse("exp(x)"), 0.0, 1.0)
    assert list(block) == ["convex", "passed", "midpoint_value",
                           "integral_mean", "endpoint_mean", "lower_slack",
                           "upper_slack"]
    assert block["convex"] is block["passed"] is True
    assert block["integral_mean"] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert block["midpoint_value"] == pytest.approx(math.sqrt(math.e),
                                                    rel=1e-15)
    assert block["endpoint_mean"] == pytest.approx((1.0 + math.e) / 2.0,
                                                   rel=1e-15)
    assert block["lower_slack"] > 0.0
    assert block["upper_slack"] > 0.0


def test_hermite_hadamard_endpoint_mean_near_the_top_of_float_range():
    # f(a) + f(b) overflows, but their mean, 1.00025e308, is a float: it
    # printed null for endpoint_mean and upper_slack beside "passed": true
    block = check_hermite_hadamard(parse("1e308*exp(x/1000)"), 0.0, 0.5)
    assert block["convex"] is block["passed"] is True
    assert block["endpoint_mean"] == pytest.approx(
        1e308 * ((1.0 + math.exp(0.0005)) / 2.0), rel=1e-15)
    assert 0.0 < block["upper_slack"] < math.inf
    assert 0.0 < block["lower_slack"] < math.inf


def test_hermite_hadamard_flat_function_passes_on_slack():
    # f(x) = x is convex with zero slack on both sides
    block = check_hermite_hadamard(parse("x"), 0.0, 2.0)
    assert block["passed"] is True
    assert block["lower_slack"] == pytest.approx(0.0, abs=1e-12)
    assert block["upper_slack"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("source,a,b,where", [
    ("x^3", -1.0, 1.0, -1.0),       # f'' = 6x < 0 on the left half
    ("sin(x)", 0.1, 3.0, None),     # concave on (0, pi)
    ("log(x)", 1.0, 2.0, 1.0),      # strictly concave
])
def test_hermite_hadamard_rejects_nonconvex(source, a, b, where):
    block = check_hermite_hadamard(parse(source), a, b)
    assert list(block) == ["convex", "witness_x",
                           "witness_second_derivative"]
    assert block["convex"] is False
    assert block["witness_second_derivative"] < 0.0
    if where is not None:
        assert block["witness_x"] == pytest.approx(where, abs=1e-12)


def test_hermite_hadamard_convex_without_log_convexity():
    # x^4 on [1, 2] fails the log-convexity evidence but is convex, so the
    # mean inequalities still hold
    block = check_hermite_hadamard(parse("x^4"), 1.0, 2.0)
    assert block["convex"] is block["passed"] is True


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
        assert report["passed"] == entry.log_convex, entry.expression


# --------------------------------------------------------------------------
# The pair test against the double loop that spells it, in unscaled floats
# --------------------------------------------------------------------------

def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same_report(got, want) -> None:
    # every key in the same order, the worst violation to its bits
    assert _bits(got["worst_violation"]) == _bits(want["worst_violation"])
    assert list(got) == list(want)
    assert {**got, "worst_violation": None} == {**want,
                                                "worst_violation": None}


@st.composite
def _grids(draw):
    """An odd number of points from 3 to 65 and positive samples there."""
    n = 2 * draw(st.integers(min_value=1, max_value=32)) + 1
    kind = draw(st.sampled_from(["ties", "log-affine", "log-random",
                                 "quartic"]))
    if kind == "ties":  # repeated values: many pairs share the worst ratio
        gs = draw(st.lists(st.sampled_from([0.5, 1.0, 1.0 + 2 ** -40, 3.0]),
                           min_size=n, max_size=n))
    elif kind == "log-affine":  # every ratio is 1 up to rounding
        c = draw(st.floats(min_value=-30.0, max_value=30.0))
        s = draw(st.floats(min_value=-20.0, max_value=20.0))
        gs = [math.exp(c + s * i / (n - 1)) for i in range(n)]
    elif kind == "log-random":
        gs = [math.exp(v) for v in draw(st.lists(
            st.floats(min_value=-30.0, max_value=30.0),
            min_size=n, max_size=n))]
    else:  # |f'''| of c x^4 on [1, 2]: log-concave, so the test fails
        c = draw(st.floats(min_value=1e-3, max_value=1e3))
        gs = [c * 24.0 * (1.0 + i / (n - 1)) for i in range(n)]
    return tuple(i / (n - 1) for i in range(n)), tuple(gs)


@settings(max_examples=400, deadline=None)
@given(_grids())
@example(((0.0, 0.5, 1.0), (1.0, 1.0, 1.0)))
@example(((0.0, 0.25, 0.5, 0.75, 1.0), (3.0, 1.0, 3.0, 1.0, 3.0)))
# the ratios 2^53 + 4 of (0, 2) and 2^53 + 6 of (1, 3) both give the
# violation 2^53 + 4: the witness is the first pair, not the largest ratio
@example(((0.0, 0.25, 0.5, 0.75, 1.0),
          (1.0, 94906265.62425157, 1.0, 1.1698100408045752e-24, 1.0)))
def test_pair_test_matches_the_double_loop_bit_for_bit(grid):
    xs, gs = grid
    _same_report(_midpoint_pairs(xs, gs), midpoint_pairs_reference(xs, gs))


@settings(max_examples=200, deadline=None)
@given(_grids(), st.integers(min_value=-400, max_value=400))
def test_pair_test_does_not_depend_on_a_power_of_two_scale(grid, k):
    xs, gs = grid
    scaled = tuple(math.ldexp(g, k) for g in gs)
    _same_report(_midpoint_pairs(xs, scaled), _midpoint_pairs(xs, gs))


def test_pair_test_witness_is_first_in_loop_order():
    # the interior pair (0.4984375, 0.7) is the worst; the loop meets it
    # before any pair that ties it
    report = check_log_convexity(parse("1/(1+25*(x-0.5)^2)"), 0.1, 0.7)
    assert report["witness"] == [0.4984375, 0.7]
    report = check_log_convexity(parse("x^4+exp(4*x)"), 0.1, 0.7)
    assert report["witness"] == [0.1, 0.671875]


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_pair_test_at_extreme_magnitudes_matches_the_unscaled_one(scale):
    # |f'''| = 24 c x: every product of two samples leaves the float range
    # at c = 1e200 (inf/inf) and at c = 1e-200 (0/0), so each ratio is
    # formed from the mantissas and scaled by its own power of two
    plain = check_log_convexity(parse("x^4"), 1.0, 2.0)
    report = check_log_convexity(parse(f"{scale}*x^4"), 1.0, 2.0)
    assert not report["passed"]
    assert report["witness"] == plain["witness"] == [1.0, 2.0]
    assert report["worst_violation"] == pytest.approx(
        plain["worst_violation"], rel=1e-12)
    assert report["pairs_tested"] == plain["pairs_tested"]


@pytest.mark.parametrize("a", [0.9, 0.0])
def test_pair_test_on_underflowing_products_passes_a_log_affine_sample(a):
    # |f'''| = 700^3 exp(-700 x) is about 1e-296 at x = 1; from x = 0 the
    # samples span 1010 binary orders
    report = check_log_convexity(parse("exp(-700*x)"), a, 1.0)
    assert report["passed"]
    assert report["pairs_tested"] == 16384


def test_pair_test_passes_samples_beyond_any_common_scale():
    # |f'''| runs from about 2.7e-295 to 2.3e307: no power of two brings
    # every product of two samples into the float range, but each ratio is
    # formed at its own scale, and this log-affine sample passes
    report = check_log_convexity(parse("exp(1400*x)"), -0.5, 0.49)
    assert report["passed"]
    assert 0.0 <= report["worst_violation"] <= 1e-12
    assert report["pairs_tested"] == 16384


@pytest.mark.parametrize("span", [1021, 1022, 1023])
def test_pair_test_takes_any_binary_exponent_span(span):
    # frexp exponents -600 and span - 600.  The products in the worst pair,
    # (0, 2), made of the smallest samples, underflow as they stand; shifted
    # by 2^600, every product is a normal float rounded once, and the
    # report is the double loop's on the shifted samples
    lo = math.ldexp(0.5 + 2.0 ** -53, -600)
    hi = math.ldexp(1.0 - 2.0 ** -53, span - 600)
    xs = (0.0, 0.25, 0.5, 0.75, 1.0)
    gs = (lo, 1.5 * lo, lo, math.sqrt(lo) * math.sqrt(hi), hi)
    shifted = tuple(math.ldexp(g, 600) for g in gs)
    report = _midpoint_pairs(xs, gs)
    assert report["witness"] == [0.0, 0.5]
    _same_report(report, midpoint_pairs_reference(xs, shifted))


def test_the_first_of_several_overflowing_ratios_is_the_witness():
    # (0, 2), (1, 3) and (2, 4) all overflow: 2^2046 / 2^-2044 and back.
    # The unscaled double loop raises ZeroDivisionError on 2^-2044 here
    xs = (0.0, 0.25, 0.5, 0.75, 1.0)
    tiny, huge = 2.0 ** -1022, 2.0 ** 1023
    report = _midpoint_pairs(xs, (tiny, huge, tiny, huge, tiny))
    assert report["witness"] == [0.0, 0.5]
    assert report["worst_violation"] == math.inf
    assert report["pairs_tested"] == 4
    assert not report["passed"]


@pytest.mark.parametrize("n", range(1, 66, 2))
def test_pairs_tested_counts_every_same_parity_pair(n):
    # d = 1..m, with n - 2d pairs (i, i + 2d) each
    m = (n - 1) // 2
    xs = tuple(i / max(n - 1, 1) for i in range(n))
    gs = tuple(1.0 + i * i for i in range(n))
    report = _midpoint_pairs(xs, gs)
    assert report["pairs_tested"] == m * (n - m - 1)
    _same_report(report, midpoint_pairs_reference(xs, gs))


def _normal(x: float) -> bool:
    return sys.float_info.min <= x <= sys.float_info.max


@st.composite
def _samples(draw):
    """An odd number from 3 to 33 of normal floats whose binary exponents
    span up to 8, 120, 1200 or every one there is."""
    n = 2 * draw(st.integers(min_value=1, max_value=16)) + 1
    centre = draw(st.integers(min_value=-1021, max_value=1024))
    spread = draw(st.sampled_from([4, 60, 600, 2045]))
    exponents = st.integers(min_value=max(-1021, centre - spread),
                            max_value=min(1024, centre + spread))
    mantissas = st.floats(min_value=0.5, max_value=1.0, exclude_max=True)
    return tuple(math.ldexp(draw(mantissas), draw(exponents))
                 for _ in range(n))


@settings(max_examples=200, deadline=None)
@given(_samples())
@example((2.0 ** -1022, 2.0 ** 1023, 2.0 ** -1022))     # 2^4090: inf
@example((2.0 ** 1023, 2.0 ** -1022, 2.0 ** 1023))      # 2^-4090: 0
@example((2.0 ** 600, 1.5 * 2.0 ** 600, 2.0 ** 600))   # 2.25 from inf/inf
def test_each_pair_ratio_is_the_double_loops_or_within_ulps_of_mpmath(gs):
    # each pair on its own, as a three-point grid whose one violation is
    # its ratio less 1
    for i in range(len(gs)):
        for j in range(i + 2, len(gs), 2):
            trio = (gs[i], gs[(i + j) // 2], gs[j])
            got = _midpoint_pairs((0.0, 0.5, 1.0), trio)["worst_violation"]
            square, product = trio[1] * trio[1], trio[0] * trio[2]
            if _normal(square) and _normal(product) and (
                    _normal(square / product) or square / product == math.inf):
                want = midpoint_pairs_reference((0.0, 0.5, 1.0), trio)
                assert _bits(got) == _bits(want["worst_violation"]), (i, j)
                continue
            with mpmath.workdps(40):
                exact = mpmath.mpf(trio[1]) ** 2 / (mpmath.mpf(trio[0])
                                                    * trio[2])
                if exact > sys.float_info.max * (1 - 2.0 ** -51):
                    assert got in (math.inf, sys.float_info.max), (i, j)
                    continue
                # rounded: the mantissas' square, product and quotient, the
                # ratio where it is subnormal, and the violation
                assert abs(got - (exact - 1)) <= 2.0 ** -50 * (exact + 1), (
                    i, j)
