import math
import random
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bound_reference as reference
from bound_reference import (holder_bound_reference,
                             power_mean_bound_reference)
from hh3.bounds import (DEFAULT_Q, L_SWITCH, BoundReport, DerivEndpoints,
                        _moment_closed, _moment_from_log, _moment_series,
                        _qth_root, best_bound, chi1, chi2, chi3, direct_bound,
                        holder_bound, interval_chi1, power_mean_bound)
from hh3.cli import cmd_integrate, resolve
from hh3.errors import (BadInterval, DomainError,
                        NonPositiveThirdDerivative)
from hh3.expr import parse
from hh3.quadrature import composite_bound, integrate_adaptive


# --------------------------------------------------------------------------
# mu: frozen values and oracles, through the moment chi3 takes from ln K
# --------------------------------------------------------------------------

def mu(k: float) -> float:
    return _moment_from_log(math.log(k))


def test_mu_at_one_is_exact():
    assert mu(1.0) == 0.25


@pytest.mark.parametrize("k,expected", [
    # closed-form antiderivatives of t^3 k^(t/2), worked by hand
    (math.e ** 2, 6.0 - 2.0 * math.e),
    (math.exp(-1.0), 96.0 - 158.0 * math.exp(-0.5)),
    (math.e, 96.0 - 58.0 * math.exp(0.5)),
])
def test_mu_frozen_values(k, expected):
    assert mu(k) == pytest.approx(expected, rel=1e-13)


def _mu_by_quadrature(k: float) -> float:
    lam = math.log(k)
    return integrate_adaptive(lambda t: t ** 3 * math.exp(0.5 * lam * t),
                              0.0, 1.0, 1e-13)


@pytest.mark.parametrize("k", [
    1e-8, 1e-6, 1e-3, 0.03, 0.4, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12,
    1.1, 2.0, math.e ** 2, 50.0, 1e3, 1e6, 1e8,
])
def test_mu_spot_check_against_quadrature(k):
    assert mu(k) == pytest.approx(_mu_by_quadrature(k), rel=1e-11)


def test_mu_series_closed_agree_across_seam():
    # both branches must agree throughout [L_SWITCH/2, 2*L_SWITCH] in |ln K|
    for i in range(201):
        lam = 0.5 * L_SWITCH + (2.0 * L_SWITCH - 0.5 * L_SWITCH) * i / 200.0
        for signed in (lam, -lam):
            series = _moment_series(signed)
            closed = _moment_closed(signed)
            # the closed form loses ~2 digits to cancellation at the low end
            # of this window; 1e-9 leaves orders of margin over that
            assert series == pytest.approx(closed, rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-8, max_value=1e8))
def test_mu_positive(k):
    assert mu(k) > 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1.0, max_value=4.0))
# ln K ~ -1.11 and one ulp up: the closed form's rounding made mu fall there
@example(k=0.328125, factor=1.0 + 2.0 ** -52)
def test_mu_monotone_increasing(k, factor):
    assert mu(k) <= mu(k * factor)
    if factor >= 1.0 + 1e-9:  # strict once the gap is resolvable in floats
        assert mu(k) < mu(k * factor)


# The ratio reaches mu (and hf) through chi2 and chi3, which refuse it
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_mu_rejects_bad_ratio(bad):
    message = "^derivative ratio must be finite and positive, got "
    for bound in (chi2, chi3):
        for f3a, f3b in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(DomainError, match=message):
                bound(f3a, f3b, 1.0, 2.0)


# --------------------------------------------------------------------------
# Holder factor hf(K, q), through its q-th root, which chi2 takes
# --------------------------------------------------------------------------

def _hf_root(k: float, q: float) -> float:
    return _qth_root(math.log(k), q, False)


def test_holder_factor_frozen_values():
    assert _hf_root(math.e ** 2, 1.0) == pytest.approx(math.e - 1.0,
                                                       rel=1e-14)
    assert _hf_root(math.exp(-1.0), 2.0) == pytest.approx(
        math.sqrt(1.0 - math.exp(-1.0)), rel=1e-14)


def test_holder_factor_at_one():
    assert _hf_root(1.0, 3.0) == 1.0


def _holder_factor_by_quadrature(k: float, q: float) -> float:
    lam = math.log(k)
    # hf(K, q) = 2/(q ln K) (K^(q/2) - 1) = integral of q ln(K)/2 e^(u) ...
    # checked directly against the defining integral of K^(q t / 2):
    return integrate_adaptive(lambda t: math.exp(0.5 * q * lam * t),
                              0.0, 1.0, 1e-13)


@pytest.mark.parametrize("k,q", [(0.2, 1.0), (0.9, 2.0), (1.0, 5.0),
                                 (3.7, 1.5), (40.0, 3.0)])
def test_holder_factor_is_exponential_mean(k, q):
    assert _hf_root(k, q) == pytest.approx(
        _holder_factor_by_quadrature(k, q) ** (1.0 / q), rel=1e-12)


# --------------------------------------------------------------------------
# the checked one-interval input
# --------------------------------------------------------------------------

def test_deriv_endpoints_validation():
    with pytest.raises(NonPositiveThirdDerivative):
        DerivEndpoints(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(NonPositiveThirdDerivative):
        DerivEndpoints(1.0, math.nan, 0.0, 1.0)
    with pytest.raises(BadInterval):
        DerivEndpoints(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(BadInterval):
        DerivEndpoints(1.0, 1.0, 2.0, 1.0)
    # magnitudes before the interval, a before b, keywords as positions
    with pytest.raises(NonPositiveThirdDerivative) as caught:
        DerivEndpoints(0.0, math.nan, 2.0, 1.0)
    assert caught.value.x == 2.0
    with pytest.raises(NonPositiveThirdDerivative):
        DerivEndpoints(f3a_abs=1.0, f3b_abs=0.0, a=0.0, b=1.0)


def test_deriv_endpoints_refuses_a_subnormal_magnitude():
    # a subnormal magnitude has lost the bits that ln K needs
    with pytest.raises(NonPositiveThirdDerivative,
                       match="got subnormal 5e-320 at x = 1.0$"):
        DerivEndpoints(1.0, 5e-320, 0.0, 1.0)
    with pytest.raises(NonPositiveThirdDerivative, match="got -1.0 at"):
        DerivEndpoints(-1.0, 1.0, 0.0, 1.0)


# --------------------------------------------------------------------------
# the three bounds
# --------------------------------------------------------------------------

_EXP_ENDPOINTS = DerivEndpoints(1.0, math.e, 0.0, 1.0)


def test_direct_bound_exp_frozen():
    # (1/96) (e mu(1/e) + mu(e)) simplifies to (e + 1) - (9/4) e^(1/2)
    expected = (math.e + 1.0) - 2.25 * math.sqrt(math.e)
    assert direct_bound(_EXP_ENDPOINTS) == pytest.approx(expected, rel=1e-12)


def test_direct_bound_constant_third_derivative():
    # |f'''| == c makes both ratios 1, so the bound is (b-a)^3 c mu(1) * 2/96
    # = (b-a)^3 c / 192; with c = 6 on [-1, 1] that is 8 * 6 / 192 = 0.25
    e = DerivEndpoints(6.0, 6.0, -1.0, 1.0)
    assert direct_bound(e) == pytest.approx(0.25, rel=1e-15)


def test_direct_bound_reflection_symmetry():
    rng = random.Random(99)
    for _ in range(50):
        f3a = math.exp(rng.uniform(-6, 6))
        f3b = math.exp(rng.uniform(-6, 6))
        a = rng.uniform(-5, 4)
        b = a + rng.uniform(0.1, 3.0)
        e = DerivEndpoints(f3a, f3b, a, b)
        mirrored = DerivEndpoints(f3b, f3a, a, b)
        assert direct_bound(e) == direct_bound(mirrored)
        assert power_mean_bound(e, 3.0) == power_mean_bound(mirrored, 3.0)
        assert holder_bound(e, 2.0) == holder_bound(mirrored, 2.0)


def test_holder_bound_constant_third_derivative_q2():
    # K == 1 kills the ratio weights, leaving (b-a)^3 c / (48 sqrt(7))
    e = DerivEndpoints(6.0, 6.0, 0.0, 2.0)
    assert holder_bound(e, 2.0) == pytest.approx(
        8.0 * 6.0 / (48.0 * math.sqrt(7.0)), rel=1e-14)


def test_holder_exponents_reject_q_at_most_one():
    # the Holder exponent rule q > 1 holds wherever chi2 takes its exponent
    for q in (1.0, 0.3, -2.0, math.nan):
        with pytest.raises(DomainError, match="^holder_bound needs q > 1"):
            best_bound(_EXP_ENDPOINTS, q)


def test_holder_bound_needs_q_above_one():
    for q in (1.0, 0.3, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^holder_bound needs q > 1"):
            holder_bound(_EXP_ENDPOINTS, q)


# chi3 at q = 1 is chi1, but it takes mu's two moments where chi1 sums one
# series, so they agree to chi1's 4 ulps plus mu's rounding (6 ulps apart at
# most on these draws, where chi1 is within 2 ulps of mpmath)
def test_power_mean_bound_at_q1_agrees_with_direct():
    rng = random.Random(3)
    for _ in range(100):
        e = DerivEndpoints(math.exp(rng.uniform(-7, 7)),
                           math.exp(rng.uniform(-7, 7)),
                           0.0, rng.uniform(0.25, 4.0))
        assert _ulps(power_mean_bound(e, 1.0), direct_bound(e)) <= \
            4 + _MU_ULPS


def test_power_mean_bound_rejects_q_below_one():
    for q in (0.99, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError,
                           match="^power_mean_bound needs q >= 1"):
            power_mean_bound(_EXP_ENDPOINTS, q)


# chi2 and chi3 against the record-based bounds they replaced, bit for bit:
# q ln K / 2 > 700 takes the roots in log space, ln K = 0 hits u == 0.
@settings(max_examples=1000, deadline=None)
@given(st.floats(min_value=-60.0, max_value=60.0),
       st.floats(min_value=-20.0, max_value=20.0),
       st.floats(min_value=1e-3, max_value=8.0),
       st.floats(min_value=1.0, max_value=64.0, exclude_min=True))
@example(log_k=30.0, log_f3b=0.0, width=1.0, q=64.0)
@example(log_k=-59.5, log_f3b=3.0, width=0.25, q=48.0)
@example(log_k=0.0, log_f3b=0.0, width=2.0, q=2.0)
@example(log_k=1.0625, log_f3b=0.0, width=1.0, q=1.0 + 2.0 ** -52)
def test_chi2_chi3_match_record_reference_bit_for_bit(log_k, log_f3b, width,
                                                      q):
    f3b = math.exp(log_f3b)
    f3a = f3b * math.exp(log_k)
    e = DerivEndpoints(f3a, f3b, 0.0, width)
    holder = holder_bound_reference(e, q).hex()
    assert chi2(f3a, f3b, width, q).hex() == holder
    assert holder_bound(e, q).hex() == holder
    power_mean = power_mean_bound_reference(e, q).hex()
    assert chi3(f3a, f3b, width, q).hex() == power_mean
    assert power_mean_bound(e, q).hex() == power_mean
    assert chi3(f3a, f3b, width, 1.0).hex() == \
        power_mean_bound_reference(e, 1.0).hex()


# Draws with q ln K / 2 > 700 are rare above, so the log-space roots get
# their own draws: |ln K| in (21.875, 60] and q between 1400/|ln K| and 64.
@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=21.875, max_value=60.0, exclude_min=True),
       st.floats(min_value=0.0, max_value=1.0),
       st.booleans())
def test_log_space_roots_match_record_reference_bit_for_bit(log_ratio, frac,
                                                            steep_at_a):
    q = min(64.0, 1400.0 / log_ratio + frac * (64.0 - 1400.0 / log_ratio))
    log_k = log_ratio if steep_at_a else -log_ratio
    e = DerivEndpoints(math.exp(log_k), 1.0, 0.0, 1.0)
    assert chi2(e.f3a_abs, 1.0, 1.0, q).hex() == \
        holder_bound_reference(e, q).hex()
    assert chi3(e.f3a_abs, 1.0, 1.0, q).hex() == \
        power_mean_bound_reference(e, q).hex()
    # the steep side's root adds below the last bit of either bound, so
    # hold the roots themselves to the reference as well
    k = max(e.f3a_abs, 1.0 / e.f3a_abs)
    for power_mean, weight in ((False, reference.holder_factor),
                               (True, reference.mu_q)):
        assert _qth_root(math.log(k), q, power_mean).hex() == \
            reference._qth_root(weight, k, q).hex()


# --method best and thm1 both name chi1, and the report does not echo them.
@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-60.0, max_value=60.0).filter(
           lambda c: abs(c) >= 1e-3),
       st.integers(min_value=1, max_value=8))
def test_best_method_is_thm1(c, n):
    def report(**method: str) -> dict:
        return cmd_integrate(resolve("integrate", {
            "f": f"exp({c!r}*x)", "a": 0.0, "b": 1.0, "n": n,
            "per_interval": True, **method}))
    assert report(method="best") == report(method="thm1") == report()


def test_bounds_scale_with_width_cubed():
    wide = DerivEndpoints(1.0, math.e, 0.0, 2.0)
    narrow = DerivEndpoints(1.0, math.e, 0.0, 1.0)
    assert direct_bound(wide) == pytest.approx(8.0 * direct_bound(narrow),
                                               rel=1e-14)


# Holder's inequality and the power-mean inequality each bound the integral
# that chi1 evaluates exactly, so neither route can undercut chi1 for any q.
# chi2 stays far above chi1.  chi3 tends to chi1 as q -> 1, and mu rounds to
# within about 12 ulps on either side of L_SWITCH, so near q = 1 the two
# computed values may cross by that much: mu at ln K and at q ln K, one ulp
# apart, round independently.
_MU_ULPS = 16


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=-60.0, max_value=60.0),
       st.floats(min_value=-20.0, max_value=20.0),
       st.floats(min_value=1.0, max_value=64.0, exclude_min=True))
@example(log_k=1.0625, log_f3b=0.0, q=1.0 + 2.0 ** -52)
def test_holder_and_power_mean_never_undercut_direct(log_k, log_f3b, q):
    f3b = math.exp(log_f3b)
    e = DerivEndpoints(f3b * math.exp(log_k), f3b, 0.0, 1.0)
    chi1 = direct_bound(e)
    eps = sys.float_info.epsilon
    assert holder_bound(e, q) >= chi1 * (1.0 - 4.0 * eps)
    assert power_mean_bound(e, q) >= \
        chi1 * (1.0 - (4.0 + 2.0 * _MU_ULPS) * eps)
    if q >= 1.0 + 1e-6:  # far enough from 1 that rounding cannot cross
        assert power_mean_bound(e, q) >= chi1 * (1.0 - 4.0 * eps)


# --------------------------------------------------------------------------
# best_bound
# --------------------------------------------------------------------------

def test_best_bound_dominates_each_method():
    rng = random.Random(11)
    for _ in range(25):
        e = DerivEndpoints(math.exp(rng.uniform(-4, 4)),
                           math.exp(rng.uniform(-4, 4)),
                           0.0, rng.uniform(0.5, 2.0))
        report = best_bound(e)
        assert report.min_value <= direct_bound(e) * (1 + 1e-15)
        for q in (1.001, 1.5, 2.0, 8.0, 64.0):
            assert report.min_value <= holder_bound(e, q) * (1 + 1e-15)
            assert report.min_value <= power_mean_bound(e, q) * (1 + 1e-15)


def test_best_bound_labels_are_consistent():
    report = best_bound(_EXP_ENDPOINTS)
    by_label = {"chi1": report.chi1, "chi2": report.chi2,
                "chi3": report.chi3}
    assert report.min_value == by_label[report.argmin_label]
    # chi1 is the least by theorem, named where chi3 rounds 2 ulps below it
    near_one = best_bound(_EXP_ENDPOINTS, 1.0000000000000002)
    assert near_one.chi3 < near_one.chi1 == near_one.min_value
    assert near_one.argmin_label == "chi1"
    assert isinstance(report, BoundReport)
    assert report.q == DEFAULT_Q == 2.0
    assert report.chi2 == holder_bound(_EXP_ENDPOINTS, 2.0)
    assert report.chi3 == power_mean_bound(_EXP_ENDPOINTS, 2.0)


def test_best_bound_takes_the_exponent_of_chi2_and_chi3():
    report = best_bound(_EXP_ENDPOINTS, 1.5)
    assert report.q == 1.5
    assert report.chi1 == direct_bound(_EXP_ENDPOINTS)
    assert report.chi2 == holder_bound(_EXP_ENDPOINTS, 1.5)
    assert report.chi3 == power_mean_bound(_EXP_ENDPOINTS, 1.5)


# --------------------------------------------------------------------------
# interval_chi1: one h * chi1 per cell
# --------------------------------------------------------------------------

def _f3_sequence(kind: str, n: int, log_k: float, seed: int) -> list[float]:
    """|f'''| at n + 1 points: log-affine (one ratio e^log_k up to rounding,
    which repeats), log-random (every ratio new) or the two run together."""
    rng = random.Random(seed)
    steps = {"log-affine": [log_k] * n,
             "log-random": [rng.uniform(-12.0, 12.0) for _ in range(n)]}
    if kind == "mixed":
        steps = [steps["log-random"][i] if i % 7 < 3 else log_k
                 for i in range(n)]
    else:
        steps = steps[kind]
    # keep the logs within [-300, 300] by reflecting the walk
    logs, level = [0.0], 0.0
    for step in steps:
        if abs(level - step) > 300.0:
            step = -step
        level -= step
        logs.append(level)
    return [math.exp(v) for v in logs]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["log-affine", "log-random", "mixed"]),
       st.integers(min_value=1, max_value=2500),
       st.floats(min_value=-10.0, max_value=10.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(kind="log-affine", n=2000, log_k=9.0, seed=0)    # L^2 > 16
@example(kind="log-affine", n=2000, log_k=6.0, seed=0)    # L^2 <= 16
@example(kind="log-affine", n=2000, log_k=0.003, seed=0)  # tanh(L)^2 <= 1e-4
@example(kind="log-random", n=2500, log_k=0.0, seed=1)
@example(kind="mixed", n=2500, log_k=-4.0, seed=2)
def test_interval_chi1_is_h_times_chi1_bit_for_bit(kind, n, log_k, seed):
    f3 = _f3_sequence(kind, n, log_k, seed)
    rng = random.Random(seed)
    widths = [rng.uniform(1e-3, 2.0) for _ in range(n)]
    assert interval_chi1(f3, widths) == tuple(
        h * chi1(f3a, f3b, h) for f3a, f3b, h in zip(f3, f3[1:], widths))


# A zero, infinite, nan or negative magnitude is refused, even where the
# quotient of two negative ones under- or overflows to a positive 0.0 or inf.
@pytest.mark.parametrize("f3, got", [
    ([0.0, 1.0], "0.0"),
    ([-1e-300, -1e300], "0.0"),
    ([math.inf, 1.0], "inf"),
    ([-1e300, -1e-300], "inf"),
    ([math.nan, 1.0], "nan"),
    ([1.0, 1.0, math.inf], "0.0"),   # after a cell whose ratio is kept
])
def test_interval_chi1_refuses_a_ratio_as_chi1_does(f3, got):
    widths = [1.0] * (len(f3) - 1)
    message = f"derivative ratio must be finite and positive, got {got}$"
    with pytest.raises(DomainError, match=message):
        [chi1(f3a, f3b, h) for f3a, f3b, h in zip(f3, f3[1:], widths)]
    with pytest.raises(DomainError, match=message):
        interval_chi1(f3, widths)


# Finite positive magnitudes whose quotient leaves float range: K underflows
# to 0.0 (or M overflows to inf) in the last cell.  The two cells of the
# last row both have K == 0.0 but ln K of -921 and -1151, so they must not
# share a moment.
@pytest.mark.parametrize("f3", [
    [1.0, 1.0, 1e-300, 1e300],
    [1.0, 1.0, 1e300, 1e-300],
    [1.0, 1.0, 1e300, 1e300, 1e-300],
    [1e-300, 1e100, 1e-200, 1e300],
])
def test_interval_chi1_takes_a_ratio_outside_float_range_apart(f3):
    widths = [1.0] * (len(f3) - 1)
    cells = interval_chi1(f3, widths)
    assert cells == tuple(h * chi1(f3a, f3b, h)
                          for f3a, f3b, h in zip(f3, f3[1:], widths))
    assert all(0.0 < cell < math.inf for cell in cells)
    assert len(set(cells[-2:])) == 2


def test_steep_exponential_ratio_outside_float_range_is_bounded():
    # K = e^-1380 underflows to 0.0 and M = e^1380 overflows; h * chi1 by
    # mpmath at 50 digits is 6.6733426156275212e296 either way round
    for c in ("690", "-690"):
        result = composite_bound(parse(f"exp({c}*x)"), (-1.0, 1.0))
        assert result.certified_bound == pytest.approx(
            6.6733426156275212e296, rel=1e-12)


# |f'''| log-uniform on [1e-300, 1e300], so |ln K| reaches ~1381.  Past
# |ln K| ~ 708 the quotient under- or overflows.
@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(min_value=-300.0, max_value=300.0),
                min_size=2, max_size=6),
       st.floats(min_value=0.0, max_value=2.0, exclude_min=True))
@example(exponents=[-300.0, 300.0], width=2.0)
@example(exponents=[300.0, -300.0], width=2.0)
@example(exponents=[-300.0, 8.0, -300.0, 9.0], width=1.0)
@example(exponents=[47.25, -260.5], width=1.0)  # K normal, M subnormal
def test_chi1_across_the_float_range_of_magnitudes(exponents, width):
    f3 = [10.0 ** e for e in exponents]
    widths = [width] * (len(f3) - 1)
    assert interval_chi1(f3, widths) == tuple(
        h * chi1(f3a, f3b, h) for f3a, f3b, h in zip(f3, f3[1:], widths))
    for f3a, f3b in zip(f3, f3[1:]):
        got = chi1(f3a, f3b, width)
        assert math.isfinite(got)
        if width ** 3 / 96.0 >= sys.float_info.min:  # no underflow on the way
            assert _ulps(got, reference.chi1_mpmath(f3a, f3b, width)) <= 4


def _ulps(got: float, want: float) -> float:
    return abs(got - want) / math.ulp(want)


_LN_MIN, _LN_MAX = -708.39, 709.78  # just inside ln of the normal range


# chi1 against mpmath at 50 digits, on each side of the bounds between its
# three forms: tanh(L)^2 = 1e-4 at |ln K| = 0.0200007 and L^2 = 16 at
# |ln K| = 8.  |ln K| is log-uniform on [1e-8, 1418]; the pair sits anywhere
# in the normal range that leaves room for that ratio.
@settings(max_examples=750, deadline=None)
@given(st.floats(min_value=-8.0, max_value=math.log10(1418.0)),
       st.booleans(),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-3, max_value=2.0))
@example(decades=math.log10(0.02), steep_at_a=True, where=0.5, width=1.0)
@example(decades=math.log10(0.0201), steep_at_a=False, where=0.3, width=0.5)
@example(decades=math.log10(7.99), steep_at_a=True, where=0.9, width=2.0)
@example(decades=math.log10(8.01), steep_at_a=False, where=0.1, width=1.0)
@example(decades=math.log10(1418.0), steep_at_a=True, where=0.5, width=1.0)
@example(decades=-8.0, steep_at_a=False, where=0.5, width=1.0)
def test_chi1_is_within_4_ulps_of_mpmath(decades, steep_at_a, where, width):
    log_k = 10.0 ** decades
    room = _LN_MAX - _LN_MIN - log_k
    low = _LN_MIN + where * room
    f3 = [math.exp(low + log_k), math.exp(low)]
    if not steep_at_a:
        f3.reverse()
    assert all(sys.float_info.min <= v < math.inf for v in f3)
    assert _ulps(chi1(*f3, width), reference.chi1_mpmath(*f3, width)) <= 4


def test_power_mean_weight_past_the_overflow_of_the_closed_form_numerator():
    # u = q ln(M)/2 = 695: e^u times mu's cubic overflows but mu does not,
    # so chi3 at q = 139 is finite and above chi1
    e = DerivEndpoints(1.0, math.exp(10.0), 0.0, 1.0)
    assert direct_bound(e) < power_mean_bound(e, 139.0) < math.inf
    with mpmath.workdps(50):
        for lam in (1381.0, 1400.0, 1432.0):
            assert _moment_closed(lam) == pytest.approx(
                float(reference.moment_mpmath(lam)), rel=1e-12)


# chi2 and chi3 against mpmath where q ln K / 2 is far below -700: the
# shallow side's root is taken in log space there, and q ln K itself may
# overflow to -inf.  |ln K| is log-uniform on [1e-3, 1418] and q on
# [1e3, 1.7e308]; the pair sits anywhere in the normal range.
@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-3.0, max_value=math.log10(1418.0)),
       st.booleans(),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=3.0, max_value=math.log10(1.7e308)))
@example(decades=math.log10(4.0), steep_at_a=False, where=0.5,
         q_decades=308.0)
@example(decades=math.log10(1418.0), steep_at_a=True, where=0.5,
         q_decades=math.log10(1.7e308))
@example(decades=-3.0, steep_at_a=False, where=1.0,
         q_decades=math.log10(1.7e308))
@example(decades=0.0, steep_at_a=True, where=0.2, q_decades=80.0)
@example(decades=0.0, steep_at_a=True, where=0.2, q_decades=150.0)
def test_chi2_chi3_are_within_4_ulps_of_mpmath_at_large_q(
        decades, steep_at_a, where, q_decades):
    log_k = 10.0 ** decades
    low = _LN_MIN + where * (_LN_MAX - _LN_MIN - log_k)
    f3 = [math.exp(low + log_k), math.exp(low)]
    if not steep_at_a:
        f3.reverse()
    q = 10.0 ** q_decades
    floor = chi1(*f3, 1.0) * (1.0 - 4.0 * sys.float_info.epsilon)
    for power_mean, bound in ((False, chi2), (True, chi3)):
        got = bound(*f3, 1.0, q)
        assert got >= floor
        assert _ulps(got, reference.weighted_bound_mpmath(
            *f3, 1.0, q, power_mean)) <= 4


def test_chi2_keeps_both_terms_where_q_ln_k_overflows():
    # q ln K = -4e308 is -inf; chi2 = 0.01924 at the parent lost the
    # |f'''(b)| term and fell below chi1 = 0.04400
    got = chi2(1.0, math.exp(4.0), 1.0, 1e308)
    assert got == pytest.approx(reference.weighted_bound_mpmath(
        1.0, math.exp(4.0), 1.0, 1e308, False), rel=1e-15)
    assert got > chi1(1.0, math.exp(4.0), 1.0)


def test_chi2_chi3_near_the_top_of_float_range_are_finite():
    # |f'''(b)| W(K) + |f'''(a)| W(M) overflows although the bound does not
    f3 = 1.68e308
    for power_mean, bound in ((False, chi2), (True, chi3)):
        assert _ulps(bound(f3, f3, 1.0, 2.0), reference.weighted_bound_mpmath(
            f3, f3, 1.0, 2.0, power_mean)) <= 4
