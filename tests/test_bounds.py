import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bound_reference as reference
from bound_reference import (holder_bound_reference,
                             power_mean_bound_reference)
from hh3 import bounds
from hh3.bounds import (DEFAULT_Q, L_SWITCH, BoundReport, DerivEndpoints,
                        _moment_closed, _moment_series, _qth_root, best_bound,
                        bound_function, chi1, chi2, chi3, direct_bound,
                        holder_bound, holder_factor, interval_chi1, mu, mu_q,
                        power_mean_bound)
from hh3.errors import (BadInterval, DomainError,
                        NonPositiveThirdDerivative)
from hh3.expr import eval_jet3, parse
from hh3.quadrature import composite_bound, integrate_adaptive, \
    uniform_division


# --------------------------------------------------------------------------
# mu: frozen values and oracles
# --------------------------------------------------------------------------

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


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_mu_rejects_bad_ratio(bad):
    with pytest.raises(DomainError):
        mu(bad)


# --------------------------------------------------------------------------
# mu_q
# --------------------------------------------------------------------------

def test_mu_q_at_one_is_mu_exactly():
    rng = random.Random(7)
    for _ in range(50):
        k = math.exp(rng.uniform(-18.0, 18.0))
        assert mu_q(k, 1.0) == mu(k)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.5, max_value=2.0),
       st.floats(min_value=1.0, max_value=8.0))
def test_mu_q_matches_powered_ratio(k, q):
    assert mu_q(k, q) == pytest.approx(mu(k ** q), rel=1e-12)


def test_mu_q_overflow_guard():
    k = math.e ** 2  # ln k = 2, so q * ln(k) / 2 == q
    assert mu_q(k, 699.0) > 0.0
    with pytest.raises(OverflowError):
        mu_q(k, 701.0)


def test_mu_q_rejects_small_q():
    with pytest.raises(DomainError):
        mu_q(2.0, 0.5)


# --------------------------------------------------------------------------
# Holder factor
# --------------------------------------------------------------------------

def test_holder_factor_frozen_values():
    assert holder_factor(math.e ** 2, 1.0) == pytest.approx(math.e - 1.0,
                                                            rel=1e-14)
    assert holder_factor(math.exp(-1.0), 2.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-14)


def test_holder_factor_at_one():
    assert holder_factor(1.0, 3.0) == 1.0


def _holder_factor_by_quadrature(k: float, q: float) -> float:
    lam = math.log(k)
    # hf(K, q) = 2/(q ln K) (K^(q/2) - 1) = integral of q ln(K)/2 e^(u) ...
    # checked directly against the defining integral of K^(q t / 2):
    return integrate_adaptive(lambda t: math.exp(0.5 * q * lam * t),
                              0.0, 1.0, 1e-13)


@pytest.mark.parametrize("k,q", [(0.2, 1.0), (0.9, 2.0), (1.0, 5.0),
                                 (3.7, 1.5), (40.0, 3.0)])
def test_holder_factor_is_exponential_mean(k, q):
    assert holder_factor(k, q) == pytest.approx(
        _holder_factor_by_quadrature(k, q), rel=1e-12)


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
    with pytest.raises(BadInterval):
        DerivEndpoints(1.0, 1.0, 0.0, 1.0)._replace(a=2.0)


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
    # the Holder exponent rule q > 1 is checked where thm2 gets its bound
    for q in (1.0, 0.3, -2.0, math.nan):
        with pytest.raises(DomainError):
            bound_function("thm2", q)


def test_holder_bound_needs_q_above_one():
    f, d = parse("exp(x)"), uniform_division(0.0, 1.0, 2)
    for q in (1.0, 0.3, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            holder_bound(_EXP_ENDPOINTS, q)
        with pytest.raises(DomainError):
            composite_bound(f, d, method="thm2", q=q)


def test_power_mean_bound_at_q1_equals_direct_bitwise():
    rng = random.Random(3)
    for _ in range(100):
        e = DerivEndpoints(math.exp(rng.uniform(-7, 7)),
                           math.exp(rng.uniform(-7, 7)),
                           0.0, rng.uniform(0.25, 4.0))
        assert power_mean_bound(e, 1.0) == direct_bound(e)


def test_power_mean_bound_rejects_q_below_one():
    f, d = parse("exp(x)"), uniform_division(0.0, 1.0, 2)
    for q in (0.99, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            power_mean_bound(_EXP_ENDPOINTS, q)
        with pytest.raises(DomainError):
            composite_bound(f, d, method="thm3", q=q)


def test_bound_function_maps_each_method_and_checks_q():
    assert bound_function("thm1") is chi1
    assert bound_function("best", 0.5) is chi1     # q is ignored
    assert bound_function("thm2", 3.0)(2.0, 5.0, 0.5) == \
        chi2(2.0, 5.0, 0.5, 3.0)
    assert bound_function("thm3", 1.0)(2.0, 5.0, 0.5) == chi1(2.0, 5.0, 0.5)
    for method in ("thm2", "thm3"):
        with pytest.raises(ValueError, match="needs an exponent q"):
            bound_function(method)
    with pytest.raises(ValueError, match="unknown method"):
        bound_function("simpson", 2.0)
    with pytest.raises(DomainError, match=r"^thm2 needs q > 1, got 1\.0$"):
        bound_function("thm2", 1.0)
    with pytest.raises(DomainError, match=r"^thm3 needs q >= 1, got 0\.5$"):
        bound_function("thm3", 0.5)


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


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-60.0, max_value=60.0).filter(
           lambda c: abs(c) >= 1e-3),
       st.integers(min_value=1, max_value=6),
       st.floats(min_value=1.0, max_value=64.0, exclude_min=True),
       st.sampled_from(["thm2", "thm3"]))
@example(c=60.0, n=1, q=64.0, method="thm2")    # ln M = 60: log-space roots
@example(c=-60.0, n=2, q=64.0, method="thm3")
@example(c=7.0, n=3, q=1.0, method="thm3")
def test_composite_thm2_thm3_intervals_match_record_reference(c, n, q,
                                                              method):
    f = parse(f"exp({c!r}*x)")
    d = uniform_division(0.0, 1.0, n)
    result = composite_bound(f, d, method=method, q=q)
    reference = (holder_bound_reference if method == "thm2"
                 else power_mean_bound_reference)
    assert len(result.interval_bounds) == n
    for lo, hi, bound in zip(d, d[1:], result.interval_bounds):
        e = DerivEndpoints(abs(eval_jet3(f, lo)[3]), abs(eval_jet3(f, hi)[3]),
                           lo, hi)
        assert bound.hex() == (e.width * reference(e, q)).hex()


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


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-60.0, max_value=60.0).filter(
           lambda c: abs(c) >= 1e-3),
       st.integers(min_value=1, max_value=8))
def test_best_method_is_thm1(c, n):
    f = parse(f"exp({c!r}*x)")
    d = uniform_division(0.0, 1.0, n)
    assert composite_bound(f, d, method="best") == \
        composite_bound(f, d, method="thm1")


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
    assert isinstance(report, BoundReport)
    assert report.q == DEFAULT_Q == 2.0
    assert report.chi2 == holder_bound(_EXP_ENDPOINTS, 2.0)
    assert report.chi3 == power_mean_bound(_EXP_ENDPOINTS, 2.0)


# --------------------------------------------------------------------------
# interval_chi1: one h * chi1 per cell, each distinct ratio's mu once
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
@example(kind="log-affine", n=2000, log_k=6.0, seed=0)    # |ln K| > L_SWITCH
@example(kind="log-affine", n=2000, log_k=0.003, seed=0)  # |ln K| < L_SWITCH
@example(kind="log-random", n=2500, log_k=0.0, seed=1)   # > cache size
@example(kind="mixed", n=2500, log_k=-4.0, seed=2)
def test_interval_chi1_is_h_times_chi1_bit_for_bit(kind, n, log_k, seed):
    f3 = _f3_sequence(kind, n, log_k, seed)
    rng = random.Random(seed)
    widths = [rng.uniform(1e-3, 2.0) for _ in range(n)]
    assert interval_chi1(f3, widths) == tuple(
        h * chi1(f3a, f3b, h) for f3a, f3b, h in zip(f3, f3[1:], widths))


def test_interval_chi1_computes_each_distinct_ratio_once(monkeypatch):
    result = composite_bound(parse("exp(6*x)"), uniform_division(0.0, 1.0,
                                                                 4096))
    f3 = result.f3
    ks = {f3a / f3b for f3a, f3b in zip(f3, f3[1:])}
    ms = {f3b / f3a for f3a, f3b in zip(f3, f3[1:])}
    calls = []
    moment = bounds._moment_from_log
    monkeypatch.setattr(bounds, "_moment_from_log",
                        lambda lam: calls.append(lam) or moment(lam))
    again = composite_bound(parse("exp(6*x)"), uniform_division(0.0, 1.0,
                                                                 4096))
    assert again == result
    assert len(calls) == len(ks | ms) <= 2 * len(ks) < 4096 // 20


def test_interval_chi1_starts_its_cache_again_once_full(monkeypatch):
    f3 = _f3_sequence("log-random", 50, 0.0, 3) * 3   # each ratio thrice
    widths = [0.5] * (len(f3) - 1)
    expected = interval_chi1(f3, widths)
    calls = []
    moment = bounds._moment_from_log
    monkeypatch.setattr(bounds, "_moment_from_log",
                        lambda lam: calls.append(lam) or moment(lam))
    monkeypatch.setattr(bounds, "_MOMENT_CACHE_SIZE", 8)
    assert interval_chi1(f3, widths) == expected
    assert len(calls) == 2 * len(widths)   # 8 ratios never span a repeat


@pytest.mark.parametrize("f3, got", [
    ([0.0, 1.0], "0.0"),
    ([1.0, 1.0, 1e-300, 1e300], "0.0"),    # K underflows in the last cell
    ([1.0, 1.0, 1e300, 1e-300], "inf"),    # and overflows
    ([1.0, 1.0, 1e300, 1e300, 1e-300], "inf"),
    ([math.nan, 1.0], "nan"),
])
def test_interval_chi1_refuses_a_ratio_as_chi1_does(f3, got):
    widths = [1.0] * (len(f3) - 1)
    message = f"derivative ratio must be finite and positive, got {got}$"
    with pytest.raises(DomainError, match=message):
        [chi1(f3a, f3b, h) for f3a, f3b, h in zip(f3, f3[1:], widths)]
    with pytest.raises(DomainError, match=message):
        interval_chi1(f3, widths)


def test_steep_exponential_ratio_underflow_is_a_domain_error():
    # K = e^-1380 underflows to 0.0 before M = e^1380 overflows
    with pytest.raises(DomainError, match="derivative ratio must be finite "
                                          "and positive, got 0.0"):
        composite_bound(parse("exp(690*x)"), (-1.0, 1.0))
