import json
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hh3 import quadrature
from hh3.bounds import DerivEndpoints, direct_bound, mu
from hh3.cli import main
from hh3.errors import (BadInterval, BelowRoundingFloor, NonConvergence,
                        NonPositiveThirdDerivative, ToleranceUnreachable)
from hh3.expr import parse
from hh3.quadrature import (_CC_NODES, _CC_W_COARSE, _CC_W_FINE,
                            CertifyOutcome, certify, composite_bound,
                            corrected_midpoint_sum, identity_residual,
                            integrate_adaptive, midpoint_sum,
                            reference_integral, uniform_division)


# --------------------------------------------------------------------------
# divisions
# --------------------------------------------------------------------------

def test_uniform_division_basic():
    assert uniform_division(0.0, 1.0, 4) == (0.0, 0.25, 0.5, 0.75, 1.0)
    # the grid is a + i*h with h = (b - a)/n, closed with the exact b
    a, b, n = 0.1, 0.7, 7
    h = (b - a) / n
    assert uniform_division(a, b, n) == \
        tuple(a + i * h for i in range(n)) + (b,)


def test_uniform_division_hits_endpoints_exactly():
    d = uniform_division(0.1, 0.7, 7)
    assert d[0] == 0.1
    assert d[-1] == 0.7


def test_division_validation():
    # every entry point that takes points checks them the same way
    f = parse("exp(x)")
    for points in ((0.0,), (), (0.0, 1.0, 0.5), (0.0, 0.0, 1.0), (1.0, 0.0),
                   (0.0, math.inf), (math.nan, 1.0), (0.0, 0.5, math.nan)):
        for use in (midpoint_sum, corrected_midpoint_sum, composite_bound):
            with pytest.raises(BadInterval):
                use(f, points)
    for a, b, n in ((1.0, 0.0, 4), (1.0, 1.0, 4), (0.0, math.inf, 4),
                    (math.nan, 1.0, 4), (0.0, 1.0, 0)):
        with pytest.raises(BadInterval):
            uniform_division(a, b, n)


def test_non_uniform_points_are_accepted():
    # any strictly increasing sequence is a division, ints and lists too
    f = parse("exp(x)")
    points = [0, 0.5, 2]
    result = composite_bound(f, points, method="thm1")
    assert len(result.interval_bounds) == 2
    assert result.f3 == pytest.approx([math.exp(x) for x in points],
                                      rel=1e-15)
    want = 0.5 * math.exp(0.25) + 1.5 * math.exp(1.25)
    assert midpoint_sum(f, points) == result.midpoint_sum
    assert result.midpoint_sum == pytest.approx(want, rel=1e-15)
    assert corrected_midpoint_sum(f, iter(points)) == result.corrected_sum


# --------------------------------------------------------------------------
# plain sums
# --------------------------------------------------------------------------

def test_midpoint_sum_single_interval():
    # f(x) = x^3/6 on [0, 1]: one midpoint value is (1/2)^3/6 = 1/48
    assert midpoint_sum(parse("x^3/6"), uniform_division(0, 1, 1)) == 1.0 / 48.0


def test_corrected_sum_is_exact_on_cubics():
    # the correction (h^3/24) f''(m) integrates cubics exactly
    assert corrected_midpoint_sum(
        parse("x^3/6"), uniform_division(0, 1, 1)) == pytest.approx(
            1.0 / 24.0, abs=1e-16)
    rng = random.Random(5)
    for _ in range(20):
        c3, c2, c1, c0 = (rng.uniform(-3, 3) for _ in range(4))
        src = f"{c3}*x^3 + {c2}*x^2 + {c1}*x + {c0}"
        a = rng.uniform(-4, 2)
        b = a + rng.uniform(0.5, 3.0)
        exact = sum(c / k * (b ** k - a ** k) for c, k in
                    ((c3, 4), (c2, 3), (c1, 2), (c0, 1)))
        for n in (1, 3, 5):
            got = corrected_midpoint_sum(parse(src), uniform_division(a, b, n))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_midpoint_sum_exp_two_intervals():
    want = 0.5 * (math.exp(0.25) + math.exp(0.75))
    got = midpoint_sum(parse("exp(x)"), uniform_division(0, 1, 2))
    assert got == pytest.approx(want, rel=1e-15)


def test_corrected_sum_exp_single_interval():
    want = 25.0 / 24.0 * math.sqrt(math.e)
    got = corrected_midpoint_sum(parse("exp(x)"), uniform_division(0, 1, 1))
    assert got == pytest.approx(want, rel=1e-15)


# --------------------------------------------------------------------------
# reference integrator
# --------------------------------------------------------------------------

def test_panel_rule_weights_are_consistent():
    assert len(_CC_NODES) == 33
    assert math.fsum(_CC_W_FINE) == pytest.approx(2.0, abs=1e-14)
    assert math.fsum(_CC_W_COARSE) == pytest.approx(2.0, abs=1e-14)
    assert all(w > 0 for w in _CC_W_FINE)
    # coarse nodes are the even-indexed fine nodes
    for j in range(0, 33, 2):
        assert _CC_NODES[j] == pytest.approx(
            math.cos(math.pi * (j // 2) / 16), abs=1e-15)


def test_panel_rule_polynomial_exactness():
    # one panel integrates x^k exactly for k well past the coarse rule's 17
    for k in range(0, 30):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        fine = math.fsum(w * t ** k for w, t in zip(_CC_W_FINE, _CC_NODES))
        assert fine == pytest.approx(exact, abs=5e-15)


@pytest.mark.parametrize("source,a,b,exact", [
    ("exp(x)", 0.0, 1.0, math.e - 1.0),
    ("1/x", 1.0, 2.0, math.log(2.0)),
    ("x^4", 0.0, 1.0, 0.2),
    ("sin(x)", 0.0, math.pi, 2.0),
    ("1/(1 + x^2)", 0.0, 1.0, math.pi / 4.0),
    ("exp(-x^2)", -6.0, 6.0, math.sqrt(math.pi) * math.erf(6.0)),
])
def test_reference_integral_known_values(source, a, b, exact):
    assert reference_integral(parse(source), a, b, 1e-13) == pytest.approx(
        exact, rel=5e-13, abs=5e-14)


def test_reference_integral_rejects_overtight_tolerance():
    with pytest.raises(ValueError):
        reference_integral(parse("x"), 0.0, 1.0, 1e-15)


def test_reference_integral_budget_exhaustion():
    with pytest.raises(NonConvergence) as info:
        reference_integral(parse("exp(x)"), 0.0, 1.0, 1e-13, budget=20)
    assert info.value.evals == 20


def test_integrate_adaptive_handles_large_magnitudes():
    # absolute tolerance below rounding level of the result: the roundoff
    # floor must accept panels instead of bisecting forever
    got = integrate_adaptive(lambda x: 1e8 * math.exp(x), 0.0, 1.0, 1e-13)
    assert got == pytest.approx(1e8 * (math.e - 1.0), rel=1e-14)


def test_integrate_adaptive_needle():
    # narrow enough to hide from a single 33-node panel over [-1, 1]; the
    # integrator's mandatory initial bisections have to reveal it
    sigma = 5e-3
    got = integrate_adaptive(
        lambda x: math.exp(-((x - 0.3) / sigma) ** 2 / 2.0), -1.0, 1.0, 1e-12)
    assert got == pytest.approx(math.sqrt(2.0 * math.pi) * sigma, rel=1e-10)


def test_integrate_adaptive_is_deterministic():
    fn = lambda x: math.sin(3.0 * x) * math.exp(x)
    assert integrate_adaptive(fn, 0.0, 2.0, 1e-12) == \
        integrate_adaptive(fn, 0.0, 2.0, 1e-12)


# --------------------------------------------------------------------------
# composite bounds
# --------------------------------------------------------------------------

def _independent_interval_bound(f3_lo, f3_hi, lo, hi):
    # same shape as the direct bound but with mu obtained by quadrature,
    # bypassing the series/closed-form implementation entirely
    def mu_num(k):
        lam = math.log(k)
        return integrate_adaptive(
            lambda t: t ** 3 * math.exp(0.5 * lam * t), 0.0, 1.0, 1e-13)
    h = hi - lo
    return h ** 4 / 96.0 * (f3_hi * mu_num(f3_lo / f3_hi)
                            + f3_lo * mu_num(f3_hi / f3_lo))


def test_composite_thm1_matches_independent_formula():
    f = parse("exp(x)")
    for n in (1, 2, 5):
        d = uniform_division(0.0, 1.0, n)
        result = composite_bound(f, d, method="thm1")
        want = math.fsum(
            _independent_interval_bound(math.exp(lo), math.exp(hi), lo, hi)
            for lo, hi in zip(d, d[1:]))
        assert result.certified_bound == pytest.approx(want, rel=1e-11)


def test_composite_single_interval_equals_direct_bound():
    f = parse("exp(x)")
    result = composite_bound(f, uniform_division(0.0, 1.0, 1), method="thm1")
    e = DerivEndpoints(1.0, math.e, 0.0, 1.0)
    assert result.certified_bound == pytest.approx(direct_bound(e), rel=1e-15)


def test_composite_methods_need_q():
    f = parse("exp(x)")
    d = uniform_division(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        composite_bound(f, d, method="thm2")
    with pytest.raises(ValueError):
        composite_bound(f, d, method="nope")


def test_composite_rejects_vanishing_third_derivative():
    with pytest.raises(NonPositiveThirdDerivative) as info:
        composite_bound(parse("x^2"), uniform_division(0.0, 1.0, 2))
    assert info.value.x == 0.0
    # x^4 has f''' = 24x, zero exactly at a division point here
    with pytest.raises(NonPositiveThirdDerivative):
        composite_bound(parse("x^4"), uniform_division(-1.0, 1.0, 2))


def test_best_method_dominates_fixed_methods():
    f = parse("1/x")
    d = uniform_division(1.0, 2.0, 4)
    best = composite_bound(f, d, method="best")
    slack = 1.0 + 1e-12
    for method, q_values in (("thm1", (None,)), ("thm2", (1.5, 2.0, 8.0)),
                             ("thm3", (1.0, 2.0, 8.0))):
        for q in q_values:
            fixed = composite_bound(f, d, method=method, q=q)
            assert best.certified_bound <= fixed.certified_bound * slack
            for bound_best, bound_fixed in zip(best.interval_bounds,
                                               fixed.interval_bounds):
                assert bound_best <= bound_fixed * slack


def test_certified_bound_decreases_under_doubling():
    f = parse("exp(2*x)")
    previous = None
    for n in (1, 2, 4, 8, 16):
        got = composite_bound(f, uniform_division(-1.0, 1.0, n),
                              method="thm1").certified_bound
        if previous is not None:
            assert got < previous
        previous = got


def test_max_interval_bound_ratio_for_coarse_doubling():
    # the largest per-interval bound drops by 12x-14x from n=1 to n=2
    f = parse("exp(x)")
    one = composite_bound(f, uniform_division(0.0, 1.0, 1), method="thm1")
    two = composite_bound(f, uniform_division(0.0, 1.0, 2), method="thm1")
    ratio = max(two.interval_bounds) / max(one.interval_bounds)
    assert 1.0 / 14.0 <= ratio <= 1.0 / 12.0


def test_max_interval_bound_scales_as_h4_once_resolved():
    f = parse("exp(x)")
    for n in (8, 16, 32):
        coarse = composite_bound(f, uniform_division(0.0, 1.0, n),
                                 method="thm1")
        fine = composite_bound(f, uniform_division(0.0, 1.0, 2 * n),
                               method="thm1")
        ratio = max(coarse.interval_bounds) / max(fine.interval_bounds)
        assert 14.0 <= ratio <= 16.5


def test_composite_per_interval_records(capsys):
    f = parse("exp(x)")
    d = uniform_division(0.0, 1.0, 3)
    result = composite_bound(f, d, method="thm3", q=2.0)
    assert len(result.f3) == 4 and len(result.interval_bounds) == 3
    assert result.certified_bound == math.fsum(result.interval_bounds)
    assert main(["integrate", "--f", "exp(x)", "--a", "0", "--b", "1",
                 "--n", "3", "--method", "thm3", "--q", "2",
                 "--per-interval"]) == 0
    rows = json.loads(capsys.readouterr().out)["intervals"]
    assert len(rows) == 3
    for row, lo, hi, bound in zip(rows, d, d[1:], result.interval_bounds):
        assert (row["lo"], row["hi"]) == (lo, hi)
        assert row["method"] == "thm3" and row["q"] == 2.0
        assert row["bound"] == bound > 0.0
        assert row["k_ratio"] == pytest.approx(math.exp(lo - hi), rel=1e-14)
        assert row["m_ratio"] == pytest.approx(math.exp(hi - lo), rel=1e-14)


def test_midpoint_bound_heuristic_flag():
    exp_result = composite_bound(parse("exp(x)"), uniform_division(0, 1, 2))
    assert exp_result.midpoint_bound_heuristic
    # odd cubic on a symmetric interval: f''(m) == 0, correction vanishes,
    # and the midpoint sum equals the corrected sum; the bound is rigorous
    cubic = composite_bound(parse("x^3"), uniform_division(-1, 1, 1))
    assert not cubic.midpoint_bound_heuristic
    assert cubic.midpoint_sum == cubic.corrected_sum


def test_composite_soundness_spot_check():
    for source, a, b in (("exp(x)", 0.0, 1.0), ("1/x", 1.0, 2.0),
                         ("exp(2*x)", -1.0, 1.0)):
        f = parse(source)
        truth = reference_integral(f, a, b, 1e-13)
        for n in (1, 2, 4, 8):
            result = composite_bound(f, uniform_division(a, b, n),
                                     method="best")
            error = abs(result.corrected_sum - truth)
            assert result.certified_bound >= error - 1e-12


# --------------------------------------------------------------------------
# identity residual
# --------------------------------------------------------------------------

@pytest.mark.parametrize("source,a,b", [
    ("x^4", 0.0, 1.0),
    ("x^5", 0.0, 1.0),
    ("exp(x)", 0.0, 1.0),
    ("1/x", 1.0, 2.0),
])
def test_identity_residual_is_tiny(source, a, b):
    assert abs(identity_residual(parse(source), a, b)) <= 1e-10


def test_identity_residual_quartic_sides_frozen():
    # for f = x^4 on [0, 1] both sides equal 1/80 analytically; the residual
    # must vanish far below either side's magnitude
    assert abs(identity_residual(parse("x^4"), 0.0, 1.0)) <= 1e-14


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------

def test_certify_doubles_until_tolerance():
    # f''' == 48 makes the n-interval bound 0.25/n^3 (= (b-a)^3 c/192 per
    # interval summed); the first doubling below 1e-3 is n = 8
    outcome = certify(parse("8*x^3"), 0.0, 1.0, 1e-3, method="thm1")
    assert isinstance(outcome, CertifyOutcome)
    assert outcome.n_final == 8
    assert outcome.iterations == 4
    assert outcome.result.certified_bound == pytest.approx(0.25 / 512.0,
                                                           rel=1e-12)
    assert outcome.result.certified_bound <= 1e-3


def test_certify_exp_to_microtolerance():
    outcome = certify(parse("exp(x)"), 0.0, 1.0, 1e-6, method="thm1")
    assert outcome.n_final == 32
    assert outcome.result.certified_bound <= 1e-6
    truth = math.e - 1.0
    assert abs(outcome.result.corrected_sum - truth) <= \
        outcome.result.certified_bound


def test_certify_tolerance_unreachable():
    with pytest.raises(ToleranceUnreachable) as info:
        certify(parse("exp(x)"), 0.0, 1.0, 1e-12, method="thm1", n_max=16)
    err = info.value
    assert err.n_final == 16
    assert 0.0 < err.best_bound
    assert err.best_bound == pytest.approx(
        composite_bound(parse("exp(x)"), uniform_division(0, 1, 16),
                        method="thm1").certified_bound, rel=1e-15)


def test_certify_rejects_bad_tolerance():
    with pytest.raises(BadInterval):
        certify(parse("exp(x)"), 0.0, 1.0, 0.0)


# --------------------------------------------------------------------------
# certify: the rounding floor, nested divisions and jet reuse
# --------------------------------------------------------------------------

def test_certify_stops_at_the_rounding_floor():
    # ulp(|I|) = 16384 for exp(50x) on [0, 1], so no n reaches 1e-6; the
    # doubling used to run to n = 2^20 before it gave up
    with pytest.raises(BelowRoundingFloor) as info:
        certify(parse("exp(50*x)"), 0.0, 1.0, 1e-6)
    err = info.value
    assert isinstance(err, ToleranceUnreachable)   # the CLI's exit 2
    assert err.n_final <= 64
    assert err.tol == 1e-6 < err.floor <= 8192.0
    assert math.isfinite(err.best_bound)
    assert str(err) == (f"tol 1e-06 is below the rounding floor "
                        f"{err.floor!r} of the corrected sum at "
                        f"n = {err.n_final}; no certified bound can reach it")


def _counting_jets(monkeypatch) -> list[float]:
    """Every point at which certify or composite_bound evaluates a jet."""
    calls = []
    compile_real = quadrature.compile_jet3

    def compile_counted(f):
        jet = compile_real(f)

        def counted(x):
            calls.append(x)
            return jet(x)
        return counted
    monkeypatch.setattr(quadrature, "compile_jet3", compile_counted)
    return calls


def test_certify_evaluates_each_division_point_once(monkeypatch):
    # levels n = 1, 2, 4, 8: the odd points of each level are the midpoints
    # of the one before, so the jets are the 9 points of n = 8 and its 8
    # midpoints, each once; evaluating every point and midpoint of every
    # level took 3 + 5 + 9 + 17 = 34 jets
    calls = _counting_jets(monkeypatch)
    outcome = certify(parse("8*x^3"), 0.0, 1.0, 1e-3)
    assert (outcome.n_final, outcome.iterations) == (8, 4)
    assert len(calls) == 17
    assert len(set(calls)) == len(calls)


def test_certify_reuses_matching_midpoints_on_a_non_dyadic_interval(
        monkeypatch):
    f = parse("exp(x)+exp(2*x)")
    calls = _counting_jets(monkeypatch)
    outcome = certify(f, 0.1, 0.8, 1e-9)
    levels = [2 ** i for i in range(outcome.iterations)]
    # evaluating every odd point again, as certify once did
    every_odd_point = 3 + sum(n // 2 + n for n in levels[1:])
    assert len(set(calls)) == len(calls) < every_odd_point
    monkeypatch.undo()
    expected = composite_bound(f, uniform_division(0.1, 0.8, outcome.n_final))
    assert repr(outcome.result) == repr(expected)


def test_rounding_floor_reads_the_level_jets(monkeypatch):
    calls = _counting_jets(monkeypatch)
    with pytest.raises(BelowRoundingFloor) as info:
        certify(parse("exp(50*x)"), 0.0, 1.0, 1e-6)
    # the points and midpoints of the last level, each once
    assert len(calls) == len(set(calls)) == 2 * info.value.n_final + 1


@pytest.mark.parametrize("x, evaluated", [
    (0.0, False), (-0.0, False),   # the midpoint 0.0 of [-1, 1]: one real
    (0.25, True),
])
def test_an_odd_point_takes_the_jet_of_an_equal_coarse_midpoint(
        monkeypatch, x, evaluated):
    f = parse("exp(x)")
    jets = []
    coarse = composite_bound(f, (-1.0, 1.0), midpoint_jets=jets)
    calls = _counting_jets(monkeypatch)
    fine = composite_bound(f, (-1.0, x, 1.0),
                           coarse=((-1.0, 1.0), coarse.f3, jets))
    midpoints = [0.5 * (-1.0 + x), 0.5 * (x + 1.0)]
    assert calls == [x] * evaluated + midpoints
    monkeypatch.undo()
    assert fine == composite_bound(f, (-1.0, x, 1.0))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3),
       st.floats(min_value=1e-6, max_value=1e3),
       st.integers(min_value=1, max_value=2048))
def test_doubled_division_nests_bit_for_bit(a, width, n):
    b = a + width
    assume(a < b)
    coarse = uniform_division(a, b, n)
    fine = uniform_division(a, b, 2 * n)
    assert [x.hex() for x in fine[::2]] == [x.hex() for x in coarse]


def test_subnormal_width_breaks_nesting():
    # h = 11/8 of the least subnormal rounds to 1 of it, but h = 11/4 to 3
    b = 11 * 5e-324
    assert uniform_division(0.0, b, 8)[::2] != uniform_division(0.0, b, 4)


_FAMILIES = ("exp({c}*x)", "exp({c}*x)+exp({d}*x)", "1/(x+{s})")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FAMILIES),
       st.floats(min_value=-6.0, max_value=6.0).filter(lambda c: abs(c) > 0.1),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=-9.0, max_value=-4.0),
       st.sampled_from(["thm1", "thm3"]))
@example(family="exp({c}*x)", c=1.0, d=1.0, a=0.0, width=1.0, log_rel=-9.0,
         method="thm1")
def test_certify_result_is_composite_bound_at_n_final(family, c, d, a, width,
                                                      log_rel, method):
    # tolerances of 1e-9 of |I| and up sit far above the rounding floor
    f = parse(family.format(c=c, d=d, s=1.0 + d))
    b = a + width
    q = 1.5 if method == "thm3" else None
    tol = 10.0 ** log_rel * abs(composite_bound(
        f, uniform_division(a, b, 64), "thm1").corrected_sum)
    outcome = certify(f, a, b, tol, method=method, q=q, n_max=2 ** 14)
    expected = composite_bound(f, uniform_division(a, b, outcome.n_final),
                               method=method, q=q)
    assert repr(outcome.result) == repr(expected)


def _jittered_division(a, b, n):
    """uniform_division with its interior points one ulp up where log2(n)
    is odd, so no level from n = 4 on nests the one before."""
    points = list(uniform_division(a, b, n))
    if n.bit_length() % 2 == 0:
        points[1:-1] = [math.nextafter(x, math.inf) for x in points[1:-1]]
    return tuple(points)


def test_certify_evaluates_every_point_when_levels_do_not_nest(monkeypatch):
    monkeypatch.setattr(quadrature, "uniform_division", _jittered_division)
    calls = _counting_jets(monkeypatch)
    f = parse("exp(x)+exp(2*x)")
    outcome = certify(f, 0.1, 0.8, 1e-9)
    # n = 2 still nests n = 1, whose only points are the endpoints
    levels = [2 ** i for i in range(outcome.iterations)]
    assert len(calls) == sum(2 * n + 1 for n in levels) - 2
    expected = composite_bound(f, _jittered_division(0.1, 0.8,
                                                     outcome.n_final))
    assert repr(outcome.result) == repr(expected)
