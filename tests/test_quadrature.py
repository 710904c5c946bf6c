import json
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hh3 import quadrature
from hh3.bounds import DerivEndpoints, direct_bound
from hh3.cli import cmd_integrate, main, resolve
from hh3.errors import (BadInterval, BelowRoundingFloor, DomainError,
                        Hh3Error, NonConvergence,
                        NonPositiveThirdDerivative, ToleranceUnreachable)
from hh3.expr import compile_jet, parse
from hh3.monotone import proved_block
from hh3.quadrature import (_CC_COARSE, _CC_FINE, _CC_NODES, Certificate,
                            certify, composite_bound, identity_residual,
                            integrate_adaptive, reference_integral,
                            uniform_division)
from test_classify import accepted


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
    f = parse("exp(x)")
    for points in ((0.0,), (), (0.0, 1.0, 0.5), (0.0, 0.0, 1.0), (1.0, 0.0),
                   (0.0, math.inf), (math.nan, 1.0), (0.0, 0.5, math.nan)):
        with pytest.raises(BadInterval):
            composite_bound(f, points)
    for a, b, n in ((1.0, 0.0, 4), (1.0, 1.0, 4), (0.0, math.inf, 4),
                    (math.nan, 1.0, 4), (0.0, 1.0, 0)):
        with pytest.raises(BadInterval):
            uniform_division(a, b, n)


def test_a_one_ulp_cell_is_refused_before_any_value_of_f(monkeypatch):
    # among wide cells, one of one ulp: its midpoint rounds onto an end, so
    # the division is refused before f''' or any midpoint jet
    calls = _counting_jets(monkeypatch)
    f = parse("exp(x)")
    with pytest.raises(BadInterval, match=r"^\[0\.0, 1\.0\] is too narrow "
                       r"for 3 cells$"):
        composite_bound(f, (0.0, 0.5, math.nextafter(0.5, 1.0), 1.0))
    with pytest.raises(BadInterval, match=r"^the cell \[1\.0, 0\.5\] has "
                       r"no float midpoint inside it$"):
        composite_bound(f, (0.0, 1.0, 0.5))
    assert calls == []


def test_an_interval_whose_width_overflows_is_refused():
    # b - a = inf made the points a + i * inf: nan and inf
    for use in (lambda a, b: uniform_division(a, b, 4),
                lambda a, b: DerivEndpoints(1.0, 1.0, a, b),
                lambda a, b: integrate_adaptive(math.exp, a, b, 1e-9)):
        with pytest.raises(BadInterval, match=r"need a finite b - a, got "
                           r"\[-1e\+308, 1e\+308\]$"):
            use(-1e308, 1e308)
    assert uniform_division(-8e307, 8e307, 2) == (-8e307, 0.0, 8e307)


def test_non_uniform_points_are_accepted():
    # any strictly increasing sequence is a division, ints and lists too
    f = parse("exp(x)")
    points = [0, 0.5, 2]
    result = composite_bound(f, points)
    assert len(result.interval_bounds) == 2
    assert result.f3 == pytest.approx([math.exp(x) for x in points],
                                      rel=1e-15)
    want = 0.5 * math.exp(0.25) + 1.5 * math.exp(1.25)
    assert result.midpoint_sum == pytest.approx(want, rel=1e-15)
    assert composite_bound(f, iter(points)) == result


# --------------------------------------------------------------------------
# plain sums
# --------------------------------------------------------------------------

def test_midpoint_sum_single_interval():
    # f(x) = x^3/6 on [0, 1]: one midpoint value is (1/2)^3/6 = 1/48
    result = composite_bound(parse("x^3/6"), uniform_division(0, 1, 1))
    assert result.midpoint_sum == 1.0 / 48.0


def test_corrected_sum_is_exact_on_cubics():
    # the correction (h^3/24) f''(m) integrates cubics exactly
    assert composite_bound(
        parse("x^3/6"), uniform_division(0, 1, 1)).corrected_sum == \
        pytest.approx(1.0 / 24.0, abs=1e-16)
    rng = random.Random(5)
    for _ in range(20):
        c3, c2, c1, c0 = (rng.uniform(-3, 3) for _ in range(4))
        src = f"{c3}*x^3 + {c2}*x^2 + {c1}*x + {c0}"
        a = rng.uniform(-4, 2)
        b = a + rng.uniform(0.5, 3.0)
        exact = sum(c / k * (b ** k - a ** k) for c, k in
                    ((c3, 4), (c2, 3), (c1, 2), (c0, 1)))
        for n in (1, 3, 5):
            got = composite_bound(parse(src),
                                  uniform_division(a, b, n)).corrected_sum
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_midpoint_sum_exp_two_intervals():
    want = 0.5 * (math.exp(0.25) + math.exp(0.75))
    got = composite_bound(parse("exp(x)"),
                          uniform_division(0, 1, 2)).midpoint_sum
    assert got == pytest.approx(want, rel=1e-15)


def test_corrected_sum_exp_single_interval():
    want = 25.0 / 24.0 * math.sqrt(math.e)
    got = composite_bound(parse("exp(x)"),
                          uniform_division(0, 1, 1)).corrected_sum
    assert got == pytest.approx(want, rel=1e-15)


# --------------------------------------------------------------------------
# reference integrator
# --------------------------------------------------------------------------

def test_panel_rule_weights_are_consistent():
    nodes, w_fine, w_coarse = _CC_NODES, _CC_FINE, _CC_COARSE
    assert len(nodes) == 33
    assert math.fsum(w_fine) == pytest.approx(2.0, abs=1e-14)
    assert math.fsum(w_coarse) == pytest.approx(2.0, abs=1e-14)
    assert all(w > 0 for w in w_fine)
    # coarse nodes are the even-indexed fine nodes
    for j in range(0, 33, 2):
        assert nodes[j] == pytest.approx(
            math.cos(math.pi * (j // 2) / 16), abs=1e-15)


def _cc_weights(n: int) -> tuple[float, ...]:
    """Clenshaw-Curtis weights for the n+1 nodes cos(j*pi/n) on [-1, 1].

    Interpolatory weights from Chebyshev moments: expand the interpolant in
    T_k via the discrete cosine transform of type I and integrate it with
    the exact moments (integral of T_k over [-1,1] is 2/(1-k^2) for even k,
    zero for odd k).  n must be even.
    """
    weights = []
    for j in range(n + 1):
        acc = 0.0
        for k in range(0, n + 1, 2):
            moment = 2.0 if k == 0 else 2.0 / (1.0 - k * k)
            edge = 0.5 if (k == 0 or k == n) else 1.0
            acc += edge * moment * math.cos(math.pi * k * j / n)
        w = 2.0 / n * acc
        if j == 0 or j == n:
            w *= 0.5
        weights.append(w)
    return tuple(weights)


def test_panel_rule_literals_are_their_derivation_bit_for_bit():
    derived = (tuple(math.cos(math.pi * j / 32) for j in range(33)),
               _cc_weights(32), _cc_weights(16))
    rule = _CC_NODES, _CC_FINE, _CC_COARSE
    assert [[v.hex() for v in table] for table in rule] == [
        [v.hex() for v in table] for table in derived]


def test_panel_rule_polynomial_exactness():
    # one panel integrates x^k exactly for k well past the coarse rule's 17
    nodes, w_fine = _CC_NODES, _CC_FINE
    for k in range(0, 30):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        fine = math.fsum(w * t ** k for w, t in zip(w_fine, nodes))
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
    assert reference_integral(parse(source), a, b) == pytest.approx(
        exact, rel=5e-13, abs=5e-14)


def test_reference_integral_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(quadrature, "DEFAULT_EVAL_BUDGET", 20)
    with pytest.raises(NonConvergence) as info:
        reference_integral(parse("exp(x)"), 0.0, 1.0)
    assert info.value.evals == 20


def test_integrate_adaptive_handles_large_magnitudes():
    # absolute tolerance below rounding level of the result: the roundoff
    # floor must accept panels instead of bisecting forever
    got = integrate_adaptive(lambda x: 1e8 * math.exp(x), 0.0, 1.0, 1e-13)
    assert got == pytest.approx(1e8 * (math.e - 1.0), rel=1e-14)


@pytest.mark.parametrize("source, b, exact", [
    ("1e308*exp(x/1000)", 0.5,
     lambda: mpmath.mpf(1e308) * 1000 * mpmath.expm1(mpmath.mpf(0.5) / 1000)),
    ("1e308+x", 1.5,
     lambda: mpmath.mpf(1e308) * 1.5 + mpmath.mpf(1.5) ** 2 / 2),
], ids=["exp", "affine"])
def test_reference_integral_near_the_top_of_float_range(source, b, exact):
    # each panel's weighted sum on [-1, 1] overflows before the halving that
    # scales it to the panel, so the sums are formed from halved values
    with mpmath.workdps(40):
        expected = float(exact())
    assert reference_integral(parse(source), 0.0, b) == pytest.approx(
        expected, rel=2 * sys.float_info.epsilon)


def test_reference_integral_beyond_float_range_is_a_domain_error():
    # the integral is 1.6e309; the panels of width 4 cannot halve first
    with pytest.raises(DomainError,
                       match="^reference integral leaves float range$"):
        reference_integral(parse("1e308+x"), 0.0, 16.0)


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
        result = composite_bound(f, d)
        want = math.fsum(
            _independent_interval_bound(math.exp(lo), math.exp(hi), lo, hi)
            for lo, hi in zip(d, d[1:]))
        assert result.certified_bound == pytest.approx(want, rel=1e-11)


def test_composite_single_interval_equals_direct_bound():
    f = parse("exp(x)")
    result = composite_bound(f, uniform_division(0.0, 1.0, 1))
    e = DerivEndpoints(1.0, math.e, 0.0, 1.0)
    assert result.certified_bound == pytest.approx(direct_bound(e), rel=1e-15)


def test_composite_rejects_vanishing_third_derivative():
    with pytest.raises(NonPositiveThirdDerivative) as info:
        composite_bound(parse("x^2"), uniform_division(0.0, 1.0, 2))
    assert info.value.x == 0.0
    # x^4 has f''' = 24x, zero exactly at a division point here
    with pytest.raises(NonPositiveThirdDerivative):
        composite_bound(parse("x^4"), uniform_division(-1.0, 1.0, 2))


def test_composite_rejects_a_subnormal_third_derivative():
    # |f'''(-1.077)| of exp(690*x) is 6.49e-315, below sys.float_info.min
    with pytest.raises(NonPositiveThirdDerivative,
                       match="got subnormal 6.49220045e-315 at x = -1.077$"):
        composite_bound(parse("exp(690*x)"), (-1.077, 1.0))


@pytest.mark.parametrize("source, points, name", [
    ("9e307+x^3", (0.0, 1.0, 2.0), "midpoint_sum"),   # fsum overflows
    ("x^3+1e300*x^2", (-1e3, 1e3), "corrected_sum"),  # h^3 f''(m)/24
    ("1/(x+1e-76)", (0.0, 1e10), "certified_bound"),  # h^4 |f'''(0)|
])
def test_composite_refuses_a_sum_outside_float_range(source, points, name):
    with pytest.raises(DomainError, match=f"^{name} leaves float range$"):
        composite_bound(parse(source), points)


def test_composite_bound_refuses_a_corrected_term_outside_float_range():
    # h^3/24 * f''(m) = 8e9/24 * 2e300 overflows to inf in the sum, while
    # h ** 3 of h = 1e103 raises, named with its h
    with pytest.raises(DomainError,
                       match="^corrected_sum leaves float range$"):
        composite_bound(parse("x^3+1e300*x^2"), (-1e3, 1e3))
    with pytest.raises(DomainError, match=r"^h\^3 of the corrected midpoint "
                       r"term leaves float range at h = 1e\+103$"):
        composite_bound(parse("x^3"), (0.0, 1e103))


def test_certified_bound_decreases_under_doubling():
    f = parse("exp(2*x)")
    previous = None
    for n in (1, 2, 4, 8, 16):
        got = composite_bound(f,
                              uniform_division(-1.0, 1.0, n)).certified_bound
        if previous is not None:
            assert got < previous
        previous = got


def test_max_interval_bound_ratio_for_coarse_doubling():
    # the largest per-interval bound drops by 12x-14x from n=1 to n=2
    f = parse("exp(x)")
    one = composite_bound(f, uniform_division(0.0, 1.0, 1))
    two = composite_bound(f, uniform_division(0.0, 1.0, 2))
    ratio = max(two.interval_bounds) / max(one.interval_bounds)
    assert 1.0 / 14.0 <= ratio <= 1.0 / 12.0


def test_max_interval_bound_scales_as_h4_once_resolved():
    f = parse("exp(x)")
    for n in (8, 16, 32):
        coarse = composite_bound(f, uniform_division(0.0, 1.0, n))
        fine = composite_bound(f, uniform_division(0.0, 1.0, 2 * n))
        ratio = max(coarse.interval_bounds) / max(fine.interval_bounds)
        assert 14.0 <= ratio <= 16.5


def test_composite_per_interval_records(capsys):
    f = parse("exp(x)")
    d = uniform_division(0.0, 1.0, 3)
    result = composite_bound(f, d)
    assert len(result.f3) == 4 and len(result.interval_bounds) == 3
    assert result.certified_bound == math.fsum(result.interval_bounds)
    assert main(["integrate", "--f", "exp(x)", "--a", "0", "--b", "1",
                 "--n", "3", "--per-interval"]) == 0
    rows = json.loads(capsys.readouterr().out)["intervals"]
    assert len(rows) == 3
    for row, lo, hi, bound in zip(rows, d, d[1:], result.interval_bounds):
        assert list(row) == ["lo", "hi", "bound", "k_ratio", "m_ratio"]
        assert (row["lo"], row["hi"]) == (lo, hi)
        assert row["bound"] == bound > 0.0
        assert row["k_ratio"] == pytest.approx(math.exp(lo - hi), rel=1e-14)
        assert row["m_ratio"] == pytest.approx(math.exp(hi - lo), rel=1e-14)


def _integrate(expression: str, a: float, b: float, n: int) -> dict:
    return cmd_integrate(resolve("integrate", {"f": expression, "a": a,
                                               "b": b, "n": n}))


def test_midpoint_bound_covers_the_midpoint_error_of_exp_at_n64():
    # the report used to print the certified bound, 3.41e-8, here; the
    # midpoint sum is off by 1.748e-5 (mpmath, 40 digits)
    doc = _integrate("exp(x)", 0.0, 1.0, 64)
    with mpmath.workdps(40):
        error = abs(mpmath.e - 1 - mpmath.mpf(doc["midpoint_sum"]))
    assert error == pytest.approx(1.748e-5, rel=1e-3)
    assert doc["certified_bound"] < 3.5e-8
    assert error <= doc["midpoint_bound"] == pytest.approx(1.7513e-5,
                                                           rel=1e-4)
    assert doc["midpoint_bound"] == math.nextafter(
        doc["certified_bound"]
        + abs(doc["corrected_sum"] - doc["midpoint_sum"]), math.inf)
    # odd cubic on a symmetric interval: f''(m) == 0, so the two sums agree
    # and the midpoint bound is the certified bound, one step up
    cubic = _integrate("x^3", -1.0, 1.0, 1)
    assert cubic["midpoint_sum"] == cubic["corrected_sum"]
    assert cubic["midpoint_bound"] == math.nextafter(
        cubic["certified_bound"], math.inf)


# Families with log-convex |f'''| on x >= 0, the range of their constant c,
# and their antiderivative in mpmath.  The parser reads "-c*x" as (-c)*x,
# so exp(-{c}*x) is exp(k x) at the double k = -c.
_MIDPOINT_FAMILIES = {
    "exp({c}*x)": (0.5, 4.0, lambda c, x: mpmath.exp(c * x) / c),
    "exp(-{c}*x)": (0.5, 4.0, lambda c, x: -mpmath.exp(-c * x) / c),
    "exp(x)+exp({c}*x)": (1.5, 4.0, lambda c, x: (mpmath.exp(x)
                                                  + mpmath.exp(c * x) / c)),
    "x^3+exp({c}*x)": (0.5, 3.0, lambda c, x: (x ** 4 / 4
                                               + mpmath.exp(c * x) / c)),
    "1/(x+{c})": (0.2, 2.0, lambda c, x: mpmath.log(x + c)),
    "log(x+{c})": (0.2, 2.0, lambda c, x: ((x + c) * mpmath.log(x + c)
                                           - (x + c))),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_MIDPOINT_FAMILIES)),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.5, max_value=2.0),
       st.integers(min_value=1, max_value=256))
@example(template="exp({c}*x)", share=1.0, a=0.0, width=1.0, n=256)
@example(template="log(x+{c})", share=0.0, a=1.0, width=2.0, n=1)
def test_midpoint_bound_covers_midpoint_error_on_log_convex_families(
        template, share, a, width, n):
    lo, hi, antiderivative = _MIDPOINT_FAMILIES[template]
    c = f"{lo + share * (hi - lo):.4g}"
    b = a + width
    doc = _integrate(template.format(c=c), a, b, n)
    with mpmath.workdps(40):
        cv, av, bv = (mpmath.mpf(float(v)) for v in (c, a, b))
        truth = antiderivative(cv, bv) - antiderivative(cv, av)
        error = abs(truth - mpmath.mpf(doc["midpoint_sum"]))
    assert error <= doc["midpoint_bound"]


def test_composite_soundness_spot_check():
    for source, a, b in (("exp(x)", 0.0, 1.0), ("1/x", 1.0, 2.0),
                         ("exp(2*x)", -1.0, 1.0)):
        f = parse(source)
        truth = reference_integral(f, a, b)
        for n in (1, 2, 4, 8):
            result = composite_bound(f, uniform_division(a, b, n))
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
# certify: the corrected midpoint rule in Euler-Maclaurin form
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 4])
def test_the_constants_are_the_bernoulli_integrals(p):
    # A_p = (1/p!) * integral over [0, 1] of |B_p(t)|, split at B_p's roots
    with mpmath.workdps(40):
        coefficients = mpmath.taylor(lambda t: mpmath.bernpoly(p, t), 0, p)
        roots = sorted(mpmath.re(r) for r in mpmath.polyroots(
            coefficients[::-1], maxsteps=100, extraprec=100)
            if abs(mpmath.im(r)) < 1e-30 and 0 < mpmath.re(r) < 1)
        exact = mpmath.quad(lambda t: abs(mpmath.bernpoly(p, t)),
                            [0, *roots, 1]) / mpmath.factorial(p)
        assert quadrature._A[p] == float(exact)
    assert quadrature._A[2] == math.sqrt(3) / 54


def test_certify_doubles_until_tolerance():
    # n is the least power of two whose bound meets tol, where a doubling
    # would stop.  8x^3 has f'''' = 0, so p = 2, TV = |f''(1) - f''(0)| = 48
    # and w_2(n) = A_2 48 / n^3: 3.0e-3 at n = 8 and 3.8e-4 at n = 16
    f = parse("8*x^3")
    result = certify(f, 0.0, 1.0, 1e-3)
    assert isinstance(result, Certificate)
    assert (result.n, result.order) == (16, 2)
    assert result.corrected_sum == 2.0   # S_2 is exact for a cubic
    with mpmath.workdps(40):   # rounding only raised the bound
        exact = mpmath.sqrt(3) / 54 * 48 / 16 ** 3
        assert exact <= result.certified_bound <= exact * (1 + 1e-14)
    with pytest.raises(ToleranceUnreachable) as info:
        certify(f, 0.0, 1.0, 1e-3, n_max=15)
    assert info.value.n_final == 8 and info.value.best_bound > 1e-3


def test_certify_exp_to_microtolerance():
    result = certify(parse("exp(x)"), 0.0, 1.0, 1e-6)
    assert (result.n, result.order) == (8, 4)
    assert result.certified_bound <= 1e-6
    with mpmath.workdps(40):
        error = abs(mpmath.e - 1 - mpmath.mpf(result.corrected_sum))
        assert error <= result.certified_bound


def test_certify_tolerance_unreachable():
    # the bound at the largest power of two up to n_max, which certify
    # prints where tol is that bound
    f = parse("exp(x)")
    for n_max in (16, 31):
        with pytest.raises(ToleranceUnreachable) as info:
            certify(f, 0.0, 1.0, 1e-12, n_max=n_max)
        err = info.value
        assert type(err) is ToleranceUnreachable and err.n_final == 16
        result = certify(f, 0.0, 1.0, err.best_bound)
        assert (result.n, result.certified_bound) == (16, err.best_bound)
        assert err.best_bound > 1e-12


def test_certify_rejects_bad_tolerance():
    with pytest.raises(BadInterval):
        certify(parse("exp(x)"), 0.0, 1.0, 0.0)


@pytest.mark.parametrize("n_max", [0, -1])
def test_certify_refuses_n_max_below_one(n_max):
    # no n could run, so there is no bound to report
    with pytest.raises(BadInterval, match=f"n_max = {n_max}"):
        certify(parse("exp(x)"), 0.0, 1.0, 1e-3, n_max=n_max)


# --------------------------------------------------------------------------
# certify: the rounding floor, the jets it evaluates, divisions
# --------------------------------------------------------------------------

def test_certify_stops_at_the_rounding_floor():
    # ulp(|I|) = 16384 for exp(50x) on [0, 1]: the bound meets tol = 1000
    # at n = 32768, below n_max, but no double near |I| carries it
    with pytest.raises(BelowRoundingFloor) as info:
        certify(parse("exp(50*x)"), 0.0, 1.0, 1000.0)
    err = info.value
    assert isinstance(err, ToleranceUnreachable)   # the CLI's exit 2
    assert (err.n_final, err.floor) == (32768, 8192.0)
    assert err.tol == 1000.0 < err.floor
    assert 1000.0 / 32 < err.best_bound <= 1000.0
    assert str(err) == ("tol 1000.0 is below the rounding floor 8192.0 of "
                        "the corrected sum at n = 32768; no certified bound "
                        "can reach it")


def _counting_jets(monkeypatch) -> list[float]:
    """Every point at which certify or composite_bound evaluates a jet."""
    calls = []

    def counting(compile_real):
        def compile_counted(f, *order):
            fn = compile_real(f, *order)

            def counted(x):
                calls.append(x)
                return fn(x)
            return counted
        return compile_counted
    for name in ("compile_jet", "compile_f3"):
        monkeypatch.setattr(quadrature, name,
                            counting(getattr(quadrature, name)))
    return calls


def _midpoints(points):
    return [0.5 * (lo + hi) for lo, hi in zip(points, points[1:])]


def test_certify_evaluates_each_level_s_points_and_midpoints_once(
        monkeypatch):
    # one level: the jets at a and b, at order 4 (again at 3 where f'''' is
    # not finite at one; 8x^3, whose f'''' is 0 at both, keeps its order-4
    # ends), f at (a + b)/2 for the rounding floor, then f once at each of
    # its n midpoints
    calls = _counting_jets(monkeypatch)
    for f, a, b, tol, ends in (
            ("8*x^3", 0.0, 1.0, 1e-6, [0.0, 1.0]),
            ("exp(x)", 0.0, 1.0, 1e-6, [0.0, 1.0]),
            ("exp(690*x)", -1.0, 1.0, 1e297, [-1.0, 1.0] * 2)):
        calls.clear()
        result = certify(parse(f), a, b, tol)
        assert result.order == (4 if f == "exp(x)" else 2)
        assert calls == [*ends, 0.5 * (a + b),
                         *_midpoints(uniform_division(a, b, result.n))]


def test_rounding_floor_reads_the_level_jets(monkeypatch):
    # where S_1 and w_1 leave it open, the floor is decided on the one sum:
    # no midpoint is evaluated again
    calls = _counting_jets(monkeypatch)
    with pytest.raises(BelowRoundingFloor) as info:
        certify(parse("exp(50*x)"), 0.0, 1.0, 1000.0)
    n = info.value.n_final
    assert calls == [0.0, 1.0, 0.5,
                     *_midpoints(uniform_division(0.0, 1.0, n))]


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


def _em_sums(f, points):
    """The midpoint sum and S_4 on ``points``, formed as certify forms
    them, from the order-4 jets."""
    jet, h = compile_jet(f, 4), (points[-1] - points[0]) / (len(points) - 1)
    ja, jb = jet(points[0]), jet(points[-1])
    cells = [(hi - lo) * jet(m)[0]
             for lo, hi, m in zip(points, points[1:], _midpoints(points))]
    c1, c3 = h * h / 24.0, 7.0 * (h * h) * (h * h) / 5760.0
    ends = [c1 * jb[1], -c1 * ja[1], -c3 * jb[3], c3 * ja[3]]
    return math.fsum(cells), math.fsum(cells + ends)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FAMILIES),
       st.floats(min_value=-6.0, max_value=6.0).filter(lambda c: abs(c) > 0.1),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=-9.0, max_value=-4.0))
@example(family="exp({c}*x)", c=1.0, d=1.0, a=0.0, width=1.0, log_rel=-9.0)
# b - a is 0.06249999999999989, below width = 0.0625
@example(family="exp({c}*x)", c=3.0, d=1.0, a=0.99999, width=0.0625,
         log_rel=-4.0)
def test_certify_result_is_the_euler_maclaurin_sum_at_n_final(
        family, c, d, a, width, log_rel):
    # the two exponentials share a sign, so one class proves their sum;
    # tolerances of 1e-9 of |I| and up sit far above the rounding floor
    f = parse(family.format(c=c, d=math.copysign(d, c), s=1.0 + d))
    b = a + width
    tol = 10.0 ** log_rel * abs(reference_integral(f, a, b))
    result = certify(f, a, b, tol, n_max=2 ** 14)
    n = result.n
    assert n & (n - 1) == 0 and result.order == 4
    assert result.certified_bound <= tol
    if n > 1:   # n is the least power of two that meets tol
        with pytest.raises(ToleranceUnreachable):
            certify(f, a, b, tol, n_max=n - 1)
    points = uniform_division(a, b, n)
    assert (result.midpoint_sum, result.corrected_sum) == _em_sums(f, points)
    jet = compile_jet(f, 4)
    with mpmath.workdps(40):   # rounding only raised the bound
        # the cells of [a, b] are (b - a)/n wide: a + width rounds, so b - a
        # may sit ulps below width
        tv = abs(mpmath.mpf(jet(b)[4]) - jet(a)[4])
        h = (mpmath.mpf(b) - a) / n
        assert result.certified_bound >= quadrature._A[4] * tv * h ** 5


def _jittered_division(a, b, n):
    """uniform_division with its interior points one ulp up where log2(n)
    is odd, so no level from n = 4 on nests the one before."""
    points = list(uniform_division(a, b, n))
    if n.bit_length() % 2 == 0:
        points[1:-1] = [math.nextafter(x, math.inf) for x in points[1:-1]]
    return tuple(points)


def test_certify_evaluates_every_point_when_levels_do_not_nest(monkeypatch):
    # certify sums the one division that uniform_division returns: where
    # its points are jittered off every other level's, it evaluates each of
    # its midpoints once, and its midpoint_sum is theirs
    monkeypatch.setattr(quadrature, "uniform_division", _jittered_division)
    calls = _counting_jets(monkeypatch)
    f = parse("exp(x)+exp(2*x)")
    result = certify(f, 0.1, 0.8, 3e-10)   # n = 32
    points = _jittered_division(0.1, 0.8, result.n)
    assert points != uniform_division(0.1, 0.8, result.n)
    assert calls == [0.1, 0.8, 0.5 * (0.1 + 0.8), *_midpoints(points)]
    assert (result.midpoint_sum, result.corrected_sum) == _em_sums(f, points)


# Antiderivatives of families that classify_cm proves, in mpmath
_PROVED = {
    "exp({c}*x)": (lambda c, x: mpmath.exp(c * x) / c, (4.0, 40.0)),
    "exp(-{c}*x)": (lambda c, x: -mpmath.exp(-c * x) / c, (4.0, 40.0)),
    "1/(x+{c})": (lambda c, x: mpmath.log(x + c), (0.01, 0.5)),
    "log(x+{c})": (lambda c, x: (x + c) * mpmath.log(x + c) - x,
                   (0.001, 0.1)),
    "sqrt(x+{c})": (lambda c, x: 2 * (x + c) ** 1.5 / 3, (0.001, 0.1)),
    "(x+{c})^-2.5": (lambda c, x: -2 * (x + c) ** -1.5 / 3, (0.05, 0.5)),
    "x^3+exp({c}*x)": (lambda c, x: x ** 4 / 4 + mpmath.exp(c * x) / c,
                       (4.0, 12.0)),
    "exp(x)+exp(40*x)": (lambda c, x: mpmath.exp(x) + mpmath.exp(40 * x) / 40,
                         (1.0, 1.0)),
}


def _order_4_fails(compile_jet):
    """compile_jet, but an order-4 jet that is never finite: certify then
    falls back to p = 2."""
    def compile_without_order_4(f, order):
        def not_finite(x):
            raise DomainError("result is not finite", expr_text="f", x=x)
        return not_finite if order == 4 else compile_jet(f, order)
    return compile_without_order_4


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_PROVED)), st.floats(0.0, 1.0),
       st.sampled_from([2, 4]))
def test_the_bound_holds_against_mpmath_at_every_n(family, t, p):
    # |I - S_p| <= w_p for p = 2 and 4 at n = 1 to 1024; the tolerance
    # w_p(1) / 2^(k (p + 1)) is exactly the bound at n = 2^k
    antiderivative, (lo, hi) = _PROVED[family]
    c = lo * (hi / lo) ** t
    f = parse(family.format(c=repr(c)))
    a, b = 0.0, 1.0
    with mpmath.workdps(40):
        exact = antiderivative(mpmath.mpf(c), b) - antiderivative(
            mpmath.mpf(c), a)
    with pytest.MonkeyPatch.context() as patch:
        if p == 2:
            patch.setattr(quadrature, "compile_jet",
                          _order_4_fails(quadrature.compile_jet))
        first = certify(f, a, b, sys.float_info.max)
        assert (first.n, first.order) == (1, p)
        for k in range(11):
            result = certify(f, a, b, math.ldexp(first.certified_bound,
                                                 -k * (p + 1)))
            assert (result.n, result.order) == (2 ** k, p)
            with mpmath.workdps(40):
                error = abs(exact - mpmath.mpf(result.corrected_sum))
                assert error <= result.certified_bound, (k, error)


def test_a_tol_far_below_the_floor_is_refused_before_the_sum(monkeypatch):
    # n = 524288 meets 1e-30 on exp(x), but S_1 and w_1 = 1.4e-3 show every
    # sum within tol of e - 1 to be above 1.7, whose half ulp is 2^-53: the
    # ends, f at 0.5, and no sum
    calls = _counting_jets(monkeypatch)
    with pytest.raises(BelowRoundingFloor) as info:
        certify(parse("exp(x)"), 0.0, 1.0, 1e-30)
    assert calls == [0.0, 1.0, 0.5]
    assert (info.value.n_final, info.value.floor) == (524288, 2.0 ** -53)


@pytest.mark.parametrize("n_max", [1, 16, 4096, 2 ** 20])
def test_the_floor_is_named_before_the_cap(n_max):
    # no n reaches 1e-30 on exp(x), so the refusal names the floor whatever
    # the cap, with the bound at the largest power of two allowed; 1e-12 is
    # above the floor, and n = 16 too few cells for it
    f = parse("exp(x)")
    with pytest.raises(BelowRoundingFloor) as info:
        certify(f, 0.0, 1.0, 1e-30, n_max)
    err = info.value
    assert err.floor == 1.1102230246251565e-16
    assert err.n_final == min(n_max, 524288)
    with pytest.raises(ToleranceUnreachable) as info:
        certify(f, 0.0, 1.0, 1e-12, 16)
    assert type(info.value) is ToleranceUnreachable
    assert info.value.n_final == 16


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_PROVED)), st.floats(0.0, 1.0),
       st.floats(-1.5, 1.0))
def test_a_floor_refusal_is_one_the_sum_would_make(family, t, log_ulps):
    # tol from 1/30 to 10 ulps of |I|: wherever certify refuses, before
    # the sum or after it, the sum at n_final is below its rounding floor
    lo, hi = _PROVED[family][1]
    f = parse(family.format(c=repr(lo * (hi / lo) ** t)))
    tol = math.ulp(reference_integral(f, 0.0, 1.0)) * 10.0 ** log_ulps
    try:
        certify(f, 0.0, 1.0, tol)
    except DomainError:   # the bound below the floor, as sums are refused
        pass
    except BelowRoundingFloor as err:
        corrected = _em_sums(f, uniform_division(0.0, 1.0, err.n_final))[1]
        assert 2.0 * tol < math.ulp(corrected)
        assert err.floor <= math.ulp(corrected) / 2


def test_the_baseline_job_is_one_short_pass():
    # the job that took 19 doublings to n = 262144 with chi1
    f, a, b = parse("exp(10*x)"), 0.1, 1.3
    result = certify(f, a, b, 1e-10)
    assert (result.n, result.order) == (4096, 4)
    assert result.certified_bound <= 1e-10
    with mpmath.workdps(50):
        exact = (mpmath.exp(10 * mpmath.mpf(b))
                 - mpmath.exp(10 * mpmath.mpf(a))) / 10
        assert abs(exact - mpmath.mpf(result.corrected_sum)) <= \
            result.certified_bound


@settings(max_examples=150, deadline=None, derandomize=True)
@given(accepted(), st.sampled_from([1, 4, 64]), st.floats(-10.0, -2.0))
def test_the_papers_certificate_and_certifys_intersect(case, n, u):
    # both hold the integral wherever the hypothesis is proved, so
    # [S - B, S + B] and [S_p - w, S_p + w] share it; exact rationals, so
    # no float subtraction rounds a gap away
    source, a, b = case
    f = parse(source)
    assume(proved_block(f, a, b) is not None)
    try:
        paper = composite_bound(f, uniform_division(a, b, n))
        result = certify(f, a, b, 10.0 ** u * abs(paper.corrected_sum))
    except Hh3Error:
        assume(False)
    s, w = Fraction(paper.corrected_sum), Fraction(paper.certified_bound)
    sp, wp = Fraction(result.corrected_sum), Fraction(result.certified_bound)
    assert max(s - w, sp - wp) <= min(s + w, sp + wp), (source, a, b, n, u)
