"""Composite corrected-midpoint quadrature with certified error bounds.

A division a = x_0 < x_1 < ... < x_n = b, passed around as the tuple of its
points, induces the two sums

    midpoint:   sum_i h_i f(m_i)
    corrected:  sum_i h_i f(m_i) + (h_i^3 / 24) f''(m_i)

with h_i = x_{i+1} - x_i and m_i the subinterval midpoints.  When |f'''| is
log-convex on [a, b], which :func:`require_proof` asks of the tree, and
positive at every division point, each subinterval contributes the bound
chi1 of :mod:`hh3.bounds` (scaled by h_i, turning the mean-value bound into
an integral one), and their sum certifies the corrected sum:

    | integral - corrected_sum |  <=  certified_bound.

``certify`` sums the rule in Euler-Maclaurin form, an extension that does
not rest on the paper's theorem: with M the midpoint sum on n cells of
width h, S_4 = M + h^2/24 (f'(b) - f'(a)) - 7 h^4/5760 (f'''(b) - f'''(a))
and S_2 without its last term, |I - S_p| <= A_p h^(p+1) TV(f^(p)) (Davis
and Rabinowitz, *Methods of Numerical Integration*, 1984, 2.9).

The reference integrator used for truth values and residual checks is an
adaptive bisection scheme whose panel rule is a nested Clenshaw-Curtis pair
(17 and 33 points; the coarse nodes are the even-indexed fine ones, so a
panel costs 33 evaluations total).  A panel is accepted when the difference
of the two rules, a Richardson-style estimate that in practice overstates
the fine rule's error, fits within the panel's pro-rata share of the
tolerance or falls below a 10-ulp floor proportional to the panel's
absolute integral; the floor stops the bisection from chasing rounding
noise when a tight absolute tolerance meets a large integrand.
"""

import math
import operator
import sys
from collections.abc import Callable, Iterable, Sequence

from . import bounds as _bounds
from .errors import BadInterval, BelowRoundingFloor, DomainError, \
    HypothesisNotProved, NonConvergence, ToleranceUnreachable, require_f3, \
    require_finite, require_interval
# eval_jet3 and evaluate stay attributes here for bench/tracer.py to wrap.
from .expr import (Node, compile_f3, compile_jet, eval_jet3,  # noqa: F401
                   evaluate)
from .monotone import proved_block
from .record import Record

__all__ = [
    "QuadResult", "Certificate", "uniform_division",
    "corrected_midpoint_sum", "composite_bound", "reference_integral",
    "integrate_adaptive", "identity_residual", "certify", "require_proof",
    "require_above_floor", "DEFAULT_EVAL_BUDGET", "MAX_SUBINTERVALS",
]

DEFAULT_EVAL_BUDGET = 1_000_000

#: The most subintervals the command line accepts, and certify's default
#: cap: a per-interval report takes 85 MiB at 2^16, so over 1 GB at 2^20.
MAX_SUBINTERVALS = 2 ** 20


# --------------------------------------------------------------------------
# Divisions: tuples of points, each cell holding its float midpoint
# --------------------------------------------------------------------------

def uniform_division(a: float, b: float, n: int) -> tuple[float, ...]:
    """The n + 1 points of n equal subintervals of [a, b]; b is exact."""
    require_interval(a, b)
    if n < 1:
        raise BadInterval(f"need at least one subinterval, got n = {n}")
    h = (b - a) / n
    return (*(a + i * h for i in range(n)), b)


def _cells(points: Iterable[float]) -> tuple[tuple[float, ...], list[float]]:
    """The points of a division and its cells' midpoints 0.5 * (lo + hi),
    once each is a float strictly inside its cell (so the points are finite
    and strictly increasing), else BadInterval at the first cell that fails,
    before any value of f."""
    points, mids = tuple(points), []
    for lo, hi in zip(points, points[1:]):
        if not lo < (m := 0.5 * (lo + hi)) < hi:
            raise BadInterval(  # where m is lo or hi, the cells are too narrow
                f"[{points[0]!r}, {points[-1]!r}] is too narrow for "
                f"{len(points) - 1} cells" if lo <= hi and math.isfinite(m)
                else f"the cell [{lo!r}, {hi!r}] has no float midpoint "
                "inside it")
        mids.append(m)
    if not mids:
        raise BadInterval("a division needs at least two points")
    return points, mids


def _midpoint_pass(jet: Callable, points: tuple, mids: list) -> tuple:
    """One pass over the cells, left to right: the terms of both sums."""
    plain, corrected = [], []
    try:
        for lo, m, hi in zip(points, mids, points[1:]):
            h, v = hi - lo, jet(m)
            plain.append(hf := h * v[0])
            corrected.append(hf + h ** 3 / 24.0 * v[2])
    except OverflowError:  # of h ** 3: a jet raises DomainError instead
        raise DomainError(f"h^3 of the corrected midpoint term leaves float "
                          f"range at h = {h!r}") from None
    return plain, corrected


def corrected_midpoint_sum(f: Node, points: Iterable[float]) -> float:
    return _finite_sum("corrected_sum",
                       _midpoint_pass(compile_jet(f, 3), *_cells(points))[1])


# --------------------------------------------------------------------------
# Composite certified bound
# --------------------------------------------------------------------------

class QuadResult(Record):
    __slots__, _fields = (), (
        "midpoint_sum", "corrected_sum",  # floats
        "certified_bound",  # float: fsum of interval_bounds
        "f3",               # floats: |f'''| at each division point
        "interval_bounds",  # floats: one bound per subinterval
        "points")           # floats: the division


def composite_bound(f: Node, points: Iterable[float]) -> QuadResult:
    """Corrected-midpoint sums plus a certified bound on the corrected one.

    ``points`` is any division of [a, b] whose cells hold their midpoints,
    such as :func:`uniform_division` returns.  Each subinterval's bound is
    chi1: no exponent lets chi2 or chi3 beat it (see :mod:`hh3.bounds`).
    Each call evaluates its own points: f''' alone at each division point,
    where |f'''| must be positive and normal, and the jet at each midpoint.
    Errors surface in this order: the points and midpoints, |f'''| at each
    point, the jet at each midpoint, each subinterval's ratios, then the
    sums and the bound, which must be finite.
    """
    points, mids = _cells(points)
    f3_of = compile_f3(f)  # require_f3's test inline: a call per point is slow
    f3 = [m if 2.2250738585072014e-308 <= (m := abs(f3_of(x)))
          <= 1.7976931348623157e308 else require_f3(x, m) for x in points]
    plain, corrected = _midpoint_pass(compile_jet(f, 3), points, mids)
    interval_bounds = _bounds.interval_chi1(   # the widths h = hi - lo
        f3, map(operator.sub, points[1:], points))

    return QuadResult(
        midpoint_sum=_finite_sum("midpoint_sum", plain),
        corrected_sum=_finite_sum("corrected_sum", corrected),
        certified_bound=_finite_sum("certified_bound", interval_bounds),
        f3=tuple(f3),
        interval_bounds=interval_bounds,
        points=points,
    )


def require_proof(f: Node, a: float, b: float) -> dict:
    """monotone.proved_block's proof that |f'''| is log-convex on [a, b],
    else HypothesisNotProved: the one test that a bound may be certified,
    which :func:`composite_bound` leaves to its callers."""
    if (proof := proved_block(f, a, b)) is None:
        raise HypothesisNotProved(
            f"no proof was found that f^(j), j <= 3, is plus or minus a "
            f"completely monotone function on [{a!r}, {b!r}], so no bound "
            "is certified there; sampling proves nothing")
    return proof


def _below_floor(bound: float, value: float) -> bool:
    """Whether ``bound`` is below half an ulp of the double ``value``, which
    stands for every real that close; exact where half an ulp is 0.0."""
    return 2.0 * bound < math.ulp(value)


def require_above_floor(result: QuadResult) -> QuadResult:
    """``result`` once its bound is not below the rounding floor of its
    corrected sum, else DomainError: the one test that a result may be
    printed, which :func:`composite_bound` leaves to its callers."""
    bound, ulp = result.certified_bound, math.ulp(result.corrected_sum)
    if not _below_floor(bound, result.corrected_sum):
        return result
    floor = repr(ulp / 2) if ulp / 2 else f"{ulp!r}/2"  # 5e-324 / 2 is 0.0
    raise DomainError(f"certified_bound {bound!r} is below the rounding "
                      f"floor {floor} of corrected_sum, so no float sum is "
                      "certified")


def _finite_sum(name: str, terms: Sequence[float]) -> float:
    """fsum of ``terms``, once it is finite: DomainError naming the sum
    where a term or a partial sum leaves float range."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a partial sum overflows, inf - inf
        total = math.nan
    return require_finite(name, total)


# --------------------------------------------------------------------------
# Reference integrator
# --------------------------------------------------------------------------

# The panel rule: the nodes cos(j*pi/32) on [-1, 1], and the Clenshaw-Curtis
# weights of all 33 and of the 17 even-indexed ones, from the exact moments
# of the Chebyshev interpolant (all positive; tests/test_quadrature.py
# derives them again).
_CC_NODES = (
    1.0, 0.9951847266721969, 0.9807852804032304, 0.9569403357322088,
    0.9238795325112867, 0.881921264348355, 0.8314696123025452,
    0.773010453362737, 0.7071067811865476, 0.6343932841636455,
    0.5555702330196023, 0.4713967368259978, 0.38268343236508984,
    0.29028467725446233, 0.19509032201612833, 0.09801714032956077,
    6.123233995736766e-17, -0.09801714032956065, -0.1950903220161282,
    -0.29028467725446216, -0.3826834323650897, -0.4713967368259977,
    -0.555570233019602, -0.6343932841636454, -0.7071067811865475,
    -0.773010453362737, -0.8314696123025453, -0.8819212643483549,
    -0.9238795325112867, -0.9569403357322088, -0.9807852804032304,
    -0.9951847266721968, -1.0)
_CC_FINE = (
    0.000977517106549366, 0.009393197962955013, 0.01923424513268115,
    0.02845791667723369, 0.03759434191404721, 0.04626276283775175,
    0.054555016303980325, 0.06227210954529399, 0.06942757563043547,
    0.07588380044138848, 0.0816348176549385, 0.08657753844182742,
    0.09070611286772098, 0.09394324443876872, 0.09629232594548819,
    0.09769818820805556, 0.0981785777817683, 0.09769818820805558,
    0.09629232594548819, 0.09394324443876871, 0.09070611286772098,
    0.08657753844182745, 0.08163481765493853, 0.07588380044138851,
    0.06942757563043547, 0.062272109545294, 0.054555016303980304,
    0.046262762837751756, 0.037594341914047216, 0.0284579166772337,
    0.019234245132681176, 0.009393197962955048, 0.000977517106549366)
_CC_COARSE = (
    0.003921568627450983, 0.037368702837205614, 0.07548233154315184,
    0.10890555258189094, 0.13895646836823308, 0.16317266428170332,
    0.18147378423649335, 0.19251386461292566, 0.1964101258218905,
    0.19251386461292566, 0.18147378423649335, 0.16317266428170335,
    0.13895646836823308, 0.10890555258189091, 0.07548233154315184,
    0.03736870283720567, 0.003921568627450983)


_ROUNDOFF_ULPS = 10.0 * sys.float_info.epsilon

#: No panel is accepted above this bisection depth, so every integral sees
#: at least four panels.  Guards against features narrow enough to slip
#: between the first panel's nodes and fool the error estimate.
_MIN_DEPTH = 2


def integrate_adaptive(fn: Callable[[float], float], a: float, b: float,
                       tol: float) -> float:
    """Adaptive bisection driver around the nested panel rule.

    Accepts a panel when |fine - coarse| fits the panel's width-proportional
    share of ``tol`` (or its rounding floor); otherwise bisects.  Panels are
    processed left to right and the accepted values are fsum-ed in that
    order, so results are bitwise deterministic.  Raises
    :class:`NonConvergence` once more than DEFAULT_EVAL_BUDGET evaluations
    would be needed, or as soon as a panel to bisect has nodes that are not
    distinct floats: its rule difference is then rounding, which no halving
    shrinks.  A sum beyond float range, of a panel as
    :func:`_panel_rules` forms it or of the panels, is a DomainError.
    """
    require_interval(a, b)
    span = b - a
    stack = [(a, b, 0)]
    pieces: list[float] = []
    evals = 0
    while stack:
        lo, hi, depth = stack.pop()
        if depth < _MIN_DEPTH:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))  # pushed first, popped second
            stack.append((lo, mid, depth + 1))
            continue
        evals += len(_CC_NODES)
        if evals > DEFAULT_EVAL_BUDGET:
            raise NonConvergence(DEFAULT_EVAL_BUDGET)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        xs = [mid + half * t for t in _CC_NODES]
        values = list(map(fn, xs))
        fine, coarse, magnitude = _panel_rules(half, values)
        err = abs(fine - coarse)
        floor = _ROUNDOFF_ULPS * magnitude
        if err <= tol * (hi - lo) / span or err <= floor:
            pieces.append(fine)
        elif len(set(xs)) < len(xs):
            raise NonConvergence(evals, (lo, hi))
        else:
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    return _finite_sum("reference integral", pieces)


def _panel_rules(half: float, values: list[float]) -> tuple[float, ...]:
    """The fine rule, the coarse rule and the fine rule of |f| on a panel of
    half-width ``half`` from its node ``values``: each sum on [-1, 1], then
    halved.  Where a sum overflows, and half < 1, all are formed again from
    the halved values; DomainError where they overflow too."""
    try:
        return (half * math.fsum(map(operator.mul, _CC_FINE, values)),
                half * math.fsum(map(operator.mul, _CC_COARSE, values[::2])),
                half * math.fsum(map(operator.mul, _CC_FINE,
                                     map(abs, values))))
    except OverflowError:
        if half < 1.0:
            return _panel_rules(1.0, [half * v for v in values])
        raise DomainError("reference integral leaves float range") from None


#: The tolerance of every reference integral, near the scheme's trust limit
#: in double precision (1e-14).
_REFERENCE_TOL = 1e-13


def reference_integral(f: Node, a: float, b: float) -> float:
    """High-accuracy integral of an expression, used as ground truth: the
    one integral of f behind every true error, mean and residual."""
    jet = compile_jet(f, 3)
    return integrate_adaptive(lambda x: jet(x)[0], a, b, _REFERENCE_TOL)


# --------------------------------------------------------------------------
# The third-derivative kernel identity behind every bound
# --------------------------------------------------------------------------

def identity_residual(f: Node, a: float, b: float) -> float:
    """Residual of the integral identity that the bounds rest on.

    For three-times differentiable f, with h = b - a and m the midpoint,

        (1/h) * integral(f) - f(m) - (h^2/24) f''(m)
          =  (h^3/96) * ( I1 - I2 )

    where I1 = integral over [0,1] of t^3 f'''(b - t h/2) and I2 likewise at
    a + t h/2.  Both sides are evaluated with the reference integrator at
    tolerance 1e-13 and their difference is returned; it should sit at
    rounding level for any smooth f, log-convex |f'''| or not.
    """
    h = b - a
    m = 0.5 * (a + b)
    mean = reference_integral(f, a, b) / h
    jet = compile_jet(f, 3)
    f0, _, f2, _ = jet(m)
    lhs = mean - f0 - h * h / 24.0 * f2
    f3 = compile_f3(f)

    def kernel_from_b(t: float) -> float:
        return t ** 3 * f3(b - 0.5 * t * h)

    def kernel_from_a(t: float) -> float:
        return t ** 3 * f3(a + 0.5 * t * h)

    i1 = integrate_adaptive(kernel_from_b, 0.0, 1.0, _REFERENCE_TOL)
    i2 = integrate_adaptive(kernel_from_a, 0.0, 1.0, _REFERENCE_TOL)
    try:
        rhs = h ** 3 / 96.0 * (i1 - i2)
    except OverflowError:  # h ** 3 of a width above 5.6e102
        raise DomainError("identity_residual leaves float range") from None
    return lhs - rhs


# --------------------------------------------------------------------------
# Certification: the corrected midpoint rule in Euler-Maclaurin form
# --------------------------------------------------------------------------

#: (1/p!) * integral over [0, 1] of |B_p(t)|, B_p the Bernoulli polynomial
_A = {2: 0.032075014954979206, 4: 8.152730289899203e-4}


class Certificate(Record):  # floats, p (4 or 2), n (a power of 2), the proof
    __slots__, _fields = (), ("midpoint_sum", "corrected_sum",
                              "certified_bound", "order", "n", "log_convexity")


def _em_bound(p: int, width: float, n: int, tv: float) -> float:
    """A_p h^(p+1) TV, h = width / n: 1 + 16 eps outweighs 11 roundings."""
    m, e = math.frexp(width / n)   # so only ldexp underflows, by half an ulp
    try:
        w = math.ldexp(_A[p] * tv * m ** (p + 1)
                       * (1.0 + 16.0 * sys.float_info.epsilon), e * (p + 1))
    except OverflowError:
        return math.inf
    return w if w >= sys.float_info.min else math.nextafter(w, math.inf)


def certify(f: Node, a: float, b: float, tol: float,
            n_max: int = MAX_SUBINTERVALS) -> Certificate:
    """S_p on the least power of two n of cells whose bound meets ``tol``,
    given :func:`require_proof`'s (else HypothesisNotProved): then f'' and
    f'''' are monotone, TV the endpoint difference plus 4 ulps of the larger
    end.  p is 4, or 2 where f'''' is 0 at both ends or not finite at one.
    Before any of the n midpoints, n > ``n_max`` is ToleranceUnreachable,
    tol below a floor that S_1 and w_1 show BelowRoundingFloor, a midpoint
    off its cell BadInterval; after the sum, tol < ulp(S)/2 is too.  The
    bound omits the rounding of jets, points and sum, as composite_bound's."""
    if not (math.isfinite(tol) and tol > 0.0 and n_max >= 1):
        raise BadInterval(f"need a positive tolerance and at least one "
                          f"subinterval, got tol = {tol!r}, n_max = {n_max}")
    require_interval(a, b)
    proof = require_proof(f, a, b)
    try:   # p = 2 where f'''' is 0 at both ends (a cubic)
        ja, jb = map(jet := compile_jet(f, 4), (a, b))
        p = 4 if ja[4] or jb[4] else 2
    except DomainError:   # or not finite at one; if f fails, order 3 says so
        p, (ja, jb) = 2, map(jet := compile_jet(f, 3), (a, b))
    tv = require_finite(f"the variation of f^({p})", abs(jb[p] - ja[p])
                        + 4.0 * math.ulp(max(abs(ja[p]), abs(jb[p]))))

    width, n = b - a, 1
    while n <= n_max and (w := _em_bound(p, width, n, tv)) > tol:
        n *= 2
    if n > n_max:   # n // 2 is the largest power of two allowed, w its bound
        require_finite(f"the error bound at every n up to {n // 2}", w)
        raise ToleranceUnreachable(tol, w, n // 2)

    def sums(points: tuple, mids: list) -> tuple:   # midpoint sum and S_p
        h, plain = width / len(mids), [(hi - lo) * jet(m)[0] for lo, m, hi
                                       in zip(points, mids, points[1:])]
        c1 = h * h / 24.0   # h * h is inf, not OverflowError
        c3 = 7.0 * (h * h) * (h * h) / 5760.0 if p == 4 else 0.0
        ends = [c1 * jb[1], -c1 * ja[1], -c3 * jb[3], c3 * ja[3]]
        return (_finite_sum("midpoint_sum", plain),
                _finite_sum("corrected_sum", plain + ends))
    try:   # |S| >= low if |I - S| <= tol; S_1 rounds by < 2^-10 of itself
        low = (abs(sums((a, b), [0.5 * (a + b)])[1]) * (1.0 - 2.0 ** -10)
               - _em_bound(p, width, 1, tv) - tol)
    except DomainError:   # S_1, or a value in it, leaves float range
        low = 0.0
    if _below_floor(tol, max(low, 0.0)):
        raise BelowRoundingFloor(tol, w, n, math.ulp(low) / 2)
    midpoint_sum, s = sums(*_cells(uniform_division(a, b, n)))
    if _below_floor(tol, s):
        raise BelowRoundingFloor(tol, w, n, math.ulp(s) / 2)
    return require_above_floor(Certificate(midpoint_sum, s, w, p, n, proof))
