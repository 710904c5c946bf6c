"""Composite corrected-midpoint quadrature with certified error bounds.

A division a = x_0 < x_1 < ... < x_n = b, passed around as the tuple of its
points, induces the two sums

    midpoint:   sum_i h_i f(m_i)
    corrected:  sum_i h_i f(m_i) + (h_i^3 / 24) f''(m_i)

with h_i = x_{i+1} - x_i and m_i the subinterval midpoints.  When |f'''| is
positive at every division point, each subinterval contributes a rigorous
bound from :mod:`hh3.bounds` (scaled by h_i, turning the mean-value bound
into an integral one), and their sum certifies the corrected sum:

    | integral - corrected_sum |  <=  certified_bound.

The same number is attached to the plain midpoint sum only as a heuristic:
it becomes rigorous exactly when the correction terms vanish, so the flag
flips to rigorous when max_i |f''(m_i)| <= 1e-12 * scale.

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

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

from . import bounds as _bounds
from .errors import BadInterval, NonConvergence, NonPositiveThirdDerivative, \
    ToleranceUnreachable, require_interval
# eval_jet3 and evaluate stay attributes here for bench/tracer.py to wrap.
from .expr import Node, compile_jet3, eval_jet3, evaluate  # noqa: F401

__all__ = [
    "QuadResult", "CertifyOutcome", "uniform_division", "midpoint_sum",
    "corrected_midpoint_sum", "composite_bound", "reference_integral",
    "integrate_adaptive", "identity_residual", "certify",
    "DEFAULT_EVAL_BUDGET", "MAX_SUBINTERVALS",
]

DEFAULT_EVAL_BUDGET = 1_000_000

#: The most subintervals the command line accepts and ``certify`` refines
#: to by default.  A per-interval report takes about 85 MiB at 2^16
#: subintervals, so more than 1 GB at this size.
MAX_SUBINTERVALS = 2 ** 20

#: Correction terms at or below 1e-12 * scale make the midpoint bound
#: rigorous rather than heuristic.
_MIDPOINT_RIGOROUS_TOL = 1e-12


# --------------------------------------------------------------------------
# Divisions: strictly increasing tuples of points
# --------------------------------------------------------------------------

def uniform_division(a: float, b: float, n: int) -> tuple[float, ...]:
    """The n + 1 points of n equal subintervals of [a, b]; b is exact."""
    require_interval(a, b)
    if n < 1:
        raise BadInterval(f"need at least one subinterval, got n = {n}")
    h = (b - a) / n
    return (*(a + i * h for i in range(n)), b)


def _checked(points: Sequence[float]) -> tuple[float, ...]:
    """The points, once they are at least two, finite, strictly increasing."""
    points = tuple(points)
    if len(points) < 2:
        raise BadInterval("a division needs at least two points")
    for p in points:
        if not math.isfinite(p):
            raise BadInterval(f"division point {p!r} is not finite")
    for lo, hi in zip(points, points[1:]):
        if not lo < hi:
            raise BadInterval(
                f"division points must be strictly increasing; "
                f"{lo!r} >= {hi!r}")
    return points


def _midpoint_jets(jet: Callable, points: tuple[float, ...]) -> list[tuple]:
    """(h, jet at the midpoint) for each subinterval, left to right."""
    return [(hi - lo, jet(0.5 * (lo + hi)))
            for lo, hi in zip(points, points[1:])]


def _sums(mids: list[tuple]) -> tuple[float, float]:
    """The midpoint sum and the corrected midpoint sum."""
    return (math.fsum(h * j[0] for h, j in mids),
            math.fsum(h * j[0] + h ** 3 / 24.0 * j[2] for h, j in mids))


def midpoint_sum(f: Node, points: Sequence[float]) -> float:
    return _sums(_midpoint_jets(compile_jet3(f), _checked(points)))[0]


def corrected_midpoint_sum(f: Node, points: Sequence[float]) -> float:
    return _sums(_midpoint_jets(compile_jet3(f), _checked(points)))[1]


# --------------------------------------------------------------------------
# Composite certified bound
# --------------------------------------------------------------------------

class QuadResult(NamedTuple):
    midpoint_sum: float
    corrected_sum: float
    certified_bound: float          # fsum of interval_bounds
    f3: tuple[float, ...]           # |f'''| at each division point
    interval_bounds: tuple[float, ...]  # one bound per subinterval
    midpoint_bound_heuristic: bool  # certified_bound is heuristic for midpoint_sum


def composite_bound(f: Node, points: Sequence[float], method: str = "best",
                    q: float | None = None) -> QuadResult:
    """Corrected-midpoint sums plus a certified bound on the corrected one.

    ``points`` is any strictly increasing division of [a, b], such as
    :func:`uniform_division` returns.  ``method`` is one of ``thm1``
    (direct), ``thm2`` (Holder, needs q > 1), ``thm3`` (power mean, needs
    q >= 1) or ``best``, which is ``thm1``: no exponent lets the other two
    beat it (see :mod:`hh3.bounds`).  Requires |f'''| > 0 at every division
    point.
    """
    points = _checked(points)
    bound = _bounds.bound_function(method, q)

    jet = compile_jet3(f)
    f3 = []
    for x in points:
        d3 = jet(x)[3]
        mag = abs(d3)
        if not (math.isfinite(mag) and mag > 0.0):
            raise NonPositiveThirdDerivative(x, d3)
        f3.append(mag)

    mids = _midpoint_jets(jet, points)

    interval_bounds = tuple(h * bound(f3a, f3b, h)
                            for f3a, f3b, (h, _) in zip(f3, f3[1:], mids))
    certified = math.fsum(interval_bounds)
    plain, corrected = _sums(mids)

    second_scale = max(1.0, max(abs(j[0]) for _, j in mids))
    max_second = max(abs(j[2]) for _, j in mids)
    heuristic = max_second > _MIDPOINT_RIGOROUS_TOL * second_scale

    return QuadResult(
        midpoint_sum=plain,
        corrected_sum=corrected,
        certified_bound=certified,
        f3=tuple(f3),
        interval_bounds=interval_bounds,
        midpoint_bound_heuristic=heuristic,
    )


# --------------------------------------------------------------------------
# Reference integrator
# --------------------------------------------------------------------------

def _cc_weights(n: int) -> tuple[float, ...]:
    """Clenshaw-Curtis weights for the n+1 nodes cos(j*pi/n) on [-1, 1].

    Interpolatory weights from Chebyshev moments: expand the interpolant in
    T_k via the discrete cosine transform of type I and integrate it with
    the exact moments (integral of T_k over [-1,1] is 2/(1-k^2) for even k,
    zero for odd k).  n must be even.  All weights come out positive.
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


_CC_FINE_N = 32
_CC_NODES = tuple(math.cos(math.pi * j / _CC_FINE_N)
                  for j in range(_CC_FINE_N + 1))
_CC_W_FINE = _cc_weights(_CC_FINE_N)
_CC_W_COARSE = _cc_weights(_CC_FINE_N // 2)
_ROUNDOFF_ULPS = 10.0 * sys.float_info.epsilon

#: No panel is accepted above this bisection depth, so every integral sees
#: at least four panels.  Guards against features narrow enough to slip
#: between the first panel's nodes and fool the error estimate.
_MIN_DEPTH = 2


def integrate_adaptive(fn: Callable[[float], float], a: float, b: float,
                       tol: float,
                       budget: int = DEFAULT_EVAL_BUDGET) -> float:
    """Adaptive bisection driver around the nested panel rule.

    Accepts a panel when |fine - coarse| fits the panel's width-proportional
    share of ``tol`` (or its rounding floor); otherwise bisects.  Panels are
    processed left to right and the accepted values are fsum-ed in that
    order, so results are bitwise deterministic.  Raises
    :class:`NonConvergence` once more than ``budget`` evaluations would be
    needed.
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
        if evals > budget:
            raise NonConvergence(budget)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        values = [fn(mid + half * t) for t in _CC_NODES]
        fine = half * math.fsum(w * v for w, v in zip(_CC_W_FINE, values))
        coarse = half * math.fsum(w * v for w, v in
                                  zip(_CC_W_COARSE, values[::2]))
        err = abs(fine - coarse)
        magnitude = half * math.fsum(w * abs(v) for w, v in
                                     zip(_CC_W_FINE, values))
        floor = _ROUNDOFF_ULPS * magnitude
        if err <= tol * (hi - lo) / span or err <= floor:
            pieces.append(fine)
        else:
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    return math.fsum(pieces)


def reference_integral(f: Node, a: float, b: float, tol: float = 1e-13,
                       budget: int = DEFAULT_EVAL_BUDGET) -> float:
    """High-accuracy integral of an expression, used as ground truth.

    ``tol`` below 1e-14 is rejected: that is the scheme's trust limit in
    double precision.
    """
    if not (tol >= 1e-14):
        raise ValueError(f"tol must be at least 1e-14, got {tol!r}")
    jet = compile_jet3(f)
    return integrate_adaptive(lambda x: jet(x)[0], a, b, tol, budget)


# --------------------------------------------------------------------------
# The third-derivative kernel identity behind every bound
# --------------------------------------------------------------------------

def identity_residual(f: Node, a: float, b: float,
                      tol: float = 1e-13) -> float:
    """Residual of the integral identity that the bounds rest on.

    For three-times differentiable f, with h = b - a and m the midpoint,

        (1/h) * integral(f) - f(m) - (h^2/24) f''(m)
          =  (h^3/96) * ( I1 - I2 )

    where I1 = integral over [0,1] of t^3 f'''(b - t h/2) and I2 likewise at
    a + t h/2.  Both sides are evaluated with the reference integrator and
    their difference is returned; it should sit at rounding level for any
    smooth f, log-convex |f'''| or not.
    """
    h = b - a
    m = 0.5 * (a + b)
    jet = compile_jet3(f)
    mean = integrate_adaptive(lambda x: jet(x)[0], a, b, tol) / h
    f0, _, f2, _ = jet(m)
    lhs = mean - f0 - h * h / 24.0 * f2

    def kernel_from_b(t: float) -> float:
        return t ** 3 * jet(b - 0.5 * t * h)[3]

    def kernel_from_a(t: float) -> float:
        return t ** 3 * jet(a + 0.5 * t * h)[3]

    i1 = integrate_adaptive(kernel_from_b, 0.0, 1.0, tol)
    i2 = integrate_adaptive(kernel_from_a, 0.0, 1.0, tol)
    rhs = h ** 3 / 96.0 * (i1 - i2)
    return lhs - rhs


# --------------------------------------------------------------------------
# Certification loop
# --------------------------------------------------------------------------

class CertifyOutcome(NamedTuple):
    result: QuadResult
    n_final: int
    iterations: int


def certify(f: Node, a: float, b: float, tol: float, method: str = "best",
            q: float | None = None,
            n_max: int = MAX_SUBINTERVALS) -> CertifyOutcome:
    """Double a uniform division until the certified bound meets ``tol``.

    Starts at one subinterval.  Raises :class:`ToleranceUnreachable`
    (carrying the best bound achieved) if n exceeds ``n_max`` first.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise BadInterval(f"tolerance must be positive, got {tol!r}")
    best_seen = math.inf
    n = 1
    iterations = 0
    last_n = 1
    while n <= n_max:
        result = composite_bound(f, uniform_division(a, b, n),
                                 method=method, q=q)
        iterations += 1
        if result.certified_bound <= tol:
            return CertifyOutcome(result=result, n_final=n,
                                  iterations=iterations)
        best_seen = min(best_seen, result.certified_bound)
        last_n = n
        n *= 2
    raise ToleranceUnreachable(tol, best_seen, last_n)
