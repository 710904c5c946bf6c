"""Composite corrected-midpoint quadrature with certified error bounds.

A division a = x_0 < x_1 < ... < x_n = b, passed around as the tuple of its
points, induces the two sums

    midpoint:   sum_i h_i f(m_i)
    corrected:  sum_i h_i f(m_i) + (h_i^3 / 24) f''(m_i)

with h_i = x_{i+1} - x_i and m_i the subinterval midpoints.  When |f'''| is
positive at every division point, each subinterval contributes the bound
chi1 of :mod:`hh3.bounds` (scaled by h_i, turning the mean-value bound into
an integral one), and their sum certifies the corrected sum:

    | integral - corrected_sum |  <=  certified_bound.

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

import functools
import itertools
import math
import operator
import sys
from collections.abc import Callable, Sequence

from . import bounds as _bounds
from .errors import BadInterval, BelowRoundingFloor, NonConvergence, \
    ToleranceUnreachable, require_f3, require_finite, require_interval
# eval_jet3 and evaluate stay attributes here for bench/tracer.py to wrap.
from .expr import Node, compile_jet3, eval_jet3, evaluate  # noqa: F401
from .record import Record

__all__ = [
    "QuadResult", "CertifyOutcome", "uniform_division",
    "corrected_midpoint_sum", "composite_bound", "reference_integral",
    "integrate_adaptive", "identity_residual", "certify",
    "DEFAULT_EVAL_BUDGET", "MAX_SUBINTERVALS",
]

DEFAULT_EVAL_BUDGET = 1_000_000

#: The most subintervals the command line accepts and ``certify`` refines
#: to by default.  A per-interval report takes about 85 MiB at 2^16
#: subintervals, so more than 1 GB at this size.
MAX_SUBINTERVALS = 2 ** 20


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
    if not all(map(math.isfinite, points)):
        p = next(p for p in points if not math.isfinite(p))
        raise BadInterval(f"division point {p!r} is not finite")
    if not all(map(operator.lt, points, points[1:])):
        lo, hi = next(pair for pair in zip(points, points[1:])
                      if not pair[0] < pair[1])
        raise BadInterval(
            f"division points must be strictly increasing; "
            f"{lo!r} >= {hi!r}")
    return points


def _midpoint_pass(jet: Callable, points: tuple[float, ...],
                   jets: list | None = None) -> tuple:
    """One pass over the subintervals, left to right: their widths and the
    terms of the midpoint and the corrected sums.  ``jets``, if a list,
    receives the jet at each midpoint."""
    widths, plain, corrected = [], [], []
    for lo, hi in zip(points, points[1:]):
        h = hi - lo
        j = jet(0.5 * (lo + hi))
        if jets is not None:
            jets.append(j)
        f0, _, f2, _ = j
        widths.append(h)
        hf = h * f0
        plain.append(hf)
        corrected.append(hf + h ** 3 / 24.0 * f2)
    return widths, plain, corrected


def corrected_midpoint_sum(f: Node, points: Sequence[float]) -> float:
    return _finite_sum("corrected_sum",
                       _midpoint_pass(compile_jet3(f), _checked(points))[2])


# --------------------------------------------------------------------------
# Composite certified bound
# --------------------------------------------------------------------------

class QuadResult(Record):
    __slots__, _fields = (), (
        "midpoint_sum", "corrected_sum",  # floats
        "certified_bound",  # float: fsum of interval_bounds
        "f3",               # floats: |f'''| at each division point
        "interval_bounds")  # floats: one bound per subinterval


def composite_bound(f: Node, points: Sequence[float], *,
                    coarse: tuple[Sequence[float], Sequence[float],
                                  Sequence[tuple]] | None = None,
                    midpoint_jets: list | None = None) -> QuadResult:
    """Corrected-midpoint sums plus a certified bound on the corrected one.

    ``points`` is any strictly increasing division of [a, b], such as
    :func:`uniform_division` returns.  Each subinterval's bound is chi1: no
    exponent lets chi2 or chi3 beat it (see :mod:`hh3.bounds`).  Requires
    |f'''| positive and normal at every division point.  Errors surface in
    this order: the points, |f'''| at each point, the jet at each midpoint,
    each subinterval's ratios, then the sums and the bound, which must be
    finite.

    ``coarse`` is a coarser division, |f'''| at its points (the ``f3`` of
    its result) and the jets at its midpoints, which ``midpoint_jets``
    receives if it is a list.  Where ``points[::2]`` equals that division
    bit for bit, as ``uniform_division(a, b, 2 * n)`` does at n, its values
    are taken as given, and an odd point equal to the midpoint it splits
    takes |f'''| from the jet there; every other point is evaluated.
    """
    points = _checked(points)
    jet = compile_jet3(f)
    if coarse is not None and points[::2] == tuple(coarse[0]):
        f3 = [0.0] * len(points)
        f3[::2] = coarse[1]
        f3[1::2] = _f3_magnitudes(jet, points[1::2], [
            j if 0.5 * (lo + hi) == x else None
            for lo, x, hi, j in zip(points[::2], points[1::2], points[2::2],
                                    coarse[2])])
    else:
        f3 = _f3_magnitudes(jet, points)

    widths, plain, corrected = _midpoint_pass(jet, points, midpoint_jets)
    interval_bounds = _bounds.interval_chi1(f3, widths)

    return QuadResult(
        midpoint_sum=_finite_sum("midpoint_sum", plain),
        corrected_sum=_finite_sum("corrected_sum", corrected),
        certified_bound=_finite_sum("certified_bound", interval_bounds),
        f3=tuple(f3),
        interval_bounds=interval_bounds,
    )


def _finite_sum(name: str, terms: Sequence[float]) -> float:
    """fsum of ``terms``, once it is finite: DomainError naming the sum
    where a term or a partial sum leaves float range."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a partial sum overflows, inf - inf
        total = math.nan
    return require_finite(name, total)


def _f3_magnitudes(jet: Callable, points: Sequence[float],
                   given: Sequence[tuple | None] = ()) -> list[float]:
    """|f'''| at each point, left to right, once each is finite and normal.

    ``given`` holds, in step with ``points``, the jet already evaluated at
    a point, or None where the point is still to be evaluated."""
    return [m if 2.2250738585072014e-308 <= (m := abs((j or jet(x))[3]))
            <= 1.7976931348623157e308 else require_f3(x, m)
            for x, j in zip(points, given or itertools.repeat(None))]


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


@functools.cache
def _cc_rule() -> tuple[tuple[float, ...], ...]:
    """Nodes cos(j*pi/32) on [-1, 1], weights of all 33 and of the even 17;
    built on first use, as bounds and certify never integrate."""
    nodes = tuple(math.cos(math.pi * j / 32) for j in range(33))
    return nodes, _cc_weights(32), _cc_weights(16)


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
    would be needed.
    """
    require_interval(a, b)
    nodes, w_fine, w_coarse = _cc_rule()
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
        evals += len(nodes)
        if evals > DEFAULT_EVAL_BUDGET:
            raise NonConvergence(DEFAULT_EVAL_BUDGET)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        values = [fn(mid + half * t) for t in nodes]
        fine = half * math.fsum(w * v for w, v in zip(w_fine, values))
        coarse = half * math.fsum(w * v for w, v in
                                  zip(w_coarse, values[::2]))
        err = abs(fine - coarse)
        magnitude = half * math.fsum(w * abs(v) for w, v in
                                     zip(w_fine, values))
        floor = _ROUNDOFF_ULPS * magnitude
        if err <= tol * (hi - lo) / span or err <= floor:
            pieces.append(fine)
        else:
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    return math.fsum(pieces)


def reference_integral(f: Node, a: float, b: float,
                       tol: float = 1e-13) -> float:
    """High-accuracy integral of an expression, used as ground truth.

    ``tol`` below 1e-14 is rejected: that is the scheme's trust limit in
    double precision.
    """
    if not (tol >= 1e-14):
        raise ValueError(f"tol must be at least 1e-14, got {tol!r}")
    jet = compile_jet3(f)
    return integrate_adaptive(lambda x: jet(x)[0], a, b, tol)


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
    jet = compile_jet3(f)
    tol = 1e-13
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

class CertifyOutcome(Record):  # a QuadResult, and two ints
    __slots__, _fields = (), ("result", "n_final", "iterations")


#: The rounding allowance R of the floor stop in :func:`certify`, in units
#: of eps times the absolute mass of a level's midpoint terms.
_ROUNDING_ULPS = 2048.0


def certify(f: Node, a: float, b: float, tol: float,
            n_max: int = MAX_SUBINTERVALS) -> CertifyOutcome:
    """Double a uniform division until the certified bound meets ``tol``.

    Starts at one subinterval.  Each level is one :func:`composite_bound`
    call, given the level before as ``coarse``: point i of n is bit for bit
    point 2i of 2n, because (b - a)/(2n) is exactly half of (b - a)/n.
    Each odd point of 2n that equals the midpoint of n it splits, as all do
    where the points are exact binary fractions (on [0, 1], say), takes
    |f'''| from the jet there.  So a doubling evaluates the jets at its 2n
    midpoints, and |f'''| only at the odd points that differ from the old
    midpoints.  Where halving is inexact (a subnormal width) the old points
    no longer match, and the level evaluates every point.

    Raises :class:`ToleranceUnreachable` (carrying the best bound achieved)
    if n exceeds ``n_max`` first, and its subclass
    :class:`BelowRoundingFloor` as soon as ``tol`` is below the rounding
    floor.  After each level, with corrected sum s and bound B, let

        L = |s| - B - tol - R,    R = 2048 eps A,

    with eps the machine epsilon and A the sum over the level's midpoints m
    of |h f(m)| + |h^3 f''(m) / 24| + |h m f'(m)|.  The run stops once
    tol < ulp(max(L, 0)) / 2.

    The argument, granted R: B bounds |I - S| for the exact corrected sum
    S at the level's points, and the printed s is within r of S, so
    |I - s| <= B + r.  A level n' >= n whose bound meets tol prints an s'
    with |I - s'| <= tol + r', so |s'| >= |s| - B - tol - (r + r') >= L
    whenever R >= r + r'.  A double is guaranteed no closer than half its
    ulp to the real it stands for, so a certificate for the printed s'
    needs tol >= ulp(s')/2, and ulp(s')/2 >= ulp(L)/2.

    R >= r + r' is assumed, not proved, so the stop is a heuristic.  Each
    term takes six roundings and fsum one half-ulp; rounding the midpoint m
    moves h f(m) by up to |h m f'(m)| eps/2, the last part of A.  But the
    jets come from arbitrary expression code, whose rounding has no bound
    known in advance.  R grants each sum 512 ulps of its mass, the later
    level a mass of at most 2A (both are midpoint sums for the integral of
    |f|), and 512 more to forming L.  Enclosing each term in an interval
    (ROADMAP item 4) would make the stop a guarantee; a larger R only
    delays it.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise BadInterval(f"tolerance must be positive, got {tol!r}")
    coarse = None
    best_seen = math.inf
    n = 1
    iterations = 0
    last_n = 1
    while n <= n_max:
        points = uniform_division(a, b, n)
        jets: list[tuple] = []
        result = composite_bound(f, points, coarse=coarse, midpoint_jets=jets)
        coarse = (points, result.f3, jets)
        iterations += 1
        best_seen = min(best_seen, result.certified_bound)

        lower = abs(result.corrected_sum) - result.certified_bound - tol
        if tol < 0.5 * math.ulp(max(lower, 0.0)):  # R >= 0 only lowers L
            lower -= (_ROUNDING_ULPS * sys.float_info.epsilon
                      * _rounding_mass(points, jets))
            floor = 0.5 * math.ulp(max(lower, 0.0))
            if tol < floor:
                raise BelowRoundingFloor(tol, best_seen, n, floor)

        if result.certified_bound <= tol:
            return CertifyOutcome(result=result, n_final=n,
                                  iterations=iterations)
        last_n = n
        n *= 2
    raise ToleranceUnreachable(tol, best_seen, last_n)


def _rounding_mass(points: tuple[float, ...], jets: list[tuple]) -> float:
    """A of :func:`certify`: the sum over the midpoints m of
    |h f(m)| + |h^3 f''(m) / 24| + |h m f'(m)|, from the jets there."""
    mass = 0.0
    for lo, hi, j in zip(points, points[1:], jets):
        h, m = hi - lo, 0.5 * (lo + hi)
        mass += abs(h * j[0]) + abs(h ** 3 / 24.0 * j[2]) + abs(h * m * j[1])
    return mass
