"""Hypothesis checking: is |f'''| plausibly log-convex, is f convex?

Log-convexity of |f'''| is the standing hypothesis behind every bound in
:mod:`hh3.bounds`.  It cannot be *proven* by sampling, so the check here is
explicitly evidence, not certificate: on a uniform grid of an odd number of
points, every index pair (i, j) with i + j even has its midpoint on the
grid, and the midpoint criterion

    g((x + y)/2)^2  <=  g(x) * g(y) * (1 + 1e-9)

is tested for all such pairs (g = |f'''|).  Midpoint log-convexity of a
continuous function is equivalent to log-convexity, and the grid family of
pairs covers every scale and location the grid can express, so a pass is
strong evidence while any failure comes with a concrete witness pair.

The same criterion applied to g^q is mathematically equivalent for every
q >= 1 (log g^q = q log g); ``check_log_convexity_pow`` exists so that the
equivalence can be exercised rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotConvex
# eval_jet3 stays an attribute here for bench/tracer.py to wrap.
from .expr import Node, compile_jet3, eval_jet3, parse  # noqa: F401
from .quadrature import integrate_adaptive, uniform_division

__all__ = [
    "GRID_POINTS_DEFAULT", "PAIR_RELTOL", "GridSamples", "ConvexityReport",
    "HermiteHadamardReport", "CatalogEntry", "grid_samples",
    "check_log_convexity", "check_log_convexity_pow",
    "check_hermite_hadamard", "catalog",
]

#: 2^8 + 1 points: a uniform grid this size is closed under taking midpoints
#: of same-parity index pairs, which is what the pair test needs.
GRID_POINTS_DEFAULT = 257

#: Multiplicative slack in the midpoint criterion.
PAIR_RELTOL = 1e-9

_CONVEXITY_TOL = 1e-12
_HH_TOL = 1e-12


@dataclass(frozen=True)
class GridSamples:
    """|f'''| sampled on an ordered grid over [a, b]."""

    xs: tuple[float, ...]
    gs: tuple[float, ...]


def grid_samples(f: Node, a: float, b: float,
                 n: int = GRID_POINTS_DEFAULT) -> GridSamples:
    """Sample |f'''| at the n points of ``uniform_division(a, b, n - 1)``."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"grid size must be odd and >= 3, got {n}")
    xs = uniform_division(a, b, n - 1)
    gs = tuple(abs(jet[3]) for jet in map(compile_jet3(f), xs))
    return GridSamples(xs=xs, gs=gs)


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of the sampled midpoint criterion.

    ``worst_violation`` is max over tested pairs of g(m)^2/(g(x)g(y)) - 1,
    so ``passed`` holds exactly when it is at most :data:`PAIR_RELTOL`.  A
    zero or non-finite sample fails immediately with that point as its own
    witness and an infinite violation.
    """

    passed: bool
    worst_violation: float
    witness: tuple[float, float] | None
    pairs_tested: int


def _midpoint_pairs(samples: GridSamples, power: float) -> ConvexityReport:
    xs, gs = samples.xs, samples.gs
    n = len(xs)
    for x, g in zip(xs, gs):
        if not (math.isfinite(g) and g > 0.0):
            return ConvexityReport(passed=False, worst_violation=math.inf,
                                   witness=(x, x), pairs_tested=0)
    worst = -math.inf
    witness = None
    pairs = 0
    for i in range(n):
        gi = gs[i]
        for j in range(i + 2, n, 2):
            mid = (i + j) // 2
            ratio = gs[mid] * gs[mid] / (gi * gs[j])
            if power != 1.0:
                ratio = ratio ** power
            violation = ratio - 1.0
            pairs += 1
            if violation > worst:
                worst = violation
                witness = (xs[i], xs[j])
    passed = worst <= PAIR_RELTOL
    return ConvexityReport(passed=passed, worst_violation=worst,
                           witness=None if passed else witness,
                           pairs_tested=pairs)


def check_log_convexity(f: Node, a: float, b: float,
                        n: int = GRID_POINTS_DEFAULT) -> ConvexityReport:
    """Midpoint log-convexity evidence for |f'''| on [a, b]."""
    return _midpoint_pairs(grid_samples(f, a, b, n), 1.0)


def check_log_convexity_pow(f: Node, a: float, b: float, q: float,
                            n: int = GRID_POINTS_DEFAULT) -> ConvexityReport:
    """The same criterion applied to |f'''|^q; equivalent for any q >= 1."""
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"q must be >= 1, got {q!r}")
    return _midpoint_pairs(grid_samples(f, a, b, n), q)


@dataclass(frozen=True)
class HermiteHadamardReport:
    """Both Hermite-Hadamard inequalities for a convex f, with slacks.

    lower_slack = mean - f(midpoint) and upper_slack = endpoint average -
    mean; both must be >= -1e-12 * max(1, |mean|) to pass.
    """

    midpoint_value: float
    integral_mean: float
    endpoint_mean: float
    lower_slack: float
    upper_slack: float
    passed: bool


def check_hermite_hadamard(f: Node, a: float, b: float,
                           n: int = GRID_POINTS_DEFAULT
                           ) -> HermiteHadamardReport:
    """Verify f(m) <= mean of f <= (f(a)+f(b))/2 for convex f.

    Convexity itself is only sampled: f'' is required to clear
    -1e-12 * max(1, max |f''|) on the grid, and a dip below that raises
    :class:`NotConvex` with the witness point.  The two inequalities are then
    checked against the reference integral at tolerance 1e-12.
    """
    if n < 3:
        raise ValueError(f"grid size must be >= 3, got {n}")
    xs = uniform_division(a, b, n - 1)
    jet = compile_jet3(f)
    jets = [jet(x) for x in xs]
    second_scale = max(1.0, max(abs(j[2]) for j in jets))
    for x, j in zip(xs, jets):
        if j[2] < -_CONVEXITY_TOL * second_scale:
            raise NotConvex(x, j[2])

    mean = integrate_adaptive(lambda x: jet(x)[0], a, b, 1e-12) / (b - a)
    mid_value = jet(0.5 * (a + b))[0]
    end_mean = 0.5 * (jets[0][0] + jets[-1][0])
    lower = mean - mid_value
    upper = end_mean - mean
    slack_scale = max(1.0, abs(mean))
    passed = (lower >= -_HH_TOL * slack_scale
              and upper >= -_HH_TOL * slack_scale)
    return HermiteHadamardReport(
        midpoint_value=mid_value, integral_mean=mean, endpoint_mean=end_mean,
        lower_slack=lower, upper_slack=upper, passed=passed,
    )


# --------------------------------------------------------------------------
# Worked examples with known log-convexity status
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    expression: str
    a: float
    b: float
    log_convex: bool

    def ast(self) -> Node:
        return parse(self.expression)


def catalog() -> tuple[CatalogEntry, ...]:
    """Reference integrands with known |f'''| log-convexity status.

    The expected verdicts are analytic facts: exponentials have log-affine
    (hence log-convex) |f'''|, sums of exponentials keep it (log-convexity
    is closed under addition), |(1/x)'''| = 6/x^4 is log-convex on x > 0,
    and a constant |f'''| (from x^3) is trivially log-convex.  x^4 fails:
    its |f'''| = 24x has strictly concave logarithm on [1, 2], so by AM-GM
    every off-diagonal midpoint pair violates the criterion.
    """
    return (
        CatalogEntry("exp(x)", 0.0, 1.0, True),
        CatalogEntry("exp(2*x)", -1.0, 1.0, True),
        CatalogEntry("exp(x) + exp(2*x)", 0.0, 1.0, True),
        CatalogEntry("1/x", 1.0, 2.0, True),
        CatalogEntry("x^3", 0.0, 1.0, True),
        CatalogEntry("x^4", 1.0, 2.0, False),
    )
