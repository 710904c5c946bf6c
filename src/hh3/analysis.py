"""Hypothesis checking: is |f'''| log-convex, is f convex?

Log-convexity of |f'''| is the standing hypothesis behind every bound in
:mod:`hh3.bounds`.  :func:`log_convexity_verdict` first tries to *prove*
it from the expression tree (:mod:`hh3.monotone`) and samples only where
that fails.  It and :func:`check_hermite_hadamard` return the blocks that
``bounds`` and ``verify`` print, whatever the verdict, and both sample one
grid, :data:`GRID_POINTS`.  Those blocks are diagnostics: a command that
certifies a bound asks :func:`hh3.quadrature.require_proof` instead, and
refuses where the tree proves nothing, whatever the samples say.

The sampled check cannot *prove* anything, so its verdict is explicitly
evidence, not certificate: on a uniform grid of an odd number of
points, every index pair (i, j) with i + j even has its midpoint on the
grid, and the midpoint criterion

    g((x + y)/2)^2  <=  g(x) * g(y) * (1 + 1e-9)

is tested for all such pairs (g = |f'''|).  Midpoint log-convexity of a
continuous function is equivalent to log-convexity, and the grid family of
pairs covers every scale and location the grid can express, so a pass is
strong evidence while any failure comes with a concrete witness pair: the
first, by i and then j, at the worst violation.  Each sample is split once
as g = m 2^e, m in [1/2, 1), and each ratio is formed from the mantissas
and scaled by its own power of two, so no product leaves the float range;
a ratio beyond it reads as inf.

The paper's Theorems 2-3 assume |f'''|^q log-convex for a q >= 1, which
holds exactly when |f'''| is (log g^q = q log g), so this one test serves
every q.
"""

import math

# eval_jet3 stays an attribute here for bench/tracer.py to wrap.
from .expr import (Node, compile_f3, compile_jet, eval_jet3,  # noqa: F401
                   parse)
from .monotone import proved_block
# integrate_adaptive stays an attribute here for bench/tracer.py to wrap.
from .quadrature import (integrate_adaptive,  # noqa: F401
                         reference_integral, uniform_division)
from .record import Record

__all__ = [
    "GRID_POINTS", "PAIR_RELTOL", "CatalogEntry", "grid_samples",
    "check_log_convexity", "log_convexity_verdict",
    "check_hermite_hadamard", "catalog",
]

#: 2^8 + 1 points, the one grid of every sampled verdict: a uniform grid this
#: size is closed under taking midpoints of same-parity index pairs.
GRID_POINTS = 257

#: Multiplicative slack in the midpoint criterion.
PAIR_RELTOL = 1e-9

_CONVEXITY_TOL = 1e-12
_HH_TOL = 1e-12


def grid_samples(f: Node, a: float, b: float
                 ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The GRID_POINTS uniform points xs of [a, b] and |f'''| there.

    Returns ``(xs, gs)``.
    """
    xs = uniform_division(a, b, GRID_POINTS - 1)
    return xs, tuple(map(abs, map(compile_f3(f), xs)))


def _midpoint_pairs(xs: tuple[float, ...], gs: tuple[float, ...]) -> dict:
    """The ``sampled-evidence`` block of the pair test on an odd grid.

    ``worst_violation`` is max over tested pairs of g(m)^2/(g(x)g(y)) - 1,
    so ``passed`` holds exactly when it is at most :data:`PAIR_RELTOL`.  A
    zero or non-finite sample fails at once with that point as its own
    witness and an infinite violation.
    """
    n = len(xs)
    for x, g in zip(xs, gs):
        if not (math.isfinite(g) and g > 0.0):
            return {"passed": False, "worst_violation": math.inf,
                    "witness": [x, x], "pairs_tested": 0, "grid_points": n,
                    "kind": "sampled-evidence"}
    ms, es = zip(*map(math.frexp, gs))
    worst, pair, ldexp = -math.inf, None, math.ldexp
    for i in range(n):
        mi, ei, k = ms[i], es[i], i
        for j in range(i + 2, n, 2):
            k += 1  # (i + j) / 2
            try:
                violation = ldexp(ms[k] * ms[k] / (mi * ms[j]),
                                  2 * es[k] - ei - es[j]) - 1.0
            except OverflowError:  # a ratio beyond the float range
                violation = math.inf
            if violation > worst:
                worst, pair = violation, (i, j)
    passed = worst <= PAIR_RELTOL
    m = (n - 1) // 2  # pairs (i, i + 2d) for d = 1..m: n - 2d of each
    return {"passed": passed, "worst_violation": worst,
            "witness": None if passed else [xs[pair[0]], xs[pair[1]]],
            "pairs_tested": m * (n - m - 1), "grid_points": n,
            "kind": "sampled-evidence"}


def check_log_convexity(f: Node, a: float, b: float) -> dict:
    """Midpoint log-convexity evidence for |f'''| on [a, b]: the
    ``sampled-evidence`` block on the GRID_POINTS grid."""
    return _midpoint_pairs(*grid_samples(f, a, b))


def log_convexity_verdict(f: Node, a: float, b: float) -> dict:
    """The ``log_convexity`` block that ``bounds`` and ``verify`` print for
    |f'''| on [a, b]: monotone.proved_block's, else check_log_convexity's."""
    return proved_block(f, a, b) or check_log_convexity(f, a, b)


def check_hermite_hadamard(f: Node, a: float, b: float) -> dict:
    """The ``hermite_hadamard`` block that ``verify`` prints: does
    f(m) <= mean of f <= (f(a)+f(b))/2 hold for a convex f?

    Convexity itself is only sampled: f'' must clear
    -1e-12 * max(1, max |f''|) on the GRID_POINTS grid, and the first point
    below that gives ``"convex": False`` with that point and f'' there.
    Else the mean comes from :func:`hh3.quadrature.reference_integral`, and
    lower_slack = mean - f(midpoint) and upper_slack = endpoint average -
    mean must both be >= -1e-12 * max(1, |mean|) to pass.
    """
    xs = uniform_division(a, b, GRID_POINTS - 1)
    jet = compile_jet(f, 3)
    jets = [jet(x) for x in xs]
    second_scale = max(1.0, max(abs(j[2]) for j in jets))
    for x, j in zip(xs, jets):
        if j[2] < -_CONVEXITY_TOL * second_scale:
            return {"convex": False, "witness_x": x,
                    "witness_second_derivative": j[2]}

    mean = reference_integral(f, a, b) / (b - a)
    mid_value = jet(0.5 * (a + b))[0]
    end_mean = 0.5 * (jets[0][0] + jets[-1][0])
    if not math.isfinite(end_mean):  # f(a) + f(b) overflows, their halves not
        end_mean = 0.5 * jets[0][0] + 0.5 * jets[-1][0]
    lower = mean - mid_value
    upper = end_mean - mean
    slack_scale = max(1.0, abs(mean))
    return {"convex": True,
            "passed": (lower >= -_HH_TOL * slack_scale
                       and upper >= -_HH_TOL * slack_scale),
            "midpoint_value": mid_value, "integral_mean": mean,
            "endpoint_mean": end_mean,
            "lower_slack": lower, "upper_slack": upper}


# --------------------------------------------------------------------------
# Worked examples with known log-convexity status
# --------------------------------------------------------------------------

class CatalogEntry(Record):
    """An integrand's text (str) and interval (floats), and whether its
    |f'''| is log-convex there (bool)."""
    __slots__, _fields = (), ("expression", "a", "b", "log_convex")

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
