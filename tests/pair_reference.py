"""Reference midpoint pair test: the double loop over index pairs.

This is the loop that :func:`hh3.analysis._midpoint_pairs` replaces with one
pass per diagonal, which forms each ratio from the samples' mantissas and
adds their binary exponents, with no common rescale.  Where the loop's
products and ratio are normal floats, both round each ratio alike, so the
tests hold the block of the one to that of the other: the worst violation
to its bits, the witness (the first pair, i then j, that attains it) and
the number of pairs.
"""

from __future__ import annotations

import math

from hh3.analysis import PAIR_RELTOL


def midpoint_pairs_reference(xs: tuple[float, ...], gs: tuple[float, ...]
                             ) -> dict:
    n = len(xs)
    for x, g in zip(xs, gs):
        if not (math.isfinite(g) and g > 0.0):
            return {"passed": False, "worst_violation": math.inf,
                    "witness": [x, x], "pairs_tested": 0, "grid_points": n,
                    "kind": "sampled-evidence"}
    worst = -math.inf
    witness = None
    pairs = 0
    for i in range(n):
        gi = gs[i]
        for j in range(i + 2, n, 2):
            mid = (i + j) // 2
            violation = gs[mid] * gs[mid] / (gi * gs[j]) - 1.0
            pairs += 1
            if violation > worst:
                worst = violation
                witness = [xs[i], xs[j]]
    passed = worst <= PAIR_RELTOL
    return {"passed": passed, "worst_violation": worst,
            "witness": None if passed else witness, "pairs_tested": pairs,
            "grid_points": n, "kind": "sampled-evidence"}
