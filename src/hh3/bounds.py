"""Single-interval error bounds for the corrected midpoint rule.

Setting: f is three times differentiable on [a, b] and |f'''| is log-convex
there.  Writing m = (a+b)/2, the corrected midpoint approximation

    (b - a) * f(m) + ((b - a)^3 / 24) * f''(m)

differs from the integral of f over [a, b] by at most each of three competing
quantities, all of the shape

    ((b - a)^3 / 96) * ( |f'''(b)| * W(K) + |f'''(a)| * W(M) )

with ratio arguments K = |f'''(a)| / |f'''(b)| and M = 1/K, and a weight W
specific to the route taken:

  chi1 (direct):      W(K) = mu(K)                 with  mu(K) = integral of
                      t^3 * K^(t/2) over t in [0, 1]
  chi2 (Holder, q>1): W(K) = (1/(3p+1))^(1/p) * hf(K, q)^(1/q)  where
                      1/p + 1/q = 1   and  hf(K, q) = (2/(q ln K)) (K^(q/2)-1)
  chi3 (power mean, q>=1):  W(K) = (1/4)^(1-1/q) * mu(K^q)^(1/q)

chi3 at q = 1 collapses to chi1 by the same code path.  No q lets chi2 or
chi3 undercut chi1: on the kernel path |f'''| <= G(t) = |f'''(b)| K^(t/2),
chi1 integrates t^3 G exactly, and chi2 (Holder) and chi3 (the power mean
under the weight t^3 dt) are upper bounds for that same integral.  So
best_bound reports chi2 and chi3 at the single exponent DEFAULT_Q, and the
composite "best" method is chi1.

``mu`` and the Holder factor both degenerate to removable singularities as
K -> 1 (mu(1) = 1/4, hf(1, q) = 1); both are computed from the log of the
ratio through a series/closed-form split so that no cancellation is possible
near that point.  Where q ln(K)/2 is too large for exp(), chi2 and chi3
take their q-th roots in log space, so neither overflows while chi1 is
finite.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, NonPositiveThirdDerivative, require_interval

__all__ = [
    "L_SWITCH", "DerivEndpoints", "BoundReport", "mu", "mu_q",
    "holder_factor", "chi1", "chi2", "chi3", "interval_chi1",
    "bound_function", "direct_bound", "holder_bound", "power_mean_bound",
    "best_bound", "DEFAULT_Q", "METHOD_NAMES",
]

#: |ln K| at or below which the moment series is used instead of the closed
#: form, which cancels in e^L poly(L) + 6: against mpmath it is off by up to
#: ~5300 ulps for |ln K| in (0.5, 1] and ~120 in (2, 2.5], but ~12 beyond 4,
#: where the series (within ~11 ulps below 4, about 30 terms at 4) loses more.
L_SWITCH = 4.0

_SERIES_RELTOL = 1e-18
_HALF_LOG_LIMIT = 700.0  # exp() overflows just above exp(709)

#: The most ratios whose moments interval_chi1 keeps at once; past it the
#: cache starts again empty, so its memory does not grow with the cells.
_MOMENT_CACHE_SIZE = 1024

#: Method tokens accepted by the composite layer and the CLI; "best" is
#: an alias of "thm1".
METHOD_NAMES = ("thm1", "thm2", "thm3", "best")

#: The exponent of chi2 and chi3 when none is given.
DEFAULT_Q = 2.0


# --------------------------------------------------------------------------
# The checked one-interval input
# --------------------------------------------------------------------------

class _Endpoints(NamedTuple):
    f3a_abs: float
    f3b_abs: float
    a: float
    b: float


class DerivEndpoints(_Endpoints):
    """|f'''| magnitudes at the interval endpoints, plus the interval."""

    __slots__ = ()

    def __new__(cls, f3a_abs: float, f3b_abs: float, a: float, b: float):
        for x, v in ((a, f3a_abs), (b, f3b_abs)):
            if not (math.isfinite(v) and v > 0.0):
                raise NonPositiveThirdDerivative(x, v)
        require_interval(a, b)
        return super().__new__(cls, f3a_abs, f3b_abs, a, b)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: check it too
        return cls(*iterable)

    @property
    def width(self) -> float:
        return self.b - self.a


# --------------------------------------------------------------------------
# The cubic exponential moment  mu(K) = integral over [0,1] of t^3 K^(t/2)
# --------------------------------------------------------------------------

def _moment_series(lam: float) -> float:
    """mu as a power series in L = lam/2: sum of L^n / (n! (n+4)).

    Term-by-term integration of t^3 e^(L t); every term is positive for
    lam > 0 and the series alternates for lam < 0, where its terms exceed
    the sum by at most a factor ~24 for the |lam| <= L_SWITCH it is used on.
    Truncates when a term falls below 1e-18 of the running sum.
    """
    half = lam / 2.0
    total = 0.25  # n = 0
    coeff = 1.0
    n = 0
    while True:
        n += 1
        coeff *= half / n
        term = coeff / (n + 4.0)
        total += term
        if abs(term) <= _SERIES_RELTOL * abs(total):
            return total


def _moment_closed(lam: float) -> float:
    """mu via antidifferentiation, stable once |lam| is away from zero.

    With L = lam/2, four integrations by parts of t^3 e^(L t) give

        mu = ( e^L (L^3 - 3 L^2 + 6 L - 6) + 6 ) / L^4.
    """
    half = lam / 2.0
    poly = ((half - 3.0) * half + 6.0) * half - 6.0
    return (math.exp(half) * poly + 6.0) / half ** 4


def _moment_from_log(lam: float) -> float:
    """mu(K) written as a function of lam = ln K."""
    if abs(lam) <= L_SWITCH:
        return _moment_series(lam)
    return _moment_closed(lam)


def _bad_ratio(k: float) -> DomainError:
    return DomainError(f"derivative ratio must be finite and positive, got {k!r}")


def _require_ratio(k: float) -> float:
    if not (isinstance(k, (int, float)) and math.isfinite(k) and k > 0.0):
        raise _bad_ratio(k)
    return float(k)


def _log_ratio(num: float, den: float) -> float:
    """ln(num / den), once the ratio is checked finite and positive."""
    return math.log(_require_ratio(num / den))


def _require_q(q: float, strict: bool, name: str) -> None:
    """The exponent rule: finite q > 1 if ``strict`` (Holder), else q >= 1."""
    if not (math.isfinite(q) and (q > 1.0 if strict else q >= 1.0)):
        raise DomainError(
            f"{name} needs q {'>' if strict else '>='} 1, got {q!r}")


def mu(k: float) -> float:
    """The weight in the direct bound: integral of t^3 k^(t/2), t in [0,1].

    mu(1) = 1/4 exactly; mu is increasing and positive.
    """
    return _moment_from_log(math.log(_require_ratio(k)))


def _weight_log(k: float, q: float, name: str) -> float:
    """q ln(k), once k and q are checked and exp(q ln(k)/2) fits a float."""
    k = _require_ratio(k)
    _require_q(q, False, name)
    lam = q * math.log(k)
    if lam / 2.0 > _HALF_LOG_LIMIT:
        raise OverflowError(
            f"q*ln(K)/2 = {lam / 2.0!r} exceeds {_HALF_LOG_LIMIT}; "
            "the ratio is too extreme for this q"
        )
    return lam


def mu_q(k: float, q: float) -> float:
    """mu evaluated on the q-th power of the ratio, computed in log space.

    Never forms k**q: the substitution ln K -> q ln K feeds the same
    series/closed-form split, so mu_q(k, 1) == mu(k) exactly and large q
    stays accurate.  Raises the builtin OverflowError when q*ln(k)/2 > 700,
    where the closed form's exp() would overflow.
    """
    return _moment_from_log(_weight_log(k, q, "mu_q"))


def _expm1_mean(u: float) -> float:
    return 1.0 if u == 0.0 else math.expm1(u) / u


def holder_factor(k: float, q: float) -> float:
    """(2 / (q ln k)) * (k^(q/2) - 1), the Holder route's ratio weight.

    Equals expm1(u)/u at u = q*ln(k)/2, which tends to 1 as k -> 1; expm1
    keeps that limit exact to machine precision.
    """
    return _expm1_mean(_weight_log(k, q, "holder_factor") / 2.0)


def _qth_root(log_k: float, q: float, power_mean: bool) -> float:
    """mu_q(K, q) ** (1/q) if ``power_mean``, else holder_factor(K, q) ** (1/q).

    Where u = q ln(K)/2 exceeds the exp() limit the weight itself may not fit
    in a float, so the root is taken in log space from

        ln holder_factor(K, q) = u - ln u
        ln mu_q(K, q)          = u - ln u + ln(1 - 3/u + 6/u^2 - 6/u^3)

    which drop only terms of relative size e^-u < 1e-304.  Elsewhere the
    power is taken directly.
    """
    u = q * log_k / 2.0
    if u <= _HALF_LOG_LIMIT:
        weight = _moment_from_log(q * log_k) if power_mean else _expm1_mean(u)
        return weight ** (1.0 / q)
    half = log_k / 2.0
    log_root = half - (math.log(q) + math.log(half)) / q
    if power_mean:
        log_root += math.log1p((-3.0 + (6.0 - 6.0 / u) / u) / u) / q
    return math.exp(log_root)


# --------------------------------------------------------------------------
# The three bounds
# --------------------------------------------------------------------------
# Each takes |f'''(a)|, |f'''(b)| (finite, positive) and the width b - a, and
# checks K and M where it takes their logs; bound_function checks q.

def chi1(f3a_abs: float, f3b_abs: float, width: float) -> float:
    """((b-a)^3/96) * (|f'''(b)| mu(K) + |f'''(a)| mu(M))."""
    return width ** 3 / 96.0 * (f3b_abs * mu(f3a_abs / f3b_abs)
                                + f3a_abs * mu(f3b_abs / f3a_abs))


def chi2(f3a_abs: float, f3b_abs: float, width: float, q: float) -> float:
    """((b-a)^3/96) (1/(3p+1))^(1/p) (|f'''(b)| hf(K,q)^(1/q)
                                     + |f'''(a)| hf(M,q)^(1/q)), q > 1.
    """
    p = q / (q - 1.0)
    return width ** 3 / 96.0 * (1.0 / (3.0 * p + 1.0)) ** (1.0 / p) * (
        f3b_abs * _qth_root(_log_ratio(f3a_abs, f3b_abs), q, False)
        + f3a_abs * _qth_root(_log_ratio(f3b_abs, f3a_abs), q, False))


def chi3(f3a_abs: float, f3b_abs: float, width: float, q: float) -> float:
    """((b-a)^3/96) (1/4)^(1-1/q) (|f'''(b)| mu_q(K,q)^(1/q)
                                  + |f'''(a)| mu_q(M,q)^(1/q)), q >= 1.

    At q = 1 every factor reduces literally to chi1's: the prefactor is
    (1/4)^0 == 1.0 and x ** 1.0 == x, so the two agree bit for bit.
    """
    return width ** 3 / 96.0 * 0.25 ** (1.0 - 1.0 / q) * (
        f3b_abs * _qth_root(_log_ratio(f3a_abs, f3b_abs), q, True)
        + f3a_abs * _qth_root(_log_ratio(f3b_abs, f3a_abs), q, True))


def interval_chi1(f3: Sequence[float],
                  widths: Sequence[float]) -> tuple[float, ...]:
    """h * chi1(f3[i], f3[i + 1], h) for each cell i of width h = widths[i].

    The same float operations in the same order as that expression, so
    equal to it bit for bit, and each ratio is checked where chi1 checks
    it.  But mu of a ratio is computed only the first time the ratio is
    seen, in a cache of at most _MOMENT_CACHE_SIZE ratios per call.  That
    pays where |f'''| is log-affine, as for exp(c x): then K = e^(-c h) on
    every cell of a uniform division, and only rounding makes the computed
    ratios differ, so a few dozen distinct values serve any number of cells.
    """
    moments: dict[float, float] = {}
    known = moments.get
    out = []
    for f3a, f3b, h in zip(f3, f3[1:], widths):
        k = f3a / f3b
        mu_k = known(k)
        if mu_k is None:  # a first sight: check, then compute and keep
            if not 0.0 < k < math.inf:
                raise _bad_ratio(k)
            if len(moments) >= _MOMENT_CACHE_SIZE:
                moments.clear()
            mu_k = moments[k] = _moment_from_log(math.log(k))
        m = f3b / f3a
        mu_m = known(m)
        if mu_m is None:
            if not 0.0 < m < math.inf:
                raise _bad_ratio(m)
            if len(moments) >= _MOMENT_CACHE_SIZE:
                moments.clear()
            mu_m = moments[m] = _moment_from_log(math.log(m))
        out.append(h * (h ** 3 / 96.0 * (f3b * mu_k + f3a * mu_m)))
    return tuple(out)


def bound_function(method: str, q: float | None = None
                   ) -> Callable[[float, float, float], float]:
    """The bound of ``method`` as a function of (f3a_abs, f3b_abs, width).

    The one place that maps a method to its bound and checks its exponent:
    thm1 and best give chi1 and ignore q, thm2 gives chi2 and needs q > 1,
    thm3 gives chi3 and needs q >= 1 (DomainError otherwise).  An unknown
    method or a missing q is a ValueError.
    """
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {METHOD_NAMES}")
    if method in ("thm1", "best"):
        return chi1
    if q is None:
        raise ValueError(f"method {method!r} needs an exponent q")
    _require_q(q, method == "thm2", method)
    return functools.partial(chi2 if method == "thm2" else chi3, q=q)


def direct_bound(e: DerivEndpoints) -> float:
    """chi1 on a checked interval."""
    return chi1(e.f3a_abs, e.f3b_abs, e.width)


def holder_bound(e: DerivEndpoints, q: float) -> float:
    """chi2 on a checked interval; q > 1."""
    return bound_function("thm2", q)(e.f3a_abs, e.f3b_abs, e.width)


def power_mean_bound(e: DerivEndpoints, q: float) -> float:
    """chi3 on a checked interval; q >= 1."""
    return bound_function("thm3", q)(e.f3a_abs, e.f3b_abs, e.width)


# --------------------------------------------------------------------------
# The best of the three
# --------------------------------------------------------------------------

class BoundReport(NamedTuple):
    """The three bounds, chi2 and chi3 at exponent ``q``, and the winner."""

    chi1: float
    chi2: float
    chi3: float
    q: float
    min_value: float
    argmin_label: str  # "chi1" | "chi2" | "chi3"


def best_bound(e: DerivEndpoints) -> BoundReport:
    """chi1, plus chi2 and chi3 at q = DEFAULT_Q, and the least of them.

    The minimum is chi1 up to rounding for every q (see the module
    docstring); ties resolve toward chi1, then chi2.
    """
    chi1 = direct_bound(e)
    chi2 = holder_bound(e, DEFAULT_Q)
    chi3 = power_mean_bound(e, DEFAULT_Q)
    min_value, argmin_label = min((chi1, "chi1"), (chi2, "chi2"),
                                  (chi3, "chi3"), key=lambda c: c[0])
    return BoundReport(chi1=chi1, chi2=chi2, chi3=chi3, q=DEFAULT_Q,
                       min_value=min_value, argmin_label=argmin_label)
