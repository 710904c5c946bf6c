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

No q lets chi2 or chi3 undercut chi1: on the kernel path |f'''| <= G(t) =
|f'''(b)| K^(t/2), chi1 integrates t^3 G exactly, and chi2 (Holder) and chi3
(the power mean under the weight t^3 dt) are upper bounds for that same
integral, which chi3 at q = 1 is.  So best_bound reports chi2 and chi3 at
one exponent q, for the record, and the composite bound of
:mod:`hh3.quadrature` is chi1 alone.

The weights of chi2 and chi3 are functions of ln K, formed in one place,
``_log_ratio``: as ln of the quotient, or as ln |f'''(a)| - ln |f'''(b)|
where the quotient leaves float range, so such a K is still bounded.
``mu`` and the Holder factor both degenerate to removable singularities as
K -> 1 (mu(1) = 1/4, hf(1, q) = 1); both are computed from ln K through a
series/closed-form split so that no cancellation is possible near that
point.  Where q ln(K)/2 is too large for exp(), chi2 and chi3 take their
q-th roots in log space.

chi1 folds its two moments into one even series of positive terms: with
K = e^(2L), |f'''(b)| mu(K) + |f'''(a)| mu(M) = sqrt(|f'''(a)| |f'''(b)|)
C(L), C(L) = 2 * integral over [0,1] of t^3 cosh(L (1 - t)) dt =
12 * (sum over k of L^(2k) / (2k + 4)!).  It sums C / (2 cosh L) in
tanh(L)^2 <= 1e-4, C in L^2 <= 16 and C's closed form beyond, each cut
below an ulp, as stated where it is made; rounding is not in the bound.
interval_chi1, the composite bound, is h * chi1 per cell.  DerivEndpoints
and the composite pass refuse a subnormal |f'''|, so |ln K| <= 1418 and
chi1 stays in float range.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import DomainError, require_f3, require_interval
from .record import Record

__all__ = [
    "L_SWITCH", "DerivEndpoints", "BoundReport", "mu", "holder_factor",
    "chi1", "chi2", "chi3", "interval_chi1", "direct_bound", "holder_bound",
    "power_mean_bound", "best_bound", "DEFAULT_Q",
]

#: |ln K| at or below which mu (for chi3) takes the series, not the closed
#: form, which cancels in e^L poly(L) + 6: against mpmath it is off by up to
#: ~5300 ulps for |ln K| in (0.5, 1] and ~120 in (2, 2.5], but ~12 beyond 4,
#: where the series (within ~11 ulps below 4, about 30 terms at 4) loses more.
L_SWITCH = 4.0

_SERIES_RELTOL = 1e-18
_HALF_LOG_LIMIT = 700.0  # exp() overflows just above exp(709)

#: The exponent of chi2 and chi3 when none is given.
DEFAULT_Q = 2.0


# --------------------------------------------------------------------------
# The checked one-interval input
# --------------------------------------------------------------------------

class DerivEndpoints(Record):
    """|f'''| magnitudes at the interval endpoints, and the interval."""
    __slots__, _fields = (), ("f3a_abs", "f3b_abs", "a", "b")  # floats

    def __new__(cls, f3a_abs: float, f3b_abs: float, a: float, b: float):
        require_f3(a, f3a_abs)
        require_f3(b, f3b_abs)
        require_interval(a, b)
        return super().__new__(cls, f3a_abs, f3b_abs, a, b)

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

    Past L ~ 690, where e^L times the cubic overflows first, mu is
    exp(L + ln(cubic) - 4 ln L): the 6 dropped is below e^-690 of the sum.
    """
    half = lam / 2.0
    poly = ((half - 3.0) * half + 6.0) * half - 6.0
    if half <= _HALF_LOG_LIMIT:
        big = math.exp(half) * poly
        if big < math.inf:
            return (big + 6.0) / half ** 4
    return math.exp(half + math.log(poly) - 4.0 * math.log(half))


def _moment_from_log(lam: float) -> float:
    """mu(K) written as a function of lam = ln K."""
    if abs(lam) <= L_SWITCH:
        return _moment_series(lam)
    return _moment_closed(lam)


#: C(L)'s coefficients 12 / (2k + 4)! in s = L^2, k = 14 down to 0.
_SERIES = tuple(12 / math.factorial(2 * k + 4) for k in range(14, -1, -1))

#: ln 2 in two parts: n * _LN2_HI is exact for any two floats' exponent gap n
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10

_RATIO_RULE = "derivative ratio must be finite and positive, got {!r}"


def _log_ratio(num: float, den: float = 1.0) -> float:
    """ln(num / den) where the quotient is a positive normal float, else
    ln num - ln den where both are finite and positive (so a quotient that
    under- or overflows keeps its log); DomainError otherwise."""
    k = num / den
    if 2.2250738585072014e-308 <= k <= 1.7976931348623157e308:  # min, max
        return math.log(k)
    if 0.0 < num < math.inf and 0.0 < den < math.inf:
        return math.log(num) - math.log(den)
    raise DomainError(_RATIO_RULE.format(k))


def _require_q(q: float, strict: bool, name: str) -> None:
    """The exponent rule: finite q > 1 if ``strict`` (Holder), else q >= 1."""
    if not (math.isfinite(q) and (q > 1.0 if strict else q >= 1.0)):
        raise DomainError(
            f"{name} needs q {'>' if strict else '>='} 1, got {q!r}")


def mu(k: float) -> float:
    """The weight in the direct bound: integral of t^3 k^(t/2), t in [0,1].

    mu(1) = 1/4 exactly; mu is increasing and positive.
    """
    return _moment_from_log(_log_ratio(k))


def _expm1_mean(u: float) -> float:
    return 1.0 if u == 0.0 else math.expm1(u) / u


def holder_factor(k: float, q: float) -> float:
    """(2 / (q ln k)) * (k^(q/2) - 1), the Holder route's ratio weight.

    Equals expm1(u)/u at u = q*ln(k)/2, which tends to 1 as k -> 1; expm1
    keeps that limit exact to machine precision.  Needs q >= 1, and raises
    the builtin OverflowError when u > 700, where expm1 would overflow.
    """
    log_k = _log_ratio(k)
    _require_q(q, False, "holder_factor")
    u = q * log_k / 2.0
    if u > _HALF_LOG_LIMIT:
        raise OverflowError(f"q*ln(K)/2 = {u!r} exceeds {_HALF_LOG_LIMIT}; "
                            "the ratio is too extreme for this q")
    return _expm1_mean(u)


def _qth_root(log_k: float, q: float, power_mean: bool) -> float:
    """mu_q(K, q) ** (1/q) if ``power_mean``, else holder_factor(K, q) ** (1/q).

    mu_q(K, q) = mu(K^q) is the paper's notation, taken as the moment at
    q ln K.  Where u = q ln(K)/2 exceeds the exp() limit the weight itself
    may not fit in a float, so the root is taken in log space from

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
# Each takes |f'''(a)| and |f'''(b)|, finite and positive (chi1 checks them,
# chi2 and chi3 through _log_ratio), and b - a; the *_bound wrappers check q.

def chi1(f3a_abs: float, f3b_abs: float, width: float) -> float:
    """((b-a)^3/96) * (|f'''(b)| mu(K) + |f'''(a)| mu(M)) through C(L) (see
    the module docstring): the same bits whichever end comes first."""
    total = f3a_abs + f3b_abs
    if not (0.0 < f3a_abs and 0.0 < f3b_abs
            and total <= 1.7976931348623157e308):  # sys.float_info.max
        if 0.0 < f3a_abs < math.inf and 0.0 < f3b_abs < math.inf:
            # the sum overflows; chi1 is linear, and halving rounds nothing
            return 2.0 * chi1(0.5 * f3a_abs, 0.5 * f3b_abs, width)
        raise DomainError(_RATIO_RULE.format(
            f3a_abs / f3b_abs if f3b_abs else f3a_abs * math.inf))
    t = (f3a_abs - f3b_abs) / total
    t *= t  # tanh(L)^2
    if t <= 1e-4:  # as on every cell of a fine division
        # sqrt(f3a f3b) C(L) = total P(t), P = C / (2 cosh L), to t^3: the
        # rest is below 3.9e-18 of P.  At K = 1 it is total * 0.25 exactly
        return width ** 3 / 96.0 * (total * (
            0.25 - t * (7 / 60 + t * (599 / 20160 + t * (253 / 16800)))))
    lo, hi = (f3a_abs, f3b_abs) if f3a_abs < f3b_abs else (f3b_abs, f3a_abs)
    k = hi / lo
    if k > 2980.9579870417283:  # e^8: s = L^2 > 16
        return width ** 3 * _far_moments(lo, hi)
    half = 0.5 * math.log(k)
    s = half * half
    series = 0.0  # C(L) at s <= 16: the terms left out are below 5.6e-20
    for coeff in _SERIES:
        series = series * s + coeff
    return width ** 3 / 96.0 * (lo * math.sqrt(k) * series)


def _far_moments(lo: float, hi: float) -> float:
    """sqrt(lo hi) C(L) / 96 for hi/lo > e^8: hi (1 + q - (2 + lam^2/4)
    sqrt(q)) / lam^4, lam = ln(hi/lo), q = lo/hi, C's closed form, whose
    bracket is in (0.67, 1).  lam is summed from exponents and mantissas, its
    rounding error entering lam^4 to first order, as 1/lam^4 magnifies it."""
    (m_hi, e_hi), (m_lo, e_lo) = math.frexp(hi), math.frexp(lo)
    big = (e_hi - e_lo) * _LN2_HI  # exact
    small = math.log(m_hi) - math.log(m_lo) + (e_hi - e_lo) * _LN2_LO
    lam = big + small
    tail = big - lam + small  # exact, as |big| > 7 > |small| (Fast2Sum)
    q = lo / hi
    return hi * (1.0 + q - (2.0 + 0.25 * lam * lam) * math.sqrt(q)) / (
        lam ** 4 + 4.0 * lam ** 3 * tail)


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
    """
    return width ** 3 / 96.0 * 0.25 ** (1.0 - 1.0 / q) * (
        f3b_abs * _qth_root(_log_ratio(f3a_abs, f3b_abs), q, True)
        + f3a_abs * _qth_root(_log_ratio(f3b_abs, f3a_abs), q, True))


def interval_chi1(f3: Sequence[float],
                  widths: Sequence[float]) -> tuple[float, ...]:
    """h * chi1(f3[i], f3[i + 1], h) for each cell i of width h = widths[i]."""
    return tuple([h * chi1(f3a, f3b, h)
                  for f3a, f3b, h in zip(f3, f3[1:], widths)])


def direct_bound(e: DerivEndpoints) -> float:
    """chi1 on a checked interval."""
    return chi1(e.f3a_abs, e.f3b_abs, e.width)


def holder_bound(e: DerivEndpoints, q: float) -> float:
    """chi2 on a checked interval; q > 1 (DomainError otherwise)."""
    _require_q(q, True, "holder_bound")
    return chi2(e.f3a_abs, e.f3b_abs, e.width, q)


def power_mean_bound(e: DerivEndpoints, q: float) -> float:
    """chi3 on a checked interval; q >= 1 (DomainError otherwise)."""
    _require_q(q, False, "power_mean_bound")
    return chi3(e.f3a_abs, e.f3b_abs, e.width, q)


# --------------------------------------------------------------------------
# The best of the three
# --------------------------------------------------------------------------

class BoundReport(Record):
    """The three bounds, chi2 and chi3 at exponent ``q``, and the winner."""
    __slots__, _fields = (), (
        "chi1", "chi2", "chi3", "q", "min_value",  # floats
        "argmin_label")                            # "chi1" | "chi2" | "chi3"


def best_bound(e: DerivEndpoints, q: float = DEFAULT_Q) -> BoundReport:
    """chi1, plus chi2 and chi3 at exponent q > 1, and the least of them.

    The minimum is chi1 up to rounding for every q (see the module
    docstring); ties resolve toward chi1, then chi2.
    """
    chi1 = direct_bound(e)
    chi2 = holder_bound(e, q)
    chi3 = power_mean_bound(e, q)
    min_value, argmin_label = min((chi1, "chi1"), (chi2, "chi2"),
                                  (chi3, "chi3"), key=lambda c: c[0])
    return BoundReport(chi1=chi1, chi2=chi2, chi3=chi3, q=q,
                       min_value=min_value, argmin_label=argmin_label)
