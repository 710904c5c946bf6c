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

import math
from dataclasses import dataclass

from .errors import BadInterval, DomainError, NonPositiveThirdDerivative

__all__ = [
    "L_SWITCH", "DerivEndpoints", "RatioPair", "HolderExponents",
    "BoundReport", "ratio_pair", "holder_exponents", "mu", "mu_q",
    "holder_factor", "chi1", "direct_bound", "holder_bound",
    "power_mean_bound", "best_bound", "DEFAULT_Q", "METHOD_NAMES",
]

#: |ln K| at or below which the moment series is used instead of the closed
#: form, which cancels in e^L poly(L) + 6: against mpmath it is off by up to
#: ~5300 ulps for |ln K| in (0.5, 1] and ~120 in (2, 2.5], but ~12 beyond 4,
#: where the series (within ~11 ulps below 4, about 30 terms at 4) loses more.
L_SWITCH = 4.0

_SERIES_RELTOL = 1e-18
_HALF_LOG_LIMIT = 700.0  # exp() overflows just above exp(709)

#: Method tokens accepted by the composite layer and the CLI; "best" is
#: an alias of "thm1".
METHOD_NAMES = ("thm1", "thm2", "thm3", "best")

#: The exponent of chi2 and chi3 when none is given.
DEFAULT_Q = 2.0


# --------------------------------------------------------------------------
# Input records
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivEndpoints:
    """|f'''| magnitudes at the interval endpoints, plus the interval."""

    f3a_abs: float
    f3b_abs: float
    a: float
    b: float

    def __post_init__(self):
        for x, v in ((self.a, self.f3a_abs), (self.b, self.f3b_abs)):
            if not (math.isfinite(v) and v > 0.0):
                raise NonPositiveThirdDerivative(x, v)
        if not (math.isfinite(self.a) and math.isfinite(self.b)
                and self.a < self.b):
            raise BadInterval(f"need finite a < b, got [{self.a!r}, {self.b!r}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class RatioPair:
    """The two endpoint derivative ratios; K * M == 1 up to rounding."""

    K: float
    M: float


def ratio_pair(e: DerivEndpoints) -> RatioPair:
    # Both ratios are formed directly from the magnitudes (not as 1/K) so
    # that swapping the endpoints swaps K and M exactly.
    return RatioPair(K=e.f3a_abs / e.f3b_abs, M=e.f3b_abs / e.f3a_abs)


@dataclass(frozen=True)
class HolderExponents:
    """A conjugate pair 1/p + 1/q = 1 with q > 1."""

    q: float
    p: float


def holder_exponents(q: float) -> HolderExponents:
    if not (math.isfinite(q) and q > 1.0):
        raise DomainError(f"Holder exponent q must satisfy q > 1, got {q!r}")
    return HolderExponents(q=q, p=q / (q - 1.0))


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


def _require_ratio(k: float) -> float:
    if not (isinstance(k, (int, float)) and math.isfinite(k) and k > 0.0):
        raise DomainError(f"derivative ratio must be finite and positive, got {k!r}")
    return float(k)


def mu(k: float) -> float:
    """The weight in the direct bound: integral of t^3 k^(t/2), t in [0,1].

    mu(1) = 1/4 exactly; mu is increasing and positive.
    """
    return _moment_from_log(math.log(_require_ratio(k)))


def mu_q(k: float, q: float) -> float:
    """mu evaluated on the q-th power of the ratio, computed in log space.

    Never forms k**q: the substitution ln K -> q ln K feeds the same
    series/closed-form split, so mu_q(k, 1) == mu(k) exactly and large q
    stays accurate.  Raises the builtin OverflowError when q*ln(k)/2 > 700,
    where the closed form's exp() would overflow.
    """
    k = _require_ratio(k)
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"power-mean exponent q must satisfy q >= 1, got {q!r}")
    lam = q * math.log(k)
    if lam / 2.0 > _HALF_LOG_LIMIT:
        raise OverflowError(
            f"q*ln(K)/2 = {lam / 2.0!r} exceeds {_HALF_LOG_LIMIT}; "
            "the ratio is too extreme for this q"
        )
    return _moment_from_log(lam)


def holder_factor(k: float, q: float) -> float:
    """(2 / (q ln k)) * (k^(q/2) - 1), the Holder route's ratio weight.

    Equals expm1(u)/u at u = q*ln(k)/2, which tends to 1 as k -> 1; expm1
    keeps that limit exact to machine precision.
    """
    k = _require_ratio(k)
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"Holder factor needs q >= 1, got {q!r}")
    u = q * math.log(k) / 2.0
    if u > _HALF_LOG_LIMIT:
        raise OverflowError(
            f"q*ln(K)/2 = {u!r} exceeds {_HALF_LOG_LIMIT}; "
            "the ratio is too extreme for this q"
        )
    if u == 0.0:
        return 1.0
    return math.expm1(u) / u


def _qth_root(weight, k: float, q: float) -> float:
    """weight(k, q) ** (1/q), for weight holder_factor or mu_q.

    Where u = q ln(k)/2 exceeds the exp() limit the weight itself may not fit
    in a float, so the root is taken in log space from

        ln holder_factor(k, q) = u - ln u
        ln mu_q(k, q)          = u - ln u + ln(1 - 3/u + 6/u^2 - 6/u^3)

    which drop only terms of relative size e^-u < 1e-304.  Elsewhere the
    power is taken directly, as it always was.
    """
    log_k = math.log(_require_ratio(k))
    u = q * log_k / 2.0  # as the weights compute it, so the branches agree
    if u <= _HALF_LOG_LIMIT:
        return weight(k, q) ** (1.0 / q)
    half = log_k / 2.0
    log_root = half - (math.log(q) + math.log(half)) / q
    if weight is mu_q:
        log_root += math.log1p((-3.0 + (6.0 - 6.0 / u) / u) / u) / q
    return math.exp(log_root)


# --------------------------------------------------------------------------
# The three bounds
# --------------------------------------------------------------------------

def chi1(f3a_abs: float, f3b_abs: float, width: float) -> float:
    """direct_bound from checked magnitudes; K and M are checked by mu."""
    return width ** 3 / 96.0 * (f3b_abs * mu(f3a_abs / f3b_abs)
                                + f3a_abs * mu(f3b_abs / f3a_abs))


def direct_bound(e: DerivEndpoints) -> float:
    """chi1: ((b-a)^3/96) * (|f'''(b)| mu(K) + |f'''(a)| mu(M))."""
    return chi1(e.f3a_abs, e.f3b_abs, e.width)


def holder_bound(e: DerivEndpoints, q: float) -> float:
    """chi2 with exponent q > 1:

    ((b-a)^3/96) (1/(3p+1))^(1/p) (|f'''(b)| hf(K,q)^(1/q)
                                   + |f'''(a)| hf(M,q)^(1/q)).
    """
    exps = holder_exponents(q)
    r = ratio_pair(e)
    scale = e.width ** 3 / 96.0
    kernel = (1.0 / (3.0 * exps.p + 1.0)) ** (1.0 / exps.p)
    return scale * kernel * (
        e.f3b_abs * _qth_root(holder_factor, r.K, q)
        + e.f3a_abs * _qth_root(holder_factor, r.M, q)
    )


def power_mean_bound(e: DerivEndpoints, q: float) -> float:
    """chi3 with exponent q >= 1:

    ((b-a)^3/96) (1/4)^(1-1/q) (|f'''(b)| mu_q(K,q)^(1/q)
                                + |f'''(a)| mu_q(M,q)^(1/q)).

    At q = 1 every factor reduces literally to the direct bound's: the
    prefactor is (1/4)^0 == 1.0 and x ** 1.0 == x, so the two agree bit for
    bit.
    """
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"power-mean exponent q must satisfy q >= 1, got {q!r}")
    r = ratio_pair(e)
    scale = e.width ** 3 / 96.0
    kernel = 0.25 ** (1.0 - 1.0 / q)
    return scale * kernel * (
        e.f3b_abs * _qth_root(mu_q, r.K, q)
        + e.f3a_abs * _qth_root(mu_q, r.M, q)
    )


# --------------------------------------------------------------------------
# The best of the three
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
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
    min_value, argmin_label = chi1, "chi1"
    if chi2 < min_value:
        min_value, argmin_label = chi2, "chi2"
    if chi3 < min_value:
        min_value, argmin_label = chi3, "chi3"
    return BoundReport(chi1=chi1, chi2=chi2, chi3=chi3, q=DEFAULT_Q,
                       min_value=min_value, argmin_label=argmin_label)
