"""Reference chi2 and chi3: the record-based one-interval bounds.

These are the Holder and power-mean bounds as they were computed before
:func:`hh3.bounds.chi2` and :func:`hh3.bounds.chi3` replaced them: a
``RatioPair`` of the two endpoint ratios and a ``HolderExponents`` pair,
each exponent and ratio checked again inside every weight.  The float-level
functions perform the same float operations in the same order, so the tests
hold them to identical bits against :func:`holder_bound_reference` and
:func:`power_mean_bound_reference`.  Only the moment ``mu`` (the
series/closed-form split, unchanged) is shared with the package.

:func:`chi1_mpmath` is chi1 as the paper writes it, two moments each by
its closed form, in mpmath with enough digits to be exact to the last bit
of a float; :func:`weighted_bound_mpmath` is chi2 or chi3 the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from hh3.bounds import DerivEndpoints, _moment_from_log
from hh3.errors import DomainError

_HALF_LOG_LIMIT = 700.0


@dataclass(frozen=True)
class RatioPair:
    K: float
    M: float


def ratio_pair(e: DerivEndpoints) -> RatioPair:
    return RatioPair(K=e.f3a_abs / e.f3b_abs, M=e.f3b_abs / e.f3a_abs)


@dataclass(frozen=True)
class HolderExponents:
    q: float
    p: float


def holder_exponents(q: float) -> HolderExponents:
    if not (math.isfinite(q) and q > 1.0):
        raise DomainError(f"Holder exponent q must satisfy q > 1, got {q!r}")
    return HolderExponents(q=q, p=q / (q - 1.0))


def _require_ratio(k: float) -> float:
    if not (isinstance(k, (int, float)) and math.isfinite(k) and k > 0.0):
        raise DomainError(
            f"derivative ratio must be finite and positive, got {k!r}")
    return float(k)


def mu_q(k: float, q: float) -> float:
    k = _require_ratio(k)
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"power-mean exponent q must satisfy q >= 1, got {q!r}")
    lam = q * math.log(k)
    if lam / 2.0 > _HALF_LOG_LIMIT:
        raise OverflowError("q*ln(K)/2 too large")
    return _moment_from_log(lam)


def holder_factor(k: float, q: float) -> float:
    k = _require_ratio(k)
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"Holder factor needs q >= 1, got {q!r}")
    u = q * math.log(k) / 2.0
    if u > _HALF_LOG_LIMIT:
        raise OverflowError("q*ln(K)/2 too large")
    if u == 0.0:
        return 1.0
    return math.expm1(u) / u


def _qth_root(weight, k: float, q: float) -> float:
    log_k = math.log(_require_ratio(k))
    u = q * log_k / 2.0
    if abs(u) <= _HALF_LOG_LIMIT:
        return weight(k, q) ** (1.0 / q)
    half = log_k / 2.0
    log_u = math.log(q) + math.log(abs(half))
    if u < 0.0:
        log_weight = math.log(6.0) - 4.0 * log_u if weight is mu_q else -log_u
        return math.exp(log_weight / q)
    log_root = half - log_u / q
    if weight is mu_q:
        log_root += math.log1p((-3.0 + (6.0 - 6.0 / u) / u) / u) / q
    return math.exp(log_root)


def holder_bound_reference(e: DerivEndpoints, q: float) -> float:
    exps = holder_exponents(q)
    r = ratio_pair(e)
    scale = e.width ** 3 / 96.0
    kernel = (1.0 / (3.0 * exps.p + 1.0)) ** (1.0 / exps.p)
    return scale * kernel * (
        e.f3b_abs * _qth_root(holder_factor, r.K, q)
        + e.f3a_abs * _qth_root(holder_factor, r.M, q)
    )


def power_mean_bound_reference(e: DerivEndpoints, q: float) -> float:
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"power-mean exponent q must satisfy q >= 1, got {q!r}")
    r = ratio_pair(e)
    scale = e.width ** 3 / 96.0
    kernel = 0.25 ** (1.0 - 1.0 / q)
    return scale * kernel * (
        e.f3b_abs * _qth_root(mu_q, r.K, q)
        + e.f3a_abs * _qth_root(mu_q, r.M, q)
    )


def moment_mpmath(lam) -> mpmath.mpf:
    """mu at ln K = lam by the closed form (e^L (L^3 - 3 L^2 + 6 L - 6) + 6)
    / L^4, L = lam/2, in the current precision.  It cancels to about L^4/4,
    so the caller's precision must cover the 4 log10(1/|L|) digits lost."""
    half = mpmath.mpf(lam) / 2
    if not half:
        return mpmath.mpf(1) / 4
    return (mpmath.exp(half) * (((half - 3) * half + 6) * half - 6)
            + 6) / half ** 4


def chi1_mpmath(f3a: float, f3b: float, width: float) -> float:
    """((b-a)^3/96) (|f'''(b)| mu(K) + |f'''(a)| mu(M)) for these floats,
    in 50 digits beyond what the closed forms lose, rounded once."""
    half = abs(math.log(f3a) - math.log(f3b)) / 2 or 1.0
    with mpmath.workdps(60 + max(0, int(-4 * math.log10(half)))):
        a, b = mpmath.mpf(f3a), mpmath.mpf(f3b)
        lam = mpmath.log(a) - mpmath.log(b)
        return float(mpmath.mpf(width) ** 3 / 96
                     * (b * moment_mpmath(lam) + a * moment_mpmath(-lam)))


def weighted_bound_mpmath(f3a: float, f3b: float, width: float, q: float,
                          power_mean: bool) -> float:
    """chi3 if ``power_mean``, else chi2, for these floats: each weight
    as the paper writes it, mu by :func:`moment_mpmath` and the Holder
    factor as expm1(u)/u, its q-th root taken as exp(ln(weight) / q), in
    60 digits, rounded once.  q ln K / 2 may be far outside float range."""
    with mpmath.workdps(60):
        a, b, q = mpmath.mpf(f3a), mpmath.mpf(f3b), mpmath.mpf(q)
        lam = mpmath.log(a) - mpmath.log(b)

        def root(lam):
            if power_mean:
                weight = moment_mpmath(q * lam)
            else:
                u = q * lam / 2
                weight = mpmath.expm1(u) / u if u else mpmath.mpf(1)
            return mpmath.exp(mpmath.log(weight) / q)

        if power_mean:
            factor = (mpmath.mpf(1) / 4) ** (1 - 1 / q)
        else:
            p = q / (q - 1)
            factor = (1 / (3 * p + 1)) ** (1 / p)
        return float(mpmath.mpf(width) ** 3 / 96 * factor
                     * (b * root(lam) + a * root(-lam)))
