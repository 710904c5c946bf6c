"""Exception types shared across the package.

Everything raised deliberately by this library derives from ``Hh3Error``,
so callers can catch one type.  ``require_interval`` is the one check that
an interval is finite with a < b.  Overflow inside the moment helpers uses the
builtin ``OverflowError`` (it is an overflow, and the builtin name says so).
"""

from __future__ import annotations

import math


class Hh3Error(Exception):
    """Base class for errors raised by this package."""


class ExprSyntaxError(Hh3Error):
    """Raised when expression text cannot be parsed.

    ``offset`` is the byte offset into the source string where the parse
    stopped, and ``expected`` is the tuple of token descriptions that would
    have been accepted there.
    """

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        want = " or ".join(expected)
        super().__init__(f"offset {offset}: expected {want}, found {found}")


class UnknownIdentifier(ExprSyntaxError):
    """Raised for names that are not ``x``, a known constant or function."""

    def __init__(self, offset: int, name: str):
        self.name = name
        Hh3Error.__init__(self, f"offset {offset}: unknown identifier {name!r}")
        self.offset = offset
        self.expected = ("x", "pi", "e", "exp", "log", "sin", "cos", "sqrt")
        self.found = name


class DomainError(Hh3Error):
    """A value left the mathematical domain of an operation.

    Carries the offending (sub)expression text and the evaluation point when
    they are known; both stay ``None`` for scalar helpers such as the moment
    functions.
    """

    def __init__(self, message: str, *, expr_text: str | None = None,
                 x: float | None = None):
        self.expr_text = expr_text
        self.x = x
        if expr_text is not None and x is not None:
            message = f"{message} (in {expr_text!r} at x = {x!r})"
        elif expr_text is not None:
            message = f"{message} (in {expr_text!r})"
        super().__init__(message)


class NonPositiveThirdDerivative(Hh3Error):
    """|f'''| vanished (or was not finite) where a bound needs it positive."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        super().__init__(
            f"|f'''| must be positive and finite; got {value!r} at x = {x!r}"
        )


class BadInterval(Hh3Error):
    """Interval endpoints are not finite numbers with a < b."""


def require_interval(a: float, b: float) -> None:
    """Raise :class:`BadInterval` unless a and b are finite with a < b."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise BadInterval(f"need finite a < b, got [{a!r}, {b!r}]")


class NonConvergence(Hh3Error):
    """The adaptive reference integrator exhausted its evaluation budget."""

    def __init__(self, evals: int):
        self.evals = evals
        super().__init__(
            f"reference integration did not converge within {evals} evaluations"
        )


class ToleranceUnreachable(Hh3Error):
    """Refinement hit its cap before the certified bound met the tolerance."""

    def __init__(self, tol: float, best_bound: float, n_final: int):
        self.tol = tol
        self.best_bound = best_bound
        self.n_final = n_final
        super().__init__(
            f"certified bound {best_bound!r} did not reach tol {tol!r} "
            f"by n = {n_final}"
        )


class BelowRoundingFloor(ToleranceUnreachable):
    """The tolerance is below half an ulp of every corrected sum that this
    or a later level could print with a bound that meets it, so no
    refinement can certify it; ``floor`` is that half ulp."""

    def __init__(self, tol: float, best_bound: float, n_final: int,
                 floor: float):
        self.tol = tol
        self.best_bound = best_bound
        self.n_final = n_final
        self.floor = floor
        Hh3Error.__init__(
            self, f"tol {tol!r} is below the rounding floor {floor!r} of "
                  f"the corrected sum at n = {n_final}; no certified bound "
                  f"can reach it")


class NotConvex(Hh3Error):
    """Sampled convexity check failed; carries a witness point."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        super().__init__(f"f'' = {value!r} < 0 at x = {x!r}; f is not convex there")
