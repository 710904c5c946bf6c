"""Exception types shared across the package.

Everything raised deliberately by this library derives from ``Hh3Error``,
so callers can catch one type.  ``require_interval`` is the one check that
a < b and b - a are finite, ``require_f3`` that a sample of |f'''| is
finite and normal, and ``require_finite`` that a printed sum or bound is
finite.  No function of the package raises the builtin ``OverflowError``
on purpose: the bounds take their weights in log space where exp() would
overflow, and the jets turn an overflow into a :class:`DomainError`.
"""

import math
import sys


class Hh3Error(Exception):
    """Base class for errors raised by this package."""

    def __reduce__(self):  # skips __init__: its parameters are not args
        return Exception.__new__, (type(self), *self.args), vars(self)


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
    """Raised for names that are not ``x``, a known constant or function;
    ``expected`` holds the names the parser knows."""

    def __init__(self, offset: int, name: str, expected: tuple[str, ...]):
        self.name = name
        Hh3Error.__init__(self, f"offset {offset}: unknown identifier {name!r}")
        self.offset, self.expected, self.found = offset, expected, name


class DomainError(Hh3Error):
    """A value left the mathematical domain of an operation.

    Carries the offending (sub)expression text and the evaluation point when
    they are known; both stay ``None`` for scalar helpers such as the bounds
    chi1 to chi3.
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
    """|f'''| vanished, was not finite or was subnormal where a bound needs
    it positive, finite and normal."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        rule = ("a normal float; got subnormal"
                if 0.0 < value < sys.float_info.min
                else "positive and finite; got")
        super().__init__(f"|f'''| must be {rule} {value!r} at x = {x!r}")


def require_f3(x: float, magnitude: float) -> float:
    """``magnitude``, |f'''(x)|, once it is a finite normal float, else
    :class:`NonPositiveThirdDerivative`.  A subnormal one carries fewer bits
    than ln K needs: exp(-743.13) rounds to 4 * 2^-1074, 7.9% off."""
    if 2.2250738585072014e-308 <= magnitude < math.inf:  # sys.float_info.min
        return magnitude
    raise NonPositiveThirdDerivative(x, magnitude)


class BadInterval(Hh3Error):
    """Interval endpoints are not finite numbers with a < b."""


def require_interval(a: float, b: float) -> None:
    """Raise :class:`BadInterval` unless a < b and b - a are finite."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise BadInterval(f"need finite a < b, got [{a!r}, {b!r}]")
    if b - a == math.inf:
        raise BadInterval(f"need a finite b - a, got [{a!r}, {b!r}]")


def require_finite(name: str, value: float) -> float:
    """``value`` once it is finite, else :class:`DomainError` naming it."""
    if math.isfinite(value):
        return value
    raise DomainError(f"{name} leaves float range")


class NonConvergence(Hh3Error):
    """The adaptive reference integrator exhausted its evaluation budget, or
    after ``evals`` evaluations met a ``panel`` (lo, hi) it cannot halve."""

    def __init__(self, evals: int, panel: tuple[float, float] | None = None):
        self.evals, self.panel = evals, panel
        super().__init__(
            f"reference integration did not converge within {evals} evaluations"
            if panel is None else
            f"reference integration cannot halve the panel [{panel[0]!r}, "
            f"{panel[1]!r}]: its nodes are not distinct floats")


class ToleranceUnreachable(Hh3Error):
    """No n up to the cap meets tol; best_bound is the bound at n_final."""

    def __init__(self, tol: float, best_bound: float, n_final: int):
        self.tol, self.best_bound, self.n_final = tol, best_bound, n_final
        super().__init__(f"certified bound {best_bound!r} did not reach tol "
                         f"{tol!r} by n = {n_final}")


class BelowRoundingFloor(ToleranceUnreachable):
    """The tolerance is below ``floor``, half an ulp of the corrected sum at
    ``n_final`` or of a lower bound on its size: no double carries it."""

    def __init__(self, tol: float, best_bound: float, n_final: int,
                 floor: float):
        super().__init__(tol, best_bound, n_final)
        self.floor = floor
        self.args = (f"tol {tol!r} is below the rounding floor {floor!r} of "
                     f"the corrected sum at n = {n_final}; no certified "
                     "bound can reach it",)


class HypothesisNotProved(Hh3Error):
    """No proof from the tree that |f'''| is log-convex, the hypothesis of
    every certified bound."""

