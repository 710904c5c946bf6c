"""Reference jet evaluator: a recursive walk of the AST, one Jet per node.

This is the tree-walker that :func:`hh3.expr.compile_jet` replaces.  It
performs every float operation of the jet rules; the compiled functions
leave out the terms with a zero factor that the derivatives of ``x`` and
of constants make, and perform the rest in the walker's order.  So the
tests hold them to the walker's errors and the bits of its value, and to
its derivatives up to the sign of a zero.

Each function's derivatives come from the ODE it solves, differentiated k
times and solved for the (k+1)-th derivative p_(k+1) of the result p; d is
the argument's derivative u'.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, neg, sub
from typing import NamedTuple

from hh3.errors import DomainError
from hh3.expr import (_CONSTANTS, _MAX_INT_EXPONENT, BinOp, Const, Func, Neg,
                      Node, Num, Var, _domain, _reads_x)

_NORMAL_MIN = 2.2250738585072014e-308  # sys.float_info.min


class Jet(NamedTuple):
    """Value and first three derivatives of a function at one point."""

    d0: float
    d1: float
    d2: float
    d3: float


_K = range(len(Jet._fields))


def _sum(terms) -> float:
    """The terms added left to right, as the compiled jets add them."""
    return reduce(add, terms)


def _const_jet(c: float) -> Jet:
    return Jet(c, 0.0, 0.0, 0.0)


def _leibniz(k: int, a, b, sign: int = 1) -> list[float]:
    """The terms of the k-th derivative of sign * a * b, j = 0..k."""
    return [sign * math.comb(k, j) * a[k - j] * b[j] for j in range(k + 1)]


def _mul(a: Jet, b: Jet) -> Jet:
    return Jet(*(_sum(_leibniz(k, a, b)) for k in _K))


def _div(a: Jet, b: Jet) -> Jet:
    # Solve q*b = a order by order (b.d0 != 0 is checked by the caller).
    q = []
    for k in _K:
        terms = (-math.comb(k, j) * q[k - j] * b[j] for j in range(k, 0, -1))
        q.append(_sum([a[k], *terms]) / b[0])
    return Jet(*q)


def _ode(value: float, step) -> Jet:
    """The jet whose p_(k+1) is step(k, p) from p = p_0..p_k."""
    p = [value]
    for k in _K[:-1]:
        p.append(step(k, p))
    return Jet(*p)


def _power_step(c: float, u: Jet):
    """p_(k+1) of p = u^c from u p' = c p d, each coefficient of a term
    gathered: m_kj = c C(k, j) - C(k, j + 1)."""
    def step(k, p):
        m = [math.comb(k, j) * c - math.comb(k, j + 1) if j < k else c
             for j in range(k + 1)]
        return _sum(m[j] * p[k - j] * u[j + 1] for j in range(k + 1)) / u[0]
    return step


def _int_pow(u: Jet, n: int) -> Jet:
    """u**n for integer n >= 0 by repeated jet multiplication."""
    result = _const_jet(1.0)
    while n:
        if n & 1:
            result = _mul(result, u)
        u = _mul(u, u)
        n >>= 1
    return result


def _eval(node: Node, x: float) -> Jet:
    if isinstance(node, Num):
        return _const_jet(node.value)
    if isinstance(node, Var):
        return Jet(x, 1.0, 0.0, 0.0)
    if isinstance(node, Const):
        return _const_jet(_CONSTANTS[node.name])
    if isinstance(node, Neg):
        return Jet(*map(neg, _eval(node.operand, x)))
    if isinstance(node, Func):
        u = _eval(node.arg, x)
        return _apply_func(node.name, node, u, x)
    if isinstance(node, BinOp):
        a = _eval(node.left, x)
        if node.op == "^":
            return _apply_pow(node, a, x)
        b = _eval(node.right, x)
        if node.op in "+-":
            return Jet(*map(add if node.op == "+" else sub, a, b))
        if node.op == "*":
            return _mul(a, b)
        if b.d0 == 0.0:
            raise _domain(node, x, "division by zero")
        return _div(a, b)
    raise TypeError(f"not an expression node: {node!r}")


def _require_normal(node: Node, u: Jet, x: float, what: str) -> None:
    """A subnormal u.d0 where u moves with x (u.d1 != 0) carries too few
    bits for the rules that divide by it."""
    if u.d0 < _NORMAL_MIN and u.d1 != 0.0:
        raise _domain(node, x,
                      f"{what} is subnormal, too few bits for its derivatives")


def _apply_func(name: str, node: Node, u: Jet, x: float) -> Jet:
    """The jet of the function ``name`` of u; errors name ``node``."""
    v, d = u.d0, u[1:]
    if name == "exp":  # p' = p d
        try:
            value = math.exp(v)
        except OverflowError:
            raise _domain(node, x, "exp overflow") from None
        return _ode(value, lambda k, p: _sum(_leibniz(k, p, d)))
    if name in ("sin", "cos"):  # p' = sign h d and h' = -sign p d
        if math.isinf(v):
            raise _domain(node, x, f"{name} needs a finite argument")
        s, c = math.sin(v), math.cos(v)
        sign, p, h = (1, [s], [c]) if name == "sin" else (-1, [c], [s])
        for k in _K[:-1]:
            p.append(_sum(_leibniz(k, h, d, sign)))
            h.append(_sum(_leibniz(k, p, d, -sign)))
        return Jet(*p)
    # log and sqrt: derivatives blow up at 0, so v > 0 is required
    if v <= 0.0:
        raise _domain(node, x, f"{name} needs a positive argument")
    _require_normal(node, u, x, f"{name} argument")
    if name == "sqrt":
        return _ode(math.sqrt(v), _power_step(0.5, u))
    return Jet(math.log(v), *_div(Jet(*d, 0.0), u)[:-1])  # p' = d / u


def _apply_pow(node: BinOp, base: Jet, x: float) -> Jet:
    exponent = _eval(node.right, x)
    if not _reads_x(node.right):  # else exp(w log u), even at a constant w
        c = exponent.d0
        if abs(c) <= _MAX_INT_EXPONENT and c == int(c):
            n = int(c)
            if n >= 0:
                return _int_pow(base, n)
            if base.d0 == 0.0:
                raise _domain(node, x, "zero raised to a negative power")
            power = _int_pow(base, -n)
            if power.d0 == 0.0:  # base ** -n underflowed
                raise _domain(node, x, "base too small for a negative power")
            return _div(_const_jet(1.0), power)
        if base.d0 <= 0.0:
            raise _domain(
                node, x, "non-integer exponent needs a positive base")
        _require_normal(node, base, x, "base")
        try:
            value = base.d0 ** c
        except OverflowError:
            raise _domain(node, x, "power overflow") from None
        return _ode(value, _power_step(c, base))
    if base.d0 <= 0.0:
        raise _domain(node, x, "variable exponent needs a positive base")
    log_base = _apply_func("log", node, base, x)
    product = _mul(exponent, log_base)
    return _apply_func("exp", node, product, x)


def eval_jet3_reference(node: Node, x: float) -> Jet:
    """The tree-walk counterpart of :func:`hh3.expr.eval_jet3`."""
    if not math.isfinite(x):
        raise DomainError("evaluation point must be finite", x=x)
    jet = _eval(node, x)
    if not all(map(math.isfinite, jet)):
        raise _domain(node, x, "result is not finite")
    return jet
