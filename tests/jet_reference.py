"""Reference jet evaluator: a recursive walk of the AST, one Jet per node.

This is the tree-walker that :func:`hh3.expr.compile_jet3` replaces.  It
performs every float operation of the jet rules; the compiled functions
leave out the terms with a zero factor that the derivatives of ``x`` and
of constants make, and perform the rest in the walker's order.  So the
tests hold them to the walker's errors and the bits of its value, and to
its derivatives up to the sign of a zero.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from hh3.errors import DomainError
from hh3.expr import (_CONSTANTS, _MAX_INT_EXPONENT, BinOp, Const, Func, Neg,
                      Node, Num, Var, _domain)


class Jet(NamedTuple):
    """Value and first three derivatives of a function at one point."""

    d0: float
    d1: float
    d2: float
    d3: float


def _const_jet(c: float) -> Jet:
    return Jet(c, 0.0, 0.0, 0.0)


def _add(a: Jet, b: Jet) -> Jet:
    return Jet(a.d0 + b.d0, a.d1 + b.d1, a.d2 + b.d2, a.d3 + b.d3)


def _sub(a: Jet, b: Jet) -> Jet:
    return Jet(a.d0 - b.d0, a.d1 - b.d1, a.d2 - b.d2, a.d3 - b.d3)


def _neg(a: Jet) -> Jet:
    return Jet(-a.d0, -a.d1, -a.d2, -a.d3)


def _mul(a: Jet, b: Jet) -> Jet:
    # Leibniz: (fg)''' = f'''g + 3 f''g' + 3 f'g'' + f g'''
    return Jet(
        a.d0 * b.d0,
        a.d1 * b.d0 + a.d0 * b.d1,
        a.d2 * b.d0 + 2.0 * a.d1 * b.d1 + a.d0 * b.d2,
        a.d3 * b.d0 + 3.0 * a.d2 * b.d1 + 3.0 * a.d1 * b.d2 + a.d0 * b.d3,
    )


def _div(a: Jet, b: Jet) -> Jet:
    # Solve q*b = a order by order (b.d0 != 0 is checked by the caller).
    q0 = a.d0 / b.d0
    q1 = (a.d1 - q0 * b.d1) / b.d0
    q2 = (a.d2 - q0 * b.d2 - 2.0 * q1 * b.d1) / b.d0
    q3 = (a.d3 - q0 * b.d3 - 3.0 * q1 * b.d2 - 3.0 * q2 * b.d1) / b.d0
    return Jet(q0, q1, q2, q3)


def _power(node: Node, x: float, v: float, c: float, why: str) -> float:
    """v ** c, or DomainError ``why`` where it overflows."""
    try:
        return v ** c
    except OverflowError:
        raise _domain(node, x, why) from None


def _compose(node: Node, x: float, g: tuple[float, float, float, float],
             u: Jet) -> Jet:
    # Order-3 chain rule with outer derivatives g = (g, g', g'', g''') at u.d0.
    g0, g1, g2, g3 = g
    u1, u2, u3 = u.d1, u.d2, u.d3
    cube = _power(node, x, u1, 3,
                  "derivative of the argument overflows when cubed")
    return Jet(
        g0,
        g1 * u1,
        g2 * u1 * u1 + g1 * u2,
        g3 * cube + 3.0 * g2 * u1 * u2 + g1 * u3,
    )


def _int_pow(u: Jet, n: int) -> Jet:
    """u**n for integer n >= 0 by repeated jet multiplication."""
    result = _const_jet(1.0)
    base = u
    k = n
    while k:
        if k & 1:
            result = _mul(result, base)
        base = _mul(base, base)
        k >>= 1
    return result


def _eval(node: Node, x: float) -> Jet:
    if isinstance(node, Num):
        return _const_jet(node.value)
    if isinstance(node, Var):
        return Jet(x, 1.0, 0.0, 0.0)
    if isinstance(node, Const):
        return _const_jet(_CONSTANTS[node.name])
    if isinstance(node, Neg):
        return _neg(_eval(node.operand, x))
    if isinstance(node, Func):
        u = _eval(node.arg, x)
        return _apply_func(node, u, x)
    if isinstance(node, BinOp):
        a = _eval(node.left, x)
        if node.op == "^":
            return _apply_pow(node, a, x)
        b = _eval(node.right, x)
        if node.op == "+":
            return _add(a, b)
        if node.op == "-":
            return _sub(a, b)
        if node.op == "*":
            return _mul(a, b)
        if b.d0 == 0.0:
            raise _domain(node, x, "division by zero")
        return _div(a, b)
    raise TypeError(f"not an expression node: {node!r}")


def _apply_func(node: Func, u: Jet, x: float) -> Jet:
    v = u.d0
    name = node.name
    if name == "exp":
        try:
            ev = math.exp(v)
        except OverflowError:
            raise _domain(node, x, "exp overflow") from None
        return _compose(node, x, (ev, ev, ev, ev), u)
    if name == "log":
        if v <= 0.0:
            raise _domain(node, x, "log needs a positive argument")
        iv = 1.0 / v
        iv3 = _power(node, x, iv, 3,
                     "log argument too small for its derivatives")
        return _compose(node, x, (math.log(v), iv, -iv * iv, 2.0 * iv3), u)
    if name in ("sin", "cos"):
        if math.isinf(v):
            raise _domain(node, x, f"{name} needs a finite argument")
        s, c = math.sin(v), math.cos(v)
        g = (s, c, -s, -c) if name == "sin" else (c, -s, -c, s)
        return _compose(node, x, g, u)
    # sqrt: derivatives blow up at 0, so the open condition v > 0 is required
    if v <= 0.0:
        raise _domain(node, x, "sqrt needs a positive argument")
    r = math.sqrt(v)
    if r * v * v == 0.0:
        raise _domain(node, x, "sqrt argument too small for its derivatives")
    return _compose(
        node, x, (r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)), u
    )


def _apply_pow(node: BinOp, base: Jet, x: float) -> Jet:
    exponent = _eval(node.right, x)
    if exponent.d1 == 0.0 and exponent.d2 == 0.0 and exponent.d3 == 0.0:
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
        # u^c = exp(c*log u): compose the closed-form outer derivatives
        v = base.d0
        g0 = _power(node, x, v, c, "power overflow")
        v3 = _power(node, x, v, 3,
                    "base too large for the power's derivatives")
        if v3 == 0.0:
            raise _domain(node, x,
                          "base too small for the power's derivatives")
        g1 = c * g0 / v
        g2 = c * (c - 1.0) * g0 / (v * v)
        g3 = c * (c - 1.0) * (c - 2.0) * g0 / v3
        return _compose(node, x, (g0, g1, g2, g3), base)
    if base.d0 <= 0.0:
        raise _domain(node, x, "variable exponent needs a positive base")
    log_base = _apply_func(Func("log", node.left), base, x)
    product = _mul(exponent, log_base)
    return _apply_func(Func("exp", node), product, x)


def eval_jet3_reference(node: Node, x: float) -> Jet:
    """The tree-walk counterpart of :func:`hh3.expr.eval_jet3`."""
    if not math.isfinite(x):
        raise DomainError("evaluation point must be finite", x=x)
    jet = _eval(node, x)
    if not all(map(math.isfinite, jet)):
        raise _domain(node, x, "result is not finite")
    return jet
