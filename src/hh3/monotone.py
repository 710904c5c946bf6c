"""A proof of the bounds' hypothesis from the expression tree.

g is completely monotone (CM) in x on an interval when (-1)^j g^(j) >= 0
there for every j, and CM in -x when every g^(j) >= 0.  A CM function on a
half-line is a Laplace transform of a positive measure (Bernstein), so by
Cauchy-Schwarz g g'' >= g'^2: g is log-convex.  The derivative of a CM
function is -(CM) in x and CM in -x, so if f^(j0) is plus or minus a CM
function that is not constant, then every |f^(k)|, k >= j0, is log-convex
and never zero; for j0 <= 3 that is the hypothesis of :mod:`hh3.bounds`.
Schilling, Song & Vondracek, *Bernstein Functions*, 2nd ed., de Gruyter
2012, ch. 1.

:func:`classify_cm` finds such a j0 by one walk of the tree: it compiles
no jet and evaluates f nowhere.
"""

import math

from .expr import _CONSTANTS, _FOLDABLE, BinOp, Const, Func, Neg, Node, \
    Num, Var, _reads_x

__all__ = ["CM_X", "CM_NEG_X", "classify_cm", "proved_block"]

# A number is an exact rational (numerator, denominator > 0), so each sign
# below is that of the expression with its literals read as the doubles
# the parser reads, and pi, e and each function of a constant rounded to a
# double.  A polynomial of degree <= 3 is the list of its coefficients, a
# classified term the tuple (class, sign, j0) of classify_cm, where f^(j0)
# is not constant.

#: The classes: f^(j0) is completely monotone in x, or in -x.
CM_X, CM_NEG_X = "cm(x)", "cm(-x)"

_MINUS = (-1, 1)


def _sign(q: tuple[int, int]) -> int:
    return (q[0] > 0) - (q[0] < 0)


def _add_q(p, q):
    return p[0] * q[1] + q[0] * p[1], p[1] * q[1]


def _mul_q(p, q):
    return p[0] * q[0], p[1] * q[1]


def _float(q) -> float:
    return q[0] / q[1]  # rounded once; OverflowError beyond float range


def _const(value: float) -> list:
    return [value.as_integer_ratio(), (0, 1), (0, 1), (0, 1)]


def _degree(v) -> int | None:
    """A polynomial's degree (-1 for 0), None for anything else."""
    if isinstance(v, list):
        return max((i for i, c in enumerate(v) if c[0]), default=-1)
    return None


def _is_const(v) -> bool:
    return _degree(v) in (-1, 0)


def _side(u: list, ends) -> int:
    """The sign of the affine u on all of [a, b], or 0 where it changes."""
    signs = {_sign(_add_q(_mul_q(u[1], x), u[0])) for x in ends}
    return signs.pop() if len(signs) == 1 else 0


def _sign_at(term: tuple, j: int) -> int:
    """The sign of f^(j), j >= j0, for f classified as ``term``."""
    cls, sign, j0 = term
    return sign if cls == CM_NEG_X or (j - j0) % 2 == 0 else -sign


def _scale(v, k: tuple[int, int]):
    if isinstance(v, list):
        return [_mul_q(c, k) for c in v]
    if v is None:
        return None
    return (v[0], v[1] * _sign(k), v[2]) if k[0] else _const(0.0)


def _add(left, right):
    """Terms add where they agree in class and sign at the higher j0; a
    polynomial of degree d adds a constant at order d and 0 beyond it."""
    if left is None or right is None:
        return None
    if isinstance(left, list) and isinstance(right, list):
        return list(map(_add_q, left, right))
    if isinstance(left, list):
        left, right = right, left
    if isinstance(right, list):
        d = _degree(right)
        j = max(left[2], d)
        if j == d and _sign(right[d]) != _sign_at(left, j):
            j += 1
    else:
        j = max(left[2], right[2])
        if left[0] != right[0] or _sign_at(left, j) != _sign_at(right, j):
            return None
    return left[0], _sign_at(left, j), j


def _mul(left, right):
    """A constant scales; two polynomials multiply up to degree 3; two
    terms multiply where both have j0 = 0 and one class."""
    for v, k in ((left, right), (right, left)):
        if _is_const(k):
            return _scale(v, k[0])
    if isinstance(left, list) and isinstance(right, list):
        out = [(0, 1)] * 7
        for i, p in enumerate(left):
            for j, q in enumerate(right):
                out[i + j] = _add_q(out[i + j], _mul_q(p, q))
        return out[:4] if _degree(out) <= 3 else None
    if (isinstance(left, tuple) and isinstance(right, tuple)
            and left[0] == right[0] and left[2] == right[2] == 0):
        return left[0], left[1] * right[1], 0
    return None


def _power(u: list, p: float, ends):
    """u^p for a non-constant affine u: a polynomial for p = 0 to 3, a term
    where u keeps one sign and p is negative (an integer if u < 0) or not
    an integer, so that (u^p)^(j0) ~ u^(p - j0) with p - j0 < 0."""
    if p == int(p) and p >= 0:
        if p > 3:  # no atom: |(x^4)'''| = 24x is log-concave
            return None
        v = _const(1.0)
        for _ in range(int(p)):
            v = _mul(v, u)
        return v
    side = _side(u, ends)
    if side < 0 and p == int(p):  # u^p = (-1)^p (-u)^p
        return _scale(_power(_scale(u, _MINUS), p, ends),
                      _MINUS if p % 2 else (1, 1))
    if side <= 0:
        return None
    j0 = 0 if p < 0 else math.floor(p) + 1
    if u[1][0] > 0:
        return CM_X, 1, j0
    return CM_NEG_X, -1 if j0 % 2 else 1, j0


def _as_power(node: Node, ends):
    """(u, p) where node is u^p, sqrt(u) (p = 0.5) or u (p = 1) with a
    constant p; None where its exponent reads x, even at a constant value."""
    if isinstance(node, Func) and node.name == "sqrt":
        return _cm(node.arg, ends), 0.5
    if isinstance(node, BinOp) and node.op == "^":
        e = None if _reads_x(node.right) else _cm(node.right, ends)
        return (_cm(node.left, ends), _float(e[0])) if _is_const(e) else None
    return _cm(node, ends), 1.0


def _reciprocal(node: Node, ends):
    """1/node for node = exp(u), or u^p, sqrt(u) or u with u affine."""
    if isinstance(node, Func) and node.name == "exp":
        return _cm(Func("exp", Neg(node.arg)), ends)
    u, p = _as_power(node, ends) or (None, 0.0)
    return _power(u, -p, ends) if _degree(u) == 1 else None


def _cm(node: Node, ends):
    """A polynomial, a term, or None for ``node`` on [a, b] = ends."""
    if isinstance(node, Var):
        return [(0, 1), (1, 1), (0, 1), (0, 1)]
    if isinstance(node, Num):
        return _const(node.value)
    if isinstance(node, Const):
        return _const(_CONSTANTS[node.name])
    if isinstance(node, Neg):
        return _scale(_cm(node.operand, ends), _MINUS)
    if isinstance(node, Func):
        u = _cm(node.arg, ends)
        if _is_const(u):
            return _const(_FOLDABLE[node.name](_float(u[0])))
        if node.name == "exp" and isinstance(u, tuple) and u[2] <= 1:
            s = _sign_at(u, 1)  # exp(u) is CM where u' is -CM (Feller XIII.4)
            return (u[0], 1, 0) if (s < 0) == (u[0] == CM_X) else None
        if _degree(u) != 1:
            return None
        if node.name == "exp":
            return (CM_NEG_X if u[1][0] > 0 else CM_X), 1, 0
        if node.name == "sqrt":
            return _power(u, 0.5, ends)
        if node.name == "log" and _side(u, ends) > 0:  # (log u)' = u1 / u
            return (CM_X, 1, 1) if u[1][0] > 0 else (CM_NEG_X, -1, 1)
        return None  # sin, cos, and log of a base that is not positive
    if node.op == "^":
        u, p = _as_power(node, ends) or (None, 0.0)
        if _is_const(u):
            return _const(math.pow(_float(u[0]), p))
        return _power(u, p, ends) if _degree(u) == 1 else None
    left, right = _cm(node.left, ends), _cm(node.right, ends)
    if node.op == "+":
        return _add(left, right)
    if node.op == "-":
        return _add(left, _scale(right, _MINUS))
    if node.op == "*":
        return _mul(left, right)
    if not _is_const(right):  # "/"
        return _mul(left, _reciprocal(node.right, ends))
    k = right[0]
    return _scale(left, (k[1] * _sign(k), abs(k[0]))) if k[0] else None


def classify_cm(f: Node, a: float, b: float) -> tuple[str, int, int] | None:
    """(class, sign, j0) where f^(j0) is ``sign`` (1 or -1) times a function
    completely monotone in x (:data:`CM_X`) or in -x (:data:`CM_NEG_X`) on
    a half-line holding [a, b], and is never 0 there; else None.

    So |f^(k)| is log-convex on [a, b] for every k >= j0 where it is not
    identically 0.  The atoms are constants; ``exp`` of an affine argument,
    or of a proved u with j0 <= 1 whose u' is -(CM in x) or +(CM in -x),
    as ``exp(-sqrt(x+1))`` (j0 = 0; Feller, vol. II, XIII.4); ``(x + c)^p``
    and ``(c - x)^p`` with a base of one sign on [a, b] (positive unless p
    is a negative integer) and p negative (j0 = 0) or not an integer (j0
    the first integer above p), ``sqrt`` and ``k/(affine)`` among them;
    ``log`` of a positive affine argument (j0 = 1); and polynomials of
    degree <= 3 (j0 = 3, class cm(x), as a constant is completely
    monotone in both).  No atom is an integer power >= 4, or
    a power whose exponent reads x, as ``x^(x - x + 3)`` does.  The rules:
    sums whose terms agree in class and sign at the higher j0, products of
    two j0 = 0 terms of one class (a quotient by ``exp(u)``, ``u^p`` or
    ``sqrt(u)`` is the product with its reciprocal), and scaling by a
    nonzero constant.  It compiles no jet and evaluates f nowhere.
    """
    try:
        v = _cm(f, (a.as_integer_ratio(), b.as_integer_ratio()))
    except (ArithmeticError, ValueError):  # a constant leaves float range,
        return None                         # or its function's domain
    if isinstance(v, list):  # f''' = 6 c3
        return (CM_X, _sign(v[3]), 3) if v[3][0] else None
    return v


def proved_block(f: Node, a: float, b: float) -> dict | None:
    """The ``log_convexity`` block of a :func:`classify_cm` proof with j0 <= 3
    (|f'''| log-convex, f'' and f'''' monotone on [a, b]), else None."""
    if (proof := classify_cm(f, a, b)) is None or proof[2] > 3:
        return None
    return {"passed": True, "worst_violation": None, "witness": None,
            "pairs_tested": 0, "grid_points": None, "kind": "proved",
            "class": proof[0], "j0": proof[2]}
