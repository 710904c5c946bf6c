"""The completely monotone classifier: what it proves, what it refuses, and
that each proof holds.

Each proof is checked two ways.  The sampled pair test at 257 points must
pass wherever the classifier proves |f'''| log-convex.  And mpmath at 40
digits must find (ln|f^(k)|)'' >= 0 at sample points for every k from
max(3, j0) to 8, on random expressions the classifier accepts.
"""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hh3.analysis import check_log_convexity
from hh3.expr import Const, Func, Neg, Num, Var, parse
from hh3.monotone import CM_NEG_X, CM_X, classify_cm
from hh3.quadrature import certify
from test_analysis import CATALOG

#: Each fails the hypothesis somewhere: ln|f'''| is concave for sin, cos
#: and x^4, and mpmath finds (ln|f'''|)'' < 0 for the rest (ROADMAP).
REFUSED = ("sin(x)", "cos(x)", "exp(-100*(x-0.5)^2)", "exp(x)/(x+1)",
           "sqrt(x+0.1)*exp(-x)", "x^4", "x^4+exp(4*x)")


@pytest.mark.parametrize("source", REFUSED)
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 2.0), (0.1, 0.7)])
def test_the_classifier_refuses_what_fails_the_hypothesis(source, a, b):
    assert classify_cm(parse(source), a, b) is None


#: exp of a proved argument u: exp(u) is CM in x where u' is -(CM in x),
#: and in -x where u' is +(CM in -x) (Feller, vol. II, XIII.4).
COMPOSITIONS = (
    ("exp(-sqrt(x+1))", 0.0, 2.0, (CM_X, 1, 0)),
    ("exp(1/(x+1))", 0.0, 1.0, (CM_X, 1, 0)),
    ("exp(exp(-x))", 0.0, 1.0, (CM_X, 1, 0)),
    ("exp(-sqrt(x))", 0.1, 1.0, (CM_X, 1, 0)),
    ("exp(-sqrt(x+1))/sqrt(x+1)", 0.0, 2.0, (CM_X, 1, 0)),
    ("exp(x+exp(x))", -1.0, 0.5, (CM_NEG_X, 1, 0)),
)


@pytest.mark.parametrize("source, a, b, proof", [
    ("exp(x)", 0.0, 1.0, (CM_NEG_X, 1, 0)),
    ("exp(-2.5*x+1)", 0.0, 1.0, (CM_X, 1, 0)),
    ("2*pi*exp(x/3)", 0.0, 1.0, (CM_NEG_X, 1, 0)),
    ("1/exp(x)", 0.0, 1.0, (CM_X, 1, 0)),
    ("1/(x+2.679)", 0.9, 1.427, (CM_X, 1, 0)),
    ("-3/(x-5)", 0.0, 1.0, (CM_NEG_X, 1, 0)),   # 3/(5 - x)
    ("1/x^2", 1.0, 2.0, (CM_X, 1, 0)),
    ("(x+0.5)^-2.5+exp(-3*x)", 0.0, 1.0, (CM_X, 1, 0)),
    ("exp(-x)/(x+1)", 0.0, 1.0, (CM_X, 1, 0)),
    ("exp(x)*exp(2*x)", 0.0, 1.0, (CM_NEG_X, 1, 0)),
    ("sqrt(x+0.1)", 0.0, 1.0, (CM_X, 1, 1)),
    ("(2-x)^0.5", 0.0, 1.0, (CM_NEG_X, -1, 1)),
    ("log(x+0.3)", 0.0, 1.0, (CM_X, 1, 1)),
    ("log(1-x)", -1.0, 0.5, (CM_NEG_X, -1, 1)),
    ("exp(-x)-log(x+1)", 0.0, 1.0, (CM_X, -1, 1)),
    ("x^2+exp(-x)", 0.0, 1.0, (CM_X, 1, 2)),
    ("exp(x)-x", 0.0, 1.0, (CM_NEG_X, 1, 2)),   # f' = e^x - 1 changes sign
    ("x^3+exp(1.7*x)", 0.0, 1.0, (CM_NEG_X, 1, 3)),
    ("(x+1)*(x+2)*(x+3)", 0.0, 1.0, (CM_X, 1, 3)),
    ("-x^3", 0.0, 1.0, (CM_X, -1, 3)),
    ("(x+1)^3.5", 0.0, 1.0, (CM_X, 1, 4)),
    *COMPOSITIONS,
])
def test_the_classifier_names_class_sign_and_j0(source, a, b, proof):
    assert classify_cm(parse(source), a, b) == proof


@pytest.mark.parametrize("source, a, b", [
    ("log(x)", -1.0, 1.0), ("1/x", -1.0, 1.0), ("sqrt(x-0.5)", 0.0, 1.0),
    ("(x-2)^0.5", 0.0, 1.0),               # a negative base, p not integer
    ("x^2", 0.0, 1.0), ("x^3-x^3", 0.0, 1.0), ("5", 0.0, 1.0),   # f''' = 0
    ("exp(x)+exp(-x)", 0.0, 1.0),          # two classes
    ("exp(x)-exp(2*x)", 0.0, 1.0),         # two signs
    ("x*exp(x)", 0.0, 1.0), ("exp(x)^2", 0.0, 1.0), ("x^x", 1.0, 2.0),
    ("exp(x)+cos(1/1e-320)", 0.0, 1.0),    # a constant beyond float range
    ("exp(-exp(x))", 0.0, 1.0),    # u' = -e^x is -(CM in -x), not in x
    ("exp(sqrt(x+1))", 0.0, 1.0),  # u' is +(CM in x)
    ("exp(-log(x+2)^2)", 0.0, 1.0),    # u is no proved term
])
def test_the_classifier_refuses_what_its_rules_do_not_cover(source, a, b):
    assert classify_cm(parse(source), a, b) is None


@pytest.mark.parametrize("source, a, b, proof", [
    ("x^(x - x + 3)", 1.0, 2.0, None),          # x^3 in value, not in rule
    ("(x+1)^(x - x + 3.5)", 0.0, 1.0, None),    # (x+1)^3.5 in value
    ("x^3", 1.0, 2.0, (CM_X, 1, 3)),
    ("(x+1)^3.5", 0.0, 1.0, (CM_X, 1, 4)),
    ("(x+1)^-2", 0.0, 1.0, (CM_X, 1, 0)),
])
def test_a_power_whose_exponent_reads_x_is_no_atom(source, a, b, proof):
    # the jets take u^w as exp(w log u) wherever w reads x, so the proof
    # does not read w's constant value either
    assert classify_cm(parse(source), a, b) == proof


@pytest.mark.parametrize("source, a, b, proof", COMPOSITIONS)
def test_the_compositions_certify_against_mpmath(source, a, b, proof):
    cert = certify(parse(source), a, b, 1e-10)
    with mpmath.workdps(40):
        node = parse(source)
        exact = mpmath.quad(lambda t: _mp_value(node, t), [a, b])
        error = abs(mpmath.mpf(cert.corrected_sum) - exact)
    assert cert.certified_bound <= 1e-10
    assert error <= cert.certified_bound, (source, float(error))


def _sample_agrees(source: str, a: float, b: float) -> None:
    """The 257-point pair test passes."""
    assert check_log_convexity(parse(source), a, b)["passed"], source


def test_every_catalog_proof_is_sampled_as_log_convex():
    proved = 0
    for source, a, b, log_convex in CATALOG:
        proof = classify_cm(parse(source), a, b)
        if proof is not None and proof[2] <= 3:
            proved += 1
            assert log_convex, source
            _sample_agrees(source, a, b)
    assert proved == 5   # all but x^4


#: The six log-convex families of the check-mix workload, with their
#: range of c.
FAMILIES = (("exp({c}*x)", 0.5, 4.0), ("exp(-{c}*x)", 0.5, 4.0),
            ("exp(x)+exp({c}*x)", 1.5, 4.0), ("x^3+exp({c}*x)", 0.5, 3.0),
            ("1/(x+{c})", 0.2, 2.0), ("log(x+{c})", 0.2, 2.0))


@pytest.mark.parametrize("template, lo, hi", FAMILIES,
                         ids=[t for t, _, _ in FAMILIES])
def test_the_bench_families_are_proved_and_sampled_as_log_convex(
        template, lo, hi):
    for c in (lo, (2 * lo + hi) / 3, (lo + 2 * hi) / 3, hi):
        for a in (0.0, 0.5, 1.0):
            for width in (0.5, 2.0):
                source = template.format(c=f"{c:.4g}")
                proof = classify_cm(parse(source), a, a + width)
                assert proof is not None and proof[2] <= 3, source
                _sample_agrees(source, a, a + width)


@pytest.mark.parametrize("log_ratio", [23.0, 31.5, 40.0])
@pytest.mark.parametrize("sign", ["", "-"])
def test_steep_exponentials_are_proved_and_sampled_as_log_convex(log_ratio,
                                                                 sign):
    for a, width in ((0.0, 0.5), (0.5, 1.25), (1.0, 2.0)):
        source = f"exp({sign}{log_ratio / width:.4g}*x)"
        assert classify_cm(parse(source), a, a + width) == (
            CM_X if sign else CM_NEG_X, 1, 0)
        _sample_agrees(source, a, a + width)


# --------------------------------------------------------------------------
# Random expressions the classifier accepts
# --------------------------------------------------------------------------

def _num(draw, lo: float, hi: float) -> str:
    return f"{draw(st.floats(lo, hi)):.3g}"


@st.composite
def accepted(draw) -> tuple[str, float, float]:
    """A sum of one to three scaled atoms or products of two, of one class,
    perhaps with a polynomial; the tests assume the classifier accepts.
    exp of a proved argument is an atom."""
    a = round(draw(st.floats(0.0, 1.0)), 3)
    b = round(a + draw(st.floats(0.25, 1.5)), 3)
    neg = draw(st.booleans())   # atoms completely monotone in -x
    base = "({d}-x)" if neg else "(x+{c})"

    def atom(j0_zero: bool) -> str:
        shapes = ["exp({s}{l}*x)", base + "^-{p}", "1/" + base,
                  "exp(-{k}*sqrt" + base + ")", "exp({k}/" + base + ")",
                  "exp({k}*exp({s}{m}*x))", "exp(-{k}*log" + base + ")",
                  "exp({l}*exp({s}{m}*x)-{k}*sqrt" + base + ")"]
        if not j0_zero:
            shapes += [base + "^{q}", "log" + base, "sqrt" + base]
        shape = draw(st.sampled_from(shapes))
        return shape.format(
            s="" if neg else "-", l=_num(draw, 0.2, 4.0),
            c=_num(draw, 0.1, 2.0), d=f"{b + draw(st.floats(0.1, 2.0)):.3g}",
            p=_num(draw, 0.2, 3.0), k=_num(draw, 0.2, 2.0),
            m=_num(draw, 0.2, 1.0),
            q=f"{draw(st.integers(0, 3)) + draw(st.floats(0.1, 0.9)):.3g}")

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        k = _num(draw, 0.2, 3.0)
        sign = draw(st.sampled_from(["", "-"]))
        if draw(st.booleans()):
            term = atom(False)
        else:   # the classifier accepts the product where both j0 are 0
            term = f"{atom(draw(st.booleans()))}*{atom(True)}"
        terms.append(f"{sign}{k}*{term}")
    if draw(st.booleans()):
        terms.append(draw(st.sampled_from(["x^3", "-x^3", "x^2", "-x",
                                           "2*x^3-x"])))
    return "+".join(terms).replace("+-", "-"), float(a), float(b)


@settings(max_examples=80, deadline=None)
@given(accepted())
def test_random_proofs_are_sampled_as_log_convex(case):
    source, a, b = case
    proof = classify_cm(parse(source), a, b)
    assume(proof is not None and proof[2] <= 3)
    _sample_agrees(source, a, b)


_MP = {"exp": mpmath.exp, "log": mpmath.log, "sin": mpmath.sin,
       "cos": mpmath.cos, "sqrt": mpmath.sqrt}


def _mp_value(node, x):
    """The expression at x in mpmath, its literals read as doubles."""
    if isinstance(node, Var):
        return x
    if isinstance(node, Num):
        return mpmath.mpf(node.value)
    if isinstance(node, Const):
        return mpmath.mpf(math.pi if node.name == "pi" else math.e)
    if isinstance(node, Neg):
        return -_mp_value(node.operand, x)
    if isinstance(node, Func):
        return _MP[node.name](_mp_value(node.arg, x))
    left, right = _mp_value(node.left, x), _mp_value(node.right, x)
    if node.op == "^":
        return mpmath.power(left, right)
    return {"+": mpmath.fadd, "-": mpmath.fsub, "*": mpmath.fmul,
            "/": mpmath.fdiv}[node.op](left, right)


@settings(max_examples=60, deadline=None)
@given(accepted())
def test_every_proof_holds_at_orders_3_to_8(case):
    source, a, b = case
    node = parse(source)
    proof = classify_cm(node, a, b)
    assume(proof is not None)
    with mpmath.workdps(40):
        for x in (a, (2 * a + b) / 3, (a + 2 * b) / 3, b):
            d = list(mpmath.diffs(lambda t: _mp_value(node, t),
                                  mpmath.mpf(x), 10))
            for k in range(max(3, proof[2]), 9):
                g, g1, g2 = d[k], d[k + 1], d[k + 2]
                if abs(g) < mpmath.mpf(10) ** -25:   # a polynomial's, 0
                    continue
                # (ln|g|)'' = (g g'' - g'^2) / g^2
                assert g * g2 - g1 * g1 >= -mpmath.mpf(10) ** -20 * g1 * g1, \
                    (source, a, b, x, k)
