import importlib.util
import math
import random
import re
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hh3 import expr
from hh3.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from hh3.expr import (BinOp, Const, Func, Neg, Num, Var, _tokenize,
                      compile_f3, compile_jet, eval_jet3, evaluate, parse,
                      to_text)
from jet_reference import Jet, _div, _eval, _mul, eval_jet3_reference
from token_reference import tokenize_reference

_ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("hh3_bench_oracle", _ORACLE)
_oracle = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)  # its dataclass looks itself up there


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_parse_structure():
    assert parse("2*x^3 - 1") == BinOp(
        "-",
        BinOp("*", Num(2.0), BinOp("^", Var(), Num(3.0))),
        Num(1.0),
    )


def test_parse_constants():
    assert parse("pi") == Const("pi")
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("e"), 0.0) == math.e


@pytest.mark.parametrize("source,x,value", [
    ("2*x^3 - 1", 2.0, 15.0),
    ("exp(2*x)", 0.5, math.e),
    ("x^-2", 2.0, 0.25),
    ("-x^2", 3.0, -9.0),          # unary minus binds looser than ^
    ("x^2^3", 2.0, 256.0),        # right associative
    ("1 - x - x", 1.0, -1.0),     # left associative
    ("6/3/2", 0.0, 1.0),
    ("2e-1 + .5", 0.0, 0.7),
    ("sqrt(x)*sqrt(x)", 9.0, 9.0),
    ("sin(x)^2 + cos(x)^2", 0.7, 1.0),
    ("(x + 1)*(x - 1)", 3.0, 8.0),
])
def test_evaluate(source, x, value):
    assert evaluate(parse(source), x) == pytest.approx(value, rel=1e-15)


def test_syntax_error_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x^")
    assert info.value.offset == 2
    assert any("number" in item for item in info.value.expected)


@pytest.mark.parametrize("source,offset", [
    ("(x", 2),
    ("x +", 3),
    ("* x", 0),
    ("exp x", 4),
    ("x $ 2", 2),
    ("", 0),
])
def test_syntax_errors(source, offset):
    with pytest.raises(ExprSyntaxError) as info:
        parse(source)
    assert info.value.offset == offset


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as info:
        parse("foo(x)")
    assert info.value.name == "foo"
    assert info.value.offset == 0
    with pytest.raises(UnknownIdentifier):
        parse("x + y")


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("x 2")


# The characters where the three token classes start, end or differ from a
# near miss: ASCII and other Unicode decimal digits, digits that are not
# decimal (superscript two, one half), Unicode blanks, the exponent letters,
# non-ASCII letters and characters that start no token.
_TOKEN_ALPHABET = ("0123456789" "\u0663\u06f5\u0967\uff10\U0001d7ce"
                   "\u00b2\u00bd" " \t\n\x0b\x0c\r\x1c\x85\xa0\u2003\u3000"
                   ".._eEeE+-*/^()xpi" "\u00e9\u0131\u212a$,!")


def _tokens_or_error(tokenize, source):
    try:
        return [tuple(token) for token in tokenize(source)]
    except ExprSyntaxError as exc:
        return exc.offset, exc.expected, exc.found


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.text(_TOKEN_ALPHABET, max_size=16), st.text(max_size=8)))
@example("1e")
@example("1e+")
@example("2E-")
@example("1.e5 ")
@example(" .5e+3x\t")
@example("1..2")
@example(". 5")
@example("\u0663.\u0663e\u0663")
@example("\u00b2")
@example("x_1 \u3000")
def test_tokenize_matches_the_regular_expression(source):
    assert (_tokens_or_error(_tokenize, source)
            == _tokens_or_error(tokenize_reference, source))


# --------------------------------------------------------------------------
# printing round trip
# --------------------------------------------------------------------------

@pytest.mark.parametrize("source", [
    "x", "-x^2", "x^-2", "x^2^3", "(x^2)^3", "1 - (x - 1)",
    "x/(x + 1)", "exp(x) + exp(2*x)", "-(x*x)", "2*x^3 - 1",
    "sqrt(x + 4)", "pi*x + e", "2^(1e999)",
])
def test_round_trip_examples(source):
    ast = parse(source)
    assert parse(to_text(ast)) == ast


def test_an_overflowed_literal_prints_as_text_that_parses_back():
    # float("1e999") is inf, which printed as the unknown identifier inf
    assert to_text(parse("x^3+2^(1e999)")) == "x^3.0 + 2.0^1e999"
    assert to_text(Num(-math.inf)) == "-1e999"


def _ast_strategy():
    # canonical literals are non-negative (the parser renders minus as Neg),
    # and abs() also squashes -0.0, whose repr would re-parse as Neg(0.0)
    leaf = st.one_of(
        st.just(Var()),
        st.builds(Num, st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False).map(abs)),
        st.sampled_from([Const("pi"), Const("e")]),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(lambda op, l, r: BinOp(op, l, r),
                      st.sampled_from(["+", "-", "*", "/", "^"]),
                      children, children),
            st.builds(lambda name, arg: Func(name, arg),
                      st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]),
                      children),
        )

    return st.recursive(leaf, extend, max_leaves=25)


# The intervals of the command-line fuzz test, which draws its trees from
# the strategy above.
_INTERVALS = [
    ("0", "1"), ("0.1", "1"), ("-1", "1"),
    ("1e-300", "1e-299"), ("0", "5e-324"),             # tiny
    ("1e150", "1e151"), ("-1e300", "1e300"),           # huge, wide
    ("1", "1.0000000000000002"), ("-2", "-1.9999999999999998"),
]


@settings(max_examples=200, deadline=None)
@given(_ast_strategy())
def test_round_trip_property(ast):
    assert parse(to_text(ast)) == ast


# --------------------------------------------------------------------------
# jets
# --------------------------------------------------------------------------

@pytest.mark.parametrize("source,x,jet", [
    ("exp(x)", 0.0, (1.0, 1.0, 1.0, 1.0)),
    ("x^3", 2.0, (8.0, 12.0, 12.0, 6.0)),
    ("1/x", 1.0, (1.0, -1.0, 2.0, -6.0)),
])
def test_jet_examples(source, x, jet):
    assert eval_jet3(parse(source), x) == jet


def test_evaluate_is_jet_value_component():
    ast = parse("exp(x)*sin(x)")
    for x in (0.1, 1.0, 2.5):
        assert evaluate(ast, x) == eval_jet3(ast, x)[0]
    # f is 1e-150, but f'' overflows: evaluate raises what the jet raises
    with pytest.raises(DomainError, match="result is not finite"):
        evaluate(parse("sqrt(x)"), 1e-300)


_SMOOTH_CASES = [
    ("exp(x)", 0.0, 1.0),
    ("exp(2*x)", -1.0, 1.0),
    ("exp(x) + exp(2*x)", 0.0, 1.0),
    ("1/x", 1.0, 2.0),
    ("x^4 - 2*x^2 + x", -1.0, 1.0),
    ("sin(x)*cos(2*x)", 0.0, 3.0),
    ("log(x + 2)", 0.0, 4.0),
    ("sqrt(x + 1)*exp(-x)", 0.5, 2.0),
    ("x^2.5", 1.0, 3.0),
    ("(1 + x^2)^-1", -1.0, 1.0),
    ("x^x", 0.5, 2.0),
]


# The finite-difference oracle runs in 60-digit arithmetic (mpmath), through
# an independent evaluator for the same AST.  In doubles a third central
# difference at step 1e-5 would carry O(eps/h^3) = O(1) relative rounding
# error, so the tolerances below are only meaningful against a
# high-precision function oracle; with one, they are limited by the h^2
# truncation term (~1e-10) plus the double rounding of the jets themselves.

def _mp_eval(node, x):
    import mpmath
    if isinstance(node, Num):
        return mpmath.mpf(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return mpmath.pi if node.name == "pi" else mpmath.e
    if isinstance(node, Neg):
        return -_mp_eval(node.operand, x)
    if isinstance(node, Func):
        return getattr(mpmath, node.name)(_mp_eval(node.arg, x))
    assert isinstance(node, BinOp)
    left = _mp_eval(node.left, x)
    right = _mp_eval(node.right, x)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    return left ** right


@pytest.mark.parametrize("source,a,b", _SMOOTH_CASES)
def test_jets_match_finite_differences(source, a, b):
    import mpmath
    ast = parse(source)
    rng = random.Random(20240811)
    with mpmath.workdps(60):
        h = mpmath.mpf("1e-5")
        margin = 4e-5
        for _ in range(25):
            x = rng.uniform(a + margin, b - margin)
            jet = eval_jet3(ast, x)
            # absolute floors (scaled to the jet's own magnitude) take over
            # where a derivative crosses zero and relative error is moot
            scale = max(1.0, *(abs(v) for v in jet))
            xm = mpmath.mpf(x)
            f = [_mp_eval(ast, xm + k * h) for k in (-2, -1, 0, 1, 2)]
            d1 = float((f[3] - f[1]) / (2 * h))
            d2 = float((f[3] - 2 * f[2] + f[1]) / (h * h))
            d3 = float((f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h ** 3))
            assert jet[0] == pytest.approx(float(f[2]), rel=1e-14,
                                           abs=1e-12 * scale)
            assert jet[1] == pytest.approx(d1, rel=1e-6, abs=1e-8 * scale)
            assert jet[2] == pytest.approx(d2, rel=1e-6, abs=1e-8 * scale)
            assert jet[3] == pytest.approx(d3, rel=1e-4, abs=1e-6 * scale)


# Each family: its text with {c}, the double argument w that the jet
# computes from c and x, the k-th derivative in x at w (c and w exact), and
# a few values of c.
def _power_rule(p):
    return lambda c, w, k: mpmath.ff(p, k) * w ** (p - k)


_CLOSED_FORMS = {
    "exp({c}*x)": (lambda c, x: c * x, lambda c, w, k: c ** k * mpmath.exp(w),
                   (0.37, -2.5, 6.144)),
    "log(x+{c})": (lambda c, x: x + c,
                   lambda c, w, k: mpmath.log(w) if k == 0
                   else (-1) ** (k - 1) * mpmath.factorial(k - 1) / w ** k,
                   (0.5, 2.679, 1e-3)),
    "sqrt(x+{c})": (lambda c, x: x + c, _power_rule(0.5), (0.1, 1.0, 7.3)),
    "(x+{c})^1.5": (lambda c, x: x + c, _power_rule(1.5), (0.1, 1.0, 7.3)),
    "(x+{c})^-2.5": (lambda c, x: x + c, _power_rule(-2.5), (0.2, 1.0, 7.3)),
    "sin({c}*x)": (lambda c, x: c * x,
                   lambda c, w, k: c ** k * mpmath.sin(w + k * mpmath.pi / 2),
                   (1.0, 3.7, 25.0)),
    "cos({c}*x)": (lambda c, x: c * x,
                   lambda c, w, k: c ** k * mpmath.cos(w + k * mpmath.pi / 2),
                   (1.0, 3.7, 25.0)),
}


@pytest.mark.parametrize("family", _CLOSED_FORMS)
def test_jets_match_closed_forms_to_8_ulps(family):
    # the finite-difference test above cannot see a few ulps of f'''
    argument, derivative, constants = _CLOSED_FORMS[family]
    rng = random.Random(family)
    with mpmath.workdps(50):
        for c in constants:
            jet = compile_jet(parse(family.format(c=c)), 3)
            for x in (rng.uniform(0.0, 2.0) for _ in range(300)):
                got = jet(x)
                w = mpmath.mpf(argument(c, x))
                # ulps of the true value, but of no less than 1e-6 of the
                # jet's largest component, where a derivative crosses zero
                floor = 1e-6 * max(map(abs, got))
                for k in range(4):
                    want = derivative(mpmath.mpf(c), w, k)
                    ulp = math.ulp(max(abs(float(want)), floor))
                    assert float(abs(got[k] - want)) <= 8.0 * ulp, (
                        family, c, x, k, got[k], want)


# The same closed forms at orders 4 to 9, and a sum, a product and a
# quotient of them: each family its text, its parts as (argument, k-th
# derivative) pairs, how the parts combine and a few values of c.  The
# quotient's second part is the closed form of its divisor's reciprocal.
_EXP, _LOG, _SQRT, _SIN = (_CLOSED_FORMS[f][:2] for f in (
    "exp({c}*x)", "log(x+{c})", "sqrt(x+{c})", "sin({c}*x)"))
_RECIP = (lambda c, x: x + c, _power_rule(-1))
_ANY_ORDER = {
    "exp({c}*x)": ((_EXP,), None, (0.37, -2.5, 6.144)),
    "1/(x+{c})": ((_RECIP,), None, (0.5, 2.679, 1e-3)),
    "log(x+{c})": ((_LOG,), None, (0.5, 2.679, 1e-3)),
    "sqrt(x+{c})": ((_SQRT,), None, (0.1, 1.0, 7.3)),
    "sin({c}*x)": ((_SIN,), None, (1.0, 3.7, 25.0)),
    "x^5": (((lambda c, x: x, _power_rule(5)),), None, (1.0,)),
    "exp({c}*x)+log(x+{c})": ((_EXP, _LOG), "+", (0.7, 2.5)),
    "sin({c}*x)*sqrt(x+{c})": ((_SIN, _SQRT), "*", (1.3, 3.7)),
    "exp({c}*x)/(x+{c})": ((_EXP, _RECIP), "*", (0.5, 2.679)),
}
# The tolerance of each order, in ulps of the sum of the magnitudes of the
# terms that make the derivative, which a sum or a product may cancel.
_ORDER_ULPS = {4: 32, 5: 40, 6: 48, 7: 56, 8: 64, 9: 72}


def _terms(parts, combine, c, x, k) -> list:
    """The terms, in mpmath, whose sum is the k-th derivative at x."""
    c = mpmath.mpf(c)
    d = [[derivative(c, mpmath.mpf(argument(float(c), x)), j)
          for j in range(k + 1)] for argument, derivative in parts]
    if combine is None:
        return [d[0][k]]
    if combine == "+":
        return [d[0][k], d[1][k]]
    return [mpmath.binomial(k, j) * d[0][k - j] * d[1][j]
            for j in range(k + 1)]


@pytest.mark.parametrize("family", _ANY_ORDER)
def test_jets_of_orders_4_to_9_match_closed_forms(family):
    parts, combine, constants = _ANY_ORDER[family]
    rng = random.Random(family)
    with mpmath.workdps(40):
        for c in constants:
            ast = parse(family.format(c=c))
            for x in (rng.uniform(0.0, 2.0) for _ in range(60)):
                terms = [_terms(parts, combine, c, x, k) for k in range(10)]
                for order, ulps in _ORDER_ULPS.items():
                    got = compile_jet(ast, order)(x)
                    assert len(got) == order + 1
                    for k, t in enumerate(terms[:order + 1]):
                        scale = float(sum(map(abs, t)))
                        assert float(abs(got[k] - sum(t))) \
                            <= ulps * math.ulp(scale), (c, x, order, k)


def test_a_power_near_1_keeps_the_bits_of_its_small_derivatives():
    # c*p - p would cancel to a few bits of (c - 1)*p: the power's rule
    # forms c - 1 first, where it is exact
    c = 1.000000000001
    jet = compile_jet(parse(f"x^{c!r}"), 3)
    with mpmath.workdps(50):
        for x in (0.3, 0.7, 1.3, 2.9):
            for k, got in enumerate(jet(x)):
                want = _power_rule(c)(mpmath.mpf(c), mpmath.mpf(x), k)
                assert float(abs(got - want)) <= 8.0 * math.ulp(float(want))


def test_jet_linearity():
    f = parse("exp(x)")
    g = parse("x^3")
    combined = parse("2*exp(x) + 3*x^3")
    for x in (0.0, 0.5, 1.3):
        jf, jg, jc = eval_jet3(f, x), eval_jet3(g, x), eval_jet3(combined, x)
        for want, got in zip(
                (2 * a + 3 * b for a, b in zip(jf, jg)), jc):
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_finite, _finite, _finite, _finite, _finite, _finite, _finite, _finite)
def test_jet_product_rule(a0, a1, a2, a3, b0, b1, b2, b3):
    a = Jet(a0, a1, a2, a3)
    b = Jet(b0, b1, b2, b3)
    product = _mul(a, b)
    assert product.d0 == a0 * b0
    assert product.d1 == pytest.approx(a1 * b0 + a0 * b1, rel=1e-15, abs=1e-12)
    assert product.d2 == pytest.approx(a2 * b0 + 2 * a1 * b1 + a0 * b2,
                                       rel=1e-15, abs=1e-12)
    assert product.d3 == pytest.approx(
        a3 * b0 + 3 * a2 * b1 + 3 * a1 * b2 + a0 * b3,
        rel=1e-15, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(_finite, _finite, _finite, _finite,
       st.floats(min_value=0.5, max_value=100.0), _finite, _finite, _finite)
def test_jet_quotient_inverts_product(a0, a1, a2, a3, b0, b1, b2, b3):
    a = Jet(a0, a1, a2, a3)
    b = Jet(b0, b1, b2, b3)
    quotient = _div(a, b)
    back = _mul(quotient, b)
    scale = max(1.0, *(abs(v) for v in a), *(abs(v) for v in quotient))
    for got, want in zip(back, a):
        assert got == pytest.approx(want, abs=1e-10 * scale)


def _outcome(evaluator, ast, x):
    """The jet, or the type and text of what was raised."""
    try:
        return evaluator(ast, x)
    except (ArithmeticError, ValueError, DomainError) as exc:
        where = (exc.expr_text, exc.x) if isinstance(exc, DomainError) else ()
        return type(exc), str(exc), where


def _walker_made_a_nan(ast, x) -> bool:
    """Whether the walker's jet of ``ast`` or of a subtree holds a NaN."""
    for node in _subtrees(ast):
        try:
            if any(map(math.isnan, _eval(node, x))):
                return True
        except (ArithmeticError, ValueError, DomainError):
            pass
    return False


def _subtrees(node):
    yield node
    for child in node:
        if isinstance(child, (Num, Var, Const, Neg, BinOp, Func)):
            yield from _subtrees(child)


def _assert_like_tree_walk(ast, x):
    """The compiled jet against the dense walker: the same errors, the same
    bits of d0, and d1-d3 equal as floats, so only a zero's sign may differ
    (the walker adds a zero term the compiled jet leaves out).

    Where the walker made a NaN, a zero factor met an inf, which the
    compiled jet never multiplies, so the two may part there: the NaN fails
    the walker's jet.  test_zero_derivatives_do_not_meet_an_inf pins such a
    case.
    """
    got = _outcome(eval_jet3, ast, x)
    want = _outcome(eval_jet3_reference, ast, x)
    if isinstance(got[0], type) or isinstance(want[0], type):
        assert got == want or _walker_made_a_nan(ast, x)
        return
    assert got[0].hex() == want[0].hex()
    assert got[1:] == want[1:]


@settings(max_examples=2000, deadline=None)
@given(_ast_strategy(), st.floats(min_value=-5.0, max_value=5.0))
@example(parse("sqrt(exp(x))"), 3.0)
@example(Neg(Var()), 0.0)  # d2 = -0.0 in the walker, 0.0 compiled
def test_compiled_jet_matches_tree_walk(ast, x):
    _assert_like_tree_walk(ast, x)


@pytest.mark.parametrize("source,a,b", _SMOOTH_CASES)
def test_compiled_jet_matches_tree_walk_on_smooth_cases(source, a, b):
    # draws from the whole interval, where rounding differs far more often
    # than at the simple floats hypothesis favours
    ast = parse(source)
    rng = random.Random(source)
    for x in (rng.uniform(a, b) for _ in range(200)):
        _assert_like_tree_walk(ast, x)


_GUARD_SOURCES = [
    "x^x", "x^2.5", "x^(x - x + 3)", "x^(x - x - 2)", "(x - 1)^(x - x + 2)",
    "x^-3", "0^-1", "2^(1e999)", "exp(1e200*x)", "log(2)/(x - x)",
    "x^pi", "sqrt(x*1e-320)", "(x*1e-200)^2.5", "(x*1e-200)^(x - x + 2.5)",
    "cos(x/1e-320)", "sin(1/1e-320)", "log(x*1e-110)", "(x*1e150)^1.5",
    "sin(x*1e150)", "x^1.5e300", "x^(1/1e-320)", "x^(0*(1/1e-320))",
    "x^-400", "1.2842606408325774e-07^-47", "log(x*5e-323)",
    "log(cos(x)*1e-320)", "(x*5e-323)^1.5", "x^(x*5e-323)",
]
_GUARD_POINTS = [-2.0, -0.0, 0.0, 0.5, 1.0, 3.0]


@pytest.mark.parametrize("source", _GUARD_SOURCES)
@pytest.mark.parametrize("x", _GUARD_POINTS)
def test_compiled_power_and_error_paths_match_tree_walk(source, x):
    _assert_like_tree_walk(parse(source), x)


def _not_finite(outcome, ast, x) -> bool:
    return outcome[0] is DomainError and outcome[2] == (to_text(ast), x) \
        and outcome[1].startswith("result is not finite (in ")


def _assert_companion_like_jet(ast, x):
    """Where the f'''-only function returns v, v is finite, and the jet
    returns v's bits at index 3 or raises only "result is not finite";
    where the f'''-only function raises, the jet raises the same."""
    full = _outcome(lambda _, x: compile_jet(ast, 3)(x), ast, x)
    only = _outcome(lambda _, x: (compile_f3(ast)(x),), ast, x)
    if isinstance(only[0], type):
        assert full == only
    elif isinstance(full[0], type):
        assert _not_finite(full, ast, x) and math.isfinite(only[0])
    else:
        assert only[0].hex() == full[3].hex()


@settings(max_examples=1000, deadline=None)
@given(_ast_strategy(), st.floats(min_value=-5.0, max_value=5.0))
@example(parse("1e999 + x^3"), 0.5)  # f is inf, f''' is 6.0
@example(Neg(Var()), 0.0)
def test_f3_companion_matches_the_jet(ast, x):
    _assert_companion_like_jet(ast, x)


@pytest.mark.parametrize("source", _GUARD_SOURCES)
@pytest.mark.parametrize("x", _GUARD_POINTS)
def test_f3_companion_keeps_every_guard(source, x):
    _assert_companion_like_jet(parse(source), x)


# The fuzz test's trees: its strategy, intervals and settings.  The
# intervals' ends and midpoints reach the edges of float range.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ast_strategy(), st.sampled_from(_INTERVALS))
def test_f3_companion_matches_the_jet_on_the_fuzzed_trees(ast, interval):
    a, b = map(float, interval)
    for x in (a, 0.5 * a + 0.5 * b, b):
        _assert_companion_like_jet(ast, x)


def _assert_begins_like_jet3(ast, x, order):
    """The order-k jet's f to f''' are the order-3 jet's as floats, so
    only a zero's sign may differ.  It raises what that jet raises, and
    else only "result is not finite", for a derivative above f'''."""
    low = _outcome(lambda _, x: compile_jet(ast, 3)(x), ast, x)
    high = _outcome(lambda _, x: compile_jet(ast, order)(x), ast, x)
    if isinstance(low[0], type):
        assert high == low
    elif isinstance(high[0], type):
        assert _not_finite(high, ast, x)
    else:
        assert len(high) == order + 1 and high[:4] == low


@settings(max_examples=300, deadline=None)
@given(_ast_strategy(), st.floats(min_value=-5.0, max_value=5.0),
       st.integers(min_value=4, max_value=9))
@example(parse("x^(x - x + 3) + sin(x)"), 0.5, 9)  # exp(w log u), order 9
def test_every_order_begins_with_the_order_3_jet(ast, x, order):
    _assert_begins_like_jet3(ast, x, order)


@pytest.mark.parametrize("source", _GUARD_SOURCES)
def test_every_order_keeps_every_guard(source):
    for x in _GUARD_POINTS:
        for order in range(4, 10):
            _assert_begins_like_jet3(parse(source), x, order)


@pytest.mark.parametrize("source", ["log(x+1)", "x^(x-x+3)", "x"])
def test_a_jet_order_below_3_is_refused(source):
    # order 0 once failed deep in the compiler, with an IndexError or a
    # TypeError; orders 1 and 2 compiled
    for order in (0, 1, 2, 3.0, True):
        with pytest.raises(ValueError, match=f"got {order!r}$"):
            compile_jet(parse(source), order)
    for order in range(3, 10):
        assert len(compile_jet(parse(source), order)(0.5)) == order + 1


def test_constant_lines_are_folded_unless_they_raise():
    # -k of exp(-c*x) reads only the tree's numbers: its value is a global,
    # and no line computes it
    assert "= -k" not in compile_jet(parse("exp(-1.7*x)"), 3).source
    # exp(1000.0) overflows: that line stays, so its error names the point
    ast = parse("x + exp(1000)")
    assert "exp(k" in compile_jet(ast, 3).source
    with pytest.raises(DomainError) as info:
        compile_f3(ast)(0.5)
    assert (info.value.expr_text, info.value.x) == ("exp(1000.0)", 0.5)


# The bench families at one constant and integrands as users write them:
# constant exponents written as expressions, constant factors, powers
# whose exponent reads x.
_CORPUS = [
    "exp(1.7*x)", "exp(-2.5*x)", "exp(x)+exp(3.7*x)", "x^3+exp(1.7*x)",
    "1/(x+2.679)", "log(x+0.5)", "x^4", "sqrt(x+0.1)", "x^(3/2)", "x^(1/3)",
    "(x+1)^(-1/2)", "x^pi", "(x+2)^(2^0.5)", "2^x", "sqrt(2)*exp(x)",
    "exp(x/3)", "log(2)*x^3", "exp(-x^2/2)/sqrt(2*pi)", "x^(2*2)",
    "1/(1+400*(x-0.5)^2)", "sqrt(x+0.1)*exp(-x)", "(x+0.5)^-2.5+exp(-3*x)",
    "exp(x)/(x+1)", "x^(2*x)", "(x+1)^(x/2)", "x^x", "2*x+1", "(x+1)^pi",
]
_TEST = re.compile(r"^ *if (.*):$", re.M)


def _assert_x_decides_every_test(ast):
    """Each ``if`` of the compiled sources reads x or a local,
    or else holds on every call: a guard that always raises, or the
    finiteness check of a constant that is not finite."""
    for fn in (compile_jet(ast, 3), compile_f3(ast)):
        local = set(fn.__code__.co_varnames)
        for test in _TEST.findall(fn.source):
            if local.isdisjoint(re.findall(r"[A-Za-z_]\w*", test)):
                assert eval(test, fn.__globals__) is True, test


@pytest.mark.parametrize("source", _GUARD_SOURCES + _CORPUS)
def test_the_tree_numbers_decide_no_test_at_run_time(source):
    _assert_x_decides_every_test(parse(source))


@settings(max_examples=500, deadline=None)
@given(_ast_strategy())
@example(parse("log(2)/(x - x) + 0^-1 + exp(1e999)"))
def test_the_tree_numbers_decide_no_test_at_run_time_property(ast):
    _assert_x_decides_every_test(ast)


def _assert_straight_line(ast):
    """The tree picks each power's rule, so no source branches at run time:
    its every ``if`` is a guard that raises."""
    for fn in (compile_jet(ast, 3), compile_jet(ast, 4), compile_f3(ast)):
        assert "elif" not in fn.source and "else:" not in fn.source


@pytest.mark.parametrize("source", _GUARD_SOURCES + _CORPUS)
def test_generated_source_is_straight_line(source):
    _assert_straight_line(parse(source))


@settings(max_examples=500, deadline=None)
@given(_ast_strategy())
def test_generated_source_is_straight_line_property(ast):
    _assert_straight_line(ast)


def test_an_exponent_that_reads_x_takes_exp_w_log_u_even_where_constant():
    # x - x + 3 is 3 at every x, yet it reads x: x^(x - x + 3) is
    # exp((x - x + 3)*log(x)), bit for bit, and needs x > 0
    power = compile_jet(parse("x^(x - x + 3)"), 4)
    general = compile_jet(parse("exp((x - x + 3)*log(x))"), 4)
    with pytest.raises(DomainError) as info:
        power(-2.0)
    assert str(info.value) == ("variable exponent needs a positive base "
                               "(in 'x^(x - x + 3.0)' at x = -2.0)")
    for x in (0.5, 1.7, 3.0):
        assert list(map(float.hex, power(x))) == \
            list(map(float.hex, general(x)))


def _with_values(source: str) -> str:
    """The compiled source with each global number written as its value,
    and each tree named in an error as ``node``."""
    jet = compile_jet(parse(source), 3)
    value = {k: repr(v) if isinstance(v, float) else "node"
             for k, v in jet.__globals__.items()}
    return re.sub(r"\bk\d+\b", lambda m: value[m[0]], jet.source)


def test_a_constant_exponent_compiles_as_its_literal():
    assert _with_values("x^(2*2)") == _with_values("x^4")
    assert _with_values("x^-(3-1)") == _with_values("x^-2")


def test_f3_companion_drops_what_only_f_to_f2_read():
    ast = parse("log(x+0.5)")  # log's value feeds no p_k
    jet, f3 = compile_jet(ast, 3), compile_f3(ast)
    assert f3.__code__.co_nlocals < jet.__code__.co_nlocals
    assert f3(0.5) == jet(0.5)[3]


def test_the_jet_and_f3_functions_share_one_walk(monkeypatch):
    # the tree's lines are written once, and each function built once
    made, init = [], expr._JetCompiler.__init__
    monkeypatch.setattr(expr._JetCompiler, "__init__",
                        lambda self, order: made.append(init(self, order)))
    expr._lowered.cache_clear()
    ast = parse("exp(1.7*x) + 1/(x + 0.3)")
    assert compile_f3(ast) is compile_f3(ast)
    assert compile_jet(ast, 3) is compile_jet(ast, 3)
    assert len(made) == 1


def test_zero_derivatives_do_not_meet_an_inf():
    # 1/1e-320 overflows to inf, the walker's inf * 0.0 made the quotient's
    # d1 a NaN, and exp(-inf) is 0.0
    ast = parse("x^3 + exp(-1/(x - x + 1e-320))")
    assert isinstance(_outcome(eval_jet3_reference, ast, 0.5)[0], type)
    assert eval_jet3(ast, 0.5) == (0.125, 0.75, 3.0, 6.0)
    # a subnormal argument that x does not move is no cause for refusal
    ast = parse("x^3 + log(x - x + 1e-320)")
    assert eval_jet3(ast, 0.5) == (-736.7022408909739, 0.75, 3.0, 6.0)


@pytest.mark.parametrize("source", [f.template.format(c="1.7")
                                    for f in _oracle.FAMILIES.values()])
def test_jets_multiply_by_no_literal_zero_or_one(source):
    # 0.0 stays only in the guards' comparisons
    source = compile_jet(parse(source), 3).source
    body = re.sub(r"[=<]= 0\.0\b", "", source)
    assert not re.search(r"(?<![\w.])0\.0\b|\* 1\.0\b|\b1\.0 \*", body)


def test_compile_is_cached_and_keeps_signed_zero_constants():
    assert compile_jet(parse("x*2"), 3) is compile_jet(parse("x*2"), 3)
    plus, minus = BinOp("*", Var(), Num(0.0)), BinOp("*", Var(), Num(-0.0))
    assert math.copysign(1.0, compile_jet(minus, 3)(1.0)[0]) == -1.0
    assert math.copysign(1.0, compile_jet(plus, 3)(1.0)[0]) == 1.0


def test_expression_constants_are_not_compiled_as_source():
    code = compile_jet(parse("x*12345.678 + 0.125"), 3).__code__
    assert 12345.678 not in code.co_consts and 0.125 not in code.co_consts


def test_pow_on_negative_base_integer_exponent():
    jet = eval_jet3(parse("x^3"), -2.0)
    assert jet == (-8.0, 12.0, -12.0, 6.0)
    assert evaluate(parse("x^-2"), -2.0) == 0.25


# --------------------------------------------------------------------------
# domain errors
# --------------------------------------------------------------------------

@pytest.mark.parametrize("source,x,fragment", [
    ("log(x)", 0.0, "log"),
    ("log(x - 1)", 0.5, "log"),
    ("sqrt(x)", -1.0, "sqrt"),
    ("sqrt(x)", 0.0, "sqrt"),       # derivative jet blows up at 0
    ("1/x", 0.0, "division"),
    ("x^0.5", -1.0, "exponent"),
    ("x^x", -1.0, "exponent"),
    ("exp(x^2)", 1e6, "overflow"),
])
def test_domain_errors(source, x, fragment):
    with pytest.raises(DomainError) as info:
        eval_jet3(parse(source), x)
    assert fragment in str(info.value)


def test_domain_error_names_offending_node():
    with pytest.raises(DomainError) as info:
        eval_jet3(parse("exp(x) + log(x - 2)"), 1.0)
    assert info.value.expr_text == "log(x - 2.0)"
    assert info.value.x == 1.0


def test_nonfinite_point_rejected():
    with pytest.raises(DomainError):
        eval_jet3(parse("x"), math.inf)


def test_huge_product_is_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("x*x"), 1e200)
