"""Expression front end: parsing, printing, and jet evaluation.

The accepted language is a small calculator grammar over one variable ``x``.
In EBNF, lowest precedence first:

    expr   = term , { ( "+" | "-" ) , term } ;
    term   = unary , { ( "*" | "/" ) , unary } ;
    unary  = "-" , unary | power ;
    power  = atom , [ "^" , unary ] ;            (* right associative *)
    atom   = NUMBER | "x" | "pi" | "e"
           | FUNC , "(" , expr , ")"
           | "(" , expr , ")" ;
    FUNC   = "exp" | "log" | "sin" | "cos" | "sqrt" ;
    NUMBER = ( digits [ "." [ digits ] ] | "." digits )
             [ ( "e" | "E" ) [ "+" | "-" ] digits ] ;

Tokens are scanned by hand: blanks are ``str.isspace``, digits
``str.isdecimal``, names ASCII ``[A-Za-z_][A-Za-z_0-9]*``, and a number is
the longest NUMBER there, so ``1e`` is the number ``1`` and the name ``e``.

Unary minus binds looser than ``^``: ``-x^2`` is ``-(x^2)``.  Exponents sit
one level up the chain, so ``x^-2`` and ``x^2^3`` (= ``x^(2^3)``) both parse.
``log`` is the natural logarithm.  There is no ``abs``: every bound in this
package needs three derivatives, and |.| does not supply them.

Evaluation is done on jets: the jet of order k is the tuple ``(f, f', ...,
f^(k))`` at a point, and the rules below propagate every component
exactly: Leibniz for products, back-substitution for quotients, and for
each function the recurrence of its ODE (Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).  No finite differencing is done
anywhere.  :func:`compile_jet` lowers one tree, at one order, to the
rules' float operations, the straight-line body of a Python function of
x, written once and cached.  Each function of a tree is a pick of outputs
from those lines, compiled on first use: the whole jet,
``compile_jet(node, 3)``, for the sums, the bounds, the checks and the
reference integral; and f''' alone, :func:`compile_f3`, for |f'''| at
division and grid points.  A pick keeps the lines its outputs read and
every guard and ``try``, so it raises what the jet raises but "result is
not finite" for a derivative it drops.
"""

import functools
import math
from collections.abc import Callable

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier
from .record import Record

__all__ = [
    "Num", "Var", "Const", "Neg", "BinOp", "Func", "Node", "parse", "to_text",
    "compile_jet", "compile_f3", "evaluate", "eval_jet3",
]

_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_NAMES = ("x", *_CONSTANTS, *_FUNCTIONS)
_NAME_CHARS = frozenset("_abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

# Num.value is a float, Const.name "pi" or "e", BinOp.op one of "+", "-",
# "*", "/", "^" and Func.name one of _FUNCTIONS; every other field is a Node.
class Num(Record):
    __slots__, _fields = (), ("value",)


class Var(Record):
    """The integration variable ``x``."""
    __slots__, _fields = (), ()


class Const(Record):
    __slots__, _fields = (), ("name",)


class Neg(Record):
    __slots__, _fields = (), ("operand",)


class BinOp(Record):
    __slots__, _fields = (), ("op", "left", "right")


class Func(Record):
    __slots__, _fields = (), ("name", "arg")


Node = Num | Var | Const | Neg | BinOp | Func


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

class _Token(Record):  # kind "num", "ident", "op" or "end"; text; offset
    __slots__, _fields = (), ("kind", "text", "pos")


def _run(source: str, pos: int, test) -> int:
    """The end of the run of characters that pass ``test`` from ``pos``."""
    while test(source[pos:pos + 1]):
        pos += 1
    return pos


def _tokenize(source: str) -> list[_Token]:
    tokens, pos = [], 0
    while (pos := _run(source, pos, str.isspace)) < len(source):
        start, char, after = pos, source[pos], source[pos + 1:pos + 2]
        if char in "-+*/^()":
            kind, pos = "op", pos + 1
        elif char.isdecimal() or char == "." and after.isdecimal():
            kind, pos = "num", _run(source, pos, str.isdecimal)
            if source[pos:pos + 1] == ".":
                pos = _run(source, pos + 1, str.isdecimal)
            digit = pos + 1 + (source[pos + 1:pos + 2] in ("+", "-"))
            end = _run(source, digit, str.isdecimal)
            if source[pos:pos + 1] in ("e", "E") and end > digit:
                pos = end
        elif char in _NAME_CHARS:  # not a digit: a number took those
            kind, pos = "ident", _run(source, pos, _NAME_CHARS.__contains__)
        else:
            raise ExprSyntaxError(pos, ("a token",), repr(char))
        tokens.append(_Token(kind, source[start:pos], start))
    return [*tokens, _Token("end", "", pos)]


# --------------------------------------------------------------------------
# Parser (recursive descent, one token of lookahead)
# --------------------------------------------------------------------------

_ATOM_EXPECTED = ("a number", "'x'", "'pi'", "'e'", "a function name", "'('")


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def fail(self, expected: tuple[str, ...]):
        t = self.tok
        found = "end of input" if t.kind == "end" else repr(t.text)
        raise ExprSyntaxError(t.pos, expected, found)

    def expect_op(self, op: str):
        if self.tok.kind == "op" and self.tok.text == op:
            return self.advance()
        self.fail((f"'{op}'",))

    def parse(self) -> Node:
        node = self.expr()
        if self.tok.kind != "end":
            self.fail(("an operator", "end of input"))
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.tok.kind == "op" and self.tok.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.tok.kind == "op" and self.tok.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.tok.kind == "op" and self.tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.tok.kind == "op" and self.tok.text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        t = self.tok
        if t.kind == "num":
            self.advance()
            return Num(float(t.text))
        if t.kind == "ident":
            self.advance()
            if t.text == "x":
                return Var()
            if t.text in _CONSTANTS:
                return Const(t.text)
            if t.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Func(t.text, arg)
            raise UnknownIdentifier(t.pos, t.text, _NAMES)
        if t.kind == "op" and t.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail(_ATOM_EXPECTED)
        raise AssertionError("unreachable")


def parse(source: str) -> Node:
    """Parse expression text into an immutable AST.

    Raises :class:`ExprSyntaxError` (with byte offset and the expected-token
    set) on malformed input and :class:`UnknownIdentifier` for names outside
    the vocabulary.
    """
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# Printing.  Minimal parentheses; reparsing the output reproduces the AST.
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Num) and node.value < 0:
        return _PREC_NEG  # a negative literal prints with a leading '-'
    return _PREC_ATOM


def _wrap(node: Node, minimum: int) -> str:
    text = to_text(node)
    if _prec(node) < minimum:
        return f"({text})"
    return text


def to_text(node: Node) -> str:
    """Render an AST back to source text with minimal parentheses."""
    if isinstance(node, Num):  # an overflowed literal as one that parses
        return {math.inf: "1e999", -math.inf: "-1e999"}.get(node.value,
                                                           repr(node.value))
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, _PREC_NEG)
    if isinstance(node, Func):
        return f"{node.name}({to_text(node.arg)})"
    if isinstance(node, BinOp):
        if node.op in "+-":
            left = _wrap(node.left, _PREC_ADD)
            right = _wrap(node.right, _PREC_ADD + 1)
            return f"{left} {node.op} {right}"
        if node.op in "*/":
            left = _wrap(node.left, _PREC_MUL)
            right = _wrap(node.right, _PREC_MUL + 1)
            return f"{left}{node.op}{right}"
        # '^' is right associative; its exponent slot admits a unary minus
        base = _wrap(node.left, _PREC_ATOM)
        exponent = _wrap(node.right, _PREC_NEG)
        return f"{base}^{exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# Jets
# --------------------------------------------------------------------------

# The jet rules, one table per operation: each entry binds its key to a sum
# of terms, each a coefficient and the keys of its factors, with the key of a
# divisor last where the sum is divided.  A term multiplies left to right
# from the coefficient (left out at 1.0, its sign put in front), the terms
# add left to right and the sum is divided last, so Python's precedence and
# association fix the order of every operation.  A key is a letter and an
# order: a, b and u are operands, d is u', and p is the result, whose entries
# read those bound before them.  Each order's tables are built on first use.
@functools.cache
def _rules(order: int) -> dict:
    ks, steps = range(order + 1), range(order)
    comb = [[float(math.comb(k, j)) for j in range(k + 2)] for k in ks]

    def leibniz(k: int, a: str, b: str, sign: float = 1.0) -> tuple:
        # the terms of the k-th derivative of sign * a * b, j = 0..k
        return tuple((sign * comb[k][j], f"{a}{k - j}", f"{b}{j}")
                     for j in range(k + 1))
    # u^c, c constant: u p' = c p d, with like terms gathered, so that each
    # coefficient c C(k, j) - C(k, j + 1), m_kj, keeps c - 1 exact near c = 1
    power = {**{f"m{k}{j}": ((comb[k][j], "c"), (-comb[k][j + 1],))
                for k in steps for j in range(k)},
             **{f"p{k + 1}": (*((1.0, f"m{k}{j}" if j < k else "c",
                                 f"p{k - j}", f"d{j}") for j in range(k + 1)),
                              "u0") for k in steps}}
    # Each function p = F(u) but log (p' = d / u, a quotient) solves an ODE
    # in u that, differentiated k times, gives p_(k+1) from p_0..p_k.  sqrt
    # is u^0.5: 2 p p' = d, solved by p0, lost up to 7 ulps in f''' where
    # this 3.  sin, sign 1, and cos, sign -1: p' = sign h d, h' = -sign p d.
    return {
        "+": {f"p{k}": ((1.0, f"a{k}"), (1.0, f"b{k}")) for k in ks},
        "-": {f"p{k}": ((1.0, f"a{k}"), (-1.0, f"b{k}")) for k in ks},
        "neg": {f"p{k}": ((-1.0, f"a{k}"),) for k in ks},
        "*": {f"p{k}": leibniz(k, "a", "b") for k in ks},
        "/": {f"p{k}": ((1.0, f"a{k}"), *leibniz(k, "p", "b", -1.0)[:0:-1],
                        "b0") for k in ks},  # solve p*b = a, from j = k to 1
        "^": power, "sqrt": power,
        "exp": {f"p{k + 1}": leibniz(k, "p", "d") for k in steps},  # p' = p d
        **{name: {f"{key}{k + 1}": leibniz(k, y, "d", s) for k in steps
                  for key, y, s in (("p", "h", sign), ("h", "p", -sign))
                  if key == "p" or k + 1 < order}  # no h that no p reads
           for name, sign in (("sin", 1.0), ("cos", -1.0))},
    }


_MAX_INT_EXPONENT = 2 ** 16
_NORMAL_MIN = 2.2250738585072014e-308  # sys.float_info.min


def _reads_x(node: Node) -> bool:
    """Whether the tree holds a ``Var``, so that its value may move with x."""
    return isinstance(node, Var) or any(
        isinstance(child, tuple) and _reads_x(child) for child in node)


def _domain(node: Node, x: float, why: str) -> DomainError:
    return DomainError(why, expr_text=to_text(node), x=x)


def _text(operand) -> str:
    return operand if isinstance(operand, str) else repr(operand)


_SEPARATORS = str.maketrans(dict.fromkeys("()*/+-=<>!:,.'\"", " "))
_FOLDABLE = {f: getattr(math, f) for f in ("exp", "log", "sin", "cos", "sqrt")}


def _words(text: str) -> list[str]:
    """The names in generated text, and the digit runs of its numbers."""
    return text.translate(_SEPARATORS).split()


class _JetCompiler:
    """Writes the jet of one tree as the body of a Python function.

    An operand is the name of a local, or a float where the derivatives of
    ``x`` and of constants fix it whatever x is: such a literal is folded
    into the terms it meets, and a term with a literal zero factor is left
    out.  The tree's numbers and nodes appear only as names of globals bound
    to them, and so does the value of each line that reads only those
    numbers, unless computing it raises; a test that reads only them is
    settled too.  Each line is kept with the locals it assigns: none for a
    guard or a ``try``.
    """

    def __init__(self, order: int):
        self.lines, self.pool = [], {}
        self.ks, self.rules = range(order + 1), _rules(order)
        self.one = (1.0, *[0.0] * order)  # the jet of 1

    def emit(self, line: str, *assigns: str):
        self.lines.append(("    " + line, assigns))

    def fresh(self) -> str:  # unique, as a line is emitted before the next
        return f"t{len(self.lines)}"

    def name(self, v) -> str:
        k = f"k{len(self.pool)}"
        self.pool[k] = v
        return k

    def fold(self, expr: str) -> float | bool | None:
        """The value of ``expr``, a number or a test, where it reads only
        the pool's numbers and computing it raises nothing, else None."""
        if not all(w[0].isdigit() or w in self.pool or w in _FOLDABLE
                   for w in _words(expr)):
            return None
        try:  # generated text, over the pool and math's functions only
            value = eval(expr, {**_FOLDABLE, **self.pool})
        except (ArithmeticError, ValueError):
            return None
        return value if type(value) in (float, bool) else None  # (-8.0) ** 0.5

    def assign(self, expr: str) -> str:
        value = self.fold(expr)
        if value is not None:
            return self.name(value)
        t = self.fresh()
        self.emit(f"{t} = {expr}", t)
        return t

    def fail(self, test: str, node, why: str):
        """``if test:`` raise DomainError ``why``, unless the tree's numbers
        make ``test`` False or the guard just before tests it (``x^x``)."""
        header = f"if {test}:"
        if self.fold(test) is False or [("    " + header, ())] \
                == self.lines[-2:-1]:
            return
        self.emit(header)
        self.emit(f"    raise _domain({self.name(node)}, x, {why!r})")

    def guarded(self, expr: str, node, error: str, why: str) -> str:
        """A local bound to ``expr``, where ``error`` raises DomainError."""
        value = self.fold(expr)
        if value is not None:
            return self.name(value)
        t, ref = self.fresh(), self.name(node)
        self.emit(f"try:\n        {t} = {expr}")
        self.emit(f"except {error}:")
        self.emit(f"    raise _domain({ref}, x, {why!r}) from None")
        return t

    def rule(self, op: str, **operands) -> tuple:
        """Emit the entries of op's table in turn, each bound to its key, and
        return the jet p: a tuple operand binds its components as key + k."""
        env = {}
        for key, v in operands.items():
            env.update({f"{key}{i}": w for i, w in enumerate(v)}
                       if isinstance(v, tuple) else {key: v})
        for key, terms in self.rules[op].items():
            env[key] = self.entry(terms, env)
        return tuple(env[f"p{k}"] for k in self.ks)

    def entry(self, terms: tuple, env: dict):
        """The operand of one rule entry: a float where no term varies."""
        divisor = terms[-1] if isinstance(terms[-1], str) else None
        lead, pieces = 0.0, []  # pieces: (negative, text) of each term
        for coefficient, *factors in terms[:-1] if divisor else terms:
            term = self.product(coefficient, factors, env)
            if isinstance(term, float) and not pieces:
                lead += term  # the sum's literal lead, added as it runs
            elif term is not None:
                pieces.append(term if isinstance(term, tuple)
                              else (term < 0.0, repr(abs(term))))
        if lead and (pieces or divisor):
            pieces.insert(0, (lead < 0.0, repr(abs(lead))))
        if not pieces:
            return lead  # 0.0 where every term, and so any quotient, is 0
        text = ""
        for negative, body in pieces:
            text += ((" - " if negative else " + ") if text
                     else "-" * negative) + body
        if divisor:
            text = (f"({text})" if len(pieces) > 1 else text) \
                + f" / {env[divisor]}"
        return text if text.isidentifier() else self.assign(text)

    @staticmethod
    def product(coefficient: float, factors, env):
        """``coefficient * factors``: None if a factor is a literal zero, a
        float if every factor is a literal, else (negative, text)."""
        lead, parts, negative = coefficient, [], False
        for v in map(env.__getitem__, factors):
            if isinstance(v, str):
                parts.append(v)
                continue
            if v == 0.0:
                return None
            if not parts:
                lead *= v  # what the product computes before its first name
                continue
            negative ^= v < 0.0  # t * c is -(t * -c), and t * 1.0 is t
            if abs(v) != 1.0:
                parts.append(repr(abs(v)))
        if not parts:
            return lead
        if abs(lead) != 1.0:
            parts.insert(0, repr(abs(lead)))
        return negative ^ (lead < 0.0), " * ".join(parts)

    def node(self, node: Node) -> tuple:
        if isinstance(node, Var):
            return ("x", 1.0, *self.one[2:])
        if isinstance(node, (Num, Const)):
            c = node.value if isinstance(node, Num) else _CONSTANTS[node.name]
            return (self.name(c), *self.one[1:])
        if isinstance(node, Neg):
            return self.rule("neg", a=self.node(node.operand))
        if isinstance(node, Func):
            return self.func(node.name, node, self.node(node.arg))
        if isinstance(node, BinOp):
            a = self.node(node.left)
            if node.op == "^":
                return self.power(node, a)
            b = self.node(node.right)
            if node.op == "/":
                self.fail(f"{b[0]} == 0.0", node, "division by zero")
            return self.rule(node.op, a=a, b=b)
        raise TypeError(f"not an expression node: {node!r}")

    def func(self, name: str, node: Node, u: tuple) -> tuple:
        v, partner = u[0], ()
        if name in ("log", "sqrt"):  # derivatives blow up at 0: need v > 0
            self.fail(f"{v} <= 0.0", node, f"{name} needs a positive argument")
            self.normal(node, u, f"{name} argument")
            value = self.assign(f"{name}({v})")
        elif name == "exp":
            value = self.guarded(f"exp({v})", node, "OverflowError",
                                 "exp overflow")
        else:  # cos raises where sin does, on an inf, so one guard serves
            s = self.guarded(f"sin({v})", node, "ValueError",
                             f"{name} needs a finite argument")
            c = self.assign(f"cos({v})")
            value, partner = (s, (c,)) if name == "sin" else (c, (s,))
        if name == "log":  # the quotient's last order is never read
            return (value, *self.rule("/", a=(*u[1:], 0.0), b=u)[:-1])
        return self.rule(name, u=u, d=u[1:], p=(value,), h=partner,
                         c=0.5)  # the exponent of sqrt

    def normal(self, node: Node, u: tuple, what: str):
        """Refuse a subnormal u0, too few bits for the rules that divide by
        it, where u moves with x: where u1 is not 0, as the tree decides."""
        moves = self.fold(_text(u[1]))
        if moves is None or moves:
            test = f"{u[0]} < {_NORMAL_MIN!r}"
            self.fail(test if moves else f"{test} and {u[1]}", node,
                      f"{what} is subnormal, too few bits for its derivatives")

    def power(self, node: BinOp, base: tuple) -> tuple:
        # The tree picks the rule: an exponent that reads x takes exp(w log u),
        # and an integer the tree's numbers fix is unrolled.
        e = self.node(node.right)
        if _reads_x(node.right):
            return self.variable_pow(node, e, base)
        c = self.fold(str(e[0]))  # None where computing it always raises
        if c is not None and abs(c) <= _MAX_INT_EXPONENT and c == int(c):
            return self.int_pow(node, base, int(c))
        return self.constant_pow(node, e, base)

    def constant_pow(self, node: BinOp, e: tuple, base: tuple) -> tuple:
        v, k = base[0], e[0]
        self.fail(f"{v} <= 0.0", node,
                  "non-integer exponent needs a positive base")
        self.normal(node, base, "base")
        value = self.guarded(f"{v} ** {k}", node, "OverflowError",
                             "power overflow")
        return self.rule("^", u=base, d=base[1:], c=k, p=(value,))

    def variable_pow(self, node: BinOp, e: tuple, base: tuple) -> tuple:
        self.fail(f"{base[0]} <= 0.0", node,
                  "variable exponent needs a positive base")
        log_base = self.func("log", node, base)  # the guards name the ^
        return self.func("exp", node, self.rule("*", a=e, b=log_base))

    def int_pow(self, node: BinOp, u: tuple, n: int) -> tuple:
        """u**n unrolled by repeated squaring; n < 0 needs u0**-n != 0."""
        if n < 0:
            self.fail(f"{u[0]} == 0.0", node,
                      "zero raised to a negative power")
            p = self.int_pow(node, u, -n)  # may underflow where u0 does not
            self.fail(f"{p[0]} == 0.0", node,
                      "base too small for a negative power")
            return self.rule("/", a=self.one, b=p)
        result = self.one
        while n:
            if n & 1:
                result = self.rule("*", a=result, b=u)
            n >>= 1
            if n:
                u = self.rule("*", a=u, b=u)
        return result

    def live(self, result) -> list[str]:
        """The lines that ``result`` or a kept line reads, and every line
        that assigns no local: the guards and ``try`` blocks."""
        needed, kept = set(_words(_text(result))), []
        for text, assigns in reversed(self.lines):
            if not assigns or needed.intersection(assigns):
                kept.append(text)
                needed.update(_words(text))
        return kept[::-1]

    def build(self, out: tuple, node: str) -> Callable:
        """``def jet(x)``: the lines that ``out`` and the guards read,
        returning ``out``, or its one item alone; it raises, naming the
        global ``node``, where the result is not finite."""
        lines = self.live(out)
        names = [v for v in out if isinstance(v, str) and not
                 math.isfinite(self.pool.get(v, math.nan))]
        if names:
            lines += ["    if not ("
                      f"{' and '.join(f'isfinite({v})' for v in names)}):",
                      f"        raise _domain({node}, x, "
                      "'result is not finite')"]
        value = ", ".join(map(_text, out))
        source = "\n".join(["def jet(x):", *lines, "    return "
                            + (f"({value})" if len(out) > 1 else value)])
        namespace = dict(self.pool, _domain=_domain, DomainError=DomainError,
                         isfinite=math.isfinite, **_FOLDABLE)
        exec(compile(source, "<hh3 jet>", "exec"), namespace)
        jet = namespace["jet"]
        jet.source = source
        return jet


@functools.lru_cache(maxsize=256)
def _lowered(node: Node, text: str, order: int) -> Callable[..., Callable]:
    """The tree's lines, written once; a pick (start, stop) of the jet's
    outputs -> its function, built once."""
    c = _JetCompiler(order)
    c.emit("if not isfinite(x):")
    c.emit("    raise DomainError('evaluation point must be finite', x=x)")
    jet, name = c.node(node), c.name(node)
    return functools.cache(lambda pick: c.build(jet[slice(*pick)], name))


def compile_jet(node: Node, order: int) -> Callable[[float], tuple]:
    """The jet (f, f', ...) of ``node`` to ``order`` >= 3, a function of x.

    It performs the float operations of the jet rules in the order a recursive
    walk of the tree would, but for the terms with a zero factor and the
    factors of 1 that the derivatives of x and of constants bring: these it
    leaves out, so f keeps its bits and a derivative that is 0 may come out
    with the other sign.  Where such a zero met an inf, the walk's NaN becomes
    the true value.  A power's rule is the tree's: exp(w log u), for a base
    u > 0, where the exponent w reads x, even if its value is constant; else
    u^c, unrolled where c is an integer of at most 2^16.  A guard or a
    finiteness check that reads only the tree's numbers is decided as it
    compiles; one that always raises stays, so its error names x.  It
    raises what eval_jet3 documents or ValueError, and holds its text in
    ``source``.  Cached with its picks on the tree, its text (Num(0.0) ==
    Num(-0.0)) and the order.
    """
    if not (type(order) is int and order >= 3):   # before the cache: 3.0 == 3
        raise ValueError(f"jet order must be an integer >= 3, got {order!r}")
    return _lowered(node, to_text(node), order)((0, None))


def compile_f3(node: Node) -> Callable[[float], float]:
    """f''' alone, the pick from ``compile_jet(node, 3)``: its f''' bit for
    bit, raising what it raises but "result is not finite" for f to f''."""
    return _lowered(node, to_text(node), 3)((3, 4))


def eval_jet3(node: Node, x: float) -> tuple[float, float, float, float]:
    """Evaluate ``(f(x), f'(x), f''(x), f'''(x))`` exactly via jet arithmetic.

    Raises :class:`DomainError` naming the offending subexpression when the
    point leaves a function's domain, a power or ``exp`` overflows, the
    argument of ``log``, ``sqrt`` or a non-integer power is subnormal where
    it moves with x, or the result is not finite.
    """
    return compile_jet(node, 3)(x)


def evaluate(node: Node, x: float) -> float:
    """The value component of :func:`eval_jet3`; errors are identical."""
    return compile_jet(node, 3)(x)[0]
