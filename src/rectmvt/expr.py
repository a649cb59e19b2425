"""Bivariate expression trees: parsing, printing, and plain evaluation.

The grammar is a small calculator language over the variables x and y
(t and s are accepted as aliases and normalized at parse time):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'pi' | 'e' | IDENT | IDENT '(' expr ')' | '(' expr ')'

``^`` binds tightest and is right-associative, then unary minus, then
``*``/``/``, then ``+``/``-``.

:func:`parse` finds the tokens with one regular expression in one pass and
descends over them with one plain function per rule.  Malformed text raises
:class:`ParseError` with the offset and text of the token at fault.  A
character that starts no token is reported first; otherwise the first fault
the parser meets reading left to right.  Nesting past :data:`MAX_DEPTH` is
named at the construct that goes over it, and met on the way in or once that
construct's operands are read; a number too large for a float is met at the
literal.

:func:`evaluate` gives plain values: a float for plain numbers, and an array
for numpy arrays, which broadcast through the arithmetic operators and ``^``.
Derivatives come from :func:`rectmvt.hyperdual.compile_hyperdual`, which
compiles a tree once into a program that does the hyper-dual arithmetic.
``_at_corners`` evaluates a tree at four points in one walk, with the float
operations of :func:`evaluate`; the rectangle's corners and the
finite-difference stencil are read through it.

Every walk over a tree, here, in :mod:`rectmvt.hyperdual` and in the CLI,
branches on ``type(node) is BinOp`` (the most common node, so it comes
first), then ``Const``, ``Var``, ``Neg`` and ``Call``, and raises
``TypeError`` for anything else.  No node class has subclasses, so this
accepts what a ``match`` on class patterns accepts, at about a third of the
cost per node.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

__all__ = [
    "BinOp",
    "Call",
    "Const",
    "EvaluationError",
    "Expression",
    "Neg",
    "OutOfDomainError",
    "ParseError",
    "Var",
    "const",
    "evaluate",
    "parse",
    "pretty_print",
    "reads_variable",
    "substitute",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_ALIASES = {"x": "x", "y": "y", "t": "x", "s": "y"}


class ParseError(Exception):
    """Malformed expression text; carries the byte offset and offending token."""

    def __init__(self, offset: int, message: str, token: str = ""):
        detail = f"{message} at offset {offset}"
        if token:
            detail += f" (near {token!r})"
        super().__init__(detail)
        self.offset = offset
        self.message = message
        self.token = token


class EvaluationError(Exception):
    """Evaluation left the algebra's domain or produced a non-finite value."""


class OutOfDomainError(EvaluationError):
    """An operation met an argument outside its domain: a zero divisor, a
    non-positive log or sqrt argument, or a power of a base it is undefined
    for.  Overflow and other non-finite results stay plain
    :class:`EvaluationError`."""


class SignChangeError(OutOfDomainError):
    """A quantity that must not vanish, such as a divisor, takes both signs on
    a grid of samples but is zero at none of them.  It is continuous wherever
    it is defined, so it vanishes, or is itself undefined, between two
    samples; no single sample fails."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y" after alias normalization


@dataclass(frozen=True)
class Neg:
    child: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str  # one of FUNCTIONS
    arg: "Expression"


Expression = Union[Const, Var, Neg, BinOp, Call]


def const(value: float) -> Expression:
    """Constant node; negatives become ``Neg(Const(|v|))`` so printing round-trips."""
    v = float(value)
    if v < 0:
        return Neg(Const(-v))
    return Const(v)


# one pass finds every token.  Group 1 holds a number, an identifier or an
# operator, tried in that order; any other character but whitespace matches
# alone with group 1 empty; whitespace matches nothing, so the scan skips it
_TOKEN_RE = re.compile(
    r"((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()])|\S"
)

# most levels an expression may nest: each parenthesis, unary minus, ``^``,
# function call and binary operator is one level over its operands, which
# bounds the recursion of the parser and of every walk over the tree
MAX_DEPTH = 100

# nodes are immutable, so one node per name serves every tree
_LEAVES = {name: Const(v) for name, v in _CONSTANTS.items()}
_LEAVES.update((name, Var(v)) for name, v in _ALIASES.items())


class _Fail(Exception):
    """A parse error at a token index; :func:`parse` turns it into a :class:`ParseError`."""


# Each rule takes the tokens, the index it starts at and the number of
# parentheses, minus signs, exponents and calls open there, and returns its
# node, its nesting height and the index after it.  A construct is at least
# as high as it is deep, so checking the depth on the way down rejects deep
# input before the recursion gets deep.


def _expr(toks: list[str], i: int, depth: int):
    node, height, i = _term(toks, i, depth)
    while (op := toks[i]) == "+" or op == "-":
        right, right_height, j = _term(toks, i + 1, depth)
        height = max(height, right_height) + 1
        if height > MAX_DEPTH:
            raise _Fail(i, "nested too deeply")
        node, i = BinOp(op, node, right), j
    return node, height, i


def _term(toks: list[str], i: int, depth: int):
    node, height, i = _factor(toks, i, depth)
    while (op := toks[i]) == "*" or op == "/":
        right, right_height, j = _factor(toks, i + 1, depth)
        height = max(height, right_height) + 1
        if height > MAX_DEPTH:
            raise _Fail(i, "nested too deeply")
        node, i = BinOp(op, node, right), j
    return node, height, i


def _factor(toks: list[str], i: int, depth: int):
    """``'-' factor``, or an atom and its optional right-associative ``'^' factor``."""
    tok = toks[i]
    if tok == "-":
        child, height, j = _open(_factor, toks, i, i + 1, depth)
        return Neg(child), height, j
    if tok == "(":
        node, height, j = _open(_expr, toks, i, i + 1, depth)
        j = _close(toks, j)
    elif (node := _LEAVES.get(tok)) is not None:
        height, j = 0, i + 1
    elif (c := tok[:1]) == "." or c.isdecimal():  # what ``\d`` matches
        value = float(tok)
        if not math.isfinite(value):
            raise _Fail(i, "number too large")
        node, height, j = Const(value), 0, i + 1
    elif tok in FUNCTIONS:
        if toks[i + 1] != "(":
            raise _Fail(i + 1, "expected '(' after function name")
        arg, height, j = _open(_expr, toks, i, i + 2, depth)
        node, j = Call(tok, arg), _close(toks, j)
    elif c.isalpha() or c == "_":
        raise _Fail(i, "unknown identifier")
    else:
        raise _Fail(i, "empty operand")
    if toks[j] == "^":
        exponent, exponent_height, k = _open(_factor, toks, j, j + 1, depth)
        if height >= MAX_DEPTH:
            raise _Fail(j, "nested too deeply")
        return BinOp("^", node, exponent), max(exponent_height, height + 1), k
    return node, height, j


def _open(rule, toks: list[str], at: int, i: int, depth: int):
    """``rule`` from ``i`` inside the construct that the token at ``at`` opens,
    with the construct's height over its operand."""
    if depth >= MAX_DEPTH:
        raise _Fail(at, "nested too deeply")
    node, height, j = rule(toks, i, depth + 1)
    if height >= MAX_DEPTH:
        raise _Fail(at, "nested too deeply")
    return node, height + 1, j


def _close(toks: list[str], i: int) -> int:
    if toks[i] != ")":
        raise _Fail(i, "unbalanced parentheses")
    return i + 1


def parse(text: str) -> Expression:
    """Parse expression text into a tree, normalizing the t/s aliases to x/y.

    Input nested more than :data:`MAX_DEPTH` levels deep, or a number literal
    too large for a float, raises :class:`ParseError`.
    """
    if not text or not text.strip():
        raise ParseError(0, "empty input")
    toks = _TOKEN_RE.findall(text)
    if "" in toks:
        m = next(m for m in _TOKEN_RE.finditer(text) if not m.group(1))
        raise ParseError(m.start(), "unexpected character", m.group())
    toks.append("")  # the end of the input
    try:
        node, _, i = _expr(toks, 0, 0)
        if toks[i]:
            raise _Fail(i, "trailing garbage")
    except _Fail as fail:
        k, message = fail.args
        offsets = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
        raise ParseError(offsets[k], message, toks[k]) from None
    return node


def _fmt_number(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pretty_print(expr: Expression) -> str:
    """Fully parenthesized canonical form; ``parse(pretty_print(e)) == e``."""
    t = type(expr)
    if t is BinOp:
        return f"({pretty_print(expr.left)}{expr.op}{pretty_print(expr.right)})"
    if t is Const:
        return _fmt_number(expr.value)
    if t is Var:
        return expr.name
    if t is Neg:
        return f"(-{pretty_print(expr.child)})"
    if t is Call:
        return f"{expr.fn}({pretty_print(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


def reads_variable(expr: Expression, names=("x", "y")) -> bool:
    """Whether the expression reads a variable named in ``names``; a constant
    subtree reads none.  The walk stops at the first such variable, which is
    found soonest in the base of a power and in the last term of a sum or
    product, so those are read first."""
    t = type(expr)
    if t is BinOp:
        first, second = (expr.left, expr.right) if expr.op == "^" else (expr.right, expr.left)
        return reads_variable(first, names) or reads_variable(second, names)
    if t is Const:
        return False
    if t is Var:
        return expr.name in names
    if t is Neg:
        return reads_variable(expr.child, names)
    if t is Call:
        return reads_variable(expr.arg, names)
    raise TypeError(f"not an expression node: {expr!r}")


def substitute(expr: Expression, mapping: dict[str, Expression]) -> Expression:
    """Replace each variable named in ``mapping`` by the given subtree."""
    t = type(expr)
    if t is BinOp:
        return BinOp(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if t is Const:
        return expr
    if t is Var:
        return mapping.get(expr.name, expr)
    if t is Neg:
        return Neg(substitute(expr.child, mapping))
    if t is Call:
        return Call(expr.fn, substitute(expr.arg, mapping))
    raise TypeError(f"not an expression node: {expr!r}")


def _pow_real(base: float, exponent: float) -> float:
    b, p = float(base), float(exponent)
    if b > 0.0:
        return math.pow(b, p)
    if b == 0.0:
        if p > 0.0:
            return 0.0
        if p == 0.0:
            return 1.0
        raise OutOfDomainError("zero base raised to a negative exponent")
    if p.is_integer():
        return math.pow(b, p)
    raise OutOfDomainError("fractional power of a negative base")


def _pow(a, b):
    """``a ^ b`` as :func:`evaluate` computes it: plain numbers through
    :func:`_pow_real`, anything else (numpy arrays and scalars) through ``**``."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _pow_real(a, b)
    return a ** b


def _call_real(fn: str, v: float):
    if fn == "sin":
        return math.sin(v)
    if fn == "cos":
        return math.cos(v)
    if fn == "exp":
        return math.exp(v)
    if fn == "log":
        if v <= 0.0:
            raise OutOfDomainError("log of a non-positive value")
        return math.log(v)
    if fn == "sqrt":
        if v < 0.0:
            raise OutOfDomainError("sqrt of a negative value")
        return math.sqrt(v)
    raise EvaluationError(f"unsupported function {fn!r}")


def _eval(node: Expression, x, y):
    t = type(node)
    if t is BinOp:
        a = _eval(node.left, x, y)
        b = _eval(node.right, x, y)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        return _pow(a, b)
    if t is Const:
        return node.value
    if t is Var:
        return x if node.name == "x" else y
    if t is Neg:
        return -_eval(node.child, x, y)
    if t is Call:
        return _call_real(node.fn, _eval(node.arg, x, y))
    raise TypeError(f"not an expression node: {node!r}")


def _at_corners(node: Expression, X: tuple, Y: tuple) -> tuple:
    """``node`` at four points at once: ``X`` holds their x coordinates and
    ``Y`` their y coordinates.  Each node does ``evaluate``'s float operation
    once per point, so each value is the one ``evaluate`` returns there, but
    no value is checked to be finite."""
    t = type(node)
    if t is BinOp:
        a0, a1, a2, a3 = _at_corners(node.left, X, Y)
        b0, b1, b2, b3 = _at_corners(node.right, X, Y)
        op = node.op
        if op == "+":
            return (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
        if op == "-":
            return (a0 - b0, a1 - b1, a2 - b2, a3 - b3)
        if op == "*":
            return (a0 * b0, a1 * b1, a2 * b2, a3 * b3)
        if op == "/":
            return (a0 / b0, a1 / b1, a2 / b2, a3 / b3)
        # a parsed tree at points of floats has floats at every node;
        # other numbers take ``evaluate``'s own dispatch, per point
        if (
            type(a0) is type(a1) is type(a2) is type(a3) is float
            and type(b0) is type(b1) is type(b2) is type(b3) is float
        ):
            return (_pow_real(a0, b0), _pow_real(a1, b1), _pow_real(a2, b2), _pow_real(a3, b3))
        return tuple(map(_pow, (a0, a1, a2, a3), (b0, b1, b2, b3)))
    if t is Const:
        v = node.value
        return (v, v, v, v)
    if t is Var:
        return X if node.name == "x" else Y
    if t is Neg:
        a0, a1, a2, a3 = _at_corners(node.child, X, Y)
        return (-a0, -a1, -a2, -a3)
    if t is Call:
        fn = node.fn
        a0, a1, a2, a3 = _at_corners(node.arg, X, Y)
        return (_call_real(fn, a0), _call_real(fn, a1), _call_real(fn, a2), _call_real(fn, a3))
    raise TypeError(f"not an expression node: {node!r}")


def evaluation_error(exc: ArithmeticError | ValueError) -> EvaluationError:
    """The :class:`EvaluationError` that a float operation's own exception becomes:
    a zero divisor is outside the domain, an overflow or a math domain error of
    a non-finite argument is not."""
    if isinstance(exc, ZeroDivisionError):
        return OutOfDomainError(str(exc))
    return EvaluationError(str(exc))


def evaluate(expr: Expression, x, y):
    """Evaluate ``expr`` at ``(x, y)``.

    Plain numbers produce a plain float.  numpy arrays broadcast through the
    arithmetic operators and ``^`` to an array; the functions take scalars
    only.  Any domain violation or non-finite plain result raises
    :class:`EvaluationError`.
    """
    try:
        result = _eval(expr, x, y)
    except EvaluationError:
        raise
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise evaluation_error(exc) from exc
    if isinstance(result, (int, float)) and not math.isfinite(result):
        raise EvaluationError("result is not finite")
    return result
