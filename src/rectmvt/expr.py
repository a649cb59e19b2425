"""Bivariate expression trees: parsing, printing, and plain evaluation.

The grammar is a small calculator language over the variables x and y
(t and s are accepted as aliases and normalized at parse time):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'pi' | 'e' | IDENT | IDENT '(' expr ')' | '(' expr ')'

``^`` binds tightest and is right-associative, then unary minus, then
``*``/``/``, then ``+``/``-``.  :func:`evaluate` gives plain values: a
float for plain numbers, and an array for numpy arrays, which broadcast
through the arithmetic operators and ``^``.  Derivatives come from
:func:`rectmvt.hyperdual.compile_hyperdual`, which compiles a tree once into a
program that does the hyper-dual arithmetic.

Every walk over a tree, here and in :mod:`rectmvt.hyperdual` and the CLI,
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
    "substitute",
    "variables",
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


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "end", or the operator/paren character itself
    text: str
    offset: int


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(i, "unexpected character", c)
    tokens.append(_Token("end", "", n))
    return tokens


# most levels an expression may nest: each parenthesis, unary minus, ``^``,
# function call and binary operator is one level over its operands, which
# bounds the recursion of the parser and of every walk over the tree
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns its node and its nesting height."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses, minus signs, exponents and calls open at pos

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def level(self, tok: _Token, *heights: int) -> int:
        """Height of the construct ``tok`` opens over operands of these heights."""
        height = max(heights) + 1
        if height > MAX_DEPTH:
            raise ParseError(tok.offset, "nested too deeply", tok.text)
        return height

    def nested(self, tok: _Token, rule, *heights: int) -> tuple[Expression, int]:
        """``rule()`` inside the construct ``tok`` opens, and the construct's height.

        A construct is at least as high as it is deep, so checking the depth on
        the way down rejects deep input before the recursion gets deep.
        """
        self.depth = self.level(tok, self.depth)
        node, height = rule()
        self.depth -= 1
        return node, self.level(tok, height, *heights)

    def expr(self) -> tuple[Expression, int]:
        node, height = self.term()
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            right, right_height = self.term()
            node, height = BinOp(tok.kind, node, right), self.level(tok, height, right_height)
        return node, height

    def term(self) -> tuple[Expression, int]:
        node, height = self.factor()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            right, right_height = self.factor()
            node, height = BinOp(tok.kind, node, right), self.level(tok, height, right_height)
        return node, height

    def factor(self) -> tuple[Expression, int]:
        if self.peek().kind == "-":
            tok = self.advance()
            child, height = self.nested(tok, self.factor)
            return Neg(child), height
        return self.power()

    def power(self) -> tuple[Expression, int]:
        node, height = self.atom()
        if self.peek().kind == "^":
            tok = self.advance()
            # right-associative: the exponent restarts at factor level
            exponent, height = self.nested(tok, self.factor, height)
            return BinOp("^", node, exponent), height
        return node, height

    def atom(self) -> tuple[Expression, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text)), 0
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name]), 0
            if name in _ALIASES:
                return Var(_ALIASES[name]), 0
            if name in FUNCTIONS:
                opener = self.peek()
                if opener.kind != "(":
                    raise ParseError(opener.offset, "expected '(' after function name", opener.text)
                self.advance()
                arg, height = self.nested(tok, self.expr)
                closer = self.peek()
                if closer.kind != ")":
                    raise ParseError(closer.offset, "unbalanced parentheses", closer.text)
                self.advance()
                return Call(name, arg), height
            raise ParseError(tok.offset, "unknown identifier", name)
        if tok.kind == "(":
            self.advance()
            node, height = self.nested(tok, self.expr)
            closer = self.peek()
            if closer.kind != ")":
                raise ParseError(closer.offset, "unbalanced parentheses", closer.text)
            self.advance()
            return node, height
        raise ParseError(tok.offset, "empty operand", tok.text)


def parse(text: str) -> Expression:
    """Parse expression text into a tree, normalizing the t/s aliases to x/y.

    Input nested more than :data:`MAX_DEPTH` levels deep raises :class:`ParseError`.
    """
    if not text or not text.strip():
        raise ParseError(0, "empty input")
    parser = _Parser(_tokenize(text))
    node, _ = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.offset, "trailing garbage", tok.text)
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


def variables(expr: Expression) -> frozenset[str]:
    """Set of variable names the expression actually uses."""
    t = type(expr)
    if t is BinOp:
        return variables(expr.left) | variables(expr.right)
    if t is Const:
        return frozenset()
    if t is Var:
        return frozenset((expr.name,))
    if t is Neg:
        return variables(expr.child)
    if t is Call:
        return variables(expr.arg)
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
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return _pow_real(a, b)
        return a ** b  # numpy arrays
    if t is Const:
        return node.value
    if t is Var:
        return x if node.name == "x" else y
    if t is Neg:
        return -_eval(node.child, x, y)
    if t is Call:
        return _call_real(node.fn, _eval(node.arg, x, y))
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
