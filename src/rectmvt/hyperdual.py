"""Hyper-dual algebra: exact value, first partials and mixed partial.

A hyper-dual number carries ``(v, dx, dy, dxy)`` — the value, both first
partials, and the mixed second partial — through arithmetic exactly, so one
evaluation of an expression yields every derivative the rectangle theorems
need, with no truncation error and no step-size tuning (Fike & Alonso,
AIAA 2011-886).

:func:`compile_hyperdual` walks an expression tree once and returns a program
of nested closures, ``(x, y) -> (v, dx, dy, dxy)``; every residual field runs
such a program, which is tested bit for bit against the operator-by-operator
reference in ``tests/hyperdual_reference.py``.  :func:`eval_hyperdual` and
:func:`finite_difference_oracle` return a :class:`Derivatives` named tuple.

Components are ordinarily floats, but numpy arrays broadcast through the same
formulas, which lets a residual field be screened on a whole grid in one pass.
The one-dimensional theorems use the same algebra: for an expression in x
only, the program run at ``(x, 0.0)`` carries its value and derivative in
``(v, dx)``.

An integer power ``h ^ n`` is |n| - 1 products, so |n| is bounded by
:data:`MAX_INT_POWER`: compiling a constant exponent beyond it raises
``ValueError`` before anything is evaluated, and an exponent that depends on
x or y but evaluates to such an integer raises ``EvaluationError`` when it
is evaluated.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .expr import (
    BinOp,
    Call,
    Const,
    EvaluationError,
    Expression,
    Neg,
    OutOfDomainError,
    Var,
    _eval,
    _fmt_number,
    evaluate,
    evaluation_error,
)

__all__ = [
    "Derivatives",
    "compile_hyperdual",
    "eval_hyperdual",
    "finite_difference_oracle",
]

_CBRT_EPS = sys.float_info.epsilon ** (1.0 / 3.0)

# largest |n| of an integer exponent ``h ^ n``: the power takes |n| - 1 hyper-dual
# products per evaluation; compiling a larger constant one raises ValueError, and
# evaluating a larger one that depends on x or y raises EvaluationError
MAX_INT_POWER = 1024


def _any(cond) -> bool:
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


class Derivatives(NamedTuple):
    """Value, first partials and mixed partial of ``f`` at a point (or grid)."""

    v: float | np.ndarray
    dx: float | np.ndarray
    dy: float | np.ndarray
    dxy: float | np.ndarray


# -- compiled programs -----------------------------------------------------
#
# A compiled node is a closure ``(X, Y) -> (v, dx, dy, dxy)`` over the two seed
# tuples, or the plain value of a constant-only subtree.  Each operator compiles
# to one closure, which does the float operations of the matching method of the
# reference class ``HyperDual`` in ``tests/hyperdual_reference.py``, in the same
# order and on the same operands, so the results agree bit for bit: a folded
# constant that meets a varying operand enters as an operand closure returning
# the tuple HyperDual lifts it to, and a plain left operand keeps the operand
# order of the reflected method Python falls back to (``c * h`` runs
# ``h.__mul__(c)``, ``c - h`` runs ``h.__rsub__(c)``).  Only ``h ^ c`` is split
# at compile time, for the exponent bound and the direct integer power.

Components = tuple  # (v, dx, dy, dxy)
Program = Callable[[object, object], Components]


def _lifted(c) -> Components:
    return (float(c), 0.0, 0.0, 0.0)


_ONE = _lifted(1.0)


def _mul(a: Components, b: Components) -> Components:
    av, adx, ady, adxy = a
    bv, bdx, bdy, bdxy = b
    return (
        av * bv,
        av * bdx + adx * bv,
        av * bdy + ady * bv,
        (av * bdxy + adxy * bv) + (adx * bdy + ady * bdx),
    )


def _chain(a: Components, value, d1, d2) -> Components:
    _, dx, dy, dxy = a
    return (value, d1 * dx, d1 * dy, d1 * dxy + d2 * (dx * dy))


def _reciprocal(a: Components) -> Components:
    v = a[0]
    if _any(v == 0):
        raise OutOfDomainError("division by zero")
    inv = 1.0 / v
    return _chain(a, inv, -inv * inv, 2.0 * (inv * inv) * inv)


def _int_pow(a: Components, n: int) -> Components:
    if n == 0:
        return _ONE
    if n < 0:
        return _int_pow(_reciprocal(a), -n)
    out = a
    for _ in range(n - 1):
        out = _mul(out, a)
    return out


def _number_pow(a: Components, p) -> Components:
    p = float(p)
    if p.is_integer():
        # an exponent that depends on x or y is only known here, when evaluated
        if abs(p) > MAX_INT_POWER:
            raise EvaluationError(
                f"integer exponents must be at most MAX_INT_POWER = {MAX_INT_POWER} "
                f"in magnitude, got {_fmt_number(p)}"
            )
        return _int_pow(a, int(p))
    v = a[0]
    if _any(v <= 0):
        raise OutOfDomainError("fractional power needs a positive base")
    return _chain(a, v ** p, p * v ** (p - 1.0), p * (p - 1.0) * v ** (p - 2.0))


def _pow(a: Components, b: Components) -> Components:
    bv, bdx, bdy, bdxy = b
    if isinstance(bv, float) and bdx == 0.0 and bdy == 0.0 and bdxy == 0.0:
        return _number_pow(a, bv)
    if _any(a[0] <= 0):
        raise OutOfDomainError("power with a varying exponent needs a positive base")
    return _exp(_mul(b, _log(a)))


def _mathlib(v):
    return np if isinstance(v, np.ndarray) else math


def _sin(a: Components) -> Components:
    v = a[0]
    m = _mathlib(v)
    sin = m.sin(v)
    return _chain(a, sin, m.cos(v), -sin)


def _cos(a: Components) -> Components:
    v = a[0]
    m = _mathlib(v)
    cos = m.cos(v)
    return _chain(a, cos, -m.sin(v), -cos)


def _exp(a: Components) -> Components:
    e = _mathlib(a[0]).exp(a[0])
    return _chain(a, e, e, e)


def _log(a: Components) -> Components:
    v = a[0]
    if _any(v <= 0):
        raise OutOfDomainError("log of a non-positive value")
    inv = 1.0 / v
    return _chain(a, _mathlib(v).log(v), inv, -inv * inv)


def _sqrt(a: Components) -> Components:
    v = a[0]
    if _any(v <= 0):
        raise OutOfDomainError("sqrt needs a positive argument for its derivatives")
    r = _mathlib(v).sqrt(v)
    return _chain(a, r, 0.5 / r, -0.25 / (r * v))


_UNARY = {"sin": _sin, "cos": _cos, "exp": _exp, "log": _log, "sqrt": _sqrt}


def _operand(a) -> Program:
    """A compiled operand as a closure; a folded constant returns its lifted tuple."""
    if callable(a):
        return a
    k = _lifted(a)
    return lambda X, Y: k


def _add_node(a, b):
    if not callable(a):  # c + h falls back to h.__radd__(c), which is h + c
        a, b = b, a
    b = _operand(b)

    def add(X, Y):
        av, adx, ady, adxy = a(X, Y)
        bv, bdx, bdy, bdxy = b(X, Y)
        return (av + bv, adx + bdx, ady + bdy, adxy + bdxy)

    return add


def _sub_node(a, b):
    a, b = _operand(a), _operand(b)  # c - h falls back to h.__rsub__(c): lift(c) - h

    def sub(X, Y):
        av, adx, ady, adxy = a(X, Y)
        bv, bdx, bdy, bdxy = b(X, Y)
        return (av - bv, adx - bdx, ady - bdy, adxy - bdxy)

    return sub


def _mul_node(a, b):
    # the hottest node: _mul written out, to save a call per product
    if not callable(a):  # c * h falls back to h.__rmul__(c), which is h * c
        a, b = b, a
    b = _operand(b)

    def mul(X, Y):
        av, adx, ady, adxy = a(X, Y)
        bv, bdx, bdy, bdxy = b(X, Y)
        return (
            av * bv,
            av * bdx + adx * bv,
            av * bdy + ady * bv,
            (av * bdxy + adxy * bv) + (adx * bdy + ady * bdx),
        )

    return mul


def _div_node(a, b):
    # h / c is h * lift(c).reciprocal(); c / h falls back to h.__rtruediv__(c),
    # which is lift(c) * h.reciprocal()
    a, b = _operand(a), _operand(b)
    return lambda X, Y: _mul(a(X, Y), _reciprocal(b(X, Y)))


def _pow_node(a, b):
    if not callable(b):  # h ^ c takes HyperDual.__pow__'s plain-number path
        p = float(b)
        if p.is_integer():
            if abs(p) > MAX_INT_POWER:
                raise ValueError(
                    f"integer exponents must be at most {MAX_INT_POWER} in magnitude, "
                    f"got {_fmt_number(p)}"
                )
            n = int(p)
            return lambda X, Y: _int_pow(a(X, Y), n)
        return lambda X, Y: _number_pow(a(X, Y), p)
    a = _operand(a)  # c ^ h falls back to h.__rpow__(c): lift(c) ** h
    return lambda X, Y: _pow(a(X, Y), b(X, Y))


_BINARY = {"+": _add_node, "-": _sub_node, "*": _mul_node, "/": _div_node, "^": _pow_node}


def _seed_x(X, Y):
    return X


def _seed_y(X, Y):
    return Y


def _fold(node: Expression):
    """Plain value of a constant-only subtree, computed once as ``evaluate``
    computes it; a subtree that raises stays a closure raising the same error."""
    try:
        return _eval(node, None, None)
    except (ArithmeticError, ValueError, EvaluationError):
        return lambda X, Y: _eval(node, None, None)


def _compile(node: Expression):
    t = type(node)
    if t is BinOp:
        a, b = _compile(node.left), _compile(node.right)
        if not (callable(a) or callable(b)):
            return _fold(node)
        return _BINARY[node.op](a, b)
    if t is Const:
        return node.value
    if t is Var:
        return _seed_x if node.name == "x" else _seed_y
    if t is Neg:
        c = _compile(node.child)
        if not callable(c):
            return _fold(node)

        def neg(X, Y):
            v, dx, dy, dxy = c(X, Y)
            return (-v, -dx, -dy, -dxy)

        return neg
    if t is Call:
        a = _compile(node.arg)
        if not callable(a):
            return _fold(node)
        unary = _UNARY[node.fn]
        return lambda X, Y: unary(a(X, Y))
    raise TypeError(f"not an expression node: {node!r}")


def compile_hyperdual(f: Expression) -> Program:
    """Compile ``f`` into a program ``(x, y) -> (v, dx, dy, dxy)``.

    The program computes what the reference evaluator of
    ``tests/hyperdual_reference.py`` computes over hyper-dual seeds, bit for
    bit, for floats and numpy arrays alike, and raises the same
    :class:`EvaluationError` (including a non-finite float component).  Compiling walks the tree once; build a
    program once per expression and call it many times.  A constant integer
    exponent beyond :data:`MAX_INT_POWER` in magnitude raises ``ValueError``;
    a varying one that evaluates to such an integer raises ``EvaluationError``.
    """
    body = _compile(f)
    if not callable(body):
        # a constant f: a non-finite value is rejected, a finite one lifted
        if math.isfinite(body):
            out = _lifted(body)
            return lambda x, y: out

        def not_finite(x, y):
            raise EvaluationError("result is not finite")

        return not_finite

    def program(x, y):
        X = (x if isinstance(x, np.ndarray) else float(x), 1.0, 0.0, 0.0)
        Y = (y if isinstance(y, np.ndarray) else float(y), 0.0, 1.0, 0.0)
        try:
            out = body(X, Y)
        except EvaluationError:
            raise
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise evaluation_error(exc) from exc
        v, dx, dy, dxy = out
        if (
            isinstance(v, float)
            and isinstance(dx, float)
            and isinstance(dy, float)
            and isinstance(dxy, float)
            and not (
                math.isfinite(v) and math.isfinite(dx) and math.isfinite(dy) and math.isfinite(dxy)
            )
        ):
            raise EvaluationError("non-finite derivative component")
        return out

    return program


def eval_hyperdual(f: Expression, x0, y0) -> Derivatives:
    """Value, both first partials, and the mixed partial of ``f`` at ``(x0, y0)``.

    Compiles ``f`` on every call; code that evaluates one expression many times
    should call :func:`compile_hyperdual` once and reuse the program.
    """
    return Derivatives(*compile_hyperdual(f)(x0, y0))


def finite_difference_oracle(f: Expression, x0: float, y0: float) -> Derivatives:
    """Central-difference approximation of what :func:`eval_hyperdual` computes.

    First partials use the two-point central stencil with step
    ``max(1, |coordinate|) * eps**(1/3)``; the mixed partial uses the four-point
    cross stencil on the same steps.  Kept deliberately independent of the
    hyper-dual path so the two can check each other.
    """
    x0, y0 = float(x0), float(y0)
    hx = max(1.0, abs(x0)) * _CBRT_EPS
    hy = max(1.0, abs(y0)) * _CBRT_EPS

    def e(a: float, b: float) -> float:
        return evaluate(f, a, b)

    v = e(x0, y0)
    dx = (e(x0 + hx, y0) - e(x0 - hx, y0)) / (2.0 * hx)
    dy = (e(x0, y0 + hy) - e(x0, y0 - hy)) / (2.0 * hy)
    dxy = (
        e(x0 + hx, y0 + hy)
        - e(x0 + hx, y0 - hy)
        - e(x0 - hx, y0 + hy)
        + e(x0 - hx, y0 - hy)
    ) / (4.0 * hx * hy)
    return Derivatives(v, dx, dy, dxy)
