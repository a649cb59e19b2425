"""The hyper-dual reference: the arithmetic that ``compile_hyperdual``'s
programs must reproduce bit for bit, one operator at a time, on the
components they read and with the exceptions that function names.

:class:`HyperDual` carries ``(v, dx, dy, dxy)`` through each arithmetic
operator and each of ``sin``/``cos``/``exp``/``log``/``sqrt`` (Fike & Alonso,
AIAA 2011-886), computing all four components and every term of each, zero
or not.  :func:`evaluate` runs an expression tree over such numbers: plain
operands take the float rules of ``rectmvt.expr`` and mixed operands
Python's reflected operators.  A helper module for the tests, not a test file.
"""

import math
import operator

import numpy as np

from rectmvt.expr import (
    BinOp,
    Call,
    Const,
    EvaluationError,
    Expression,
    Neg,
    OutOfDomainError,
    SignChangeError,
    Var,
    _call_real,
    _fmt_number,
    _pow_real,
    evaluation_error,
)
from rectmvt.hyperdual import MAX_INT_POWER


def _as_component(v):
    return v if isinstance(v, np.ndarray) else float(v)


def _any(cond) -> bool:
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


class HyperDual:
    """Four-component truncated number: value, d/dx, d/dy, d2/dxdy.

    Multiplication uses the second-order Leibniz rule
    ``(ab)_xy = a b_xy + a_xy b + a_x b_y + a_y b_x``; the terms are grouped in
    symmetric pairs so that products commute bitwise and swapping the x/y seed
    roles reproduces the mixed partial exactly.
    """

    __slots__ = ("v", "dx", "dy", "dxy")

    def __init__(self, v, dx=0.0, dy=0.0, dxy=0.0):
        self.v = v
        self.dx = dx
        self.dy = dy
        self.dxy = dxy

    def __repr__(self) -> str:
        return f"HyperDual(v={self.v!r}, dx={self.dx!r}, dy={self.dy!r}, dxy={self.dxy!r})"

    def __eq__(self, other):
        if not isinstance(other, HyperDual):
            return NotImplemented
        return (
            self.v == other.v
            and self.dx == other.dx
            and self.dy == other.dy
            and self.dxy == other.dxy
        )

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = _lift_hd(other)
        if o is None:
            return NotImplemented
        return HyperDual(self.v + o.v, self.dx + o.dx, self.dy + o.dy, self.dxy + o.dxy)

    __radd__ = __add__

    def __sub__(self, other):
        o = _lift_hd(other)
        if o is None:
            return NotImplemented
        return HyperDual(self.v - o.v, self.dx - o.dx, self.dy - o.dy, self.dxy - o.dxy)

    def __rsub__(self, other):
        o = _lift_hd(other)
        if o is None:
            return NotImplemented
        return HyperDual(o.v - self.v, o.dx - self.dx, o.dy - self.dy, o.dxy - self.dxy)

    def __neg__(self):
        return HyperDual(-self.v, -self.dx, -self.dy, -self.dxy)

    def __mul__(self, other):
        o = _lift_hd(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        return HyperDual(
            a.v * b.v,
            a.v * b.dx + a.dx * b.v,
            a.v * b.dy + a.dy * b.v,
            (a.v * b.dxy + a.dxy * b.v) + (a.dx * b.dy + a.dy * b.dx),
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "HyperDual":
        if _any(self.v == 0):
            raise OutOfDomainError("division by zero")
        # a grid on which the divisor takes both signs proves a zero between samples
        if isinstance(self.v, np.ndarray) and (self.v < 0).any() and (self.v > 0).any():
            raise SignChangeError("divisor changes sign between samples, so it vanishes between them")
        inv = 1.0 / self.v
        return self._chain(inv, -inv * inv, 2.0 * (inv * inv) * inv)

    def __truediv__(self, other):
        o = _lift_hd(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = _lift_hd(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, other):
        if isinstance(other, HyperDual):
            if (
                isinstance(other.v, float)
                and other.dx == 0.0
                and other.dy == 0.0
                and other.dxy == 0.0
            ):
                return self.__pow__(other.v)
            if _any(self.v <= 0):
                raise OutOfDomainError("power with a varying exponent needs a positive base")
            return (other * self.log()).exp()
        if isinstance(other, (int, float)):
            p = float(other)
            if p.is_integer():
                if abs(p) > MAX_INT_POWER:
                    raise EvaluationError(
                        f"integer exponents must be at most MAX_INT_POWER = {MAX_INT_POWER} "
                        f"in magnitude, got {_fmt_number(p)}"
                    )
                return self._int_pow(int(p))
            if _any(self.v <= 0):
                raise OutOfDomainError("fractional power needs a positive base")
            return self._chain(
                self.v ** p,
                p * self.v ** (p - 1.0),
                p * (p - 1.0) * self.v ** (p - 2.0),
            )
        return NotImplemented

    def __rpow__(self, base):
        o = _lift_hd(base)
        if o is None:
            return NotImplemented
        return o.__pow__(self)

    def _int_pow(self, n: int) -> "HyperDual":
        # repeated multiplication keeps integer powers exact
        if n == 0:
            return HyperDual(1.0)
        if n < 0:
            return self.reciprocal()._int_pow(-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- unary functions via the second-order chain rule ----------------------

    def _chain(self, value, d1, d2) -> "HyperDual":
        # value = u(v), d1 = u'(v), d2 = u''(v)
        return HyperDual(
            value,
            d1 * self.dx,
            d1 * self.dy,
            d1 * self.dxy + d2 * (self.dx * self.dy),
        )

    def _mathlib(self):
        return np if isinstance(self.v, np.ndarray) else math

    def sin(self) -> "HyperDual":
        m = self._mathlib()
        return self._chain(m.sin(self.v), m.cos(self.v), -m.sin(self.v))

    def cos(self) -> "HyperDual":
        m = self._mathlib()
        return self._chain(m.cos(self.v), -m.sin(self.v), -m.cos(self.v))

    def exp(self) -> "HyperDual":
        e = self._mathlib().exp(self.v)
        return self._chain(e, e, e)

    def log(self) -> "HyperDual":
        if _any(self.v <= 0):
            raise OutOfDomainError("log of a non-positive value")
        inv = 1.0 / self.v
        return self._chain(self._mathlib().log(self.v), inv, -inv * inv)

    def sqrt(self) -> "HyperDual":
        if _any(self.v <= 0):
            raise OutOfDomainError("sqrt needs a positive argument for its derivatives")
        r = self._mathlib().sqrt(self.v)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.v))


def _lift_hd(value):
    if isinstance(value, HyperDual):
        return value
    if isinstance(value, (int, float)):
        return HyperDual(float(value))
    return None


def seed_x(x0) -> HyperDual:
    return HyperDual(_as_component(x0), 1.0, 0.0, 0.0)


def seed_y(y0) -> HyperDual:
    return HyperDual(_as_component(y0), 0.0, 1.0, 0.0)


def lift(c) -> HyperDual:
    return HyperDual(_as_component(c))


# -- the expression evaluator over HyperDual operands ----------------------

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _plain(value) -> bool:
    return isinstance(value, (int, float))


def _eval(node: Expression, x, y):
    match node:
        case Const(value):
            return value
        case Var(name):
            return x if name == "x" else y
        case Neg(child):
            return -_eval(child, x, y)
        case BinOp(op, left, right):
            a, b = _eval(left, x, y), _eval(right, x, y)
            if op != "^":
                return _OPERATORS[op](a, b)
            return _pow_real(a, b) if _plain(a) and _plain(b) else a ** b
        case Call(fn, arg):
            a = _eval(arg, x, y)
            return _call_real(fn, a) if _plain(a) else getattr(a, fn)()
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(f: Expression, x, y):
    """``f`` at ``(x, y)`` over whatever the inputs are: HyperDual seeds give a
    HyperDual, plain numbers a plain float, rejected when it is not finite."""
    try:
        result = _eval(f, x, y)
    except EvaluationError:
        raise
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise evaluation_error(exc) from exc
    if _plain(result) and not math.isfinite(result):
        raise EvaluationError("result is not finite")
    return result
