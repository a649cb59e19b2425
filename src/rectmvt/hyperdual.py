"""Hyper-dual algebra: exact value, first partials and mixed partial.

A hyper-dual number carries ``(v, dx, dy, dxy)`` — the value, both first
partials, and the mixed second partial — through arithmetic exactly, so one
evaluation of an expression yields every derivative the rectangle theorems
need, with no truncation error and no step-size tuning (Fike & Alonso,
AIAA 2011-886).

:func:`compile_hyperdual` walks an expression tree once and returns a program
of nested closures, ``(x, y) -> (v, dx, dy, dxy)``; every residual field runs
such a program.  :func:`eval_hyperdual` and :func:`finite_difference_oracle`
return a :class:`Derivatives` named tuple.

A program computes only the components its caller reads: ``reads`` names
them (all four by default), and a component not read comes back as None.
This is activity analysis from forward-mode automatic differentiation
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 3 and 7): the
compiler tracks which components of each node are structurally zero (``dy``
and ``dxy`` of an expression in x only, every derivative of a constant) and
which its consumer needs, and skips every term with a zero factor and every
component nobody reads.  The rectangular Rolle, MVT and Cauchy residuals read
only ``dxy``, so for ``c*x^i*y^j`` a grid costs one array product where all
four components cost about seven.  Each component read is tested bit for bit
against the operator-by-operator reference in
``tests/hyperdual_reference.py``, with two named exceptions, both from the
terms and components a program skips: the sign of a zero may differ, and
where the reference's component is NaN because a dropped term was a zero
times an infinity, the program's need not be; nor does an overflow that only
a component not read would see fail the evaluation.  Every domain check
still runs, also in a subtree whose components nobody reads.

Components are ordinarily floats, but numpy arrays broadcast through the same
formulas, which lets a residual field be screened on a whole grid in one pass.
On arrays, a divisor that takes both signs raises :class:`SignChangeError`:
it vanishes between two samples.  One that dips to zero between samples
without changing sign on them is not found.
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
    SignChangeError,
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
# Component c of a hyper-dual tuple is indexed by the variables it
# differentiates by, as bits: 0 is v, 1 is dx, 2 is dy and 3 is dxy.  A mask
# holds one bit, 1 << c, per component.
#
# A compiled node is a closure ``(X, Y) -> (v, dx, dy, dxy)`` that fills the
# components its consumer reads; its other slots are None or whatever they
# happen to hold, and no consumer reads them.  The float operations on the
# components it fills are those of the matching method of the reference class
# ``HyperDual`` in ``tests/hyperdual_reference.py``, in the same order and on
# the same operands, except that a term with a structurally zero factor is
# dropped.  Such a term is ``+0.0`` or ``-0.0`` when the other factor is
# finite, so dropping it can change only the sign of a zero result; when the
# other factor is infinite or NaN the reference's component is NaN, and the
# program's need not be.  A folded constant that meets a varying operand is
# the lifted tuple whose one component is its value, and a plain left operand
# keeps the operand order of the reflected method Python falls back to
# (``c * h`` runs ``h.__mul__(c)``, ``c - h`` runs ``h.__rsub__(c)``).
#
# The product rule is stated once, in ``_PRODUCT_TERMS``: component c of
# ``a * b`` is the sum of the terms ``a[i] * b[j]`` with ``i | j == c`` and
# ``i & j == 0``, the second-order Leibniz rule, grouped as HyperDual adds
# them.  The compiler's masks of a product (``_PRODUCT_NZ``, ``_PARTNER``), the
# slot functions of every product plan, and the dense product of a varying
# exponent (``_mul``) all come from it.  ``_slots`` runs every sum, difference
# and product of two operands, with the slot functions ``_binary_plan`` picks;
# ``_stepped_power`` runs ``h ^ n`` as n - 1 such products; ``_chain``,
# ``_negation`` and ``_scaled`` run a scalar function, a minus and a product
# with a constant.  ``_scaled`` stays apart because it scales every monomial
# coefficient: through ``_slots``, compiling took 28% and scalar programs 20%
# longer on a 2-core x86-64 host.  A constant shift, 4% of the nodes of a
# sweep, is a sum or difference with a lifted constant (``_lift``).
# A domain or exponent check is a root of the demand: it needs its operand's
# value even when nothing reads its own components, so a subtree holding a
# check always runs.  A subtree whose components nobody reads and that holds
# no check is not evaluated at all.

Components = tuple  # (v, dx, dy, dxy)
Program = Callable[[object, object], Components]

_V, _DX, _DY, _DXY = 1, 2, 4, 8
_ALL = 15
_NONE = (None, None, None, None)
_NO_PARTS = (None, None, None)

# the terms a[i] * b[j] of component c of a product, in HyperDual's groups
_PRODUCT_TERMS = (
    (((0, 0),),),
    (((0, 1), (1, 0)),),
    (((0, 2), (2, 0)),),
    (((0, 3), (3, 0)), ((1, 2), (2, 1))),
)
# the same terms as (c, i, j), ungrouped
_TERMS = tuple((c, i, j) for c, groups in enumerate(_PRODUCT_TERMS) for g in groups for i, j in g)
# _PRODUCT_NZ[a << 4 | b]: the components of a product that are not structurally
# zero, for its operands' nonzero masks a and b, which both hold v
_PRODUCT_NZ = tuple(
    sum({1 << c for c, i, j in _TERMS if k >> 4 + i & 1 and k >> j & 1}) for k in range(256)
)
# _PARTNER[need << 4 | na]: the components j of b whose terms a[i] * b[j] reach a
# component of need, for a's nonzero mask na
_PARTNER = tuple(
    sum({1 << j for c, i, j in _TERMS if k >> 4 + c & 1 and k >> i & 1}) for k in range(256)
)
# _CHAIN_NZ[a]: the components of u(a), for a scalar function u, that are not
# structurally zero
_CHAIN_NZ = tuple(a | _DXY if a & _DX and a & _DY else a for a in range(16))


def _lifted(c) -> Components:
    return (float(c), 0.0, 0.0, 0.0)


_SIGN_CHANGE = "divisor changes sign between samples, so it vanishes between them"


def check_divisor(v, zero: str = "division by zero", sign: str = _SIGN_CHANGE) -> None:
    """Raise :class:`OutOfDomainError` with message ``zero`` when the divisor
    ``v`` is zero at a sample, and on an array :class:`SignChangeError` when it
    takes both signs, so that by continuity it vanishes between two samples.

    One ``min``/``max`` pair reads the array; NaN samples are passed over.
    """
    if isinstance(v, np.ndarray):
        lo, hi = v.min(), v.max()
        if lo != lo:  # a NaN hides the extremes of the other samples
            rest = v[v == v]
            lo, hi = (rest.min(), rest.max()) if rest.size else (1.0, 1.0)
        if lo <= 0.0 <= hi:
            raise (OutOfDomainError(zero) if (v == 0.0).any() else SignChangeError(sign))
    elif v == 0:
        raise OutOfDomainError(zero)


def _mathlib(v):
    return np if isinstance(v, np.ndarray) else math


# The parts of a scalar function u at v: (u(v), u'(v), u''(v)).  ``want`` has
# bit 1 for the value, 2 for u' and 4 for u''; an unwanted part may be None.
# Each runs its domain check first, even when it wants nothing.


def _reciprocal_parts(v, want, p):
    check_divisor(v)
    if not want:
        return _NO_PARTS
    inv = 1.0 / v
    return inv, (-inv * inv if want & 2 else None), (2.0 * (inv * inv) * inv if want & 4 else None)


def _fractional_parts(v, want, p):
    if _any(v <= 0):
        raise OutOfDomainError("fractional power needs a positive base")
    return (
        v ** p if want & 1 else None,
        p * v ** (p - 1.0) if want & 2 else None,
        p * (p - 1.0) * v ** (p - 2.0) if want & 4 else None,
    )


def _sin_parts(v, want, p):
    m = _mathlib(v)
    try:
        sin = m.sin(v) if want & 5 else None
        cos = m.cos(v) if want & 2 else None
    except ValueError as exc:  # math's domain error of an infinite argument
        raise evaluation_error(exc) from exc
    return sin, cos, (-sin if want & 4 else None)


def _cos_parts(v, want, p):
    m = _mathlib(v)
    try:
        cos = m.cos(v) if want & 5 else None
        sin = m.sin(v) if want & 2 else None
    except ValueError as exc:  # math's domain error of an infinite argument
        raise evaluation_error(exc) from exc
    return cos, (-sin if want & 2 else None), (-cos if want & 4 else None)


def _exp_parts(v, want, p):
    e = _mathlib(v).exp(v)
    return e, e, e


def _log_parts(v, want, p):
    if _any(v <= 0):
        raise OutOfDomainError("log of a non-positive value")
    if not want:
        return _NO_PARTS
    inv = 1.0 / v if want & 6 else None
    return (_mathlib(v).log(v) if want & 1 else None), inv, (-inv * inv if want & 4 else None)


def _sqrt_parts(v, want, p):
    if _any(v <= 0):
        raise OutOfDomainError("sqrt needs a positive argument for its derivatives")
    if not want:
        return _NO_PARTS
    r = _mathlib(v).sqrt(v)
    return r, (0.5 / r if want & 2 else None), (-0.25 / (r * v) if want & 4 else None)


_PARTS = {
    "sin": _sin_parts,
    "cos": _cos_parts,
    "exp": _exp_parts,
    "log": _log_parts,
    "sqrt": _sqrt_parts,
    "recip": _reciprocal_parts,
    "^p": _fractional_parts,
}
# the scalar functions that check their argument's domain
_CHECKED = frozenset(("log", "sqrt", "recip", "^p"))


# -- dense arithmetic: all four components, for a varying exponent ----------


def _mul(a: Components, b: Components) -> Components:
    """``a * b`` by the slot functions of the product plan of all four components."""
    plan = _PLANS["*"].get(_ALL << 8 | _ALL << 4 | _ALL) or _binary_plan("*", _ALL, _ALL, _ALL)
    return tuple(f(a, b) for f in plan[0])


def _dense_chain(a: Components, fn: str, p=None) -> Components:
    _, dx, dy, dxy = a
    value, d1, d2 = _PARTS[fn](a[0], 7, p)
    return (value, d1 * dx, d1 * dy, d1 * dxy + d2 * (dx * dy))


def _int_pow(a: Components, n: int) -> Components:
    if n == 0:
        return _lifted(1.0)
    if n < 0:
        return _int_pow(_dense_chain(a, "recip"), -n)
    out = a
    for _ in range(n - 1):
        out = _mul(out, a)
    return out


def _pow(a: Components, b: Components) -> Components:
    bv, bdx, bdy, bdxy = b
    if isinstance(bv, float) and bdx == 0.0 and bdy == 0.0 and bdxy == 0.0:
        # an exponent that depends on x or y is only known here, when evaluated
        p = bv
        if p.is_integer():
            if abs(p) > MAX_INT_POWER:
                raise EvaluationError(
                    f"integer exponents must be at most MAX_INT_POWER = {MAX_INT_POWER} "
                    f"in magnitude, got {_fmt_number(p)}"
                )
            return _int_pow(a, int(p))
        return _dense_chain(a, "^p", p)
    if _any(a[0] <= 0):
        raise OutOfDomainError("power with a varying exponent needs a positive base")
    return _dense_chain(_mul(b, _dense_chain(a, "log")), "exp")


def _dense(t: Components, mask: int) -> Components:
    return tuple(t[c] if mask >> c & 1 else 0.0 for c in range(4))


# -- the compiler: one pass, top-down ----------------------------------------
#
# ``_compile(node, need)`` compiles every node, leaves included: a constant-only
# subtree comes back as its plain value, and anything else as a triple
# ``(closure, nz, checks)``: the closure computes the components of
# ``need & nz`` (it is None when that is empty and the subtree runs no check),
# nz masks the components that are not structurally zero, and checks tells
# whether evaluating the subtree runs a check that can raise.  A variable is
# its seed from ``_SEEDS``.  A node asks its operands for what it needs of them
# given ``need``; before an operand is compiled its nz is not known, so it is
# asked for every component that one of ``need`` could read (``_BELOW``), and
# a product asks its right operand only for what pairs with the left's nonzero
# components (``_PARTNER``).  A subtree found to contribute nothing is dropped,
# unless it runs a check.
# ``+`` and ``-`` lift a constant operand and build ``_binary``; ``*`` and
# ``/`` (after ``_reciprocal``) build ``_binary``, or ``_scaled`` for a constant.

# the components below each mask: those a component of it is built from
_BELOW = tuple(m and (_ALL if m & _DXY else m | _V) for m in range(16))


def _seed_x(X, Y):
    return X


def _seed_y(X, Y):
    return Y


def _nothing(X, Y):
    return _NONE


_SEEDS = {"x": (_seed_x, _V | _DX, False), "y": (_seed_y, _V | _DY, False)}


def _lift(a):
    """A folded constant as a compiled operand: the lifted tuple whose one
    component is its value."""
    k = (float(a), None, None, None)
    return (lambda X, Y: k, _V, False)


def _in_turn(A, B):
    """Run A, for its checks alone, then B."""
    if A is None or B is None:
        return A or B

    def both(X, Y):
        A(X, Y)
        return B(X, Y)

    return both


def _fold(node: Expression):
    """Plain value of a constant-only subtree, computed once as ``evaluate``
    computes it; a subtree that raises stays a closure raising the error
    ``evaluate`` raises for it."""
    try:
        return _eval(node, None, None)
    except (ArithmeticError, ValueError, EvaluationError):
        return (lambda X, Y: evaluate(node, None, None), _V, True)


# slot functions of sums and differences: component c of a + b, a - b, or of
# the one operand whose component c is not structurally zero
_ADD = tuple((lambda a, b, c=c: a[c] + b[c]) for c in range(4))
_SUB = tuple((lambda a, b, c=c: a[c] - b[c]) for c in range(4))
_LEFT = tuple((lambda a, b, c=c: a[c]) for c in range(4))
_RIGHT = tuple((lambda a, b, c=c: b[c]) for c in range(4))
_MINUS_RIGHT = tuple((lambda a, b, c=c: 0.0 - b[c]) for c in range(4))


def _p1(i, j):
    return lambda a, b: a[i] * b[j]


def _p2(i, j, k, l):
    return lambda a, b: a[i] * b[j] + a[k] * b[l]


def _p21(i, j, k, l, m, n):
    return lambda a, b: (a[i] * b[j] + a[k] * b[l]) + a[m] * b[n]


def _p12(i, j, k, l, m, n):
    return lambda a, b: a[i] * b[j] + (a[k] * b[l] + a[m] * b[n])


def _p22(i, j, k, l, m, n, o, q):
    return lambda a, b: (a[i] * b[j] + a[k] * b[l]) + (a[m] * b[n] + a[o] * b[q])


# a slot function per shape of the kept groups: how many terms each holds
_SUMS_OF_PRODUCTS = {(1,): _p1, (2,): _p2, (1, 1): _p2, (2, 1): _p21, (1, 2): _p12, (2, 2): _p22}
# per operator: om << 8 | na << 4 | nb -> (slot functions, operand needs)
_PLANS: dict = {"+": {}, "-": {}, "*": {}}


def _binary_plan(op: str, om: int, na: int, nb: int):
    """Slot functions of ``a op b`` for the output mask ``om``, given the
    operands' nonzero masks, and the masks of the operand components they read;
    it is kept in ``_PLANS``, where ``_binary`` looks it up first."""
    fs = [None] * 4
    need_a = need_b = 0
    for c in range(4):
        if not om >> c & 1:
            continue
        if op == "*":
            groups = [
                [(i, j) for i, j in group if na >> i & 1 and nb >> j & 1]
                for group in _PRODUCT_TERMS[c]
            ]
            groups = [g for g in groups if g]
            for i, j in (term for g in groups for term in g):
                need_a |= 1 << i
                need_b |= 1 << j
            flat = [k for g in groups for term in g for k in term]
            fs[c] = _SUMS_OF_PRODUCTS[tuple(map(len, groups))](*flat)
            continue
        left, right = na >> c & 1, nb >> c & 1
        need_a |= left << c
        need_b |= right << c
        if left and right:
            fs[c] = (_ADD if op == "+" else _SUB)[c]
        else:
            fs[c] = _LEFT[c] if left else (_RIGHT if op == "+" else _MINUS_RIGHT)[c]
    plan = _PLANS[op][om << 8 | na << 4 | nb] = (tuple(fs), need_a, need_b)
    return plan


def _binary(op: str, a, b, need: int):
    """``a op b`` for two compiled operands."""
    A, na, ca = a
    B, nb, cb = b
    nz = _PRODUCT_NZ[na << 4 | nb] if op == "*" else na | nb
    om = need & nz
    checks = ca or cb
    if not om:
        return (_in_turn(A, B) if checks else None, nz, checks)
    plan = _PLANS[op].get(om << 8 | na << 4 | nb) or _binary_plan(op, om, na, nb)
    (f0, f1, f2, f3), need_a, need_b = plan
    if not need_a and not ca:
        A = None
    if not need_b and not cb:
        B = None
    if A is None:
        if op == "+":
            return (B, nz, checks)  # b's components are the sum's
        A = _nothing
    elif B is None:
        return (A, nz, checks)  # a sum or difference whose b contributes nothing
    return (_slots(A, B, f0, f1, f2, f3), nz, checks)


def _slots(A, B, f0, f1, f2, f3):
    """The closure filling each slot c whose slot function fc is not None."""

    def binary(X, Y):
        a = A(X, Y)
        b = B(X, Y)
        return (
            f0(a, b) if f0 else None,
            f1(a, b) if f1 else None,
            f2(a, b) if f2 else None,
            f3(a, b) if f3 else None,
        )

    return binary


def _chain(kind: str, a, need: int, p=None):
    """``u(a)`` for a compiled operand asked for ``_BELOW[need] | _V``: it
    computes ``d1 * dx`` when k1, ``d1 * dy`` when k2, and of dxy's terms
    ``d1 * dxy`` when bit 1 of k3 and ``d2 * (dx * dy)`` when bit 2."""
    A, na, ca = a
    nz = _CHAIN_NZ[na]
    om = need & nz
    checked = kind in _CHECKED
    k1, k2 = om & _DX, om & _DY
    k3 = 0
    if om & _DXY:
        k3 = (1 if na & _DXY else 0) | (2 if na & _DX and na & _DY else 0)
    # the parts of u wanted: bit 1 u(v), 2 u'(v), 4 u''(v)
    want = (1 if om & _V else 0) | (2 if k1 or k2 or k3 & 1 else 0) | (4 if k3 & 2 else 0)
    if not (want or checked):
        return (A if ca else None, nz, ca)  # nothing to compute here, but a runs its checks
    parts = _PARTS[kind]

    def chain(X, Y):
        a = A(X, Y)
        value, d1, d2 = parts(a[0], want, p)
        return (
            value,
            d1 * a[1] if k1 else None,
            d1 * a[2] if k2 else None,
            None
            if not k3
            else d1 * a[3] + d2 * (a[1] * a[2])
            if k3 == 3
            else d1 * a[3]
            if k3 == 1
            else d2 * (a[1] * a[2]),
        )

    return (chain, nz, True if checked else ca)


def _int_power(a, n: int, need: int):
    """``h ^ n`` for an integer n >= 2: n - 1 products, as HyperDual takes them."""
    A, na, ca = a
    nz = _CHAIN_NZ[na]
    om = need & nz
    if not om:
        return (A if ca else None, nz, ca)
    steps = _POWER_STEPS.get((n, om, na)) or _power_steps(n, om, na)
    return (_stepped_power(A, steps), nz, ca)


_POWER_STEPS: dict = {}  # (n, output mask, base mask) -> slot functions per product


def _power_steps(n: int, om: int, na: int):
    steps = []
    need = om
    for k in range(n, 1, -1):  # the product a^(k-1) * a
        fs, need, _ = _binary_plan("*", need, na if k == 2 else _CHAIN_NZ[na], na)
        steps.append(fs)
    steps = _POWER_STEPS[(n, om, na)] = tuple(reversed(steps))
    return steps


def _stepped_power(A, steps):
    def power(X, Y):
        a = A(X, Y)
        out = a
        for f0, f1, f2, f3 in steps:
            out = (
                f0(out, a) if f0 else None,
                f1(out, a) if f1 else None,
                f2(out, a) if f2 else None,
                f3(out, a) if f3 else None,
            )
        return out

    return power


def _power(node: BinOp, need: int):
    below = _BELOW[need] | _V
    left, right = node.left, node.right
    a = _compile(left, below)
    # a varying exponent's every component decides its branch
    b = _compile(right, _ALL)
    if type(b) is tuple:  # c ^ h runs h.__rpow__(c), which is lift(c) ** h
        return _varying_power(a if type(a) is tuple else _lift(a), b, below)
    if type(a) is not tuple:
        return _fold(node)
    p = float(b)  # h ^ c takes HyperDual.__pow__'s plain-number path
    if not p.is_integer():
        return _chain("^p", a, need, p)
    if abs(p) > MAX_INT_POWER:
        raise ValueError(
            f"integer exponents must be at most {MAX_INT_POWER} in magnitude, "
            f"got {_fmt_number(p)}"
        )
    n = int(p)
    if n == 0:  # 1, once h has run its checks
        return (_in_turn(a[0] if a[2] else None, _lift(1.0)[0]), _V, a[2])
    if n < 0:
        a, n = _chain("recip", a, below), -n
    return a if n == 1 else _int_power(a, n, need)


def _varying_power(a, b, read: int):
    """``a ^ b`` for a varying exponent, densely: it is rare, every component
    of b decides its branch, and each component of the result reads those of
    a below it, which a was asked for as ``read``."""
    (A, na, _), (B, nb, _) = a, b
    read_a = read & na

    def varying_power(X, Y):
        return _pow(_dense(A(X, Y), read_a), _dense(B(X, Y), nb))

    return (varying_power, _CHAIN_NZ[_PRODUCT_NZ[nb << 4 | _CHAIN_NZ[na]]], True)


def _reciprocal(b, need: int):
    """The reciprocal of a compiled operand, or as HyperDual lifts and inverts
    a constant: a nonzero constant's is its value alone, and a zero's raises
    when evaluated."""
    if type(b) is tuple:
        return _chain("recip", b, need)
    if b == 0:
        return (lambda X, Y: check_divisor(0.0), _V, True)
    return 1.0 / float(b)


def _scaled(h, k, need: int):
    """``h * k`` for a constant k, as ``h.__mul__(lift(k))`` computes it."""
    A, nz, checks = h
    om = need & nz
    if not om:
        return (A if checks else None, nz, checks)
    k = float(k)
    m0, m1, m2, m3 = om & _V, om & _DX, om & _DY, om & _DXY

    def scale(X, Y):
        h = A(X, Y)
        return (
            h[0] * k if m0 else None,
            h[1] * k if m1 else None,
            h[2] * k if m2 else None,
            h[3] * k if m3 else None,
        )

    return (scale, nz, checks)


def _negation(A, om: int):
    m0, m1, m2, m3 = om & _V, om & _DX, om & _DY, om & _DXY

    def neg(X, Y):
        v, dx, dy, dxy = A(X, Y)
        return (
            -v if m0 else None,
            -dx if m1 else None,
            -dy if m2 else None,
            -dxy if m3 else None,
        )

    return neg


def _reads_no_variable(node: Expression) -> bool:
    """Whether ``node`` is a constant subtree.  A variable is found soonest in
    the base of a power and in the last term of a sum or product, so those
    are read first."""
    t = type(node)
    if t is BinOp:
        first, second = (node.left, node.right) if node.op == "^" else (node.right, node.left)
        return _reads_no_variable(first) and _reads_no_variable(second)
    if t is Neg:
        return _reads_no_variable(node.child)
    if t is Call:
        return _reads_no_variable(node.arg)
    return t is Const


def _compile(node: Expression, need: int):
    t = type(node)
    if t is BinOp:
        op, left, right = node.op, node.left, node.right
        if op == "^":
            return _power(node, need)
        if op == "+" or op == "-":
            a = _compile(left, need)
            b = _compile(right, need)
            if type(a) is tuple:
                return _binary(op, a, b if type(b) is tuple else _lift(b), need)
            if type(b) is not tuple:
                return _fold(node)
            # c + h runs h.__radd__(c), which is h + lift(c); c - h runs
            # h.__rsub__(c), which is lift(c) - h
            if op == "+":
                return _binary(op, b, _lift(a), need)
            return _binary(op, _lift(a), b, need)
        # h * k or h / k reads of h what it reads itself, also when k is a
        # constant subtree that folds to a value; h * g reads at most the
        # components of h below those it reads
        k = _fold(right) if _reads_no_variable(right) else None
        constant = k is not None and type(k) is not tuple  # a subtree that raises stays compiled
        a = _compile(left, need if constant else _BELOW[need])
        if constant:
            b, partner = k, need
        else:
            partner = _PARTNER[need << 4 | (a[1] if type(a) is tuple else _V)]
            b = _compile(right, partner if op == "*" else _BELOW[partner] | _V)
        if type(a) is not tuple and type(b) is not tuple:
            return _fold(node)
        if op == "/":  # h / k is h * lift(k).reciprocal(); c / h is lift(c) * h.reciprocal()
            b = _reciprocal(b, partner)
        if type(a) is tuple:
            return _binary("*", a, b, need) if type(b) is tuple else _scaled(a, b, need)
        return _scaled(b, a, need)  # c * h runs h.__rmul__(c), which is h * c
    if t is Const:
        return node.value
    if t is Var:
        return _SEEDS[node.name]
    if t is Neg:
        child = node.child
        if type(child) is Const:
            return -child.value
        a = _compile(child, need)
        if type(a) is not tuple:
            return _fold(node)
        om = need & a[1]
        return (_negation(a[0], om), a[1], a[2]) if om else a
    if t is Call:
        a = _compile(node.arg, _BELOW[need] | _V)
        if type(a) is not tuple:
            return _fold(node)
        return _chain(node.fn, a, need)
    raise TypeError(f"not an expression node: {node!r}")


_READ_MASKS: dict = {}  # reads -> mask, for the tuples of names passed


def _read_mask(reads) -> int:
    if isinstance(reads, str):
        raise TypeError("reads must be a collection of component names, not a string")
    mask = 0
    for name in reads:
        if name not in Derivatives._fields:
            raise ValueError(
                f"unknown derivative component {name!r}; expected one of {Derivatives._fields}"
            )
        mask |= 1 << Derivatives._fields.index(name)
    if isinstance(reads, tuple):
        _READ_MASKS[reads] = mask
    return mask


def compile_hyperdual(f: Expression, reads=Derivatives._fields) -> Program:
    """Compile ``f`` into a program ``(x, y) -> (v, dx, dy, dxy)`` that computes
    the components named in ``reads`` (all four by default).

    A component not in ``reads`` comes back as None; one that is structurally
    zero (``dy`` of an expression in x only, say) as the float ``0.0``.  Each
    component read is what the reference evaluator of
    ``tests/hyperdual_reference.py`` computes over hyper-dual seeds, bit for
    bit, for floats and numpy arrays alike, with two exceptions: the sign of a
    zero may differ, and where the reference's component is NaN because a
    dropped term was a zero times an infinity or NaN, the program's need not
    be.  The program raises the errors of every domain and exponent check the
    reference runs, also inside a subtree no component read depends on.  On
    scalar inputs a non-finite component read raises ``EvaluationError``; an
    overflow that only a component not read would see does not.

    Compiling walks the tree once; build a program once per expression and
    call it many times.  A constant integer exponent beyond
    :data:`MAX_INT_POWER` in magnitude raises ``ValueError``; a varying one
    that evaluates to such an integer raises ``EvaluationError``.
    """
    try:
        need = _READ_MASKS[reads]
    except (KeyError, TypeError):
        need = _read_mask(reads)
    t = _compile(f, need)
    if type(t) is not tuple:
        # a constant f: a non-finite value is rejected, a finite one lifted
        if math.isfinite(t):
            out = tuple(c if need >> i & 1 else None for i, c in enumerate(_lifted(t)))
            return lambda x, y: out

        def not_finite(x, y):
            raise EvaluationError("result is not finite")

        return not_finite

    body = t[0] or _nothing
    computed = need & t[1]
    read = [c for c in range(4) if need >> c & 1]
    # each slot of the result: 1 the body's component, 2 a structural zero, 0 None
    k0, k1, k2, k3 = [computed >> c & 1 or (need >> c & 1) << 1 for c in range(4)]

    def program(x, y):
        scalar = not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray))
        X = (x if isinstance(x, np.ndarray) else float(x), 1.0, None, None)
        Y = (y if isinstance(y, np.ndarray) else float(y), None, 1.0, None)
        try:
            out = body(X, Y)
        except (ZeroDivisionError, OverflowError) as exc:
            raise evaluation_error(exc) from exc
        if computed != _ALL:
            v, dx, dy, dxy = out
            out = (
                v if k0 == 1 else 0.0 if k0 else None,
                dx if k1 == 1 else 0.0 if k1 else None,
                dy if k2 == 1 else 0.0 if k2 else None,
                dxy if k3 == 1 else 0.0 if k3 else None,
            )
        if scalar:
            for c in read:
                if not math.isfinite(out[c]):
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
