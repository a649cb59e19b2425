"""Hyper-dual algebra: exact value, first partials and mixed partial.

A hyper-dual number carries ``(v, dx, dy, dxy)`` — the value, both first
partials, and the mixed second partial — through arithmetic exactly, so one
evaluation of an expression yields every derivative the rectangle theorems
need, with no truncation error and no step-size tuning (Fike & Alonso,
AIAA 2011-886).

:func:`compile_hyperdual` walks an expression tree once into a body of nested
closures and returns a program ``(x, y) -> (v, dx, dy, dxy)`` that runs it.
:func:`eval_hyperdual` and :func:`finite_difference_oracle` return a
:class:`Derivatives` named tuple.  Every operator and scalar function of the
tree is one closure, generated from fixed templates; the product rule and the
chain rule that write its formulas are each stated once, as a table of terms,
and the parts (u, u', u'') of each scalar function u, with its domain check,
once, as a row of templates that its node's body computes inline.  A program,
like a residual field's residual, is one generated entry that runs the bodies
and returns a formula of their components (:func:`compile_entry`).

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
against the operator-by-operator reference in ``tests/hyperdual_reference.py``,
with the exceptions :func:`compile_hyperdual` names, both from the terms and
components a program skips.  Every domain check still runs, also in a subtree
whose components nobody reads.

Components are ordinarily floats, but numpy arrays broadcast through the same
formulas, which lets a residual field be screened on a whole grid in one pass.
On arrays, a divisor that takes both signs raises :class:`SignChangeError`:
it vanishes between two samples.  One that dips to zero between samples
without changing sign on them is not found.
The one-dimensional theorems use the same algebra: for an expression in x
only, the program run at ``(x, 0.0)`` (y defaults to 0.0) carries its value
and derivative in ``(v, dx)``.

An integer power ``h ^ n`` is |n| - 1 products, so |n| is bounded by
:data:`MAX_INT_POWER`: compiling a constant exponent beyond it raises
``ValueError`` before anything is evaluated, and an exponent that depends on
x or y but evaluates to such an integer raises ``EvaluationError`` when it
is evaluated.
"""

from __future__ import annotations

import functools
import math
import re
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
    _at_corners,
    _eval,
    _fmt_number,
    evaluate,
    evaluation_error,
    reads_variable,
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
# source of every product node, and so the dense product of a varying exponent
# (``_mul``), all come from it.  The chain rule is stated once, in
# ``_CHAIN_TERMS``: component c of ``u(a)``, for a scalar function u, is the
# sum of the terms ``u^(k)(a[0])`` times the product of the ``a[j]`` for j in
# js, where js splits c's bits into k parts: the second-order Faa di Bruno
# formula, in HyperDual's order.  The compiler's masks of a scalar
# function (``_CHAIN_NZ``), the parts ``u^(k)`` each node wants, the source of
# every chain node, and so the dense chain of a varying exponent
# (``_dense_chain``), all come from it.  The parts themselves are stated once
# per function, in its row of ``_FUNCTIONS``: its domain check, the values its
# parts share, and the template of each part, over the operand's value a0 and
# a library m, with the same operations in the same order as HyperDual's method.
#
# Every sum, difference, product (a product with a constant included),
# negation, integer power and scalar function is one generated closure, so it
# costs one Python call: ``_formulas`` writes the source of each component the
# node fills, ``_parts`` the lines of a scalar function's node that run its
# check and compute the parts it wants (one ``isinstance`` picks ``math`` or
# numpy), and ``_factory`` turns them into a factory that takes the node's
# operands and returns the closure.  ``_binary`` builds a sum, difference or
# product, ``_negation`` a minus, ``_int_power`` a power, whose products run
# in a loop, and ``_chain`` a scalar function.  An operand is read by its kind:
# a compiled one is called, unless it is an x or y seed, which is the node's
# own X or Y; a folded constant is its value, passed to the factory, and
# lifted only in that it is the one component read of it (the lifted ``h ^ 0``
# is a compiled operand, and called).
# ``_entry`` generates the function that runs the compiled bodies of f (and
# g) and returns a formula of their components.  ``_factory``,
# ``_power_factory`` and ``_entry`` are cached functions of plain arguments
# that range over finite sets, so the caches stay bounded.  The generated
# source is safe to ``exec``: it is built from fixed templates and formulas
# and from indices alone, every constant, exponent and closure of an
# expression reaches it only as an argument of its factory, and the
# templates' own constants and messages are names bound in ``_NAMES``, so no
# text of an expression is ever part of it (``_SOURCES`` holds each source).
# A domain or exponent check is a root of the demand: it needs its operand's
# value even when nothing reads its own components, so a subtree holding a
# check always runs.  A subtree whose components nobody reads and that holds
# no check is not evaluated at all.

Components = tuple  # (v, dx, dy, dxy)
Program = Callable[[object, object], Components]

_V, _DX, _DY, _DXY = 1, 2, 4, 8
_ALL = 15

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
# the terms of component c of u(a), for a scalar function u, as (k, js): the
# part u^(k)(a[0]) times the product of a's components js, as HyperDual adds them
_CHAIN_TERMS = (
    ((0, ()),),
    ((1, (1,)),),
    ((1, (2,)),),
    ((1, (3,)), (2, (1, 2))),
)
# _CHAIN_NZ[a]: the components of u(a) that are not structurally zero, for a's
# nonzero mask a; a part u^(k) is not, whatever a is
_CHAIN_NZ = tuple(
    sum(1 << c for c in range(4) if any(all(a >> j & 1 for j in js) for _, js in _CHAIN_TERMS[c]))
    for a in range(16)
)


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


# The parts (u, u', u'') of each scalar function u at its operand's value a0, as
# source templates: its domain check, which runs even when no part is wanted,
# either a condition with the name of its message or a call that checks every
# input kind; the values its parts share, by name; and each part, with the
# shared values it reads.  ``m`` is the input kind's library and ``p`` the
# exponent of ``^p``; the constants and messages are names of ``_NAMES``.
_FUNCTIONS = {
    "sin": (None, {"sin": "m.sin(a0)", "cos": "m.cos(a0)"},
            (("sin", ("sin",)), ("cos", ("cos",)), ("-sin", ("sin",)))),
    "cos": (None, {"cos": "m.cos(a0)", "sin": "m.sin(a0)"},
            (("cos", ("cos",)), ("-sin", ("sin",)), ("-cos", ("cos",)))),
    "exp": (None, {"exp": "m.exp(a0)"}, (("exp", ("exp",)),) * 3),
    "log": (("a0 <= 0", "LOG_DOMAIN"), {"inv": "ONE / a0"},
            (("m.log(a0)", ()), ("inv", ("inv",)), ("-inv * inv", ("inv",)))),
    "sqrt": (("a0 <= 0", "SQRT_DOMAIN"), {"root": "m.sqrt(a0)"},
             (("root", ("root",)), ("HALF / root", ("root",)), ("-QUARTER / (root * a0)", ("root",)))),
    "recip": ("check_divisor(a0)", {"inv": "ONE / a0"},
              (("inv", ("inv",)), ("-inv * inv", ("inv",)), ("TWO * (inv * inv) * inv", ("inv",)))),
    "^p": (("a0 <= 0", "POWER_DOMAIN"), {},
           (("a0 ** p", ()), ("p * a0 ** (p - ONE)", ()), ("p * (p - ONE) * a0 ** (p - TWO)", ()))),
}
# the shared values whose library call raises ValueError, math's sin and cos of
# an infinity: the node maps it to EvaluationError, as ``evaluate`` does
_GUARDED = frozenset(("sin", "cos"))
# each input kind: the test that picks it, its library, and its form of a check's condition
_INPUT_KINDS = (
    ("if isinstance(a0, ndarray):", "numpy", "({}).any()"),
    ("else:", "math", "{}"),
)


def _parts(fn: str, want: int) -> list:
    """The lines of a chain node that run u's check and then compute the
    parts of u that want holds, as ``b0`` to ``b2``, from u's row."""
    check, shared, parts = _FUNCTIONS[fn]
    lines = [check] if type(check) is str else []
    for test, library, form in _INPUT_KINDS:
        lines += [test, f"    m = {library}"]
        if type(check) is tuple:
            lines += [f"    if {form.format(check[0])}:", f"        raise OutOfDomainError({check[1]})"]
    wanted = [(k, parts[k]) for k in range(3) if want >> k & 1]
    reads = {name for _, (_, names) in wanted for name in names}
    values = [f"{name} = {shared[name]}" for name in shared if name in reads]
    if reads & _GUARDED:
        values = ["try:", *(f"    {v}" for v in values), "except ValueError as exc:",
                  "    raise evaluation_error(exc) from exc"]
    return lines + values + [f"b{k} = {template}" for k, (template, _) in wanted]


# -- dense arithmetic: all four components, for a varying exponent ----------
#
# Each runs the generated node of all four components, which reads its operand
# a (and b) as a node reads the seed X (and Y).  ``_dense_node`` builds a node
# once per factory and arguments: the product, a scalar function's chain and
# the power ``h ^ n``, n >= 2.  A fractional power's node binds its exponent,
# which is only known when evaluated, so it is built then.


@functools.cache
def _dense_node(factory, *args):
    return factory(*args)


def _mul(a: Components, b: Components) -> Components:
    return _dense_node(_factory("*", _ARG_X, _ARG_Y, _ALL, _ALL, _ALL), None, None)(a, b)


def _dense_chain(a: Components, fn: str, p=None) -> Components:
    factory = _factory(fn, _ARG_X, 0, _ALL, _ALL, 0)
    node = factory(None, p) if fn == "^p" else _dense_node(factory, None, None)
    return node(a, None)


def _int_pow(a: Components, n: int) -> Components:
    if n == 0:
        return (1.0, 0.0, 0.0, 0.0)
    if n < 0:
        return _int_pow(_dense_chain(a, "recip"), -n)
    if n == 1:
        return a
    factory, counts = _power_factory(n, _ALL, _ALL, _ARG_X)
    return _dense_node(factory, None, counts)(a, None)


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
    av = a[0]
    if (av <= 0).any() if isinstance(av, np.ndarray) else av <= 0:
        raise OutOfDomainError("power with a varying exponent needs a positive base")
    return _dense_chain(_mul(b, _dense_chain(a, "log")), "exp")


def _dense(t: Components, mask: int) -> Components:
    v, dx, dy, dxy = t
    return (
        v if mask & _V else 0.0,
        dx if mask & _DX else 0.0,
        dy if mask & _DY else 0.0,
        dxy if mask & _DXY else 0.0,
    )


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
# ``+``, ``-``, ``*`` and ``/`` (after ``_reciprocal``) build ``_binary``,
# whose operands may be folded constants; ``-h`` builds ``_negation``,
# ``h ^ n`` ``_int_power`` and a scalar function ``_chain``.

# the components below each mask: those a component of it is built from
_BELOW = tuple(m and (_ALL if m & _DXY else m | _V) for m in range(16))


def _seed_x(X, Y):
    return X


def _seed_y(X, Y):
    return Y


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


# How a node reads an operand, by kind: a general operand is called, a seed is
# the node's own X or Y, and a folded constant is the value its factory was given.
_GENERAL, _ARG_X, _ARG_Y, _CONSTANT = range(4)
_KINDS = {_seed_x: _ARG_X, _seed_y: _ARG_Y}  # the kind of each operand closure not general
_SOURCES: dict = {}  # generated source -> its factory


def _formulas(op: str, om: int, na: int, nb: int, ref_a: str, ref_b: str):
    """The source of each component of ``a op b``, or of ``u(a)`` for op a
    scalar function u: in om, the terms of HyperDual's method that have no
    structurally zero factor, given the operands' nonzero masks; elsewhere
    ``None``.  Then the masks of the components of a and of b that it reads.
    ``ref_a.format(i)`` is the text of a's component i, and ``ref_b`` b's; the
    b of u(a) is its parts ``(u, u', u'')`` at a's value, which it reads."""
    out = []
    read_a = read_b = 0
    for c in range(4):
        if not om >> c & 1:
            out.append("None")
        elif op in _FUNCTIONS:
            terms = []
            for k, js in _CHAIN_TERMS[c]:
                if all(na >> j & 1 for j in js):
                    read_b |= 1 << k
                    factors = [ref_a.format(j) for j in js]
                    read_a |= sum(1 << j for j in js)
                    if len(factors) > 1:
                        factors = [f"({' * '.join(factors)})"]
                    terms.append(" * ".join([ref_b.format(k)] + factors))
            out.append(" + ".join(terms))
        elif op == "*":
            sums = []
            for group in _PRODUCT_TERMS[c]:
                kept = [(i, j) for i, j in group if na >> i & 1 and nb >> j & 1]
                for i, j in kept:
                    read_a |= 1 << i
                    read_b |= 1 << j
                if kept:
                    terms = [f"{ref_a.format(i)} * {ref_b.format(j)}" for i, j in kept]
                    sums.append(" + ".join(terms))
            out.append(sums[0] if len(sums) == 1 else " + ".join(f"({s})" for s in sums))
        else:
            left, right = na >> c & 1, nb >> c & 1
            read_a |= left << c
            read_b |= right << c
            a, b = ref_a.format(c), ref_b.format(c)
            if left and right:
                out.append(f"{a} {op} {b}")
            else:
                out.append(a if left else b if op == "+" else f"0.0 - {b}")
    return out, read_a, read_b


def _load(kind: int, name: str, read: int) -> str:
    """The statement of a node's body that reads operand ``name``, unpacking
    the components in read as ``name0`` to ``name3``; a general operand none
    of whose components is read is still called, for its checks."""
    if kind == _CONSTANT or not read and kind != _GENERAL:
        return ""
    call = (f"{name.upper()}(X, Y)", "X", "Y")[kind]
    if not read:
        return call
    return ", ".join(f"{name}{c}" if read >> c & 1 else "_" for c in range(4)) + " = " + call


def _ref(kind: int, name: str) -> str:
    return name.upper() if kind == _CONSTANT else name + "{}"


def _generated(params: str, body: list, args: str = "X, Y"):
    """The factory ``(params) -> node`` of the node ``(args)`` whose body is
    the given lines, compiled once per source."""
    lines = [f"def factory({params}):", f"    def node({args}):"]
    source = "\n".join(lines + [f"        {line}" for line in body if line] + ["    return node"])
    factory = _SOURCES.get(source)
    if factory is None:
        namespace = dict(_NAMES)
        exec(compile(source, "<hyperdual node>", "exec"), namespace)
        factory = _SOURCES[source] = namespace["factory"]
    return factory


@functools.cache
def _factory(op: str, ka: int, kb: int, om: int, na: int, nb: int):
    """The factory ``(A, B) -> node`` of ``a op b``, or of ``-a`` for op "neg",
    that fills the components of om, for the operands' kinds ka and kb and
    nonzero masks na and nb; generated once per arguments.  A negation has no
    b: its kb is _CONSTANT and its na and nb are 0.  The b of ``u(a)``, for op a
    scalar function u, is u's parts, which the node computes from a's value
    as u's row of ``_FUNCTIONS`` writes them: its kb and nb are 0, and its
    factory is ``(A, p) -> node``, p the exponent of ``^p``."""
    ref_a, ref_b = _ref(ka, "a"), _ref(kb, "b")
    if op == "neg":
        out = [f"-{ref_a.format(c)}" if om >> c & 1 else "None" for c in range(4)]
        read_a, read_b = om, 0
    else:
        out, read_a, read_b = _formulas(op, om, na, nb, ref_a, ref_b)
    if op in _FUNCTIONS:  # u's parts, computed from a's value, and p its exponent
        loads, params = [_load(ka, "a", read_a | _V)] + _parts(op, read_b), "A, p"
    else:
        loads, params = [_load(ka, "a", read_a), _load(kb, "b", read_b)], "A, B"
    return _generated(params, loads + [f"return ({', '.join(out)})"])


def _binary(op: str, a, b, need: int):
    """``a op b`` for two operands, each compiled or a folded constant's value."""
    if type(a) is tuple:
        A, na, ca = a
        ka = _KINDS.get(A, _GENERAL)
    else:
        ka, A, na, ca = _CONSTANT, float(a), _V, False
    if type(b) is tuple:
        B, nb, cb = b
        kb = _KINDS.get(B, _GENERAL)
    else:
        kb, B, nb, cb = _CONSTANT, float(b), _V, False
    nz = _PRODUCT_NZ[na << 4 | nb] if op == "*" else na | nb
    om = need & nz
    checks = ca or cb
    if not om:
        if not checks:
            return (None, nz, checks)
        A, B = (None if ka == _CONSTANT else A), (None if kb == _CONSTANT else B)
        return (_in_turn(A, B), nz, checks)
    # a sum or difference reads of each operand only its own components; a
    # product reads both operands
    if op != "*":
        if not om & na and not ca:
            if op == "+":
                return (B, nz, checks)  # b's components are the sum's
            ka = _CONSTANT  # a contributes nothing: 0.0 - b
        elif not om & nb and not cb:
            return (A, nz, checks)  # a sum or difference whose b contributes nothing
    return (_factory(op, ka, kb, om, na, nb)(A, B), nz, checks)


def _chain(fn: str, a, need: int, p=None):
    """``u(a)`` for a compiled operand asked for ``_BELOW[need] | _V``."""
    A, na, ca = a
    nz = _CHAIN_NZ[na]
    om = need & nz
    checked = _FUNCTIONS[fn][0] is not None
    if not (om or checked):
        return (A if ca else None, nz, ca)  # nothing to compute here, but a runs its checks
    return (_factory(fn, _KINDS.get(A, _GENERAL), 0, om, na, 0)(A, p), nz, checked or ca)


def _int_power(a, n: int, need: int):
    """``h ^ n`` for an integer n >= 2: n - 1 products, as HyperDual takes them."""
    A, na, ca = a
    nz = _CHAIN_NZ[na]
    om = need & nz
    if not om:
        return (A if ca else None, nz, ca)
    factory, counts = _power_factory(n, om, na, _KINDS.get(A, _GENERAL))
    return (factory(A, counts), nz, ca)


@functools.cache
def _power_factory(n: int, om: int, na: int, kind: int):
    """The factory ``(A, counts) -> node`` of ``h ^ n`` that fills the
    components of om, for the base's nonzero mask na and kind, and its counts;
    generated once per arguments.  The product ``h^(k-1) * h`` is the running
    ``o`` times the base ``a``; from the last product back, each asks o for
    what the next reads of it, so once two products in turn are alike, all of
    them down to the second are, and a run of more than one product is a loop
    over ``range(counts[r])``."""
    runs = []  # [source of the product's components, products], last first
    need, k = om, n
    while k >= 2:
        out, below, _ = _formulas("*", need, na if k == 2 else _CHAIN_NZ[na], na, "o{}", "a{}")
        step = k - 2 if below == need and k > 2 else 1
        if runs and runs[-1][0] == out:
            runs[-1][1] += step
        else:
            runs.append([out, step])
        need, k = below, k - step
    body = [_load(kind, "a", _ALL), "o0, o1, o2, o3 = a0, a1, a2, a3"]
    counts = []
    for out, step in reversed(runs):
        product = f"o0, o1, o2, o3 = {', '.join(out)}"
        if step == 1:
            body.append(product)
        else:
            body += [f"for _ in range(counts[{len(counts)}]):", f"    {product}"]
            counts.append(step)
    body.append("return (o0, o1, o2, o3)")
    return _generated("A, counts", body), tuple(counts)


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


def _negation(A, om: int):
    return _factory("neg", _KINDS.get(A, _GENERAL), _CONSTANT, om, 0, 0)(A, None)


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
                return _binary(op, a, b, need)
            if type(b) is not tuple:
                return _fold(node)
            # c + h runs h.__radd__(c), which is h + lift(c); c - h runs
            # h.__rsub__(c), which is lift(c) - h
            return _binary(op, b, a, need) if op == "+" else _binary(op, a, b, need)
        # h * k or h / k reads of h what it reads itself, also when k is a
        # constant subtree that folds to a value; h * g reads at most the
        # components of h below those it reads
        k = None if reads_variable(right) else _fold(right)
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
        # c * h runs h.__rmul__(c), which is h * c
        return _binary("*", a, b, need) if type(a) is tuple else _binary("*", b, a, need)
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


_BITS = {name: 1 << c for c, name in enumerate(Derivatives._fields)}


def _read_mask(reads) -> int:
    if isinstance(reads, str):
        raise TypeError("reads must be a collection of component names, not a string")
    mask = 0
    for name in reads:
        try:
            mask |= _BITS[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown derivative component {name!r}; expected one of {Derivatives._fields}") from None
    return mask


# the names a generated source reads beside its own: every constant and error
# message of a template is bound here, so that no constant is text of a source
_NAMES = dict(
    ndarray=np.ndarray, math=math, numpy=np, isfinite=math.isfinite, check_divisor=check_divisor,
    evaluation_error=evaluation_error, EvaluationError=EvaluationError,
    OutOfDomainError=OutOfDomainError, ONE=1.0, TWO=2.0, HALF=0.5, QUARTER=0.25,
    NOT_FINITE="result is not finite", NON_FINITE="non-finite derivative component",
    LOG_DOMAIN="log of a non-positive value",
    SQRT_DOMAIN="sqrt needs a positive argument for its derivatives",
    POWER_DOMAIN="fractional power needs a positive base",
)

# an entry's formula names component c of function f fc; a program returns the
# components read, and None for the others
_COMPONENT = re.compile(r"\b[fg][0-3]\b")
_IDENTIFIER = re.compile(r"\b[A-Za-z_]\w*")
_IDENTITY = tuple((f"({', '.join(f'f{c}' if n >> c & 1 else 'None' for c in range(4))})",) for n in range(16))


@functools.cache
def _entry(formula: tuple, names: str, kinds: tuple, computed: tuple):
    """The factory ``(*bodies, *constants) -> entry`` of ``(x, y=0.0) ->
    formula``, generated once per arguments.  The entry builds the seeds, runs
    the body of each function in names, in that order, given its kind (kind
    None raises for a constant that is not finite) and the components it
    computes, then the formula's lines, and returns the last.  There x and y
    are the arguments as given and fc is component c of f, 0.0 when its body
    does not compute it."""
    seeds = [] if kinds[0] is None else [  # raised before the inputs are read
        "X = (x if isinstance(x, ndarray) else float(x), ONE, None, None)",
        "Y = (y if isinstance(y, ndarray) else float(y), None, ONE, None)",
    ]
    loads, refs, general = [], {}, False
    out = ["raise EvaluationError(NOT_FINITE)"]
    for name, kind, mask in zip(names, kinds, computed):
        if kind is None:
            break
        general |= kind == _GENERAL
        loads.append(_load(kind, name, mask))
        if mask and kind != _CONSTANT:  # on scalar inputs, every component computed is finite
            finite = " and ".join(f"isfinite({name}{c})" for c in range(4) if mask >> c & 1)
            loads.append(f"if not (isinstance(X[0], ndarray) or isinstance(Y[0], ndarray) or {finite}):")
            loads.append("    raise EvaluationError(NON_FINITE)")
        ref = _ref(kind, name)
        refs.update((f"{name}{c}", ref.format(c) if mask >> c & 1 else "0.0") for c in range(4))
    else:
        *lines, value = (_COMPONENT.sub(lambda m: refs[m[0]], line) for line in formula)
        out = [*lines, f"return {value}"]
    if general:  # an error of float arithmetic inside a body is an EvaluationError
        loads = ["try:", *(f"    {line}" for line in loads if line),
                 "except (ZeroDivisionError, OverflowError) as exc:", "    raise evaluation_error(exc) from exc"]
    params = ", ".join([n.upper() for n in names] + list(formula_constants(formula)))
    return _generated(params, seeds + loads + out, "x, y=0.0")


def compile_body(f: Expression, need: int) -> tuple:
    """``f`` compiled for the components of the mask need, as the triple
    ``(body, kind, computed)`` of :func:`compile_entry`."""
    t = _compile(f, need)
    if type(t) is tuple:
        A, nz, _ = t
        return A, _CONSTANT if A is None else _KINDS.get(A, _GENERAL), need & nz
    if math.isfinite(t):
        return float(t), _CONSTANT, need & _V
    return None, None, 0


def formula_constants(formula) -> tuple:
    """The constants of an entry's ``formula`` in the order its entry takes
    them: its names but x, y, the components fc and those of ``_NAMES``."""
    return tuple(dict.fromkeys(
        n for line in ((formula,) if type(formula) is str else formula)
        for n in _IDENTIFIER.findall(_COMPONENT.sub("", line))
        if n not in _NAMES and n not in ("x", "y", "None")
    ))


def compile_entry(formula, names: str, bodies, constants: tuple = ()):
    """The one generated function ``(x, y=0.0) -> formula`` that runs the
    compiled ``bodies`` of the functions in names ("f", "gf", ...), in that
    order, and returns ``formula`` of their components and the values of its
    :func:`formula_constants`; a tuple's last line is the formula."""
    nodes, kinds, computed = zip(*bodies)
    factory = _entry((formula,) if type(formula) is str else formula, names, kinds, computed)
    return factory(*nodes, *constants)


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

    Compiling walks the tree once, and the program is the entry whose formula
    is the tuple of the components read, so its calls re-decide nothing; build
    a program once per expression and call it many times.  A constant integer
    exponent beyond :data:`MAX_INT_POWER` in magnitude raises ``ValueError``;
    a varying one that evaluates to such an integer raises ``EvaluationError``.
    """
    need = _read_mask(reads)
    A, kind, computed = compile_body(f, need)
    return _entry(_IDENTITY[need], "f", (kind,), (computed,))(A)


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
    hyper-dual path so the two can check each other.  The eight stencil values
    come from two walks of f's tree, one over the four points of the first
    partials and one over the cross stencil, each value the one ``evaluate``
    returns there.  When a walk raises or a value is not finite, f is
    evaluated at each stencil point in turn, ``(x0 + hx, y0)``, ``(x0 - hx,
    y0)``, ``(x0, y0 + hy)``, ``(x0, y0 - hy)``, then the cross stencil from
    ``(+, +)`` through ``(+, -)`` and ``(-, +)`` to ``(-, -)``, so the first
    failing point in that order decides the error.  An error at a stencil
    point, which may lie outside f's domain though ``(x0, y0)`` does not, is
    raised again with its type and a message that names the point.
    """
    x0, y0 = float(x0), float(y0)
    hx = max(1.0, abs(x0)) * _CBRT_EPS
    hy = max(1.0, abs(y0)) * _CBRT_EPS
    v = evaluate(f, x0, y0)
    xp, xm, yp, ym = x0 + hx, x0 - hx, y0 + hy, y0 - hy
    try:
        a = _at_corners(f, (xp, xm, x0, x0), (y0, y0, yp, ym))
        c = _at_corners(f, (xp, xp, xm, xm), (yp, ym, yp, ym))
        finite = all(map(math.isfinite, a + c))
    except (ArithmeticError, ValueError, EvaluationError):
        finite = False
    if not finite:
        # evaluated in turn, the first stencil point that fails raises evaluate's error
        def e(a: float, b: float) -> float:
            try:
                return evaluate(f, a, b)
            except EvaluationError as exc:
                raise type(exc)(
                    f"{exc} at the finite-difference stencil point ({a!r}, {b!r}), "
                    f"a step of max(1, |coordinate|) * eps**(1/3) from ({x0!r}, {y0!r})"
                ) from exc

        a = (e(xp, y0), e(xm, y0), e(x0, yp), e(x0, ym))
        c = (e(xp, yp), e(xp, ym), e(xm, yp), e(xm, ym))
    dx = (a[0] - a[1]) / (2.0 * hx)
    dy = (a[2] - a[3]) / (2.0 * hy)
    dxy = (c[0] - c[1] - c[2] + c[3]) / (4.0 * hx * hy)
    return Derivatives(v, dx, dy, dxy)
