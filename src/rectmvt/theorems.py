"""Residual fields for the rectangle mean value theorems.

Each theorem asserts that some identity holds at a point of the open
rectangle.  We rewrite every identity as a continuous residual
``R(x, y) = LHS(x, y) - RHS`` whose zeros are exactly the mean-value points,
so locating a point reduces to finding a zero of a scalar field.  Every field
carries a ``scale`` that all tolerance checks are measured against, which
keeps thresholds meaningful for both tiny and huge functions; each row of
:data:`THEOREMS` states its scale, and :class:`ResidualField` lists them.

Each theorem is stated once, as a row of :data:`THEOREMS` whose formulas give
its constants, checks, scale and residual; ``_field`` builds every field from
its row.  It compiles the functions before it evaluates them, so an input that
compiling rejects fails before any evaluation error can.  It then evaluates
each function at its four corners in one walk of its tree, which does each
float operation of ``evaluate`` once per corner.  When the walk raises or a
corner value is not finite, the function is evaluated at each corner in turn
instead, so that the first failing corner in the order its formula reads them
decides the error, as it would one evaluation at a time.  The residual is one
function that ``hyperdual.compile_entry`` generates from the row's formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import (BinOp, Const, EvaluationError, Expression, Var, _at_corners, const, evaluate,
                   reads_variable, substitute)
from .hyperdual import Derivatives, _read_mask, compile_body, compile_entry, eval_hyperdual, formula_constants

__all__ = [
    "DegenerateError",
    "DomainError",
    "HypothesisError",
    "Rectangle",
    "ResidualField",
    "THEOREMS",
    "Theorem",
    "boggio1d_residual",
    "boggio2d_residual",
    "build_cauchy_auxiliary",
    "build_reciprocal_transform",
    "corner_difference",
    "fts_expansion_check",
    "pompeiu1d_residual",
    "pompeiu2d_residual",
    "pompeiu_operator",
    "pompeiu_rhs",
    "reciprocal_rectangle",
    "rect_cauchy_residual",
    "rect_mvt_residual",
    "rect_rolle_residual",
]

# corner differences smaller than this (times the field scale) are treated as
# degenerate rather than divided by
DEGENERACY_FACTOR = 1e-12
# tolerance factor for the corner hypothesis of the rectangular Rolle theorem
ROLLE_HYPOTHESIS_FACTOR = 1e-9


class TheoremError(Exception):
    """Base class for violated theorem preconditions."""


class DomainError(TheoremError):
    """The rectangle or point violates a domain condition (axes, containment)."""


class DegenerateError(TheoremError):
    """A corner difference is too close to zero for the identity to be meaningful."""


class HypothesisError(TheoremError):
    """An explicit theorem hypothesis fails (e.g. the Rolle corner identity)."""


@dataclass(frozen=True)
class Rectangle:
    """Closed axis-aligned rectangle [x1, x2] x [y1, y2] with strict ordering."""

    x1: float
    x2: float
    y1: float
    y2: float

    def __post_init__(self):
        if not all(math.isfinite(b) for b in (self.x1, self.x2, self.y1, self.y2)):
            raise ValueError(f"rectangle bounds must be finite, got {self}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"rectangle bounds must satisfy x1 < x2 and y1 < y2, got {self}")
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValueError(f"rectangle is too wide: its width or height overflows, got {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def zero_free(self) -> bool:
        """True when the closure avoids both coordinate axes."""
        # signs, not products: a product of two tiny bounds underflows to 0
        return (self.x1 > 0 or self.x2 < 0) and (self.y1 > 0 or self.y2 < 0)

    def contains_open(self, x: float, y: float) -> bool:
        return self.x1 < x < self.x2 and self.y1 < y < self.y2

    @property
    def axes(self) -> tuple[tuple[float, float], ...]:
        """Per-axis ``(lo, hi)`` bounds, x first."""
        return ((self.x1, self.x2), (self.y1, self.y2))


@dataclass(eq=False, frozen=True)
class ResidualField:
    """A theorem instance: a continuous scalar field whose zeros are mean-value points.

    ``axes`` holds per-axis ``(lo, hi)`` bounds, x first: two for a rectangle,
    one for an interval.  The residual takes one coordinate per axis, floats or
    numpy arrays, and is one function generated from its theorem's formula,
    which runs the compiled bodies of f (and g) once each.

    ``scale`` is what every tolerance is measured against, as the theorem's
    row states it: ``1 + |delta_f|`` for rmvt, ``1 + |delta_f| + |delta_g|``
    for cauchy, ``1 + |rhs|`` for pompeiu2d, pompeiu1d and boggio1d, ``1 +
    |rhs_f| + |rhs_g|`` for boggio2d, and for rolle, whose identity has no
    constant side, 1 + the largest |f_xy| on a 9 x 9 sample of cell centers.
    """

    axes: tuple[tuple[float, float], ...]
    residual: Callable[..., float]
    scale: float
    decomposition: dict[str, float]
    tag: str

    def __post_init__(self):
        # every tolerance is relative to scale, and the CLI prints both as JSON
        if not all(math.isfinite(v) for v in (self.scale, *self.decomposition.values())):
            raise EvaluationError(f"field constants are not finite: scale {self.scale!r}, {self.decomposition!r}")


@dataclass(frozen=True)
class Theorem:
    """One row of the theorem table: a theorem, stated once.

    ``needs_g``: it takes a second function g.  ``one_dim``: its domain is an
    interval.  ``zero_free``: its domain avoids the axes; ``domain`` is the
    message for a rectangle that does not, if checked.  ``reads``: the
    components of f (and g) its residual reads, all that is compiled.
    ``constants``, in order: ``(names, formula)`` over the bounds x1, x2 (y1,
    y2), the domain r, f, g and their compiled bodies F and G, or a check
    ``(error, condition, message)``; one is ``scale``, and ``decomposition``
    names those the field reports.  ``residual``: R over x (and y), the
    components f0 to f3 (v, dx, dy, dxy) of f and g0 to g3 of g and the
    constants, or lines whose last is R; it runs g's body first if ``g_first``.
    """

    tag: str
    needs_g: bool = False
    one_dim: bool = False
    zero_free: bool = False
    reads: tuple[str, ...] = Derivatives._fields
    domain: Optional[str] = None
    constants: tuple = ()
    decomposition: tuple[str, ...] = ()
    residual: str | tuple[str, ...] = ""
    g_first: bool = False

    def check_g(self, g: Optional[Expression]) -> None:
        if self.needs_g and g is None:
            raise ValueError(f"theorem {self.tag!r} requires a second function g")
        if not self.needs_g and g is not None:
            raise ValueError(f"theorem {self.tag!r} does not take a second function")

    @functools.cached_property
    def need(self) -> int:
        """The mask of the components in ``reads``."""
        return _read_mask(self.reads)

    @functools.cached_property
    def evaluate_constants(self) -> Callable[..., tuple]:
        """``(domain, f, F) -> (scale, decomposition, residual's constants)``,
        or ``(domain, f, g, F, G) -> ...`` with g: the row's constants, as one
        function generated from their formulas."""
        lines = [f"def constants(r, {'f, g, F, G' if self.needs_g else 'f, F'}):",
                 "    x1, x2 = r" if self.one_dim else "    x1, x2, y1, y2 = r.x1, r.x2, r.y1, r.y2"]
        for step in self.constants:
            if len(step) == 2:
                lines.append(f"    {step[0]} = {step[1]}")
            else:
                error, condition, message = step
                lines += [f"    if {condition}:", f"        raise {error.__name__}(f{message!r})"]
        decomposition = ", ".join(f"{n}={n}" for n in self.decomposition)
        lines.append(f"    return scale, dict({decomposition}), ({''.join(f'{n}, ' for n in formula_constants(self.residual))})")
        namespace: dict = {}
        exec("\n".join(lines), globals(), namespace)  # fixed text of this module's rows
        return namespace["constants"]


# the corner difference of f, the Pompeiu numerator of f (over the area, the
# constant side of the identity), and the Pompeiu operator of f at (x, y)
_DELTA = "{0}22 - {0}21 - {0}12 + {0}11"
_NUMERATOR = "x2 * y2 * {0}11 - x2 * y1 * {0}12 - x1 * y2 * {0}21 + x1 * y1 * {0}22"
_OPERATOR = "x * y * {0}3 - x * {0}1 - y * {0}2 + {0}0"
_ZERO_FREE = "needs a zero-free rectangle (x1*x2 > 0 and y1*y2 > 0), got {}"
# the messages of a residual's checks, bound in it as its constants are
_G_PRIME_ZERO = "g' vanishes at an evaluation point"
_G_PRIME_SIGN = "g' changes sign between samples, so it vanishes between them"

THEOREMS = {
    t.tag: t
    for t in (
        Theorem("rolle", reads=("dxy",), constants=(
            ("f11, f12, f21, f22", "_corners(f, r, low_first=True)"),
            ("delta_f", _DELTA.format("f")),
            (HypothesisError, "abs(delta_f) > ROLLE_HYPOTHESIS_FACTOR * (1.0 + max(map(abs, (f11, f12, f21, f22))))",
             "corner identity fails: f(x1,y1)+f(x2,y2)={f11 + f22!r} but f(x1,y2)+f(x2,y1)={f12 + f21!r}"),
            ("scale", "1.0 + _mixed_partial_magnitude(F, r)"),
        ), decomposition=("delta_f",), residual="f3"),
        Theorem("rmvt", reads=("dxy",), constants=(
            ("f11, f12, f21, f22", "_corners(f, r)"),
            ("delta_f", _DELTA.format("f")),
            ("area", "r.area"),
            ("scale", "1.0 + abs(delta_f)"),
        ), decomposition=("delta_f",), residual="delta_f - area * f3"),
        # the quotient f_xy/g_xy = delta_f/delta_g, cross-multiplied
        Theorem("cauchy", needs_g=True, reads=("dxy",), constants=(
            ("f11, f12, f21, f22", "_corners(f, r)"),
            ("g11, g12, g21, g22", "_corners(g, r)"),
            ("delta_f", _DELTA.format("f")),
            ("delta_g", _DELTA.format("g")),
            ("scale", "1.0 + abs(delta_f) + abs(delta_g)"),
            (DegenerateError, "abs(delta_g) <= DEGENERACY_FACTOR * scale",
             "corner difference of g is degenerate: {delta_g!r}"),
        ), decomposition=("delta_f", "delta_g"), residual="delta_f * g3 - delta_g * f3", g_first=True),
        Theorem("pompeiu2d", zero_free=True, domain=f"Pompeiu's theorem {_ZERO_FREE}", constants=(
            ("f11, f12, f21, f22", "_corners(f, r, low_first=True)"),
            ("rhs", f"({_NUMERATOR.format('f')}) / r.area"),
            ("scale", "1.0 + abs(rhs)"),
        ), decomposition=("rhs",), residual=f"({_OPERATOR.format('f')}) - rhs"),
        Theorem("boggio2d", needs_g=True, zero_free=True, domain=f"Boggio's theorem {_ZERO_FREE}", constants=(
            ("f11, f12, f21, f22", "_corners(f, r)"),
            ("g11, g12, g21, g22", "_corners(g, r)"),
            ("delta_f", _DELTA.format("f")),
            ("delta_g", _DELTA.format("g")),
            ("delta_scale", "1.0 + abs(delta_f) + abs(delta_g)"),
            (DegenerateError, "abs(delta_f) <= DEGENERACY_FACTOR * delta_scale",
             "corner difference of f is degenerate: {delta_f!r}"),
            (DegenerateError, "abs(delta_g) <= DEGENERACY_FACTOR * delta_scale",
             "corner difference of g is degenerate: {delta_g!r}"),
            ("rhs_f", f"({_NUMERATOR.format('f')}) / (r.area * delta_f)"),
            ("rhs_g", f"({_NUMERATOR.format('g')}) / (r.area * delta_g)"),
            ("rhs", "rhs_g - rhs_f"),
            ("scale", "1.0 + abs(rhs_f) + abs(rhs_g)"),
        ), decomposition=("delta_f", "delta_g", "rhs_f", "rhs_g"), g_first=True,
            residual=f"(({_OPERATOR.format('g')}) / delta_g - ({_OPERATOR.format('f')}) / delta_f) - rhs"),
        Theorem("pompeiu1d", one_dim=True, zero_free=True, reads=("v", "dx"), constants=(
            ("rhs", "(x1 * evaluate(f, x2, 0.0) - x2 * evaluate(f, x1, 0.0)) / (x1 - x2)"),
            ("scale", "1.0 + abs(rhs)"),
        ), decomposition=("rhs",), residual="(f0 - x * f1) - rhs"),
        # g' is a divisor, and g' != 0 is a hypothesis of Boggio's theorem
        Theorem("boggio1d", needs_g=True, one_dim=True, zero_free=True, reads=("v", "dx"), constants=(
            ("g_x1, g_x2", "evaluate(g, x1, 0.0), evaluate(g, x2, 0.0)"),
            (DegenerateError, "abs(g_x1 - g_x2) <= DEGENERACY_FACTOR * (1.0 + abs(g_x1) + abs(g_x2))",
             "g takes equal values at the endpoints: {g_x1!r}, {g_x2!r}"),
            ("rhs", "(g_x1 * evaluate(f, x2, 0.0) - g_x2 * evaluate(f, x1, 0.0)) / (g_x1 - g_x2)"),
            ("scale", "1.0 + abs(rhs)"),
        ), decomposition=("rhs",),
            residual=("check_divisor(g1, _G_PRIME_ZERO, _G_PRIME_SIGN)", "(f0 - (g0 / g1) * f1) - rhs")),
    )
}


def _corners(f: Expression, r: Rectangle, low_first: bool = False) -> tuple[float, ...]:
    """f at (x1,y1), (x1,y2), (x2,y1) and (x2,y2), from one walk of its tree.

    When the walk raises or a corner value is not finite, f is evaluated at
    each corner in turn, from (x2,y2) back to (x1,y1), the order the corner
    difference reads them, or from (x1,y1) on with ``low_first``, the order
    the Pompeiu numerator reads them, and the first failing corner decides
    the error.
    """
    isfinite = math.isfinite
    try:
        c = _at_corners(f, (r.x1, r.x1, r.x2, r.x2), (r.y1, r.y2, r.y1, r.y2))
        if isfinite(c[0]) and isfinite(c[1]) and isfinite(c[2]) and isfinite(c[3]):
            return c
    except (ArithmeticError, ValueError, EvaluationError):
        pass  # evaluated in turn, the corners raise evaluate's error
    corners = ((r.x1, r.y1), (r.x1, r.y2), (r.x2, r.y1), (r.x2, r.y2))
    values = {p: evaluate(f, *p) for p in (corners if low_first else corners[::-1])}
    return tuple(values[p] for p in corners)


def corner_difference(f: Expression, r: Rectangle) -> float:
    """Rectangular mixed difference f(x2,y2) - f(x2,y1) - f(x1,y2) + f(x1,y1)."""
    f11, f12, f21, f22 = _corners(f, r)
    return f22 - f21 - f12 + f11


def _mixed_partial_magnitude(body, r: Rectangle, n: int = 9) -> float:
    """Max |f_xy| over an n x n cell-center sample, from f's compiled ``body``
    (which computes ``dxy``), for scale estimates."""
    xs = r.x1 + (np.arange(n) + 0.5) * (r.width / n)
    ys = r.y1 + (np.arange(n) + 0.5) * (r.height / n)
    try:
        # an underflow only rounds a tiny partial toward 0, which is still finite
        with np.errstate(all="raise", under="ignore"):
            d = compile_entry("f3", "f", (body,))(xs[np.newaxis, :], ys[:, np.newaxis])
    except FloatingPointError as exc:
        raise EvaluationError(f"mixed partial not finite on the rectangle: {exc}") from exc
    return float(np.abs(np.broadcast_to(d, (n, n))).max())


def _field(tag: str, functions: tuple, domain) -> ResidualField:
    """The residual field of theorem ``tag`` for f (and g) on ``domain``, a
    Rectangle or an interval ``(x1, x2)``, as its row of ``THEOREMS`` states it."""
    row = THEOREMS[tag]
    if row.one_dim:
        x1, x2 = domain
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise ValueError(f"interval bounds must be finite, got [{x1}, {x2}]")
        if not x1 < x2:
            raise ValueError(f"interval bounds must satisfy x1 < x2, got [{x1}, {x2}]")
        if not math.isfinite(x2 - x1):
            raise ValueError(f"interval [{x1}, {x2}] is too wide: its width overflows")
        if not (x1 > 0 or x2 < 0):  # x1 < x2, so this is x1*x2 > 0 without underflow
            raise DomainError(f"interval [{x1}, {x2}] must not contain 0")
        for name, e in zip("fg", functions):
            if reads_variable(e, ("y",)):
                which = f" ({name})" if row.needs_g else ""
                raise ValueError(f"one-dimensional theorems take expressions in x only{which}")
    elif row.domain is not None and not domain.zero_free():
        raise DomainError(row.domain.format(domain))
    bodies = [compile_body(e, row.need) for e in functions]
    scale, decomposition, constants = row.evaluate_constants(domain, *functions, *bodies)
    names = "gf" if row.g_first else "fg"[: len(bodies)]
    residual = compile_entry(row.residual, names, bodies[::-1] if row.g_first else bodies, constants)
    axes = (tuple(domain),) if row.one_dim else domain.axes
    return ResidualField(axes, residual, scale, decomposition, tag)


def rect_rolle_residual(f: Expression, r: Rectangle) -> ResidualField:
    """Residual for the rectangular Rolle theorem: R(x, y) = f_xy(x, y).

    Requires the corner identity f(x1,y1) + f(x2,y2) = f(x1,y2) + f(x2,y1);
    under it some interior point has a vanishing mixed partial.
    """
    return _field("rolle", (f,), r)


def rect_mvt_residual(f: Expression, r: Rectangle) -> ResidualField:
    """Residual for the rectangular mean value theorem.

    R(x, y) = [f(x2,y2) - f(x2,y1) - f(x1,y2) + f(x1,y1)] - (x2-x1)(y2-y1) f_xy(x, y)
    """
    return _field("rmvt", (f,), r)


def rect_cauchy_residual(f: Expression, g: Expression, r: Rectangle) -> ResidualField:
    """Residual for the rectangular Cauchy mean value theorem, cross-multiplied.

    The quotient identity f_xy/g_xy = delta_f/delta_g is checked in the form
    R(x, y) = delta_f * g_xy(x, y) - delta_g * f_xy(x, y), which needs no
    assumption on interior zeros of g_xy and has the same zero set wherever
    the quotient form is defined.
    """
    return _field("cauchy", (f, g), r)


def pompeiu_operator(f: Expression, xi1, xi2):
    """xi1*xi2*f_xy - xi1*f_x - xi2*f_y + f, all evaluated at (xi1, xi2)."""
    return compile_entry(_OPERATOR.format("f"), "f", (compile_body(f, THEOREMS["pompeiu2d"].need),))(xi1, xi2)


def pompeiu_rhs(f: Expression, r: Rectangle) -> float:
    """Constant side of the two-dimensional Pompeiu identity on ``r``."""
    return THEOREMS["pompeiu2d"].evaluate_constants(r, f, None)[1]["rhs"]


def pompeiu2d_residual(f: Expression, r: Rectangle) -> ResidualField:
    """Residual for the two-dimensional Pompeiu mean value theorem.

    Defined only on rectangles that avoid both axes; the reciprocal transform
    underlying the identity is undefined on them.
    """
    return _field("pompeiu2d", (f,), r)


def boggio2d_residual(f: Expression, g: Expression, r: Rectangle) -> ResidualField:
    """Residual for the two-dimensional Boggio (Cauchy-type Pompeiu) theorem.

    With P the Pompeiu operator and N the corresponding corner numerator,
    R = [P[g]/delta_g - P[f]/delta_f] - [N_g/(area*delta_g) - N_f/(area*delta_f)].
    """
    return _field("boggio2d", (f, g), r)


def pompeiu1d_residual(f: Expression, x1: float, x2: float) -> ResidualField:
    """One-dimensional Pompeiu residual on an interval away from 0.

    R(xi) = [f(xi) - xi f'(xi)] - [x1 f(x2) - x2 f(x1)] / (x1 - x2)
    """
    return _field("pompeiu1d", (f,), (x1, x2))


def boggio1d_residual(f: Expression, g: Expression, x1: float, x2: float) -> ResidualField:
    """One-dimensional Boggio residual, with the denominator oriented so that
    g(x) = x reduces it exactly to the Pompeiu residual.

    R(xi) = [f(xi) - (g(xi)/g'(xi)) f'(xi)]
            - [g(x1) f(x2) - g(x2) f(x1)] / (g(x1) - g(x2))
    """
    return _field("boggio1d", (f, g), (x1, x2))


def build_cauchy_auxiliary(f: Expression, g: Expression, r: Rectangle) -> Expression:
    """Auxiliary function H = delta_f * g - delta_g * f with the corner
    differences embedded as constants.

    By construction H satisfies the Rolle corner identity on ``r``, which is
    what reduces the Cauchy form to the rectangular Rolle theorem.
    """
    delta_f = corner_difference(f, r)
    delta_g = corner_difference(g, r)
    return BinOp("-", BinOp("*", const(delta_f), g), BinOp("*", const(delta_g), f))


def build_reciprocal_transform(f: Expression) -> Expression:
    """The transform F(x, y) = x*y*f(1/x, 1/y) as an expression tree."""
    one_over_x = BinOp("/", Const(1.0), Var("x"))
    one_over_y = BinOp("/", Const(1.0), Var("y"))
    inner = substitute(f, {"x": one_over_x, "y": one_over_y})
    return BinOp("*", BinOp("*", Var("x"), Var("y")), inner)


def reciprocal_rectangle(r: Rectangle) -> Rectangle:
    """Image of a zero-free rectangle under coordinate-wise reciprocal."""
    if not r.zero_free():
        raise DomainError(f"reciprocal rectangle needs a zero-free rectangle, got {r}")
    return Rectangle(1.0 / r.x2, 1.0 / r.x1, 1.0 / r.y2, 1.0 / r.y1)


def fts_expansion_check(f: Expression, t: float, s: float) -> tuple[float, float]:
    """Mixed partial of the reciprocal transform two ways.

    Returns ``(left, right)`` where ``left`` is the mixed partial of
    F(x, y) = x*y*f(1/x, 1/y) evaluated directly at (t, s) and ``right`` is its
    expansion (1/(t*s)) f_xy - (1/t) f_x - (1/s) f_y + f, with the derivatives
    of f taken at (1/t, 1/s).  The caller asserts the two agree.
    """
    t, s = float(t), float(s)
    if t == 0.0 or s == 0.0:
        raise DomainError("the reciprocal transform is undefined on the axes")
    left = eval_hyperdual(build_reciprocal_transform(f), t, s).dxy
    h = eval_hyperdual(f, 1.0 / t, 1.0 / s)
    right = (1.0 / (t * s)) * h.dxy - (1.0 / t) * h.dx - (1.0 / s) * h.dy + h.v
    return left, right
