"""Residual fields for the rectangle mean value theorems.

Each theorem asserts that some identity holds at a point of the open
rectangle.  We rewrite every identity as a continuous residual
``R(x, y) = LHS(x, y) - RHS`` whose zeros are exactly the mean-value points,
so locating a point reduces to finding a zero of a scalar field.  Every field
carries a ``scale`` (1 + |constant side of the identity|) that all tolerance
checks are measured against, which keeps thresholds meaningful for both tiny
and huge functions.

A builder compiles its functions before it evaluates them, so an input that
compiling rejects fails before any evaluation error can.  It then evaluates
each function at each corner once and builds the corner difference and the
Pompeiu numerator from those four values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import (
    BinOp,
    Const,
    EvaluationError,
    Expression,
    Var,
    const,
    evaluate,
    substitute,
    variables,
)
from .hyperdual import Derivatives, Program, check_divisor, compile_hyperdual, eval_hyperdual

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


@dataclass(frozen=True)
class Theorem:
    """One row of the theorem table: the tag and the shape of its inputs.

    ``needs_g``: the theorem takes a second function g.  ``one_dim``: its
    domain is an interval rather than a rectangle.  ``zero_free``: its domain
    must avoid the axes; only case generation reads this, since the residual
    builders check their own domains.  ``reads``: the derivative components
    of f (and of g) that its residual reads, which are all its builder
    compiles.
    """

    tag: str
    needs_g: bool = False
    one_dim: bool = False
    zero_free: bool = False
    reads: tuple[str, ...] = Derivatives._fields

    def check_g(self, g: Optional[Expression]) -> None:
        if self.needs_g and g is None:
            raise ValueError(f"theorem {self.tag!r} requires a second function g")
        if not self.needs_g and g is not None:
            raise ValueError(f"theorem {self.tag!r} does not take a second function")


THEOREMS = {
    t.tag: t
    for t in (
        Theorem("rolle", reads=("dxy",)),
        Theorem("rmvt", reads=("dxy",)),
        Theorem("cauchy", needs_g=True, reads=("dxy",)),
        Theorem("pompeiu2d", zero_free=True),
        Theorem("boggio2d", needs_g=True, zero_free=True),
        Theorem("pompeiu1d", one_dim=True, zero_free=True, reads=("v", "dx")),
        Theorem("boggio1d", needs_g=True, one_dim=True, zero_free=True, reads=("v", "dx")),
    )
}


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
    one for an interval.  The residual takes one coordinate per axis.
    """

    axes: tuple[tuple[float, float], ...]
    residual: Callable[..., float]
    scale: float
    decomposition: dict[str, float]
    tag: str

    def __post_init__(self):
        # every tolerance is relative to scale, and the CLI prints both as JSON
        if not all(math.isfinite(v) for v in (self.scale, *self.decomposition.values())):
            raise EvaluationError(
                f"field constants are not finite: scale {self.scale!r}, {self.decomposition!r}"
            )


Corners = tuple[float, float, float, float]  # f(x1,y1), f(x1,y2), f(x2,y1), f(x2,y2)


def _corners(f: Expression, r: Rectangle, low_first: bool = False) -> Corners:
    """f at the four corners of ``r``, each evaluated once.

    They are evaluated from (x2,y2) back to (x1,y1), the order the corner
    difference reads them, or from (x1,y1) on with ``low_first``, the order
    the Pompeiu numerator reads them.  When f fails at more than one corner,
    the order decides which error is raised.
    """
    if low_first:
        f11 = evaluate(f, r.x1, r.y1)
        f12 = evaluate(f, r.x1, r.y2)
        f21 = evaluate(f, r.x2, r.y1)
        f22 = evaluate(f, r.x2, r.y2)
    else:
        f22 = evaluate(f, r.x2, r.y2)
        f21 = evaluate(f, r.x2, r.y1)
        f12 = evaluate(f, r.x1, r.y2)
        f11 = evaluate(f, r.x1, r.y1)
    return f11, f12, f21, f22


def _difference(c: Corners) -> float:
    f11, f12, f21, f22 = c
    return f22 - f21 - f12 + f11


def corner_difference(f: Expression, r: Rectangle) -> float:
    """Rectangular mixed difference f(x2,y2) - f(x2,y1) - f(x1,y2) + f(x1,y1)."""
    return _difference(_corners(f, r))


def _mixed_partial_magnitude(program: Program, r: Rectangle, n: int = 9) -> float:
    """Max |f_xy| over an n x n cell-center sample of f's compiled ``program``,
    which must read ``dxy``, for scale estimates."""
    xs = r.x1 + (np.arange(n) + 0.5) * (r.width / n)
    ys = r.y1 + (np.arange(n) + 0.5) * (r.height / n)
    try:
        # an underflow only rounds a tiny partial toward 0, which is still finite
        with np.errstate(all="raise", under="ignore"):
            d = program(xs[np.newaxis, :], ys[:, np.newaxis])[3]
    except FloatingPointError as exc:
        raise EvaluationError(f"mixed partial not finite on the rectangle: {exc}") from exc
    return float(np.abs(np.broadcast_to(d, (n, n))).max())


def rect_rolle_residual(f: Expression, r: Rectangle) -> ResidualField:
    """Residual for the rectangular Rolle theorem: R(x, y) = f_xy(x, y).

    Requires the corner identity f(x1,y1) + f(x2,y2) = f(x1,y2) + f(x2,y1);
    under it some interior point has a vanishing mixed partial.
    """
    fp = compile_hyperdual(f, THEOREMS["rolle"].reads)
    corners = _corners(f, r, low_first=True)
    hypothesis_scale = 1.0 + max(abs(c) for c in corners)
    delta = _difference(corners)
    if abs(delta) > ROLLE_HYPOTHESIS_FACTOR * hypothesis_scale:
        raise HypothesisError(
            "corner identity fails: "
            f"f(x1,y1)+f(x2,y2)={corners[0] + corners[3]!r} but "
            f"f(x1,y2)+f(x2,y1)={corners[1] + corners[2]!r}"
        )

    def residual(x, y):
        return fp(x, y)[3]

    scale = 1.0 + _mixed_partial_magnitude(fp, r)
    return ResidualField(r.axes, residual, scale, {"delta_f": delta}, "rolle")


def rect_mvt_residual(f: Expression, r: Rectangle) -> ResidualField:
    """Residual for the rectangular mean value theorem.

    R(x, y) = [f(x2,y2) - f(x2,y1) - f(x1,y2) + f(x1,y1)] - (x2-x1)(y2-y1) f_xy(x, y)
    """
    fp = compile_hyperdual(f, THEOREMS["rmvt"].reads)
    delta = corner_difference(f, r)
    area = r.area

    def residual(x, y):
        return delta - area * fp(x, y)[3]

    return ResidualField(r.axes, residual, 1.0 + abs(delta), {"delta_f": delta}, "rmvt")


def rect_cauchy_residual(f: Expression, g: Expression, r: Rectangle) -> ResidualField:
    """Residual for the rectangular Cauchy mean value theorem, cross-multiplied.

    The quotient identity f_xy/g_xy = delta_f/delta_g is checked in the form
    R(x, y) = delta_f * g_xy(x, y) - delta_g * f_xy(x, y), which needs no
    assumption on interior zeros of g_xy and has the same zero set wherever
    the quotient form is defined.
    """
    reads = THEOREMS["cauchy"].reads
    fp, gp = compile_hyperdual(f, reads), compile_hyperdual(g, reads)
    delta_f = corner_difference(f, r)
    delta_g = corner_difference(g, r)
    scale = 1.0 + abs(delta_f) + abs(delta_g)
    if abs(delta_g) <= DEGENERACY_FACTOR * scale:
        raise DegenerateError(f"corner difference of g is degenerate: {delta_g!r}")

    def residual(x, y):
        return delta_f * gp(x, y)[3] - delta_g * fp(x, y)[3]

    return ResidualField(
        r.axes, residual, scale, {"delta_f": delta_f, "delta_g": delta_g}, "cauchy"
    )


def _pompeiu(components, xi1, xi2):
    v, dx, dy, dxy = components
    return xi1 * xi2 * dxy - xi1 * dx - xi2 * dy + v


def pompeiu_operator(f: Expression, xi1, xi2):
    """xi1*xi2*f_xy - xi1*f_x - xi2*f_y + f, all evaluated at (xi1, xi2)."""
    return _pompeiu(compile_hyperdual(f)(xi1, xi2), xi1, xi2)


def _pompeiu_numerator(c: Corners, r: Rectangle) -> float:
    f11, f12, f21, f22 = c
    return r.x2 * r.y2 * f11 - r.x2 * r.y1 * f12 - r.x1 * r.y2 * f21 + r.x1 * r.y1 * f22


def pompeiu_rhs(f: Expression, r: Rectangle) -> float:
    """Constant side of the two-dimensional Pompeiu identity on ``r``."""
    return _pompeiu_numerator(_corners(f, r, low_first=True), r) / r.area


def pompeiu2d_residual(f: Expression, r: Rectangle) -> ResidualField:
    """Residual for the two-dimensional Pompeiu mean value theorem.

    Defined only on rectangles that avoid both axes; the reciprocal transform
    underlying the identity is undefined on them.
    """
    if not r.zero_free():
        raise DomainError(
            "Pompeiu's theorem needs a zero-free rectangle "
            f"(x1*x2 > 0 and y1*y2 > 0), got {r}"
        )
    fp = compile_hyperdual(f, THEOREMS["pompeiu2d"].reads)
    rhs = pompeiu_rhs(f, r)

    def residual(x, y):
        return _pompeiu(fp(x, y), x, y) - rhs

    return ResidualField(r.axes, residual, 1.0 + abs(rhs), {"rhs": rhs}, "pompeiu2d")


def boggio2d_residual(f: Expression, g: Expression, r: Rectangle) -> ResidualField:
    """Residual for the two-dimensional Boggio (Cauchy-type Pompeiu) theorem.

    With P the Pompeiu operator and N the corresponding corner numerator,
    R = [P[g]/delta_g - P[f]/delta_f] - [N_g/(area*delta_g) - N_f/(area*delta_f)].
    """
    if not r.zero_free():
        raise DomainError(
            "Boggio's theorem needs a zero-free rectangle "
            f"(x1*x2 > 0 and y1*y2 > 0), got {r}"
        )
    reads = THEOREMS["boggio2d"].reads
    fp, gp = compile_hyperdual(f, reads), compile_hyperdual(g, reads)
    f_corners, g_corners = _corners(f, r), _corners(g, r)
    delta_f = _difference(f_corners)
    delta_g = _difference(g_corners)
    delta_scale = 1.0 + abs(delta_f) + abs(delta_g)
    if abs(delta_f) <= DEGENERACY_FACTOR * delta_scale:
        raise DegenerateError(f"corner difference of f is degenerate: {delta_f!r}")
    if abs(delta_g) <= DEGENERACY_FACTOR * delta_scale:
        raise DegenerateError(f"corner difference of g is degenerate: {delta_g!r}")
    area = r.area
    rhs_f = _pompeiu_numerator(f_corners, r) / (area * delta_f)
    rhs_g = _pompeiu_numerator(g_corners, r) / (area * delta_g)
    rhs = rhs_g - rhs_f

    def residual(x, y):
        return (_pompeiu(gp(x, y), x, y) / delta_g - _pompeiu(fp(x, y), x, y) / delta_f) - rhs

    return ResidualField(
        r.axes,
        residual,
        1.0 + abs(rhs_f) + abs(rhs_g),
        {"delta_f": delta_f, "delta_g": delta_g, "rhs_f": rhs_f, "rhs_g": rhs_g},
        "boggio2d",
    )


def _check_interval(x1: float, x2: float) -> None:
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError(f"interval bounds must be finite, got [{x1}, {x2}]")
    if not x1 < x2:
        raise ValueError(f"interval bounds must satisfy x1 < x2, got [{x1}, {x2}]")
    if not math.isfinite(x2 - x1):
        raise ValueError(f"interval [{x1}, {x2}] is too wide: its width overflows")
    if not (x1 > 0 or x2 < 0):  # x1 < x2, so this is x1*x2 > 0 without underflow
        raise DomainError(f"interval [{x1}, {x2}] must not contain 0")


def _eval_1d(f: Expression, x: float) -> float:
    return evaluate(f, x, 0.0)


def pompeiu1d_residual(f: Expression, x1: float, x2: float) -> ResidualField:
    """One-dimensional Pompeiu residual on an interval away from 0.

    R(xi) = [f(xi) - xi f'(xi)] - [x1 f(x2) - x2 f(x1)] / (x1 - x2)
    """
    _check_interval(x1, x2)
    if "y" in variables(f):
        raise ValueError("one-dimensional theorems take expressions in x only")
    fp = compile_hyperdual(f, THEOREMS["pompeiu1d"].reads)
    rhs = (x1 * _eval_1d(f, x2) - x2 * _eval_1d(f, x1)) / (x1 - x2)

    def residual(xi):
        v, dx, _, _ = fp(xi, 0.0)
        return (v - xi * dx) - rhs

    return ResidualField(((x1, x2),), residual, 1.0 + abs(rhs), {"rhs": rhs}, "pompeiu1d")


def boggio1d_residual(f: Expression, g: Expression, x1: float, x2: float) -> ResidualField:
    """One-dimensional Boggio residual, with the denominator oriented so that
    g(x) = x reduces it exactly to the Pompeiu residual.

    R(xi) = [f(xi) - (g(xi)/g'(xi)) f'(xi)]
            - [g(x1) f(x2) - g(x2) f(x1)] / (g(x1) - g(x2))
    """
    _check_interval(x1, x2)
    for name, e in (("f", f), ("g", g)):
        if "y" in variables(e):
            raise ValueError(f"one-dimensional theorems take expressions in x only ({name})")
    reads = THEOREMS["boggio1d"].reads
    fp, gp = compile_hyperdual(f, reads), compile_hyperdual(g, reads)
    g1, g2 = _eval_1d(g, x1), _eval_1d(g, x2)
    if abs(g1 - g2) <= DEGENERACY_FACTOR * (1.0 + abs(g1) + abs(g2)):
        raise DegenerateError(f"g takes equal values at the endpoints: {g1!r}, {g2!r}")
    rhs = (g1 * _eval_1d(f, x2) - g2 * _eval_1d(f, x1)) / (g1 - g2)

    def residual(xi):
        fv, fdx, _, _ = fp(xi, 0.0)
        gv, gdx, _, _ = gp(xi, 0.0)
        # a divisor, and g' != 0 is a hypothesis of Boggio's theorem
        check_divisor(
            gdx,
            "g' vanishes at an evaluation point",
            "g' changes sign between samples, so it vanishes between them",
        )
        return (fv - (gv / gdx) * fdx) - rhs

    return ResidualField(((x1, x2),), residual, 1.0 + abs(rhs), {"rhs": rhs}, "boggio1d")


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
