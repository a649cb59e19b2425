"""Residual fields for the rectangle mean value theorems.

Each theorem asserts that some identity holds at a point of the open
rectangle.  We rewrite every identity as a continuous residual
``R(x, y) = LHS(x, y) - RHS`` whose zeros are exactly the mean-value points,
so locating a point reduces to finding a zero of a scalar field.  Every field
carries a ``scale`` (1 + |constant side of the identity|) that all tolerance
checks are measured against, which keeps thresholds meaningful for both tiny
and huge functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import BinOp, Const, EvaluationError, Expression, Var, const, evaluate, substitute, variables
from .hyperdual import eval_hyperdual

__all__ = [
    "DegenerateError",
    "DomainError",
    "HypothesisError",
    "LineResidualField",
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
    builders check their own domains.
    """

    tag: str
    needs_g: bool = False
    one_dim: bool = False
    zero_free: bool = False

    def check_g(self, g: Optional[Expression]) -> None:
        if self.needs_g and g is None:
            raise ValueError(f"theorem {self.tag!r} requires a second function g")
        if not self.needs_g and g is not None:
            raise ValueError(f"theorem {self.tag!r} does not take a second function")


THEOREMS = {
    t.tag: t
    for t in (
        Theorem("rolle"),
        Theorem("rmvt"),
        Theorem("cauchy", needs_g=True),
        Theorem("pompeiu2d", zero_free=True),
        Theorem("boggio2d", needs_g=True, zero_free=True),
        Theorem("pompeiu1d", one_dim=True, zero_free=True),
        Theorem("boggio1d", needs_g=True, one_dim=True, zero_free=True),
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
        return self.x1 * self.x2 > 0 and self.y1 * self.y2 > 0

    def contains_open(self, x: float, y: float) -> bool:
        return self.x1 < x < self.x2 and self.y1 < y < self.y2


@dataclass(eq=False, frozen=True)
class ResidualField:
    """A theorem instance: a continuous scalar field whose zeros are mean-value points."""

    rectangle: Rectangle
    residual: Callable[[float, float], float]
    scale: float
    decomposition: dict[str, float]
    tag: str

    @property
    def axes(self) -> tuple[tuple[float, float], ...]:
        """Per-axis ``(lo, hi)`` bounds, x first; the residual takes one coordinate per axis."""
        r = self.rectangle
        return ((r.x1, r.x2), (r.y1, r.y2))


@dataclass(eq=False, frozen=True)
class LineResidualField:
    """One-dimensional counterpart of :class:`ResidualField` on an interval."""

    x1: float
    x2: float
    residual: Callable[[float], float]
    scale: float
    decomposition: dict[str, float]
    tag: str

    @property
    def axes(self) -> tuple[tuple[float, float], ...]:
        return ((self.x1, self.x2),)


def corner_difference(f: Expression, r: Rectangle) -> float:
    """Rectangular mixed difference f(x2,y2) - f(x2,y1) - f(x1,y2) + f(x1,y1)."""
    return (
        evaluate(f, r.x2, r.y2)
        - evaluate(f, r.x2, r.y1)
        - evaluate(f, r.x1, r.y2)
        + evaluate(f, r.x1, r.y1)
    )


def _mixed_partial_magnitude(f: Expression, r: Rectangle, n: int = 9) -> float:
    """Max |f_xy| over an n x n cell-center sample, for scale estimates."""
    xs = r.x1 + (np.arange(n) + 0.5) * (r.width / n)
    ys = r.y1 + (np.arange(n) + 0.5) * (r.height / n)
    try:
        with np.errstate(all="raise"):
            d = eval_hyperdual(f, xs[np.newaxis, :], ys[:, np.newaxis]).dxy
    except FloatingPointError as exc:
        raise EvaluationError(f"mixed partial not finite on the rectangle: {exc}") from exc
    return float(np.abs(np.broadcast_to(d, (n, n))).max())


def rect_rolle_residual(f: Expression, r: Rectangle) -> ResidualField:
    """Residual for the rectangular Rolle theorem: R(x, y) = f_xy(x, y).

    Requires the corner identity f(x1,y1) + f(x2,y2) = f(x1,y2) + f(x2,y1);
    under it some interior point has a vanishing mixed partial.
    """
    corners = [
        evaluate(f, r.x1, r.y1),
        evaluate(f, r.x1, r.y2),
        evaluate(f, r.x2, r.y1),
        evaluate(f, r.x2, r.y2),
    ]
    hypothesis_scale = 1.0 + max(abs(c) for c in corners)
    delta = corner_difference(f, r)
    if abs(delta) > ROLLE_HYPOTHESIS_FACTOR * hypothesis_scale:
        raise HypothesisError(
            "corner identity fails: "
            f"f(x1,y1)+f(x2,y2)={corners[0] + corners[3]!r} but "
            f"f(x1,y2)+f(x2,y1)={corners[1] + corners[2]!r}"
        )

    def residual(x, y):
        return eval_hyperdual(f, x, y).dxy

    scale = 1.0 + _mixed_partial_magnitude(f, r)
    return ResidualField(r, residual, scale, {"delta_f": delta}, "rolle")


def rect_mvt_residual(f: Expression, r: Rectangle) -> ResidualField:
    """Residual for the rectangular mean value theorem.

    R(x, y) = [f(x2,y2) - f(x2,y1) - f(x1,y2) + f(x1,y1)] - (x2-x1)(y2-y1) f_xy(x, y)
    """
    delta = corner_difference(f, r)
    area = r.area

    def residual(x, y):
        return delta - area * eval_hyperdual(f, x, y).dxy

    return ResidualField(r, residual, 1.0 + abs(delta), {"delta_f": delta}, "rmvt")


def rect_cauchy_residual(f: Expression, g: Expression, r: Rectangle) -> ResidualField:
    """Residual for the rectangular Cauchy mean value theorem, cross-multiplied.

    The quotient identity f_xy/g_xy = delta_f/delta_g is checked in the form
    R(x, y) = delta_f * g_xy(x, y) - delta_g * f_xy(x, y), which needs no
    assumption on interior zeros of g_xy and has the same zero set wherever
    the quotient form is defined.
    """
    delta_f = corner_difference(f, r)
    delta_g = corner_difference(g, r)
    scale = 1.0 + abs(delta_f) + abs(delta_g)
    if abs(delta_g) <= DEGENERACY_FACTOR * scale:
        raise DegenerateError(f"corner difference of g is degenerate: {delta_g!r}")

    def residual(x, y):
        return delta_f * eval_hyperdual(g, x, y).dxy - delta_g * eval_hyperdual(f, x, y).dxy

    return ResidualField(
        r, residual, scale, {"delta_f": delta_f, "delta_g": delta_g}, "cauchy"
    )


def pompeiu_operator(f: Expression, xi1, xi2):
    """xi1*xi2*f_xy - xi1*f_x - xi2*f_y + f, all evaluated at (xi1, xi2)."""
    h = eval_hyperdual(f, xi1, xi2)
    return xi1 * xi2 * h.dxy - xi1 * h.dx - xi2 * h.dy + h.v


def _pompeiu_numerator(f: Expression, r: Rectangle) -> float:
    return (
        r.x2 * r.y2 * evaluate(f, r.x1, r.y1)
        - r.x2 * r.y1 * evaluate(f, r.x1, r.y2)
        - r.x1 * r.y2 * evaluate(f, r.x2, r.y1)
        + r.x1 * r.y1 * evaluate(f, r.x2, r.y2)
    )


def pompeiu_rhs(f: Expression, r: Rectangle) -> float:
    """Constant side of the two-dimensional Pompeiu identity on ``r``."""
    return _pompeiu_numerator(f, r) / r.area


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
    rhs = pompeiu_rhs(f, r)

    def residual(x, y):
        return pompeiu_operator(f, x, y) - rhs

    return ResidualField(r, residual, 1.0 + abs(rhs), {"rhs": rhs}, "pompeiu2d")


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
    delta_f = corner_difference(f, r)
    delta_g = corner_difference(g, r)
    delta_scale = 1.0 + abs(delta_f) + abs(delta_g)
    if abs(delta_f) <= DEGENERACY_FACTOR * delta_scale:
        raise DegenerateError(f"corner difference of f is degenerate: {delta_f!r}")
    if abs(delta_g) <= DEGENERACY_FACTOR * delta_scale:
        raise DegenerateError(f"corner difference of g is degenerate: {delta_g!r}")
    area = r.area
    rhs_f = _pompeiu_numerator(f, r) / (area * delta_f)
    rhs_g = _pompeiu_numerator(g, r) / (area * delta_g)
    rhs = rhs_g - rhs_f

    def residual(x, y):
        return (
            pompeiu_operator(g, x, y) / delta_g - pompeiu_operator(f, x, y) / delta_f
        ) - rhs

    return ResidualField(
        r,
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
    if x1 * x2 <= 0:
        raise DomainError(f"interval [{x1}, {x2}] must not contain 0")


def _eval_1d(f: Expression, x: float) -> float:
    return evaluate(f, x, 0.0)


def pompeiu1d_residual(f: Expression, x1: float, x2: float) -> LineResidualField:
    """One-dimensional Pompeiu residual on an interval away from 0.

    R(xi) = [f(xi) - xi f'(xi)] - [x1 f(x2) - x2 f(x1)] / (x1 - x2)
    """
    _check_interval(x1, x2)
    if "y" in variables(f):
        raise ValueError("one-dimensional theorems take expressions in x only")
    rhs = (x1 * _eval_1d(f, x2) - x2 * _eval_1d(f, x1)) / (x1 - x2)

    def residual(xi):
        h = eval_hyperdual(f, xi, 0.0)
        return (h.v - xi * h.dx) - rhs

    return LineResidualField(x1, x2, residual, 1.0 + abs(rhs), {"rhs": rhs}, "pompeiu1d")


def boggio1d_residual(f: Expression, g: Expression, x1: float, x2: float) -> LineResidualField:
    """One-dimensional Boggio residual, with the denominator oriented so that
    g(x) = x reduces it exactly to the Pompeiu residual.

    R(xi) = [f(xi) - (g(xi)/g'(xi)) f'(xi)]
            - [g(x1) f(x2) - g(x2) f(x1)] / (g(x1) - g(x2))
    """
    _check_interval(x1, x2)
    for name, e in (("f", f), ("g", g)):
        if "y" in variables(e):
            raise ValueError(f"one-dimensional theorems take expressions in x only ({name})")
    g1, g2 = _eval_1d(g, x1), _eval_1d(g, x2)
    if abs(g1 - g2) <= DEGENERACY_FACTOR * (1.0 + abs(g1) + abs(g2)):
        raise DegenerateError(f"g takes equal values at the endpoints: {g1!r}, {g2!r}")
    rhs = (g1 * _eval_1d(f, x2) - g2 * _eval_1d(f, x1)) / (g1 - g2)

    def residual(xi):
        fd = eval_hyperdual(f, xi, 0.0)
        gd = eval_hyperdual(g, xi, 0.0)
        slope_zero = gd.dx == 0
        if isinstance(slope_zero, np.ndarray):
            slope_zero = slope_zero.any()
        if slope_zero:
            raise EvaluationError("g' vanishes at an evaluation point")
        return (fd.v - (gd.v / gd.dx) * fd.dx) - rhs

    return LineResidualField(x1, x2, residual, 1.0 + abs(rhs), {"rhs": rhs}, "boggio1d")


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
