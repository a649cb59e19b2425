"""Oracles that share no code with the locator or the derivative engine.

Metamorphic relations compare two runs of ``locate`` on related inputs, and
sympy (a test-only dependency) checks the compiled hyper-dual programs'
mixed partials and the theorems' identities at located points.
"""

import operator
import random

import pytest

from rectmvt.expr import BinOp, Call, Const, Neg, Var, substitute
from rectmvt.harness import derive_seed, family_from_name, generate_function, generate_rectangle
from rectmvt.hyperdual import compile_hyperdual
from rectmvt.locator import LocateConfig, locate, verify_at
from rectmvt.theorems import Rectangle, pompeiu2d_residual, rect_mvt_residual

TAU = LocateConfig().tol_factor


def _rmvt_cases(count: int):
    """Seeded poly4 functions on rectangles, as the rmvt sweep draws them."""
    family = family_from_name("poly4")
    for i in range(count):
        seed = derive_seed(2718, i)
        rect = generate_rectangle(derive_seed(seed, 0))
        yield generate_function(family, derive_seed(seed, 1), rect), rect


# -- metamorphic relations of the locator ---------------------------------------


def test_scaling_f_by_two_keeps_rmvt_points():
    # 2*f doubles every corner value and every derivative component exactly,
    # so its residual is exactly twice f's; its points are f's points
    found = 0
    for f, rect in _rmvt_cases(100):
        field = rect_mvt_residual(f, rect)
        report = locate(rect_mvt_residual(BinOp("*", Const(2.0), f), rect))
        if report.outcome != "found":
            continue
        found += 1
        p = report.point
        assert abs(verify_at(field, p.xi1, p.xi2)) <= TAU * field.scale
    assert found >= 90


def test_swapping_x_and_y_transposes_rmvt_points():
    # the swapped corner difference and mixed partial sum the same terms in
    # another order, so the transposed point may miss by rounding: allow 2*tau
    swap = {"x": Var("y"), "y": Var("x")}
    found = 0
    for f, rect in _rmvt_cases(100):
        field = rect_mvt_residual(f, rect)
        mirrored = Rectangle(rect.y1, rect.y2, rect.x1, rect.x2)
        report = locate(rect_mvt_residual(substitute(f, swap), mirrored))
        if report.outcome != "found":
            continue
        found += 1
        p = report.point
        assert abs(verify_at(field, p.xi2, p.xi1)) <= 2 * TAU * field.scale
    assert found >= 90


# -- symbolic mixed partials -------------------------------------------------------


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


def _to_sympy(sp, expr, x, y):
    """The expression as a sympy tree; constants become exact rationals."""
    match expr:
        case Const(value):
            return sp.Rational(value)
        case Var(name):
            return x if name == "x" else y
        case Neg(child):
            return -_to_sympy(sp, child, x, y)
        case BinOp(op, left, right):
            return _OPS[op](_to_sympy(sp, left, x, y), _to_sympy(sp, right, x, y))
        case Call(fn, arg):
            return getattr(sp, fn)(_to_sympy(sp, arg, x, y))
    raise TypeError(f"not an expression node: {expr!r}")


# |f_xy - sympy's f_xy| <= REL_BOUND * max(1, |sympy's f_xy|) at each point,
# sympy's evaluated to 30 digits; the largest ratio over these draws is 8.8e-16
REL_BOUND = 1e-12


@pytest.mark.parametrize("family", ["poly4", "separable", "exp-poly", "rational"])
def test_compiled_mixed_partial_matches_sympy(family):
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    rng = random.Random(314)
    for i in range(12):
        rect = generate_rectangle(derive_seed(1618, i))
        f = generate_function(family_from_name(family), derive_seed(1619, i), rect)
        fxy = sp.diff(_to_sympy(sp, f, x, y), x, y)
        program = compile_hyperdual(f)
        for _ in range(3):
            px = rng.uniform(rect.x1 + 0.05 * rect.width, rect.x2 - 0.05 * rect.width)
            py = rng.uniform(rect.y1 + 0.05 * rect.height, rect.y2 - 0.05 * rect.height)
            want = float(fxy.evalf(30, subs={x: sp.Rational(px), y: sp.Rational(py)}))
            got = program(px, py)[3]
            assert abs(got - want) <= REL_BOUND * max(1.0, abs(want)), (f, px, py)


# -- the theorems' identities at located points, in exact arithmetic -------------


def _rmvt_identity(sp, F, x, y, r):
    """The rectangular MVT, f(x2,y2) - f(x2,y1) - f(x1,y2) + f(x1,y1) =
    area * f_xy(xi): returns (the residual as a function of xi, its scale)."""
    x1, x2, y1, y2 = map(sp.Rational, (r.x1, r.x2, r.y1, r.y2))
    at = lambda a, b: F.subs({x: a, y: b})
    delta = at(x2, y2) - at(x2, y1) - at(x1, y2) + at(x1, y1)
    return delta - (x2 - x1) * (y2 - y1) * sp.diff(F, x, y), 1 + abs(delta)


def _pompeiu2d_identity(sp, F, x, y, r):
    """Pompeiu's theorem on a rectangle avoiding the axes, the rectangular MVT
    of t*s*f(1/t, 1/s) on the reciprocal rectangle: with a, b, c, d the bounds,
    [b*d*f(a,c) - b*c*f(a,d) - a*d*f(b,c) + a*c*f(b,d)] / ((b-a)*(d-c)) =
    f - xi1*f_x - xi2*f_y + xi1*xi2*f_xy at xi."""
    a, b, c, d = map(sp.Rational, (r.x1, r.x2, r.y1, r.y2))
    at = lambda u, v: F.subs({x: u, y: v})
    rhs = (b * d * at(a, c) - b * c * at(a, d) - a * d * at(b, c) + a * c * at(b, d)) / (
        (b - a) * (d - c)
    )
    operator_ = F - x * sp.diff(F, x) - y * sp.diff(F, y) + x * y * sp.diff(F, x, y)
    return operator_ - rhs, 1 + abs(rhs)


@pytest.mark.parametrize("family", ["poly4", "separable"])
@pytest.mark.parametrize(
    "identity, build, zero_free",
    [(_rmvt_identity, rect_mvt_residual, False), (_pompeiu2d_identity, pompeiu2d_residual, True)],
    ids=["rmvt", "pompeiu2d"],
)
def test_located_points_satisfy_the_identity_in_exact_arithmetic(
    family, identity, build, zero_free
):
    # the located point, read as an exact rational, satisfies the theorem's
    # identity evaluated by sympy to 30 digits within 2*tau*scale: tau for the
    # locator's own tolerance and tau for the rounding in the field's constants
    # (the largest miss over these draws is 0.35 tau)
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    checked = 0
    for i in range(15):
        rect = generate_rectangle(derive_seed(577, i), zero_free=zero_free)
        f = generate_function(family_from_name(family), derive_seed(578, i), rect)
        report = locate(build(f, rect))
        if report.outcome == "failed":
            continue
        residual, scale = identity(sp, _to_sympy(sp, f, x, y), x, y, rect)
        p = report.point
        at_point = residual.evalf(30, subs={x: sp.Rational(p.xi1), y: sp.Rational(p.xi2)})
        assert abs(at_point) <= 2 * TAU * scale.evalf(30), (f, rect, p)
        checked += 1
    assert checked >= 12
