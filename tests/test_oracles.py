"""Oracles that share no code with the locator or the derivative engine.

Metamorphic relations compare two runs of ``locate`` on related inputs, and
sympy (a test-only dependency) checks the compiled hyper-dual programs'
mixed partials and the theorems' identities at located points.
"""

import operator
import random

import pytest

from rectmvt.expr import BinOp, Call, Const, Neg, Var, const, substitute
from rectmvt.harness import derive_seed, family_from_name, generate_function, generate_rectangle
from rectmvt.hyperdual import compile_hyperdual
from rectmvt.locator import LocateConfig, locate, verify_at
from rectmvt.theorems import (
    DegenerateError,
    Rectangle,
    boggio1d_residual,
    boggio2d_residual,
    pompeiu1d_residual,
    pompeiu2d_residual,
    rect_cauchy_residual,
    rect_mvt_residual,
)

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


def _pair_cases(count: int, family: str, zero_free: bool):
    """Seeded (f, g) pairs on rectangles, as a sweep of a theorem with g draws them."""
    fam = family_from_name(family)
    for i in range(count):
        seed = derive_seed(1414, i)
        rect = generate_rectangle(derive_seed(seed, 0), zero_free=zero_free)
        f = generate_function(fam, derive_seed(seed, 1), rect)
        yield f, generate_function(fam, derive_seed(seed, 2), rect), rect


def _twice(g):
    return BinOp("*", Const(2.0), g)


@pytest.mark.parametrize("family", ["poly4", "separable", "exp-poly"])
def test_scaling_g_by_two_keeps_cauchy_points(family):
    # 2*g doubles delta_g and g_xy exactly, so the Cauchy residual is exactly
    # twice g's; its scale, 1 + |delta_f| + 2|delta_g|, is less than twice g's,
    # so a point within tolerance of it is within tolerance of g's field
    found = 0
    for f, g, rect in _pair_cases(40, family, zero_free=False):
        try:
            field = rect_cauchy_residual(f, g, rect)
            report = locate(rect_cauchy_residual(f, _twice(g), rect))
        except DegenerateError:
            continue
        if report.outcome != "found":
            continue
        found += 1
        p = report.point
        assert abs(verify_at(field, p.xi1, p.xi2)) <= TAU * field.scale
    assert found >= 30


@pytest.mark.parametrize("family", ["poly4", "separable", "exp-poly", "rational"])
def test_scaling_g_by_two_leaves_boggio2d_reports_unchanged(family):
    # 2*g doubles P[g], delta_g and g's corner numerator exactly, and the
    # residual divides each by delta_g: the residual and its scale are g's,
    # bit for bit, and so is the whole report
    compared = 0
    for f, g, rect in _pair_cases(40, family, zero_free=True):
        try:
            field = boggio2d_residual(f, g, rect)
            twice = boggio2d_residual(f, _twice(g), rect)
        except DegenerateError:
            continue
        assert twice.scale == field.scale
        assert twice.decomposition == {**field.decomposition, "delta_g": 2.0 * field.decomposition["delta_g"]}
        assert locate(twice) == locate(field), (f, g, rect)
        compared += 1
    assert compared >= 30


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


def _cauchy_identity(sp, F, G, x, y, r):
    """The rectangular Cauchy MVT, cross-multiplied: with delta_h the corner
    difference h(x2,y2) - h(x2,y1) - h(x1,y2) + h(x1,y1),
    delta_f * g_xy(xi) = delta_g * f_xy(xi)."""
    x1, x2, y1, y2 = map(sp.Rational, (r.x1, r.x2, r.y1, r.y2))
    at = lambda H, a, b: H.subs({x: a, y: b})
    delta_f, delta_g = (at(H, x2, y2) - at(H, x2, y1) - at(H, x1, y2) + at(H, x1, y1) for H in (F, G))
    return delta_f * sp.diff(G, x, y) - delta_g * sp.diff(F, x, y), 1 + abs(delta_f) + abs(delta_g)


def _boggio2d_identity(sp, F, G, x, y, r):
    """Boggio's theorem on a rectangle avoiding the axes, Pompeiu's divided by
    the corner differences: with a, b, c, d the bounds, delta_h the corner
    difference, N_h = [b*d*h(a,c) - b*c*h(a,d) - a*d*h(b,c) + a*c*h(b,d)] /
    ((b-a)*(d-c)) the corner numerator and P[h] = h - xi1*h_x - xi2*h_y +
    xi1*xi2*h_xy the operator at xi, P[g]/delta_g - P[f]/delta_f =
    N_g/delta_g - N_f/delta_f."""
    a, b, c, d = map(sp.Rational, (r.x1, r.x2, r.y1, r.y2))

    def sides(H):
        at = lambda u, v: H.subs({x: u, y: v})
        delta = at(b, d) - at(b, c) - at(a, d) + at(a, c)
        numerator = (b * d * at(a, c) - b * c * at(a, d) - a * d * at(b, c) + a * c * at(b, d)) / (
            (b - a) * (d - c)
        )
        operator_ = H - x * sp.diff(H, x) - y * sp.diff(H, y) + x * y * sp.diff(H, x, y)
        return operator_ / delta, numerator / delta

    (pf, nf), (pg, ng) = sides(F), sides(G)
    return (pg - pf) - (ng - nf), 1 + abs(nf) + abs(ng)


@pytest.mark.parametrize("family", ["poly4", "separable", "rational"])
@pytest.mark.parametrize(
    "identity, build, zero_free",
    [(_cauchy_identity, rect_cauchy_residual, False), (_boggio2d_identity, boggio2d_residual, True)],
    ids=["cauchy", "boggio2d"],
)
def test_located_points_satisfy_the_identity_of_a_pair_in_exact_arithmetic(
    family, identity, build, zero_free
):
    # as above, for the theorems of two functions f and g (the largest miss
    # over these draws is 0.96 tau)
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    fam = family_from_name(family)
    checked = 0
    for i in range(15):
        seed = derive_seed(579, i)
        rect = generate_rectangle(derive_seed(seed, 0), zero_free=zero_free)
        f = generate_function(fam, derive_seed(seed, 1), rect)
        g = generate_function(fam, derive_seed(seed, 2), rect)
        try:
            report = locate(build(f, g, rect))
        except DegenerateError:
            continue
        if report.outcome == "failed":
            continue
        F, G = _to_sympy(sp, f, x, y), _to_sympy(sp, g, x, y)
        residual, scale = identity(sp, F, G, x, y, rect)
        p = report.point
        at_point = residual.evalf(30, subs={x: sp.Rational(p.xi1), y: sp.Rational(p.xi2)})
        assert abs(at_point) <= 2 * TAU * scale.evalf(30), (f, g, rect, p)
        checked += 1
    assert checked >= 12


def _pompeiu1d_identity(sp, F, G, x, x1, x2):
    """Pompeiu's theorem on an interval avoiding 0:
    f(xi) - xi*f'(xi) = [x1*f(x2) - x2*f(x1)] / (x1 - x2)."""
    rhs = (x1 * F.subs(x, x2) - x2 * F.subs(x, x1)) / (x1 - x2)
    return F - x * sp.diff(F, x) - rhs, 1 + abs(rhs)


def _boggio1d_identity(sp, F, G, x, x1, x2):
    """Boggio's theorem on an interval, for g' != 0 on it:
    f(xi) - [g(xi)/g'(xi)]*f'(xi) = [g(x1)*f(x2) - g(x2)*f(x1)] / (g(x1) - g(x2))."""
    g1, g2 = G.subs(x, x1), G.subs(x, x2)
    rhs = (g1 * F.subs(x, x2) - g2 * F.subs(x, x1)) / (g1 - g2)
    return F - G / sp.diff(G, x) * sp.diff(F, x) - rhs, 1 + abs(rhs)


@pytest.mark.parametrize("family", ["poly4", "separable"])
@pytest.mark.parametrize(
    "identity, build",
    [
        (_pompeiu1d_identity, lambda f, g, x1, x2: pompeiu1d_residual(f, x1, x2)),
        (_boggio1d_identity, boggio1d_residual),
    ],
    ids=["pompeiu1d", "boggio1d"],
)
def test_located_points_satisfy_the_identity_on_an_interval_in_exact_arithmetic(
    family, identity, build
):
    # as above, for the one-dimensional theorems: f and g are generated draws
    # on a rectangle avoiding the axes, read on its line y = y1, and the
    # interval is its [x1, x2]; g' vanishes inside it in a few draws, which
    # violates Boggio's hypothesis, so more are drawn (the largest miss over
    # these draws is 0.83 tau)
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    fam = family_from_name(family)
    checked = 0
    for i in range(30):
        seed = derive_seed(580, i)
        rect = generate_rectangle(derive_seed(seed, 0), zero_free=True)
        on_line = {"y": const(rect.y1)}
        f = substitute(generate_function(fam, derive_seed(seed, 1), rect), on_line)
        g = substitute(generate_function(fam, derive_seed(seed, 2), rect), on_line)
        try:
            report = locate(build(f, g, rect.x1, rect.x2))
        except DegenerateError:
            continue
        if report.outcome == "failed":
            continue
        F, G = _to_sympy(sp, f, x, y), _to_sympy(sp, g, x, y)
        x1, x2 = sp.Rational(rect.x1), sp.Rational(rect.x2)
        residual, scale = identity(sp, F, G, x, x1, x2)
        at_point = residual.evalf(30, subs={x: sp.Rational(report.point.xi1)})
        assert abs(at_point) <= 2 * TAU * scale.evalf(30), (f, g, rect, report.point)
        checked += 1
    assert checked >= 20
