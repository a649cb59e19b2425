import argparse
import math
import random

import numpy as np
import pytest

from rectmvt import cli, theorems
from rectmvt.expr import BinOp, Const, Var, EvaluationError, OutOfDomainError, evaluate, parse
from rectmvt.hyperdual import Derivatives
from rectmvt.harness import (
    FunctionFamily,
    build_field,
    derive_seed,
    family_from_name,
    generate_function,
    generate_rectangle,
)
from rectmvt.theorems import (
    THEOREMS,
    DegenerateError,
    DomainError,
    HypothesisError,
    Rectangle,
    ResidualField,
    boggio1d_residual,
    boggio2d_residual,
    build_cauchy_auxiliary,
    build_reciprocal_transform,
    corner_difference,
    fts_expansion_check,
    pompeiu1d_residual,
    pompeiu2d_residual,
    pompeiu_operator,
    pompeiu_rhs,
    reciprocal_rectangle,
    rect_cauchy_residual,
    rect_mvt_residual,
    rect_rolle_residual,
)

SQ6 = math.sqrt(6.0)


def _interior_points(axes, n: int, seed: int):
    """``n`` seeded points of the box with per-axis bounds ``axes``, 5% in from its edges."""
    rng = random.Random(seed)
    for _ in range(n):
        yield tuple(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)) for lo, hi in axes)


# -- Rectangle -----------------------------------------------------------------


def test_rectangle_ordering_enforced():
    with pytest.raises(ValueError):
        Rectangle(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0, 2.0, 1.0)


def test_rectangle_zero_free():
    assert Rectangle(1, 2, 1, 3).zero_free()
    assert Rectangle(-2, -1, 1, 2).zero_free()
    assert not Rectangle(-1, 2, 1, 3).zero_free()
    assert not Rectangle(1, 2, -1, 3).zero_free()
    assert not Rectangle(0, 1, 1, 2).zero_free()
    assert not Rectangle(1, 2, -1, 0).zero_free()
    # bounds whose products underflow to 0
    assert Rectangle(1e-200, 2e-200, 1, 2).zero_free()
    assert Rectangle(1, 2, -2e-200, -1e-200).zero_free()


def test_rectangle_bounds_must_be_finite():
    with pytest.raises(ValueError):
        Rectangle(1.0, math.inf, 1.0, 2.0)
    with pytest.raises(ValueError):
        Rectangle(1.0, 2.0, math.nan, 2.0)
    with pytest.raises(ValueError):
        Rectangle(-math.inf, 2.0, 1.0, 2.0)
    # finite bounds whose difference overflows
    with pytest.raises(ValueError, match="too wide"):
        Rectangle(-1e308, 1e308, 1.0, 2.0)
    with pytest.raises(ValueError, match="too wide"):
        Rectangle(1.0, 2.0, -1.7e308, 1.7e308)
    assert Rectangle(-8e307, 8e307, 1.0, 2.0).width == 1.6e308


def test_rectangle_axes():
    assert Rectangle(1, 2, -3, 4).axes == ((1, 2), (-3, 4))


def test_residual_field_rejects_non_finite_constants():
    def residual(x):
        return x

    ResidualField(((1.0, 2.0),), residual, 2.0, {"rhs": 1.0}, "test")
    for scale, decomposition in ((math.nan, {}), (math.inf, {}), (2.0, {"rhs": -math.inf})):
        with pytest.raises(EvaluationError, match="not finite"):
            ResidualField(((1.0, 2.0),), residual, scale, decomposition, "test")
    # the builders' constants overflow: rhs is inf - inf on the interval, and
    # the corner difference of the cosine is -inf
    with pytest.raises(EvaluationError, match="not finite"):
        pompeiu1d_residual(parse("1e308*x"), 1.5, 1.7)
    with pytest.raises(EvaluationError, match="not finite"):
        rect_mvt_residual(parse("1.7e308*cos(3.141592653589793*x*y)"), Rectangle(1, 2, 1, 2))


def test_theorem_case_validation():
    f = parse("x*y")
    rect = (1, 2, 1, 3)
    build_field("rmvt", f, None, rect)
    build_field("cauchy", f, parse("x^2*y^2"), rect)
    THEOREMS["rmvt"].check_g(None)
    THEOREMS["cauchy"].check_g(parse("x+y"))
    with pytest.raises(ValueError):
        THEOREMS["cauchy"].check_g(None)
    with pytest.raises(ValueError):
        build_field("cauchy", f, None, rect)
    with pytest.raises(ValueError):
        THEOREMS["rmvt"].check_g(parse("x"))
    with pytest.raises(ValueError):
        build_field("rmvt", f, parse("x"), rect)
    with pytest.raises(ValueError):
        build_field("nonsense", f, None, rect)
    with pytest.raises(ValueError):
        build_field("rmvt", f, None, (1, 2))
    with pytest.raises(ValueError):
        build_field("pompeiu1d", parse("x^2"), None, rect)


# -- the theorem table -----------------------------------------------------------

# inputs on which each theorem's field builds: (f, g, bounds)
_EXAMPLES = {
    "rolle": ("x^2 + y^2", None, (1, 2, 1, 3)),
    "rmvt": ("x^2*y", None, (1, 2, 1, 3)),
    "cauchy": ("x^2*y^2", "x*y", (1, 2, 1, 3)),
    "pompeiu2d": ("x^2*y^2", None, (1, 2, 1, 3)),
    "boggio2d": ("x^2*y^2", "x*y", (1, 2, 1, 3)),
    "pompeiu1d": ("x^3 - x", None, (1, 2)),
    "boggio1d": ("x^3", "x + x^3", (1, 2)),
}


def _raises(exc, fn, *args) -> bool:
    try:
        fn(*args)
    except exc:
        return True
    return False


def test_theorem_table_matches_cli_choices():
    parser = cli._build_argparser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {
        name: action.choices
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.dest == "theorem"
    }
    assert set(choices) == {"locate", "verify", "sweep"}
    for name, tags in choices.items():
        assert tuple(tags) == tuple(THEOREMS), name
    assert tuple(_EXAMPLES) == tuple(THEOREMS)


@pytest.mark.parametrize("tag", tuple(THEOREMS))
def test_theorem_table_matches_builders(tag):
    theorem = THEOREMS[tag]
    assert theorem.tag == tag
    f, g, bounds = _EXAMPLES[tag]
    f, g = parse(f), None if g is None else parse(g)
    field = build_field(tag, f, g, bounds)
    assert field.tag == tag
    assert len(field.axes) == (1 if theorem.one_dim else 2)
    assert _raises(ValueError, build_field, tag, f, None, bounds) == theorem.needs_g
    straddling = (-1, 2) if theorem.one_dim else (-1, 2, -1, 3)
    assert _raises(DomainError, build_field, tag, f, g, straddling) == theorem.zero_free


# -- corner difference ----------------------------------------------------------


def test_corner_difference_bilinear():
    assert corner_difference(parse("x*y"), Rectangle(1, 2, 1, 2)) == 1.0


def test_corner_difference_constant_cancels():
    assert corner_difference(parse("7"), Rectangle(0, 1, 2, 5)) == 0.0


def test_corner_difference_quartic():
    assert corner_difference(parse("x^2*y^2"), Rectangle(1, 2, 1, 3)) == 24.0


# -- rectangular Rolle ----------------------------------------------------------


def test_rolle_rejects_violated_corner_identity():
    with pytest.raises(HypothesisError):
        rect_rolle_residual(parse("x*y - x - y"), Rectangle(0, 1, 0, 1))


def test_rolle_sine_product():
    field = rect_rolle_residual(parse("sin(x)*sin(y)"), Rectangle(0.0, math.pi, 0.0, math.pi))
    # R(x, y) = cos(x)cos(y); vanishes on the line x = pi/2
    assert field.residual(math.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert field.residual(1.0, 1.0) == pytest.approx(math.cos(1.0) ** 2, rel=1e-12)


def test_rolle_constant_function_identically_zero():
    field = rect_rolle_residual(parse("3"), Rectangle(0, 1, 0, 1))
    for x, y in _interior_points(field.axes, 10, 5):
        assert field.residual(x, y) == 0.0


# -- rectangular MVT ------------------------------------------------------------


def test_rmvt_residual_closed_form():
    field = rect_mvt_residual(parse("x^2*y"), Rectangle(0, 1, 0, 1))
    assert field.decomposition["delta_f"] == 1.0
    for x, y in _interior_points(field.axes, 20, 31):
        assert field.residual(x, y) == pytest.approx(1.0 - 2.0 * x, rel=1e-12, abs=1e-12)


def test_rmvt_bilinear_residual_vanishes():
    field = rect_mvt_residual(parse("x*y"), Rectangle(-1.5, 2.0, 0.5, 4.0))
    for x, y in _interior_points(field.axes, 20, 37):
        assert abs(field.residual(x, y)) <= 1e-13 * field.scale


def test_rmvt_sine_product_closed_form():
    field = rect_mvt_residual(parse("sin(x)*sin(y)"), Rectangle(0, math.pi / 2, 0, math.pi / 2))
    assert field.decomposition["delta_f"] == pytest.approx(1.0, rel=1e-15)
    for x, y in _interior_points(field.axes, 20, 41):
        want = 1.0 - (math.pi / 2) ** 2 * math.cos(x) * math.cos(y)
        assert field.residual(x, y) == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- rectangular Cauchy ----------------------------------------------------------


def test_cauchy_residual_closed_form():
    field = rect_cauchy_residual(parse("x^2*y^2"), parse("x*y"), Rectangle(1, 2, 1, 3))
    assert field.decomposition["delta_f"] == 24.0
    assert field.decomposition["delta_g"] == 2.0
    for x, y in _interior_points(field.axes, 20, 43):
        assert field.residual(x, y) == pytest.approx(24.0 - 8.0 * x * y, rel=1e-12)
    # the zero curve x*y = 3 passes through (1.5, 2)
    assert field.residual(1.5, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_cauchy_reduces_to_rmvt_for_bilinear_g():
    rng = random.Random(47)
    family = FunctionFamily("polynomial", max_degree=4)
    for i in range(20):
        rect = generate_rectangle(derive_seed(500, i))
        f = generate_function(family, derive_seed(501, i))
        cauchy = rect_cauchy_residual(f, parse("x*y"), rect)
        mvt = rect_mvt_residual(f, rect)
        for _ in range(20):
            x = rng.uniform(rect.x1 + 0.05 * rect.width, rect.x2 - 0.05 * rect.width)
            y = rng.uniform(rect.y1 + 0.05 * rect.height, rect.y2 - 0.05 * rect.height)
            assert abs(cauchy.residual(x, y) - mvt.residual(x, y)) <= 1e-12 * cauchy.scale


def test_cauchy_equal_functions_vanish():
    f = parse("x^2*y + x*y^2")
    field = rect_cauchy_residual(f, f, Rectangle(0.5, 2.0, 0.5, 2.0))
    for x, y in _interior_points(field.axes, 10, 53):
        assert field.residual(x, y) == 0.0


def test_cauchy_degenerate_g_rejected():
    # additively separable g has an exactly zero corner difference
    with pytest.raises(DegenerateError):
        rect_cauchy_residual(parse("x^2*y^2"), parse("x^2 + y^2"), Rectangle(1, 2, 1, 3))


# -- Pompeiu operator and 2-D residual -------------------------------------------


def test_pompeiu_operator_annihilations():
    rng = random.Random(59)
    one, x, y, xy = parse("1"), parse("x"), parse("y"), parse("x*y")
    for _ in range(20):
        xi1 = rng.uniform(-4, 4)
        xi2 = rng.uniform(-4, 4)
        assert abs(pompeiu_operator(one, xi1, xi2) - 1.0) <= 1e-14
        assert abs(pompeiu_operator(x, xi1, xi2)) <= 1e-14
        assert abs(pompeiu_operator(y, xi1, xi2)) <= 1e-14
        assert abs(pompeiu_operator(xy, xi1, xi2)) <= 1e-14


def test_pompeiu_operator_quartic_closed_form():
    rng = random.Random(61)
    tree = parse("x^2*y^2")
    for _ in range(20):
        xi1 = rng.uniform(0.5, 3)
        xi2 = rng.uniform(0.5, 3)
        want = xi1 ** 2 * xi2 ** 2
        assert pompeiu_operator(tree, xi1, xi2) == pytest.approx(want, rel=1e-13)


def test_pompeiu_rhs_examples():
    r = Rectangle(1, 2, 1, 3)
    assert pompeiu_rhs(parse("1"), r) == pytest.approx(1.0, rel=1e-15)
    assert abs(pompeiu_rhs(parse("x*y"), r)) <= 1e-14
    assert pompeiu_rhs(parse("x^2*y^2"), r) == pytest.approx(6.0, rel=1e-15)


def test_pompeiu2d_residual_closed_form():
    field = pompeiu2d_residual(parse("x^2*y^2"), Rectangle(1, 2, 1, 3))
    assert field.decomposition["rhs"] == pytest.approx(6.0, rel=1e-15)
    for x, y in _interior_points(field.axes, 20, 67):
        assert field.residual(x, y) == pytest.approx(x * x * y * y - 6.0, rel=1e-12, abs=1e-12)
    # (1.5, 2*sqrt(6)/3) sits on the zero curve xi1*xi2 = sqrt(6)
    assert abs(field.residual(1.5, 2.0 * SQ6 / 3.0)) <= 1e-12 * field.scale


def test_pompeiu2d_bilinear_identically_zero():
    field = pompeiu2d_residual(parse("x*y"), Rectangle(1, 2, 1, 3))
    for x, y in _interior_points(field.axes, 10, 71):
        assert abs(field.residual(x, y)) <= 1e-13 * field.scale


def test_pompeiu2d_requires_zero_free_rectangle():
    with pytest.raises(DomainError):
        pompeiu2d_residual(parse("x*y"), Rectangle(-1, 2, 1, 3))


# -- Boggio 2-D -------------------------------------------------------------------


def test_boggio2d_bilinear_g_proportional_to_pompeiu():
    rng = random.Random(73)
    family = FunctionFamily("polynomial", max_degree=4)
    for i in range(20):
        rect = generate_rectangle(derive_seed(600, i), zero_free=True)
        f = generate_function(family, derive_seed(601, i))
        boggio = boggio2d_residual(f, parse("x*y"), rect)
        pomp = pompeiu2d_residual(f, rect)
        delta_f = boggio.decomposition["delta_f"]
        for _ in range(20):
            x = rng.uniform(rect.x1 + 0.05 * rect.width, rect.x2 - 0.05 * rect.width)
            y = rng.uniform(rect.y1 + 0.05 * rect.height, rect.y2 - 0.05 * rect.height)
            want = -pomp.residual(x, y) / delta_f
            assert abs(boggio.residual(x, y) - want) <= 1e-10 * boggio.scale


def test_boggio2d_equal_functions_vanish():
    f = parse("x^2*y^2 + x*y")
    field = boggio2d_residual(f, f, Rectangle(1, 2, 1, 3))
    for x, y in _interior_points(field.axes, 10, 79):
        assert field.residual(x, y) == 0.0


def test_boggio2d_zero_curve_matches_pompeiu():
    field = boggio2d_residual(parse("x^2*y^2"), parse("x*y"), Rectangle(1, 2, 1, 3))
    # zero where the Pompeiu operator of f equals 6, i.e. on xi1*xi2 = sqrt(6)
    assert abs(field.residual(1.5, 2.0 * SQ6 / 3.0)) <= 1e-12 * field.scale


def test_boggio2d_preconditions():
    with pytest.raises(DomainError):
        boggio2d_residual(parse("x^2*y^2"), parse("x*y"), Rectangle(-1, 2, 1, 3))
    with pytest.raises(DegenerateError):
        boggio2d_residual(parse("x^2 + y^2"), parse("x*y"), Rectangle(1, 2, 1, 3))
    with pytest.raises(DegenerateError):
        boggio2d_residual(parse("x*y"), parse("x^2 + y^2"), Rectangle(1, 2, 1, 3))


# -- one-dimensional residuals -----------------------------------------------------


def test_pompeiu1d_closed_form():
    field = pompeiu1d_residual(parse("x^2"), 1.0, 2.0)
    assert field.decomposition["rhs"] == pytest.approx(-2.0, rel=1e-15)
    for xi in np.linspace(1.05, 1.95, 15):
        assert field.residual(float(xi)) == pytest.approx(2.0 - xi * xi, rel=1e-13)
    assert field.residual(math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-15)


def test_pompeiu1d_linear_and_constant_vanish():
    linear = pompeiu1d_residual(parse("x"), 1.0, 2.0)
    constant = pompeiu1d_residual(parse("1"), 1.0, 2.0)
    for xi in np.linspace(1.05, 1.95, 15):
        assert abs(linear.residual(float(xi))) <= 1e-14
        assert abs(constant.residual(float(xi))) <= 1e-14


def test_pompeiu1d_rejects_interval_containing_zero():
    for x1, x2 in ((-1.0, 2.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)):
        with pytest.raises(DomainError, match="must not contain 0"):
            pompeiu1d_residual(parse("x^2"), x1, x2)
    # bounds whose product underflows to 0
    for x1, x2 in ((1e-170, 2e-170), (-2e-170, -1e-170)):
        assert pompeiu1d_residual(parse("x^2"), x1, x2).axes == ((x1, x2),)


def test_one_dim_intervals_must_be_finite():
    with pytest.raises(ValueError):
        pompeiu1d_residual(parse("x^2"), 1.0, math.inf)
    with pytest.raises(ValueError):
        boggio1d_residual(parse("x^2"), parse("x"), math.nan, 2.0)
    # checked before the interval is found to contain 0
    with pytest.raises(ValueError, match="too wide"):
        pompeiu1d_residual(parse("x^2"), -1e308, 1e308)


def test_boggio1d_reduces_to_pompeiu_for_identity_g():
    pomp = pompeiu1d_residual(parse("x^2"), 1.0, 2.0)
    bogg = boggio1d_residual(parse("x^2"), parse("x"), 1.0, 2.0)
    rng = random.Random(83)
    for _ in range(20):
        xi = rng.uniform(1.01, 1.99)
        a, b = pomp.residual(xi), bogg.residual(xi)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


def test_boggio1d_equal_functions_vanish_numerically():
    f = parse("x^3 + x")
    field = boggio1d_residual(f, f, 1.0, 2.0)
    for xi in np.linspace(1.05, 1.95, 10):
        assert abs(field.residual(float(xi))) <= 1e-13 * field.scale


def test_boggio1d_cubic_closed_form():
    # f = x^2, g = x^3 on [1, 2]: constant 4/7, residual xi^2/3 - 4/7
    field = boggio1d_residual(parse("x^2"), parse("x^3"), 1.0, 2.0)
    assert field.decomposition["rhs"] == pytest.approx(4.0 / 7.0, rel=1e-15)
    for xi in np.linspace(1.05, 1.95, 15):
        assert field.residual(float(xi)) == pytest.approx(xi * xi / 3.0 - 4.0 / 7.0, rel=1e-13)
    root = math.sqrt(12.0 / 7.0)
    assert 1.0 < root < 2.0
    assert field.residual(root) == pytest.approx(0.0, abs=1e-15)


def test_boggio1d_degenerate_g_rejected():
    # g with equal endpoint values
    with pytest.raises(DegenerateError):
        boggio1d_residual(parse("x^2"), parse("(x-1.5)^2"), 1.0, 2.0)


def test_boggio1d_gprime_zero_surfaces_as_evaluation_error():
    # a zero divisor, so a domain error: g' != 0 is a hypothesis of the theorem
    field = boggio1d_residual(parse("x^2"), parse("(x-1.5)^3"), 1.0, 2.0)
    with pytest.raises(OutOfDomainError, match="g' vanishes"):
        field.residual(1.5)
    with pytest.raises(OutOfDomainError):
        field.residual(np.array([1.25, 1.5]))


# -- proof constructions ------------------------------------------------------------


def test_build_cauchy_auxiliary_structure_and_values():
    f, g = parse("x^2*y^2"), parse("x*y")
    rect = Rectangle(1, 2, 1, 3)
    aux = build_cauchy_auxiliary(f, g, rect)
    assert aux == BinOp("-", BinOp("*", Const(24.0), g), BinOp("*", Const(2.0), f))
    for x, y in _interior_points(rect.axes, 10, 89):
        want = 24.0 * x * y - 2.0 * x * x * y * y
        assert evaluate(aux, x, y) == pytest.approx(want, rel=1e-13)


def test_build_cauchy_auxiliary_corner_identity():
    family = FunctionFamily("polynomial", max_degree=4)
    for i in range(50):
        rect = generate_rectangle(derive_seed(700, i))
        f = generate_function(family, derive_seed(701, i))
        g = generate_function(family, derive_seed(702, i))
        aux = build_cauchy_auxiliary(f, g, rect)
        delta_f = corner_difference(f, rect)
        delta_g = corner_difference(g, rect)
        scale = 1.0 + abs(delta_f * delta_g)
        assert abs(corner_difference(aux, rect)) <= 1e-10 * scale


def test_build_cauchy_auxiliary_equal_functions_vanish():
    f = parse("x^2*y + y")
    rect = Rectangle(0.5, 1.5, 0.5, 1.5)
    aux = build_cauchy_auxiliary(f, f, rect)
    for x, y in _interior_points(rect.axes, 10, 97):
        assert evaluate(aux, x, y) == 0.0


def test_build_reciprocal_transform_examples():
    transform = build_reciprocal_transform(parse("x*y"))
    for x, y in _interior_points(Rectangle(0.5, 3, 0.5, 3).axes, 10, 101):
        assert evaluate(transform, x, y) == pytest.approx(1.0, rel=1e-14)
    assert build_reciprocal_transform(parse("1")) == BinOp(
        "*", BinOp("*", Var("x"), Var("y")), Const(1.0)
    )
    quartic = build_reciprocal_transform(parse("x^2*y^2"))
    assert evaluate(quartic, 2.0, 4.0) == pytest.approx(0.125, rel=1e-14)


def test_reciprocal_rectangle_examples():
    assert reciprocal_rectangle(Rectangle(1, 2, 1, 3)) == Rectangle(0.5, 1.0, 1.0 / 3.0, 1.0)
    assert reciprocal_rectangle(Rectangle(-2, -1, 1, 2)) == Rectangle(-1.0, -0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        reciprocal_rectangle(Rectangle(-1, 2, 1, 3))


def test_fts_expansion_bilinear():
    left, right = fts_expansion_check(parse("x*y"), 2.0, 3.0)
    assert abs(left) <= 1e-14
    assert abs(right) <= 1e-14


def test_fts_expansion_constant():
    left, right = fts_expansion_check(parse("1"), 0.7, -2.3)
    assert left == 1.0
    assert right == 1.0


def test_fts_expansion_random_cases():
    family = FunctionFamily("polynomial", max_degree=4)
    rng = random.Random(103)
    for i in range(50):
        f = generate_function(family, derive_seed(800, i))
        t = rng.choice((-1, 1)) * rng.uniform(0.4, 3.0)
        s = rng.choice((-1, 1)) * rng.uniform(0.4, 3.0)
        left, right = fts_expansion_check(f, t, s)
        assert abs(left - right) <= 1e-9 * (1.0 + abs(right))


# -- existence on a fine grid --------------------------------------------------------


def test_residual_fields_attain_zero_or_both_signs():
    family = FunctionFamily("polynomial", max_degree=4)
    for i in range(10):
        rect = generate_rectangle(derive_seed(110, i), zero_free=True)
        f = generate_function(family, derive_seed(111, i))
        field = pompeiu2d_residual(f, rect)
        n = 65
        xs = rect.x1 + (np.arange(n) + 0.5) * (rect.width / n)
        ys = rect.y1 + (np.arange(n) + 0.5) * (rect.height / n)
        values = np.asarray(field.residual(xs[np.newaxis, :], ys[:, np.newaxis]))
        values = np.broadcast_to(values, (n, n))
        tiny = np.abs(values).min() <= 1e-9 * field.scale
        both_signs = values.min() < 0.0 < values.max()
        assert tiny or both_signs


# -- compile once per field ------------------------------------------------------


_COMPILE_ONCE_CASES = [
    ("rolle", "sin(x)*sin(y)", None, (0.0, math.pi, 0.0, math.pi)),
    ("rmvt", "x^2*y + exp(x*y)", None, (0.0, 1.0, 0.0, 1.0)),
    ("cauchy", "x^2*y^2", "x*y^3 + 1/(x+y+3)", (1.0, 2.0, 1.0, 3.0)),
    ("pompeiu2d", "x^2*y^2 + sin(x)*sin(y)", None, (1.0, 2.0, 1.0, 3.0)),
    ("boggio2d", "x^2*y^2", "x*y^3", (1.0, 2.0, 1.0, 3.0)),
    ("pompeiu1d", "x^3 - 2*x", None, (1.0, 2.0)),
    ("boggio1d", "x^3 - 2*x", "x + x^3", (1.0, 2.0)),
]


@pytest.mark.parametrize("tag, f_text, g_text, bounds", _COMPILE_ONCE_CASES)
def test_each_field_compiles_f_and_g_once(monkeypatch, tag, f_text, g_text, bounds):
    compiled = []
    real = theorems.compile_hyperdual

    requested = set()

    def counting(expr, reads=Derivatives._fields):
        compiled.append(expr)
        requested.add(tuple(reads))
        return real(expr, reads)

    monkeypatch.setattr(theorems, "compile_hyperdual", counting)
    f = parse(f_text)
    g = None if g_text is None else parse(g_text)
    field = build_field(tag, f, g, bounds)
    axes = field.axes
    grid = [lo + (np.arange(9) + 0.5) * ((hi - lo) / 9) for lo, hi in axes]
    grid = grid if len(axes) == 1 else [grid[0][np.newaxis, :], grid[1][:, np.newaxis]]
    for i in range(10):
        point = [lo + (i + 0.5) / 10 * (hi - lo) for lo, hi in axes]
        assert math.isfinite(field.residual(*point))
        assert np.isfinite(field.residual(*grid)).all()
    want = [f] if g is None else [f, g]
    assert sorted(map(id, compiled)) == sorted(map(id, want))
    # each function is compiled for the components its residual reads
    assert requested == {THEOREMS[tag].reads}


@pytest.mark.parametrize("tag", tuple(THEOREMS))
def test_residuals_from_the_components_read_equal_those_from_all_four(monkeypatch, tag):
    # each builder compiles f (and g) for the components its theorem's row
    # names; fields built from programs that compute all four components give
    # the same residuals, up to the sign of a zero, on grids and at points
    from rectmvt.harness import _build_case, _theorem

    assert set(THEOREMS[tag].reads) <= set(Derivatives._fields)
    real = theorems.compile_hyperdual
    compared = 0
    for family in ("poly4", "bilinear", "separable", "exp-poly", "rational"):
        for i in range(6):
            seed = derive_seed(71, i)
            try:
                read = _build_case(_theorem(tag), family_from_name(family), seed)
            except (DegenerateError, HypothesisError):
                continue
            monkeypatch.setattr(theorems, "compile_hyperdual", lambda f, reads=None: real(f))
            full = _build_case(_theorem(tag), family_from_name(family), seed)
            monkeypatch.setattr(theorems, "compile_hyperdual", real)
            centres = [lo + (np.arange(17) + 0.5) * ((hi - lo) / 17) for lo, hi in read.axes]
            grid = centres if len(centres) == 1 else [centres[0][np.newaxis, :], centres[1][:, np.newaxis]]
            with np.errstate(all="ignore"):
                got, want = read.residual(*grid), full.residual(*grid)
            assert np.array_equal(np.broadcast_to(got, np.shape(want)), want, equal_nan=True)
            for k in range(5):
                point = [float(c[(3 * k + 1) % 17]) for c in centres]
                assert read.residual(*point) == full.residual(*point)
            compared += 1
    assert compared >= 20


# -- each corner evaluated once ---------------------------------------------------


# evaluate calls per field: each function at its four corners (two endpoints on
# an interval), once
_CORNER_EVALUATIONS = {
    "rolle": 4, "rmvt": 4, "cauchy": 8, "pompeiu2d": 4, "boggio2d": 8, "pompeiu1d": 2, "boggio1d": 4,
}


@pytest.mark.parametrize("tag, f_text, g_text, bounds", _COMPILE_ONCE_CASES)
def test_each_field_evaluates_each_corner_once(monkeypatch, tag, f_text, g_text, bounds):
    points = []
    real = theorems.evaluate

    def counting(expr, x, y):
        points.append((id(expr), x, y))
        return real(expr, x, y)

    monkeypatch.setattr(theorems, "evaluate", counting)
    build_field(tag, parse(f_text), None if g_text is None else parse(g_text), bounds)
    assert len(points) == _CORNER_EVALUATIONS[tag]
    assert len(set(points)) == len(points)


def _bits(values) -> list[int]:
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


def _corner_difference_by_formula(f, r):
    return evaluate(f, r.x2, r.y2) - evaluate(f, r.x2, r.y1) - evaluate(f, r.x1, r.y2) + evaluate(f, r.x1, r.y1)


def _pompeiu_numerator_by_formula(f, r):
    return (
        r.x2 * r.y2 * evaluate(f, r.x1, r.y1)
        - r.x2 * r.y1 * evaluate(f, r.x1, r.y2)
        - r.x1 * r.y2 * evaluate(f, r.x2, r.y1)
        + r.x1 * r.y1 * evaluate(f, r.x2, r.y2)
    )


def _constants_by_formula(tag, f, g, r):
    """``(scale, decomposition)`` of a 2-D field, each corner term written out
    and evaluated where it is used, as the formulas read."""
    if tag == "rolle":
        scale = 1.0 + theorems._mixed_partial_magnitude(theorems.compile_hyperdual(f), r)
        return scale, {"delta_f": _corner_difference_by_formula(f, r)}
    if tag == "rmvt":
        delta = _corner_difference_by_formula(f, r)
        return 1.0 + abs(delta), {"delta_f": delta}
    if tag == "pompeiu2d":
        rhs = _pompeiu_numerator_by_formula(f, r) / r.area
        return 1.0 + abs(rhs), {"rhs": rhs}
    delta_f = _corner_difference_by_formula(f, r)
    delta_g = _corner_difference_by_formula(g, r)
    if tag == "cauchy":
        return 1.0 + abs(delta_f) + abs(delta_g), {"delta_f": delta_f, "delta_g": delta_g}
    rhs_f = _pompeiu_numerator_by_formula(f, r) / (r.area * delta_f)
    rhs_g = _pompeiu_numerator_by_formula(g, r) / (r.area * delta_g)
    return (
        1.0 + abs(rhs_f) + abs(rhs_g),
        {"delta_f": delta_f, "delta_g": delta_g, "rhs_f": rhs_f, "rhs_g": rhs_g},
    )


@pytest.mark.parametrize("family", ["poly4", "bilinear", "separable", "exp-poly", "rational"])
def test_field_constants_match_the_corner_formulas_bit_for_bit(family):
    fam = family_from_name(family)
    compared = 0
    for tag in ("rolle", "rmvt", "cauchy", "pompeiu2d", "boggio2d"):
        theorem = THEOREMS[tag]
        for i in range(12):
            seed = derive_seed(31, i)
            r = generate_rectangle(derive_seed(seed, 0), zero_free=theorem.zero_free)
            f = generate_function(fam, derive_seed(seed, 1), r)
            if tag == "rolle":
                # remove the bilinear interpolant's mixed part, so the corner identity holds
                delta = corner_difference(f, r)
                f = BinOp("-", f, BinOp("*", Const(delta / r.area), BinOp("*", Var("x"), Var("y"))))
            g = generate_function(fam, derive_seed(seed, 2), r) if theorem.needs_g else None
            try:
                field = build_field(tag, f, g, (r.x1, r.x2, r.y1, r.y2))
            except (DegenerateError, HypothesisError):
                continue
            scale, decomposition = _constants_by_formula(tag, f, g, r)
            assert list(field.decomposition) == list(decomposition)
            assert _bits([field.scale, *field.decomposition.values()]) == _bits(
                [scale, *decomposition.values()]
            )
            compared += 1
    assert compared >= 50


# f fails at two corners of [1, 2] x [1, 2] with two different errors: at
# (1, 1) its first term divides by zero, at (2, 2) its second takes the square
# root of -0.5.  The corner difference reads (2, 2) first, the Pompeiu
# numerator and the Rolle corner check read (1, 1) first.
_TWO_CORNER_FAILURE = "1/(x+y-2) + sqrt(3.5-x-y)"
_DIVISION = "float division by zero"
_SQRT = "sqrt of a negative value"


@pytest.mark.parametrize(
    "tag, f_text, g_text, message",
    [
        ("rolle", _TWO_CORNER_FAILURE, None, _DIVISION),
        ("rmvt", _TWO_CORNER_FAILURE, None, _SQRT),
        ("cauchy", _TWO_CORNER_FAILURE, "x*y", _SQRT),
        ("cauchy", "x*y", _TWO_CORNER_FAILURE, _SQRT),
        ("pompeiu2d", _TWO_CORNER_FAILURE, None, _DIVISION),
        ("boggio2d", _TWO_CORNER_FAILURE, "x*y", _SQRT),
        ("boggio2d", "x*y", _TWO_CORNER_FAILURE, _SQRT),
    ],
)
def test_first_failing_corner_decides_the_error(tag, f_text, g_text, message):
    f = parse(f_text)
    g = None if g_text is None else parse(g_text)
    with pytest.raises(OutOfDomainError) as info:
        build_field(tag, f, g, (1.0, 2.0, 1.0, 2.0))
    assert str(info.value) == message
