import math
import random

import pytest

from rectmvt.expr import parse
from rectmvt.harness import derive_seed, generate_rectangle
from rectmvt.locator import (
    MAX_GRID_N,
    LocateConfig,
    bisect_on_segment,
    locate,
    locate_line,
    verify_at,
)
from rectmvt.theorems import (
    DomainError,
    LineResidualField,
    Rectangle,
    ResidualField,
    boggio1d_residual,
    pompeiu1d_residual,
    pompeiu2d_residual,
    rect_mvt_residual,
)

SQ6 = math.sqrt(6.0)


def _linear_field(a: float, b: float, c: float, rect: Rectangle) -> ResidualField:
    """R(x, y) = a*x + b*y + c, scale 1."""

    def residual(x, y):
        return a * x + b * y + c

    return ResidualField(rect, residual, 1.0, {}, "test")


def test_config_validation():
    with pytest.raises(ValueError):
        LocateConfig(grid_n=2)
    with pytest.raises(ValueError):
        LocateConfig(tol_factor=0.0)
    with pytest.raises(ValueError):
        LocateConfig(max_refinements=0)
    with pytest.raises(ValueError):
        LocateConfig(minimize_iters=0)
    with pytest.raises(ValueError):
        LocateConfig(bisect_tol=-1e-12)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LocateConfig(tol_factor=value)
        with pytest.raises(ValueError):
            LocateConfig(bisect_tol=value)


def test_config_bounds_the_finest_grid():
    # validation only: a search on one of the rejected configs would screen
    # millions of samples per level
    assert MAX_GRID_N == 2048
    for grid_n, refinements in ((33, 4), (257, 1), (5, 4), (1024, 1)):
        LocateConfig(grid_n=grid_n, max_refinements=refinements)
    for grid_n, refinements in ((257, 4), (33, 7), (33, 10**9), (1025, 1)):
        with pytest.raises(ValueError, match="2048"):
            LocateConfig(grid_n=grid_n, max_refinements=refinements)


def test_locate_rmvt_closed_form_zero():
    field = rect_mvt_residual(parse("x^2*y"), Rectangle(0, 1, 0, 1))
    report = locate(field)
    assert report.outcome == "found"
    assert abs(report.point.xi1 - 0.5) <= 1e-8
    assert abs(report.point.residual) <= 1e-9 * field.scale


def test_locate_bilinear_degenerate_center():
    field = rect_mvt_residual(parse("x*y"), Rectangle(1, 2, 1, 2))
    report = locate(field)
    assert report.outcome == "degenerate-identically-zero"
    assert report.point.xi1 == 1.5
    assert report.point.xi2 == 1.5


def test_locate_pompeiu_quartic_zero_curve():
    field = pompeiu2d_residual(parse("x^2*y^2"), Rectangle(1, 2, 1, 3))
    report = locate(field)
    assert report.outcome == "found"
    assert abs(report.point.xi1 * report.point.xi2 - SQ6) <= 1e-6


def test_found_points_are_strictly_interior():
    cases = [
        (rect_mvt_residual(parse("x^2*y"), Rectangle(0, 1, 0, 1))),
        (pompeiu2d_residual(parse("x^2*y^2"), Rectangle(1, 2, 1, 3))),
        (rect_mvt_residual(parse("exp(x+y)"), Rectangle(-1, 1, -1, 1))),
    ]
    for field in cases:
        report = locate(field)
        assert report.outcome == "found"
        r = field.rectangle
        assert r.x1 < report.point.xi1 < r.x2
        assert r.y1 < report.point.xi2 < r.y2


def test_found_residual_is_reproducible():
    field = pompeiu2d_residual(parse("x^2*y^2"), Rectangle(1, 2, 1, 3))
    report = locate(field)
    again = field.residual(report.point.xi1, report.point.xi2)
    assert again == report.point.residual
    assert abs(again) <= 1e-9 * field.scale


def test_locate_is_deterministic():
    field = pompeiu2d_residual(parse("x^2*y^2 + sin(x)*sin(y)"), Rectangle(1, 2, 1, 3))
    assert locate(field) == locate(field)


def test_locate_reports_evaluation_failure_point():
    rect = Rectangle(0, 1, 0, 1)

    def residual(x, y):
        return 1.0 / (x - 0.5)  # pole crosses the grid

    field = ResidualField(rect, residual, 1.0, {}, "test")
    report = locate(field)
    assert report.outcome == "failed"
    assert "0.5" in report.diagnostics.failure


def test_locate_fails_when_no_zero_exists():
    # strictly positive residual: not a theorem field, locator must say failed
    field = _linear_field(0.0, 0.0, 1.0, Rectangle(0, 1, 0, 1))
    cfg = LocateConfig(max_refinements=1, minimize_iters=5)
    report = locate(field, cfg)
    assert report.outcome == "failed"
    assert report.point is None
    assert report.diagnostics.failure is not None


def test_bisect_on_segment_linear():
    field = _linear_field(-2.0, 0.0, 1.0, Rectangle(0, 1, 0, 1))  # R = 1 - 2x
    x, y = bisect_on_segment(field, (0.9, 0.5), (0.1, 0.5), 1e-12)
    assert abs(x - 0.5) <= 1e-10
    assert y == 0.5


def test_bisect_on_segment_rejects_bad_signs():
    field = _linear_field(-2.0, 0.0, 1.0, Rectangle(0, 1, 0, 1))
    with pytest.raises(ValueError):
        bisect_on_segment(field, (0.1, 0.5), (0.9, 0.5), 1e-12)  # signs swapped


def test_bisect_on_segment_requires_interior_endpoints():
    field = _linear_field(-2.0, 0.0, 1.0, Rectangle(0, 1, 0, 1))
    with pytest.raises(DomainError):
        bisect_on_segment(field, (0.9, 0.5), (0.0, 0.5), 1e-12)


def test_bisect_on_segment_immediate_return_within_tolerance():
    field = _linear_field(-2.0, 0.0, 1.0, Rectangle(0, 1, 0, 1))
    x, y = bisect_on_segment(field, (0.5 + 1e-13, 0.5), (0.1, 0.5), 1e-12, residual_tol=1e-9)
    assert (x, y) == (0.5 + 1e-13, 0.5)


def test_bisect_on_segment_random_linear_fields():
    rng = random.Random(107)
    rect = Rectangle(0, 1, 0, 1)
    for _ in range(50):
        a = rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)
        b = rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)
        c = rng.uniform(-0.4, 0.4)
        field = _linear_field(a, b, c, rect)
        p = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        q = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        rp, rq = field.residual(*p), field.residual(*q)
        if rp == 0.0 or rq == 0.0 or (rp < 0) == (rq < 0):
            continue
        p_neg, p_pos = (p, q) if rp < 0 else (q, p)
        x, y = bisect_on_segment(field, p_neg, p_pos, 1e-12)
        # closed form: root of the linear residual along the segment
        t = -(a * p_neg[0] + b * p_neg[1] + c) / (
            a * (p_pos[0] - p_neg[0]) + b * (p_pos[1] - p_neg[1])
        )
        want = (p_neg[0] + t * (p_pos[0] - p_neg[0]), p_neg[1] + t * (p_pos[1] - p_neg[1]))
        assert abs(x - want[0]) <= 1e-10
        assert abs(y - want[1]) <= 1e-10


def test_verify_at_values_and_domain():
    field = pompeiu2d_residual(parse("x^2*y^2"), Rectangle(1, 2, 1, 3))
    near_curve = verify_at(field, 1.5, 1.632993)
    assert abs(near_curve) <= 1e-5
    off_curve = verify_at(field, 1.5, 2.5)
    assert off_curve == pytest.approx(8.0625, rel=1e-12)
    with pytest.raises(DomainError):
        verify_at(field, 0.5, 2.0)


def test_locate_line_pompeiu_sqrt2():
    field = pompeiu1d_residual(parse("x^2"), 1.0, 2.0)
    report = locate_line(field, LocateConfig(tol_factor=1e-12))
    assert report.outcome == "found"
    assert abs(report.point.xi1 - math.sqrt(2.0)) <= 1e-9


def test_locate_refines_past_coarse_grid():
    # the zero curve is a circle of radius 0.02 around (0.53, 0.56); the 5x5
    # and 10x10 cell-center grids stay outside it, the 20x20 grid does not
    rect = Rectangle(0, 1, 0, 1)

    def residual(x, y):
        return (x - 0.53) ** 2 + (y - 0.56) ** 2 - 0.0004

    field = ResidualField(rect, residual, 1.0, {}, "test")
    report = locate(field, LocateConfig(grid_n=5, max_refinements=4))
    assert report.outcome == "found"
    assert report.diagnostics.level >= 2


def test_locate_minimization_fallback_on_tangent_zero():
    # residual touches zero without a sign change; the coordinate-descent
    # fallback has to close the last gap
    rect = Rectangle(0, 1, 0, 1)

    def residual(x, y):
        return (x - 0.5) ** 2 + (y - 0.5) ** 2

    field = ResidualField(rect, residual, 1.0, {}, "test")
    report = locate(field, LocateConfig(grid_n=4, max_refinements=1, tol_factor=1e-7))
    assert report.outcome == "found"
    assert report.point.method == "minimization"
    assert abs(report.point.xi1 - 0.5) <= 1e-3
    assert abs(report.point.xi2 - 0.5) <= 1e-3


def test_locate_line_minimization_fallback_on_tangent_zero():
    # a line residual that touches zero without a sign change
    field = LineResidualField(1.0, 2.0, lambda x: (x - 1.3) ** 2, 1.0, {}, "test")
    report = locate(field, LocateConfig(grid_n=4, max_refinements=1, tol_factor=1e-7))
    assert report.outcome == "found"
    assert report.point.method == "minimization"
    assert report.point.xi2 is None
    assert abs(report.point.xi1 - 1.3) <= 1e-3


def _lift(line: LineResidualField) -> ResidualField:
    """The same residual on [x1, x2] x [0, 1], constant along y."""
    fn = line.residual
    return ResidualField(
        Rectangle(line.x1, line.x2, 0, 1), lambda x, y: fn(x) + 0.0 * y, line.scale, {}, line.tag
    )


def _line_cases(count: int):
    rng = random.Random(2024)
    for i in range(count):
        rect = generate_rectangle(derive_seed(77, i), zero_free=True)
        c = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        f = parse(f"{c[0]!r}*x^3 + {c[1]!r}*x^2 + {c[2]!r}*x + {c[3]!r}")
        yield pompeiu1d_residual(f, rect.x1, rect.x2)
        g = parse(f"{rng.uniform(0.5, 2.0)!r}*x + {rng.uniform(0.1, 1.0)!r}*x^3")
        yield boggio1d_residual(f, g, rect.x1, rect.x2)
        # two close zeros, or one tangent zero, that coarse grids step over
        m = rect.x1 + rng.uniform(0.2, 0.8) * rect.width
        h = rng.choice((0.0, rect.width / 25))
        yield LineResidualField(
            rect.x1, rect.x2, lambda x, m=m, h=h: (x - m) ** 2 - h * h, 1.0, {}, "test"
        )


@pytest.mark.parametrize(
    "cfg", [LocateConfig(), LocateConfig(grid_n=3, max_refinements=2)], ids=["default", "3x2"]
)
def test_line_search_matches_search_on_a_lifted_rectangle(cfg):
    for line in _line_cases(20):
        got, want = locate(line, cfg), locate(_lift(line), cfg)
        assert got.outcome == want.outcome
        if want.point is None:
            assert got.point is None
        else:
            assert got.point.xi2 is None
            assert (got.point.xi1, got.point.residual, got.point.method) == (
                want.point.xi1,
                want.point.residual,
                want.point.method,
            )
        d, e = got.diagnostics, want.diagnostics
        assert (d.grid_min, d.grid_max, d.sign_cells, d.level, d.failure) == (
            e.grid_min,
            e.grid_max,
            e.sign_cells,
            e.level,
            e.failure,
        )
        if got.point is not None and got.point.method != "minimization":
            # the lift screens n*n samples per level where the line screens n:
            # 1,056 more at level 0 of the default 33-point grid
            sizes = [cfg.grid_n << level for level in range(d.level + 1)]
            assert e.evaluations - d.evaluations == sum(n * n - n for n in sizes)


def test_verify_at_checks_the_fields_own_bounds():
    field = pompeiu1d_residual(parse("x^2"), 1.0, 2.0)
    assert verify_at(field, 1.5) == field.residual(1.5)
    with pytest.raises(DomainError, match=r"\(2\.5\) is not strictly inside \[1\.0, 2\.0\]"):
        verify_at(field, 2.5)
    with pytest.raises(ValueError):
        verify_at(field, 1.5, 0.5)
