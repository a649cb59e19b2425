import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from rectmvt.expr import BinOp, Const, EvaluationError, OutOfDomainError, Var, const, parse, substitute
from rectmvt.harness import (
    GenerationError,
    _build_case,
    build_field,
    derive_seed,
    family_from_name,
    generate_function,
    generate_rectangle,
)
from rectmvt.hyperdual import check_divisor
from rectmvt import locator
from rectmvt.locator import (
    BISECT_TOL,
    MAX_GRID_N,
    LocateConfig,
    _bisect,
    _grid_values,
    locate,
    locate_line,
    verify_at,
)
from rectmvt.theorems import (
    THEOREMS,
    DegenerateError,
    DomainError,
    HypothesisError,
    Rectangle,
    ResidualField,
    boggio1d_residual,
    corner_difference,
    pompeiu1d_residual,
    pompeiu2d_residual,
    rect_cauchy_residual,
    rect_mvt_residual,
    rect_rolle_residual,
)

SQ6 = math.sqrt(6.0)


def _linear_field(a: float, b: float, c: float, rect: Rectangle) -> ResidualField:
    """R(x, y) = a*x + b*y + c, scale 1."""

    def residual(x, y):
        return a * x + b * y + c

    return ResidualField(rect.axes, residual, 1.0, {}, "test")


def test_config_validation():
    with pytest.raises(ValueError):
        LocateConfig(grid_n=2)
    with pytest.raises(ValueError):
        LocateConfig(tol_factor=0.0)
    with pytest.raises(ValueError):
        LocateConfig(max_refinements=0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LocateConfig(tol_factor=value)
    for value in (33.5, 4.0):
        with pytest.raises(ValueError, match="grid_n must be an integer"):
            LocateConfig(grid_n=value)
    with pytest.raises(ValueError, match="max_refinements must be an integer"):
        LocateConfig(max_refinements=1.5)


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
    # the level-0 grid, the center and two off-grid probes
    assert report.diagnostics.evaluations == 33 * 33 + 3


@pytest.mark.parametrize("dims", [1, 2])
def test_a_residual_vanishing_only_on_the_grid_is_not_degenerate(dims):
    # sin(8*pi*x) vanishes at the four cell centers (2i + 1)/8 of each row and
    # at the center x = 0.5, but not at the off-grid probes
    axes = ((0.0, 1.0),) * dims
    field = ResidualField(axes, lambda x, *_: np.sin(8 * np.pi * x), 1.0, {}, "test")
    report = locate(field, LocateConfig(grid_n=4))
    assert abs(field.residual(*(0.5,) * dims)) <= 1e-9
    assert report.outcome == "found"
    assert report.point.method == "grid-hit"
    assert abs(report.point.residual) <= 1e-9


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
        (x1, x2), (y1, y2) = field.axes
        assert x1 < report.point.xi1 < x2
        assert y1 < report.point.xi2 < y2


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

    field = ResidualField(rect.axes, residual, 1.0, {}, "test")
    report = locate(field)
    assert report.outcome == "failed"
    assert "0.5" in report.diagnostics.failure


def _table_field(cells: dict[int, float]) -> ResidualField:
    """A residual on [0, 3] x [0, 3] that is constant on each cell of the 3 x 3
    grid: ``cells`` maps a row-major cell index to its value, the rest read 0."""
    table = np.zeros(9)
    for k, value in cells.items():
        table[k] = value

    def residual(x, y):
        k = 3 * np.floor(y).astype(int) + np.floor(x).astype(int)
        return table[k] if isinstance(k, np.ndarray) else float(table[k])

    return ResidualField(((0.0, 3.0), (0.0, 3.0)), residual, 1.0, {}, "test")


@pytest.mark.parametrize(
    "cells, first",
    [
        ({2: math.inf, 5: math.nan}, 2),  # a NaN after an infinity
        ({1: -math.inf, 4: math.nan, 7: math.inf}, 1),  # -inf before a NaN
        ({8: math.inf}, 8),  # a lone +inf in the last cell
        ({0: 1.0, 3: math.nan, 6: -math.inf}, 3),
    ],
)
def test_a_non_finite_grid_names_its_first_non_finite_cell(cells, first):
    report = locate(_table_field(cells), LocateConfig(grid_n=3))
    d = report.diagnostics
    iy, ix = divmod(first, 3)
    assert d.failure == f"evaluation error at ({ix + 0.5!r}, {iy + 0.5!r}): residual is not finite"
    assert (report.outcome, d.failure_kind, d.level, d.evaluations) == ("failed", "evaluation", 0, 9)
    assert (d.grid_min, d.grid_max) == (math.inf, -math.inf)


def test_a_raising_grid_is_searched_row_by_row_and_every_evaluation_counted():
    # a pole on the last row of cell centers: the vectorized grid raises, every
    # row is screened, and the scalar scan of the last row fails at its first cell
    c = 32.5 * (1.0 / 33)
    report = locate(rect_mvt_residual(parse(f"x*y/(y-{c!r})"), Rectangle(0, 1, 0, 1)))
    d = report.diagnostics
    assert d.failure == f"evaluation error at ({0.5 / 33!r}, {c!r}): division by zero"
    assert (d.failure_kind, d.level, d.evaluations) == ("domain", 0, 33 * 33 + 33 * 33 + 1)
    # on an interval the scalar scan runs from the first cell, with no screen
    line = locate(pompeiu1d_residual(parse(f"1/(x-{1 + c!r})"), 1, 2))
    assert (line.diagnostics.failure_kind, line.diagnostics.evaluations) == ("domain", 33 + 33)


def test_a_divisor_that_changes_sign_between_samples_is_a_domain_failure():
    # no cell center hits the pole, but the divisor takes both signs: along
    # each row, the first row screen proves it and is reported at its first cell
    sign = "divisor changes sign between samples, so it vanishes between them"
    c = 0.5 / 33
    report = locate(rect_mvt_residual(parse("x*y/(x-0.51234567)"), Rectangle(0, 1, 0, 1)))
    d = report.diagnostics
    assert (report.outcome, d.failure_kind) == ("failed", "domain")
    assert d.failure == f"evaluation error at ({c!r}, {c!r}): {sign}"
    assert d.evaluations == 33 * 33 + 33
    # across rows only: no row proves it, so all are screened, with no scalar
    # scan, and the grid's own proof is reported at its first cell
    d = locate(rect_mvt_residual(parse("x*y/(y-0.51234567)"), Rectangle(0, 1, 0, 1))).diagnostics
    assert (d.failure_kind, d.failure) == ("domain", f"evaluation error at ({c!r}, {c!r}): {sign}")
    assert d.evaluations == 33 * 33 + 33 * 33
    # an interval is one row, reported at once
    d = locate(pompeiu1d_residual(parse("1/(x-1.51234567)"), 1, 2)).diagnostics
    assert (d.failure_kind, d.evaluations) == ("domain", 33)
    # a divisor that dips to zero between samples without a sign change is
    # missed: the residual is finite at every sample, and the search runs out
    d = locate(pompeiu1d_residual(parse("1/(x-1.51234567)^2"), 1, 2)).diagnostics
    assert d.failure_kind == "exhausted"


@pytest.mark.parametrize("dims", [1, 2])
def test_a_grid_that_raises_only_when_vectorized_reports_its_first_cell(dims):
    def residual(*p):
        if isinstance(p[0], np.ndarray):
            raise EvaluationError("vectorized only")
        return 1.0

    field = ResidualField(((0.0, 3.0),) * dims, residual, 1.0, {}, "test")
    d = locate(field, LocateConfig(grid_n=3)).diagnostics
    assert d.failure == f"evaluation error at {'(0.5, 0.5)' if dims == 2 else '(0.5)'}: vectorized evaluation failed"
    # the grid, then on a rectangle three row screens, and every cell on the scalar path
    assert (d.failure_kind, d.evaluations) == ("evaluation", 27 if dims == 2 else 6)


# -- screening a rectangle in row bands ------------------------------------------

FAMILIES = ("poly4", "bilinear", "separable", "exp-poly", "rational")


def _rows_per_band(n: int) -> int:
    return max(locator.MIN_BAND_ROWS, locator.BAND_BYTES // (8 * n))


def _first_band_holding(row: int, n: int) -> int:
    """First row of the first band of an n-wide level that holds ``row``: the
    band that raises for a pole on that row."""
    rows, a = _rows_per_band(n), 0
    while a + rows <= row:
        a += rows - 1
    return a


def _level_centres(axes, n: int) -> list[np.ndarray]:
    """Cell centers of an n-per-axis level, computed as ``locate`` computes them."""
    return [lo + (np.arange(n) + 0.5) * ((hi - lo) / n) for lo, hi in axes]


def _whole_grid(field: ResidualField, centres) -> np.ndarray:
    """The level as one vectorized call over the whole grid evaluates it, flattened."""
    shape = tuple(c.size for c in reversed(centres))
    with np.errstate(all="ignore"):
        values = field.residual(*reversed(np.ix_(*reversed(centres))))
    return np.broadcast_to(np.asarray(values, dtype=float), shape).ravel()


def _recorded(field: ResidualField, calls: list) -> ResidualField:
    """``field`` with each vectorized call's last coordinate shape appended to ``calls``."""

    def residual(*p):
        calls.append(np.shape(p[-1]))
        return field.residual(*p)

    return ResidualField(field.axes, residual, field.scale, field.decomposition, field.tag)


def _whole_level_picks(flat: np.ndarray) -> tuple[int, int, int]:
    """The picks ``locate`` took from a whole level before bands were reduced one by one."""
    return int(flat.argmin()), int(flat.argmax()), int(np.abs(flat).argmin())


def _assert_level_matches_whole_grid(field: ResidualField, n: int) -> None:
    centres = _level_centres(field.axes, n)
    try:
        expected = _whole_grid(field, centres)
    except EvaluationError:
        expected = None
    calls = []
    flat, picks, failure, evaluations = _grid_values(_recorded(field, calls), centres)
    if expected is None:
        assert flat is None and picks is None and failure is not None
        return
    assert failure is None and evaluations == n ** len(centres)
    assert flat.tobytes() == expected.tobytes()  # bit for bit, NaN included
    assert picks == _whole_level_picks(expected)
    rows = _rows_per_band(n)
    if len(centres) == 1 or rows >= n:
        assert len(calls) == 1
    else:
        # bands of at most ``rows`` rows, each sharing one row with the next,
        # whether or not the level is finite or its residual is one value
        assert calls[0] == (rows, 1) and all(r <= rows and one == 1 for r, one in calls)
        assert sum(r for r, _ in calls) - (len(calls) - 1) == n


@pytest.mark.parametrize("tag", tuple(THEOREMS))
def test_banded_levels_equal_whole_grid_levels_bit_for_bit(tag):
    compared = 0
    for family in FAMILIES:
        for i in range(2):
            try:
                field = _build_case(THEOREMS[tag], family_from_name(family), derive_seed(42, i))
            except (DegenerateError, DomainError, HypothesisError, EvaluationError, GenerationError):
                continue
            _assert_level_matches_whole_grid(field, 257)
            compared += 1
    assert compared >= 5
    if tag == "boggio2d":
        # a refined level, twice as wide, so half as many rows per band
        _assert_level_matches_whole_grid(field, 514)


def _nan_above(y0: float) -> ResidualField:
    def residual(x, y):
        if isinstance(y, np.ndarray):
            return np.where(y > y0, np.nan, x - 0.5)
        return math.nan if y > y0 else x - 0.5

    return ResidualField(((0.0, 1.0), (0.0, 1.0)), residual, 1.0, {}, "test")


def test_a_level_with_a_nan_in_a_later_band_equals_the_whole_grid():
    assert _rows_per_band(257) < 0.9 * 257
    _assert_level_matches_whole_grid(_nan_above(0.9), 257)


def _grid_table(table: np.ndarray) -> ResidualField:
    """A residual on [0, n] x [0, n] that reads ``table[iy, ix]`` on cell (ix, iy)."""
    n = table.shape[0]

    def residual(x, y):
        return table[np.floor(y).astype(int), np.floor(x).astype(int)]

    return ResidualField(((0.0, float(n)),) * 2, residual, 1.0, {}, "test")


def _set(table: np.ndarray, cells: dict) -> np.ndarray:
    for (iy, ix), value in cells.items():
        table[iy, ix] = value
    return table


def _carry_case(case: str, n: int) -> np.ndarray:
    """An n x n table whose picks fall in several bands, or on rows bands share."""
    s = _rows_per_band(n) - 1  # band k starts at row k * s; row s is the first shared row
    ones = np.ones((n, n))
    if case == "ties-across-bands":
        # the least and largest values twice each, in different bands (row 4 * s
        # is shared by bands 3 and 4); and a zero of each sign, the negative first
        return _set(ones, {
            (3 * s + 5, 7): -1.0, (5 * s + 2, 0): -1.0, (s + 1, 9): 2.0, (4 * s, 3): 2.0,
            (2 * s + 3, 4): 0.5, (3 * s + 1, 0): -0.5, (6 * s, 1): -0.0, (6 * s, 2): 0.0,
        })
    if case == "ties-in-the-shared-row":
        # the first of each tie is on the row bands 0 and 1 share, or just before it
        return _set(ones, {
            (s, 100): -1.0, (s, 200): -1.0, (s + 1, 0): -1.0,
            (s - 1, 60): 2.0, (s, 50): 2.0, (s, 3): 0.25, (s + 1, 2): -0.25,
        })
    if case == "nan-in-a-later-band":
        rng = np.random.default_rng(5)
        return _set(rng.normal(size=(n, n)), {(1, 4): -10.0, (4 * s + 2, 9): math.nan, (6 * s, 0): math.nan})
    if case == "infinities":
        return _set(ones, {(3 * s, 1): -math.inf, (2 * s + 1, 2): math.inf, (5 * s, 0): -math.inf, (s, 3): 1e-300})
    if case == "inf-then-nan":
        return _set(ones, {(1, 1): -math.inf, (s + 3, 4): math.inf, (3 * s + 3, 5): math.nan})
    if case == "all-nan":
        return np.full((n, n), math.nan)
    # few distinct values, so that every band ties with others, and a rare NaN or infinity
    rng = np.random.default_rng(int(case.split("-")[1]))
    values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, math.inf, -math.inf, math.nan])
    weights = np.array([20, 20, 1, 1, 20, 20, 0.02, 0.02, 0.01])
    return values[rng.choice(values.size, size=(n, n), p=weights / weights.sum())]


CARRY_CASES = (
    "ties-across-bands", "ties-in-the-shared-row", "nan-in-a-later-band", "infinities", "inf-then-nan",
    "all-nan", *(f"random-{seed}" for seed in range(6)),
)


@pytest.mark.parametrize("n", [257, 514])
@pytest.mark.parametrize("case", CARRY_CASES)
def test_picks_carried_across_bands_equal_the_whole_levels(case, n):
    table = _carry_case(case, n)
    assert 5 * _rows_per_band(n) < n  # the level is at least six bands
    centres = _level_centres(((0.0, float(n)),) * 2, n)
    flat, picks, failure, evaluations = _grid_values(_grid_table(table), centres)
    assert failure is None and evaluations == n * n
    assert flat.tobytes() == table.tobytes()
    # argmin's and argmax's index, bit for bit: the first of ties, the first NaN
    assert picks == _whole_level_picks(table.ravel())


def _banded_level(field: ResidualField, centres) -> np.ndarray:
    """The level as bands of ``_rows_per_band`` rows, one call each, evaluate it."""
    xs, ys = centres
    n = xs.size
    rows = _rows_per_band(n)
    level = np.empty((n, n))
    for a in range(0, n - 1, rows - 1):
        level[a : a + rows] = field.residual(xs[np.newaxis, :], ys[a : a + rows, np.newaxis])
    return level.ravel()


@pytest.mark.parametrize(
    "field",
    [
        rect_rolle_residual(parse("2*x + 3*y - 1"), Rectangle(0, 1, 0, 2)),  # f_xy a structural zero
        rect_mvt_residual(parse("3*x*y + x - 2*y"), Rectangle(0.5, 1.5, -1, 2)),
        rect_cauchy_residual(parse("x*y - x"), parse("-2*x*y + y"), Rectangle(1, 2, 1, 3)),
        # every other residual of this sweep's rmvt bilinear cases is 0-d too
        _build_case(THEOREMS["rmvt"], family_from_name("bilinear"), derive_seed(42, 1)),
    ],
    ids=["rolle", "rmvt", "cauchy", "rmvt-generated"],
)
def test_a_residual_constant_on_every_band_is_banded_and_picks_its_first_sample(monkeypatch, field):
    # a band whose residual is one value takes no pass for its picks
    def no_pass(band, start):
        raise AssertionError("a constant band was reduced")

    monkeypatch.setattr(locator, "_band_picks", no_pass)
    for n in (257, 514):
        centres = _level_centres(field.axes, n)
        with np.errstate(all="ignore"):
            assert np.ndim(field.residual(*centres)) == 0
        calls = []
        flat, picks, failure, evaluations = _grid_values(_recorded(field, calls), centres)
        rows = _rows_per_band(n)
        assert calls[0] == (rows, 1) and all(r <= rows for r, _ in calls)
        assert sum(r for r, _ in calls) - (len(calls) - 1) == n
        banded = _banded_level(field, centres)
        assert (failure, evaluations) == (None, n * n)
        assert flat.tobytes() == banded.tobytes() and np.unique(banded).size == 1
        assert picks == _whole_level_picks(banded) == (0, 0, 0)


def test_a_constant_residual_whose_check_reads_both_coordinates_holds_band_sized_temporaries():
    # f_xy is 1, but log's check runs on every sample of x + y: the level array
    # and a few band-sized temporaries, not temporaries the size of the level
    field = rect_mvt_residual(parse("x*y + log(x + y)^0"), Rectangle(1, 2, 1, 2))
    n = 1024
    centres = _level_centres(field.axes, n)
    _grid_values(field, centres)  # compile and warm up outside the trace
    tracemalloc.start()
    try:
        flat, picks, failure, evaluations = _grid_values(field, centres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (failure, evaluations, picks) == (None, n * n, (0, 0, 0))
    assert peak - flat.nbytes < 16 * _rows_per_band(n) * n * flat.itemsize


def test_a_check_that_fails_under_a_constant_residual_is_reported_as_one_call_reports_it(monkeypatch):
    # f_xy is 1 everywhere, but log's argument vanishes on row 128 of 257,
    # whose cell center is y = 0.5, in a later band
    field = rect_mvt_residual(parse("x*y + log((y - 0.5)^2)"), Rectangle(0, 1, 0, 1))
    cfg = LocateConfig(grid_n=257, max_refinements=1)
    report = locate(field, cfg)
    d = report.diagnostics
    assert (report.outcome, d.failure_kind, d.level) == ("failed", "domain", 0)
    assert d.failure.startswith(f"evaluation error at ({0.5 / 257!r}, 0.5): ")
    # the rows up to the last of the band from row a that holds row 128, the
    # row screens of rows a-128 and one scalar sample
    a = _first_band_holding(128, 257)
    assert 0 < a and d.evaluations == (a + _rows_per_band(257) + 129 - a) * 257 + 1
    _one_call_per_level(monkeypatch)
    assert _without_evaluations(locate(field, cfg)) == _without_evaluations(report)


def _one_call_per_level(monkeypatch):
    """Screen every level of a rectangle in one vectorized call, as if one band held it."""
    monkeypatch.setattr(locator, "BAND_BYTES", 8 * MAX_GRID_N * MAX_GRID_N)


def _without_evaluations(report):
    """``report`` with its evaluation count blanked, which banding changes on a failing level."""
    return dataclasses.replace(report, diagnostics=dataclasses.replace(report.diagnostics, evaluations=None))


@pytest.mark.parametrize("after", [0, 1], ids=["before-the-shared-row", "after-the-shared-row"])
def test_a_divisor_that_changes_sign_where_bands_meet_is_a_domain_failure(monkeypatch, after):
    # the first two bands share row rows - 1; the divisor changes sign between
    # it and the row before or after it, at a cell edge, so no sample is a pole
    n = 257
    rows = _rows_per_band(n)
    edge = rows - 1 + after
    field = rect_mvt_residual(parse(f"x*y/(y-{edge / n!r})"), Rectangle(0, 1, 0, 1))
    cfg = LocateConfig(grid_n=n, max_refinements=1)
    report = locate(field, cfg)
    d = report.diagnostics
    first = 0.5 * (1.0 / n)
    sign = "divisor changes sign between samples, so it vanishes between them"
    assert (report.outcome, d.failure_kind, d.level) == ("failed", "domain", 0)
    assert d.failure == f"evaluation error at ({first!r}, {first!r}): {sign}"
    # the rows up to the failing band's last, then, as no row proves it, a
    # screen of every row from that band's first: rows + n rows when band 0
    # fails, 2 * rows - 1 + n - (rows - 1) when band 1 does
    assert d.evaluations == rows * n + n * n
    _one_call_per_level(monkeypatch)
    assert _without_evaluations(locate(field, cfg)) == _without_evaluations(report)


def _nan_above_with_pole(y0: float, pole: float) -> ResidualField:
    """:func:`_nan_above`, divided by ``y - pole`` as a compiled program divides."""
    nan = _nan_above(y0)

    def residual(x, y):
        check_divisor(y - pole)
        return nan.residual(x, y)

    return ResidualField(nan.axes, residual, 1.0, {}, "test")


@pytest.mark.parametrize(
    "field, cfg, failure, evaluations",
    [
        # a pole on row 200 of 257, in the band from row a: the rows up to
        # that band's last, the row screens of rows a-200 and one scalar sample
        (
            rect_mvt_residual(parse(f"x*y/(y-{200.5 * (1.0 / 257)!r})"), Rectangle(0, 1, 0, 1)),
            LocateConfig(grid_n=257, max_refinements=1),
            f"evaluation error at ({0.5 * (1.0 / 257)!r}, {200.5 * (1.0 / 257)!r}): division by zero",
            (_first_band_holding(200, 257) + _rows_per_band(257) + 201 - _first_band_holding(200, 257)) * 257 + 1,
        ),
        # a pole on the last row of the 2048 x 2048 grid, reached after four
        # refinements: the levels before it, their four scalar samples, the
        # whole last level in bands, the row screens from the last band's
        # first row and one scalar sample
        (
            rect_mvt_residual(parse("x*y/(y-0.999755859375)"), Rectangle(0, 1, 0, 1)),
            LocateConfig(grid_n=128),
            f"evaluation error at ({0.5 * (1.0 / 2048)!r}, 0.999755859375): division by zero",
            sum((128 << k) ** 2 for k in range(4)) + 4 + (2048 + 2048 - _first_band_holding(2047, 2048)) * 2048 + 1,
        ),
        # a residual that is not finite from row 231 of 257 on: no band raises
        (
            _nan_above(0.9),
            LocateConfig(grid_n=257, max_refinements=1),
            f"evaluation error at ({0.5 * (1.0 / 257)!r}, {231.5 * (1.0 / 257)!r}): residual is not finite",
            257 * 257,
        ),
        # not finite from row 129 on, and a pole on row 200: the search starts at
        # the first row that is not finite, not at the band that raised, which
        # is not finite from its first row on
        (
            _nan_above_with_pole(0.5, 200.5 * (1.0 / 257)),
            LocateConfig(grid_n=257, max_refinements=1),
            f"evaluation error at ({0.5 * (1.0 / 257)!r}, {129.5 * (1.0 / 257)!r}): residual is not finite",
            (_first_band_holding(200, 257) + _rows_per_band(257)) * 257 + 257 + 1,
        ),
    ],
    ids=["pole-in-a-later-band", "pole-on-the-last-row", "not-finite-in-a-later-band", "not-finite-then-a-pole"],
)
def test_a_grid_that_fails_in_a_later_band_is_reported_as_one_call_reports_it(
    monkeypatch, field, cfg, failure, evaluations
):
    report = locate(field, cfg)
    d = report.diagnostics
    assert (report.outcome, d.failure, d.evaluations) == ("failed", failure, evaluations)
    assert _rows_per_band(cfg.grid_n << d.level) < cfg.grid_n << d.level
    _one_call_per_level(monkeypatch)
    assert _without_evaluations(locate(field, cfg)) == _without_evaluations(report)


def test_a_level0_grid_whose_largest_magnitude_is_minus_tol_is_degenerate():
    tol = 1e-9  # the default tol_factor times scale 1
    report = locate(_table_field({0: -tol, 8: 0.5 * tol}), LocateConfig(grid_n=3))
    assert report.outcome == "degenerate-identically-zero"
    assert (report.diagnostics.grid_min, report.diagnostics.grid_max) == (-tol, 0.5 * tol)
    # one ulp more negative, and the search runs as usual
    beyond = locate(_table_field({0: np.nextafter(-tol, -1.0), 8: 0.5 * tol}), LocateConfig(grid_n=3))
    assert (beyond.outcome, beyond.point.method) == ("found", "grid-hit")


@pytest.mark.parametrize("dims", [1, 2])
def test_grid_extremes_of_a_found_report_are_the_grids(dims):
    if dims == 1:
        field = pompeiu1d_residual(parse("x^3 - x"), 1, 2)
    else:
        field = rect_mvt_residual(parse("x^2*y + sin(x*y)"), Rectangle(0, 1, 0, 1))
    report = locate(field)
    assert (report.outcome, report.diagnostics.level) == ("found", 0)
    centres = [lo + (np.arange(33) + 0.5) * ((hi - lo) / 33) for lo, hi in field.axes]
    grid = field.residual(*reversed(np.ix_(*reversed(centres))))
    assert (report.diagnostics.grid_min, report.diagnostics.grid_max) == (grid.min(), grid.max())
    assert grid.min() < 0.0 < grid.max()


def test_locate_fails_when_no_zero_exists():
    # strictly positive residual: not a theorem field, locator must say failed
    field = _linear_field(0.0, 0.0, 1.0, Rectangle(0, 1, 0, 1))
    cfg = LocateConfig(max_refinements=1)
    report = locate(field, cfg)
    assert report.outcome == "failed"
    assert report.point is None
    assert report.diagnostics.failure is not None


def test_locate_random_linear_fields():
    # R = a*x + b*y + c vanishes on a line; where that line crosses the square,
    # the point found must lie on it to within the tolerance
    rng = random.Random(107)
    rect = Rectangle(0, 1, 0, 1)
    located = 0
    for _ in range(50):
        a = rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)
        b = rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)
        c = rng.uniform(-0.4, 0.4)
        corners = [a * x + b * y + c for x in (0, 1) for y in (0, 1)]
        if min(corners) >= 0.0 or max(corners) <= 0.0:
            continue
        field = _linear_field(a, b, c, rect)
        report = locate(field)
        assert report.outcome == "found"
        p = report.point
        assert p.method in ("grid-hit", "sign-change-bisection")
        assert 0 < p.xi1 < 1 and 0 < p.xi2 < 1
        assert p.residual == field.residual(p.xi1, p.xi2)
        assert abs(a * p.xi1 + b * p.xi2 + c) <= 1e-9
        located += 1
    assert located >= 25


def _grid_index(k: int, n: int, dims: int) -> tuple[int, ...]:
    return tuple(k // n**axis % n for axis in range(dims))


@pytest.mark.parametrize(
    "field",
    [
        _linear_field(1.0, 0.3, -0.6, Rectangle(0, 1, 0, 1)),
        _linear_field(-0.2, 2.0, -1.13, Rectangle(0, 1, 0, 1)),
        pompeiu2d_residual(parse("x^2*y^2"), Rectangle(1, 2, 1, 3)),
        rect_mvt_residual(parse("exp(x+y)"), Rectangle(-1, 1, -1, 1)),
        pompeiu1d_residual(parse("x^2"), 1.0, 2.0),
    ],
    ids=["linear-x", "linear-y", "pompeiu2d", "rmvt-exp", "pompeiu1d"],
)
def test_the_bracket_joins_the_best_sample_to_a_neighbour(field):
    report = locate(field)
    assert report.point.method == "sign-change-bisection"
    dims = len(field.axes)
    k_neg, k_pos = report.diagnostics.sign_cells
    a, b = _grid_index(k_neg, 33, dims), _grid_index(k_pos, 33, dims)
    assert sum(abs(i - j) for i, j in zip(a, b)) == 1


def _no_adjacent_sign_change(x):
    # positive near x = 0.3 with its smallest |R| there; the only sign change
    # is near x = 0.935, 20 cells away
    return 0.001 + (x - 0.3) ** 2 - 3.0 * np.maximum(x - 0.8, 0.0)


def test_without_a_neighbour_of_opposite_sign_the_bracket_is_global():
    field = ResidualField(((0.0, 1.0),), _no_adjacent_sign_change, 1.0, {}, "test")
    values = _no_adjacent_sign_change((np.arange(33) + 0.5) / 33)
    best = int(np.abs(values).argmin())
    assert values[best] > 0 and values[best - 1] > 0 and values[best + 1] > 0
    report = locate(field)
    assert report.outcome == "found"
    assert report.point.method == "sign-change-bisection"
    assert report.diagnostics.sign_cells == (int(values.argmin()), int(values.argmax()))
    assert 0.9 < report.point.xi1 < 0.97


def test_a_neighbour_whose_scalar_sign_disagrees_falls_back_to_the_global_bracket():
    # R = x - 0.49: the best sample is cell 16 (x = 0.5) and its neighbour of
    # opposite sign cell 15, which the scalar path (but not the grid) puts on
    # the positive side, so the two cells do not bracket a zero
    centre_15 = float((np.arange(33) + 0.5)[15] * (1.0 / 33))

    def residual(x):
        if not isinstance(x, np.ndarray) and x == centre_15:
            return 1.0
        return x - 0.49

    field = ResidualField(((0.0, 1.0),), residual, 1.0, {}, "test")
    report = locate(field)
    assert report.outcome == "found"
    assert report.diagnostics.sign_cells == (0, 32)
    assert abs(report.point.xi1 - 0.49) <= 1e-9


@pytest.mark.parametrize("dims", [1, 2])
def test_of_neighbours_of_opposite_sign_and_equal_magnitude_the_first_is_bracketed(dims):
    # R = 0.1 - 2.1 * |p - c|^2 on a 3-cell (3 x 3) grid whose center cell c
    # holds the best sample, 0.1; every neighbour of it reads -2.0
    def residual(*p):
        return 0.1 - 2.1 * sum((q - 1.5) ** 2 for q in p)

    field = ResidualField(((0.0, 3.0),) * dims, residual, 1.0, {}, "test")
    best = 4 if dims == 2 else 1
    neighbours = locator._neighbours(best, 3, dims)
    assert neighbours == ([3, 5, 1, 7] if dims == 2 else [0, 2])
    report = locate(field, LocateConfig(grid_n=3))
    assert (report.outcome, report.point.method) == ("found", "sign-change-bisection")
    # the first in _neighbours' order: along x, below
    assert report.diagnostics.sign_cells == (neighbours[0], best)
    assert 0.5 < report.point.xi1 < 1.5


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_best_sample_that_is_zero_has_no_side(sign):
    # the grid reads +-0.0 at x = 1.5, but the scalar path, which confirms it,
    # reads 0.25 there; a zero has no neighbour of opposite sign, so the
    # bracket joins the extreme samples
    def residual(x):
        if not isinstance(x, np.ndarray) and x == 1.5:
            return 0.25
        return sign * (x - 1.5)

    field = ResidualField(((0.0, 3.0),), residual, 1.0, {}, "test")
    assert math.copysign(1.0, residual(np.array([1.5]))[0]) == sign
    report = locate(field, LocateConfig(grid_n=3))
    assert (report.outcome, report.point.method) == ("found", "sign-change-bisection")
    assert report.diagnostics.sign_cells == ((0, 2) if sign > 0 else (2, 0))
    assert abs(report.point.xi1 - 1.5) <= 1e-9


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_a_level_whose_extreme_is_infinite_keeps_the_last_finite_levels_extremes(value):
    # level 0 (x = 0.5, 1.5, 2.5) reads 1 + x, with no sign change; level 1
    # reads an infinity at x = 0.75, its least or largest sample
    def residual(x):
        if isinstance(x, np.ndarray):
            return np.where(x == 0.75, value, 1.0 + x)
        return value if x == 0.75 else 1.0 + x

    field = ResidualField(((0.0, 3.0),), residual, 1.0, {}, "test")
    report = locate(field, LocateConfig(grid_n=3, max_refinements=1))
    d = report.diagnostics
    assert report.outcome == "failed"
    assert (d.failure, d.failure_kind) == ("evaluation error at (0.75): residual is not finite", "evaluation")
    # the level-0 screen and its one scalar check, then the level-1 screen
    assert (d.level, d.evaluations) == (1, 3 + 1 + 6)
    assert (d.grid_min, d.grid_max) == (1.5, 3.5)


def test_cell_center_offsets_are_exact_halves():
    # locate places cell i's center at lo + (i + 0.5) * step, with every i + 0.5 exact
    for n in range(3, MAX_GRID_N + 1):
        assert np.arange(0.5, n).tobytes() == (np.arange(n) + 0.5).tobytes()


def _adversarial_residuals():
    for m in (1 / 3, 0.5 + 1e-7, 0.999, 1e-3, 0.7071):
        yield lambda t, m=m: (t - m) ** 9  # a flat zero
        yield lambda t, m=m: math.tanh(1e6 * (t - m))  # a steep one
        # two values across the whole bracket, however close the ends come
        yield lambda t, m=m: 1.0 if t >= m else -1.0
        yield lambda t, m=m: 1e6 if t >= m else -1.0
        yield lambda t, m=m: 1.0 if t >= m else -1e6


def test_bisect_steps_stay_within_twice_bisection():
    bound = 2 * math.ceil(math.log2(1 / BISECT_TOL)) + 2
    for line in _adversarial_residuals():
        steps = []

        def rfunc(p):
            steps.append(p)
            return line(p[0])

        p, r = _bisect(rfunc, (0.0,), line(0.0), (1.0,), line(1.0), 0.0)
        assert len(steps) <= bound
        # the result is the last point evaluated
        assert p == steps[-1] and r == line(p[0])


def test_bisect_returns_an_endpoint_already_within_tolerance_without_a_step():
    def rfunc(p):
        raise AssertionError("no step is taken")

    assert _bisect(rfunc, (0.25, 0.5), -1e-12, (0.75, 0.5), 2.0, 1e-9) == ((0.25, 0.5), -1e-12)
    assert _bisect(rfunc, (0.25,), -2.0, (0.75,), 1e-12, 1e-9) == ((0.75,), 1e-12)


# 10/33 is no cell center of the 33- or 66-cell grid on [0, 1]: the nearest are
# 0.5/33 and 0.5/66 away
_SCALAR_POLE = 10.0 / 33.0


def _scalar_pole_field(residual) -> ResidualField:
    """An interval field whose residual is finite on every grid, but on a
    scalar raises OutOfDomainError within 0.005 of 10/33, as a pole between
    the cell centers would."""

    def field_residual(x):
        if not isinstance(x, np.ndarray) and abs(x - _SCALAR_POLE) < 0.005:
            raise OutOfDomainError("division by zero")
        return residual(x)

    return ResidualField(((0.0, 1.0),), field_residual, 1.0, {}, "test")


@pytest.mark.parametrize(
    "residual",
    [
        # a sign change on the grid: false position steps onto the pole
        pytest.param(lambda x: x - _SCALAR_POLE, id="bracket-search"),
        # none: after two levels, coordinate descent halves its step onto it
        pytest.param(lambda x: (x - _SCALAR_POLE) ** 2 + 1e-3, id="minimizer"),
    ],
)
def test_a_scalar_evaluation_error_in_the_search_is_a_classified_failure(residual):
    cfg = LocateConfig(grid_n=33, max_refinements=1)
    report = locate(_scalar_pole_field(residual), cfg)
    assert report.outcome == "failed" and report.point is None
    assert report.diagnostics.failure_kind == "domain"
    assert report.diagnostics.failure == "division by zero"


def test_scalar_evaluations_per_found_case_are_within_budget():
    # the seed-42 poly4 sweep cases of every theorem; everything but the grid
    # samples is a scalar evaluation
    cfg = LocateConfig()
    family = family_from_name("poly4")
    scalar = []
    for theorem in THEOREMS.values():
        for index in range(200):
            try:
                field = _build_case(theorem, family, derive_seed(42, index))
            except (DegenerateError, DomainError, HypothesisError, EvaluationError,
                    GenerationError):
                continue
            report = locate(field, cfg)
            if report.outcome != "found":
                continue
            d = report.diagnostics
            grid = sum((cfg.grid_n << level) ** len(field.axes) for level in range(d.level + 1))
            scalar.append(d.evaluations - grid)
    scalar.sort()
    assert len(scalar) >= 1300
    assert scalar[len(scalar) // 2] <= 10
    assert scalar[-1] <= 16


def test_verify_at_values_and_domain():
    field = pompeiu2d_residual(parse("x^2*y^2"), Rectangle(1, 2, 1, 3))
    near_curve = verify_at(field, 1.5, 1.632993)
    assert abs(near_curve) <= 1e-5
    off_curve = verify_at(field, 1.5, 2.5)
    assert off_curve == pytest.approx(8.0625, rel=1e-12)
    with pytest.raises(DomainError):
        verify_at(field, 0.5, 2.0)


def test_verify_at_rejects_a_non_finite_residual():
    field = rect_mvt_residual(parse("1e308*sin(x)*sin(y)"), Rectangle(0, 3, 0, 3))
    with pytest.raises(EvaluationError, match="residual is not finite"):
        verify_at(field, 0.1, 0.1)


def test_verify_at_names_the_rectangle_it_checks():
    field = rect_mvt_residual(parse("x^2*y"), Rectangle(0, 1, 0, 1))
    with pytest.raises(
        DomainError, match=r"\(1\.5, 0\.5\) is not strictly inside Rectangle\(x1=0, x2=1, y1=0, y2=1\)"
    ):
        verify_at(field, 1.5, 0.5)


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

    field = ResidualField(rect.axes, residual, 1.0, {}, "test")
    report = locate(field, LocateConfig(grid_n=5, max_refinements=4))
    assert report.outcome == "found"
    assert report.diagnostics.level >= 2


def test_locate_minimization_fallback_on_tangent_zero():
    # residual touches zero without a sign change; the coordinate-descent
    # fallback has to close the last gap
    rect = Rectangle(0, 1, 0, 1)

    def residual(x, y):
        return (x - 0.5) ** 2 + (y - 0.5) ** 2

    field = ResidualField(rect.axes, residual, 1.0, {}, "test")
    report = locate(field, LocateConfig(grid_n=4, max_refinements=1, tol_factor=1e-7))
    assert report.outcome == "found"
    assert report.point.method == "minimization"
    assert abs(report.point.xi1 - 0.5) <= 1e-3
    assert abs(report.point.xi2 - 0.5) <= 1e-3


def test_locate_line_minimization_fallback_on_tangent_zero():
    # a line residual that touches zero without a sign change
    field = ResidualField(((1.0, 2.0),), lambda x: (x - 1.3) ** 2, 1.0, {}, "test")
    report = locate(field, LocateConfig(grid_n=4, max_refinements=1, tol_factor=1e-7))
    assert report.outcome == "found"
    assert report.point.method == "minimization"
    assert report.point.xi2 is None
    assert abs(report.point.xi1 - 1.3) <= 1e-3


def _lift(line: ResidualField) -> ResidualField:
    """The same residual on [x1, x2] x [0, 1], constant along y."""
    fn = line.residual
    return ResidualField(
        (*line.axes, (0, 1)), lambda x, y: fn(x) + 0.0 * y, line.scale, {}, line.tag
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
        yield ResidualField(
            ((rect.x1, rect.x2),), lambda x, m=m, h=h: (x - m) ** 2 - h * h, 1.0, {}, "test"
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


@pytest.mark.parametrize(
    "axes",
    [((1.0, 1.0 + 2**-51),), ((0.0, 1.0), (0.0, 5e-324)), ((-1.0, -1.0 + 2**-53), (0.0, 1.0))],
)
def test_locate_rejects_an_axis_whose_cell_centers_round_onto_its_boundary(axes):
    calls = []

    def residual(*p):
        calls.append(p)
        return p[0] - p[0]

    with pytest.raises(ValueError, match="too narrow to search"):
        locate(ResidualField(axes, residual, 1.0, {}, "test"))
    assert calls == []


def test_locate_on_narrow_axes_reports_only_interior_points():
    # at x = 1, cell centers of an axis a few ulps wide round onto x = 1; the
    # end centers of the default config's finest grid, 528 cells, lie inside
    # from about 528 ulps on
    f = parse("x^2*y^3+x")
    outcomes = set()
    for ulps in [*range(1, 40), *range(500, 600, 4)]:
        x2 = 1.0 + ulps * 2**-52
        try:
            report = locate(pompeiu2d_residual(f, Rectangle(1.0, x2, 1.0, 2.0)))
        except ValueError:
            outcomes.add("rejected")
            continue
        outcomes.add(report.outcome)
        assert 1.0 < report.point.xi1 < x2 and 1.0 < report.point.xi2 < 2.0
    assert outcomes == {"rejected", "found"}


def test_locate_failure_kinds():
    # a pole of f on a grid point: f leaves its domain inside the square
    pole = locate(rect_mvt_residual(parse("1/(x-0.5)*y^2"), Rectangle(0, 1, 0, 1)))
    assert (pole.outcome, pole.diagnostics.failure_kind) == ("failed", "domain")
    line_pole = locate(pompeiu1d_residual(parse("1/(x-1.5)"), 1, 2))
    assert line_pole.diagnostics.failure_kind == "domain"
    # an overflow is not a domain error
    overflow = locate(rect_mvt_residual(parse("exp(4000*x*(1-x)*y)"), Rectangle(0, 1, 0, 1)))
    assert overflow.diagnostics.failure_kind == "evaluation"
    # a residual the search cannot bring within tolerance
    field = _linear_field(0.0, 0.0, 1.0, Rectangle(0, 1, 0, 1))
    exhausted = locate(field, LocateConfig(max_refinements=1))
    assert exhausted.diagnostics.failure_kind == "exhausted"
    found = locate(rect_mvt_residual(parse("x^2*y"), Rectangle(0, 1, 0, 1)))
    assert (found.outcome, found.diagnostics.failure, found.diagnostics.failure_kind) == (
        "found",
        None,
        None,
    )


# -- the locate contract, and how a translation moves its points -----------------


FAILURE_KINDS = ("domain", "evaluation", "exhausted")


def _drawn_case(draw, st, tag):
    """A config and the inputs of a field of theorem ``tag``, drawn by Hypothesis."""
    theorem = THEOREMS[tag]

    def axis():
        if theorem.zero_free:
            lo = draw(st.floats(0.1, 3.0))
            hi = lo + draw(st.floats(0.05, 3.0))
            return (-hi, -lo) if draw(st.booleans()) else (lo, hi)
        lo = draw(st.floats(-4.0, 3.5))
        return lo, lo + draw(st.floats(0.05, 4.0))

    cfg = LocateConfig(
        grid_n=draw(st.integers(3, 33)),
        max_refinements=draw(st.integers(1, 3)),
        tol_factor=draw(st.sampled_from((1e-12, 1e-9, 1e-6))),
    )
    if theorem.one_dim:
        bounds = axis()
        c = [draw(st.floats(-2.0, 2.0)) for _ in range(4)]
        f = parse(f"{c[0]!r}*x^3 + {c[1]!r}*x^2 + {c[2]!r}*x + {c[3]!r}")
        # a positive slope everywhere keeps g' away from zero
        a, b = draw(st.floats(0.5, 2.0)), draw(st.floats(0.1, 1.0))
        g = parse(f"{a!r}*x + {b!r}*x^3") if theorem.needs_g else None
        return f, g, bounds, cfg
    rect = Rectangle(*axis(), *axis())
    family = family_from_name(draw(st.sampled_from(("poly4", "bilinear", "separable", "exp-poly", "rational"))))
    seed = draw(st.integers(0, 2**32 - 1))
    f = generate_function(family, derive_seed(seed, 1), rect)
    if draw(st.booleans()):
        # a pole on a vertical line, inside the rectangle or near it, which no
        # theorem allows: the contract then asks for a failure with its kind
        c = rect.x1 + draw(st.floats(-0.25, 1.25)) * rect.width
        pole = BinOp("/", BinOp("*", Const(0.01), Var("y")), BinOp("-", Var("x"), const(c)))
        f = BinOp("+", f, pole)
    if tag == "rolle":
        # remove the bilinear interpolant's mixed part, so the corner identity holds
        delta = corner_difference(f, rect)
        f = BinOp("-", f, BinOp("*", const(delta / rect.area), BinOp("*", Var("x"), Var("y"))))
    g = generate_function(family, derive_seed(seed, 2), rect) if theorem.needs_g else None
    return f, g, (rect.x1, rect.x2, rect.y1, rect.y2), cfg


@pytest.mark.parametrize("tag", tuple(THEOREMS))
def test_locate_contract_holds_on_drawn_cases(tag):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # derandomize=True fixes Hypothesis's random stream, not every pool it draws
    # from: in about 5% of the numbers it draws (``_maybe_draw_constant``), it
    # takes one of the numeric literals of the local modules imported so far,
    # ``src/rectmvt`` and the test modules among them (``_get_local_constants``
    # in ``hypothesis/internal/conjecture/providers.py``, 6.155).  So a changed
    # literal in any of them can change the cases drawn here, and running this
    # file alone can draw other cases than the whole suite does.
    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        try:
            f, g, bounds, cfg = _drawn_case(data.draw, st, tag)
            field = build_field(tag, f, g, bounds)
        except (DegenerateError, DomainError, HypothesisError, EvaluationError, GenerationError):
            return  # the theorem does not apply, so locate has no contract here
        report = locate(field, cfg)
        if report.outcome == "failed":
            assert report.point is None
            assert report.diagnostics.failure_kind in FAILURE_KINDS
            return
        p = report.point
        point = (p.xi1,) if p.xi2 is None else (p.xi1, p.xi2)
        assert len(point) == len(field.axes)
        assert all(lo < c < hi for c, (lo, hi) in zip(point, field.axes))
        assert abs(p.residual) <= cfg.tol_factor * field.scale
        assert verify_at(field, *point) == p.residual

    check()


def test_translating_f_and_the_rectangle_translates_rmvt_points():
    # x - a and y - b take exact derivatives, so the shifted residual at p + (a, b)
    # differs from f's at p only by the rounding of the shifted corners and
    # area: allow 2*tau
    tau = LocateConfig().tol_factor
    rng = random.Random(1618)
    family = family_from_name("poly4")
    found = 0
    for i in range(100):
        seed = derive_seed(1618, i)
        rect = generate_rectangle(derive_seed(seed, 0))
        f = generate_function(family, derive_seed(seed, 1), rect)
        a, b = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        moved = Rectangle(rect.x1 + a, rect.x2 + a, rect.y1 + b, rect.y2 + b)
        shift = {"x": BinOp("-", Var("x"), Const(a)), "y": BinOp("-", Var("y"), Const(b))}
        report = locate(rect_mvt_residual(substitute(f, shift), moved))
        if report.outcome != "found":
            continue
        found += 1
        field = rect_mvt_residual(f, rect)
        p = report.point
        assert abs(verify_at(field, p.xi1 - a, p.xi2 - b)) <= 2 * tau * field.scale
    assert found >= 90
