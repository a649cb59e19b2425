"""Locate a zero of a residual field in the open rectangle or interval.

The theorems guarantee a zero of the continuous residual exists strictly
inside the domain, so the search never needs derivatives of the residual:
sample cell centers (never the boundary), bracket the sample nearest zero with
a neighbouring cell of opposite sign, close the bracket by safeguarded false
position (within twice bisection's step count), refine the grid if necessary,
and fall back to coordinate descent on |R|.
Grid screening is vectorized.  Every level is written into one level array in
row bands of ``BAND_BYTES``, adjacent bands sharing a row, and each band is
reduced while it is still in cache to its two extremes, which also tell
whether the level is finite, and its sample nearest zero; so no pass over the
whole level follows, and the screen holds the level array plus a few
band-sized temporaries, which reuse heap memory rather than fault in fresh
pages.  When a band raises, the grid is searched row by row, from where it
failed, for its first failing sample or for a divisor that changes sign
between samples.  Every residual that ends up in a report is
re-evaluated through the scalar path so reports are exactly reproducible.
One search serves both domains: it runs over the field's per-axis bounds, one
axis for an interval and two for a rectangle, whose grid is indexed [iy, ix].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import EvaluationError, OutOfDomainError, SignChangeError
from .theorems import DomainError, Rectangle, ResidualField

Point = tuple[float, ...]

__all__ = [
    "LocateConfig",
    "LocateDiagnostics",
    "LocateReport",
    "MeanValuePoint",
    "locate",
    "locate_line",
    "verify_at",
]


# most cell centers per axis on the finest grid; a rectangle screens the square
# of this, so it bounds the memory of the largest screen
MAX_GRID_N = 2048
# bytes of one float row band of a rectangle's screen, well inside L2.  A band
# program holds several band-sized temporaries at once; at 64 KiB they are
# reused heap blocks, while at 96 KiB those of the costliest programs made
# glibc trim the heap top and fault it back in: a 257 x 257 screen of a rational
# boggio2d residual took about 1,000 minor page faults there, and none here
BAND_BYTES = 64 * 1024
# fewest rows of a band, which sets the band of levels wider than 682 cells:
# each band costs a Python call of every program closure, and screens of
# 1024- and 2048-wide levels took 10-50% longer in 64 KiB bands (8 and 4 rows)
# than in 12 rows
MIN_BAND_ROWS = 12
# a bracket search stops once its segment parameter is narrower than this, and
# the minimizer once its steps are
BISECT_TOL = 1e-12
# most coordinate-descent sweeps of the fallback minimizer
MINIMIZE_ITERS = 200


@dataclass(frozen=True)
class LocateConfig:
    """Search parameters; the residual tolerance is ``tol_factor * field.scale``."""

    grid_n: int = 33
    max_refinements: int = 4
    tol_factor: float = 1e-9

    def __post_init__(self):
        # a float count puts cell centers on the boundary
        for name in ("grid_n", "max_refinements"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.grid_n < 3:
            raise ValueError("grid_n must be at least 3")
        if self.tol_factor <= 0:
            raise ValueError("tol_factor must be positive")
        if not math.isfinite(self.tol_factor):
            raise ValueError("tol_factor must be finite")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")
        # grid_n > MAX_GRID_N >> r is grid_n * 2**r > MAX_GRID_N without forming 2**r
        if self.grid_n > MAX_GRID_N >> self.max_refinements:
            raise ValueError(
                f"grid_n * 2**max_refinements must be at most {MAX_GRID_N}, "
                f"got {self.grid_n} * 2**{self.max_refinements}"
            )


@dataclass(frozen=True)
class MeanValuePoint:
    xi1: float
    xi2: Optional[float]  # None on an interval
    residual: float
    method: str  # grid-hit | sign-change-bisection | minimization


def _failure_kind(exc: EvaluationError) -> str:
    return "domain" if isinstance(exc, OutOfDomainError) else "evaluation"


@dataclass(frozen=True)
class LocateDiagnostics:
    grid_min: float
    grid_max: float
    sign_cells: Optional[tuple[int, int]]
    level: int
    evaluations: int
    failure: Optional[str] = None
    # set with failure: "domain" when f left its domain at an interior point (a
    # pole, a log or sqrt of a non-positive value, a fractional power of a
    # negative base), so f violates the theorem's differentiability hypothesis;
    # "evaluation" for any other evaluation failure, such as an overflow to a
    # non-finite residual; "exhausted" when no residual came within tolerance
    failure_kind: Optional[str] = None


@dataclass(frozen=True)
class LocateReport:
    outcome: str  # found | degenerate-identically-zero | failed
    point: Optional[MeanValuePoint]
    diagnostics: LocateDiagnostics


def _scalar_residual(field: ResidualField, p: Point) -> float:
    """Residual at ``p``, whose coordinates must already be Python floats."""
    return float(field.residual(*p))


def _fmt(p: Point) -> str:
    return "(" + ", ".join(map(repr, p)) + ")"


def _mean_value_point(p: Point, residual: float, method: str) -> MeanValuePoint:
    return MeanValuePoint(p[0], p[1] if len(p) > 1 else None, residual, method)


def _check_inside(field: ResidualField, p: Point, what: str) -> None:
    axes = field.axes
    if len(p) != len(axes):
        raise ValueError(f"{what} {_fmt(p)} needs {len(axes)} coordinates")
    if not all(lo < c < hi for c, (lo, hi) in zip(p, axes)):
        domain = Rectangle(*axes[0], *axes[1]) if len(axes) == 2 else list(axes[0])
        raise DomainError(f"{what} {_fmt(p)} is not strictly inside {domain}")


def _cell(centres: list[np.ndarray], k: int) -> Point:
    """Cell center at row-major flat index ``k``, whose x index varies fastest."""
    point = []
    for c in centres:
        k, i = divmod(k, c.size)
        point.append(c.item(i))
    return tuple(point)


def _rows(field: ResidualField, centres: list[np.ndarray], a: int, b: int):
    """Residual on rows ``a`` to ``b - 1`` (y centers) of the cell-center grid,
    as an array that broadcasts to ``(b - a, n)``; an interval's grid is its one
    row.  Call it under ``np.errstate(all="ignore")``."""
    if len(centres) == 1:
        return field.residual(centres[0])
    xs, ys = centres
    return field.residual(xs[np.newaxis, :], ys[a:b, np.newaxis])


def _band_picks(band: np.ndarray, start: int) -> tuple[int, int, int]:
    """Flat indices of ``band``'s least and largest values and of its value of
    least magnitude, as argmin and argmax pick them (the first of ties, and the
    first NaN if any), offset by ``start``."""
    return start + int(band.argmin()), start + int(band.argmax()), start + int(np.abs(band).argmin())


def _grid_values(field: ResidualField, centres: list[np.ndarray]):
    """Residual on the cell-center grid, flattened in row-major order, as
    ``(values, picks, failure, evaluations)``: either the first two or the
    failure are None.  ``picks`` is ``(k_lo, k_hi, k_best)``, the flat indices
    that ``values.argmin()``, ``values.argmax()`` and
    ``np.abs(values).argmin()`` return, and a failure is
    :func:`_first_failure`'s ``(point, message, kind)``.

    The grid is written into one level array in bands of at most
    ``max(MIN_BAND_ROWS, BAND_BYTES // (8 * n))`` rows (an interval is one
    row), adjacent bands sharing a row, so a divisor that changes sign between
    two adjacent rows still raises in one band.  Each band is reduced to its
    picks right after it is written, while it is in cache, and the level's
    picks are those of the bands by argmin's rules: the first band's of ties,
    and the first NaN wins; a band whose residual is one value (a 0-d result,
    as the mixed partial of a bilinear f is) picks its first sample without a
    pass.  Every band has the same height whatever its residual costs, so even
    a check over both coordinates in a term no component read depends on (as in
    ``log(x + y)^0``) holds only band-sized temporaries.  When a band raises,
    each row up to its last counts once among the evaluations, and the search
    for the first failing sample starts at the first row above the band that
    is not finite, or else at the band's first row: a finite row of a band
    that did not raise would not raise alone either.  So a failing level is
    reported as one call over it reports it, but for two cases: when two
    different checks fail in different bands and no row fails, the raising
    band's error is reported; and a divisor whose sign change straddles an
    all-NaN shared row raises in no band, so the level is reported as not
    finite.
    """
    n = centres[0].size
    height = centres[1].size if len(centres) > 1 else 1
    level = np.empty((height, n))
    flat = level.ravel()
    rows = max(MIN_BAND_ROWS, BAND_BYTES // (8 * n))
    picks = []
    a, b = 0, min(rows, height)
    try:
        with np.errstate(all="ignore"):
            while True:
                values = _rows(field, centres, a, b)
                level[a:b] = values
                if isinstance(values, np.ndarray) and values.ndim:
                    picks.append(_band_picks(flat[a * n : b * n], a * n))
                else:
                    picks.append((a * n,) * 3)  # one value fills the band
                if b == height:
                    break
                a, b = b - 1, min(b - 1 + rows, height)
    except EvaluationError as exc:
        bad = ~np.isfinite(level[:a]).all(axis=1)
        failure, evals = _first_failure(field, centres, int(bad.argmax()) if bad.any() else a, exc)
        return None, None, failure, b * n + evals
    if len(picks) == 1:
        return flat, picks[0], None, level.size
    # the bands' picks reduced again by the same rules: the first band's of ties
    k = np.array(picks)
    v = flat[k]
    picks = int(k[v[:, 0].argmin(), 0]), int(k[v[:, 1].argmax(), 1]), int(k[np.abs(v[:, 2]).argmin(), 2])
    return flat, picks, None, level.size


def _first_failure(
    field: ResidualField, centres: list[np.ndarray], start: int, error: EvaluationError
):
    """Search a grid one of whose bands raised ``error`` for the first cell, in
    row-major order from row ``start`` on, whose scalar residual raises or is
    not finite; returns ``(failure, evaluations)`` of the search alone.

    A rectangle is screened one row (one y center) at a time, and only a row
    that raises or is not finite is scanned on the scalar path.  So a sample
    that fails on the scalar path alone (``math`` and numpy round a function
    differently there) is skipped with its clean row, and a later failing row
    is reported.  A divisor that takes both signs on a row, or on an
    interval's grid, vanishes between two of its samples, but at none of them
    (:class:`SignChangeError`): that proof is reported at once, as a domain
    failure at the row's first cell.  When no row fails, ``error`` is reported
    at the grid's first cell.  A divisor that dips to zero between samples
    without changing sign on them is missed.
    """
    n = centres[0].size
    evals = 0
    for i in range(start, math.prod(c.size for c in centres) // n):
        if len(centres) > 1:
            evals += n
            try:
                with np.errstate(all="ignore"):
                    row = _rows(field, centres, i, i + 1)
                if np.isfinite(row).all():
                    continue
            except SignChangeError as exc:
                return (_cell(centres, i * n), str(exc), "domain"), evals
            except EvaluationError:
                pass
        elif isinstance(error, SignChangeError):
            break
        for k in range(i * n, i * n + n):
            p = _cell(centres, k)
            evals += 1
            try:
                if not math.isfinite(_scalar_residual(field, p)):
                    return (p, "residual is not finite", "evaluation"), evals
            except EvaluationError as exc:
                return (p, str(exc), _failure_kind(exc)), evals
    if isinstance(error, SignChangeError):
        return (_cell(centres, 0), str(error), "domain"), evals
    return (_cell(centres, 0), "vectorized evaluation failed", "evaluation"), evals


def _bisect(rfunc, p_neg, r_neg, p_pos, r_pos, residual_tol):
    """Safeguarded false position along the segment p_neg -> p_pos; returns
    (point, residual), the last point evaluated.

    A step evaluates where the chord through the bracket's end values crosses
    zero (Illinois false position: while false-position steps keep moving the
    same end, the other end's value is halved once more for each, so the chord
    soon falls past the zero).  After k steps the parameter bracket is at most
    2**-((k - 2) // 2) wide: a step that could leave it wider is a midpoint
    step instead, so at most twice bisection's step count plus two are taken.
    Stops as soon as |R| <= residual_tol or the parameter width drops below
    ``BISECT_TOL``.  The endpoints must already satisfy R(p_neg) < 0 < R(p_pos).
    """
    if abs(r_neg) <= residual_tol:
        return p_neg, r_neg
    if abs(r_pos) <= residual_tol:
        return p_pos, r_pos
    lo, hi = 0.0, 1.0  # lo parameterizes the negative end
    f_lo, f_hi = r_neg, r_pos
    span = tuple((a, b - a) for a, b in zip(p_neg, p_pos))
    p, r = p_neg, r_neg
    k = 0  # steps taken
    # the end that false position last moved (-1 lo, 1 hi), and how often in a row
    moved, run = 0, 0
    while hi - lo > BISECT_TOL:
        chord = hi - lo <= 0.5 ** ((k - 1) // 2)
        t = 0.5 * (lo + hi)
        if chord:
            weight = 0.5 ** max(run - 1, 0)
            a, b = (f_lo, f_hi * weight) if moved < 0 else (f_lo * weight, f_hi)
            s = lo + (hi - lo) * (a / (a - b))
            if lo < s < hi:  # not when it rounds onto an end or is NaN
                t = s
        p = tuple(a + t * d for a, d in span)
        r = rfunc(p)
        k += 1
        if abs(r) <= residual_tol:
            return p, r
        side = -1 if r < 0.0 else 1
        if side < 0:
            lo, f_lo = t, r
        else:
            hi, f_hi = t, r
        if chord:
            run = run + 1 if side == moved else 1
            moved = side
    return p, r


def _neighbours(k: int, n: int, dims: int) -> list[int]:
    """Flat indices of the cells next to cell ``k`` of an n-per-axis grid,
    along x and then along y; x varies fastest, as in :func:`_cell`."""
    out = []
    stride = 1
    for _ in range(dims):
        i = k // stride % n
        if i > 0:
            out.append(k - stride)
        if i < n - 1:
            out.append(k + stride)
        stride *= n
    return out


def _check_centres(axes, cfg: LocateConfig) -> None:
    """Raise ``ValueError`` when a cell center of some grid level, the edge of
    the minimizer's hull or the domain center would round onto the boundary of
    its axis, so that the search could report a point that is not inside."""
    for lo, hi in axes:
        inside = lo < 0.5 * (lo + hi) < hi
        n = cfg.grid_n
        for _ in range(cfg.max_refinements + 1):
            # the first and last cell centers, computed as ``locate`` computes them
            step = (hi - lo) / n
            inside = inside and lo < lo + 0.5 * step and lo + (n - 0.5) * step < hi
            n *= 2
        if not (inside and hi - 0.5 * step < hi):
            raise ValueError(
                f"axis [{lo!r}, {hi!r}] is too narrow to search: a grid cell center "
                "or the domain center rounds onto its boundary"
            )


# off-grid probes that confirm a residual which vanishes on the whole level-0
# grid, as fractions of each axis; the golden section is irrational, so no cell
# center of any grid lies on them
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PROBES = ((1.0 - _GOLDEN, _GOLDEN), (_GOLDEN, 1.0 - _GOLDEN))


def locate(field: ResidualField, cfg: LocateConfig | None = None) -> LocateReport:
    """Find a point of the open rectangle or interval where the residual vanishes.

    Strategy: sample cell centers, accept any sample already within tolerance,
    otherwise run safeguarded false position from the smallest-|R| sample to
    its neighbouring cell of opposite sign (or, when no neighbour has one,
    between the most negative and most positive samples); refine the grid
    (doubling) up to the cap, then coordinate-descend on |R| from the best
    sample.  A level-0 grid within tolerance everywhere whose domain center
    and two off-grid probes are within tolerance too is reported as
    ``degenerate-identically-zero`` with the domain center.  On an interval
    the point's ``xi2`` is None.  An axis so narrow that a cell center or the
    domain center would round onto its boundary, or a tolerance that is not
    finite, raises ``ValueError`` before anything is evaluated.
    """
    cfg = cfg or LocateConfig()
    axes = field.axes
    _check_centres(axes, cfg)
    tol = cfg.tol_factor * field.scale
    if not math.isfinite(tol):
        raise ValueError(f"tol_factor * scale is not finite: {cfg.tol_factor!r} * {field.scale!r}")
    evals = 0
    grid_min = math.inf
    grid_max = -math.inf
    best: Optional[tuple[Point, float]] = None  # (point, residual) scalar-confirmed
    level = 0
    sign_cells: Optional[tuple[int, int]] = None

    def diag() -> LocateDiagnostics:
        return LocateDiagnostics(grid_min, grid_max, sign_cells, level, evals)

    def failed(failure: str, kind: str) -> LocateReport:
        d = LocateDiagnostics(grid_min, grid_max, sign_cells, level, evals, failure, kind)
        return LocateReport("failed", None, d)

    def counted(p: Point) -> float:
        nonlocal evals
        r = _scalar_residual(field, p)
        evals += 1
        return r

    for level in range(cfg.max_refinements + 1):
        n = cfg.grid_n * (1 << level)
        steps = tuple((hi - lo) / n for lo, hi in axes)
        half = np.arange(0.5, n)  # i + 0.5 for each cell i, exactly
        centres = [lo + half * step for (lo, _), step in zip(axes, steps)]
        flat, picks, failure, samples = _grid_values(field, centres)
        evals += samples
        if failure is None:
            # argmin and argmax stop at the first NaN, and an infinity is an
            # extreme, so the grid is finite exactly when both extremes are
            k_lo, k_hi, k_best = picks
            v_lo, v_hi = flat.item(k_lo), flat.item(k_hi)
            if not (math.isfinite(v_lo) and math.isfinite(v_hi)):
                k = int((~np.isfinite(flat)).argmax())
                failure = (_cell(centres, k), "residual is not finite", "evaluation")
        if failure is not None:
            p, msg, kind = failure
            return failed(f"evaluation error at {_fmt(p)}: {msg}", kind)
        grid_min, grid_max = v_lo, v_hi

        try:
            if level == 0 and max(-grid_min, grid_max) <= tol:
                center = tuple(0.5 * (lo + hi) for lo, hi in axes)
                r_center = counted(center)
                probes = (
                    tuple(lo + f * (hi - lo) for f, (lo, hi) in zip(fractions, axes))
                    for fractions in _PROBES
                )
                if abs(r_center) <= tol and all(abs(counted(q)) <= tol for q in probes):
                    point = _mean_value_point(center, r_center, "grid-hit")
                    return LocateReport("degenerate-identically-zero", point, diag())
                # the grid missed where the residual lives: search as usual

            candidate = _cell(centres, k_best)
            r_candidate = counted(candidate)
            if best is None or abs(r_candidate) < abs(best[1]):
                best = (candidate, r_candidate)
            if abs(r_candidate) <= tol:
                point = _mean_value_point(candidate, r_candidate, "grid-hit")
                return LocateReport("found", point, diag())
            if not grid_min < 0.0 < grid_max:
                continue  # no sign change: refine and try again

            # bracket the best sample with its neighbour of opposite sign whose
            # |R| is largest; fall back to the extreme samples when it has none,
            # or when the scalar residuals disagree with the grid's signs
            pairs = [(k_lo, k_hi)]  # (negative, positive)
            v_best = flat.item(k_best)
            opposite = {}  # |R| of each neighbour of opposite sign; a zero has no sign
            for k in _neighbours(k_best, n, len(axes)):
                v = flat.item(k)
                if v < 0.0 < v_best or v_best < 0.0 < v:
                    opposite[k] = abs(v)
            if opposite:
                k_other = max(opposite, key=opposite.__getitem__)  # the first of ties
                pairs.insert(0, (k_best, k_other) if v_best < 0.0 else (k_other, k_best))
            scalars = {k_best: r_candidate}
            for k_neg, k_pos in pairs:
                for k in (k_neg, k_pos):
                    if k not in scalars:
                        scalars[k] = counted(_cell(centres, k))
                if not scalars[k_neg] < 0.0 < scalars[k_pos]:
                    continue
                sign_cells = (k_neg, k_pos)
                p_neg, p_pos = _cell(centres, k_neg), _cell(centres, k_pos)
                p, r = _bisect(counted, p_neg, scalars[k_neg], p_pos, scalars[k_pos], tol)
                if abs(r) < abs(best[1]):
                    best = (p, r)
                if abs(r) <= tol:
                    point = _mean_value_point(p, r, "sign-change-bisection")
                    return LocateReport("found", point, diag())
                break
        except EvaluationError as exc:
            return failed(str(exc), _failure_kind(exc))
        # no sign change (or the search fell short): refine and try again

    # last resort: coordinate descent on |R| from the best sample seen
    p, cur_signed = best
    cur_abs = abs(cur_signed)
    # stay on the strict interior (the cell-center hull of the finest grid)
    hull = [(lo + 0.5 * step, hi - 0.5 * step) for (lo, hi), step in zip(axes, steps)]
    try:
        for _ in range(MINIMIZE_ITERS):
            if cur_abs <= tol:
                break
            improved = False
            for k, step in enumerate(steps):
                for move in (step, -step):
                    q = tuple(
                        min(max(c + (move if j == k else 0.0), lo), hi)
                        for j, (c, (lo, hi)) in enumerate(zip(p, hull))
                    )
                    if q == p:
                        continue
                    r = counted(q)
                    if abs(r) < cur_abs:
                        p, cur_abs, cur_signed = q, abs(r), r
                        improved = True
            if not improved:
                steps = tuple(0.5 * step for step in steps)
                if max(steps) < BISECT_TOL:
                    break
    except EvaluationError as exc:
        return failed(str(exc), _failure_kind(exc))

    if cur_abs <= tol:
        point = _mean_value_point(p, cur_signed, "minimization")
        return LocateReport("found", point, diag())
    return failed(f"no residual below tolerance {tol!r}; best |R| = {cur_abs!r}", "exhausted")


# the one-dimensional entry point before ``locate`` took intervals; kept as an
# alias because callers (the benchmark under perfbench/) still import it
locate_line = locate


def verify_at(field: ResidualField, *point: float) -> float:
    """Residual at a claimed mean-value point, one coordinate per axis of the
    field; no tolerance judgment is made, but a non-finite residual raises
    ``EvaluationError``."""
    _check_inside(field, point, "point")
    residual = _scalar_residual(field, tuple(map(float, point)))
    if not math.isfinite(residual):
        raise EvaluationError("residual is not finite")
    return residual
