"""Locate a zero of a residual field in the open rectangle or interval.

The theorems guarantee a zero of the continuous residual exists strictly
inside the domain, so the search never needs derivatives of the residual:
sample cell centers (never the boundary), bisect between opposite signs,
refine the grid if necessary, and fall back to coordinate descent on |R|.
Grid screening is vectorized, but every residual that ends up in a report is
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

from .expr import EvaluationError, OutOfDomainError
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
# a bisection stops once its segment parameter is narrower than this, and the
# minimizer once its steps are
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
        point.append(float(c[i]))
    return tuple(point)


def _grid_values(field: ResidualField, centres: list[np.ndarray]):
    """Evaluate the residual on the cell-center grid.

    Returns ``(values, failure)`` where exactly one is not None; a failure is
    ``(point, message, kind)`` for the first offending sample in row-major order.
    """
    try:
        with np.errstate(all="ignore"):
            values = field.residual(*reversed(np.ix_(*reversed(centres))))
    except EvaluationError:
        return None, _first_scalar_failure(field, centres)
    shape = tuple(c.size for c in reversed(centres))
    values = np.broadcast_to(np.asarray(values, dtype=float), shape)
    finite = np.isfinite(values)
    if not finite.all():
        p = _cell(centres, int((~finite).argmax()))
        return None, (p, "residual is not finite", "evaluation")
    return values, None


def _first_scalar_failure(field: ResidualField, centres: list[np.ndarray]):
    for k in range(math.prod(c.size for c in centres)):
        p = _cell(centres, k)
        try:
            value = _scalar_residual(field, p)
        except EvaluationError as exc:
            return (p, str(exc), _failure_kind(exc))
        if not math.isfinite(value):
            return (p, "residual is not finite", "evaluation")
    return (_cell(centres, 0), "vectorized evaluation failed", "evaluation")


def _bisect(rfunc, p_neg, r_neg, p_pos, r_pos, residual_tol):
    """Bisection along the segment p_neg -> p_pos; returns (point, residual).

    Stops as soon as |R| <= residual_tol or the parameter width drops below
    ``BISECT_TOL``.  The endpoints must already satisfy R(p_neg) < 0 < R(p_pos).
    """
    if abs(r_neg) <= residual_tol:
        return p_neg, r_neg
    if abs(r_pos) <= residual_tol:
        return p_pos, r_pos
    lo, hi = 0.0, 1.0  # lo parameterizes the negative end
    span = tuple((a, b - a) for a, b in zip(p_neg, p_pos))
    p, r = p_neg, r_neg
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        p = tuple(a + mid * d for a, d in span)
        r = rfunc(p)
        if abs(r) <= residual_tol:
            return p, r
        if r < 0.0:
            lo = mid
        else:
            hi = mid
    return p, r


def locate(field: ResidualField, cfg: LocateConfig | None = None) -> LocateReport:
    """Find a point of the open rectangle or interval where the residual vanishes.

    Strategy: sample cell centers, accept any sample already within tolerance,
    otherwise bisect between the most negative and most positive samples;
    refine the grid (doubling) up to the cap, then coordinate-descend on |R|
    from the best sample.  An all-tiny level-0 grid is reported as
    ``degenerate-identically-zero`` with the domain center.  On an interval
    the point's ``xi2`` is None.
    """
    cfg = cfg or LocateConfig()
    axes = field.axes
    tol = cfg.tol_factor * field.scale
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
        evals += 1
        return _scalar_residual(field, p)

    for level in range(cfg.max_refinements + 1):
        n = cfg.grid_n * (1 << level)
        steps = tuple((hi - lo) / n for lo, hi in axes)
        centres = [lo + (np.arange(n) + 0.5) * step for (lo, _), step in zip(axes, steps)]
        values, failure = _grid_values(field, centres)
        evals += n ** len(axes)
        if failure is not None:
            p, msg, kind = failure
            return failed(f"evaluation error at {_fmt(p)}: {msg}", kind)
        grid_min = float(values.min())
        grid_max = float(values.max())

        if level == 0 and float(np.abs(values).max()) <= tol:
            center = tuple(0.5 * (lo + hi) for lo, hi in axes)
            try:
                r_center = _scalar_residual(field, center)
            except EvaluationError as exc:
                return failed(str(exc), _failure_kind(exc))
            evals += 1
            point = _mean_value_point(center, r_center, "grid-hit")
            return LocateReport("degenerate-identically-zero", point, diag())

        candidate = _cell(centres, int(np.abs(values).argmin()))
        try:
            r_candidate = _scalar_residual(field, candidate)
        except EvaluationError as exc:
            return failed(str(exc), _failure_kind(exc))
        evals += 1
        if best is None or abs(r_candidate) < abs(best[1]):
            best = (candidate, r_candidate)
        if abs(r_candidate) <= tol:
            point = _mean_value_point(candidate, r_candidate, "grid-hit")
            return LocateReport("found", point, diag())

        if grid_min < 0.0 < grid_max:
            k_neg, k_pos = int(values.argmin()), int(values.argmax())
            p_neg, p_pos = _cell(centres, k_neg), _cell(centres, k_pos)
            try:
                r_neg = _scalar_residual(field, p_neg)
                r_pos = _scalar_residual(field, p_pos)
                evals += 2
                if r_neg < 0.0 < r_pos:
                    sign_cells = (k_neg, k_pos)
                    p, r = _bisect(counted, p_neg, r_neg, p_pos, r_pos, tol)
                    if abs(r) < abs(best[1]):
                        best = (p, r)
                    if abs(r) <= tol:
                        point = _mean_value_point(p, r, "sign-change-bisection")
                        return LocateReport("found", point, diag())
            except EvaluationError as exc:
                return failed(str(exc), _failure_kind(exc))
        # no sign change (or bisection fell short): refine and try again

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
                    r = _scalar_residual(field, q)
                    evals += 1
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
