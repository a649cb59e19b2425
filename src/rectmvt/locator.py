"""Locate a zero of a residual field in the open rectangle.

The theorems guarantee a zero of the continuous residual exists strictly
inside the rectangle, so the search never needs derivatives of the residual:
sample cell centers (never the boundary), bisect between opposite signs,
refine the grid if necessary, and fall back to coordinate descent on |R|.
Grid screening is vectorized, but every residual that ends up in a report is
re-evaluated through the scalar path so reports are exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import EvaluationError
from .theorems import DomainError, LineResidualField, ResidualField

__all__ = [
    "LocateConfig",
    "LocateDiagnostics",
    "LocateReport",
    "MeanValuePoint",
    "bisect_on_segment",
    "locate",
    "locate_line",
    "verify_at",
]


@dataclass(frozen=True)
class LocateConfig:
    """Search parameters; the residual tolerance is ``tol_factor * field.scale``."""

    grid_n: int = 33
    max_refinements: int = 4
    tol_factor: float = 1e-9
    bisect_tol: float = 1e-12
    minimize_iters: int = 200

    def __post_init__(self):
        if self.grid_n < 3:
            raise ValueError("grid_n must be at least 3")
        if self.tol_factor <= 0:
            raise ValueError("tol_factor must be positive")
        if self.bisect_tol <= 0:
            raise ValueError("bisect_tol must be positive")
        if not (math.isfinite(self.tol_factor) and math.isfinite(self.bisect_tol)):
            raise ValueError("tol_factor and bisect_tol must be finite")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")
        if self.minimize_iters < 1:
            raise ValueError("minimize_iters must be at least 1")


@dataclass(frozen=True)
class MeanValuePoint:
    xi1: float
    xi2: float
    residual: float
    method: str  # grid-hit | sign-change-bisection | minimization


@dataclass(frozen=True)
class LocateDiagnostics:
    grid_min: float
    grid_max: float
    sign_cells: Optional[tuple[int, int]]
    level: int
    evaluations: int
    failure: Optional[str] = None


@dataclass(frozen=True)
class LocateReport:
    outcome: str  # found | degenerate-identically-zero | failed
    point: Optional[MeanValuePoint]
    diagnostics: LocateDiagnostics


def _scalar_residual(field: ResidualField, x: float, y: float) -> float:
    return float(field.residual(float(x), float(y)))


def _grid_values(field: ResidualField, xs: np.ndarray, ys: np.ndarray):
    """Evaluate the residual on the cell-center grid.

    Returns ``(values, failure)`` where exactly one is not None; a failure is
    ``(x, y, message)`` for the first offending sample in row-major order.
    """
    try:
        with np.errstate(all="ignore"):
            values = field.residual(xs[np.newaxis, :], ys[:, np.newaxis])
    except EvaluationError:
        return None, _first_scalar_failure(field, xs, ys)
    values = np.broadcast_to(np.asarray(values, dtype=float), (ys.size, xs.size))
    finite = np.isfinite(values)
    if not finite.all():
        iy, ix = np.argwhere(~finite)[0]
        return None, (float(xs[ix]), float(ys[iy]), "residual is not finite")
    return values, None


def _first_scalar_failure(field: ResidualField, xs: np.ndarray, ys: np.ndarray):
    for iy in range(ys.size):
        for ix in range(xs.size):
            try:
                value = _scalar_residual(field, xs[ix], ys[iy])
            except EvaluationError as exc:
                return (float(xs[ix]), float(ys[iy]), str(exc))
            if not math.isfinite(value):
                return (float(xs[ix]), float(ys[iy]), "residual is not finite")
    return (float(xs[0]), float(ys[0]), "vectorized evaluation failed")


def _bisect(rfunc, p_neg, r_neg, p_pos, r_pos, width_tol, residual_tol):
    """Bisection along the segment p_neg -> p_pos; returns (x, y, residual).

    Stops as soon as |R| <= residual_tol or the parameter width drops below
    width_tol.  The endpoints must already satisfy R(p_neg) < 0 < R(p_pos).
    """
    if abs(r_neg) <= residual_tol:
        return p_neg[0], p_neg[1], r_neg
    if abs(r_pos) <= residual_tol:
        return p_pos[0], p_pos[1], r_pos
    lo, hi = 0.0, 1.0  # lo parameterizes the negative end
    x, y, r = p_neg[0], p_neg[1], r_neg
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        x = p_neg[0] + mid * (p_pos[0] - p_neg[0])
        y = p_neg[1] + mid * (p_pos[1] - p_neg[1])
        r = rfunc(x, y)
        if abs(r) <= residual_tol:
            return x, y, r
        if r < 0.0:
            lo = mid
        else:
            hi = mid
    return x, y, r


def bisect_on_segment(
    field: ResidualField,
    p_neg: tuple[float, float],
    p_pos: tuple[float, float],
    tol: float,
    residual_tol: float = 0.0,
) -> tuple[float, float]:
    """Point on the open segment between a negative and a positive sample.

    ``tol`` bounds the final segment-parameter width; ``residual_tol`` (an
    absolute residual threshold) allows early exit.  Raises ``ValueError`` if
    the sign contract fails and ``DomainError`` if an endpoint is not interior.
    """
    rect = field.rectangle
    for p in (p_neg, p_pos):
        if not rect.contains_open(p[0], p[1]):
            raise DomainError(f"segment endpoint {p} is not strictly inside {rect}")
    r_neg = _scalar_residual(field, *p_neg)
    r_pos = _scalar_residual(field, *p_pos)
    if not (r_neg < 0.0 < r_pos):
        raise ValueError(
            f"bisection requires R(p_neg) < 0 < R(p_pos), got {r_neg!r} and {r_pos!r}"
        )
    x, y, _ = _bisect(
        lambda a, b: _scalar_residual(field, a, b), p_neg, r_neg, p_pos, r_pos, tol, residual_tol
    )
    return x, y


def locate(field: ResidualField, cfg: LocateConfig | None = None) -> LocateReport:
    """Find a point of the open rectangle where the residual vanishes.

    Strategy: sample cell centers, accept any sample already within tolerance,
    otherwise bisect between the most negative and most positive samples;
    refine the grid (doubling) up to the cap, then coordinate-descend on |R|
    from the best sample.  An all-tiny level-0 grid is reported as
    ``degenerate-identically-zero`` with the rectangle center.
    """
    cfg = cfg or LocateConfig()
    rect = field.rectangle
    tol = cfg.tol_factor * field.scale
    evals = 0
    grid_min = math.inf
    grid_max = -math.inf
    best: Optional[tuple[float, float, float]] = None  # (|r|, x, y) scalar-confirmed
    best_signed = 0.0
    level = 0
    sign_cells: Optional[tuple[int, int]] = None
    finest_step = (rect.width / cfg.grid_n, rect.height / cfg.grid_n)

    def diag(failure: str | None = None) -> LocateDiagnostics:
        return LocateDiagnostics(
            grid_min=grid_min,
            grid_max=grid_max,
            sign_cells=sign_cells,
            level=level,
            evaluations=evals,
            failure=failure,
        )

    for level in range(cfg.max_refinements + 1):
        n = cfg.grid_n * (1 << level)
        step_x = rect.width / n
        step_y = rect.height / n
        finest_step = (step_x, step_y)
        xs = rect.x1 + (np.arange(n) + 0.5) * step_x
        ys = rect.y1 + (np.arange(n) + 0.5) * step_y
        values, failure = _grid_values(field, xs, ys)
        evals += n * n
        if failure is not None:
            fx, fy, msg = failure
            return LocateReport(
                "failed", None, diag(failure=f"evaluation error at ({fx!r}, {fy!r}): {msg}")
            )
        grid_min = float(values.min())
        grid_max = float(values.max())

        if level == 0 and float(np.abs(values).max()) <= tol:
            cx, cy = rect.center
            try:
                r_center = _scalar_residual(field, cx, cy)
            except EvaluationError as exc:
                return LocateReport("failed", None, diag(failure=str(exc)))
            evals += 1
            point = MeanValuePoint(cx, cy, r_center, "grid-hit")
            return LocateReport("degenerate-identically-zero", point, diag())

        flat_abs = np.abs(values).ravel()
        k_best = int(flat_abs.argmin())
        by, bx = divmod(k_best, n)
        candidate = (float(xs[bx]), float(ys[by]))
        try:
            r_candidate = _scalar_residual(field, *candidate)
        except EvaluationError as exc:
            return LocateReport("failed", None, diag(failure=str(exc)))
        evals += 1
        if best is None or abs(r_candidate) < best[0]:
            best = (abs(r_candidate), candidate[0], candidate[1])
            best_signed = r_candidate
        if abs(r_candidate) <= tol:
            point = MeanValuePoint(candidate[0], candidate[1], r_candidate, "grid-hit")
            return LocateReport("found", point, diag())

        k_neg = int(values.argmin())
        k_pos = int(values.argmax())
        if grid_min < 0.0 < grid_max:
            ny_, nx_ = divmod(k_neg, n)
            py_, px_ = divmod(k_pos, n)
            p_neg = (float(xs[nx_]), float(ys[ny_]))
            p_pos = (float(xs[px_]), float(ys[py_]))
            try:
                r_neg = _scalar_residual(field, *p_neg)
                r_pos = _scalar_residual(field, *p_pos)
                evals += 2
                if r_neg < 0.0 < r_pos:
                    sign_cells = (k_neg, k_pos)

                    def counted(a: float, b: float) -> float:
                        nonlocal evals
                        evals += 1
                        return _scalar_residual(field, a, b)

                    x, y, r = _bisect(counted, p_neg, r_neg, p_pos, r_pos, cfg.bisect_tol, tol)
                    if abs(r) < best[0]:
                        best = (abs(r), x, y)
                        best_signed = r
                    if abs(r) <= tol:
                        point = MeanValuePoint(x, y, r, "sign-change-bisection")
                        return LocateReport("found", point, diag())
            except EvaluationError as exc:
                return LocateReport("failed", None, diag(failure=str(exc)))
        # no sign change (or bisection fell short): refine and try again

    # last resort: coordinate descent on |R| from the best sample seen
    _, px, py = best
    cur_abs = best[0]
    cur_signed = best_signed
    step_x, step_y = finest_step
    # stay on the strict interior (the cell-center hull of the finest grid)
    lo_x, hi_x = rect.x1 + 0.5 * step_x, rect.x2 - 0.5 * step_x
    lo_y, hi_y = rect.y1 + 0.5 * step_y, rect.y2 - 0.5 * step_y
    try:
        for _ in range(cfg.minimize_iters):
            if cur_abs <= tol:
                break
            improved = False
            for dx_, dy_ in ((step_x, 0.0), (-step_x, 0.0), (0.0, step_y), (0.0, -step_y)):
                cx = min(max(px + dx_, lo_x), hi_x)
                cy = min(max(py + dy_, lo_y), hi_y)
                if cx == px and cy == py:
                    continue
                r = _scalar_residual(field, cx, cy)
                evals += 1
                if abs(r) < cur_abs:
                    px, py, cur_abs, cur_signed = cx, cy, abs(r), r
                    improved = True
            if not improved:
                step_x *= 0.5
                step_y *= 0.5
                if max(step_x, step_y) < cfg.bisect_tol:
                    break
    except EvaluationError as exc:
        return LocateReport("failed", None, diag(failure=str(exc)))

    if cur_abs <= tol:
        point = MeanValuePoint(px, py, cur_signed, "minimization")
        return LocateReport("found", point, diag())
    return LocateReport(
        "failed",
        None,
        diag(failure=f"no residual below tolerance {tol!r}; best |R| = {cur_abs!r}"),
    )


def locate_line(field: LineResidualField, cfg: LocateConfig | None = None) -> LocateReport:
    """Locate a zero of a one-dimensional residual; read the point from ``xi1``."""
    return locate(field.as_rectangle_field(), cfg)


def verify_at(field: ResidualField, xi1: float, xi2: float) -> float:
    """Residual at a claimed mean-value point; no tolerance judgment is made."""
    if not field.rectangle.contains_open(xi1, xi2):
        raise DomainError(
            f"point ({xi1!r}, {xi2!r}) is not strictly inside {field.rectangle}"
        )
    return _scalar_residual(field, xi1, xi2)
