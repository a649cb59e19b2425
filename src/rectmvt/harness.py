"""Deterministic generation of test functions, rectangles, and theorem sweeps.

All randomness is a pure function of 64-bit seeds.  Per-case seeds come from a
counter-based stream (a splitmix64 finalizer over the master seed and the case
index), so scheduling can never change what a sweep produces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import BinOp, Call, Const, EvaluationError, Expression, Var, const, evaluate, substitute
from .hyperdual import MAX_INT_POWER
from .locator import LocateConfig, locate, verify_at
from .theorems import (
    THEOREMS,
    DegenerateError,
    DomainError,
    HypothesisError,
    Rectangle,
    Theorem,
    boggio1d_residual,
    boggio2d_residual,
    build_reciprocal_transform,
    corner_difference,
    pompeiu1d_residual,
    pompeiu2d_residual,
    reciprocal_rectangle,
    rect_cauchy_residual,
    rect_mvt_residual,
    rect_rolle_residual,
)

__all__ = [
    "CaseResult",
    "FunctionFamily",
    "GenerationError",
    "SweepSummary",
    "build_field",
    "derive_seed",
    "family_from_name",
    "generate_function",
    "generate_rectangle",
    "proof_path_check",
    "run_sweep",
]

_MASK64 = (1 << 64) - 1
_FAMILY_KINDS = ("polynomial", "bilinear", "separable", "exp-poly", "rational")
# how close a mapped proof point must come to satisfying the Pompeiu identity
PROOF_PATH_TOL_FACTOR = 1e-7


class GenerationError(Exception):
    """A rejection loop failed to produce an admissible sample."""


def derive_seed(master: int, index: int) -> int:
    """Counter-based per-case seed: splitmix64 finalizer of master and index."""
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class FunctionFamily:
    """A named distribution over expressions: polynomials, separable products,
    exponentials of low-degree polynomials, or rationals with a denominator
    bounded away from zero on the target rectangle."""

    kind: str
    max_degree: int = 4
    coeff_range: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        # a drawn power past the bound fails to compile, which would stop a sweep midway
        if self.max_degree > MAX_INT_POWER:
            raise ValueError(f"max_degree must be at most {MAX_INT_POWER}, got {self.max_degree}")
        if not self.coeff_range[0] <= self.coeff_range[1]:
            raise ValueError("coeff_range must be ordered")


def family_from_name(name: str) -> FunctionFamily:
    """Family from a CLI-style name: poly4, poly2, bilinear, separable, exp-poly, rational."""
    if name.startswith("poly") and name[4:].isdigit():
        return FunctionFamily("polynomial", max_degree=int(name[4:]))
    if name in ("bilinear", "separable", "exp-poly", "rational"):
        return FunctionFamily(name)
    raise ValueError(f"unknown function family {name!r}")


def _coeff(rng: random.Random, lo: float, hi: float, min_abs: float = 0.05) -> float:
    for _ in range(1000):
        c = rng.uniform(lo, hi)
        if abs(c) >= min_abs or (lo == hi and c == lo):
            return c
    raise GenerationError(f"could not draw a coefficient of magnitude >= {min_abs} from [{lo}, {hi}]")


def _monomial(c: float, i: int, j: int) -> Expression:
    term = const(c)
    if i == 1:
        term = BinOp("*", term, Var("x"))
    elif i > 1:
        term = BinOp("*", term, BinOp("^", Var("x"), Const(float(i))))
    if j == 1:
        term = BinOp("*", term, Var("y"))
    elif j > 1:
        term = BinOp("*", term, BinOp("^", Var("y"), Const(float(j))))
    return term


def _sum_terms(terms: list[Expression]) -> Expression:
    acc = terms[0]
    for t in terms[1:]:
        acc = BinOp("+", acc, t)
    return acc


def _poly2d(rng: random.Random, max_degree: int, coeff_range: tuple[float, float]) -> Expression:
    lo, hi = coeff_range
    terms: list[Expression] = []
    if max_degree >= 2:
        # always one genuinely mixed monomial, so corner differences are
        # generically nonzero (additively separable functions have zero ones)
        i = rng.randint(1, max_degree - 1)
        j = rng.randint(1, max_degree - i)
        terms.append(_monomial(_coeff(rng, lo, hi, min_abs=0.1), i, j))
    for _ in range(rng.randint(2, 4)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        terms.append(_monomial(_coeff(rng, lo, hi), i, j))
    return _sum_terms(terms)


def _poly1d(rng: random.Random, max_degree: int, coeff_range: tuple[float, float]) -> Expression:
    lo, hi = coeff_range
    lead = max(1, rng.randint(1, max_degree))
    terms = [_monomial(_coeff(rng, lo, hi, min_abs=0.1), lead, 0)]
    for _ in range(rng.randint(1, 2)):
        terms.append(_monomial(_coeff(rng, lo, hi), rng.randint(0, max_degree), 0))
    return _sum_terms(terms)


def _sample_grid(r: Rectangle, n: int = 17) -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(r.x1, r.x2, n)
    ys = np.linspace(r.y1, r.y2, n)
    return xs[np.newaxis, :], ys[:, np.newaxis]


def generate_function(
    family: FunctionFamily, seed: int, rectangle: Optional[Rectangle] = None
) -> Expression:
    """Deterministic expression draw; identical (family, seed) gives identical trees.

    The rational family needs the target ``rectangle`` so its denominator can
    be rejection-sampled to stay at least 0.1 in magnitude there.
    """
    rng = random.Random(seed)
    if family.kind == "polynomial":
        return _poly2d(rng, family.max_degree, family.coeff_range)
    if family.kind == "bilinear":
        lo, hi = family.coeff_range
        return _sum_terms(
            [
                _monomial(_coeff(rng, lo, hi, min_abs=0.1), 1, 1),
                _monomial(_coeff(rng, lo, hi), 1, 0),
                _monomial(_coeff(rng, lo, hi), 0, 1),
                _monomial(_coeff(rng, lo, hi), 0, 0),
            ]
        )
    if family.kind == "separable":
        degree = max(1, min(3, family.max_degree))
        u = _poly1d(rng, degree, family.coeff_range)
        v = _poly1d(rng, degree, family.coeff_range)
        return BinOp("*", u, substitute(v, {"x": Var("y")}))
    if family.kind == "exp-poly":
        # small coefficients keep magnitudes (and the derivative components the
        # finite-difference oracle must resolve) within double precision comfort
        terms = [
            _monomial(_coeff(rng, -0.2, 0.2, min_abs=0.02), 1, 1),
            _monomial(_coeff(rng, -0.2, 0.2, min_abs=0.0), 1, 0),
            _monomial(_coeff(rng, -0.2, 0.2, min_abs=0.0), 0, 1),
        ]
        return Call("exp", _sum_terms(terms))
    if family.kind == "rational":
        if rectangle is None:
            raise ValueError("the rational family needs the target rectangle")
        num = _poly2d(rng, min(2, max(2, family.max_degree // 2)), family.coeff_range)
        gx, gy = _sample_grid(rectangle)
        for _ in range(1000):
            c0 = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0)
            den_terms = [const(c0)]
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(0, 2)
                j = rng.randint(0, 2 - i)
                den_terms.append(_monomial(rng.uniform(-0.15, 0.15), i, j))
            den = _sum_terms(den_terms)
            values = np.asarray(evaluate(den, gx, gy), dtype=float)
            if float(np.abs(values).min()) >= 0.1:
                return BinOp("/", num, den)
        raise GenerationError("no denominator bounded away from zero in 1000 draws")
    raise ValueError(f"unknown family kind {family.kind!r}")


def generate_rectangle(seed: int, zero_free: bool = False) -> Rectangle:
    """Deterministic rectangle with side lengths in [0.5, 3].

    With ``zero_free`` both bounds on each axis are drawn from [0.5, 4] or
    [-4, -0.5], so the rectangle can never touch a coordinate axis.
    """
    rng = random.Random(seed)

    def axis() -> tuple[float, float]:
        length = rng.uniform(0.5, 3.0)
        if zero_free:
            lo = rng.uniform(0.5, 4.0 - length)
            if rng.random() < 0.5:
                return lo, lo + length
            return -(lo + length), -lo
        lo = rng.uniform(-4.0, 4.0 - length)
        return lo, lo + length

    x1, x2 = axis()
    y1, y2 = axis()
    return Rectangle(x1, x2, y1, y2)


@dataclass(frozen=True)
class CaseResult:
    index: int
    seed: int
    outcome: str
    xi1: Optional[float]
    xi2: Optional[float]
    residual: Optional[float]
    scale: Optional[float]


@dataclass(frozen=True)
class SweepSummary:
    tag: str
    total: int
    found: int
    degenerate: int
    failed: int
    max_found_residual: float
    max_found_ratio: float  # max over found cases of |residual| / scale
    failing_seeds: tuple[int, ...]
    cases: tuple[CaseResult, ...]


def _theorem(tag: str) -> Theorem:
    try:
        return THEOREMS[tag]
    except KeyError:
        raise ValueError(f"unknown theorem tag {tag!r}") from None


def build_field(tag: str, f: Expression, g: Optional[Expression], bounds):
    """Residual field of theorem ``tag`` for ``f`` (and ``g``) on ``bounds``.

    ``bounds`` is ``(x1, x2)`` for the one-dimensional theorems and
    ``(x1, x2, y1, y2)`` for the others.  This is the one place that maps a
    theorem tag to its residual builder.
    """
    theorem = _theorem(tag)
    theorem.check_g(g)
    n = 2 if theorem.one_dim else 4
    if len(bounds) != n:
        raise ValueError(f"theorem {tag!r} takes {n} bounds, got {len(bounds)}")
    domain = tuple(bounds) if theorem.one_dim else (Rectangle(*bounds),)
    functions = (f,) if g is None else (f, g)
    # built per call so the builders are looked up in this module's namespace
    # at call time, where callers may rebind them (e.g. to trace them)
    builders = {
        "rolle": rect_rolle_residual,
        "rmvt": rect_mvt_residual,
        "cauchy": rect_cauchy_residual,
        "pompeiu2d": pompeiu2d_residual,
        "boggio2d": boggio2d_residual,
        "pompeiu1d": pompeiu1d_residual,
        "boggio1d": boggio1d_residual,
    }
    return builders[tag](*functions, *domain)


def _build_case(theorem: Theorem, family: FunctionFamily, case_seed: int):
    """Residual field for one sweep case."""
    rect = generate_rectangle(derive_seed(case_seed, 0), zero_free=theorem.zero_free)
    g = None
    if theorem.one_dim:
        rng_f = random.Random(derive_seed(case_seed, 1))
        f = _poly1d(rng_f, 3, family.coeff_range)
        if theorem.needs_g:
            # a strictly monotone g keeps g' nonzero on the whole interval
            rng_g = random.Random(derive_seed(case_seed, 2))
            a = rng_g.uniform(0.5, 2.0)
            b = rng_g.uniform(0.1, 1.0)
            g = BinOp("+", _monomial(a, 1, 0), _monomial(b, 3, 0))
        return build_field(theorem.tag, f, g, (rect.x1, rect.x2))
    f = generate_function(family, derive_seed(case_seed, 1), rect)
    if theorem.tag == "rolle":
        # subtract the bilinear interpolant's mixed part so the corner identity holds
        delta = corner_difference(f, rect)
        f = BinOp("-", f, BinOp("*", const(delta / rect.area), BinOp("*", Var("x"), Var("y"))))
    if theorem.needs_g:
        g = generate_function(family, derive_seed(case_seed, 2), rect)
    return build_field(theorem.tag, f, g, (rect.x1, rect.x2, rect.y1, rect.y2))


def run_sweep(
    tag: str,
    family: FunctionFamily,
    count: int,
    master_seed: int = 42,
    cfg: LocateConfig | None = None,
) -> SweepSummary:
    """Generate ``count`` cases, locate each mean-value point, and tally outcomes.

    Case failures (construction errors or locate failures) are tallied, never
    raised.  The summary is a pure function of the arguments.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    theorem = _theorem(tag)
    cfg = cfg or LocateConfig()
    cases: list[CaseResult] = []
    for index in range(count):
        case_seed = derive_seed(master_seed, index)
        try:
            field = _build_case(theorem, family, case_seed)
            report = locate(field, cfg)
        except (DegenerateError, DomainError, HypothesisError, EvaluationError, GenerationError):
            cases.append(CaseResult(index, case_seed, "failed", None, None, None, None))
            continue
        if report.outcome == "failed":
            cases.append(CaseResult(index, case_seed, "failed", None, None, None, field.scale))
            continue
        point = report.point
        outcome = "found" if report.outcome == "found" else "degenerate"
        cases.append(
            CaseResult(index, case_seed, outcome, point.xi1, point.xi2, point.residual, field.scale)
        )
    found = [c for c in cases if c.outcome == "found"]
    failing = tuple(c.seed for c in cases if c.outcome == "failed")
    return SweepSummary(
        tag=tag,
        total=count,
        found=len(found),
        degenerate=sum(c.outcome == "degenerate" for c in cases),
        failed=len(failing),
        max_found_residual=max((abs(c.residual) for c in found), default=0.0),
        max_found_ratio=max((abs(c.residual) / c.scale for c in found), default=0.0),
        failing_seeds=failing,
        cases=tuple(cases),
    )


def proof_path_check(f: Expression, r: Rectangle, cfg: LocateConfig | None = None) -> bool:
    """Replay the reduction of the 2-D Pompeiu identity to the rectangular MVT.

    Locate a rectangular-MVT point of F(t, s) = t*s*f(1/t, 1/s) on the
    reciprocal rectangle; its coordinate-wise reciprocal must then satisfy the
    Pompeiu identity on the original rectangle to within 1e-7 of its scale.
    """
    transform = build_reciprocal_transform(f)
    mirrored = reciprocal_rectangle(r)
    report = locate(rect_mvt_residual(transform, mirrored), cfg)
    if report.point is None:
        return False
    xi1 = 1.0 / report.point.xi1
    xi2 = 1.0 / report.point.xi2
    pomp = pompeiu2d_residual(f, r)
    try:
        residual = verify_at(pomp, xi1, xi2)
    except (DomainError, EvaluationError):
        return False
    return abs(residual) <= PROOF_PATH_TOL_FACTOR * pomp.scale
