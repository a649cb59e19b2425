"""Rebuild the inputs of a generated case and check a located point against them.

The benchmark never trusts the residual a run reports.  It rebuilds each
case from its seed, re-evaluates the residual at the returned point, and for
the rectangular Rolle, rectangular MVT and 2-D Pompeiu theorems evaluates the
theorem's identity a second way, from ``finite_difference_oracle`` and plain
corner values, which shares no code with the locator or the residual fields.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from typing import Optional

from rectmvt import (
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    Rectangle,
    Var,
    boggio1d_residual,
    boggio2d_residual,
    const,
    corner_difference,
    derive_seed,
    evaluate,
    family_from_name,
    finite_difference_oracle,
    generate_function,
    generate_rectangle,
    pompeiu1d_residual,
    pompeiu2d_residual,
    rect_cauchy_residual,
    rect_mvt_residual,
    rect_rolle_residual,
    verify_at,
)

TAGS = ("rolle", "rmvt", "cauchy", "pompeiu2d", "boggio2d", "pompeiu1d", "boggio1d")
TAGS_2D = TAGS[:5]
ONE_DIM = frozenset({"pompeiu1d", "boggio1d"})
ZERO_FREE = frozenset({"pompeiu2d", "boggio2d", "pompeiu1d", "boggio1d"})
NEEDS_G = frozenset({"cauchy", "boggio2d", "boggio1d"})
ORACLE_TAGS = frozenset({"rolle", "rmvt", "pompeiu2d"})
FAMILIES = ("poly4", "rational", "exp-poly", "separable", "bilinear")

# residual tolerance factor of the default LocateConfig
TAU = 1e-9
EPS = sys.float_info.epsilon
# step rule of finite_difference_oracle: max(1, |coordinate|) * eps**(1/3)
CBRT_EPS = EPS ** (1.0 / 3.0)
# margin on the first-order rounding bounds of the oracle
ORACLE_SAFETY = 2.0
# least |denominator| on the rectangle that generate_function promises for
# the rational family
DENOMINATOR_MIN = 0.1


@dataclass(frozen=True)
class Case:
    tag: str
    f: Expression
    g: Optional[Expression]
    rect: Rectangle  # the 1-D theorems use only [x1, x2]


def family_for(index: int, n_tags: int) -> str:
    """Family of case ``index`` when tags rotate with period ``n_tags``.

    Families advance once per tag cycle, so ``5 * n_tags`` consecutive cases
    cover every (tag, family) pair.
    """
    return FAMILIES[(index // n_tags) % len(FAMILIES)]


def _monomial(c: float, i: int) -> Expression:
    term = const(c)
    if i == 1:
        return BinOp("*", term, Var("x"))
    if i > 1:
        return BinOp("*", term, BinOp("^", Var("x"), Const(float(i))))
    return term


def _poly1d(rng: random.Random, lo: float, hi: float) -> Expression:
    """The harness's cubic draw for the 1-D theorems, which has no public entry."""

    def coeff(min_abs: float = 0.05) -> float:
        while True:
            c = rng.uniform(lo, hi)
            if abs(c) >= min_abs:
                return c

    lead = max(1, rng.randint(1, 3))
    acc = _monomial(coeff(0.1), lead)
    for _ in range(rng.randint(1, 2)):
        c = coeff()
        acc = BinOp("+", acc, _monomial(c, rng.randint(0, 3)))
    return acc


def rebuild(tag: str, family_name: str, case_seed: int) -> Case:
    """The functions and rectangle that a count-1 sweep builds for ``case_seed``.

    ``case_seed`` is the per-case seed a sweep reports, i.e.
    ``derive_seed(master, 0)`` for ``run_sweep(tag, family, 1, master)``.
    """
    rect = generate_rectangle(derive_seed(case_seed, 0), zero_free=tag in ZERO_FREE)
    family = family_from_name(family_name)
    if tag in ONE_DIM:
        lo, hi = family.coeff_range
        f = _poly1d(random.Random(derive_seed(case_seed, 1)), lo, hi)
        g = None
        if tag == "boggio1d":
            rng = random.Random(derive_seed(case_seed, 2))
            a = rng.uniform(0.5, 2.0)
            b = rng.uniform(0.1, 1.0)
            g = BinOp("+", _monomial(a, 1), _monomial(b, 3))
        return Case(tag, f, g, rect)
    f = generate_function(family, derive_seed(case_seed, 1), rect)
    g = generate_function(family, derive_seed(case_seed, 2), rect) if tag in NEEDS_G else None
    if tag == "rolle":
        delta = corner_difference(f, rect)
        xy = BinOp("*", Var("x"), Var("y"))
        f = BinOp("-", f, BinOp("*", const(delta / rect.area), xy))
    return Case(tag, f, g, rect)


def _divisors(e: Expression):
    """Denominators of the divisions in ``e``."""
    if isinstance(e, BinOp):
        if e.op == "/":
            yield e.right
        yield from _divisors(e.left)
        yield from _divisors(e.right)
    elif isinstance(e, Neg):
        yield from _divisors(e.child)
    elif isinstance(e, Call):
        yield from _divisors(e.arg)


def quadratic_range(p: Expression, r: Rectangle) -> tuple[float, float]:
    """Least and greatest value on ``r`` of ``p``, a polynomial of total degree at most 2.

    The coefficients of a + b*x + c*y + d*x^2 + e*x*y + k*y^2 are read off six
    values of ``p``; a seventh value checks the degree.  The extremes lie at a
    corner, at the vertex of an edge, or at the interior critical point.
    """

    def at(x: float, y: float) -> float:
        return float(evaluate(p, x, y))

    a = at(0.0, 0.0)
    b = 0.5 * (at(1.0, 0.0) - at(-1.0, 0.0))
    d = 0.5 * (at(1.0, 0.0) + at(-1.0, 0.0)) - a
    c = 0.5 * (at(0.0, 1.0) - at(0.0, -1.0))
    k = 0.5 * (at(0.0, 1.0) + at(0.0, -1.0)) - a
    e = at(1.0, 1.0) - a - b - c - d - k

    def q(x: float, y: float) -> float:
        return a + b * x + c * y + d * x * x + e * x * y + k * y * y

    if abs(q(2.0, -3.0) - at(2.0, -3.0)) > 1e-9 * (1.0 + abs(at(2.0, -3.0))):
        raise ValueError(f"not a polynomial of degree at most 2: {p!r}")
    points = [(x, y) for x in (r.x1, r.x2) for y in (r.y1, r.y2)]
    if k != 0.0:
        points += [(x, -(c + e * x) / (2.0 * k)) for x in (r.x1, r.x2)]
    if d != 0.0:
        points += [(-(b + e * y) / (2.0 * d), y) for y in (r.y1, r.y2)]
    det = 4.0 * d * k - e * e
    if det != 0.0:
        points.append(((e * c - 2.0 * k * b) / det, (e * b - 2.0 * d * c) / det))
    values = [q(x, y) for x, y in points if r.x1 <= x <= r.x2 and r.y1 <= y <= r.y2]
    return min(values), max(values)


def poles_clear(case: Case) -> bool:
    """Whether every denominator in the case keeps |value| >= DENOMINATOR_MIN on its rectangle.

    ``generate_function`` promises this for the rational family but checks it
    on a 17x17 grid only, so a pole can fall between its samples; the theorem
    then does not apply to the case.  This checks the promise exactly.
    """
    for e in (case.f, case.g):
        for den in _divisors(e) if e is not None else ():
            lo, hi = quadratic_range(den, case.rect)
            if not (lo >= DENOMINATOR_MIN or hi <= -DENOMINATOR_MIN):
                return False
    return True


def build_field(case: Case):
    r = case.rect
    if case.tag == "pompeiu1d":
        return pompeiu1d_residual(case.f, r.x1, r.x2)
    if case.tag == "boggio1d":
        return boggio1d_residual(case.f, case.g, r.x1, r.x2)
    if case.tag == "rolle":
        return rect_rolle_residual(case.f, r)
    if case.tag == "rmvt":
        return rect_mvt_residual(case.f, r)
    if case.tag == "cauchy":
        return rect_cauchy_residual(case.f, case.g, r)
    if case.tag == "pompeiu2d":
        return pompeiu2d_residual(case.f, r)
    return boggio2d_residual(case.f, case.g, r)


def inside(case: Case, xi1: float, xi2: Optional[float]) -> bool:
    r = case.rect
    if case.tag in ONE_DIM:
        return r.x1 < xi1 < r.x2
    return r.contains_open(xi1, xi2)


def oracle_steps(x: float, y: float) -> tuple[float, float]:
    return max(1.0, abs(x)) * CBRT_EPS, max(1.0, abs(y)) * CBRT_EPS


def _magnitude(e: Expression, x: float, y: float) -> tuple[float, float]:
    """Value of ``e`` and a first-order bound on its rounding error in units of eps.

    A running error bound: each operation carries the error of its operands
    through its derivative and adds one rounding of its own result, so
    cancellation inside ``e`` does not hide the size of the terms it cancels.
    """
    match e:
        case Const(value):
            return value, abs(value)
        case Var(name):
            v = x if name == "x" else y
            return v, abs(v)
        case Neg(child):
            v, m = _magnitude(child, x, y)
            return -v, m
        case BinOp(op, left, right):
            a, ma = _magnitude(left, x, y)
            b, mb = _magnitude(right, x, y)
            if op in "+-":
                v = a + b if op == "+" else a - b
                return v, ma + mb + abs(v)
            if op == "*":
                v = a * b
                return v, abs(b) * ma + abs(a) * mb + abs(v)
            if op == "/":
                v = a / b
                return v, ma / abs(b) + abs(v) * mb / abs(b) + abs(v)
            v = math.pow(a, b)
            return v, abs(b * math.pow(a, b - 1.0)) * ma + abs(v)
        case Call(fn, arg):
            a, ma = _magnitude(arg, x, y)
            v = _CALLS[fn](a)
            return v, abs(_SLOPES[fn](a)) * ma + abs(v)
    raise TypeError(f"not an expression node: {e!r}")


_CALLS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
_SLOPES = {
    "sin": math.cos,
    "cos": lambda a: -math.sin(a),
    "exp": math.exp,
    "log": lambda a: 1.0 / a,
    "sqrt": lambda a: 0.5 / math.sqrt(a),
}


def oracle_derivatives(f: Expression, x: float, y: float):
    """``finite_difference_oracle(f, x, y)`` and an error bound on each of its components.

    Round-off: each difference quotient sums a few values of f and divides by
    its step(s).  With ``unit`` the largest rounding error of one value of f
    on the stencils, a first partial is off by at most unit/h and the mixed
    partial by unit/(hx*hy).  Truncation: the central differences are off by
    c*h^2, so the same quotients at twice the steps differ from them by 3*c*h^2;
    that whole difference is taken as the truncation bound.
    """
    d = finite_difference_oracle(f, x, y)
    hx, hy = oracle_steps(x, y)
    unit = EPS * max(
        _magnitude(f, x + i * hx, y + j * hy)[1] for i in (-2, 0, 2) for j in (-2, 0, 2)
    )

    def e(i: int, j: int) -> float:
        return evaluate(f, x + i * hx, y + j * hy)

    dx2 = (e(2, 0) - e(-2, 0)) / (4.0 * hx)
    dy2 = (e(0, 2) - e(0, -2)) / (4.0 * hy)
    dxy2 = (e(2, 2) - e(2, -2) - e(-2, 2) + e(-2, -2)) / (16.0 * hx * hy)
    errors = (
        unit,
        ORACLE_SAFETY * unit / hx + abs(dx2 - d.dx),
        ORACLE_SAFETY * unit / hy + abs(dy2 - d.dy),
        ORACLE_SAFETY * unit / (hx * hy) + abs(dxy2 - d.dxy),
    )
    return d, errors


def oracle_residual(case: Case, xi1: float, xi2: float, scale: float) -> tuple[float, float]:
    """Theorem residual at (xi1, xi2) from finite differences, with its error bound.

    The bound weights the errors of :func:`oracle_derivatives` by the
    residual's coefficients, adds the rounding of the corner terms, and adds
    the locator's own tolerance ``TAU * scale`` with the field's ``scale``.
    """
    f, r = case.f, case.rect
    d, (err_v, err_dx, err_dy, err_dxy) = oracle_derivatives(f, xi1, xi2)
    corners = [_magnitude(f, x, y) for x in (r.x1, r.x2) for y in (r.y1, r.y2)]
    corner_err = ORACLE_SAFETY * 4.0 * EPS * max(m for _, m in corners)
    f11, f12, f21, f22 = (v for v, _ in corners)
    if case.tag == "rolle":
        value = d.dxy
        err = err_dxy
    elif case.tag == "rmvt":
        delta = f22 - f21 - f12 + f11
        value = delta - r.area * d.dxy
        err = r.area * err_dxy + corner_err
    elif case.tag == "pompeiu2d":
        rhs = (r.x2 * r.y2 * f11 - r.x2 * r.y1 * f12 - r.x1 * r.y2 * f21 + r.x1 * r.y1 * f22) / r.area
        value = xi1 * xi2 * d.dxy - xi1 * d.dx - xi2 * d.dy + d.v - rhs
        span = max(abs(r.x1), abs(r.x2)) * max(abs(r.y1), abs(r.y2))
        err = abs(xi1 * xi2) * err_dxy + abs(xi1) * err_dx + abs(xi2) * err_dy + err_v + span * corner_err / r.area
    else:
        raise ValueError(f"no oracle residual for theorem {case.tag!r}")
    return value, TAU * scale + err


def check_point(
    case: Case,
    field,
    outcome: str,
    xi1: Optional[float],
    xi2: Optional[float],
    reported_scale: Optional[float],
) -> list[str]:
    """Violations of the correctness contract by one located case."""
    where = f"{case.tag} case at {xi1!r}, {xi2!r}"
    if reported_scale is not None and reported_scale != field.scale:
        return [f"{where}: reported scale {reported_scale!r} != rebuilt {field.scale!r}"]
    if outcome == "failed":
        return []
    if xi1 is None or not inside(case, xi1, xi2):
        return [f"{where}: {outcome} point is not strictly inside {case.rect}"]
    if outcome != "found":
        return []
    if case.tag in ONE_DIM:
        residual = field.residual(xi1)
    else:
        residual = verify_at(field, xi1, xi2)
    problems = []
    if not abs(residual) <= TAU * field.scale:
        problems.append(f"{where}: |verify_at| = {abs(residual)!r} > tau*scale = {TAU * field.scale!r}")
    if case.tag in ORACLE_TAGS:
        value, bound = oracle_residual(case, xi1, xi2, field.scale)
        if not abs(value) <= bound:
            problems.append(f"{where}: finite-difference residual {value!r} exceeds {bound!r}")
    return problems


def gradcheck_bound(f: Expression, x: float, y: float) -> float:
    """Bound on ``max_rel_error`` of ``rectmvt grad-check``: the largest oracle error."""
    return max(oracle_derivatives(f, x, y)[1])


def node_count(e: Expression) -> int:
    children = [getattr(e, a) for a in ("child", "left", "right", "arg") if hasattr(e, a)]
    return 1 + sum(node_count(c) for c in children)


def all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
