"""Each field's residual, generated from its theorem's formula, against the
seven closures that stated the residuals before, run over ``compile_hyperdual``
programs: bit for bit on scalars and on a 33 x 33 grid, and with the same
error, raised by the same function, where the closure raises."""

import numpy as np
import pytest

from rectmvt import harness
from rectmvt.expr import EvaluationError, parse
from rectmvt.harness import build_field, derive_seed, family_from_name
from rectmvt.hyperdual import check_divisor, compile_hyperdual
from rectmvt.theorems import THEOREMS, DegenerateError, HypothesisError, Rectangle

FAMILIES = ("poly4", "bilinear", "separable", "exp-poly", "rational")
CASES = 20  # compared per theorem and family
N = 33


def _pompeiu(components, xi1, xi2):
    v, dx, dy, dxy = components
    return xi1 * xi2 * dxy - xi1 * dx - xi2 * dy + v


def _reference(tag, f, g, bounds, d):
    """The residual closure of theorem ``tag`` as its builder wrote it, over
    programs compiled for the components its row reads, with the field's
    constants ``d``."""
    reads = THEOREMS[tag].reads
    fp = compile_hyperdual(f, reads)
    gp = None if g is None else compile_hyperdual(g, reads)
    if tag == "rolle":
        return lambda x, y: fp(x, y)[3]
    if tag == "rmvt":
        delta, area = d["delta_f"], Rectangle(*bounds).area
        return lambda x, y: delta - area * fp(x, y)[3]
    if tag == "cauchy":
        delta_f, delta_g = d["delta_f"], d["delta_g"]
        return lambda x, y: delta_f * gp(x, y)[3] - delta_g * fp(x, y)[3]
    if tag == "pompeiu2d":
        rhs = d["rhs"]
        return lambda x, y: _pompeiu(fp(x, y), x, y) - rhs
    if tag == "boggio2d":
        delta_f, delta_g, rhs = d["delta_f"], d["delta_g"], d["rhs_g"] - d["rhs_f"]
        return lambda x, y: (_pompeiu(gp(x, y), x, y) / delta_g - _pompeiu(fp(x, y), x, y) / delta_f) - rhs
    rhs = d["rhs"]
    if tag == "pompeiu1d":

        def residual(xi):
            v, dx, _, _ = fp(xi, 0.0)
            return (v - xi * dx) - rhs

        return residual

    def residual(xi):
        fv, fdx, _, _ = fp(xi, 0.0)
        gv, gdx, _, _ = gp(xi, 0.0)
        check_divisor(
            gdx,
            "g' vanishes at an evaluation point",
            "g' changes sign between samples, so it vanishes between them",
        )
        return (fv - (gv / gdx) * fdx) - rhs

    return residual


def _outcome(residual, args):
    """The residual's value at ``args``, or the type and message of its error."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(residual(*args), dtype=np.float64)
    except (ArithmeticError, ValueError, EvaluationError) as exc:
        return (type(exc), str(exc))


def _same(got, want) -> bool:
    if type(want) is tuple or type(got) is tuple:
        return got == want
    if np.shape(got) != np.shape(want):
        return False
    nan = np.isnan(got) & np.isnan(want)  # the sign of a NaN from two NaNs is not fixed
    return bool((nan | (got.view(np.int64) == want.view(np.int64))).all())


def _inputs(axes, centres: bool = True):
    """The scalar points and the grid: 33 cell centres per axis (or 33 points
    from bound to bound), as ``locate`` screens them, and every third of them
    as scalars."""
    if centres:
        lines = [lo + (np.arange(N) + 0.5) * ((hi - lo) / N) for lo, hi in axes]
    else:
        lines = [np.linspace(lo, hi, N) for lo, hi in axes]
    grid = lines if len(lines) == 1 else [lines[0][np.newaxis, :], lines[1][:, np.newaxis]]
    points = [tuple(float(line[i]) for line in lines) for i in range(1, N, 3)]
    if len(lines) == 2:
        points += [(float(lines[0][i]), float(lines[1][N - 1 - i])) for i in range(0, N, 4)]
    return points, grid


def _compare(tag, f, g, bounds, centres=True) -> list:
    """Every outcome of the field's residual and of the reference, which must
    be the same; returns the outcomes."""
    field = build_field(tag, f, g, bounds)
    reference = _reference(tag, f, g, bounds, field.decomposition)
    points, grid = _inputs(field.axes, centres)
    outcomes = []
    for args in [*points, grid]:
        got, want = _outcome(field.residual, args), _outcome(reference, args)
        assert _same(got, want), (tag, f, g, bounds, args, got, want)
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("tag", tuple(THEOREMS))
def test_generated_residual_is_the_closure_bit_for_bit(monkeypatch, tag, family):
    calls = []
    real = harness.build_field

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "build_field", recording)
    compared = 0
    for i in range(3 * CASES):
        try:
            harness._build_case(THEOREMS[tag], family_from_name(family), derive_seed(42, i))
        except (DegenerateError, HypothesisError, EvaluationError):
            continue
        finally:
            args = calls.pop()
        _compare(*args)
        compared += 1
        if compared == CASES:
            break
    assert compared == CASES


# the first function whose failure a residual reports: g's before f's for
# cauchy and boggio2d, f's before g's for boggio1d.  f and g fail at x = 1.5
# with different errors, a grid from bound to bound holds x = 1.5, and so do
# some of its scalar points
_LOG = "x*y*log((x-1.5)^2)"
_POLE = "x*y/(x-1.5)"
_OVERFLOW = "x*y*exp(1/(x-1.5)^2)"


@pytest.mark.parametrize(
    "tag, f, g, bounds",
    [
        # rolle's 9 x 9 scale sample holds x = 1.5, and the grid x = 1.375
        ("rolle", "log((x-1.375)^2) + y", None, (1.0, 2.0, 1.0, 2.0)),
        ("rmvt", _LOG, None, (1.0, 2.0, 1.0, 2.0)),
        ("rmvt", _OVERFLOW, None, (1.0, 2.0, 1.0, 2.0)),
        ("pompeiu2d", _POLE, None, (1.0, 2.0, 1.0, 2.0)),
        ("cauchy", _LOG, _POLE, (1.0, 2.0, 1.0, 2.0)),
        ("cauchy", _POLE, _LOG, (1.0, 2.0, 1.0, 2.0)),
        ("cauchy", _OVERFLOW, _POLE, (1.0, 2.0, 1.0, 2.0)),
        ("boggio2d", _LOG, _POLE, (1.0, 2.0, 1.0, 2.0)),
        ("boggio2d", _POLE, _LOG, (1.0, 2.0, 1.0, 2.0)),
        ("boggio2d", _POLE, _OVERFLOW, (1.0, 2.0, 1.0, 2.0)),
        ("pompeiu1d", "1/(x-1.5)", None, (1.0, 2.0)),
        ("boggio1d", "log((x-1.5)^2)", "x + 1/(x-1.5)", (1.0, 2.0)),
        ("boggio1d", "1/(x-1.5)", "x + log((x-1.5)^2)", (1.0, 2.0)),
        # g' vanishes at x = 1.5, which the grid holds; and changes sign at x =
        # 1.6, between two samples
        ("boggio1d", "x^2", "(x-1.5)^3", (1.0, 2.0)),
        ("boggio1d", "x^2", "(x-1.6)^2", (1.0, 2.0)),
    ],
)
def test_a_failing_residual_raises_as_the_closure_did(tag, f, g, bounds):
    outcomes = _compare(tag, parse(f), None if g is None else parse(g), bounds, centres=False)
    assert any(type(o) is tuple for o in outcomes)
