import math

import pytest

from rectmvt import cli, harness
from rectmvt.expr import EvaluationError, evaluate, reads_variable
from rectmvt.harness import (
    CaseResult,
    FunctionFamily,
    GenerationError,
    derive_seed,
    family_from_name,
    generate_function,
    generate_rectangle,
    proof_path_check,
    run_sweep,
)
from rectmvt.locator import LocateConfig
from rectmvt.theorems import DegenerateError, DomainError, Rectangle, TheoremError, corner_difference
from rectmvt.expr import parse
import numpy as np

SQ6 = math.sqrt(6.0)


def test_derive_seed_is_stable_and_spread():
    # fixed values pin the counter-based stream across refactors
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(42, 0) != derive_seed(43, 0)
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_family_from_name():
    assert family_from_name("poly4") == FunctionFamily("polynomial", max_degree=4)
    assert family_from_name("poly2").max_degree == 2
    assert family_from_name("bilinear").kind == "bilinear"
    assert family_from_name("exp-poly").kind == "exp-poly"
    assert family_from_name("rational").kind == "rational"
    for name in ("fourier", "exppoly"):
        with pytest.raises(ValueError):
            family_from_name(name)
    # a degree is ASCII digits: a superscript or an Arabic-Indic digit is not
    # one, though str.isdigit() takes both (and int() the second)
    for name in ("poly\u00b2", "poly\u0663", "poly"):
        with pytest.raises(ValueError, match="unknown function family"):
            family_from_name(name)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": "fourier"}, "unknown family kind 'fourier'"),
        ({"kind": "polynomial", "max_degree": -1}, "max_degree must be non-negative"),
        ({"kind": "polynomial", "coeff_range": (1.0, -1.0)}, "coeff_range must be ordered"),
    ],
)
def test_function_family_rejects_bad_fields(kwargs, message):
    with pytest.raises(ValueError, match=message):
        FunctionFamily(**kwargs)


def test_generate_function_deterministic():
    family = FunctionFamily("polynomial", max_degree=4)
    assert generate_function(family, 123) == generate_function(family, 123)
    assert generate_function(family, 123) != generate_function(family, 124)


def test_generate_degree_zero_constant():
    family = FunctionFamily("polynomial", max_degree=0, coeff_range=(1.0, 1.0))
    tree = generate_function(family, 7)
    assert not reads_variable(tree)
    assert evaluate(tree, 0.3, -2.0) == evaluate(tree, 5.0, 5.0)


def test_generated_polynomial_evaluable_on_rectangle():
    family = FunctionFamily("polynomial", max_degree=4)
    tree = generate_function(family, 99)
    delta = corner_difference(tree, Rectangle(1, 2, 1, 2))
    assert math.isfinite(delta)


def test_generate_rectangle_determinism_and_bounds():
    for seed in range(200):
        r1 = generate_rectangle(seed, zero_free=True)
        r2 = generate_rectangle(seed, zero_free=True)
        assert r1 == r2
        assert r1.zero_free()
        assert 0.5 <= r1.width <= 3.0
        assert 0.5 <= r1.height <= 3.0
        assert max(abs(r1.x1), abs(r1.x2), abs(r1.y1), abs(r1.y2)) <= 4.0


def test_generate_rectangle_free_mode_can_straddle_zero():
    straddles = any(
        not generate_rectangle(seed, zero_free=False).zero_free() for seed in range(50)
    )
    assert straddles


def test_rational_denominator_bounded_away_from_zero():
    family = FunctionFamily("rational")
    rect = Rectangle(1, 2, 1, 3)
    for seed in range(20):
        tree = generate_function(family, seed, rect)
        den = tree.right  # rationals are built as num / den
        xs = np.linspace(rect.x1, rect.x2, 41)
        ys = np.linspace(rect.y1, rect.y2, 41)
        values = np.asarray(evaluate(den, xs[None, :], ys[:, None]), dtype=float)
        assert float(np.abs(values).min()) >= 0.1


def test_rational_requires_rectangle():
    with pytest.raises(ValueError):
        generate_function(FunctionFamily("rational"), 5)


def test_coefficient_rejection_cap():
    family = FunctionFamily("polynomial", max_degree=4, coeff_range=(-1e-6, 1e-6))
    with pytest.raises(GenerationError):
        generate_function(family, 11)


def test_run_sweep_rmvt_small():
    summary = run_sweep("rmvt", FunctionFamily("polynomial", max_degree=4), 20, 42)
    assert summary.total == 20
    assert summary.found + summary.degenerate + summary.failed == summary.total
    assert summary.failed == 0
    assert summary.max_found_ratio <= 1e-7


def test_run_sweep_bilinear_family_degenerate():
    summary = run_sweep("rmvt", FunctionFamily("bilinear"), 1, 42)
    assert summary.degenerate == 1


def test_run_sweep_deterministic():
    family = FunctionFamily("polynomial", max_degree=3)
    a = run_sweep("pompeiu2d", family, 10, 7)
    b = run_sweep("pompeiu2d", family, 10, 7)
    assert a == b


def test_run_sweep_tallies_locate_failures():
    # no search reaches this tolerance but a residual of exactly zero: two
    # cases fail in locate, after their field (and so their scale) was built
    cfg = LocateConfig(tol_factor=1e-300, max_refinements=1)
    summary = run_sweep("rmvt", family_from_name("poly4"), 3, 42, cfg)
    assert (summary.found, summary.degenerate, summary.failed) == (1, 0, 2)
    failed = [c for c in summary.cases if c.outcome == "failed"]
    assert summary.failing_seeds == tuple(c.seed for c in failed)
    assert [c.index for c in failed] == [0, 2]
    assert all(c.scale is not None and (c.xi1, c.xi2, c.residual) == (None,) * 3 for c in failed)
    assert summary.max_found_ratio == summary.max_found_residual == 0.0


def test_run_sweep_tallies_build_errors(monkeypatch):
    reference = run_sweep("rmvt", family_from_name("poly4"), 3, 42)
    real = harness.build_field
    calls = []

    def build_field(*args):
        calls.append(args)
        if len(calls) == 1:
            raise DegenerateError("corner difference of f is degenerate: 0.0")
        return real(*args)

    monkeypatch.setattr(harness, "build_field", build_field)
    summary = run_sweep("rmvt", family_from_name("poly4"), 3, 42)
    seed = reference.cases[0].seed
    assert summary.cases[0] == CaseResult(0, seed, "failed", None, None, None, None)
    assert summary.cases[1:] == reference.cases[1:]
    assert (summary.found, summary.failed, summary.failing_seeds) == (2, 1, (seed,))
    # the failed case had the largest ratio when it was found; it counts no more
    ratios = [abs(c.residual) / c.scale for c in reference.cases]
    assert summary.max_found_ratio == max(ratios[1:]) < ratios[0]


def test_run_sweep_rolle_and_one_dimensional_tags():
    family = FunctionFamily("polynomial", max_degree=4)
    for tag in ("rolle", "pompeiu1d", "boggio1d"):
        summary = run_sweep(tag, family, 10, 42)
        assert summary.failed == 0, (tag, summary.failing_seeds)


# seed-42 poly4 tallies (found, degenerate, failed) of 200 cases per theorem
SEED42_POLY4_TALLIES = {
    "rolle": (190, 10, 0),
    "rmvt": (190, 10, 0),
    "cauchy": (192, 8, 0),
    "pompeiu2d": (175, 25, 0),
    "boggio2d": (198, 2, 0),
    "pompeiu1d": (180, 20, 0),
    "boggio1d": (200, 0, 0),
}


@pytest.mark.parametrize("tag", tuple(SEED42_POLY4_TALLIES))
def test_run_sweep_seed42_poly4_tallies(tag):
    summary = run_sweep(tag, family_from_name("poly4"), 200, 42)
    tally = (summary.found, summary.degenerate, summary.failed)
    assert tally == SEED42_POLY4_TALLIES[tag]


def test_run_sweep_rejects_bad_count():
    with pytest.raises(ValueError):
        run_sweep("rmvt", FunctionFamily("polynomial"), 0, 42)
    # a float count is rejected as LocateConfig rejects a float grid_n, not by range
    with pytest.raises(ValueError, match="count must be an integer of at least 1, got 2.0"):
        run_sweep("rmvt", family_from_name("poly4"), 2.0)


def test_proof_path_quartic_point_on_curve():
    f = parse("x^2*y^2")
    r = Rectangle(1, 2, 1, 3)
    assert proof_path_check(f, r)
    # replay the construction by hand to inspect the mapped point
    from rectmvt.locator import locate
    from rectmvt.theorems import (
        build_reciprocal_transform,
        reciprocal_rectangle,
        rect_mvt_residual,
    )

    report = locate(rect_mvt_residual(build_reciprocal_transform(f), reciprocal_rectangle(r)))
    xi1, xi2 = 1.0 / report.point.xi1, 1.0 / report.point.xi2
    assert abs(xi1 * xi2 - SQ6) <= 1e-5
    assert r.x1 < xi1 < r.x2 and r.y1 < xi2 < r.y2


def test_proof_path_fails_when_the_transform_has_no_point():
    # x*y/(x - 1.5) has a pole inside [1, 2] x [1, 3], so its transform has one
    # in the reciprocal rectangle, and locate finds no point there
    assert proof_path_check(parse("x*y/(x-1.5)"), Rectangle(1, 2, 1, 3)) is False


@pytest.mark.parametrize("error", [DomainError("not inside"), EvaluationError("not finite")])
def test_proof_path_fails_when_the_mapped_point_does_not_verify(monkeypatch, error):
    def verify_at(field, *point):
        raise error

    monkeypatch.setattr(harness, "verify_at", verify_at)
    assert proof_path_check(parse("x^2*y^2"), Rectangle(1, 2, 1, 3)) is False


class _NewTheoremError(TheoremError):
    """A violated precondition of a kind that no handler names."""


def test_a_theorem_error_of_any_kind_is_tallied_and_exits_3(monkeypatch, capsys):
    def build(*args):
        raise _NewTheoremError("a new precondition")

    monkeypatch.setattr(harness, "_build_case", build)
    summary = run_sweep("rmvt", family_from_name("poly4"), 3, 42)
    assert (summary.total, summary.failed) == (3, 3)
    monkeypatch.setattr(cli, "build_field", build)
    assert cli.main(["locate", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "0,1,0,1"]) == 3
    assert capsys.readouterr().err == "precondition violated: a new precondition\n"


def test_proof_path_bilinear_trivial():
    assert proof_path_check(parse("x*y"), Rectangle(1, 2, 1, 3))


def test_proof_path_random_polynomials():
    family = FunctionFamily("polynomial", max_degree=4)
    for i in range(20):
        rect = generate_rectangle(derive_seed(300, i), zero_free=True)
        f = generate_function(family, derive_seed(301, i))
        assert proof_path_check(f, rect), (i, rect)


def test_sweep_found_cases_record_points():
    summary = run_sweep("pompeiu2d", FunctionFamily("polynomial", max_degree=4), 15, 42)
    for case in summary.cases:
        if case.outcome == "found":
            assert case.xi1 is not None and case.xi2 is not None
            assert abs(case.residual) <= 1e-7 * case.scale
