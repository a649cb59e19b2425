import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rectmvt
from rectmvt import cli
from rectmvt.cli import main
from rectmvt.expr import MAX_DEPTH

SQ6 = math.sqrt(6.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_locate_rmvt_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "0,1,0,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "found"
    assert abs(doc["point"]["xi1"] - 0.5) <= 1e-8
    assert doc["decomposition"]["delta_f"] == 1.0
    assert doc["evaluations"] > 0
    assert doc["method"] in ("grid-hit", "sign-change-bisection", "minimization")


def test_locate_zero_containing_rectangle_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "locate", "--theorem", "pompeiu2d", "--f", "x*y", "--rect", "-1,2,1,3"
    )
    assert code == 3
    assert "zero-free" in err


def test_locate_boggio2d_on_zero_curve(capsys):
    code, out, _ = run_cli(
        capsys,
        "locate",
        "--theorem",
        "boggio2d",
        "--f",
        "x^2*y^2",
        "--g",
        "x*y",
        "--rect",
        "1,2,1,3",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["point"]["xi1"] * doc["point"]["xi2"] - SQ6) <= 1e-6


def test_locate_interior_pole_exits_3(capsys):
    # 1/(x*y) has poles on the axes, and the rectangle straddles both; the
    # 33x33 cell-center grid hits x = 0 exactly, so locate must report failure,
    # and f violates the theorem's differentiability hypothesis
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "rmvt", "--f", "1/(x*y)", "--rect", "-1,1,-1,1"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["outcome"] == "failed"
    assert doc["point"] is None
    assert "failure" in doc


@pytest.mark.parametrize(
    "argv, failure",
    [
        (
            ("--theorem", "pompeiu1d", "--f", "1/(x-1.5)", "--rect", "1,2"),
            "evaluation error at (1.5): division by zero",
        ),
        (
            ("--theorem", "rmvt", "--f", "1/(x-0.5)*y^2", "--rect", "0,1,0,1"),
            "evaluation error at (0.5, 0.015151515151515152): division by zero",
        ),
        # the rmvt residual reads only f_xy, which the log term cannot change,
        # but the log of zero at the cell center x = 0.5 still fails
        (
            ("--theorem", "rmvt", "--f", "x*y+log((x-0.5)^2)", "--rect", "0,1,0,1"),
            "evaluation error at (0.5, 0.015151515151515152): log of a non-positive value",
        ),
        # g' = 3(x-1.5)^2 vanishes at the grid point 1.5; Boggio's theorem assumes g' != 0
        (
            ("--theorem", "boggio1d", "--f", "x^3", "--g", "(x-1.5)^3", "--rect", "1,2"),
            "evaluation error at (1.5): g' vanishes at an evaluation point",
        ),
    ],
)
def test_locate_domain_error_inside_exits_3_with_the_failed_document(capsys, argv, failure):
    code, out, err = run_cli(capsys, "locate", *argv)
    assert code == 3
    assert err == ""
    doc = json.loads(out)
    assert (doc["outcome"], doc["point"], doc["residual"], doc["method"]) == (
        "failed",
        None,
        None,
        None,
    )
    assert doc["failure"] == failure


_SIGN = "divisor changes sign between samples, so it vanishes between them"
_FIRST = 0.5 / 33
_FIRST_1_2 = 1 + 0.5 / 33


# a pole between two cell centers, which no sample hits: the divisor, or g' for
# Boggio, takes both signs on the grid, so by continuity it vanishes between
# two samples and f violates the theorem's hypothesis (exit 3); the failure is
# reported at the first cell of the row that proves it, after one row screen
# on a rectangle and none on an interval
@pytest.mark.parametrize(
    "argv, failure, evaluations",
    [
        (
            ("--theorem", "rmvt", "--f", "x*y/(x-0.51234567)", "--rect", "0,1,0,1"),
            f"evaluation error at ({_FIRST!r}, {_FIRST!r}): {_SIGN}",
            33 * 33 + 33,
        ),
        (
            ("--theorem", "pompeiu1d", "--f", "1/(x-1.51234567)", "--rect", "1,2"),
            f"evaluation error at ({_FIRST_1_2!r}): {_SIGN}",
            33,
        ),
        (
            ("--theorem", "boggio1d", "--f", "x^3", "--g", "(x-1.3)^2", "--rect", "1,2"),
            f"evaluation error at ({_FIRST_1_2!r}): g' changes sign between samples, "
            "so it vanishes between them",
            33,
        ),
        # the residual vanishes wherever f is defined, which once read as
        # degenerate-identically-zero
        (
            ("--theorem", "pompeiu2d", "--f", "x*y/(x-1.7654321)", "--rect", "1,2,1,2"),
            f"evaluation error at ({_FIRST_1_2!r}, {_FIRST_1_2!r}): {_SIGN}",
            33 * 33 + 33,
        ),
    ],
)
def test_locate_a_pole_between_samples_exits_3(capsys, argv, failure, evaluations):
    code, out, err = run_cli(capsys, "locate", *argv)
    assert code == 3
    assert err == ""
    doc = json.loads(out)
    assert (doc["outcome"], doc["point"], doc["failure"]) == ("failed", None, failure)
    assert doc["evaluations"] == evaluations


def test_locate_a_domain_failure_at_a_corner_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "locate", "--theorem", "rmvt", "--f", "x*y+log(x-0.5)", "--rect", "0,1,0,1"
    )
    assert code == 3
    assert err == "evaluation failed: log of a non-positive value\n"


@pytest.mark.parametrize(
    "argv, failure",
    [
        # the search runs out: f_xy = 1e8*cos(1e8*x) moves by about 1 between
        # adjacent floats x, so no x the search can reach is within tolerance
        (
            ("--f", "sin(1e8*x)*y", "--rect", "0,1,0,1", "--tau", "1e-30", "--refinements", "1"),
            "no residual below tolerance",
        ),
        # f overflows inside the square, so the residual is not finite there
        (
            ("--f", "exp(4000*x*(1-x)*y)", "--rect", "0,1,0,1"),
            "residual is not finite",
        ),
    ],
)
def test_locate_search_exhausted_or_overflow_exits_1(capsys, argv, failure):
    code, out, _ = run_cli(capsys, "locate", "--theorem", "rmvt", *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["outcome"] == "failed"
    assert failure in doc["failure"]


def test_locate_missing_g_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "locate", "--theorem", "cauchy", "--f", "x^2*y^2", "--rect", "1,2,1,3"
    )
    assert code == 2
    assert "g" in err


def test_locate_degenerate_bilinear(capsys):
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "rmvt", "--f", "x*y", "--rect", "1,2,1,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "degenerate-identically-zero"
    assert doc["point"] == {"xi1": 1.5, "xi2": 1.5}


def test_locate_grid_that_misses_the_residual_is_not_degenerate(capsys):
    # f_xy = 4*pi*cos(4*pi*x) vanishes at the four cell centers of each row but
    # not at the center x = 0.5, so the level-0 grid alone is no evidence of a
    # residual that vanishes identically: the search goes on from the grid
    code, out, _ = run_cli(
        capsys,
        "locate", "--theorem", "rmvt", "--f", "sin(4*pi*x)*y", "--rect", "0,1,0,1", "--grid-n", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "found"
    assert abs(doc["residual"]) <= 1e-9 * doc["scale"]


def test_locate_one_dimensional(capsys):
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "pompeiu1d", "--f", "x^2", "--rect", "1,2", "--tau", "1e-12"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["point"]["xi"] - math.sqrt(2.0)) <= 1e-9


def test_locate_one_dimensional_counts_one_axis(capsys):
    # 33 grid samples, the best sample's confirmation, its neighbour of
    # opposite sign (the other bracket end) and 4 false-position steps
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "pompeiu1d", "--f", "x^2", "--rect", "1,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["evaluations"] == 39
    assert doc["method"] == "sign-change-bisection"


def test_locate_grid_beyond_the_bound_exits_2(capsys):
    # validation only: the config is rejected before any grid is built
    code, out, err = run_cli(
        capsys,
        "locate", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "0,1,0,1", "--refinements", "40",
    )
    assert code == 2
    assert out == ""
    assert "2048" in err


def test_verify_one_dimensional_point_outside_names_the_interval(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--theorem", "pompeiu1d", "--f", "x^2", "--rect", "1,2", "--point", "2.5"
    )
    assert code == 3
    assert out == ""
    assert "[1.0, 2.0]" in err
    assert "Rectangle" not in err


def test_verify_within_tolerance(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--theorem",
        "pompeiu2d",
        "--f",
        "x^2*y^2",
        "--rect",
        "1,2,1,3",
        "--point",
        "1.5,1.632993",
        "--tau",
        "1e-4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["within_tolerance"] is True


def test_verify_off_curve_not_within_tolerance(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--theorem",
        "pompeiu2d",
        "--f",
        "x^2*y^2",
        "--rect",
        "1,2,1,3",
        "--point",
        "1.5,2.5",
        "--tau",
        "1e-4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] == pytest.approx(8.0625, rel=1e-12)
    assert doc["within_tolerance"] is False


def test_verify_point_outside_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--theorem",
        "pompeiu2d",
        "--f",
        "x^2*y^2",
        "--rect",
        "1,2,1,3",
        "--point",
        "0.5,2",
    )
    assert code == 3
    assert "inside" in err


def test_sweep_json_and_determinism(capsys):
    args = ("sweep", "--theorem", "rmvt", "--family", "poly4", "--count", "25", "--seed", "42")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["failed"] == 0
    assert doc["total"] == 25


def test_sweep_csv_output(capsys, tmp_path):
    path = tmp_path / "cases.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--theorem",
        "pompeiu2d",
        "--count",
        "5",
        "--seed",
        "42",
        "--csv",
        str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "case_index,seed,outcome,xi1,xi2,residual"
    assert len(lines) == 6


@pytest.mark.parametrize("where", ["missing-dir/x.csv", "."], ids=["missing-dir", "a-directory"])
def test_sweep_csv_unwritable_exits_2_before_the_sweep(capsys, tmp_path, monkeypatch, where):
    path = str(tmp_path / where)
    ran = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args: ran.append(args))
    code, out, err = run_cli(capsys, "sweep", "--theorem", "rmvt", "--count", "3", "--csv", path)
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("invalid input: cannot write --csv") and repr(path) in err
    assert err.count("\n") == 1


def test_sweep_count_zero_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--theorem", "rmvt", "--count", "0"])
    assert err.value.code == 2


def test_gradcheck_example(capsys):
    code, out, _ = run_cli(capsys, "grad-check", "--f", "x^2*y", "--at", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["hyperdual"]["dxy"] == 4.0
    assert abs(doc["finite_difference"]["dxy"] - 4.0) <= 1e-5
    assert doc["max_rel_error"] <= 1e-6


def test_gradcheck_bilinear_exact(capsys):
    code, out, _ = run_cli(capsys, "grad-check", "--f", "x*y", "--at", "0.37,-1.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["hyperdual"]["dxy"] == 1.0


def test_gradcheck_pole_exits_3(capsys):
    code, _, err = run_cli(capsys, "grad-check", "--f", "1/x", "--at", "0,1")
    assert code == 3


def test_parse_tree_output(capsys):
    code, out, _ = run_cli(capsys, "parse", "--f", "x^2*y^2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "binary *"  # the product is the root, the powers sit below
    assert lines[1] == "  binary ^"


def test_parse_alias_output(capsys):
    code, out, _ = run_cli(capsys, "parse", "--f", "t*s")
    assert code == 0
    assert "var x" in out
    assert "var y" in out
    assert "var t" not in out


def _nested(kind: str, levels: int) -> str:
    """``x^2*y`` (two levels) under ``levels`` more of one kind of nesting."""
    return {
        "paren": "(" * levels + "x^2*y" + ")" * levels,
        "minus": "-" * levels + "x^2*y",
        "call": "sin(" * levels + "x^2*y" + ")" * levels,
        "chain": "x^2*y" + "+x" * levels,
        "power": "y*x^2" + "^1" * levels,
    }[kind]


@pytest.mark.parametrize("kind", ["paren", "minus", "call", "chain", "power"])
def test_nesting_past_max_depth_exits_2_before_any_work(capsys, kind):
    at_limit = _nested(kind, MAX_DEPTH - 2)
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "rmvt", "--f", at_limit, "--rect", "1,2,1,2"
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "found"
    past = _nested(kind, MAX_DEPTH - 1)
    for argv in (
        ["parse", "--f", past],
        ["locate", "--theorem", "rmvt", "--f", past, "--rect", "1,2,1,2"],
        ["verify", "--theorem", "rmvt", "--f", past, "--rect", "1,2,1,2", "--point", "1.5,1.5"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: nested too deeply at offset")


@pytest.mark.parametrize(
    "argv",
    [
        ["locate", "--theorem", "rmvt", "--f", "x^10000*y", "--rect", "0,1,0,1"],
        # the corners would overflow; the power is rejected before they are evaluated
        ["locate", "--theorem", "rmvt", "--f", "x^2000*y", "--rect", "0.5,2,0,1"],
        ["locate", "--theorem", "boggio1d", "--f", "x^3", "--g", "x+x^3000", "--rect", "0.1,0.9"],
        ["verify", "--theorem", "pompeiu1d", "--f", "x^1025", "--rect", "1,2", "--point", "1.5"],
        ["grad-check", "--f", "x^10000000*y", "--at", "1,1"],
        ["grad-check", "--f", "x^1e300", "--at", "1,1"],
    ],
)
def test_integer_power_past_the_bound_exits_2_without_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: integer exponents must be at most 1024 in magnitude, got ")


def test_integer_power_at_the_bound_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "grad-check", "--f", "x^1024*y", "--at", "1,1")
    assert code == 0
    assert json.loads(out)["hyperdual"] == {"v": 1.0, "dx": 1024.0, "dy": 1.0, "dxy": 1024.0}


def test_sweep_family_past_the_power_bound_exits_2_before_the_sweep(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, err = run_cli(
        capsys,
        "sweep", "--theorem", "rmvt", "--family", "poly1025", "--count", "400", "--csv", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "invalid input: max_degree must be at most 1024, got 1025\n"
    assert not path.exists()
    code, out, _ = run_cli(capsys, "sweep", "--theorem", "rmvt", "--family", "poly1024", "--count", "1")
    assert code == 0
    assert json.loads(out)["family"] == "poly1024"


@pytest.mark.parametrize(
    "argv",
    [
        ["locate", "--theorem", "pompeiu2d", "--f", "x^2*y^3+x", "--rect", "1,1.0000000000000004,1,2"],
        ["locate", "--theorem", "rmvt", "--f", "sin(x*y)", "--rect", "0,5e-324,0,1"],
        ["locate", "--theorem", "pompeiu1d", "--f", "x^3", "--rect", "1,1.0000000000000002"],
    ],
)
def test_locate_on_an_axis_a_few_ulps_wide_exits_2_without_output(capsys, argv):
    # its cell centers would round onto the boundary, where verify rejects a point
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: axis [") and "rounds onto its boundary" in err


@pytest.mark.parametrize(
    "argv",
    [
        # these used to exit 2 calling the axis too narrow to search
        ["locate", "--theorem", "rmvt", "--f", "x+y", "--rect", "-1e308,1e308,1,2"],
        ["locate", "--theorem", "rolle", "--f", "x+y", "--rect", "-1e308,1e308,1,2"],
        # and these exit 3 after evaluating the corners, whose difference overflows
        ["locate", "--theorem", "rmvt", "--f", "x*y", "--rect", "-1e308,1e308,1,2"],
        ["locate", "--theorem", "cauchy", "--f", "x*y", "--g", "x+y^2", "--rect", "1,2,-1e308,1e308"],
        ["verify", "--theorem", "rmvt", "--f", "x*y", "--rect", "1,2,-1e308,1e308", "--point", "1.5,0"],
        ["locate", "--theorem", "pompeiu1d", "--f", "x^3", "--rect", "-1e308,1e308"],
    ],
)
def test_bounds_whose_width_overflows_exit_2_before_any_evaluation(capsys, monkeypatch, argv):
    def no_evaluation(*args):
        raise AssertionError("evaluated a function")

    monkeypatch.setattr("rectmvt.theorems.evaluate", no_evaluation)
    monkeypatch.setattr("rectmvt.theorems.compile_hyperdual", no_evaluation)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: ") and "too wide" in err


def test_a_mixed_partial_that_underflows_is_finite(capsys):
    # exp(-700*x) underflows on the rectangle's scale sample, which rounds f_xy toward 0
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "rolle", "--f", "(x-1.5)*(y-1.5)*exp(-700*x)", "--rect", "1,2,1,2"
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "degenerate-identically-zero"


def test_a_mixed_partial_that_overflows_exits_3(capsys):
    # f is 0 at every corner, so the corner identity holds, but exp(1000) overflows
    # in f_xy at the rectangle's center
    code, out, err = run_cli(
        capsys, "locate", "--theorem", "rolle", "--f", "(y-1)*(y-2)*exp(4000*(x-1)*(2-x))", "--rect", "1,2,1,2"
    )
    assert (code, out) == (3, "")
    assert err == "evaluation failed: mixed partial not finite on the rectangle: overflow encountered in exp\n"


def test_varying_integer_power_past_the_bound_fails_fast(capsys):
    # y - y + 1e7 depends on y, so only its evaluation shows that it is the
    # integer 10,000,000, whose 9,999,999 products used to take seconds
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "grad-check", "--f", "x^(y-y+1e7)*y", "--at", "1,1")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert "integer exponents must be at most MAX_INT_POWER = 1024 in magnitude" in err


def test_parse_error_offset(capsys):
    code, _, err = run_cli(capsys, "parse", "--f", "2*+x")
    assert code == 2
    assert "offset 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--f", "1e999"],
        ["locate", "--theorem", "rmvt", "--f", "x*y*1e999", "--rect", "0,1,0,1"],
        ["grad-check", "--f", "x*1e999", "--at", "1,1"],
    ],
)
def test_literal_too_large_for_a_float_exits_2_without_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: number too large at offset ") and "(near '1e999')" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["locate", "--theorem", "pompeiu1d", "--f", "x^3", "--rect", "1e-170,2e-170"],
        ["locate", "--theorem", "pompeiu1d", "--f", "x^3", "--rect", "-2e-170,-1e-170"],
        ["locate", "--theorem", "pompeiu2d", "--f", "x*y^2", "--rect", "1e-200,2e-200,1,2"],
    ],
)
def test_tiny_bounds_of_one_sign_are_zero_free(capsys, argv):
    # the product of two such bounds underflows to 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["outcome"] == "degenerate-identically-zero"


def test_invalid_rect_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "locate", "--theorem", "rmvt", "--f", "x*y", "--rect", "1,2,3"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("locate", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "0,1,0,1", "--tau", "nan"),
        ("locate", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "0,1,0,1", "--tau", "inf"),
        (
            "verify", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "0,1,0,1",
            "--point", "0.5,0.5", "--tau", "nan",
        ),
        ("locate", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "1,inf,1,2"),
        (
            "verify", "--theorem", "pompeiu2d", "--f", "x^2*y^2", "--rect", "1,2,1,3",
            "--point", "nan,0.5",
        ),
        ("verify", "--theorem", "pompeiu1d", "--f", "x^2", "--rect", "1,2", "--point", "inf"),
        ("grad-check", "--f", "x^2*y", "--at", "nan,1"),
        # finite on its own, but tau * scale overflows
        (
            "verify", "--theorem", "rmvt", "--f", "1e308*sin(x)*sin(y)", "--rect", "0,3,0,3",
            "--point", "1.5,1.5", "--tau", "1000",
        ),
        ("locate", "--theorem", "rmvt", "--f", "x^3*y", "--rect", "0,1,0,1", "--tau", "1e308"),
    ],
)
def test_non_finite_input_exits_2_without_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:") and "finite" in err


def test_a_tau_whose_product_with_the_scale_overflows_exits_2_before_verify_evaluates(capsys, monkeypatch):
    # f has a pole at the point, so an evaluation would fail (exit 3)
    argv = ("verify", "--theorem", "rmvt", "--f", "x*y/(x-0.5)", "--rect", "0,1,0,1", "--point", "0.5,0.5")
    assert run_cli(capsys, *argv)[0] == 3
    code, out, err = run_cli(capsys, *argv, "--tau", "1e308")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: --tau times the field scale is not finite")

    def evaluated(*args):
        raise AssertionError("verify evaluated the residual")

    monkeypatch.setattr(cli, "verify_at", evaluated)
    code, _, err = run_cli(capsys, "verify", "--theorem", "rmvt", "--f", "x^3*y", "--rect", "0,1,0,1",
                           "--point", "0.5,0.5", "--tau", "1e308")
    assert code == 2 and "not finite" in err


def _strict_json(text: str):
    """``json.loads`` that rejects the non-JSON tokens NaN, Infinity and -Infinity."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


# each once printed NaN or Infinity: a field constant that overflows (the
# interval rhs is inf - inf, the corner difference of the cosine is -inf) or a
# residual that overflows at the point verified
NON_FINITE = [
    ("verify", "--theorem", "pompeiu1d", "--f", "1e308*x", "--rect", "1.5,1.7", "--point", "1.6"),
    (
        "locate", "--theorem", "rmvt", "--f", "1.7e308*cos(3.141592653589793*x*y)",
        "--rect", "1,2,1,2",
    ),
    (
        "verify", "--theorem", "rmvt", "--f", "1e308*sin(x)*sin(y)", "--rect", "0,3,0,3",
        "--point", "0.1,0.1",
    ),
]


@pytest.mark.parametrize("argv", NON_FINITE)
def test_non_finite_result_exits_3_without_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("evaluation failed:") and "not finite" in err


@pytest.mark.parametrize(
    "argv",
    NON_FINITE
    + [
        ("locate", "--theorem", "rolle", "--f", "x^2*y - x*y", "--rect", "0,1,0,1"),
        ("locate", "--theorem", "cauchy", "--f", "x^2*y", "--g", "x*y^2", "--rect", "0,1,0,1"),
        ("locate", "--theorem", "pompeiu2d", "--f", "x^2*y^2", "--rect", "1,2,1,3"),
        ("locate", "--theorem", "boggio1d", "--f", "x^3", "--g", "(x-1.5)^3", "--rect", "1,2"),
        ("locate", "--theorem", "rmvt", "--f", "exp(4000*x*(1-x)*y)", "--rect", "0,1,0,1"),
        ("locate", "--theorem", "rmvt", "--f", "1/(x*y)", "--rect", "-1,1,-1,1"),
        (
            "verify", "--theorem", "boggio2d", "--f", "x^2*y^2", "--g", "x*y",
            "--rect", "1,2,1,3", "--point", "1.5,1.6",
        ),
        ("verify", "--theorem", "pompeiu1d", "--f", "x^2", "--rect", "1,2", "--point", "1.4"),
        ("sweep", "--theorem", "boggio2d", "--family", "rational", "--count", "20"),
        ("grad-check", "--f", "exp(700*x)", "--at", "1,1"),
    ],
)
def test_stdout_is_strict_json(capsys, argv):
    _, out, _ = run_cli(capsys, *argv)
    if out:
        _strict_json(out)


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["locate", "--nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["--grid-n", "--refinements"])
def test_verify_takes_only_the_tolerance_flag(capsys, flag):
    verify = ["verify", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "0,1,0,1", "--point", "0.5,0.5"]
    with pytest.raises(SystemExit) as exit_info:
        main(verify + [flag, "3"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    # --tau is validated as locate validates it
    code, _, err = run_cli(capsys, *verify, "--tau", "0")
    assert (code, err) == (2, "invalid input: tol_factor must be positive\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["locate", "--theorem", "rmvt", "--f", "x*y", "--rect", "0,1,0,1"],
        ["sweep", "--theorem", "rmvt", "--count", "1"],
        ["verify", "--theorem", "rmvt", "--f", "x*y", "--rect", "0,1,0,1", "--point", "0.5,0.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_flag_defaults_are_the_locate_config_defaults(argv):
    args = cli._build_argparser().parse_args(argv)
    if argv[0] == "verify":
        assert cli.LocateConfig(tol_factor=args.tau) == cli.LocateConfig()
    else:
        assert cli._config_from_args(args) == cli.LocateConfig()


def test_negative_expression_value_accepted(capsys):
    code, out, _ = run_cli(capsys, "parse", "--f", "-x^2+1")
    assert code == 0
    assert out.splitlines()[0] == "binary +"


# -- one parser per process --------------------------------------------------------


def test_argparser_is_built_once_per_process():
    assert cli._build_argparser() is cli._build_argparser()


_INTERLEAVED = [
    ["locate", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "0,1,0,1"],
    ["verify", "--theorem", "pompeiu1d", "--f", "x^3", "--rect", "1,2", "--point", "1.5", "--tau", "1e-6"],
    ["grad-check", "--f", "sin(x)*y", "--at", "-0.5,2"],
    ["parse", "--f", "x^2*y"],
    ["locate", "--theorem", "rmvt", "--f", "x*y", "--rect", "0,1,0,1", "--bogus"],  # argparse error
    ["locate", "--theorem", "rmvt", "--f", "x*y", "--rect", "0,1,0"],  # ValueError, exit 2
]


def _in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_match_fresh_processes(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(rectmvt.__file__).parents[1])}
    alone = [
        subprocess.run(
            [sys.executable, "-m", "rectmvt.cli", *argv], env=env, capture_output=True, text=True
        )
        for argv in _INTERLEAVED
    ]
    assert {p.returncode for p in alone} == {0, 2}
    # every call twice, the second round in reverse, so each call follows a
    # call of every other kind, an argparse error included
    order = list(range(len(_INTERLEAVED))) + list(reversed(range(len(_INTERLEAVED))))
    for i in order:
        expected = alone[i]
        assert _in_process(capsys, _INTERLEAVED[i]) == (
            expected.returncode,
            expected.stdout,
            expected.stderr,
        )
