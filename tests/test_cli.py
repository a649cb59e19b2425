import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rectmvt
from rectmvt import cli
from rectmvt.cli import main
from rectmvt.expr import MAX_DEPTH, EvaluationError, OutOfDomainError, parse
from rectmvt.hyperdual import eval_hyperdual, finite_difference_oracle

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


@pytest.mark.parametrize(
    "f, x, message",
    [("sqrt(x)", 1e-300, "sqrt of a negative value"), ("log(x)", 1e-10, "log of a non-positive value")],
)
def test_gradcheck_names_a_stencil_point_outside_the_domain(capsys, f, x, message):
    # f and its derivatives are defined at (x, 1), but the oracle's stencil
    # steps max(1, |x|) * eps**(1/3) to the left of x, below 0
    point = f"({x - sys.float_info.epsilon ** (1 / 3)!r}, 1.0)"
    code, out, err = run_cli(capsys, "grad-check", "--f", f, "--at", f"{x!r},1")
    assert code == 3 and not out
    assert err == (
        f"evaluation failed: {message} at the finite-difference stencil point {point}, "
        f"a step of max(1, |coordinate|) * eps**(1/3) from ({x!r}, 1.0)\n"
    )
    with pytest.raises(OutOfDomainError, match=rf"^{message} at .*{re.escape(point)}"):
        finite_difference_oracle(parse(f), x, 1.0)
    assert eval_hyperdual(parse(f), x, 1.0).dx > 0.0


@pytest.mark.parametrize(
    "f, at, error, message, point",
    [
        # a divisor that is zero exactly at the stencil's first point, (x0 + hx, y0)
        ("1/(x-6.055454452393343e-06)", "0,1", OutOfDomainError, "float division by zero",
         "(6.055454452393343e-06, 1.0)"),
        # f is finite at (x0, y0), but overflows one step to the right
        ("exp(x)", "709.78,1", EvaluationError, "math range error", "(709.7842980404612, 1.0)"),
    ],
    ids=["zero-divisor", "overflow"],
)
def test_gradcheck_names_the_stencil_point_where_f_fails(capsys, f, at, error, message, point):
    code, out, err = run_cli(capsys, "grad-check", "--f", f, "--at", at)
    x0, y0 = map(float, at.split(","))
    suffix = (
        f" at the finite-difference stencil point {point}, "
        f"a step of max(1, |coordinate|) * eps**(1/3) from ({x0!r}, {y0!r})"
    )
    assert (code, out, err) == (3, "", f"evaluation failed: {message}{suffix}\n")
    with pytest.raises(error, match=f"^{re.escape(message + suffix)}$") as raised:
        finite_difference_oracle(parse(f), x0, y0)
    assert type(raised.value) is error
    assert math.isfinite(eval_hyperdual(parse(f), x0, y0).v)


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
    monkeypatch.setattr("rectmvt.theorems._at_corners", no_evaluation)
    monkeypatch.setattr("rectmvt.theorems.compile_body", no_evaluation)
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


@pytest.mark.parametrize(
    "argv, message",
    [
        # a value flag followed by another option has no value, and is named
        (["grad-check", "--at", "--f", "x*y"], "argument --at: expected one argument"),
        (["grad-check", "--a", "--f", "x*y"], "argument --at: expected one argument"),
        (["grad-check", "--f", "--a", "1,2"], "argument --f: expected one argument"),
        (["locate", "--theorem", "rmvt", "--f", "x", "--rect", "--grid-n", "9"], "argument --rect: expected one argument"),
        (["verify", "--theorem", "rmvt", "--f", "x", "--rect", "0,1,0,1", "--point", "-h"],
         "argument --point: expected one argument"),
        # an error quotes the arguments as they were given, never a merged --flag=value
        (["parse", "--f", "x", "--at", "1,2"], "unrecognized arguments: --at 1,2"),
        (["locate", "--theorem", "rmvt", "--f", "x", "--rect", "0,1,0,1", "--point", "-1,2"],
         "unrecognized arguments: --point -1,2"),
        (["--at", "1,2", "parse"], "argument command: invalid choice: '1,2'"),
    ],
)
def test_a_value_flag_takes_no_option_as_its_value(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "=" not in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--theorem", "rmvt", "--count", "3"],
        ["locate", "--theorem", "pompeiu2d", "--f", "1e-12*x^2*y^2", "--rect", "1,2,1,3"],
    ],
)
def test_a_closed_stdout_ends_the_call_quietly(argv):
    # the reading end of the pipe is closed before anything is written, so
    # every write fails, as it does once ``head`` has read its lines
    env = {**os.environ, "PYTHONPATH": str(Path(rectmvt.__file__).parents[1])}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rectmvt.cli", *argv], env=env, stdout=write, stderr=subprocess.PIPE
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"") == (141, b"")


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


# -- one parse per call ----------------------------------------------------------


def _handler_namespaces(monkeypatch):
    """A list that records ``vars(args)`` of each handler call, with every
    command's handler wrapped to record it."""
    seen = []
    for sub, *_ in cli._commands().values():
        handler = sub.get_default("handler")

        def recording(args, handler=handler):
            seen.append(dict(vars(args)))
            return handler(args)

        monkeypatch.setitem(sub._defaults, "handler", recording)
    return seen


def _one_parser_for_all(argv):
    """``main`` as it ran with the top-level parser reading every argument: the
    merged arguments through ``parse_args``, then the handler, with ``main``'s
    exception mapping."""
    command = cli._commands().get(argv[0]) if argv else None
    merged = argv if command is None else cli._merge_flag_values(argv, *command[1:3])
    args = cli._build_argparser().parse_args(merged)
    try:
        return args.handler(args)
    except cli.ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2
    except cli.TheoremError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 3
    except (cli.EvaluationError, cli.GenerationError) as err:
        print(f"evaluation failed: {err}", file=sys.stderr)
        return 3


_LOCATE = ["locate", "--theorem", "rmvt", "--f", "x^2*y", "--rect", "0,1,0,1"]
_DISPATCH_CORPUS = [
    # a valid call of each command
    _LOCATE,
    ["verify", "--theorem", "pompeiu1d", "--f", "x^3", "--rect", "1,2", "--point", "1.5", "--tau", "1e-6"],
    ["sweep", "--theorem", "rolle", "--count", "1", "--family", "bilinear", "--seed", "-3"],
    ["grad-check", "--f", "sin(x)*y", "--at", "-0.5,2"],
    ["parse", "--f", "-x^2*y"],
    # help, of each command and at top level
    ["locate", "--help"], ["verify", "-h"], ["sweep", "--help"], ["grad-check", "--help"],
    ["parse", "--he"], ["--help"], ["-h"], ["-h", "locate"],
    # no arguments, an unknown command, and a flag before the command
    [], ["bogus"], ["bogus", "--f", "x"], ["--f", "x", "parse"], ["Locate", "--f", "x"],
    # an unknown flag, a stray positional and stray flags after a valid call
    _LOCATE + ["--bogus"], _LOCATE + ["stray"], _LOCATE + ["--bogus", "-1,2", "stray"],
    ["parse", "--f", "x", "--at", "1,2"], ["grad-check", "--f", "x", "--at", "1,2", "--point", "3"],
    # abbreviations, of a plain flag and of value flags, unique and ambiguous
    ["locate", "--the", "rmvt", "--f", "x^2*y", "--rec", "0,1,0,1", "--ref", "1", "--grid", "9"],
    ["verify", "--theorem", "rmvt", "--f", "x*y", "--r", "-1,1,-1,1", "--po", "-0.5,0.5"],
    ["grad-check", "--f", "x*y", "--a", "-1,2"],
    ["locate", "--theorem", "rmvt", "--f", "x*y", "--re", "-1,1,-1,1"],
    ["sweep", "--theorem", "rmvt", "--count", "1", "--fam", "poly2"],
    # a missing required flag, a flag with no value, and values of the wrong kind
    ["locate", "--theorem", "rmvt", "--f", "x*y"], ["grad-check", "--f", "x*y", "--at"],
    _LOCATE + ["--grid-n", "3.5"], _LOCATE + ["--theorem", "nope"], ["sweep", "--theorem", "rmvt", "--count", "0"],
    # a `--` separator, before a flag and after the last one
    ["parse", "--", "--f", "x"], ["parse", "--f", "x", "--"], _LOCATE + ["--", "stray"],
    # the handlers' own exits: a parse error, invalid input and a violated precondition
    ["parse", "--f", "x+"], ["locate", "--theorem", "rmvt", "--f", "x*y", "--rect", "0,1,0"],
    ["locate", "--theorem", "pompeiu2d", "--f", "x*y", "--rect", "-1,2,1,3"],
    ["grad-check", "--f", "1/x", "--at", "0,1"],
    # read from the option table: both value forms, mixed, and a repeated
    # option, whose last value counts
    ["locate", "--theorem=rmvt", "--f=x^2*y", "--rect=0,1,0,1", "--grid-n=9", "--tau=1e-9"],
    ["grad-check", "--f=sin(x)*y", "--at", "0.5,2"],
    _LOCATE + ["--theorem", "pompeiu2d", "--rect=1,2,1,3", "--grid-n", "9", "--grid-n=17"],
    ["sweep", "--theorem", "rmvt", "--count", "2", "--count=1", "--seed=3", "--seed", "4", "--family=bilinear"],
    # "=" inside a value, an empty value, and values that start with a minus sign
    ["parse", "--f=x=y"], ["parse", "--f", "x=y"], ["parse", "--f", ""], ["parse", "--f="],
    ["locate", "--theorem", "rmvt", "--f", "x*y", "--g", "", "--rect", "0,1,0,1"],
    ["locate", "--theorem", "rmvt", "--f=-x*y", "--rect=-1,-0.5,1,2"],
    ["sweep", "--theorem", "rmvt", "--count=1", "--seed=-3"],
    ["sweep", "--theorem", "rmvt", "--count", "1", "--seed", "-3"],
    ["grad-check", "--f", "x*y", "--at", "-"], ["parse", "--f", "--"],
    # bad values of a typed option and of one with choices, in both forms
    _LOCATE + ["--grid-n=x"], _LOCATE + ["--grid-n", ""], _LOCATE + ["--refinements", "1.0"],
    _LOCATE + ["--tau", "abc"], _LOCATE + ["--tau="], _LOCATE + ["--tau", "nan"],
    ["sweep", "--theorem", "rmvt", "--count=0"], ["sweep", "--theorem", "rmvt", "--count", "x"],
    ["sweep", "--theorem", "rmvt", "--count", "-2"],
    ["sweep", "--theorem", "rmvt", "--count", "1", "--count", "x"],
    ["locate", "--theorem=nope", "--f", "x*y", "--rect", "0,1,0,1"],
    ["locate", "--theorem", "RMVT", "--f", "x", "--rect", "0,1,0,1"],
    # missing required flags, `--` and help after flags the table reads
    ["parse"], ["verify", "--theorem=rmvt", "--f=x", "--rect=0,1,0,1"], ["sweep", "--theorem", "rmvt"],
    ["parse", "--f", "x", "--", "--f", "y"], ["parse", "--f=x", "--"],
    _LOCATE + ["-h"], ["parse", "--f", "x", "--help"],
    # an option of another command, and a flag that is no option at all
    ["parse", "--f", "x", "--at=1,2"], ["grad-check", "--f", "x", "--at", "1,2", "--rect=0,1,0,1"],
    ["parse", "--f", "x", "=x"], ["parse", "--f", "x", "-"], ["parse", "--f", "x", "--f"],
]


@pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_each_call_reads_its_arguments_as_the_top_level_parser_did(capsys, monkeypatch, argv):
    namespaces = _handler_namespaces(monkeypatch)
    results = []
    for run in (main, _one_parser_for_all):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    # both paths reach the handler, or neither does
    assert len(namespaces) in (0, 2)
    if namespaces:
        assert repr(namespaces[0]) == repr(namespaces[1])  # in order, and a NaN equal to itself
        assert namespaces[0]["command"] == argv[0]


def test_a_command_is_parsed_by_its_own_parser_alone(capsys, monkeypatch):
    calls = []
    parse_known_args = cli.argparse.ArgumentParser.parse_known_args

    def counting(parser, *args, **kwargs):
        calls.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_known_args", counting)
    # a fully spelled argv is read from its command's option table
    assert run_cli(capsys, "parse", "--f", "x")[0] == 0
    assert run_cli(capsys, "grad-check", "--f=x*y", "--at", "1,2")[0] == 0
    assert run_cli(capsys, *_LOCATE, "--grid-n", "9", "--grid-n=17")[0] == 0
    assert calls == []
    # an abbreviated argv is read by its command's own parser alone
    assert run_cli(capsys, "grad-check", "--f", "x*y", "--a", "1,2")[0] == 0
    assert calls == ["rectmvt grad-check"]
    # a known command never reaches the top-level parser, help and errors included
    calls.clear()
    for argv in (["parse", "--help"], _LOCATE + ["--bogus"], ["sweep", "--theorem", "rmvt", "--count", "0"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert calls == ["rectmvt parse", "rectmvt locate", "rectmvt sweep"]
    assert cli._commands() is cli._commands()


def _read(argvs) -> list:
    """What ``cli._arguments`` makes of each argv: the namespace's items in
    order, or the exit code, stdout and stderr of the ``SystemExit`` it raised."""
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                results.append(list(vars(cli._arguments(list(argv))).items()))
            except SystemExit as exc:
                results.append((exc.code, out.getvalue(), err.getvalue()))
    return results


# per option, two values that pass its type and choices, then values that may
# not or that only the argparse path reads
_FUZZ_VALUES = {
    "--theorem": ["rmvt", "boggio1d", "nope", "RMVT"], "--f": ["x*y", "sin(x)", "-x^2"],
    "--g": ["x+y", "", "-y"], "--rect": ["0,1,0,1", "1,2", "-1,2,1,3"], "--point": ["0.5,0.5", "1", "-0.5"],
    "--at": ["1,2", "0.5,0.5", "-1,2"], "--grid-n": ["9", "33", "3.5", "x", "-4"],
    "--refinements": ["0", "2", "1.0", "-1"], "--tau": ["1e-6", "0", "nan", "inf", "x", "-1e-3"],
    "--count": ["1", "20", "0", "x", "-2"], "--seed": ["7", "42", "-3", "0x10", "x"],
    "--family": ["poly4", "bilinear", "bogus"], "--csv": ["out.csv", "a=b.csv", "-"],
}
_FUZZ_ODD = ["", "-", "--", "-x", "a=b", "x y", "é", "=", "-1,2"]
_FUZZ_STRAY = [
    "--", "-h", "--help", "--bogus", "stray", "--at", "--point=1,2", "--count", "--the", "--f", "--re", "-1",
]


def _fuzz_argv(rng, command: str, options: list[str], required: list[str]) -> list[str]:
    """A random argv of ``command``: its required options and some others,
    each in one of the two value forms, now and then repeated, abbreviated,
    without a value or with an odd one, and stray tokens between them."""
    chosen = [o for o in required if rng.random() < 0.95]
    chosen += rng.sample(options, rng.randint(0, min(3, len(options))))
    rng.shuffle(chosen)
    argv = [command]
    for option in chosen:
        roll = rng.random()
        values = _FUZZ_VALUES[option]
        value = rng.choice(values[:2] if roll < 0.8 else values if roll < 0.92 else _FUZZ_ODD)
        roll = rng.random()
        if roll < 0.03:
            option = option[: rng.randint(3, len(option))]
        if roll < 0.45:
            argv += [f"{option}={value}"]
        elif roll < 0.98:
            argv += [option, value]
        else:
            argv += [option]
        if rng.random() < 0.04:
            argv.insert(rng.randint(1, len(argv)), rng.choice(_FUZZ_STRAY))
    return argv


def test_the_option_table_reads_every_argv_as_argparse_does(monkeypatch):
    rng = random.Random(27)
    argvs = []
    taken = {}
    for command, (parser, _, _, table) in cli._commands().items():
        stores, _, required = table
        options = list(stores)
        batch = [
            _fuzz_argv(rng, command, options, [o for o in options if stores[o].dest in required])
            for _ in range(2000)
        ]
        taken[command] = sum(cli._table_namespace(argv, parser, *table) is not None for argv in batch)
        argvs += batch
    ours = _read(argvs)
    monkeypatch.setattr(cli, "_table_namespace", lambda *args: None)
    theirs = _read(argvs)
    assert [argv for argv, a, b in zip(argvs, ours, theirs) if repr(a) != repr(b)] == []
    # each command's argvs take each path at least 300 times of 2,000
    assert all(300 <= n <= 1700 for n in taken.values()), taken


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["grad-check", "--f", "x*y", "--a", "-1,2"], "--at"),
        (["locate", "--theorem", "rmvt", "--f", "x^2*y", "--rec", "-1,-0.5,1,2"], "--rect"),
        (["verify", "--theorem", "rmvt", "--f", "x^2*y", "--r", "-1,-0.5,1,2", "--po", "-0.75,1.5"], "--rect"),
    ],
    ids=["--a", "--rec", "--r --po"],
)
def test_an_abbreviated_value_flag_takes_a_negative_value(capsys, argv, flag):
    # the abbreviation resolves to one value flag of the command, as argparse
    # resolves it; until it was merged with its value, argparse read "-1,2" as
    # an option string and exited 2
    full = [
        {"--a": "--at", "--rec": "--rect", "--r": "--rect", "--po": "--point"}.get(arg, arg)
        for arg in argv
    ]
    assert full != argv and flag in full
    assert run_cli(capsys, *argv) == run_cli(capsys, *full)
    assert run_cli(capsys, *argv)[0] == 0


def test_an_ambiguous_abbreviation_still_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["locate", "--theorem", "rmvt", "--f", "x*y", "--re", "-1,1,-1,1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: rectmvt locate ")
    assert err.endswith("rectmvt locate: error: ambiguous option: --re could match --rect, --refinements\n")


def test_each_command_merges_the_abbreviations_of_its_own_value_flags():
    # every exact name, and each prefix that is one value flag's alone
    flags = {name: set(merged) - set(cli._VALUE_FLAGS) for name, (_, merged, *_) in cli._commands().items()}
    assert flags == {
        "locate": {"--rec"},
        "verify": {"--r", "--re", "--rec", "--p", "--po", "--poi", "--poin"},
        "sweep": set(),
        "grad-check": {"--a"},
        "parse": set(),
    }


# -- the JSON writer ---------------------------------------------------------------


def _written(doc) -> str:
    out = []
    cli._json(doc, "", out)
    return "".join(out)


def test_the_json_writer_writes_what_json_dumps_writes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = (
        st.floats(allow_subnormal=True)
        | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-7, 2.0**53 + 2])
        | st.floats().map(np.float64)
    )
    scalars = st.none() | st.booleans() | st.integers() | floats | st.text()
    docs = st.recursive(
        scalars,
        lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
        max_leaves=25,
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(docs)
    def check(doc):
        assert _written(doc) == json.dumps(doc, indent=2)

    check()


@pytest.mark.parametrize("doc", [object(), [1, {"a": {1, 2}}], {"k": 1j}, [0.5, np.int64(1)]])
def test_the_json_writer_rejects_what_json_dumps_rejects(doc):
    with pytest.raises(TypeError) as ours:
        _written(doc)
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, indent=2)
    assert str(ours.value) == str(theirs.value)
    # a key that is not a string, which json converts, is rejected
    with pytest.raises(TypeError):
        _written({"a": {1: doc}})


def test_every_printed_document_is_what_json_dumps_writes(monkeypatch):
    from output_digest import case_commands, generated_cases, sweep_commands

    docs = []
    emit = cli._emit

    def recording(doc):
        docs.append(doc)
        emit(doc)

    monkeypatch.setattr(cli, "_emit", recording)
    printed = {}

    def run(argv):
        docs.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        if docs:
            (doc,) = docs
            assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
            printed[argv[0]] = printed.get(argv[0], 0) + 1
        return code, out.getvalue(), ""

    for _, flags, center in generated_cases(2):
        case_commands(flags, center, run)
    for argv in sweep_commands(2):
        run(argv)
    # every case of all seven theorems prints a locate, verify and grad-check document
    assert printed == {"locate": 140, "verify": 140, "grad-check": 140, "sweep": 7}


def test_the_option_table_of_any_parser_reads_as_argparse_does():
    # a string default that its type converts, a default that is not a
    # string, choices, and an action the table leaves to argparse
    parser = cli.argparse.ArgumentParser(prog="p")
    parser.add_argument("--n", type=int, default="5")
    parser.add_argument("--x", type=float, default=None, choices=(0.5, 1.0))
    parser.add_argument("--name", default="a", required=True)
    parser.add_argument("--flag", action="store_true")
    parser.set_defaults(handler=len, n=7)
    table = cli._option_table(parser)
    assert sorted(table[0]) == ["--n", "--name", "--x"]
    for argv in (["--name", "b"], ["--name=b", "--n", "3", "--x=1"], ["--name", "c", "--n=4", "--n", "6"]):
        ours = cli._table_namespace(["p", *argv], parser, *table)
        theirs, rest = parser.parse_known_args(argv, cli.argparse.Namespace(command="p"))
        assert (list(vars(ours).items()), rest) == (list(vars(theirs).items()), [])
    for argv in ([], ["--name", "b", "--flag"], ["--name", "b", "--x", "2"], ["--name", "b", "--n", "x"]):
        assert cli._table_namespace(["p", *argv], parser, *table) is None
