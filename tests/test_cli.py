import json
import math

import pytest

from rectmvt.cli import main

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


def test_locate_evaluation_failure_exits_1(capsys):
    # 1/(x*y) has poles on the axes, and the rectangle straddles both; the
    # 33x33 cell-center grid hits x = 0 exactly, so locate must report failure
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "rmvt", "--f", "1/(x*y)", "--rect", "-1,1,-1,1"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["outcome"] == "failed"
    assert doc["point"] is None
    assert "failure" in doc


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


def test_locate_one_dimensional(capsys):
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "pompeiu1d", "--f", "x^2", "--rect", "1,2", "--tau", "1e-12"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["point"]["xi"] - math.sqrt(2.0)) <= 1e-9


def test_locate_one_dimensional_counts_one_axis(capsys):
    # 33 grid samples, one confirmation, two bracket ends and 29 bisection steps
    code, out, _ = run_cli(
        capsys, "locate", "--theorem", "pompeiu1d", "--f", "x^2", "--rect", "1,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["evaluations"] == 65
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


def test_parse_error_offset(capsys):
    code, _, err = run_cli(capsys, "parse", "--f", "2*+x")
    assert code == 2
    assert "offset 2" in err


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
    ],
)
def test_non_finite_input_exits_2_without_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:") and "finite" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["locate", "--nonsense"])
    assert err.value.code == 2


def test_negative_expression_value_accepted(capsys):
    code, out, _ = run_cli(capsys, "parse", "--f", "-x^2+1")
    assert code == 0
    assert out.splitlines()[0] == "binary +"
