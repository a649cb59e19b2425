import math
import random

import pytest

from rectmvt.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    EvaluationError,
    Neg,
    ParseError,
    Var,
    const,
    evaluate,
    parse,
    pretty_print,
    substitute,
    variables,
)


def test_parse_smallest_product():
    assert parse("x*y") == BinOp("*", Var("x"), Var("y"))


def test_parse_power_binds_tighter_than_product():
    expected = BinOp("*", BinOp("^", Var("x"), Const(2.0)), BinOp("^", Var("y"), Const(2.0)))
    assert parse("x^2*y^2") == expected


def test_parse_empty_operand_offset():
    with pytest.raises(ParseError) as err:
        parse("2*+x")
    assert err.value.offset == 2
    assert err.value.message == "empty operand"


def test_parse_alias_normalization():
    assert parse("sin(t*s)") == Call("sin", BinOp("*", Var("x"), Var("y")))
    assert parse("t*s") == parse("x*y")


def test_parse_power_right_associative():
    assert parse("x^2^3") == BinOp("^", Var("x"), BinOp("^", Const(2.0), Const(3.0)))


def test_parse_unary_minus_below_power():
    # -x^2 must read as -(x^2)
    assert parse("-x^2") == Neg(BinOp("^", Var("x"), Const(2.0)))


def test_parse_constants_and_numbers():
    assert parse("pi") == Const(math.pi)
    assert parse("e") == Const(math.e)
    assert parse("2.5e-1") == Const(0.25)


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("x*zebra")
    with pytest.raises(ParseError, match="unbalanced parentheses"):
        parse("(x+y")
    with pytest.raises(ParseError, match="trailing garbage"):
        parse("x)")
    with pytest.raises(ParseError, match="empty input"):
        parse("   ")
    with pytest.raises(ParseError, match="unexpected character"):
        parse("x @ y")
    with pytest.raises(ParseError, match="expected '\\('"):
        parse("sin x")
    # nested deeper than MAX_DEPTH: each would overflow the stack of the
    # parser or of a later walk over the tree
    for text in (
        "(" * 300 + "x" + ")" * 300,
        "-" * 1200 + "x",
        "x*y" + "+x" * 2999,
        "sin(" * 300 + "x" + ")" * 300,
        "x" + "^x" * 300,
    ):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(text)


# each construct at n levels, and the offset of the construct one past
# MAX_DEPTH levels: the depth check names the construct that goes over
NESTING = {
    "paren": (lambda n: "(" * n + "x" + ")" * n, MAX_DEPTH, "("),
    "minus": (lambda n: "-" * n + "x", MAX_DEPTH, "-"),
    "power": (lambda n: "x" + "^x" * n, 1 + 2 * MAX_DEPTH, "^"),
    "call": (lambda n: "sin(" * n + "x" + ")" * n, 4 * MAX_DEPTH, "sin"),
    "binary": (lambda n: "x" + "*y" * n, 1 + 2 * MAX_DEPTH, "*"),
}


@pytest.mark.parametrize("kind", NESTING)
def test_parse_depth_error_names_the_construct_past_max_depth(kind):
    nest, offset, token = NESTING[kind]
    parse(nest(MAX_DEPTH))
    with pytest.raises(ParseError) as err:
        parse(nest(MAX_DEPTH + 1))
    assert (err.value.message, err.value.offset, err.value.token) == ("nested too deeply", offset, token)


def test_parse_rejects_a_literal_too_large_for_a_float():
    for text, offset in (("1e999", 0), ("x*y*1e999", 4), ("2*1e999+(", 2)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.message, err.value.offset, err.value.token) == ("number too large", offset, "1e999")
    assert parse("1e308") == Const(1e308)
    assert parse("1e-999") == Const(0.0)  # underflow is not an error


def test_parse_error_offset_within_input():
    for text in ("2*+x", "x*zebra", "(x+y", "x)"):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert 0 <= err.value.offset <= len(text)


def test_pretty_print_examples():
    assert pretty_print(BinOp("*", Var("x"), Var("y"))) == "(x*y)"
    assert pretty_print(parse("x + y*2")) == "(x+(y*2))"
    assert pretty_print(parse("sin(t*s)")) == "sin((x*y))"


def test_pretty_print_round_trip_generated(random_expression):
    rng = random.Random(20260810)
    for _ in range(100):
        tree = random_expression(rng)
        assert parse(pretty_print(tree)) == tree


def test_evaluate_direct_arithmetic():
    assert evaluate(parse("x^2*y"), 2, 3) == pytest.approx(12.0, abs=0.0)


def test_evaluate_closed_forms_at_random_points():
    cases = {
        "x*y": lambda x, y: x * y,
        "x^2*y": lambda x, y: x * x * y,
        "x^2*y^2": lambda x, y: x * x * y * y,
        "sin(x)*sin(y)": lambda x, y: math.sin(x) * math.sin(y),
        "exp(x+y)": lambda x, y: math.exp(x + y),
        "1/(x*y)": lambda x, y: 1.0 / (x * y),
    }
    rng = random.Random(7)
    for text, closed in cases.items():
        tree = parse(text)
        for _ in range(100):
            x = rng.uniform(0.5, 3.0)
            y = rng.uniform(0.5, 3.0)
            got = evaluate(tree, x, y)
            want = closed(x, y)
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_evaluate_pole_is_error():
    with pytest.raises(EvaluationError):
        evaluate(parse("1/x"), 0, 1)


def test_evaluate_domain_errors():
    with pytest.raises(EvaluationError):
        evaluate(parse("log(x)"), -1.0, 0.0)
    with pytest.raises(EvaluationError):
        evaluate(parse("sqrt(x)"), -4.0, 0.0)
    with pytest.raises(EvaluationError):
        evaluate(parse("x^(0-2)"), 0.0, 0.0)  # 0 to a negative power
    with pytest.raises(EvaluationError):
        evaluate(parse("(0-2)^x"), 0.5, 0.0)  # fractional power of negative base
    with pytest.raises(EvaluationError):
        evaluate(parse("exp(x)"), 1e9, 0.0)  # overflow


def test_const_helper_wraps_negatives():
    assert const(3.0) == Const(3.0)
    assert const(-3.0) == Neg(Const(3.0))
    assert evaluate(const(-3.0), 0.0, 0.0) == -3.0


def test_variables_and_substitute():
    tree = parse("x^2 + sin(y)")
    assert variables(tree) == frozenset({"x", "y"})
    assert variables(parse("3")) == frozenset()
    swapped = substitute(tree, {"x": Var("y"), "y": Var("x")})
    assert swapped == parse("y^2 + sin(x)")
