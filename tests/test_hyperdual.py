import io
import math
import random
import re
import sys
import tokenize
from collections import Counter

import numpy as np
import pytest

from rectmvt.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    EvaluationError,
    Neg,
    OutOfDomainError,
    SignChangeError,
    Var,
    evaluate,
    parse,
    pretty_print,
    substitute,
)
from rectmvt import hyperdual
from rectmvt.theorems import THEOREMS, Rectangle, pompeiu1d_residual
from rectmvt.hyperdual import (
    MAX_INT_POWER,
    Derivatives,
    compile_hyperdual,
    eval_hyperdual,
    finite_difference_oracle,
)

import hyperdual_reference as reference
from hyperdual_reference import HyperDual, lift, seed_x, seed_y


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a))


def test_seed_definitions():
    assert seed_x(2) == HyperDual(2.0, 1.0, 0.0, 0.0)
    assert seed_y(3) == HyperDual(3.0, 0.0, 1.0, 0.0)
    assert lift(5) == HyperDual(5.0, 0.0, 0.0, 0.0)


def test_constants_carry_no_derivative():
    assert lift(5) * lift(3) == HyperDual(15.0, 0.0, 0.0, 0.0)


def test_seed_product_is_bilinear():
    # f = x*y at (2, 3): f_x = 3, f_y = 2, f_xy = 1
    assert seed_x(2) * seed_y(3) == HyperDual(6.0, 3.0, 2.0, 1.0)


def test_multiply_mixed_partial():
    # f = x^2 * y at (2, 3): the x^2 factor is {4,4,0,0}, the y factor {3,0,1,0}
    assert HyperDual(4.0, 4.0, 0.0, 0.0) * HyperDual(3.0, 0.0, 1.0, 0.0) == HyperDual(
        12.0, 12.0, 4.0, 4.0
    )


def test_multiplicative_and_additive_identities():
    rng = random.Random(11)
    for _ in range(50):
        a = HyperDual(
            rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)
        )
        assert a * lift(1) == a
        assert a + lift(0) == a


def test_multiplication_commutes_bitwise():
    rng = random.Random(13)
    for _ in range(100):
        a = HyperDual(
            rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)
        )
        b = HyperDual(
            rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)
        )
        assert a * b == b * a
        assert a + b == b + a


def test_unary_chain_rule_examples():
    # sin at {0,1,1,0}: f = sin(x+y) at (0,0), f_xy = -sin(0) = 0
    assert HyperDual(0.0, 1.0, 1.0, 0.0).sin() == HyperDual(0.0, 1.0, 1.0, 0.0)
    # exp of a constant stays a constant
    assert lift(0).exp() == lift(1)
    # log at {1,1,0,0}: no y-dependence, so dy = dxy = 0
    assert HyperDual(1.0, 1.0, 0.0, 0.0).log() == HyperDual(0.0, 1.0, 0.0, 0.0)


def test_division_by_zero_value_is_error():
    with pytest.raises(EvaluationError):
        lift(1) / HyperDual(0.0, 1.0, 0.0, 0.0)


def test_division_matches_reciprocal_multiplication():
    a = HyperDual(2.0, 1.0, 0.5, 0.25)
    b = HyperDual(3.0, -1.0, 2.0, 0.5)
    q = a / b
    back = q * b
    for got, want in zip((back.v, back.dx, back.dy, back.dxy), (a.v, a.dx, a.dy, a.dxy)):
        assert got == pytest.approx(want, rel=1e-14)


def test_integer_powers_are_exact():
    x = seed_x(2.0)
    assert x ** 3 == HyperDual(8.0, 12.0, 0.0, 0.0)
    assert x ** 0 == HyperDual(1.0, 0.0, 0.0, 0.0)
    inv = x ** -2
    assert inv.v == pytest.approx(0.25, rel=1e-15)
    assert inv.dx == pytest.approx(-0.25, rel=1e-15)


def test_fractional_power_matches_sqrt():
    x = seed_x(2.0)
    a = x ** 0.5
    b = x.sqrt()
    assert a.v == pytest.approx(b.v, rel=1e-15)
    assert a.dx == pytest.approx(b.dx, rel=1e-15)


def test_fractional_power_of_negative_base_is_error():
    with pytest.raises(EvaluationError):
        seed_x(-2.0) ** 0.5


def test_eval_hyperdual_closed_form_partials():
    assert eval_hyperdual(parse("x^2*y"), 2.0, 3.0) == (12.0, 12.0, 4.0, 4.0)


def test_eval_hyperdual_bilinear_mixed_partial_exact():
    tree = parse("x*y")
    rng = random.Random(17)
    for _ in range(25):
        h = eval_hyperdual(tree, rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert h.dxy == 1.0


def test_eval_hyperdual_product_rule():
    h = eval_hyperdual(parse("x^2*y^2"), 1.5, 1.6330)
    assert h.dxy == pytest.approx(4.0 * 1.5 * 1.6330, rel=1e-13)


def test_eval_hyperdual_via_generic_evaluate():
    out = reference.evaluate(parse("x*y"), seed_x(2), seed_y(3))
    assert out == HyperDual(6.0, 3.0, 2.0, 1.0)


def test_mixed_partial_symmetric_under_seed_swap():
    # swapping which seed carries dx and which carries dy must reproduce dxy
    # bitwise and exchange the first partials, in the reference and in the
    # compiled program, where the swap is f(y, x) run at (y0, x0)
    from rectmvt.harness import FunctionFamily, derive_seed, generate_function, generate_rectangle

    exprs = ["x^2*y", "sin(x)*sin(y)", "exp(x+y)", "1/(x*y)", "x^3*y^2 - 2*x*y"]
    # factors that each depend on x and y, so both cross terms of a product count
    exprs += ["sin(x+y)*exp(x*y)", "(x+2*y)^3/(x*y+1)", "sqrt(x+y)*log(x*y+2)"]
    cases = [(parse(text), Rectangle(0.5, 2.5, 0.5, 2.5)) for text in exprs]
    for kind in ("polynomial", "separable", "exp-poly", "rational"):
        for i in range(5):
            rect = generate_rectangle(derive_seed(37, i), zero_free=True)
            cases.append((generate_function(FunctionFamily(kind), derive_seed(38, i), rect), rect))
    swap = {"x": Var("y"), "y": Var("x")}
    rng = random.Random(19)
    for tree, rect in cases:
        program = compile_hyperdual(tree)
        swapped_program = compile_hyperdual(substitute(tree, swap))
        for _ in range(10):
            x0 = rng.uniform(rect.x1, rect.x2)
            y0 = rng.uniform(rect.y1, rect.y2)
            normal = reference.evaluate(tree, seed_x(x0), seed_y(y0))
            swapped = reference.evaluate(tree, seed_y(x0), seed_x(y0))
            assert normal.dxy == swapped.dxy
            assert normal.dx == swapped.dy
            assert normal.dy == swapped.dx
            assert normal.v == swapped.v
            v, dx, dy, dxy = program(x0, y0)
            sv, sdx, sdy, sdxy = swapped_program(y0, x0)
            assert _bits(sv) == _bits(v) and _bits(sdxy) == _bits(dxy), pretty_print(tree)
            assert _bits(sdx) == _bits(dy) and _bits(sdy) == _bits(dx), pretty_print(tree)


def test_finite_difference_oracle_examples():
    h = finite_difference_oracle(parse("x^2*y"), 2.0, 3.0)
    assert _rel_err(4.0, h.dxy) <= 1e-6
    # the cross stencil is exact for bilinear functions, but at the fixed step
    # max(1,|x|)*eps^(1/3) the product-rounding noise is Theta(eps^(1/3))*|f|,
    # so the practical agreement level is 1e-5, not ulp-level
    h = finite_difference_oracle(parse("x*y"), 0.7, -1.3)
    assert _rel_err(1.0, h.dxy) <= 1e-5
    h = finite_difference_oracle(parse("sin(x)*sin(y)"), 0.7, 0.3)
    assert _rel_err(math.cos(0.7) * math.cos(0.3), h.dxy) <= 1e-6


def oracle_check_cases(count: int):
    """Seeded (expression, rectangle) pairs kept at magnitudes where the fixed
    finite-difference step resolves every derivative component to 1e-5."""
    from rectmvt.harness import FunctionFamily, derive_seed, generate_function
    from rectmvt.theorems import Rectangle

    families = [
        FunctionFamily("polynomial", max_degree=4, coeff_range=(-0.6, 0.6)),
        FunctionFamily("separable", max_degree=2, coeff_range=(-0.6, 0.6)),
        FunctionFamily("exp-poly"),
        FunctionFamily("rational", coeff_range=(-0.8, 0.8)),
    ]
    for i in range(count):
        rng = random.Random(derive_seed(900, i))
        x1 = rng.uniform(0.5, 1.0)
        x2 = x1 + rng.uniform(0.3, 0.6)
        y1 = rng.uniform(0.5, 1.0)
        y2 = y1 + rng.uniform(0.3, 0.6)
        rect = Rectangle(x1, x2, y1, y2)
        family = families[i % len(families)]
        yield generate_function(family, derive_seed(901, i), rect), rect


def test_oracle_agreement_on_generated_expressions():
    rng = random.Random(23)
    for tree, rect in oracle_check_cases(50):
        for _ in range(5):
            x0 = rng.uniform(rect.x1 + 0.1 * rect.width, rect.x2 - 0.1 * rect.width)
            y0 = rng.uniform(rect.y1 + 0.1 * rect.height, rect.y2 - 0.1 * rect.height)
            hd = eval_hyperdual(tree, x0, y0)
            fd = finite_difference_oracle(tree, x0, y0)
            assert _rel_err(hd.v, fd.v) <= 1e-5
            assert _rel_err(hd.dx, fd.dx) <= 1e-5
            assert _rel_err(hd.dy, fd.dy) <= 1e-5
            assert _rel_err(hd.dxy, fd.dxy) <= 1e-5


def _per_point_oracle(f, x0, y0):
    """The oracle written out as nine ``evaluate`` calls: the value, the first
    partials' points and then the cross stencil, each in its formula's order."""
    x0, y0 = float(x0), float(y0)
    hx = max(1.0, abs(x0)) * sys.float_info.epsilon ** (1.0 / 3.0)
    hy = max(1.0, abs(y0)) * sys.float_info.epsilon ** (1.0 / 3.0)

    def e(a, b):
        try:
            return evaluate(f, a, b)
        except EvaluationError as exc:
            raise type(exc)(
                f"{exc} at the finite-difference stencil point ({a!r}, {b!r}), "
                f"a step of max(1, |coordinate|) * eps**(1/3) from ({x0!r}, {y0!r})"
            ) from exc

    v = evaluate(f, x0, y0)
    dx = (e(x0 + hx, y0) - e(x0 - hx, y0)) / (2.0 * hx)
    dy = (e(x0, y0 + hy) - e(x0, y0 - hy)) / (2.0 * hy)
    dxy = (
        e(x0 + hx, y0 + hy) - e(x0 + hx, y0 - hy) - e(x0 - hx, y0 + hy) + e(x0 - hx, y0 - hy)
    ) / (4.0 * hx * hy)
    return (v, dx, dy, dxy)


def _oracle_outcome(oracle, f, x, y):
    try:
        return [_bits(c) for c in oracle(f, x, y)]
    except EvaluationError as exc:
        return (type(exc), str(exc))


# f at a stencil point outside its domain, of a zero divisor or an overflow
# that raises or that is an infinity, one or several of the nine points failing
_STENCIL_EDGES = (
    "sqrt(x)", "sqrt(y)", "sqrt(x*y)", "sqrt(x) + sqrt(y)", "log(x) + log(y)", "log(-x*y)",
    "1/(x-6.055454452393343e-06)", "1/(y+6.055454452393343e-06)", "1/(x*y)", "exp(x)",
    "exp(x*y)", "x^y", "y^-0.5", "(x - 1)^1.5", "x*x", "x*y*y",
)
_STENCIL_EDGE_POINTS = (
    (1e-300, 1e-300), (0.0, 1.0), (1.0, 0.0), (1.0, 1e-300), (-0.0, -0.0), (709.78, 1.0),
    (1.0, 709.78), (26.6, 26.7), (1e-10, 2.0), (1.0 + 1e-9, 0.5), (-3.0, 0.25),
    (1.3407807929942596e154, 1.0), (1.0, 1.3407807929942596e154),
)


def test_oracle_is_the_per_point_stencil():
    from test_readme import COMMANDS

    from rectmvt.harness import derive_seed, family_from_name, generate_function, generate_rectangle

    rng = random.Random(2525)
    cases = []
    for name in ("poly4", "bilinear", "separable", "exp-poly", "rational"):
        family = family_from_name(name)
        for i in range(240):
            rect = generate_rectangle(derive_seed(i, 0), zero_free=i % 2 == 0)
            f = generate_function(family, derive_seed(i, 1), rect)
            # inside the rectangle, or anywhere out to magnitudes that overflow
            if i % 3:
                x, y = rng.uniform(rect.x1, rect.x2), rng.uniform(rect.y1, rect.y2)
            else:
                x, y = (rng.choice((-1, 1)) * 10.0 ** rng.uniform(-3.0, 160.0) for _ in range(2))
            cases.append((f, x, y))
    texts = set(_STENCIL_EDGES)
    for argv in COMMANDS:
        texts.update(value for flag, value in zip(argv, argv[1:]) if flag in ("--f", "--g"))
    for text in sorted(texts):
        for x, y in _STENCIL_EDGE_POINTS:
            cases.append((parse(text), x, y))
    outcomes = Counter()
    for f, x, y in cases:
        got = _oracle_outcome(finite_difference_oracle, f, x, y)
        assert got == _oracle_outcome(_per_point_oracle, f, x, y), (pretty_print(f), x, y)
        outcomes[type(got)] += 1
        if type(got) is tuple:
            outcomes["stencil point" in got[1]] += 1
    # both the values and the errors are compared, errors at f's point and at a stencil point
    assert outcomes[list] > 1000
    assert outcomes[True] > 30 and outcomes[False] > 100


def test_a_finite_stencil_is_two_walks_and_one_evaluation(monkeypatch):
    walks, points = [], []
    real_walk, real_evaluate = hyperdual._at_corners, hyperdual.evaluate

    def walking(node, X, Y):
        walks.append(tuple(zip(X, Y)))
        return real_walk(node, X, Y)

    def counting(expr, x, y):
        points.append((x, y))
        return real_evaluate(expr, x, y)

    monkeypatch.setattr(hyperdual, "_at_corners", walking)
    monkeypatch.setattr(hyperdual, "evaluate", counting)
    d = finite_difference_oracle(parse("sin(x)*exp(y) + x^3/y"), 0.5, 2.0)
    assert d == _per_point_oracle(parse("sin(x)*exp(y) + x^3/y"), 0.5, 2.0)
    assert points == [(0.5, 2.0)]
    h = sys.float_info.epsilon ** (1.0 / 3.0)
    xp, xm, yp, ym = 0.5 + h, 0.5 - h, 2.0 + 2.0 * h, 2.0 - 2.0 * h
    assert walks == [
        ((xp, 2.0), (xm, 2.0), (0.5, yp), (0.5, ym)),
        ((xp, yp), (xp, ym), (xm, yp), (xm, ym)),
    ]
    # a failing stencil point is found by evaluating the points in turn
    walks.clear(), points.clear()
    with pytest.raises(OutOfDomainError, match="stencil point"):
        finite_difference_oracle(parse("sqrt(x)"), 1e-300, 1.0)
    assert len(walks) == 1 and points == [(1e-300, 1.0), (1e-300 + h, 1.0), (1e-300 - h, 1.0)]


# For an expression in x only, eval_hyperdual(f, x, 0.0) carries the value and
# first derivative in (v, dx); the one-dimensional theorems rely on this.


def test_dual_first_derivative():
    d = eval_hyperdual(parse("x^2"), 3.0, 0.0)
    assert (d.v, d.dx) == (9.0, 6.0)
    d = eval_hyperdual(parse("sin(x)"), 0.5, 0.0)
    assert d.v == pytest.approx(math.sin(0.5), rel=1e-15)
    assert d.dx == pytest.approx(math.cos(0.5), rel=1e-15)


def test_dual_rejects_bivariate_expressions():
    # the x-only requirement is checked where the 1-D fields are built
    with pytest.raises(ValueError):
        pompeiu1d_residual(parse("x*y"), 1, 2)


def test_dual_division_and_power():
    d = eval_hyperdual(parse("1/x"), 2.0, 0.0)
    assert d.v == pytest.approx(0.5, rel=1e-15)
    assert d.dx == pytest.approx(-0.25, rel=1e-15)
    d = eval_hyperdual(parse("x^3"), 2.0, 0.0)
    assert (d.v, d.dx) == (8.0, 12.0)


# -- the compiled program against the HyperDual reference ----------------------
#
# compile_hyperdual(f, reads) must do HyperDual's arithmetic bit for bit on
# every component it reads: equal components compared as int64 bit patterns
# (so signed zeros and NaN payloads count), and the same exception type and
# message for every domain and exponent check.  The exceptions are the two
# compile_hyperdual names, for terms it drops as structurally zero and for
# components it does not compute:
#   1. the sign of a zero may differ;
#   2. where the reference's component is NaN (a dropped 0 * inf), the
#      program's may be anything, and an error of a float operation the program
#      need not run -- an overflow, a math domain error of a non-finite
#      argument, a numpy floating-point error, a non-finite component it does
#      not read -- need not be raised.
# A component it does not read is None; one the reference computes as an
# array may come back as a float that broadcasts to it, when no term of it
# depends on x or y.

_READS = [tuple(n for c, n in enumerate(Derivatives._fields) if m >> c & 1) for m in range(16)]
_CHECK_MESSAGES = {
    "division by zero",
    "divisor changes sign between samples, so it vanishes between them",
    "log of a non-positive value",
    "sqrt needs a positive argument for its derivatives",
    "fractional power needs a positive base",
    "power with a varying exponent needs a positive base",
}


def _is_check(exc) -> bool:
    message = str(exc)
    if isinstance(exc, OutOfDomainError) and message in _CHECK_MESSAGES:
        return True
    return message.startswith("integer exponents must be at most MAX_INT_POWER")


def _reference(f, x, y):
    """What eval_hyperdual computed before it was compiled: HyperDual objects
    through the reference evaluator, a constant result lifted, and a non-finite
    float component rejected."""
    out = reference.evaluate(f, seed_x(x), seed_y(y))
    if not isinstance(out, HyperDual):
        out = lift(out)
    comps = (out.v, out.dx, out.dy, out.dxy)
    if all(isinstance(c, float) for c in comps) and not all(math.isfinite(c) for c in comps):
        raise EvaluationError("non-finite derivative component")
    return comps


def _bits(c):
    a = np.asarray(c, dtype=np.float64)
    return (type(c), a.shape, a.view(np.int64).tobytes())


def _run(program, x, y):
    try:
        return program(x, y)
    except (EvaluationError, FloatingPointError) as exc:
        return exc


def _check_component(got, want, tally) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), (got, want)
    w = np.asarray(want, dtype=np.float64)
    g = np.asarray(got, dtype=np.float64)
    assert np.broadcast_shapes(g.shape, w.shape) == w.shape, (g.shape, w.shape)
    g = np.broadcast_to(g, w.shape)
    same = w.view(np.int64) == g.view(np.int64)
    zero_sign = ~same & (w == 0) & (g == 0)  # exception 1
    nan = ~same & np.isnan(w)  # exception 2
    assert (same | zero_sign | nan).all(), (got, want)
    tally["exact"] += int(same.sum())
    tally["zero sign"] += int(zero_sign.sum())
    tally["reference nan"] += int(nan.sum())


def _check_outcome(got, want, reads, tally) -> None:
    if isinstance(want, Exception):
        if _is_check(want):
            assert isinstance(got, Exception), (reads, got, want)
            assert (type(got), str(got)) == (type(want), str(want)), reads
            tally["same check"] += 1
        elif isinstance(got, Exception):
            tally["same error" if (type(got), str(got)) == (type(want), str(want)) else "other error"] += 1
        else:  # exception 2: the program skipped the failing operation
            tally["skipped error"] += 1
        return
    assert not isinstance(got, Exception), (reads, got)
    assert len(got) == 4
    for c, name in enumerate(Derivatives._fields):
        if name in reads:
            _check_component(got[c], want[c], tally)
        else:
            assert got[c] is None, (reads, name, got[c])


def _assert_program_matches_reference(f, points, tally=None):
    """Compare the programs of f for every set of components read, and the
    default one, with the reference at each point; returns whether the
    reference raised at each point."""
    tally = Counter() if tally is None else tally
    programs = [(reads, compile_hyperdual(f, reads)) for reads in _READS]
    programs.append((Derivatives._fields, compile_hyperdual(f)))
    outcomes = []
    for x, y in points:
        # a numpy floating-point error, when raised, must come from the
        # reference's operations: raise them too on grids
        for mode in ("ignore", "raise") if isinstance(x, np.ndarray) else ("ignore",):
            with np.errstate(all=mode):
                want = _run(lambda a, b: _reference(f, a, b), x, y)
                for reads, program in programs:
                    _check_outcome(_run(program, x, y), want, reads, tally)
            if mode == "ignore":
                outcomes.append(isinstance(want, Exception))
    return outcomes


_CONSTANT_SUBTREES = [
    "2^3", "sqrt(4)", "1/0", "(-8)^(1/3)", "-2", "0", "0^(-1)", "log(0)", "exp(800)"
]
_EXPONENTS = ["2", "3", "0", "1", "-1", "-2", "4", "0.5", "1.5", "-0.5", "(1/3)", "2^1"]
_VARYING_EXPONENTS = ["y", "x", "(x-x)", "(0.5*y)", "sin(x)", "(y-y+2)"]


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        pick = rng.random()
        if pick < 0.5:
            return Var(rng.choice("xy"))
        if pick < 0.8:
            return Const(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 1.5, 0.25]))
        return parse(rng.choice(_CONSTANT_SUBTREES))
    kind = rng.choice(["neg", "+", "-", "*", "/", "^", "^", "call"])
    if kind == "neg":
        return Neg(_random_tree(rng, depth - 1))
    if kind == "call":
        return Call(rng.choice(FUNCTIONS), _random_tree(rng, depth - 1))
    if kind == "^":
        base = _random_tree(rng, depth - 1)
        pick = rng.random()
        if pick < 0.5:
            return BinOp("^", base, parse(rng.choice(_EXPONENTS)))
        if pick < 0.8:
            return BinOp("^", base, parse(rng.choice(_VARYING_EXPONENTS)))
        # a plain base under a varying exponent, as in 2^x
        base = parse(rng.choice(["2", "0.5", "-2", "0", "2^3"]))
        return BinOp("^", base, _random_tree(rng, depth - 1))
    return BinOp(kind, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _node_kinds(node, seen: set) -> set:
    match node:
        case Const():
            seen.add("const")
        case Var(name):
            seen.add(name)
        case Neg(child):
            seen.add("neg")
            _node_kinds(child, seen)
        case BinOp(op, left, right):
            seen.add(op)
            _node_kinds(left, seen)
            _node_kinds(right, seen)
        case Call(fn, arg):
            seen.add(fn)
            _node_kinds(arg, seen)
    return seen


_SCALAR_POINTS = [(0.7, 1.3), (-0.4, 0.9), (0.0, 1.1), (1.5, -0.0), (2.0, 0.5), (-1.25, -2.0)]
# steps of 1/16, so x = 0 and y = 0 are grid points exactly
_XS = np.linspace(-1.0, 1.0, 33)
_YS = np.linspace(-0.5, 1.5, 33)
_GRIDS = [(_XS[np.newaxis, :], _YS[:, np.newaxis]), (_XS, 0.0)]


def test_compiled_program_matches_hyperdual_on_random_trees():
    rng = random.Random(4242)
    kinds: set = set()
    raised = returned = 0
    tally = Counter()
    for _ in range(400):
        f = _random_tree(rng, 4)
        _node_kinds(f, kinds)
        for did_raise in _assert_program_matches_reference(f, _SCALAR_POINTS + _GRIDS, tally):
            raised += did_raise
            returned += not did_raise
    assert kinds >= {"const", "x", "y", "neg", "+", "-", "*", "/", "^", *FUNCTIONS}
    # both the value path and the error path were exercised many times
    assert raised > 200 and returned > 200
    # the checks were compared many times, and most components matched exactly
    assert tally["same check"] > 1000
    assert tally["exact"] > 20 * (tally["zero sign"] + tally["reference nan"])


@pytest.mark.parametrize(
    "text",
    [
        "2^3*x", "sqrt(4)+y", "x+1/0", "(-8)^(1/3)*x", "2^3", "1/0", "(-8)^(1/3)", "exp(1000)",
        "1e308*10", "x^-2", "y^(-3)*x", "x^0.5", "x^1.5*y", "x^y", "2^x", "x^(x-x)", "0^x",
        "(-2)^x", "x^(y-y+3)", "1/(x-x)", "log(x*0)", "sqrt(y-y)", "x/0", "0/x", "-x*0",
        "2-x", "x-2", "2*x", "x*2", "2+x", "x+2", "2/x", "exp(x*1000)", "sin(exp(x*1000))",
        "x/2", "x/(-0.5)", "0-x", "x-0", "x+0", "0*x", "-0*x", "x*(-0)",
    ],
)
def test_compiled_program_matches_hyperdual_on_edge_cases(text):
    _assert_program_matches_reference(parse(text), _SCALAR_POINTS + _GRIDS)


_NEAR_ONE = [(1.0005, 0.75), (0.9995, -1.25), (-1.0002, 2.0)]
_NEAR_ONE_GRID = np.linspace(0.999, 1.001, 9)


@pytest.mark.parametrize(
    "text", ["x^1024*y", "y*x^(-1024)", "(x*y)^(1000+24)", "x^(2^10)", "x^-1024", "x^1023.5"]
)
def test_integer_powers_up_to_the_bound_match_the_reference(text):
    grids = [(_NEAR_ONE_GRID[np.newaxis, :], _NEAR_ONE_GRID[:, np.newaxis] - 1.5)]
    _assert_program_matches_reference(parse(text), _NEAR_ONE + grids)


@pytest.mark.parametrize(
    "text", ["x^1025", "x^(-1025)", "y*x^(1000+25)", "x^1e300", "(x+y)^(2^11)", "sin(x)^-2048"]
)
def test_integer_powers_past_the_bound_are_rejected_when_compiled(text):
    assert MAX_INT_POWER == 1024
    with pytest.raises(ValueError, match="integer exponents must be at most 1024 in magnitude"):
        compile_hyperdual(parse(text))


def test_varying_integer_powers_up_to_the_bound_match_the_reference():
    # an exponent with zero derivative components takes the integer-power path
    for text in ("x^(y-y+1024)*y", "y*x^(y-y-1024)", "(x*y)^(x-x+3)"):
        raised = _assert_program_matches_reference(parse(text), _NEAR_ONE)
        assert not any(raised)


@pytest.mark.parametrize(
    "text", ["x^(y-y+1025)", "y*x^(y-y-1025)", "x^(y-y+1e7)*y", "x^(x-x+1e300)"]
)
def test_varying_integer_powers_past_the_bound_raise_when_evaluated(text):
    program = compile_hyperdual(parse(text))  # not a constant exponent, so it compiles
    with pytest.raises(EvaluationError, match="at most MAX_INT_POWER = 1024 in magnitude, got "):
        program(1.0005, 0.75)
    assert all(_assert_program_matches_reference(parse(text), _NEAR_ONE))


def test_a_varying_exponent_that_is_a_constant_fraction_takes_the_fractional_power():
    # y - y + 0.5 has zero derivative components, so where y is a float the
    # power is the fractional power's chain node, built with p = 0.5 when
    # evaluated; where y is an array the exponent's value is one too, and the
    # power is exp(b * log(a)) as for any other varying exponent; x is not
    # positive at three of the scalar points and on both grids
    points = _SCALAR_POINTS + _GRIDS
    raised = _assert_program_matches_reference(parse("x^(y - y + 0.5)"), points)
    assert raised == [False, True, True, False, False, True, True, True]
    assert not any(_assert_program_matches_reference(parse("(x*y + 2)^(x - x - 1.5)"), points))
    program = compile_hyperdual(parse("x^(y - y + 0.5)"))
    assert program(0.25, 2.0) == (0.5, 1.0, 0.0, 0.0)
    for x in (-0.25, np.array([-0.25, 0.25])):
        with pytest.raises(OutOfDomainError, match="^fractional power needs a positive base$"):
            program(x, 2.0)
    with pytest.raises(OutOfDomainError, match="^power with a varying exponent needs a positive base$"):
        program(np.array([-0.25, 0.25]), np.array([2.0, 2.0]))


def test_compiled_program_matches_hyperdual_on_generated_families():
    from rectmvt.harness import FunctionFamily, derive_seed, generate_function, generate_rectangle

    for kind in ("polynomial", "bilinear", "separable", "exp-poly", "rational"):
        for i in range(20):
            rect = generate_rectangle(derive_seed(31, i), zero_free=i % 2 == 0)
            f = generate_function(FunctionFamily(kind), derive_seed(32, i), rect)
            xs = rect.x1 + (np.arange(33) + 0.5) * (rect.width / 33)
            ys = rect.y1 + (np.arange(33) + 0.5) * (rect.height / 33)
            points = [
                rect.center,
                (float(xs[3]), float(ys[29])),
                (xs[np.newaxis, :], ys[:, np.newaxis]),
                (xs, 0.0),
            ]
            _assert_program_matches_reference(f, points)


def test_domain_errors_are_out_of_domain_and_overflow_is_not():
    with pytest.raises(OutOfDomainError, match="division by zero"):
        compile_hyperdual(parse("1/(x-1)"))(1.0, 0.0)
    with pytest.raises(OutOfDomainError, match="log of a non-positive value"):
        compile_hyperdual(parse("log(x)"))(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(EvaluationError, match="math range error") as info:
        compile_hyperdual(parse("exp(x)"))(1000.0, 0.0)
    assert not isinstance(info.value, OutOfDomainError)


# -- the components a program reads ---------------------------------------------


def test_unread_components_are_none_and_structural_zeros_are_float_zero():
    program = compile_hyperdual(parse("x^2"), ("v", "dy", "dxy"))
    assert program(3.0, 5.0) == (9.0, None, 0.0, 0.0)
    v, dx, dy, dxy = program(_XS[np.newaxis, :], _YS[:, np.newaxis])
    assert (dx, dy, dxy) == (None, 0.0, 0.0) and type(dy) is float
    assert compile_hyperdual(parse("x*y"), ("dxy",))(2.0, 3.0) == (None, None, None, 1.0)
    assert compile_hyperdual(parse("3"), ("dx",))(2.0, 3.0) == (None, 0.0, None, None)
    # the default reads all four, as eval_hyperdual does
    assert compile_hyperdual(parse("x^2*y"))(2.0, 3.0) == eval_hyperdual(parse("x^2*y"), 2.0, 3.0)
    # the special shapes of a program, for every set of components read and
    # every kind of input: a finite constant, a sum of seeds (no body at all
    # when only dxy is read), a power ^0 that runs log's check alone, and a
    # function of x only
    for text, point, slots in _ENTRY_TABLE:
        for reads in _READS:
            program = compile_hyperdual(parse(text), reads)
            for x, y in _inputs(*point):
                _assert_slots(program(x, y), reads, slots, isinstance(x, np.ndarray))
    for reads in _READS:
        # a constant that is not finite raises on every input, before converting it
        not_finite = compile_hyperdual(parse("1e308*10"), reads)
        for x, y in _inputs(0.5, 2.0) + [("not a number", None)]:
            with pytest.raises(EvaluationError, match="^result is not finite$") as info:
                not_finite(x, y)
            assert type(info.value) is EvaluationError
        # a check runs whatever is read
        checked = compile_hyperdual(parse("log(x)^0"), reads)
        for x, y in _inputs(-1.0, 2.0):
            with pytest.raises(OutOfDomainError, match="^log of a non-positive value$") as info:
                checked(x, y)
            assert type(info.value) is OutOfDomainError
        # exp(1000*x) is inf in v and dx at x = inf: a scalar call reading either
        # raises, and an array call returns it
        overflow = compile_hyperdual(parse("exp(1000*x)"), reads)
        for x, y in _inputs(math.inf, 2.0):
            arrays = isinstance(x, np.ndarray)
            if arrays or not {"v", "dx"} & set(reads):
                _assert_slots(overflow(x, y), reads, ((math.inf, True), (math.inf, True), None, None), arrays)
                continue
            with pytest.raises(EvaluationError, match="^non-finite derivative component$") as info:
                overflow(x, y)
            assert type(info.value) is EvaluationError


# per program, its point and, per component, its value there and whether it is
# an array on array inputs; None marks a structural zero
_ENTRY_TABLE = [
    ("2.5", (0.5, 2.0), ((2.5, False), None, None, None)),
    ("x + y", (1.0, 2.0), ((3.0, True), (1.0, False), (1.0, False), None)),
    ("log(x)^0", (1.0, 2.0), ((1.0, False), None, None, None)),
    ("exp(1000*x)", (0.0, 2.0), ((1.0, True), (1000.0, True), None, None)),
]


def _inputs(x: float, y: float) -> list:
    """``(x, y)`` as each kind of input a program takes: Python floats, numpy
    float64s, arrays, an array x with a float y and, when exact, ints."""
    out = [(x, y), (np.float64(x), np.float64(y)), (np.full(2, x), np.full(2, y)), (np.full(2, x), y)]
    if x.is_integer() and y.is_integer():
        out.append((int(x), int(y)))
    return out


def _assert_slots(out, reads, slots, arrays: bool):
    assert len(out) == 4
    for name, got, slot in zip(Derivatives._fields, out, slots):
        if name not in reads:
            assert got is None
        elif slot is None:
            assert type(got) is float and got == 0.0
        elif slot[1] and arrays:
            assert type(got) is np.ndarray and (got == slot[0]).all()
        else:
            assert type(got) is float and got == slot[0]


@pytest.mark.parametrize("reads", [("dz",), ("v", "d"), "dxy"])
def test_reads_must_name_components(reads):
    with pytest.raises((ValueError, TypeError)):
        compile_hyperdual(parse("x*y"), reads)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("x*y + log(x-0.5)", OutOfDomainError, "log of a non-positive value"),
        ("x*y + sqrt(x-0.5)", OutOfDomainError, "sqrt needs a positive argument"),
        ("x*y - 1/(x-x)", OutOfDomainError, "division by zero"),
        ("x*y + (x-0.5)^1.5", OutOfDomainError, "fractional power needs a positive base"),
        ("x*y + (x-0.5)^x", OutOfDomainError, "power with a varying exponent"),
        ("x*y + 2*(1/0)", OutOfDomainError, "float division by zero"),
        ("(x-0.5)^0 * y^2 * log(x-0.5)", OutOfDomainError, "log of a non-positive value"),
        ("exp(y)*x + x/(x-0.25)", OutOfDomainError, "division by zero"),
    ],
)
def test_a_check_inside_an_unread_subtree_still_raises(text, error, message):
    # at x = 0.25 every check above fails inside a term whose dxy and dy are
    # structurally zero, or whose components are never read at all
    f = parse(text)
    grid = (np.array([0.25, 0.75])[np.newaxis, :], np.array([0.5, 1.0])[:, np.newaxis])
    for reads in (("dxy",), ("dy",), ()):
        program = compile_hyperdual(f, reads)
        with pytest.raises(error, match=message):
            program(0.25, 0.75)
        with np.errstate(all="ignore"), pytest.raises(error, match=message):
            program(*grid)


def test_an_exponent_bound_inside_an_unread_subtree_still_raises():
    # an exponent that depends on y but is an integer when evaluated takes the
    # integer power, whose bound is checked on scalar inputs
    for reads in (("dx",), ()):
        with pytest.raises(EvaluationError, match="at most MAX_INT_POWER = 1024"):
            compile_hyperdual(parse("x + 2^(y-y+2000)"), reads)(0.25, 0.75)


def test_an_overflow_only_an_unread_component_sees_does_not_fail():
    f = parse("x*y + exp(1000*x)")
    with pytest.raises(EvaluationError, match="math range error"):
        compile_hyperdual(f)(1.0, 2.0)
    # exp(1000*x) has no dxy, so a program reading dxy never evaluates it
    assert compile_hyperdual(f, ("dxy",))(1.0, 2.0) == (None, None, None, 1.0)
    # a component read that overflows still fails
    with pytest.raises(EvaluationError, match="non-finite derivative component"):
        compile_hyperdual(parse("1e10*x*y*exp(700*x)"), ("dxy",))(1.0, 2.0)


def test_an_error_of_the_compiler_itself_is_not_an_evaluation_error(monkeypatch):
    # a row of sin whose value part raises math's ValueError outside the guarded
    # calls of sin and cos: the ValueError is a bug of the program, not a point
    # outside the domain
    check, shared, parts = hyperdual._FUNCTIONS["sin"]
    broken = (check, shared, (("m.sqrt(-ONE)", ()),) + parts[1:])
    monkeypatch.setitem(hyperdual._FUNCTIONS, "sin", broken)
    hyperdual._factory.cache_clear()  # a factory is generated once per arguments
    try:
        program = compile_hyperdual(parse("sin(x)"))
        with pytest.raises(ValueError, match="math domain error") as info:
            program(0.7, 0.0)
        assert not isinstance(info.value, EvaluationError)
    finally:
        monkeypatch.undo()
        hyperdual._factory.cache_clear()
    assert compile_hyperdual(parse("sin(x)"))(0.7, 0.0)[0] == math.sin(0.7)


@pytest.mark.parametrize("text", ["sin(x*1e308*10)", "cos(x*1e308*10)", "x + sin(1e308*10)"])
def test_a_math_domain_error_of_an_infinite_argument_is_an_evaluation_error(text):
    # x*1e308*10 overflows to inf at x = 0.7, and math.sin(inf) raises
    # ValueError; the same holds for a constant subtree, folded when compiled
    with pytest.raises(EvaluationError, match="math domain error") as info:
        compile_hyperdual(parse(text))(0.7, 0.0)
    assert not isinstance(info.value, OutOfDomainError)


def test_a_divisor_that_takes_both_signs_on_a_grid_raises_sign_change():
    program = compile_hyperdual(parse("1/(x-0.3)"), ("v", "dx"))
    xs = np.linspace(0.0, 1.0, 8)  # 0.3 is between samples
    with pytest.raises(SignChangeError, match="divisor changes sign between samples"):
        program(xs, 0.0)
    # a sample on the pole is the plain zero divisor, which the row scan finds
    with pytest.raises(OutOfDomainError, match="division by zero") as info:
        program(np.array([0.1, 0.3, 0.5]), 0.0)
    assert not isinstance(info.value, SignChangeError)
    # one sign, or any scalar, is no proof
    assert np.isfinite(program(np.array([0.4, 0.5, 0.9]), 0.0)[0]).all()
    assert program(0.9, 0.0)[0] == pytest.approx(1 / 0.6)
    # a NaN sample (x * 1e308 overflows at x = 2, and inf - inf is NaN) is
    # passed over: the other samples decide
    nan_first = compile_hyperdual(parse("1/((x-0.3) + (x*1e308 - x*1e308))"), ("v",))
    with np.errstate(all="ignore"):
        v = nan_first(np.array([2.0, 0.4, 0.5]), 0.0)[0]
        assert np.isnan(v[0]) and np.isfinite(v[1:]).all()
        with pytest.raises(SignChangeError):
            nan_first(np.array([2.0, 0.2, 0.5]), 0.0)


class _Counted(np.ndarray):
    """An array that counts the operations whose result is a full 2-D grid."""

    grids = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        args = [np.asarray(a) if isinstance(a, _Counted) else a for a in inputs]
        out = getattr(ufunc, method)(*args, **kwargs)
        if isinstance(out, np.ndarray):
            if out.ndim == 2 and min(out.shape) > 1:
                _Counted.grids += 1
            return out.view(_Counted)
        return out


def _grid_operations(run) -> int:
    x = np.linspace(1.0, 2.0, 9)[np.newaxis, :].view(_Counted)
    y = np.linspace(1.0, 2.0, 9)[:, np.newaxis].view(_Counted)
    _Counted.grids = 0
    run(x, y)
    return _Counted.grids


@pytest.mark.parametrize(
    "text, dxy, v_dx, every, reference_every",
    [
        pytest.param("2*x^3*y^2", 1, 2, 4, 14, id="2*x^3*y^2"),
        # a constant addend costs one grid operation at most, on the value
        # alone, and c - h negates each component of h that is read
        pytest.param("3 - 2*x^3*y^2", 2, 4, 8, 18, id="3 - 2*x^3*y^2"),
        pytest.param("2*x^3*y^2 + 1", 1, 3, 5, 18, id="2*x^3*y^2 + 1"),
        pytest.param("1 - (x+2)*(y-3)", 0, 2, 2, 9, id="1 - (x+2)*(y-3)"),
    ],
)
def test_a_monomial_mixed_partial_is_one_grid_product(text, dxy, v_dx, every, reference_every):
    # 2*x^3*y^2: the x and y factors are computed on a row and a column, and
    # only a product of the two is a full grid
    f = parse(text)
    assert _grid_operations(compile_hyperdual(f, ("dxy",))) == dxy
    assert _grid_operations(compile_hyperdual(f, ("v", "dx"))) == v_dx
    assert _grid_operations(compile_hyperdual(f)) == every
    # every component, every term: for 2*x^3*y^2, 14 grid operations, 7 of them for dxy
    assert _grid_operations(lambda x, y: reference.evaluate(f, seed_x(x), seed_y(y))) == reference_every


@pytest.mark.parametrize(
    "text",
    ["x*y/(-0.12)", "x*y*(1.4 + 0.12)", "(2*x*y - 1.2*x)/((1.4 + -0.12) + 0.017)"],
)
def test_a_product_or_quotient_by_a_folded_constant_reads_what_it_is_read_for(text):
    # k folds to a constant, as a Const does, so h * k and h / k read of h
    # only the components they are read for: the mixed partial of x*y is a
    # number, and takes no grid operation
    f = parse(text)
    assert _grid_operations(compile_hyperdual(f, ("dxy",))) == 0
    _assert_program_matches_reference(f, _SCALAR_POINTS + _GRIDS)


def test_a_product_by_a_folded_constant_compiles_its_left_operand_once(monkeypatch):
    # each factor folds to a constant, so the spine of products is compiled
    # once for the components it is read for, not once more per factor
    f = parse("x*y*(1.4 + 0.12)*(-(2 + 1))*(3 - 0.5)/(0.5 + 0.25)")
    compiled = []
    real = hyperdual._compile

    def counted(node, need):
        compiled.append(id(node))
        return real(node, need)

    monkeypatch.setattr(hyperdual, "_compile", counted)
    for reads in (("dxy",), ("v", "dx", "dy", "dxy")):
        compiled.clear()
        compile_hyperdual(f, reads)
        assert compiled and max(Counter(compiled).values()) == 1
    monkeypatch.undo()
    _assert_program_matches_reference(f, _SCALAR_POINTS + _GRIDS)


# -- generated nodes -----------------------------------------------------------
#
# Every sum, difference, product, negation, integer power and scalar function is
# a closure whose body the compiler writes as source text and executes once per
# plan.

# the names a generated factory and its node may use: its parameters (p is the
# exponent of a fractional power), the components it unpacks (a0..a3, b0..b3,
# and o0..o3 of a power, f0..f3 and g0..g3 of an entry's functions) and fixed
# words; then the fixed words of an entry, whose arguments are x and y and
# whose bodies are F and G, the names it is given: the seeds' 1.0 (ONE) and the
# error messages, and the names of the theorems' residual formulas, fixed text
# of their rows; then those of a scalar function's parts: the library m and its
# functions, the shared values, and the names given for the parts' constants
# and messages
_NODE_NAMES = {"def", "factory", "node", "return", "for", "in", "range", "None", "_"}
_NODE_NAMES |= {"A", "B", "X", "Y", "counts", "p", "x", "y", "F", "G"}
_NODE_NAMES |= {
    name
    for theorem in THEOREMS.values()
    for line in ((theorem.residual,) if isinstance(theorem.residual, str) else theorem.residual)
    for name in re.findall(r"[A-Za-z_]\w*", line)
}
_NODE_NAMES |= {"if", "else", "not", "or", "and", "try", "except", "as", "exc", "raise", "from"}
_NODE_NAMES |= {"isinstance", "ndarray", "float", "isfinite", "ZeroDivisionError", "OverflowError"}
_NODE_NAMES |= {"evaluation_error", "EvaluationError", "ONE", "NOT_FINITE", "NON_FINITE"}
_NODE_NAMES |= {"m", "math", "numpy", "any", "sin", "cos", "exp", "log", "sqrt", "inv", "root"}
_NODE_NAMES |= {"ValueError", "OutOfDomainError", "check_divisor", "TWO", "HALF", "QUARTER"}
_NODE_NAMES |= {"LOG_DOMAIN", "SQRT_DOMAIN", "POWER_DOMAIN"}
_NODE_OPERATORS = {"(", ")", "[", "]", ",", "=", ":", "+", "-", "*", ".", "/", "**", "<="}
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


@pytest.mark.parametrize(
    "text",
    [
        "1e-300*x + 0.1*y - pi*x*y",
        "(x + 0.1)^3*1e-300 - pi",
        "pi - x^2*y/0.1",
        "-(0.1*x*y) + pi*(y - 1e-300)^5",
        "x*y*(1e-300 + pi) - 0.1/x",
        "0.1 - y^7*x + x^(pi*0 + 3)",
        "sin(0.1*x) + cos(pi*y) - exp(1e-300*x*y)",
        "log(x + 0.1)*sqrt(y*pi) + x^0.1",
        "1/(x - 1e-300) + (0.1*y)^-2.5 - pi/sqrt(x*y)",
        "exp(y)^(1/3)*x^(pi*0 - 3) + (x + 0.1)^(y*pi)",
        # a constant f: its value reaches the program's entry as an argument too
        "0.1*pi + 1e-300",
    ],
)
def test_generated_source_holds_no_constant_of_an_expression(text):
    f = parse(text)
    for reads in [("v",), ("dxy",), ("v", "dx"), ("v", "dy", "dxy"), Derivatives._fields]:
        compile_hyperdual(f, reads)(0.7, 1.3)
    assert hyperdual._SOURCES
    # only fixed tokens and indices: a constant reaches a node as an argument of
    # its factory, never as text
    for source in hyperdual._SOURCES:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            kind, string = token.type, token.string
            if kind == tokenize.NAME:
                assert string in _NODE_NAMES or re.fullmatch(r"[abofg][0-3]", string), source
            elif kind == tokenize.NUMBER:
                assert re.fullmatch(r"[0-9]|0\.0", string), source
            elif kind == tokenize.OP:
                assert string in _NODE_OPERATORS, source
            else:
                assert kind in _LAYOUT, source
    _assert_program_matches_reference(f, _SCALAR_POINTS + _GRIDS)


def _python_calls(program, x, y) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        program(x, y)
    finally:
        sys.setprofile(None)
    return calls


def test_each_arithmetic_node_of_a_scalar_program_is_one_python_call():
    f = parse("3*x^2*y + x - 2")
    every, dxy = compile_hyperdual(f), compile_hyperdual(f, ("dxy",))
    assert every(0.5, 2.0) == (0.0, 7.0, 0.75, 3.0)
    # the program, then x^2, 3*x^2, (3*x^2)*y, + x and - 2, each reading its
    # seed or constant inline
    assert _python_calls(every, 0.5, 2.0) == 6
    # + x and - 2 add nothing to dxy, so the program runs the products alone
    assert _python_calls(dxy, 0.5, 2.0) == 4
    # a sum of products, and the power's 6 products in one call
    assert _python_calls(compile_hyperdual(parse("x*y + (x-y)^7")), 0.5, 2.0) == 5
    # a scalar function is one node too, reading its seed inline and computing
    # its parts and its domain check in its own body: the program and exp(x)
    assert _python_calls(compile_hyperdual(parse("exp(x)")), 0.5, 2.0) == 2
    assert _python_calls(compile_hyperdual(parse("sin(x)*y")), 0.5, 2.0) == 3
    assert _python_calls(compile_hyperdual(parse("log(x)*sqrt(y)")), 0.5, 2.0) == 4
    # the reciprocal's check is check_divisor, one call: the program, x + 2, its
    # reciprocal, check_divisor and the product by 1
    assert _python_calls(compile_hyperdual(parse("1/(x+2)")), 0.5, 2.0) == 5
    # a program with no body, and a constant one, is its entry alone
    assert _python_calls(compile_hyperdual(parse("x + y"), ("dxy",)), 0.5, 2.0) == 1
    assert _python_calls(compile_hyperdual(parse("2.5")), 0.5, 2.0) == 1


def test_a_varying_exponent_runs_dense_nodes_built_once():
    program = compile_hyperdual(parse("x^y"))
    program(0.7, 2.0)
    built = hyperdual._dense_node.cache_info()
    # the program; the power, each seed and its _dense; _pow; then
    # x^y = exp(y * log(x)): each of log, * and exp one call of its function and
    # one of its node
    assert _python_calls(program, 0.5, 2.0) == 13
    # the second call built no node: it found log's, the product's and exp's
    now = hyperdual._dense_node.cache_info()
    assert (now.misses, now.hits) == (built.misses, built.hits + 3)


# -- the product rule -----------------------------------------------------------
#
# The compiler derives its product masks and its dense product from one table of
# terms; each is checked here against the rule written out by hand.


def test_product_nonzero_masks_are_the_leibniz_closed_form():
    # v, each of dx, dy and dxy that either operand has, and dxy also when one
    # operand has dx and the other dy; every compiled operand's mask holds v
    for a in range(1, 16, 2):
        for b in range(1, 16, 2):
            want = 1 | (a | b) & 14
            if a & 2 and b & 4 or a & 4 and b & 2:
                want |= 8
            assert hyperdual._PRODUCT_NZ[a << 4 | b] == want, (a, b)


def test_partner_masks_pair_each_needed_component_with_the_left_operand():
    # bit j of b is read when a component c of need has j below it (j ⊆ c) and
    # the left operand's component c ^ j is not structurally zero
    for need in range(16):
        for na in range(16):
            want = 0
            for c in range(4):
                for j in range(4):
                    if need >> c & 1 and j & c == j and na >> (c ^ j) & 1:
                        want |= 1 << j
            assert hyperdual._PARTNER[need << 4 | na] == want, (need, na)


def _leibniz(a, b):
    av, adx, ady, adxy = a
    bv, bdx, bdy, bdxy = b
    return (
        av * bv,
        av * bdx + adx * bv,
        av * bdy + ady * bv,
        (av * bdxy + adxy * bv) + (adx * bdy + ady * bdx),
    )


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 1e308, -1e-310, 1.0]


def _product_bits(c):
    # every bit but a NaN's sign: see _positive_nans
    return [_bits(_positive_nans(v)) for v in c]


def test_dense_product_is_the_written_out_leibniz_rule():
    rng = random.Random(1717)

    def pick():
        return rng.choice(_SPECIAL) if rng.random() < 0.5 else rng.uniform(-4.0, 4.0)

    def array():
        return np.array([pick() for _ in range(48)])

    with np.errstate(all="ignore"):
        for _ in range(2000):
            a = tuple(pick() for _ in range(4))
            b = tuple(pick() for _ in range(4))
            assert _product_bits(hyperdual._mul(a, b)) == _product_bits(_leibniz(a, b))
        for _ in range(50):
            a = tuple(array() for _ in range(4))
            # an operand's components may be floats that broadcast, as a lifted constant's are
            b = tuple(array() if rng.random() < 0.5 else pick() for _ in range(4))
            for x, y in ((a, b), (b, a)):
                assert _product_bits(hyperdual._mul(x, y)) == _product_bits(_leibniz(x, y))


# -- the chain rule -------------------------------------------------------------
#
# The compiler derives its masks of a scalar function, the parts each of its
# nodes wants and its dense chain from one table of terms; each is checked here
# against the rule written out by hand.


def test_chain_nonzero_masks_are_the_second_order_chain_rule_closed_form():
    # v, whatever the operand has (a part u^(k) of its value is not zero), each of
    # dx, dy and dxy that the operand has, and dxy also when it has dx and dy
    for a in range(16):
        want = 1 | a & 14
        if a & 2 and a & 4:
            want |= 8
        assert hyperdual._CHAIN_NZ[a] == want, a


# the parts (u, u', u'') of each scalar function at v, written out as HyperDual
# computes them, for the library m of v's kind
_WRITTEN_PARTS = {
    "sin": lambda m, v, p: (m.sin(v), m.cos(v), -m.sin(v)),
    "cos": lambda m, v, p: (m.cos(v), -m.sin(v), -m.cos(v)),
    "exp": lambda m, v, p: (m.exp(v),) * 3,
    "log": lambda m, v, p: (lambda inv: (m.log(v), inv, -inv * inv))(1.0 / v),
    "sqrt": lambda m, v, p: (lambda r: (r, 0.5 / r, -0.25 / (r * v)))(m.sqrt(v)),
    "recip": lambda m, v, p: (lambda inv: (inv, -inv * inv, 2.0 * (inv * inv) * inv))(1.0 / v),
    "^p": lambda m, v, p: (v ** p, p * v ** (p - 1.0), p * (p - 1.0) * v ** (p - 2.0)),
}
# the message of each function that needs a positive argument
_POSITIVE = {
    "log": "log of a non-positive value",
    "sqrt": "sqrt needs a positive argument for its derivatives",
    "^p": "fractional power needs a positive base",
}


def _chain_rule(a, fn, p):
    v, dx, dy, dxy = a
    array = isinstance(v, np.ndarray)
    if fn in _POSITIVE and ((v <= 0).any() if array else v <= 0):
        raise OutOfDomainError(_POSITIVE[fn])
    if fn == "recip":  # as HyperDual.reciprocal checks its divisor
        if (v == 0).any() if array else v == 0:
            raise OutOfDomainError("division by zero")
        if array and (v < 0).any() and (v > 0).any():
            raise SignChangeError("divisor changes sign between samples, so it vanishes between them")
    try:
        u, d1, d2 = _WRITTEN_PARTS[fn](np if array else math, v, p)
    except ValueError as exc:  # math's sin and cos of an infinity
        raise EvaluationError(str(exc)) from exc
    return (u, d1 * dx, d1 * dy, d1 * dxy + d2 * (dx * dy))


def _positive_nans(c):
    # CPython 3.11 gives a product or sum of two NaNs the sign of one or the
    # other operand depending on whether the instruction has been specialized,
    # so two code objects computing one formula may disagree on a NaN's sign
    if isinstance(c, np.ndarray):
        return np.where(np.isnan(c), np.nan, c)
    return math.nan if c != c else c


def _chain_outcome(chain, a, fn, p):
    try:
        return [_bits(_positive_nans(c)) for c in chain(a, fn, p)]
    except (ArithmeticError, EvaluationError) as exc:  # a domain check, or math's overflow
        return (type(exc), str(exc))


def test_every_scalar_function_is_one_row_of_parts():
    # the functions of the grammar, the reciprocal of a quotient and a
    # fractional power, of which four check their operand's domain; each part
    # reads only shared values of its own row
    rows = hyperdual._FUNCTIONS
    assert list(rows) == list(FUNCTIONS) + ["recip", "^p"]
    checked = {fn for fn, (check, _, _) in rows.items() if check is not None}
    assert checked == {"log", "sqrt", "recip", "^p"}
    for check, shared, parts in rows.values():
        assert len(parts) == 3 and all(set(reads) <= set(shared) for _, reads in parts)


_CHAIN_CASES = [(fn, None) for fn in FUNCTIONS + ("recip",)]
_CHAIN_CASES += [("^p", p) for p in (0.5, -1.5, 1.0 / 3.0, 2.5, -0.25)]


@pytest.mark.parametrize("fn, p", _CHAIN_CASES)
def test_dense_chain_is_the_written_out_chain_rule(fn, p):
    rng = random.Random(2020)

    def pick():
        return rng.choice(_SPECIAL) if rng.random() < 0.5 else rng.uniform(-4.0, 4.0)

    def array():
        values = np.array([pick() for _ in range(48)])
        # half of the arrays stay inside every function's domain
        return np.where(values <= 0.0, 0.5, values) if rng.random() < 0.5 else values

    outcomes = Counter()
    with np.errstate(all="ignore"):
        for _ in range(2000):
            a = tuple(pick() for _ in range(4))
            got = _chain_outcome(hyperdual._dense_chain, a, fn, p)
            assert got == _chain_outcome(_chain_rule, a, fn, p), (a, got)
            outcomes[type(got)] += 1
        for _ in range(60):
            # a derivative component may be a float that broadcasts, as a lifted constant's is
            a = tuple(array() if c == 0 or rng.random() < 0.5 else pick() for c in range(4))
            got = _chain_outcome(hyperdual._dense_chain, a, fn, p)
            assert got == _chain_outcome(_chain_rule, a, fn, p), (a, got)
            outcomes[type(got), "array"] += 1
    # both the components and the errors are compared: a domain check's, and
    # math's of sin(inf), cos(inf) and an exp that overflows
    assert outcomes[list] > 500 and outcomes[tuple] > 50
    assert outcomes[list, "array"] > 20
