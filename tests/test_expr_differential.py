"""``expr.parse`` against the reference parser of ``tests/expr_reference.py``.

For every input both give the same tree, compared by ``repr`` so that
constants match bit for bit, or both raise :class:`ParseError` with the same
message, offset and token.  The one intended difference is a number literal
too large for a float: ``parse`` rejects it where the reference returns
``Const(inf)``, so the reference is run with that one check added.
"""

import ast
import math
import random
import shlex
from pathlib import Path

import expr_reference

from rectmvt.expr import MAX_DEPTH, ParseError, parse, pretty_print
from rectmvt.harness import derive_seed, family_from_name, generate_function, generate_rectangle

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("poly4", "rational", "exp-poly", "separable", "bilinear")


class _FiniteLiterals(expr_reference._Parser):
    """The reference parser, rejecting a literal that overflows to infinity."""

    def atom(self):
        tok = self.peek()
        if tok.kind == "num" and not math.isfinite(float(tok.text)):
            raise ParseError(tok.offset, "number too large", tok.text)
        return super().atom()


def _reference(text: str):
    """``expr_reference.parse`` over :class:`_FiniteLiterals`."""
    if not text or not text.strip():
        raise ParseError(0, "empty input")
    parser = _FiniteLiterals(expr_reference._tokenize(text))
    node, _ = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.offset, "trailing garbage", tok.text)
    return node


def _outcome(parser, text: str) -> tuple:
    try:
        return ("tree", repr(parser(text)))
    except ParseError as err:
        return ("error", err.message, err.offset, err.token)


def _assert_same(texts) -> set[str]:
    """Compare the parsers on every text; return the error messages met."""
    messages = set()
    for text in texts:
        got = _outcome(parse, text)
        assert got == _outcome(_reference, text), text
        if got[0] == "error":
            messages.add(got[1])
    return messages


def _string_constants(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    return [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def test_readme_and_test_inputs():
    readme = (ROOT / "README.md").read_text().replace("\\\n", " ")
    texts = []
    for line in readme.splitlines():
        if line.startswith("rectmvt "):
            texts += shlex.split(line, comments=True)
    for name in ("test_cli.py", "test_expr.py", "test_theorems.py", "test_acceptance.py"):
        texts += _string_constants(ROOT / "tests" / name)
    assert "sin(t*s)" in texts and "x^2*y" in texts
    _assert_same(texts)


def test_generated_functions_of_every_family(random_expression):
    texts = []
    for name in FAMILIES:
        family = family_from_name(name)
        for i in range(40):
            rect = generate_rectangle(derive_seed(i, 0))
            for k in (1, 2):
                texts.append(pretty_print(generate_function(family, derive_seed(i, k), rect)))
    rng = random.Random(20261018)
    texts += [pretty_print(random_expression(rng)) for _ in range(200)]
    _assert_same(texts)


# the token alphabet, a Unicode digit (U+0663), Unicode whitespace (U+00A0,
# U+2003) and characters that start no token
PIECES = (
    list("0123456789.eE+-*/^() xyts_a")
    + ["sin", "cos", "exp", "log", "sqrt", "pi", "1e999", "9e308", "1e-999"]
    + ["٣", " ", " ", "\t", "@", "é", "²", "inf", "nan"]
)


def test_random_strings():
    rng = random.Random(10)
    texts = ["".join(rng.choices(PIECES, k=rng.randint(0, 16))) for _ in range(20_000)]
    messages = _assert_same(texts)
    assert messages == {
        "empty input",
        "unexpected character",
        "empty operand",
        "unbalanced parentheses",
        "trailing garbage",
        "unknown identifier",
        "expected '(' after function name",
        "number too large",
    }


WRAP = {"paren": "({})", "call": "sin({})", "sum": "{}+x", "minus": "-{}", "power": "x^{}"}


def _nested(rng: random.Random, levels: int) -> str:
    """A leaf under ``levels`` constructs, each drawn from the five and each
    one level over what it wraps: a sum may only be wrapped by a parenthesis,
    a call or another sum."""
    text, factor = rng.choice(("x", "2", "y^2", "(x)")), True
    for _ in range(levels):
        kind = rng.choice(("paren", "call", "sum") + (("minus", "power") if factor else ()))
        text = WRAP[kind].format(text)
        factor = kind != "sum"
    return text


def test_nesting_mixes_around_max_depth():
    rng = random.Random(11)
    texts = []
    for levels in range(MAX_DEPTH - 2, MAX_DEPTH + 3):
        for _ in range(200):
            text = _nested(rng, levels)
            # one edit in two: a character dropped or a piece inserted somewhere
            at = rng.randrange(len(text))
            edit = rng.choice(("", "", "drop", "(", ")", "^2", "-", "+", "1e999", "@"))
            if edit == "drop":
                text = text[:at] + text[at + 1 :]
            elif edit:
                text = text[:at] + edit + text[at:]
            texts.append(text)
    messages = _assert_same(texts)
    assert {"nested too deeply", "unbalanced parentheses", "number too large"} <= messages
