import random

import pytest

from rectmvt import cli
from rectmvt.expr import BinOp, Call, Const, Expression, Neg, Var, FUNCTIONS


def _random_expression(rng: random.Random, depth: int = 0) -> Expression:
    """Random tree over every node kind; constants stay non-negative so the
    printed form parses back to the identical tree."""
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        if rng.random() < 0.5:
            return Const(rng.uniform(0.0, 5.0))
        return Var(rng.choice(("x", "y")))
    if roll < 0.45:
        return Neg(_random_expression(rng, depth + 1))
    if roll < 0.6:
        return Call(rng.choice(FUNCTIONS), _random_expression(rng, depth + 1))
    op = rng.choice(("+", "-", "*", "/", "^"))
    return BinOp(op, _random_expression(rng, depth + 1), _random_expression(rng, depth + 1))


@pytest.fixture
def random_expression():
    return _random_expression


@pytest.fixture(autouse=True)
def cold_cli_caches():
    """Each test starts as a fresh process does, with no tree or field that
    ``cli.main`` keeps from one call for the next, so a test that rebinds a
    builder sees it run."""
    cli._tree.cache_clear()
    cli._field.cache_clear()
