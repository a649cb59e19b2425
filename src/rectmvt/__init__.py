"""Numerical mean-value points for two-dimensional mean value theorems.

Parse a bivariate function, build the residual field of a rectangle theorem
(rectangular Rolle / mean value / Cauchy, two-dimensional Pompeiu and Boggio,
plus their one-dimensional ancestors), and locate a point of the open
rectangle where the identity holds.

The package exports the names the README's "Library API" section lists; the
submodules hold the rest.
"""

from .expr import (
    BinOp,
    Call,
    Const,
    EvaluationError,
    Expression,
    Neg,
    ParseError,
    Var,
    const,
    evaluate,
    parse,
    pretty_print,
)
from .harness import (
    derive_seed,
    family_from_name,
    generate_function,
    generate_rectangle,
    run_sweep,
)
from .hyperdual import eval_hyperdual, finite_difference_oracle
from .locator import LocateConfig, locate, locate_line, verify_at
from .theorems import (
    DegenerateError,
    DomainError,
    HypothesisError,
    Rectangle,
    boggio1d_residual,
    boggio2d_residual,
    corner_difference,
    pompeiu1d_residual,
    pompeiu2d_residual,
    rect_cauchy_residual,
    rect_mvt_residual,
    rect_rolle_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BinOp",
    "Call",
    "Const",
    "DegenerateError",
    "DomainError",
    "EvaluationError",
    "Expression",
    "HypothesisError",
    "LocateConfig",
    "Neg",
    "ParseError",
    "Rectangle",
    "Var",
    "boggio1d_residual",
    "boggio2d_residual",
    "const",
    "corner_difference",
    "derive_seed",
    "eval_hyperdual",
    "evaluate",
    "family_from_name",
    "finite_difference_oracle",
    "generate_function",
    "generate_rectangle",
    "locate",
    "locate_line",
    "parse",
    "pompeiu1d_residual",
    "pompeiu2d_residual",
    "pretty_print",
    "rect_cauchy_residual",
    "rect_mvt_residual",
    "rect_rolle_residual",
    "run_sweep",
    "verify_at",
]
