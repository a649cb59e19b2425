"""Command-line interface with machine-readable JSON output.

Commands: locate, verify, sweep, grad-check, parse.  Exit codes: 0 success,
1 locate failure, 2 invalid input, 3 violated precondition or domain
condition.  All numeric JSON values use Python's shortest round-trip float
representation, so parsing the output reproduces the exact doubles.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys

from .expr import (
    BinOp,
    Call,
    Const,
    EvaluationError,
    Expression,
    Neg,
    ParseError,
    Var,
    parse,
)
from .harness import GenerationError, build_field, family_from_name, run_sweep
from .hyperdual import eval_hyperdual, finite_difference_oracle
from .locator import LocateConfig, locate, verify_at
from .theorems import THEOREMS, DegenerateError, DomainError, HypothesisError

__all__ = ["main"]

EXIT_OK = 0
EXIT_LOCATE_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_PRECONDITION = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _floats(text: str, n: int, flag: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{flag} expects {n} comma-separated numbers, got {text!r}")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{flag} values must be finite, got {text!r}")
    return values


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _build_field(args):
    """Residual field for the requested theorem; returns (field, bounds)."""
    f = parse(args.f)
    g = parse(args.g) if args.g is not None else None
    bounds = _floats(args.rect, 2 if THEOREMS[args.theorem].one_dim else 4, "--rect")
    return build_field(args.theorem, f, g, bounds), bounds


def _config_from_args(args) -> LocateConfig:
    return LocateConfig(
        grid_n=args.grid_n,
        max_refinements=args.refinements,
        tol_factor=args.tau,
    )


def _point_doc(xi1: float, xi2: float | None = None) -> dict:
    return {"xi": xi1} if xi2 is None else {"xi1": xi1, "xi2": xi2}


def _cmd_locate(args) -> int:
    cfg = _config_from_args(args)
    field, rect = _build_field(args)
    report = locate(field, cfg)
    doc = {
        "theorem": args.theorem,
        "rect": rect,
        "outcome": report.outcome,
        "point": _point_doc(report.point.xi1, report.point.xi2) if report.point else None,
        "residual": report.point.residual if report.point else None,
        "scale": field.scale,
        "method": report.point.method if report.point else None,
        "decomposition": field.decomposition,
        "evaluations": report.diagnostics.evaluations,
    }
    if report.outcome == "failed":
        doc["failure"] = report.diagnostics.failure
        _emit(doc)
        # an interior domain error means f violates the theorem's hypothesis
        if report.diagnostics.failure_kind == "domain":
            return EXIT_PRECONDITION
        return EXIT_LOCATE_FAILURE
    _emit(doc)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the tolerance follows the locate rule, so --tau is validated the same way
    tol_factor = LocateConfig(tol_factor=args.tau).tol_factor
    field, rect = _build_field(args)
    point = _floats(args.point, len(field.axes), "--point")
    # invalid input is rejected before the residual is evaluated
    tolerance = tol_factor * field.scale
    if not math.isfinite(tolerance):
        raise ValueError(
            f"--tau times the field scale is not finite: {tol_factor!r} * {field.scale!r}"
        )
    residual = verify_at(field, *point)
    doc = {
        "theorem": args.theorem,
        "rect": rect,
        "point": _point_doc(*point),
        "residual": residual,
        "scale": field.scale,
        "tolerance": tolerance,
        "within_tolerance": abs(residual) <= tolerance,
    }
    _emit(doc)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    family = family_from_name(args.family)
    cfg = _config_from_args(args)
    # open the CSV first, so an unwritable path fails before the sweep runs
    try:
        csv_file = open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext()
    except OSError as err:
        raise ValueError(f"cannot write --csv {args.csv!r}: {err.strerror}") from err
    with csv_file as handle:
        summary = run_sweep(args.theorem, family, args.count, args.seed, cfg)
        if handle is not None:
            writer = csv.writer(handle)
            writer.writerow(["case_index", "seed", "outcome", "xi1", "xi2", "residual"])
            for case in summary.cases:
                writer.writerow(
                    [
                        case.index,
                        case.seed,
                        case.outcome,
                        "" if case.xi1 is None else repr(case.xi1),
                        "" if case.xi2 is None else repr(case.xi2),
                        "" if case.residual is None else repr(case.residual),
                    ]
                )
    doc = {
        "theorem": summary.tag,
        "family": args.family,
        "seed": args.seed,
        "total": summary.total,
        "found": summary.found,
        "degenerate": summary.degenerate,
        "failed": summary.failed,
        "max_found_residual": summary.max_found_residual,
        "max_found_ratio": summary.max_found_ratio,
        "failing_seeds": list(summary.failing_seeds),
    }
    _emit(doc)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    f = parse(args.f)
    x, y = _floats(args.at, 2, "--at")
    hd = eval_hyperdual(f, x, y)
    fd = finite_difference_oracle(f, x, y)
    pairs = {
        "v": (hd.v, fd.v),
        "dx": (hd.dx, fd.dx),
        "dy": (hd.dy, fd.dy),
        "dxy": (hd.dxy, fd.dxy),
    }
    max_rel = max(abs(a - b) / max(1.0, abs(a)) for a, b in pairs.values())
    doc = {
        "f": args.f,
        "at": [x, y],
        "hyperdual": {k: v[0] for k, v in pairs.items()},
        "finite_difference": {k: v[1] for k, v in pairs.items()},
        "max_rel_error": max_rel,
    }
    _emit(doc)
    return EXIT_OK


def _dump_ast(expr: Expression, indent: int = 0) -> list[str]:
    pad = "  " * indent
    t = type(expr)
    if t is BinOp:
        return (
            [f"{pad}binary {expr.op}"]
            + _dump_ast(expr.left, indent + 1)
            + _dump_ast(expr.right, indent + 1)
        )
    if t is Const:
        return [f"{pad}const {expr.value!r}"]
    if t is Var:
        return [f"{pad}var {expr.name}"]
    if t is Neg:
        return [f"{pad}neg"] + _dump_ast(expr.child, indent + 1)
    if t is Call:
        return [f"{pad}call {expr.fn}"] + _dump_ast(expr.arg, indent + 1)
    raise TypeError(f"not an expression node: {expr!r}")


def _cmd_parse(args) -> int:
    expr = parse(args.f)
    print("\n".join(_dump_ast(expr)))
    return EXIT_OK


def _add_locate_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--grid-n", type=int, default=LocateConfig.grid_n, help="initial grid resolution per axis"
    )
    sub.add_argument(
        "--refinements", type=int, default=LocateConfig.max_refinements, help="maximum grid doublings"
    )
    sub.add_argument(
        "--tau",
        type=float,
        default=LocateConfig.tol_factor,
        help="residual tolerance factor (times scale)",
    )


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared after it.

    Building it costs about a millisecond, more than a whole ``parse`` or
    ``grad-check`` call; parsing reads it and never changes it, so repeated
    :func:`main` calls in one process can share it.
    """
    parser = argparse.ArgumentParser(
        prog="rectmvt",
        description="Locate and verify mean-value points of rectangle mean value theorems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    locate_p = sub.add_parser("locate", help="find a mean-value point of a theorem residual")
    locate_p.add_argument("--theorem", required=True, choices=tuple(THEOREMS))
    locate_p.add_argument("--f", required=True, help="expression for f, e.g. 'x^2*y'")
    locate_p.add_argument("--g", default=None, help="expression for g (Cauchy/Boggio theorems)")
    locate_p.add_argument(
        "--rect",
        required=True,
        help="x1,x2,y1,y2 for 2-D theorems; x1,x2 for the 1-D ones",
    )
    _add_locate_config_flags(locate_p)
    locate_p.set_defaults(handler=_cmd_locate)

    verify_p = sub.add_parser("verify", help="evaluate a theorem residual at a claimed point")
    verify_p.add_argument("--theorem", required=True, choices=tuple(THEOREMS))
    verify_p.add_argument("--f", required=True)
    verify_p.add_argument("--g", default=None)
    verify_p.add_argument("--rect", required=True)
    verify_p.add_argument("--point", required=True, help="xi1,xi2 (just xi for 1-D theorems)")
    verify_p.add_argument(
        "--tau",
        type=float,
        default=LocateConfig.tol_factor,
        help="residual tolerance factor (times scale)",
    )
    verify_p.set_defaults(handler=_cmd_verify)

    sweep_p = sub.add_parser("sweep", help="run a deterministic sweep of generated cases")
    sweep_p.add_argument("--theorem", required=True, choices=tuple(THEOREMS))
    sweep_p.add_argument("--family", default="poly4", help="poly<k>, bilinear, separable, exp-poly, rational")
    sweep_p.add_argument("--count", type=_positive_int, required=True)
    sweep_p.add_argument("--seed", type=int, default=42)
    sweep_p.add_argument("--csv", default=None, help="write one CSV row per case to this path")
    _add_locate_config_flags(sweep_p)
    sweep_p.set_defaults(handler=_cmd_sweep)

    grad_p = sub.add_parser("grad-check", help="hyper-dual derivatives vs finite differences")
    grad_p.add_argument("--f", required=True)
    grad_p.add_argument("--at", required=True, help="x,y evaluation point")
    grad_p.set_defaults(handler=_cmd_gradcheck)

    parse_p = sub.add_parser("parse", help="print the expression tree")
    parse_p.add_argument("--f", required=True)
    parse_p.set_defaults(handler=_cmd_parse)

    return parser


# flags whose values may start with a minus sign; merged to --flag=value so
# argparse does not mistake them for option strings
_VALUE_FLAGS = ("--rect", "--point", "--at", "--f", "--g")


def _merge_flag_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg in _VALUE_FLAGS:
            value = next(it, None)
            out.append(arg if value is None else f"{arg}={value}")
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_argparser()
    args = parser.parse_args(_merge_flag_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.handler(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (DomainError, DegenerateError, HypothesisError) as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (EvaluationError, GenerationError) as err:
        print(f"evaluation failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
