"""Command-line interface with machine-readable JSON output.

Commands: locate, verify, sweep, grad-check, parse.  Exit codes: 0 success,
1 locate failure, 2 invalid input, 3 violated precondition or domain
condition.  All numeric JSON values use Python's shortest round-trip float
representation, so parsing the output reproduces the exact doubles.
"""

from __future__ import annotations

import argparse
import csv
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
        return EXIT_LOCATE_FAILURE
    _emit(doc)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the tolerance follows the locate rule, so --tau is validated the same way
    tol_factor = _config_from_args(args).tol_factor
    field, rect = _build_field(args)
    point = _floats(args.point, len(field.axes), "--point")
    residual = verify_at(field, *point)
    tolerance = tol_factor * field.scale
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
    summary = run_sweep(args.theorem, family, args.count, args.seed, cfg)
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
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
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
    match expr:
        case Const(value):
            return [f"{pad}const {value!r}"]
        case Var(name):
            return [f"{pad}var {name}"]
        case Neg(child):
            return [f"{pad}neg"] + _dump_ast(child, indent + 1)
        case BinOp(op, left, right):
            return [f"{pad}binary {op}"] + _dump_ast(left, indent + 1) + _dump_ast(right, indent + 1)
        case Call(fn, arg):
            return [f"{pad}call {fn}"] + _dump_ast(arg, indent + 1)
    raise TypeError(f"not an expression node: {expr!r}")


def _cmd_parse(args) -> int:
    expr = parse(args.f)
    print("\n".join(_dump_ast(expr)))
    return EXIT_OK


def _add_locate_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid-n", type=int, default=33, help="initial grid resolution per axis")
    sub.add_argument("--refinements", type=int, default=4, help="maximum grid doublings")
    sub.add_argument("--tau", type=float, default=1e-9, help="residual tolerance factor (times scale)")


def _build_argparser() -> argparse.ArgumentParser:
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
    _add_locate_config_flags(verify_p)
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
