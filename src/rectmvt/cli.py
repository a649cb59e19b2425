"""Command-line interface with machine-readable JSON output.

Commands: locate, verify, sweep, grad-check, parse.  Exit codes: 0 success,
1 locate failure, 2 invalid input, 3 violated precondition or domain
condition, 141 (128 + SIGPIPE) when stdout is closed before all output is
written.  All numeric JSON values use Python's shortest round-trip float
representation, so parsing the output reproduces the exact doubles.

A call whose every flag is spelled out, as ``--option=value`` or as
``--option value`` with a value that does not start with "-", is read from
its command's option table, built from the command's own argparse actions,
into the namespace argparse would return.  Any other call (help, an
abbreviation, an unknown, missing, repeated-with-a-bad-value or malformed
flag, ``--``, a type or choice error) is read by the command's argparse
parser, so every error and help text is argparse's.  Reports are written by
a small writer that gives the same bytes as ``json.dumps(doc, indent=2)``,
whose indented output has no C encoder.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

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
from .theorems import THEOREMS, TheoremError

__all__ = ["main"]

EXIT_OK = 0
EXIT_LOCATE_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer that SIGPIPE ended


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


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json(value, pad: str, out: list[str]) -> None:
    """Append to ``out`` the text that ``json.dumps(..., indent=2)`` writes
    for ``value`` nested at indentation ``pad``: the types are tested in
    ``json.encoder``'s order, a tuple is a list, and strings and keys are
    quoted by the encoder ``json`` itself uses.  Every key of a document is a
    string; any other key raises ``TypeError``, where ``json`` converts it."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            sep = ",\n" + inner
            _json(item, inner, out)
        out.append("\n" + pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = ",\n" + inner
            _json(item, inner, out)
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _emit(doc) -> None:
    out: list[str] = []
    _json(doc, "", out)
    print("".join(out))


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


def _dump_ast(expr: Expression) -> list[str]:
    lines: list[str] = []

    def walk(node: Expression, pad: str) -> None:
        t = type(node)
        if t is BinOp:
            lines.append(f"{pad}binary {node.op}")
            walk(node.left, pad + "  ")
            walk(node.right, pad + "  ")
        elif t is Const:
            lines.append(f"{pad}const {node.value!r}")
        elif t is Var:
            lines.append(f"{pad}var {node.name}")
        elif t is Neg:
            lines.append(f"{pad}neg")
            walk(node.child, pad + "  ")
        elif t is Call:
            lines.append(f"{pad}call {node.fn}")
            walk(node.arg, pad + "  ")
        else:
            raise TypeError(f"not an expression node: {node!r}")

    walk(expr, "")
    return lines


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


def _merge_flag_values(argv: list[str], flags, options) -> list[str]:
    """``argv`` with each value flag of ``flags`` merged with the token after
    it, unless that token is one of the command's ``options``: then the flag
    has no value, and argparse says so."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in flags and arg not in options:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _option_table(parser: argparse.ArgumentParser) -> tuple[dict, dict, frozenset[str]]:
    """A parser's option table, read from its own argparse actions: each store
    action of one value keyed by its exact option string, the value argparse
    gives each action's dest when it is not given (its default, converted by
    its type when the default is a string), and the dests that are required."""
    actions = [a for a in parser._actions if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS]
    return (
        {
            option: a for a in parser._actions if type(a) is argparse._StoreAction and a.nargs is None
            for option in a.option_strings
        },
        {
            a.dest: a.type(a.default) if a.type is not None and isinstance(a.default, str) else a.default
            for a in actions
        },
        frozenset(a.dest for a in parser._actions if a.required),
    )


@functools.cache
def _commands() -> dict[str, tuple]:
    """Each command's own parser, the one ``add_parser`` returned; the
    spellings of its value flags, which are merged with their values, and of
    all its options: each option string, and each prefix that argparse
    resolves to that option alone; and its option table."""
    (choices,) = (a.choices for a in _build_argparser()._actions if a.dest == "command")
    commands = {}
    for name, parser in choices.items():
        options = parser._option_string_actions
        spellings = [
            (option, option[:end]) for option in options for end in range(3, len(option) + 1)
            if end == len(option) or [o for o in options if o.startswith(option[:end])] == [option]
        ]
        flags = frozenset(s for option, s in spellings if option in _VALUE_FLAGS)
        options = frozenset(options).union(s for _, s in spellings)
        commands[name] = (parser, flags, options, _option_table(parser))
    return commands


def _table_namespace(argv: list[str], parser, stores, defaults, required):
    """The namespace argparse returns for ``argv``, read from the command's
    option table, or None when some token is not ``--option=value`` or
    ``--option value`` (a value that does not start with "-") of an exact
    option string of the table, a value fails its type or choices, or a
    required option is missing: argparse reads those, and says what is wrong."""
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = stores.get(token)
        if action is not None:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        else:
            option, _, value = token.partition("=")
            action = stores.get(option)
            if action is None or value == "--":  # argparse drops a "--" value
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value  # a repeated option keeps its last value
    if not required <= values.keys():
        return None
    args = argparse.Namespace(command=argv[0])
    namespace = vars(args)
    namespace.update(defaults)
    namespace.update(values)
    for dest, value in parser._defaults.items():
        namespace.setdefault(dest, value)
    return args


def _arguments(argv: list[str]) -> argparse.Namespace:
    command = _commands().get(argv[0]) if argv else None
    if command is None:
        # no command: help, usage and errors come from the top-level parser
        return _build_argparser().parse_args(argv)
    sub, flags, options, table = command
    args = _table_namespace(argv, sub, *table)
    if args is None:
        # the top-level parser would hand every argument after the command to
        # the command's parser, so that parser reads them alone
        args, rest = sub.parse_known_args(
            _merge_flag_values(argv[1:], flags, options), argparse.Namespace(command=argv[0])
        )
        if rest:
            _build_argparser().error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _arguments(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout shows here
        return code
    except BrokenPipeError:  # end quietly, and send what Python flushes at exit nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except TheoremError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (EvaluationError, GenerationError) as err:
        print(f"evaluation failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
