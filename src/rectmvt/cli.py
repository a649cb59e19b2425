"""Command-line interface with machine-readable JSON output.

Commands: locate, verify, sweep, grad-check, parse.  Exit codes: 0 success,
1 locate failure, 2 invalid input, 3 violated precondition or domain
condition, 141 (128 + SIGPIPE) when stdout is closed before all output is
written.  All numeric JSON values use Python's shortest round-trip float
representation, so parsing the output reproduces the exact doubles.

Each command is declared once, as a row of ``_COMMANDS``: its help, its
handler, and its options, each an option string and the keywords of its
``add_argument``.  The argparse parsers and each command's option table are
built from the rows.  The table holds the command's spellings: each option
string, ``-h`` and ``--help``, and each prefix that argparse resolves to one
option alone.  One rule says where every value is: an option that takes a
value takes the next token, unless that token, or its part before "=", is
one of its command's spellings, and the two are merged into
``--option=value``.  The table then reads a call whose every token is
``--spelling=value`` into the namespace argparse would return.  Argparse,
given the same merged tokens, reads only what the table declines: help and
every error.  So each help and error text is argparse's, and an error quotes
the arguments as they were given.  A ``--`` separator ends the merging, so
what follows it reaches argparse as it was given.  A ``--`` given as a flag's
value, as ``--rect --`` or ``--rect=--``, leaves the flag without one, so the
call exits 2 with "argument --rect: expected one argument".  Reports are
written by a small writer that gives the same bytes as ``json.dumps(doc,
indent=2)``, whose indented output has no C encoder.

Calls of :func:`main` in one process share what they read: the last two
parsed ``--f``/``--g`` trees, keyed by their text, and the last residual
field, keyed by the theorem, f, g and ``--rect`` text.  So ``verify`` at the
point that ``locate`` returned builds nothing, and ``grad-check`` and
``parse`` of the same f parse nothing.  A call that fails stores nothing, so
a repeat fails again, the same way; and each call still prints what it
prints in a fresh process.  A builder rebound in ``harness`` is used for the
next field built, not for one that is reused.
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


# what one call reads, kept for the next: verify repeats the theorem, f, g and
# rect text of the locate before it, and grad-check and parse repeat its f, so
# two trees (f and g) and one field serve that sequence.  Keys hold the argument
# text, as the floats read from it alone would merge -0.0 and 0.0; a call that
# raises stores nothing.
@functools.lru_cache(maxsize=2)
def _tree(text: str) -> Expression:
    """The tree of one ``--f`` or ``--g`` text."""
    return parse(text)


@functools.lru_cache(maxsize=1)
def _field(theorem: str, f: str, g: str | None, rect: str, bounds: tuple[float, ...]):
    """The residual field of the argument text, whose trees :func:`_tree`
    holds and whose ``rect`` reads as ``bounds``."""
    return build_field(theorem, _tree(f), None if g is None else _tree(g), bounds)


def _build_field(args, point: str | None = None):
    """Residual field for the requested theorem; returns ``(field, bounds,
    point)``, the point read from its text ``point`` (None without one).  The
    text is read in order, f, g, ``--rect`` and ``--point``, so the first bad
    one is reported, and before the field is built."""
    n = 2 if THEOREMS[args.theorem].one_dim else 4
    _tree(args.f)
    if args.g is not None:
        _tree(args.g)
    bounds = _floats(args.rect, n, "--rect")
    xi = None if point is None else _floats(point, n // 2, "--point")
    return _field(args.theorem, args.f, args.g, args.rect, tuple(bounds)), bounds, xi


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
    field, rect, _ = _build_field(args)
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
    field, rect, point = _build_field(args, args.point)
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
    f = _tree(args.f)
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
    expr = _tree(args.f)
    print("\n".join(_dump_ast(expr)))
    return EXIT_OK


# the options of the commands that locate, of which verify takes --tau too
_THEOREM = ("--theorem", dict(required=True, choices=tuple(THEOREMS)))
_TAU = ("--tau", dict(type=float, default=LocateConfig.tol_factor, help="residual tolerance factor (times scale)"))
_SEARCH = (
    ("--grid-n", dict(type=int, default=LocateConfig.grid_n, help="initial grid resolution per axis")),
    ("--refinements", dict(type=int, default=LocateConfig.max_refinements, help="maximum grid doublings")),
    _TAU,
)

# each command's row: its help, its handler, and its options in the order help
# lists them, each an option string and the keywords of its ``add_argument``;
# every option takes one value
_COMMANDS = {
    "locate": ("find a mean-value point of a theorem residual", _cmd_locate, (
        _THEOREM,
        ("--f", dict(required=True, help="expression for f, e.g. 'x^2*y'")),
        ("--g", dict(default=None, help="expression for g (Cauchy/Boggio theorems)")),
        ("--rect", dict(required=True, help="x1,x2,y1,y2 for 2-D theorems; x1,x2 for the 1-D ones")),
        *_SEARCH,
    )),
    "verify": ("evaluate a theorem residual at a claimed point", _cmd_verify, (
        _THEOREM,
        ("--f", dict(required=True)),
        ("--g", dict(default=None)),
        ("--rect", dict(required=True)),
        ("--point", dict(required=True, help="xi1,xi2 (just xi for 1-D theorems)")),
        _TAU,
    )),
    "sweep": ("run a deterministic sweep of generated cases", _cmd_sweep, (
        _THEOREM,
        ("--family", dict(default="poly4", help="poly<k>, bilinear, separable, exp-poly, rational")),
        ("--count", dict(type=_positive_int, required=True)),
        ("--seed", dict(type=int, default=42)),
        ("--csv", dict(default=None, help="write one CSV row per case to this path")),
        *_SEARCH,
    )),
    "grad-check": ("hyper-dual derivatives vs finite differences", _cmd_gradcheck, (
        ("--f", dict(required=True)),
        ("--at", dict(required=True, help="x,y evaluation point")),
    )),
    "parse": ("print the expression tree", _cmd_parse, (("--f", dict(required=True)),)),
}


def _argparser(commands: dict) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level argparse parser of the rows ``commands``, and each
    command's own parser, the one ``add_parser`` returned."""
    parser = argparse.ArgumentParser(
        prog="rectmvt",
        description="Locate and verify mean-value points of rectangle mean value theorems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (text, handler, options) in commands.items():
        parsers[name] = sub.add_parser(name, help=text)
        for option, keywords in options:
            parsers[name].add_argument(option, **keywords)
        parsers[name].set_defaults(handler=handler)
    return parser, parsers


@functools.cache
def _build_argparser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argparse parsers of ``_COMMANDS``, built on the first call that
    needs them, for help or an error, and shared after it.

    Building them costs about a millisecond, more than a whole ``parse`` or
    ``grad-check`` call; parsing reads them and never changes them, so repeated
    :func:`main` calls in one process can share them.
    """
    return _argparser(_COMMANDS)


def _command_table(handler, options) -> tuple[dict, dict, frozenset[str]]:
    """The option table of a command's row: its spellings, each option string,
    ``-h`` and ``--help``, and each prefix that argparse resolves to that
    option alone, mapped to the option's ``(dest, type, choices)`` (None for
    help); the value argparse gives each dest when its option is not given
    (its default, converted by its type when the default is a string), the
    handler included; and the dests that are required."""
    reads, defaults, required = {}, {}, set()
    for option, keywords in options:
        dest, kind = option.lstrip("-").replace("-", "_"), keywords.get("type")
        reads[option] = (dest, kind, keywords.get("choices"))
        default = keywords.get("default")
        defaults[dest] = kind(default) if kind is not None and isinstance(default, str) else default
        if keywords.get("required"):
            required.add(dest)
    strings = ["-h", "--help", *reads]
    spellings = {
        option[:end]: reads.get(option)
        for option in strings for end in range(min(3, len(option)), len(option) + 1)
        if end == len(option) or [o for o in strings if o.startswith(option[:end])] == [option]
    }
    return spellings, {**defaults, "handler": handler}, frozenset(required)


@functools.cache
def _commands() -> dict[str, tuple]:
    """Each command's option table, read from its row of ``_COMMANDS``."""
    return {name: _command_table(handler, options) for name, (_, handler, options) in _COMMANDS.items()}


def _merge_flag_values(argv: list[str], spellings: dict) -> list[str]:
    """``argv`` with each option that takes a value merged with the token after
    it into ``--spelling=value``, unless that token, or its part before "=",
    is one of the command's ``spellings``.  Merging stops at a ``--``
    separator, and a flag whose value is ``--`` ends the list without it, so
    it has none."""
    out: list[str] = []
    for i, arg in enumerate(argv):
        if out and spellings.get(out[-1]) and arg.partition("=")[0] not in spellings:
            out[-1] += "=" + arg
        elif arg == "--":
            return out + argv[i:]
        else:
            out.append(arg)
        if out[-1].endswith("=--") and spellings.get(out[-1][:-3]):
            out[-1] = out[-1][:-3]
            return out
    return out


def _table_namespace(command: str, argv: list[str], spellings, defaults, required):
    """The namespace argparse returns for ``command`` and its merged ``argv``,
    read from the command's option table, or None when some token is not
    ``--spelling=value`` of an option that takes a value, a value fails its
    type or choices, or a required option is missing: argparse reads those,
    and says what is wrong."""
    values = {}
    for token in argv:
        option, eq, value = token.partition("=")
        read = spellings.get(option)
        if read is None or not eq:
            return None
        dest, kind, choices = read
        if kind is not None:
            try:
                value = kind(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value  # a repeated option keeps its last value
    if not required <= values.keys():
        return None
    return argparse.Namespace(command=command, **{**defaults, **values})


def _arguments(argv: list[str]) -> argparse.Namespace:
    table = _commands().get(argv[0]) if argv else None
    if table is None:
        # no command: help, usage and errors come from the top-level parser
        return _build_argparser()[0].parse_args(argv)
    merged = _merge_flag_values(argv[1:], table[0])
    args = _table_namespace(argv[0], merged, *table)
    if args is None:
        # help or an error: the top-level parser would hand every argument
        # after the command to the command's parser, so that parser reads them alone
        parser, parsers = _build_argparser()
        args, rest = parsers[argv[0]].parse_known_args(merged, argparse.Namespace(command=argv[0]))
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
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
