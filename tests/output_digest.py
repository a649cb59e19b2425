"""Print SHA-256 digests of what ``rectmvt`` returns and prints, so that a change
meant to keep every output the same can be checked to do so.

    python3 tests/output_digest.py [--count 20] [--baseline DIR]

The entries fall in four groups, with one digest each:

- ``sweep``: ``repr`` of every ``run_sweep`` summary over the seven theorems,
  the families poly4, bilinear, separable, exp-poly and rational, and the seeds
  42 and 7, with ``--count`` cases each, at the default ``LocateConfig``;
- ``sweep257``: the same at ``grid_n=257, max_refinements=1``;
- ``cli``: ``(exit code, stdout, stderr)`` of ``cli.main`` on each ``rectmvt``
  command of README.md (extracted as ``tests/test_readme.py`` extracts them,
  and run in a temporary directory, since ``sweep --csv`` writes there), on
  each command of the CI workflow's numpy-only smoke step that is expected to
  fail (``... || code=$?``), and on generated cases: for the first ``--count``
  sweep cases of each theorem, family and seed, with f and g printed by
  ``pretty_print``, ``locate``, ``verify`` at the point it located (at the
  domain's center when it located none), ``grad-check`` at the center and
  ``parse`` of f; and one ``sweep`` of ``--count`` cases per theorem;
- ``programs``: for every one of the 16 sets of components read, the int64
  bits of each component that ``compile_hyperdual``'s program returns, or the
  type and message of the error it raises (also when compiled), at a few
  scalar points and on two small grids.  The expressions are every string
  that parses among the README's code and the string constants of the tests,
  f and g of the first ``--count`` sweep cases of each family and seed, and
  edge cases of every scalar function and of varying exponents.

With ``--baseline DIR``, DIR is the ``src`` directory of another checkout: its
``rectmvt`` is loaded under another name in this same process (digests do not
depend on timing, so the two trees may share it), and each group's line shows
both digests.
For a group whose entries differ, the first entry that differs is printed from
both trees, and the script exits with status 1.
"""

import argparse
import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from screen_speed import FAMILIES, build_calls  # noqa: E402
from test_readme import COMMANDS as README_COMMANDS  # noqa: E402

SEEDS = (42, 7)
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# what the README and the tests leave out: each scalar function at the edge of
# its domain, a fractional and a negative power, and varying exponents
EDGE_CASES = (
    "sin(x)*cos(y) - sin(1e300*x*y)", "cos(x*y)^3 + exp(sin(y))", "exp(700*x*y)",
    "exp(-x*x - y*y)/(x + 2)", "log(x)*log(y)", "log(x*y - 0.5)", "log(-x) + y",
    "sqrt(x*y)", "sqrt(x) + sqrt(-y)", "sqrt(sin(x)^2 + 1)*y", "1/x + 1/y", "1/(x*y)",
    "x/(y - 0.25) - y/(x + 1)", "x^0.5*y^-1.5", "(x*y)^(1/3)", "x^-3*y", "(x + y)^-2",
    "x^y", "y^x*x", "(x + 2)^(y - 1)", "2^(x*y)", "0.5^x - 0^y", "x^(y - y + 3)",
    "(x*y)^(x - x + 0.5)", "x^(y - y + 1025)", "x^1025", "exp(x)^sin(y)", "log(x)^y",
)
POINTS = ((0.7, 1.3), (-0.4, 0.9), (0.0, 1.1), (1.5, -0.0), (2.0, 0.5), (5e-324, 3.0))
# a 5 x 5 grid across both axes' zeros, and a row of 7 with y = 0
GRIDS = (
    (np.linspace(-1.0, 1.0, 5)[np.newaxis, :], np.linspace(-0.5, 1.5, 5)[:, np.newaxis]),
    (np.linspace(-1.5, 1.5, 7), 0.0),
)


def load(src: Path, name: str):
    """The ``rectmvt`` package under ``src``, imported as ``name``."""
    package = src / "rectmvt"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def failing_smoke_commands() -> list[list[str]]:
    """The CLI arguments of each smoke-step command whose exit code CI checks."""
    text = WORKFLOW.read_text()
    return [shlex.split(args) for args in re.findall(r"-m rectmvt\.cli(.*?) \|\| code=\$\?", text)]


def sweep_entries(name: str, count: int, **config) -> list[tuple[str, str]]:
    harness = importlib.import_module(f"{name}.harness")
    theorems = importlib.import_module(f"{name}.theorems")
    cfg = importlib.import_module(f"{name}.locator").LocateConfig(**config)
    entries = []
    for tag in theorems.THEOREMS:
        for family in FAMILIES:
            for seed in SEEDS:
                summary = harness.run_sweep(tag, harness.family_from_name(family), count, seed, cfg)
                entries.append((f"{tag} {family} seed {seed}", repr(summary)))
    return entries


def generated_cases(count: int) -> list[tuple[str, list[str], list[float]]]:
    """``(label, theorem flags, center)`` of the first ``count`` sweep cases of
    each theorem, family and seed: the flags are ``--theorem``, ``--f`` and
    ``--g`` printed by ``pretty_print``, and ``--rect``."""
    pretty_print = importlib.import_module("rectmvt.expr").pretty_print
    theorems = importlib.import_module("rectmvt.theorems").THEOREMS
    cases = []
    for tag in theorems:
        for family in FAMILIES:
            for seed in SEEDS:
                for index, (_, f, g, bounds) in enumerate(build_calls(tag, family, count, seed)):
                    flags = ["--theorem", tag, "--f", pretty_print(f)]
                    if g is not None:
                        flags += ["--g", pretty_print(g)]
                    flags += ["--rect", ",".join(map(repr, bounds))]
                    center = [(lo + hi) / 2 for lo, hi in zip(bounds[::2], bounds[1::2])]
                    cases.append((f"{tag} {family} seed {seed} case {index}", flags, center))
    return cases


def case_commands(flags: list[str], center: list[float], run) -> list[tuple[list[str], tuple]]:
    """``(argv, run(argv))`` of ``locate`` on one generated case, ``verify`` at
    the point it located (at ``center`` when it located none), ``grad-check``
    at the center (with y = 0.5 on an interval) and ``parse`` of f, where
    ``run(argv)`` returns ``(exit code, stdout, stderr)``."""
    locate = ["locate", *flags]
    located = run(locate)
    try:
        point = json.loads(located[1])["point"]
    except ValueError:  # no document
        point = None
    point = list(point.values()) if point else center
    commands = [
        ["verify", *flags, "--point", ",".join(map(repr, point))],
        ["grad-check", "--f", flags[3], "--at", ",".join(map(repr, (center + [0.5])[:2]))],
        ["parse", "--f", flags[3]],
    ]
    return [(locate, located)] + [(argv, run(argv)) for argv in commands]


def sweep_commands(count: int) -> list[list[str]]:
    """One ``sweep`` of ``count`` cases per theorem, the families in turn."""
    theorems = importlib.import_module("rectmvt.theorems").THEOREMS
    return [
        ["sweep", "--theorem", tag, "--family", FAMILIES[i % len(FAMILIES)], "--count", str(count)]
        for i, tag in enumerate(theorems)
    ]


def cli_entries(name: str, count: int) -> list[tuple[str, str]]:
    main = importlib.import_module(f"{name}.cli").main

    def run(argv: list[str]) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # an argparse error
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    results = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in README_COMMANDS + failing_smoke_commands() + sweep_commands(count):
                results.append((argv, run(argv)))
        finally:
            os.chdir(cwd)
    for _, flags, center in generated_cases(count):
        results += case_commands(flags, center, run)
    return [(shlex.join(argv), repr(result)) for argv, result in results]


def corpus_texts() -> list[str]:
    """The strings that parse among the arguments of README.md's commands and
    the constants of its Python blocks and of the tests."""
    expr = importlib.import_module("rectmvt.expr")
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [path.read_text() for path in sorted((ROOT / "tests").glob("test_*.py"))]
    strings = {arg for argv in README_COMMANDS for arg in argv}
    for source in sources:
        strings |= {n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Constant)}
    texts = []
    for text in sorted(s for s in strings if isinstance(s, str)):
        try:
            expr.parse(text)
        except expr.ParseError:  # most strings are not expressions
            continue
        texts.append(text)
    return texts


def outcome(program, x, y):
    """The int64 bits of each component of ``program(x, y)``, or its error."""
    try:
        out = program(x, y)
    except Exception as exc:  # any error is an outcome to compare, by type and message
        return (type(exc).__name__, str(exc))
    return tuple(
        None if c is None else np.asarray(c, dtype=np.float64).view(np.int64).tolist()
        for c in out
    )


def program_entries(name: str, count: int) -> list[tuple[str, str]]:
    expr = importlib.import_module(f"{name}.expr")
    harness = importlib.import_module(f"{name}.harness")
    compile_hyperdual = importlib.import_module(f"{name}.hyperdual").compile_hyperdual
    functions = [(text, expr.parse(text)) for text in corpus_texts() + list(EDGE_CASES)]
    for family in FAMILIES:
        kind = harness.family_from_name(family)
        for seed in SEEDS:
            for index in range(count):
                case = harness.derive_seed(seed, index)
                rect = harness.generate_rectangle(harness.derive_seed(case, 0))
                for k, fg in ((1, "f"), (2, "g")):
                    f = harness.generate_function(kind, harness.derive_seed(case, k), rect)
                    functions.append((f"{family} seed {seed} case {index} {fg}", f))
    fields = ("v", "dx", "dy", "dxy")
    entries = []
    with np.errstate(all="ignore"):
        for label, f in functions:
            for mask in range(16):
                reads = tuple(n for c, n in enumerate(fields) if mask >> c & 1)
                try:
                    program = compile_hyperdual(f, reads)
                except Exception as exc:
                    text = repr(("compile", type(exc).__name__, str(exc)))
                else:
                    text = repr([outcome(program, x, y) for x, y in POINTS + GRIDS])
                entries.append((f"{label} reads {reads}", text))
    return entries


def groups(name: str, count: int) -> dict:
    return {
        "sweep": sweep_entries(name, count),
        "sweep257": sweep_entries(name, count, grid_n=257, max_refinements=1),
        "cli": cli_entries(name, count),
        "programs": program_entries(name, count),
    }


def digest(entries) -> str:
    h = hashlib.sha256()
    for _, text in entries:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def first_difference(theirs, ours) -> str | None:
    """The first entry that differs, shown from where the two texts part."""
    for (label, a), (_, b) in zip(theirs, ours):
        if a != b:
            at = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
            start = max(at - 80, 0)
            return (
                f"  {label}, from character {at}:\n"
                f"    baseline  {a[start:at + 160]!r}\n"
                f"    this tree {b[start:at + 160]!r}"
            )
    if len(theirs) != len(ours):
        return f"  {len(theirs)} entries against {len(ours)}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=20, help="cases per sweep")
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args()
    importlib.import_module("rectmvt")
    ours = groups("rectmvt", args.count)
    if args.baseline is None:
        for group, entries in ours.items():
            print(f"{group:9} {len(entries):5d} entries  {digest(entries)}")
        return 0
    load(args.baseline.resolve(), "baseline_rectmvt")
    theirs = groups("baseline_rectmvt", args.count)
    status = 0
    for group, entries in ours.items():
        diff = first_difference(theirs[group], entries)
        verdict = "same" if diff is None else "DIFFERENT"
        print(
            f"{group:9} {len(entries):5d} entries  "
            f"baseline {digest(theirs[group])}  this {digest(entries)}  {verdict}"
        )
        if diff is not None:
            print(diff)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
