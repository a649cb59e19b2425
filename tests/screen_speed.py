"""Time compiling residual programs, calling them on scalars and screening
residual grids on the cases ``run_sweep`` generates, for each theorem and family.

    python3 tests/screen_speed.py [--count 40] [--seed 42] [--repeat 3] [--baseline DIR]

For each theorem and each of the families poly4, bilinear, separable,
exp-poly and rational, the first ``--count`` sweep cases of ``--seed`` are
built as ``run_sweep`` builds them.  The script prints, per (theorem,
family), the microseconds ``compile_hyperdual`` takes per function (f, and g
where the theorem has one, compiled for the components its residual reads),
``build_us``, the microseconds ``harness.build_field`` takes per case (a case
it rejects as degenerate or as violating a hypothesis costs its time too),
the microseconds one scalar residual call takes at the cell centers
``locate`` brackets first on its level-0 grid (the sample of least |R| and the
two extreme samples), ``scalar_calls``, the number of Python-level function
calls (``sys.setprofile``'s "call" events) one such scalar residual call
makes, which repeats exactly from run to run, and the microseconds one grid
screen takes on the cell-center grid ``locate`` samples, n x n on a rectangle
and n points on an interval, for n = 33 and n = 257.  A screen is ``locator._grid_values``, as
``locate`` runs it: every level is evaluated band by band of rows into one
level array, and an interval or a level no taller than one band is one band.
Next to the n = 257 time, ``faults257`` is the number of minor page faults
(``resource.getrusage``'s ``ru_minflt``) one such screen takes, counted over
the pass whose time is best.  ``locate33_us`` is the microseconds of a whole
``locate`` call at the default ``LocateConfig`` (``sweep-mixed``'s config),
whose grids are small, so that its own bookkeeping and its scalar residuals
weigh most.  ``locate257_us`` and ``locate_faults257`` are
the same two figures for the whole ``locate`` call at ``grid_n=257,
max_refinements=1`` (``screen-fine``'s config): the screen reduces each band
to the level's extremes and its sample nearest zero as it goes, so only the
whole call compares trees whose screens share that work differently.

Each tree is measured in a fresh ``python3`` process per round, for
``--repeat`` rounds, and every figure printed is the median over the rounds;
within a round, each figure is the best of ``PASSES`` passes, and each page
fault count that of the pass whose time is best.  With ``--baseline DIR``,
DIR is the ``src`` directory of another checkout, and each round runs one
process per tree.  The parent steps the two in lockstep, one pass of one
figure at a time, alternating which tree goes first, so that a slow spell of
the host falls on both, while neither tree's heap or page faults depend on
what the other allocated.  Each line then shows the baseline's figure, this
tree's and their ratio.  A last line gives the mean compile time over all
functions and this tree's cost over the baseline's.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

FAMILIES = ("poly4", "bilinear", "separable", "exp-poly", "rational")
SCREEN_N = (33, 257)
LOCATE_N = 257  # the grid_n of the benchmark's screen-fine workload
GRID_N = 33  # LocateConfig's default grid_n: the level-0 grid of locate
SCALAR_ROUNDS = 20  # scalar calls per point in one pass, which then lasts milliseconds
PASSES = 3  # passes of each phase per round, of which each figure is the best

# the figures of each line, in the order they are printed
COLUMNS = (
    "compile_us", "build_us", "scalar_us", "scalar_calls", *(f"screen{n}_us" for n in SCREEN_N),
    f"faults{SCREEN_N[-1]}", f"locate{GRID_N}_us", f"locate{LOCATE_N}_us", f"locate_faults{LOCATE_N}",
)

# a fresh process that measures the rectmvt under sys.argv[1], found first on
# its path, with this script's directory (sys.argv[2]); see ``child``
CHILD = "import sys; sys.path[:0] = sys.argv[1:3]; import screen_speed; screen_speed.child(*map(int, sys.argv[3:]))"


def build_calls(tag: str, family: str, count: int, seed: int) -> list[tuple]:
    """The arguments ``(tag, f, g, bounds)`` of ``build_field`` for the first
    ``count`` sweep cases; ``_build_case`` calls ``build_field`` with f, g and
    the bounds, so they are caught there."""
    from rectmvt import harness as h

    theorem, fam = h._theorem(tag), h.family_from_name(family)
    calls = []
    real = h.build_field
    h.build_field = lambda *args: calls.append(args)
    try:
        for i in range(count):
            h._build_case(theorem, fam, h.derive_seed(seed, i))
    finally:
        h.build_field = real
    return calls


def cases(tag: str, family: str, count: int, seed: int):
    """``(functions, field, build args)`` of the first sweep cases."""
    from rectmvt.harness import build_field as real

    out = []
    for args in build_calls(tag, family, count, seed):
        try:
            field = real(*args)
        except Exception:  # a degenerate or violated case: its functions still compile
            field = None
        f, g = args[1:3]
        out.append(((f,) if g is None else (f, g), field, args))
    return out


def build_all(calls) -> float:
    """Seconds of ``build_field`` over the recorded calls; a call that raises
    costs its time too."""
    from rectmvt.harness import build_field

    start = perf_counter()
    for args in calls:
        try:
            build_field(*args)
        except Exception:
            pass
    return perf_counter() - start


def compile_all(tag: str, functions) -> float:
    from rectmvt.hyperdual import compile_hyperdual
    from rectmvt.theorems import THEOREMS

    reads = getattr(THEOREMS[tag], "reads", None)
    start = perf_counter()
    if reads is None:
        for f in functions:
            compile_hyperdual(f)
    else:
        for f in functions:
            compile_hyperdual(f, reads)
    return perf_counter() - start


def bracket_points(fields):
    """``(field, point)`` for each cell center ``locate`` evaluates first on
    the level-0 grid of each field whose grid evaluates: the sample of least
    |R| and the most negative and most positive samples."""
    from rectmvt import locator

    points = []
    for field in fields:
        centres = centres_of(field, GRID_N)
        # the level comes first and the failure last but one, also in the
        # (values, failure, evaluations) of checkouts whose screen has no picks
        screen = locator._grid_values(field, centres)
        flat, failure = screen[0], screen[-2]
        if failure is None:
            cells = {int(np.abs(flat).argmin()), int(flat.argmin()), int(flat.argmax())}
            points += [(field, locator._cell(centres, k)) for k in sorted(cells)]
    return points


def scalar_all(points) -> float:
    from rectmvt.locator import _scalar_residual

    start = perf_counter()
    for _ in range(SCALAR_ROUNDS):
        for field, p in points:
            try:
                _scalar_residual(field, p)
            except Exception:  # a raising call costs its time too
                pass
    return (perf_counter() - start) / SCALAR_ROUNDS


def scalar_calls(points) -> int:
    """Python-level calls made by one scalar residual call at each point."""
    from rectmvt.locator import _scalar_residual

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        for field, p in points:
            try:
                _scalar_residual(field, p)
            except Exception:  # a raising call counts its calls too
                pass
    finally:
        sys.setprofile(None)
    return calls


def screen_all(fields, n: int) -> tuple[float, int]:
    """Seconds and minor page faults of one grid screen of each field."""
    from rectmvt.locator import _grid_values

    elapsed = 0.0
    faults = 0
    for field in fields:
        centres = centres_of(field, n)
        before = minor_faults()
        start = perf_counter()
        _grid_values(field, centres)
        elapsed += perf_counter() - start
        faults += minor_faults() - before
    return elapsed, faults


def locate_all(fields, cfg) -> tuple[float, int]:
    """Seconds and minor page faults of one ``locate`` of each field at
    ``cfg``; a failed search costs its time too."""
    from rectmvt.locator import locate

    elapsed = 0.0
    faults = 0
    for field in fields:
        before = minor_faults()
        start = perf_counter()
        locate(field, cfg)
        elapsed += perf_counter() - start
        faults += minor_faults() - before
    return elapsed, faults


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def centres_of(field, n: int) -> list:
    return [lo + (np.arange(n) + 0.5) * ((hi - lo) / n) for lo, hi in field.axes]


def child(count: int, seed: int) -> None:
    """Answer the parent's commands with the ``rectmvt`` this process imports.
    It first prints the theorem tags; then, for each command ``[tag, family,
    phase]`` read from stdin, one JSON line.  Phase "cases" builds the line's
    cases and prints the numbers of functions and fields, and "calls" prints
    the Python calls per scalar call.  Each other phase runs one pass and
    prints ``[us, faults]`` per item: compile, build and scalar time one
    figure, and "screen" the two screens and the two ``locate`` configs."""
    from rectmvt.locator import LocateConfig
    from rectmvt.theorems import THEOREMS

    configs = LocateConfig(), LocateConfig(grid_n=LOCATE_N, max_refinements=1)
    print(json.dumps(list(THEOREMS)), flush=True)
    for command in sys.stdin:
        tag, family, phase = json.loads(command)
        if phase == "cases":
            built = cases(tag, family, count, seed)
            functions = [f for fs, _, _ in built for f in fs]
            builds = [args for _, _, args in built]
            fields = [field for _, field, _ in built if field is not None]
            points = bracket_points(fields)
            reply = [len(functions), len(fields)]
        elif phase == "calls":
            reply = per(scalar_calls(points), points)
        elif phase == "compile":
            reply = [[per(1e6 * compile_all(tag, functions), functions), 0]]
        elif phase == "build":
            reply = [[per(1e6 * build_all(builds), builds), 0]]
        elif phase == "scalar":
            reply = [[per(1e6 * scalar_all(points), points), 0]]
        else:
            runs = [screen_all(fields, n) for n in SCREEN_N] + [locate_all(fields, c) for c in configs]
            reply = [[per(1e6 * elapsed, fields), per(faults, fields)] for elapsed, faults in runs]
        print(json.dumps(reply), flush=True)


def per(total: float, items: list) -> float:
    return total / max(len(items), 1)


def run_round(trees, r: int, count: int, seed: int) -> tuple[list, list]:
    """One round: a fresh process per tree, stepped in lockstep, pass by pass
    of each phase of each line, so that both trees take the same figure
    moments apart; which tree goes first alternates from pass to pass, line to
    line and round to round.  Returns the lines as ``(tag, family, functions,
    fields)``, counted by this tree (the last), and per tree a dict of each
    line's figures, in the order of ``COLUMNS``."""
    here = str(Path(__file__).parent)
    procs = [
        subprocess.Popen([sys.executable, "-c", CHILD, str(src), here, str(count), str(seed)],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for src in trees
    ]
    try:
        tags = [json.loads(p.stdout.readline()) for p in procs][-1]
        lines, figures = [], [{} for _ in trees]

        def ask(k: int, command: list):
            procs[k].stdin.write(json.dumps(command) + "\n")
            procs[k].stdin.flush()
            return json.loads(procs[k].stdout.readline())

        for i, (tag, family) in enumerate((t, f) for t in tags for f in FAMILIES):
            sizes = [ask(k, [tag, family, "cases"]) for k in range(len(trees))]
            lines.append((tag, family, *sizes[-1]))
            calls = [ask(k, [tag, family, "calls"]) for k in range(len(trees))]
            best = {}
            for phase in ("compile", "build", "scalar", "screen"):
                for p in range(PASSES):
                    for k in list(range(len(trees)))[:: 1 if (r + i + p) % 2 == 0 else -1]:
                        got = ask(k, [tag, family, phase])
                        # each [us, faults] of its best pass, with that pass's faults
                        best[k, phase] = [min(pair) for pair in zip(best.get((k, phase), got), got)]
            for k in range(len(trees)):
                timed = [best[k, phase][0][0] for phase in ("compile", "build", "scalar")]
                (s33, _), (s257, f257), (l33, _), (l257, lf257) = best[k, "screen"]
                figures[k][tag, family] = [*timed, calls[k], s33, s257, f257, l33, l257, lf257]
    finally:
        for p in procs:
            p.communicate()  # closes its stdin, so it ends, and waits for it
    return lines, figures


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args()
    trees = [ROOT / "src"] if args.baseline is None else [args.baseline.resolve(), ROOT / "src"]
    # rounds[r][k][(tag, family)]: tree k's figures of a line in round r
    rounds = []
    for r in range(args.repeat):
        lines, figures = run_round(trees, r, args.count, args.seed)
        rounds.append(figures)
    print(f"cases per line {args.count}, seed {args.seed}, best of {PASSES} passes, "
          f"median of {args.repeat} rounds of fresh processes")
    if len(trees) == 2:
        print("each column: baseline / this tree = speed-up")
    print(f"{'theorem':10} {'family':10} {'functions':>9} {'fields':>6}  " + "  ".join(f"{c:>26}" for c in COLUMNS))
    # per tree: compile seconds over all functions, and scalar and screen
    # seconds summed over the lines (one mean call or screen per line, so each
    # line weighs the same)
    totals = [[0.0] * len(COLUMNS) for _ in trees]
    all_functions = 0
    for tag, family, n_functions, n_fields in lines:
        all_functions += n_functions
        cells = []
        for j in range(len(COLUMNS)):
            us = [statistics.median(figures[k][tag, family][j] for figures in rounds) for k in range(len(trees))]
            for k, u in enumerate(us):
                totals[k][j] += u * n_functions if j == 0 else u
            if len(us) == 2:
                cells.append(f"{us[0]:9.1f} / {us[1]:9.1f} = {ratio(us[0], us[1]):>4}")
            else:
                cells.append(f"{us[0]:26.1f}")
        print(f"{tag:10} {family:10} {n_functions:9d} {n_fields:6d}  " + "  ".join(cells))
    compile_us = [t[0] / all_functions for t in totals]
    print(f"compile, all {all_functions} functions: " + " / ".join(f"{u:.2f}" for u in compile_us) + " us")
    if len(trees) == 2:
        print(f"this tree's cost over the baseline's: compile {compile_us[1] / compile_us[0]:.3f}, " + ", ".join(
            f"{c} summed over lines {ratio(totals[1][j], totals[0][j], 3)}" for j, c in enumerate(COLUMNS) if j
        ))


def ratio(a: float, b: float, digits: int = 2) -> str:
    """``a / b`` to ``digits`` decimals, or "-" when ``b`` is 0 (a fault count may be)."""
    return f"{a / b:.{digits}f}" if b else "-"


if __name__ == "__main__":
    main()
