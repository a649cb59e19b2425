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
whole call compares trees whose screens share that work differently.  Each
figure is the best of ``--repeat`` passes over all the cases.

With ``--baseline DIR``, DIR is the ``src`` directory of another checkout:
its ``rectmvt`` is loaded under another name in this same process, the two
take turns in every pass, so that a slow spell of the host falls on both, and
which of them goes first alternates from pass to pass, so that neither always
runs on what the other just left in the heap and caches.  Each line shows the
baseline's figure, this tree's and their ratio.  The two trees then share one
heap, so either's page faults depend on what the other
allocated: compare fault counts of runs without ``--baseline``.
A last line gives the mean compile time over all functions and this tree's
cost over the baseline's.
"""

import argparse
import importlib
import importlib.util
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

FAMILIES = ("poly4", "bilinear", "separable", "exp-poly", "rational")
SCREEN_N = (33, 257)
LOCATE_N = 257  # the grid_n of the benchmark's screen-fine workload
GRID_N = 33  # LocateConfig's default grid_n: the level-0 grid of locate
SCALAR_ROUNDS = 20  # scalar calls per point in one pass, which then lasts milliseconds


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


class Tree:
    """One checkout's modules and its cases, built with its own code."""

    def __init__(self, name: str, count: int, seed: int):
        self.harness = importlib.import_module(f"{name}.harness")
        self.hyperdual = importlib.import_module(f"{name}.hyperdual")
        self.locator = importlib.import_module(f"{name}.locator")
        self.theorems = importlib.import_module(f"{name}.theorems")
        self.count, self.seed = count, seed

    def cases(self, tag: str, family: str):
        """``(functions, field)`` of the first sweep cases; ``_build_case``
        calls ``build_field`` with f, g and the bounds, so they are caught there."""
        h = self.harness
        theorem, fam = h._theorem(tag), h.family_from_name(family)
        calls = []
        real = h.build_field
        h.build_field = lambda *args: calls.append(args)
        try:
            for i in range(self.count):
                h._build_case(theorem, fam, h.derive_seed(self.seed, i))
        finally:
            h.build_field = real
        out = []
        for args in calls:
            try:
                field = real(*args)
            except Exception:  # a degenerate or violated case: its functions still compile
                field = None
            f, g = args[1:3]
            out.append(((f,) if g is None else (f, g), field, args))
        return out

    def build_all(self, calls) -> float:
        """Seconds of ``build_field`` over the recorded calls; a call that
        raises costs its time too."""
        build_field = self.harness.build_field
        start = perf_counter()
        for args in calls:
            try:
                build_field(*args)
            except Exception:
                pass
        return perf_counter() - start

    def compile_all(self, tag: str, functions) -> float:
        reads = getattr(self.theorems.THEOREMS[tag], "reads", None)
        compile_hyperdual = self.hyperdual.compile_hyperdual
        start = perf_counter()
        if reads is None:
            for f in functions:
                compile_hyperdual(f)
        else:
            for f in functions:
                compile_hyperdual(f, reads)
        return perf_counter() - start

    def bracket_points(self, fields):
        """``(field, point)`` for each cell center ``locate`` evaluates first on
        the level-0 grid of each field whose grid evaluates: the sample of
        least |R| and the most negative and most positive samples."""
        locator = self.locator
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

    def scalar_all(self, points) -> float:
        scalar_residual = self.locator._scalar_residual
        start = perf_counter()
        for _ in range(SCALAR_ROUNDS):
            for field, p in points:
                try:
                    scalar_residual(field, p)
                except Exception:  # a raising call costs its time too
                    pass
        return (perf_counter() - start) / SCALAR_ROUNDS

    def scalar_calls(self, points) -> int:
        """Python-level calls made by one scalar residual call at each point."""
        scalar_residual = self.locator._scalar_residual
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            for field, p in points:
                try:
                    scalar_residual(field, p)
                except Exception:  # a raising call counts its calls too
                    pass
        finally:
            sys.setprofile(None)
        return calls

    def screen_all(self, fields, n: int) -> tuple[float, int]:
        """Seconds and minor page faults of one grid screen of each field."""
        grid_values = self.locator._grid_values
        elapsed = 0.0
        faults = 0
        for field in fields:
            centres = centres_of(field, n)
            before = minor_faults()
            start = perf_counter()
            grid_values(field, centres)
            elapsed += perf_counter() - start
            faults += minor_faults() - before
        return elapsed, faults

    def locate_all(self, fields, cfg=None) -> tuple[float, int]:
        """Seconds and minor page faults of one ``locate`` of each field at
        ``cfg``, by default ``screen-fine``'s config; a failed search costs its
        time too."""
        locate = self.locator.locate
        cfg = cfg or self.locator.LocateConfig(grid_n=LOCATE_N, max_refinements=1)
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


def turns(trees, p: int):
    """``(k, tree)`` for each tree, in the order of pass p: the first tree
    goes first in even passes and last in odd ones."""
    order = list(enumerate(trees))
    return order if p % 2 == 0 else order[::-1]


# the figures of each line, in the order they are printed
COLUMNS = (
    "compile_us", "build_us", "scalar_us", "scalar_calls", *(f"screen{n}_us" for n in SCREEN_N),
    f"faults{SCREEN_N[-1]}", f"locate{GRID_N}_us", f"locate{LOCATE_N}_us", f"locate_faults{LOCATE_N}",
)


def measure(trees, tag: str, family: str, repeat: int):
    """Per tree, a dict of the best per-function compile, per-case build and
    per-call scalar seconds, its Python calls per scalar call, its best
    per-screen seconds and the minor page faults per screen of its best
    largest-n pass, and the best per-call ``locate`` seconds at both configs,
    with the faults of the best pass at ``screen-fine``'s."""
    cases = [tree.cases(tag, family) for tree in trees]
    functions = [[f for fs, _, _ in c for f in fs] for c in cases]
    builds = [[args for _, _, args in c] for c in cases]
    fields = [[field for _, field, _ in c if field is not None] for c in cases]
    points = [tree.bracket_points(f) for tree, f in zip(trees, fields)]
    best = [dict.fromkeys(COLUMNS, float("inf")) for _ in trees]

    def per(total: float, items: list) -> float:
        return total / max(len(items), 1)

    # all compile, build and scalar passes first, so that no large grid just
    # screened slows them
    for p in range(repeat):
        for k, tree in turns(trees, p):
            compile_s = per(tree.compile_all(tag, functions[k]), functions[k])
            best[k]["compile_us"] = min(best[k]["compile_us"], compile_s)
    for p in range(repeat):
        for k, tree in turns(trees, p):
            best[k]["build_us"] = min(best[k]["build_us"], per(tree.build_all(builds[k]), builds[k]))
    for p in range(repeat):
        for k, tree in turns(trees, p):
            best[k]["scalar_us"] = min(best[k]["scalar_us"], per(tree.scalar_all(points[k]), points[k]))
    for k, tree in enumerate(trees):
        best[k]["scalar_calls"] = per(tree.scalar_calls(points[k]), points[k])
    for p in range(repeat):
        for k, tree in turns(trees, p):
            b = best[k]
            for n in SCREEN_N:
                elapsed, faults = tree.screen_all(fields[k], n)
                if per(elapsed, fields[k]) < b[f"screen{n}_us"]:
                    b[f"screen{n}_us"] = per(elapsed, fields[k])
                    if n == SCREEN_N[-1]:
                        b[f"faults{n}"] = per(faults, fields[k])
            elapsed, _ = tree.locate_all(fields[k], tree.locator.LocateConfig())
            b[f"locate{GRID_N}_us"] = min(b[f"locate{GRID_N}_us"], per(elapsed, fields[k]))
            elapsed, faults = tree.locate_all(fields[k])
            if per(elapsed, fields[k]) < b[f"locate{LOCATE_N}_us"]:
                b[f"locate{LOCATE_N}_us"] = per(elapsed, fields[k])
                b[f"locate_faults{LOCATE_N}"] = per(faults, fields[k])
    return [[b[c] for c in COLUMNS] for b in best], len(functions[-1]), len(fields[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args()
    importlib.import_module("rectmvt")
    trees = []
    if args.baseline is not None:
        load(args.baseline.resolve(), "baseline_rectmvt")
        trees.append(Tree("baseline_rectmvt", args.count, args.seed))
    trees.append(Tree("rectmvt", args.count, args.seed))
    columns = COLUMNS
    print(f"cases per line {args.count}, seed {args.seed}, best of {args.repeat}")
    if len(trees) == 2:
        print("each column: baseline / this tree = speed-up")
    print(f"{'theorem':10} {'family':10} {'functions':>9} {'fields':>6}  " + "  ".join(f"{c:>26}" for c in columns))
    # per tree: compile seconds over all functions, and scalar and screen
    # seconds summed over the lines (one mean call or screen per line, so each
    # line weighs the same)
    totals = [[0.0] * len(columns) for _ in trees]
    all_functions = 0
    for tag in trees[-1].theorems.THEOREMS:
        for family in FAMILIES:
            best, n_functions, n_fields = measure(trees, tag, family, args.repeat)
            all_functions += n_functions
            cells = []
            for j, column in enumerate(columns):
                us = [1e6 * b[j] if column.endswith("_us") else b[j] for b in best]
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
            f"{c} summed over lines {ratio(totals[1][j], totals[0][j], 3)}" for j, c in enumerate(columns) if j
        ))


def ratio(a: float, b: float, digits: int = 2) -> str:
    """``a / b`` to ``digits`` decimals, or "-" when ``b`` is 0 (a fault count may be)."""
    return f"{a / b:.{digits}f}" if b else "-"


if __name__ == "__main__":
    main()
