"""Time compiling residual programs, calling them on scalars and screening
residual grids on the cases ``run_sweep`` generates, for each theorem and family.

    python3 tests/screen_speed.py [--count 40] [--seed 42] [--repeat 3] [--baseline DIR]

For each theorem and each of the families poly4, bilinear, separable,
exp-poly and rational, the first ``--count`` sweep cases of ``--seed`` are
built as ``run_sweep`` builds them.  The script prints, per (theorem,
family), the microseconds ``compile_hyperdual`` takes per function (f, and g
where the theorem has one, compiled for the components its residual reads),
the microseconds one scalar residual call takes at the cell centers
``locate`` brackets first on its level-0 grid (the sample of least |R| and the
two extreme samples), and the microseconds one grid screen takes on the
cell-center grid ``locate`` samples, n x n on a rectangle and n points on an
interval, for n = 33 and n = 257.  A screen is ``locator._grid_values``, as
``locate`` runs it: every level is evaluated band by band of rows into one
level array, and an interval or a level no taller than one band is one band.
Next to the n = 257 time, ``faults257`` is the number of minor page faults
(``resource.getrusage``'s ``ru_minflt``) one such screen takes, counted over
the pass whose time is best.  ``locate257_us`` and ``locate_faults257`` are
the same two figures for the whole ``locate`` call at ``grid_n=257,
max_refinements=1`` (``screen-fine``'s config): the screen reduces each band
to the level's extremes and its sample nearest zero as it goes, so only the
whole call compares trees whose screens share that work differently.  Each
figure is the best of ``--repeat`` passes over all the cases.

With ``--baseline DIR``, DIR is the ``src`` directory of another checkout:
its ``rectmvt`` is loaded under another name in this same process, the two
take turns in every pass, so that a slow spell of the host falls on both,
and each line shows the baseline's figure, this tree's and their ratio.  The two
trees then share one heap, so either's page faults depend on what the other
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
        for tag_, f, g, bounds in calls:
            try:
                field = real(tag_, f, g, bounds)
            except Exception:  # a degenerate or violated case: its functions still compile
                field = None
            out.append(((f,) if g is None else (f, g), field))
        return out

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

    def locate_all(self, fields) -> tuple[float, int]:
        """Seconds and minor page faults of one ``locate`` of each field at
        ``screen-fine``'s config; a failed search costs its time too."""
        locate = self.locator.locate
        cfg = self.locator.LocateConfig(grid_n=LOCATE_N, max_refinements=1)
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


def measure(trees, tag: str, family: str, repeat: int):
    """Best per-function compile, per-call scalar and per-screen seconds of
    each tree, then the minor page faults per screen of its best largest-n
    pass, then the best per-call ``locate`` seconds and that pass's faults."""
    cases = [tree.cases(tag, family) for tree in trees]
    functions = [[f for fs, _ in c for f in fs] for c in cases]
    fields = [[field for _, field in c if field is not None] for c in cases]
    points = [tree.bracket_points(f) for tree, f in zip(trees, fields)]
    best = [[float("inf")] * (5 + len(SCREEN_N)) for _ in trees]
    # all compile and scalar passes first, so that no large grid just screened slows them
    for _ in range(repeat):
        for k, tree in enumerate(trees):
            best[k][0] = min(best[k][0], tree.compile_all(tag, functions[k]) / len(functions[k]))
    for _ in range(repeat):
        for k, tree in enumerate(trees):
            per = tree.scalar_all(points[k]) / max(len(points[k]), 1)
            best[k][1] = min(best[k][1], per)
    for _ in range(repeat):
        for k, tree in enumerate(trees):
            for j, n in enumerate(SCREEN_N, 2):
                elapsed, faults = tree.screen_all(fields[k], n)
                per = elapsed / max(len(fields[k]), 1)
                if per < best[k][j]:
                    best[k][j] = per
                    if n == SCREEN_N[-1]:
                        best[k][j + 1] = faults / max(len(fields[k]), 1)
            elapsed, faults = tree.locate_all(fields[k])
            per = elapsed / max(len(fields[k]), 1)
            if per < best[k][-2]:
                best[k][-2:] = per, faults / max(len(fields[k]), 1)
    return best, len(functions[-1]), len(fields[-1])


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
    columns = ["compile_us", "scalar_us"] + [f"screen{n}_us" for n in SCREEN_N] + [f"faults{SCREEN_N[-1]}"]
    columns += [f"locate{LOCATE_N}_us", f"locate_faults{LOCATE_N}"]
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
                us = [b[j] if "faults" in column else 1e6 * b[j] for b in best]
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
