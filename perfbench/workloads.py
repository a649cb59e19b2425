"""The benchmark's workloads: seeded inputs, one timed program call per case, checks.

Each workload is a closed loop with one client: case ``i + 1`` is sent only
after case ``i`` has returned.  Inputs are a pure function of the benchmark
seed and the case index (the CLI's ``verify`` also reads the point its
preceding ``locate`` returned), so two runs at one seed send identical cases.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from rectmvt import (
    DegenerateError,
    DomainError,
    EvaluationError,
    HypothesisError,
    LocateConfig,
    cli,
    derive_seed,
    family_from_name,
    harness,
    pretty_print,
)

from cases import (
    FAMILIES,
    ONE_DIM,
    TAGS,
    TAGS_2D,
    all_finite,
    build_field,
    check_point,
    family_for,
    gradcheck_bound,
    node_count,
    poles_clear,
    rebuild,
)

BUILD_ERRORS = (DegenerateError, DomainError, HypothesisError, EvaluationError)


class BenchmarkBug(Exception):
    """The benchmark sent the program an invalid input (CLI exit code 2)."""


def _text(x: float) -> str:
    return repr(float(x))


def first_clear(candidate: int, clear) -> tuple[int, int]:
    """``candidate``, or the first seed derived from it that ``clear`` accepts; and how many were rejected.

    The rational family can draw a denominator with a zero on the rectangle
    (see ``cases.poles_clear``).  Such a case lies outside every theorem's
    hypotheses, so the workloads replace it by a seeded redraw.
    """
    seed, rejected = candidate, 0
    while not clear(seed):
        rejected += 1
        seed = derive_seed(candidate, rejected)
    return seed, rejected


class SweepWorkload:
    """Count-1 ``run_sweep`` calls, the public per-case entry of the harness.

    Tags rotate case by case and families once per tag cycle; the 1-D tags
    ignore the family.
    """

    def __init__(self, name: str, seed: int, tags: tuple[str, ...], cfg: LocateConfig):
        self.name = name
        self.seed = seed
        self.tags = tags
        self.cfg = cfg
        self.families = {n: family_from_name(n) for n in FAMILIES}
        self.warmup_cases = len(FAMILIES) * len(tags)
        self.block_cases = CYCLES_PER_BLOCK[name] * self.warmup_cases
        self.trace_cases = TRACE_BLOCKS * self.block_cases
        self.min_cases = MIN_CASES[name]
        self.rejected_draws = 0
        self._masters: dict[int, int] = {}

    def reset(self) -> None:
        pass

    def prepare(self, start: int, stop: int) -> None:
        """Draw the inputs of cases ``start .. stop - 1`` ahead of timing them."""
        for i in range(start, stop):
            self.next_input(i)

    def next_input(self, i: int):
        tag = self.tags[i % len(self.tags)]
        family = family_for(i, len(self.tags))
        if i not in self._masters:

            def clear(master: int) -> bool:
                if family != "rational" or tag in ONE_DIM:
                    return True
                return poles_clear(rebuild(tag, family, derive_seed(master, 0)))

            self._masters[i], rejected = first_clear(derive_seed(self.seed, i), clear)
            self.rejected_draws += rejected
        return tag, family, self._masters[i]

    def call(self, inp):
        tag, family, master = inp
        return harness.run_sweep(tag, self.families[family], 1, master, self.cfg)

    def record(self, i: int, inp, summary) -> tuple:
        c = summary.cases[0]
        return (i, inp[0], inp[1], c.seed, c.outcome, c.xi1, c.xi2, c.residual, c.scale)

    @staticmethod
    def failed(record: tuple) -> bool:
        return record[4] == "failed"

    def describe(self, i: int) -> tuple:
        tag, family, master = self.next_input(i)
        case = rebuild(tag, family, derive_seed(master, 0))
        return tag, pretty_print(case.f), case.g and pretty_print(case.g), case.rect

    def output_bytes(self, records) -> int:
        return 0

    def check(self, records) -> list[str]:
        problems: list[str] = []
        for i, tag, family, case_seed, outcome, xi1, xi2, _residual, scale in records:
            case = rebuild(tag, family, case_seed)
            try:
                field = build_field(case)
            except BUILD_ERRORS as exc:
                if outcome != "failed":
                    problems.append(f"case {i}: {outcome} but rebuilding the field raised {exc!r}")
                continue
            problems += [f"case {i}: {p}" for p in check_point(case, field, outcome, xi1, xi2, scale)]
        return problems


class CliWorkload:
    """In-process ``rectmvt.cli.main(argv)`` calls with stdout captured.

    Cases come in groups of four on one generated function: ``locate``,
    ``verify`` at the point just returned, ``grad-check`` and ``parse``.
    Groups rotate over all seven theorems.
    """

    COMMANDS = ("locate", "verify", "grad-check", "parse")

    def __init__(self, seed: int):
        self.name = "cli-oneshot"
        self.seed = seed
        self.warmup_cases = len(self.COMMANDS) * len(TAGS)
        self.block_cases = CYCLES_PER_BLOCK[self.name] * self.warmup_cases
        self.trace_cases = TRACE_BLOCKS * self.block_cases
        self.min_cases = MIN_CASES[self.name]
        self.rejected_draws = 0
        self._case_seeds: dict[int, int] = {}
        self._group: tuple = (-1, None)
        self._point = None

    def reset(self) -> None:
        self._point = None

    def prepare(self, start: int, stop: int) -> None:
        pass

    def group(self, g: int) -> dict:
        """Seeded case of group ``g`` and the argument text the CLI receives for it."""
        if self._group[0] != g:
            tag = TAGS[g % len(TAGS)]
            family = family_for(g, len(TAGS))
            if g not in self._case_seeds:
                self._case_seeds[g], rejected = first_clear(
                    derive_seed(self.seed, g), lambda s: poles_clear(rebuild(tag, family, s))
                )
                self.rejected_draws += rejected
            case_seed = self._case_seeds[g]
            case = rebuild(tag, family, case_seed)
            r = case.rect
            bounds = (r.x1, r.x2) if tag in ONE_DIM else (r.x1, r.x2, r.y1, r.y2)
            rng = random.Random(derive_seed(case_seed, 7))
            at = (r.x1 + rng.random() * r.width, r.y1 + rng.random() * r.height)
            theorem = ["--theorem", tag, "--f", pretty_print(case.f)]
            if case.g is not None:
                theorem += ["--g", pretty_print(case.g)]
            theorem += ["--rect", ",".join(map(_text, bounds))]
            self._group = (g, {"case": case, "theorem": theorem, "at": at, "center": r.center})
        return self._group[1]

    def next_input(self, i: int) -> list[str]:
        g, slot = divmod(i, len(self.COMMANDS))
        grp = self.group(g)
        command = self.COMMANDS[slot]
        if command == "locate":
            return ["locate"] + grp["theorem"]
        if command == "verify":
            point = self._point or grp["center"]
            if grp["case"].tag in ONE_DIM:
                point = point[:1]
            return ["verify"] + grp["theorem"] + ["--point", ",".join(map(_text, point))]
        f_text = grp["theorem"][3]
        if command == "grad-check":
            return ["grad-check", "--f", f_text, "--at", ",".join(map(_text, grp["at"]))]
        return ["parse", "--f", f_text]

    def call(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def record(self, i: int, argv: list[str], result) -> tuple:
        code, out, err = result
        if code == 2:
            raise BenchmarkBug(f"exit code 2 for {argv!r}: {err.strip()}")
        if argv[0] == "locate":
            self._point = None
            try:
                point = json.loads(out)["point"] if code == 0 else None
            except json.JSONDecodeError:
                point = None  # reported by check()
            if point:
                self._point = (point["xi"],) if "xi" in point else (point["xi1"], point["xi2"])
        return (i, tuple(argv), code, out, err)

    @staticmethod
    def failed(record: tuple) -> bool:
        return record[2] in (1, 3)

    def describe(self, i: int) -> tuple:
        return tuple(self.group(i // len(self.COMMANDS))["theorem"])

    def output_bytes(self, records) -> int:
        return sum(len(r[3].encode()) for r in records)

    def check(self, records) -> list[str]:
        problems: list[str] = []
        located = None
        for i, argv, code, out, _err in records:
            case = self.group(i // len(self.COMMANDS))["case"]
            command = argv[0]
            if code != 0:
                located = None
                continue
            try:
                doc = None if command == "parse" else json.loads(out)
            except json.JSONDecodeError:
                problems.append(f"case {i}: {command} output is not JSON")
                continue
            if command == "locate":
                located = doc["outcome"]
                point = doc["point"]
                xi1 = point.get("xi", point.get("xi1"))
                xi2 = point.get("xi2")
                outcome = "degenerate" if located.startswith("degenerate") else located
                field = build_field(case)
                problems += [
                    f"case {i}: {p}" for p in check_point(case, field, outcome, xi1, xi2, doc["scale"])
                ]
            elif command == "verify":
                if located == "found" and doc["within_tolerance"] is not True:
                    problems.append(f"case {i}: verify after a found locate is not within tolerance")
            elif command == "grad-check":
                values = list(doc["hyperdual"].values()) + list(doc["finite_difference"].values())
                bound = gradcheck_bound(case.f, *doc["at"])
                if not all_finite(values) or not doc["max_rel_error"] <= bound:
                    problems.append(f"case {i}: grad-check error {doc['max_rel_error']!r} exceeds {bound!r}")
            elif len(out.splitlines()) != node_count(case.f):
                problems.append(f"case {i}: parse printed {len(out.splitlines())} nodes, expected {node_count(case.f)}")
        return problems


# a block is this many input cycles, about 0.3 s of work; the calibration
# kernel runs between blocks, and a traced run takes TRACE_BLOCKS blocks
CYCLES_PER_BLOCK = {"sweep-mixed": 4, "screen-fine": 1, "cli-oneshot": 4}
TRACE_BLOCKS = 5
# fewest cases in a timed phase.  A p99 needs 1,000 (10 samples beyond it).
# The p99 of screen-fine falls inside its costliest (theorem, family) pair,
# 1 case in 25; 3,000 cases hold 120 of those, which steadies it over seeds.
MIN_CASES = {"sweep-mixed": 1000, "screen-fine": 3000, "cli-oneshot": 1000}
WORKLOADS = tuple(CYCLES_PER_BLOCK)


def make_workload(name: str, seed: int):
    if name == "sweep-mixed":
        return SweepWorkload(name, seed, TAGS, LocateConfig())
    if name == "screen-fine":
        # one refinement at most: no case of the workload refines, but a case
        # that did would screen 4112^2 samples and hold 2.4 GB after four
        # doublings of a 257 grid
        return SweepWorkload(name, seed, TAGS_2D, LocateConfig(grid_n=257, max_refinements=1))
    if name == "cli-oneshot":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
