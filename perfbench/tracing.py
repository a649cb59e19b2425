"""Spans around calls into each rectmvt module, recorded from the benchmark's side.

A :class:`Tracer` replaces module attributes (``rectmvt.theorems.eval_hyperdual``,
the ``*_residual`` builders, ``locate``, ``parse`` ...) with wrappers that record
a span per call, and wraps the ``residual`` callable of every field a builder
returns.  The program's code is unchanged; only the names its modules look up
at call time are rebound, and :meth:`Tracer.restore` puts them back.  Spans
live in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from stats import median

BUILDERS = (
    "rect_rolle_residual",
    "rect_mvt_residual",
    "rect_cauchy_residual",
    "pompeiu2d_residual",
    "boggio2d_residual",
    "pompeiu1d_residual",
    "boggio1d_residual",
)
METHODS = ("grid-hit", "sign-change-bisection", "minimization")
OUTCOMES = ("found", "degenerate", "failed")


class Tracer:
    """In-memory spans: ``[name_id, start, end, parent_index, case_id]``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack = [-1]
        self.case = -1
        self.grid_samples = 0
        self.reports: list[tuple] = []  # (locate span index, LocateReport)
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, *args, **kwargs):
        index = len(self.spans)
        span = [nid, 0.0, 0.0, self._stack[-1], self.case]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    # -- wrappers --------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(original))
        self._patches.append((module, attr, original))

    def _plain(self, name: str):
        nid = self.name_id(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(nid, fn, *args, **kwargs)

            return wrapper

        return make

    def _by_shape(self, name: str):
        """Separate spans for scalar and array calls of ``fn(expr, x, ...)``."""
        scalar, array = self.name_id(name + ".scalar"), self.name_id(name + ".array")

        def make(fn):
            def wrapper(*args, **kwargs):
                nid = array if isinstance(args[1], np.ndarray) else scalar
                return self.call(nid, fn, *args, **kwargs)

            return wrapper

        return make

    def wrap_field(self, field):
        """Copy of ``field`` whose residual records scalar and grid calls apart.

        A grid call counts the samples it evaluates: the broadcast size of its
        arguments, so a 1-D field screened on n points counts n.
        """
        fn = field.residual
        scalar = self.name_id("theorems.residual.scalar")
        grid = self.name_id("theorems.residual.grid")

        def residual(*args):
            if not isinstance(args[0], np.ndarray):
                return self.call(scalar, fn, *args)
            self.grid_samples += np.broadcast(*args).size
            return self.call(grid, fn, *args)

        return dataclasses.replace(field, residual=residual)

    def _builder(self):
        nid = self.name_id("theorems.build")

        def make(fn):
            def wrapper(*args, **kwargs):
                return self.wrap_field(self.call(nid, fn, *args, **kwargs))

            return wrapper

        return make

    def _locate(self):
        nid = self.name_id("locator.locate")

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                report = self.call(nid, fn, *args, **kwargs)
                self.reports.append((index, report))
                return report

            return wrapper

        return make

    def install(self) -> "Tracer":
        import rectmvt.cli as cli
        import rectmvt.harness as harness
        import rectmvt.theorems as theorems

        self._patch(cli, "main", self._plain("cli.main"))
        self._patch(cli, "parse", self._plain("expr.parse"))
        for module in (theorems, harness):
            self._patch(module, "evaluate", self._plain("expr.evaluate"))
        for module in (theorems, cli):
            self._patch(module, "eval_hyperdual", self._by_shape("hyperdual.eval_hyperdual"))
        self._patch(theorems, "eval_dual", self._by_shape("hyperdual.eval_dual"))
        self._patch(cli, "finite_difference_oracle", self._plain("hyperdual.finite_difference_oracle"))
        for module in (harness, cli):
            for name in BUILDERS:
                self._patch(module, name, self._builder())
            for name in ("locate", "locate_line"):
                self._patch(module, name, self._locate())
        self._patch(cli, "verify_at", self._plain("locator.verify_at"))
        for name in ("generate_rectangle", "generate_function"):
            self._patch(harness, name, self._plain("harness.generate"))
        self._patch(harness, "run_sweep", self._plain("harness.run_sweep"))
        if self.missing:
            print(f"trace: not found, so not traced: {', '.join(self.missing)}", file=sys.stderr)
        return self

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "case"], "spans": self.spans}, handle)

    # -- per-layer figures -------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times from the recorded spans.

        Times are inclusive of child spans unless named ``self_s``; a span's
        self time is its duration minus the durations of its children.
        """
        n = len(self.spans)
        duration = [end - start for _, start, end, _, _ in self.spans]
        child_time = [0.0] * n
        for (_, _, _, parent, _), d in zip(self.spans, duration):
            if parent >= 0:
                child_time[parent] += d
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i, (nid, _, _, _, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            total[name] += duration[i]
            own[name] += duration[i] - child_time[i]

        locate = self._ids.get("locator.locate")
        scalar = self._ids.get("theorems.residual.scalar")
        per_locate: defaultdict = defaultdict(int)
        for nid, _, _, parent, _ in self.spans:
            if nid == scalar and parent >= 0 and self.spans[parent][0] == locate:
                per_locate[parent] += 1
        scalar_per_case = [per_locate[index] for index, _ in self.reports] or [0]

        methods: Counter = Counter()
        outcomes: Counter = Counter()
        refined = evaluations = sign_cases = bisected = 0
        for _, report in self.reports:
            outcome = "degenerate" if report.outcome.startswith("degenerate") else report.outcome
            outcomes[outcome] += 1
            if report.point is not None and outcome == "found":
                methods[report.point.method] += 1
            diag = report.diagnostics
            refined += getattr(diag, "level", 0) > 0
            evaluations += getattr(diag, "evaluations", 0)
            if getattr(diag, "sign_cells", None) is not None:
                sign_cases += 1
                bisected += outcome == "found" and report.point.method == "sign-change-bisection"

        scalar_calls = calls["theorems.residual.scalar"]
        grid_s = total["theorems.residual.grid"]
        m = {
            "theorems.residual_scalar_calls": (scalar_calls, "count"),
            "theorems.residual_scalar_s": (total["theorems.residual.scalar"], "s"),
            "theorems.residual_scalar_us_mean": (
                1e6 * total["theorems.residual.scalar"] / scalar_calls if scalar_calls else 0.0,
                "us",
            ),
            "theorems.residual_grid_calls": (calls["theorems.residual.grid"], "count"),
            "theorems.residual_grid_samples": (self.grid_samples, "count"),
            "theorems.residual_grid_s": (grid_s, "s"),
            "theorems.residual_grid_ns_per_sample": (
                1e9 * grid_s / self.grid_samples if self.grid_samples else 0.0,
                "ns",
            ),
            "theorems.build_calls": (calls["theorems.build"], "count"),
            "theorems.build_s": (total["theorems.build"], "s"),
        }
        for fn in ("eval_hyperdual", "eval_dual"):
            for shape in ("scalar", "array"):
                key = f"hyperdual.{fn}.{shape}"
                m[f"hyperdual.{fn}_{shape}_calls"] = (calls[key], "count")
                m[f"hyperdual.{fn}_{shape}_s"] = (total[key], "s")
        m.update(
            {
                "locator.locate_calls": (calls["locator.locate"], "count"),
                "locator.locate_s": (total["locator.locate"], "s"),
                "locator.self_s": (own["locator.locate"], "s"),
                "locator.scalar_evals_per_case_p50": (median(scalar_per_case), "count"),
                "locator.scalar_evals_per_case_max": (max(scalar_per_case), "count"),
                "locator.evaluations_reported": (evaluations, "count"),
                "locator.refined_cases": (refined, "count"),
                "locator.bisect_success_ratio": (bisected / sign_cases if sign_cases else 0.0, "ratio"),
            }
        )
        for method in METHODS:
            m[f"locator.method.{method}"] = (methods[method], "count")
        for outcome in OUTCOMES:
            m[f"locator.outcome.{outcome}"] = (outcomes[outcome], "count")
        m.update(
            {
                "expr.parse_calls": (calls["expr.parse"], "count"),
                "expr.parse_s": (total["expr.parse"], "s"),
                "expr.evaluate_calls": (calls["expr.evaluate"], "count"),
                "expr.evaluate_s": (total["expr.evaluate"], "s"),
                "harness.generate_s": (total["harness.generate"], "s"),
                "harness.self_s": (own["harness.run_sweep"], "s"),
                "cli.main_s": (total["cli.main"], "s"),
                "cli.self_s": (own["cli.main"], "s"),
                "trace.spans": (n, "count"),
            }
        )
        return m
