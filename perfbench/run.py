"""rectmvt benchmark: one workload per process, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every correctness and determinism check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
# no timed phase runs longer than this, whatever the program's speed
MAX_TIMED_S = 120.0
# share of cases, slowest first, timed a second time before the p99 is read;
# the calibration kernel runs before every RETIME_BATCH of them
RETIMED_SHARE = 0.03
RETIME_BATCH = 10
# fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 9
# cases re-run after timing to check that results are a function of the seed
DETERMINISM_CASES = 64
TALLY_COUNT = 200
TALLY_SEED = 42


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program(root: Path):
    """Import rectmvt from the checkout's ``src``, never from an installed copy."""
    package = root / "src" / "rectmvt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no rectmvt sources at {package}; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(HERE))
    import rectmvt

    if Path(rectmvt.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported rectmvt from {rectmvt.__file__}, not {package}")


class Run:
    """Records and per-case latencies of the cases run so far, in order."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.inputs: list = []
        self.records: list[tuple] = []
        self.latencies: list[float] = []
        self.block_s: list[float] = []  # seconds spent inside each block
        self.kernel_s: list[float] = []  # calibration kernel time before each block

    def block(self, start: int, stop: int) -> "Run":
        """Run cases ``start .. stop - 1``; ``start`` must begin an input cycle."""
        workload = self.workload
        workload.prepare(start, stop)
        workload.reset()
        began = perf_counter()
        for i in range(start, stop):
            inp = workload.next_input(i)
            if self.tracer is not None:
                self.tracer.case = i
            t0 = perf_counter()
            out = workload.call(inp)
            t1 = perf_counter()
            self.inputs.append(inp)
            self.latencies.append(t1 - t0)
            self.records.append(workload.record(i, inp, out))
        self.block_s.append(perf_counter() - began)
        return self

    @property
    def failed(self) -> int:
        return sum(self.workload.failed(r) for r in self.records)

    @property
    def cases_per_s(self) -> float:
        return len(self.records) / sum(self.block_s)

    def scaled(self) -> tuple[float, list[float]]:
        """Cases per second and per-case latencies on a host of nominal speed.

        Each block is scaled by the kernel time measured just before it.
        """
        from calibration import slowdown

        size = self.workload.block_cases
        factors = [slowdown([k]) for k in self.kernel_s]
        busy = sum(b / f for b, f in zip(self.block_s, factors))
        return len(self.records) / busy, [t / factors[i // size] for i, t in enumerate(self.latencies)]

    def retime_tail(self, latencies: list[float]) -> list[float]:
        """``latencies`` with the slowest ``RETIMED_SHARE`` of cases timed once more.

        A case keeps the faster of its two scaled timings.  Cases are
        deterministic, so a second timing can only remove delay the shared
        host added; without it, bursts of contention decided the p99.
        """
        from calibration import kernel, slowdown

        n = math.ceil(RETIMED_SHARE * len(latencies))
        slowest = sorted(range(len(latencies)), key=latencies.__getitem__)[-n:]
        out = list(latencies)
        for k, i in enumerate(slowest):
            if k % RETIME_BATCH == 0:
                factor = slowdown([kernel()])
            t0 = perf_counter()
            self.workload.call(self.inputs[i])
            out[i] = min(out[i], (perf_counter() - t0) / factor)
        return out


def timed(workload, seconds: float) -> Run:
    """Whole blocks until ``seconds`` have passed and ``workload.min_cases`` cases ran.

    The calibration kernel runs before every block, so the host's speed is
    sampled throughout the phase.
    """
    from calibration import kernel

    run = Run(workload)
    block = workload.block_cases
    start = perf_counter()
    i = 0
    while True:
        run.kernel_s.append(kernel())
        run.block(i, i + block)
        i += block
        elapsed = perf_counter() - start
        if (i >= workload.min_cases and elapsed >= seconds) or elapsed >= MAX_TIMED_S:
            return run


def setup(name: str, seed: int):
    """Build the workload and warm it up; returns it with a digest of the warm-up results."""
    from stats import digest
    from workloads import make_workload

    workload = make_workload(name, seed)
    warm = Run(workload).block(0, workload.warmup_cases)
    return workload, digest(warm.records)


def probe_setup(args, root: Path):
    """Median wall time of fresh processes that import, generate and warm up."""
    from stats import median

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    times, digests = [], set()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: setup probe failed:\n{proc.stderr}")
        digests.add(json.loads(proc.stdout.splitlines()[-1])["digest"])
    return median(times), digests


def determinism(workload, run: Run, seed: int) -> list[str]:
    """Same seed, same results; another seed, other inputs."""
    from stats import digest
    from workloads import make_workload

    n = min(DETERMINISM_CASES, len(run.records))
    again = Run(workload).block(0, n)
    problems = []
    if digest(again.records) != digest(run.records[:n]):
        problems.append(f"re-running the first {n} cases at seed {seed} changed their results")
    other = make_workload(workload.name, seed + 1)
    if digest(map(workload.describe, range(16))) == digest(map(other.describe, range(16))):
        problems.append(f"seeds {seed} and {seed + 1} generated the same inputs")
    return problems


def end_to_end(args, root: Path, workload, warm_digest: str):
    """Case timings are scaled to a host running the calibration kernel at its nominal speed."""
    from calibration import slowdown
    from stats import median, percentile

    setup_s, probe_digests = probe_setup(args, root)
    run = timed(workload, args.seconds)
    problems = workload.check(run.records)
    if probe_digests != {warm_digest}:
        problems.append("fresh processes produced other warm-up results than this one")
    problems += determinism(workload, run, args.seed)
    cases_per_s, latencies = run.scaled()
    latencies = run.retime_tail(latencies)
    n = len(run.records)
    # setup_s is not scaled: a probe's time does not follow the kernel's, so
    # scaling it only added the kernel's own variation
    slow = slowdown(run.kernel_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (cases_per_s, "1/s"),
        "case_ms_p50": (1e3 * median(latencies), "ms"),
        "case_ms_p99": (1e3 * percentile(latencies, 0.99), "ms"),
    }
    info = {
        "failed_frac": (run.failed / n, "ratio"),
        "rejected_pole_draws": (workload.rejected_draws, "count"),
        "cases": (n, "count"),
        "host_slowdown": (slow, "ratio"),
        "unscaled_cases_per_s": (run.cases_per_s, "1/s"),
        "unscaled_case_ms_p50": (1e3 * median(run.latencies), "ms"),
    }
    return run, metrics, info, problems


def tallies() -> dict:
    """The per-theorem ``sweep --count 200`` of the roadmap, untraced."""
    from cases import TAGS
    from rectmvt import family_from_name, harness

    m = {}
    for tag in TAGS:
        t0 = perf_counter()
        summary = harness.run_sweep(tag, family_from_name("poly4"), TALLY_COUNT, TALLY_SEED)
        m[f"harness.run_sweep_s.{tag}"] = (perf_counter() - t0, "s")
        m[f"harness.found.{tag}"] = (summary.found, "count")
        m[f"harness.degenerate.{tag}"] = (summary.degenerate, "count")
        m[f"harness.failed.{tag}"] = (summary.failed, "count")
        m[f"harness.max_found_ratio.{tag}"] = (summary.max_found_ratio, "ratio")
    return m


def per_layer(args, root: Path, workload):
    """Traced blocks alternate with untraced runs of the same cases."""
    from stats import digest
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = Run(workload), Run(workload, tracer)
    block = workload.block_cases
    for start in range(0, workload.trace_cases, block):
        plain.block(start, start + block)
        with tracer:
            traced.block(start, start + block)
    problems = workload.check(plain.records)
    if digest(traced.records) != digest(plain.records):
        problems.append("tracing changed the results")
    metrics = tracer.layer_metrics()
    metrics["cli.output_bytes"] = (workload.output_bytes(traced.records), "bytes")
    metrics["harness.rejected_pole_draws"] = (workload.rejected_draws, "count")
    metrics["trace.overhead_frac"] = (1.0 - traced.cases_per_s / plain.cases_per_s, "ratio")
    metrics.update(tallies())
    out = root / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{workload.name}-seed{args.seed}.json")
    info = {"failed_frac": (traced.failed / len(traced.records), "ratio"), "cases": (len(traced.records), "count")}
    return traced, metrics, info, problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    import_program(root)
    from workloads import WORKLOADS, BenchmarkBug

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        workload, warm_digest = setup(args.workload, args.seed)
        if args.setup_probe:
            print(json.dumps({"digest": warm_digest}))
            return 0
        if args.trace:
            run, metrics, info, problems = per_layer(args, root, workload)
        else:
            run, metrics, info, problems = end_to_end(args, root, workload, warm_digest)
    except BenchmarkBug as exc:
        print(f"benchmark bug: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"checks: {'passed' if not problems else f'{len(problems)} failed'}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(run.records),
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
