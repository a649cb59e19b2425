import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
from calibration import NOMINAL_S

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def test_scaling_uses_the_kernel_time_before_each_block():
    r = run.Run(SimpleNamespace(block_cases=2))
    r.records = [()] * 4
    r.latencies = [0.2, 0.4, 0.1, 0.1]
    r.block_s = [0.6, 0.2]
    r.kernel_s = [2 * NOMINAL_S, NOMINAL_S]  # the host ran at half speed during block 0
    cases_per_s, latencies = r.scaled()
    assert latencies == pytest.approx([0.1, 0.2, 0.1, 0.1])
    assert cases_per_s == pytest.approx(4 / (0.3 + 0.2))


def test_retiming_keeps_the_faster_timing_of_the_slowest_cases():
    calls = []
    r = run.Run(SimpleNamespace(block_cases=100, call=calls.append))
    r.inputs = list(range(100))
    latencies = [0.001] * 99 + [5.0]  # a case delayed by the host, not by its work
    out = r.retime_tail(latencies)
    assert sorted(calls) == [97, 98, 99]  # ceil(3% of 100) slowest, ties by index
    assert out[:97] == latencies[:97]
    assert out[99] < 1.0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_every_metric_of_the_spec(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-mixed", "--seed", "9", "--seconds", "0", "--trace", trace],
        cwd=run.HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_spec_names_the_benchmark_workloads():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
