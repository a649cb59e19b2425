import subprocess
import sys

import pytest
from rectmvt import derive_seed, family_from_name, run_sweep

import run
from cases import poles_clear, quadratic_range, rebuild
from stats import digest
from workloads import BenchmarkBug, make_workload


def test_count1_sweep_loop_records_each_case():
    workload = make_workload("sweep-mixed", 5)
    phase = run.Run(workload).block(0, 14)
    assert len(phase.latencies) == len(phase.records) == 14
    assert all(t > 0 for t in phase.latencies)
    assert phase.block_s[0] >= sum(phase.latencies)
    for i, record in enumerate(phase.records):
        tag, family, master = workload.next_input(i)
        direct = run_sweep(tag, family_from_name(family), 1, master).cases[0]
        assert record[:3] == (i, tag, family)
        assert record[3:] == (direct.seed, direct.outcome, direct.xi1, direct.xi2, direct.residual, direct.scale)
    assert workload.check(phase.records) == []


def test_cases_with_a_pole_on_the_rectangle_are_redrawn():
    # a rolle case of sweep-mixed seed 307: 1.77 - 0.246 x^2 vanishes at x = 2.68
    workload = make_workload("sweep-mixed", 307)
    pole = rebuild("rolle", "rational", derive_seed(derive_seed(307, 4347), 0))
    assert not poles_clear(pole)
    assert quadratic_range(pole.f.left.right, pole.rect)[0] < 0.0 < quadratic_range(pole.f.left.right, pole.rect)[1]
    tag, family, master = workload.next_input(4347)
    assert (tag, family) == ("rolle", "rational")
    assert master != derive_seed(307, 4347)
    assert poles_clear(rebuild(tag, family, derive_seed(master, 0)))
    assert workload.rejected_draws == 1
    assert workload.next_input(4347)[2] == master and workload.rejected_draws == 1
    # draws whose denominators keep their distance are sent unchanged
    assert workload.next_input(1)[2] == derive_seed(307, 1)


def test_check_rejects_a_wrong_point():
    workload = make_workload("sweep-mixed", 5)
    records = run.Run(workload).block(0, 7).records
    found = next(r for r in records if r[4] == "found" and r[1] == "rmvt")
    i, tag, family, seed, outcome, xi1, xi2, residual, scale = found
    moved = (i, tag, family, seed, outcome, xi1, xi2 + 1e-3 * (1.0 + abs(xi2)), residual, scale)
    problems = workload.check([moved])
    assert any("tau*scale" in p for p in problems)
    assert any("finite-difference" in p for p in problems)


def test_same_seed_same_digest_other_seed_other_inputs():
    a = make_workload("cli-oneshot", 3)
    first = digest(run.Run(a).block(0, 8).records)
    assert digest(run.Run(make_workload("cli-oneshot", 3)).block(0, 8).records) == first
    assert digest(run.Run(a).block(0, 8).records) == first
    assert run.determinism(a, run.Run(a).block(0, 8), 3) == []
    assert a.describe(0) != make_workload("cli-oneshot", 4).describe(0)


def test_cli_checks_pass_and_catch_bad_output():
    workload = make_workload("cli-oneshot", 2)
    records = run.Run(workload).block(0, 4 * 7).records
    assert workload.check(records) == []
    assert workload.output_bytes(records) > 0
    parse_record = records[3]
    assert parse_record[1][0] == "parse"
    truncated = parse_record[:3] + (parse_record[3].split("\n", 1)[1],) + parse_record[4:]
    assert workload.check(records[:3] + [truncated])


def test_invalid_cli_input_is_a_benchmark_bug():
    workload = make_workload("cli-oneshot", 2)
    argv = ["locate", "--theorem", "rmvt", "--f", "x^", "--rect", "0,1,0,1"]
    with pytest.raises(BenchmarkBug):
        workload.record(0, argv, workload.call(argv))


def test_runs_fail_without_program_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "sweep-mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
