"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from cmgiant import components  # noqa: E402

SCALE = 0.02  # graph sizes and sample counts relative to the benchmark's

@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, scale=SCALE)
    section = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.declared_units(section)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_a_statistic_out_of_tolerance_counts_as_failed():
    real = components.giant_statistics

    def halved_giant(cs, n):
        stats = real(cs, n)
        return dataclasses.replace(stats, gmax_frac=stats.gmax_frac / 2)

    with tracing.rebound(real, halved_giant):
        result = run.run("graph_core", seed=3, seconds=0, trace=True, scale=SCALE)
    # one untraced and one traced set, each with a giant and a truncation job
    assert result["attempted"] == 4
    assert result["failed"] == 4
    assert not result["correct"]


def test_reference_speed_cancels_a_uniform_slowdown():
    # a machine 1.4 times slower stretches the set and its references alike
    assert run.at_reference_speed(1.4 * 3.0, 1.4 * 0.11, 1.4 * 0.13) == pytest.approx(
        run.at_reference_speed(3.0, 0.11, 0.13)
    )
    assert run.at_reference_speed(3.0, run.REFERENCE_S, run.REFERENCE_S) == pytest.approx(3.0)


def test_self_times_sum_to_each_root_span(tmp_path):
    jobs = workloads.explore(SCALE)
    tracer = tracing.Tracer()
    with tracer:
        run.run_set(jobs, 5, str(tmp_path), tracer)
    spans = tracer.spans
    root = []
    for i, (_, _, _, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
    own = tracing.self_times(spans)
    roots = [i for i, r in enumerate(root) if r == i]
    assert len(roots) == len(jobs)
    assert len(spans) > len(roots)
    for r in roots:
        name, start, end, _ = spans[r]
        assert name.startswith(tracing.BENCH + ".")
        covered = sum(t for t, rr in zip(own, root) if rr == r)
        assert covered == pytest.approx(end - start, rel=1e-9, abs=1e-12)


def test_command_prints_result_json_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local_conv", "--seed", "4",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
