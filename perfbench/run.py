"""Run one cmgiant benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graph_core --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports cmgiant from the checkout's
src/ and fails (exit code 1, no result) when that is missing. The run
repeats the workload's set of jobs until --seconds have passed, checks every
job's output, and prints one line per metric followed, as the last line, by
a JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: wall_s (median seconds per set),
setup_s (median over fresh processes of the time from process start to the
first job) and peak_rss_mb (peak resident memory of this process). wall_s
and setup_s are given at reference speed: each timed interval is scaled by
REFERENCE_S over the time of a fixed reference computation (reference.py)
run just before and just after it, so that drift in the machine's speed
between runs cancels. The measured seconds are printed beside them.
--trace 1 alternates untraced and traced sets and reports the per-layer
metrics of the traced ones (medians over sets); the spans are written to
.perfbench_out/spans-<workload>.jsonl when the run ends.

Job outputs go to a scratch directory under .perfbench_out/ that is removed
before exit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 11
# About the median reference time on the machine the baseline in README.md
# was recorded on (a 2-vCPU Xeon VM), so that values at reference speed read
# as seconds on that machine at its usual speed. Only ratios between runs
# matter.
REFERENCE_S = 0.1


class Reference:
    """The process of reference.py; calling it times the reference computation once."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        """End the process (at end of its input) and wait for it."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Scale a timed interval by REFERENCE_S over the reference times around it."""
    return seconds * 2 * REFERENCE_S / (before + after)


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them under section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def import_program():
    """Import cmgiant from the checkout's src/, never from anywhere else."""
    init = os.path.join(SRC, "cmgiant", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} is missing; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import cmgiant

    if os.path.realpath(cmgiant.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported cmgiant from {cmgiant.__file__}, not {init}")
    return cmgiant


def measure_setup(workload: str, reference_s) -> tuple[list[float], list[float]]:
    """Seconds from spawn to exit of fresh processes that only set up the workload.

    Returns the measured times and the same times at reference speed.
    """
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    times, refs = [], [reference_s()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(probe, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        refs.append(reference_s())
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe exited with {proc.returncode}")
    return times, [at_reference_speed(t, refs[i], refs[i + 1]) for i, t in enumerate(times)]


class Tally:
    """Jobs attempted and failed; a job fails if it raises or fails a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, error: str | None, checks, show: bool) -> None:
        self.attempted += 1
        bad = [c for c in checks if not c.ok]
        if error is not None or bad:
            self.failed += 1
        if error is not None:
            print(f"check {label}: FAIL - raised\n{error}", file=sys.stderr)
        for c in checks:
            if show or not c.ok:
                print(f"check {label}.{c.name}: {'PASS' if c.ok else 'FAIL'} - {c.detail}")


def run_set(jobs, seed: int, workdir: str, tracer=None):
    """Execute every job of one set; return (wall seconds, outputs)."""
    outputs = []
    start = time.perf_counter()
    for j, job in enumerate(jobs):
        jobdir = os.path.join(workdir, f"{j}-{job.name}")
        span = tracer.span(f"bench.{job.name}") if tracer else nullcontext()
        try:
            with span:
                outputs.append((job, jobdir, job.execute(seed, jobdir), None))
        except Exception:
            outputs.append((job, jobdir, None, traceback.format_exc()))
    return time.perf_counter() - start, outputs


def verify_set(seed: int, outputs, tally: Tally, show: bool) -> None:
    for job, jobdir, output, error in outputs:
        checks = []
        if error is None:
            try:
                checks = job.verify(seed, jobdir, output)
            except Exception:
                error = traceback.format_exc()
        tally.record(f"{job.name}[seed {seed}]", error, checks, show)
        shutil.rmtree(jobdir, ignore_errors=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import numpy as np

    import tracing
    from workloads import WORKLOADS

    seeds = np.random.default_rng(seed)
    tally = Tally()
    walls: dict[bool, list[float]] = {False: [], True: []}  # measured seconds per set
    scaled: dict[bool, list[float]] = {False: [], True: []}  # the same at reference speed
    traced_sets: list[dict] = []
    spans: list[list] = []
    tracer = tracing.Tracer()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    # One CPU for this process and, by inheritance, the reference and set-up
    # probe processes: the two CPUs of a shared VM drift apart, so the
    # reference follows the jobs' speed only when it runs where they run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reference_s = Reference()
    try:
        setup, setup_scaled = ([], []) if trace else measure_setup(workload_name, reference_s)
        jobs = WORKLOADS[workload_name](scale)
        refs = [reference_s()]
        start = time.perf_counter()
        while True:
            traced = trace and len(walls[False]) > len(walls[True])
            set_seed = int(seeds.integers(0, 2**31))
            if traced:
                with tracer:
                    wall, outputs = run_set(jobs, set_seed, workdir, tracer)
                traced_sets.append(tracing.set_metrics(tracer, wall))
                spans.append(tracer.reset())
            else:
                wall, outputs = run_set(jobs, set_seed, workdir)
            refs.append(reference_s())
            walls[traced].append(wall)
            scaled[traced].append(at_reference_speed(wall, refs[-2], refs[-1]))
            verify_set(set_seed, outputs, tally, show=len(walls[traced]) == 1 and not traced)
            done = time.perf_counter() - start >= seconds
            if done and (not trace or walls[True]):
                break
    finally:
        reference_s.close()
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = median(scaled[False])
    print(
        f"perfbench {workload_name} seed={seed} trace={int(trace)} python={platform.python_version()}"
        f" numpy={np.__version__} nproc={os.cpu_count()}"
    )
    print(f"reference_s: {median(refs):.4f} s measured (median of {len(refs)}; REFERENCE_S {REFERENCE_S} s)")
    print("reference_s around the sets, measured: " + " ".join(f"{r:.4f}" for r in refs))
    print(
        f"wall_s: {untraced:.4f} s at reference speed (median of {len(walls[False])} untraced sets;"
        f" measured median {median(walls[False]):.4f} s, min {min(walls[False]):.4f}, max {max(walls[False]):.4f})"
    )
    print("wall_s per set, measured: " + " ".join(f"{w:.3f}" for w in walls[False]))
    print(f"failed_frac: {tally.failed / tally.attempted:.4g} ({tally.failed} of {tally.attempted} jobs failed)")
    if trace:
        metrics = tracing.median_metrics(traced_sets)
        metrics["trace_overhead_frac"] = median(scaled[True]) / untraced - 1
        units = declared_units("per_layer")
        for line in tracing.layer_table(metrics, median(walls[True]), units):
            print(line)
        os.makedirs(OUT, exist_ok=True)
        tracing.write_spans(os.path.join(OUT, f"spans-{workload_name}.jsonl"), spans)
    else:
        metrics = {
            "wall_s": untraced,
            "setup_s": median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(
            f"setup_s: {metrics['setup_s']:.4f} s at reference speed (median of {len(setup)} fresh"
            f" processes; measured median {median(setup):.4f} s)"
        )
        print(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
        units = declared_units("end_to_end")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("graph_core", "local_conv", "explore"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
