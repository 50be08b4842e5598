"""Measurement loop of the benchmark; ``run.py`` is its entry point.

The workload runs in this process as a closed loop with one client: its
jobs run back to back, and passes repeat until the run's seconds are used.
Untraced passes give the end-to-end metrics; traced passes, alternated with
untraced ones, give the per-layer metrics.

The times of the end-to-end metrics are scaled to a reference machine
speed.  The shared machine the benchmark was defined on changes speed by up
to 1.7 times, in spells of seconds to minutes, so raw times of runs made
minutes apart spread by more than a change worth measuring.  Between jobs
and between cold starts the run times a fixed kernel that does not use the
program; the median of these samples is the machine's speed over the run,
and the run's times are multiplied by ``KERNEL_REF_S`` over that median.
The raw times are in the metadata.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_job, load_refs
from tracer import Tracer, layer_metrics, unit, write_spans
from workloads import FIXTURES, jobs_for, profile_cases, run_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
MAX_PROBLEMS_SHOWN = 20
# Median time of speed_kernel() on the 2-vCPU virtual machine the benchmark
# was defined on: scaled times are seconds at that machine's usual speed.
KERNEL_REF_S = 0.06
# After each job the kernel runs for this share of the job's time, so that
# its samples cover the run evenly.
KERNEL_SHARE = 0.1

SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
from ellipsf import spectral
for matrix, m in {cases!r}:
    spectral.make_profile(matrix, m=m)
print({n})
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_sha() -> str:
    """Hash of the package sources; identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ellipsf").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def speed_kernel() -> float:
    """Seconds of a fixed piece of work that does not use the program.

    About half of it is interpreter work (integers, a dict, float
    formatting, as in the cascade and CSV code), half elementwise numpy on
    freshly allocated 2.4 MB arrays (as in subdivision and the Fourier
    code).  In a slow spell of the shared machine the first half slows by
    up to 1.7 times, the second much less, and the jobs lie in between.
    """
    t0 = time.perf_counter()
    acc, table, parts = 0, {}, []
    for i in range(60000):
        acc += (i * i) % 7
        table[i & 1023] = acc
        if i % 4 == 0:
            parts.append(f"{i * 0.37:.17g}")
    ",".join(parts)
    a = np.arange(300_000, dtype=float)
    for _ in range(32):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - t0


def sample_speed(kernel: list, seconds: float):
    """Appends kernel samples to ``kernel`` until they add up to
    ``seconds``; at least one."""
    spent = 0.0
    while True:
        kernel.append(speed_kernel())
        spent += kernel[-1]
        if spent >= seconds:
            return


def measure_setup(cases, kernel: list) -> tuple[list, list]:
    """Cold starts of a fresh interpreter that imports ellipsf and builds
    every profile of the workload: SETUP_REPEATS times in seconds, and the
    problems seen.  A kernel sample is appended to ``kernel`` before each
    cold start and after the last."""
    code = SETUP_CODE.format(src=str(SRC), cases=[(FIXTURES[f], m) for f, m in cases],
                             n=len(cases))
    samples, problems = [], []
    kernel.append(speed_kernel())
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
        if r.returncode != 0 or r.stdout.strip() != str(len(cases)):
            problems.append(f"setup: exit {r.returncode}: {r.stderr.strip()[-300:]}")
        kernel.append(speed_kernel())
    return samples, problems


def run_pass(jobs, refs, tracer: Tracer | None = None, kernel: list | None = None):
    """One pass over the jobs: (seconds of each job, problems of each job).

    Untraced, each output is checked and dropped right after its job, so
    the check counts in neither the wall time nor the memory held by jobs.
    Traced, outputs are checked after the pass, with the tracer removed.
    With ``kernel``, kernel samples are appended to it after each job.
    """
    times, problems, outputs = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            out = run_job(job)
            times.append(time.perf_counter() - t0)
            if kernel is not None:
                sample_speed(kernel, KERNEL_SHARE * times[-1])
            if tracer is None:
                problems.append(check_job(job, out, refs))
            else:
                outputs.append(out)
            del out
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems += [check_job(job, out, refs) for job, out in zip(jobs, outputs)]
    return times, problems


def measure(jobs, refs, seconds: float, trace: bool, kernel: list | None = None):
    """Rounds of one untraced pass, plus one traced pass when tracing, until
    another round would end more than half a round past ``seconds``.
    Returns ([job times] of the untraced passes, [(tracer, wall)] of the
    traced passes, problems of every job run).  Untraced passes append
    kernel samples to ``kernel`` (see run_pass)."""
    passes, traced, problems = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        times, p = run_pass(jobs, refs, kernel=kernel)
        passes.append(times)
        problems += p
        if trace:
            tracer = Tracer()
            times, p = run_pass(jobs, refs, tracer)
            traced.append((tracer, sum(times)))
            problems += p
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            return passes, traced, problems


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (result, metadata, problems)."""
    jobs = jobs_for(workload, seed, smoke)
    refs = load_refs()
    # Lazy imports and first-call set-up inside numpy and the package happen
    # here, on the small job list, rather than in the first measured pass.
    for job in jobs_for(workload, seed, smoke=True):
        run_job(job)
    kernel = []
    setup, setup_problems = ([], []) if trace else measure_setup(profile_cases(jobs), kernel)
    passes, traced, job_problems = measure(jobs, refs, seconds, trace,
                                           None if trace else kernel)
    walls = [sum(times) for times in passes]
    attempted = len(job_problems)
    failed = sum(1 for p in job_problems if p)

    if trace:
        # All per-layer metrics come from one pass, the median traced one,
        # so that its layers' self times add up to its wall time.
        tracer, wall = sorted(traced, key=lambda t: t[1])[(len(traced) - 1) // 2]
        metrics = layer_metrics(tracer, wall)
        metrics["trace.overhead_frac"] = wall / statistics.median(walls) - 1.0
    else:
        # wall_s: one pass with every job at its median time over the run's
        # passes.  A slow spell in one pass moves it less than it moves the
        # median of whole passes.  Both times are scaled to the reference
        # speed (see the module docstring).
        raw_setup = statistics.median(setup)
        raw_wall = sum(statistics.median(t) for t in zip(*passes))
        speed = KERNEL_REF_S / statistics.median(kernel)
        metrics = {"setup_s": raw_setup * speed, "wall_s": raw_wall * speed,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    problems = setup_problems + [f"{jobs[n % len(jobs)].key} (pass {n // len(jobs)}): {msg}"
                                 for n, p in enumerate(job_problems) for msg in p]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or unit(k)}
                          for k, v in metrics.items()}}
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "jobs_per_pass": len(jobs), "passes": len(walls),
        "pass_wall_s": walls, "job_s": passes,
        "traced_pass_wall_s": [w for _, w in traced],
        "setup_samples_s": setup, "fail_frac": failed / attempted,
        "raw_setup_s": None if trace else raw_setup, "raw_wall_s": None if trace else raw_wall,
        "kernel_s": kernel, "kernel_ref_s": KERNEL_REF_S,
        "git_sha": git_sha(), "source_sha256": source_sha(), "numpy": np.__version__,
        "python": sys.version.split()[0], "nproc": nproc(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "load": "closed loop, one client, jobs in process",
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "result": result, "problems": problems}, indent=1))
    if traced:
        write_spans(OUT_DIR / f"{stem}-spans.tsv.gz", [tr for tr, _ in traced])
    return result, meta, problems
