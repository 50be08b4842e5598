"""Tests of the benchmark itself, on the reduced (smoke) job lists.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from checks import check_job, load_refs, sample_rows  # noqa: E402
from workloads import WORKLOADS, jobs_for, run_job  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_prints_every_metric_with_its_unit(workload, trace):
    r = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
              "--trace", trace, "--smoke")
    assert r.returncode == 0, r.stderr
    result = last_json(r.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, r.stderr
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    meta = json.loads(r.stdout.strip().splitlines()[-2])["meta"]
    assert meta["fail_frac"] == 0.0
    assert {"git_sha", "numpy", "nproc", "blas_threads"} <= set(meta)
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        # The times are the raw ones scaled to the reference speed.
        speed = harness.KERNEL_REF_S / statistics.median(meta["kernel_s"])
        for name in ("setup_s", "wall_s"):
            assert result["metrics"][name]["value"] == pytest.approx(meta[f"raw_{name}"] * speed)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = bench("--workload", "report", "--seed", "0", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert r.returncode != 0
    assert r.stdout == ""


def measure_smoke(workload):
    _, _, problems = harness.measure(jobs_for(workload, 0, smoke=True), load_refs(),
                                     seconds=1e-9, trace=False)
    return len(problems), sum(1 for p in problems if p), problems


def once(fn, replacement):
    """``fn`` whose first call returns ``replacement(result)`` instead."""
    calls = []

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(1)
        return replacement(out) if len(calls) == 1 else out
    return wrapper


def test_corrupted_lattice_value_is_a_failed_job(monkeypatch):
    from ellipsf import ioutils

    def corrupt(text):
        lines = text.split("\n")
        i = len(lines) // 3 + 1
        *x, v = lines[i].split(",")
        lines[i] = ",".join([*x, repr(float(v) + 1e-5)])
        return "\n".join(lines)

    monkeypatch.setattr(ioutils, "grid_csv", once(ioutils.grid_csv, corrupt))
    attempted, failed, problems = measure_smoke("lattice")
    assert (attempted, failed) == (2, 1)
    assert "values differ" in " ".join(problems[0])


def test_pass_to_fail_flip_is_a_failed_job(monkeypatch):
    from ellipsf import properties

    monkeypatch.setattr(properties, "check_total_positivity",
                        once(properties.check_total_positivity, lambda r: -1.0))
    attempted, failed, problems = measure_smoke("report")
    assert (attempted, failed) == (3, 1)
    assert "check total_positivity: pass -> fail" in problems[0]


def test_fail_to_pass_flip_is_accepted(monkeypatch):
    from ellipsf import properties

    refs = load_refs()
    assert refs["report/A1/m1"]["statuses"]["convolution"] == "fail"
    monkeypatch.setattr(properties, "check_convolution", lambda *a, **k: 0.0)
    attempted, failed, problems = measure_smoke("report")
    assert (attempted, failed) == (3, 0), problems


def test_projection_catches_an_unsampled_value():
    job = next(j for j in jobs_for("lattice", 0) if j.key == "eval/A4/m2/J5")
    out = run_job(job)
    refs = load_refs()
    assert check_job(job, out, refs) == []
    lines = out.stdout.split("\n")
    row = next(i for i in range(1000, 2000) if i not in set(sample_rows(len(lines) - 2)))
    *x, v = lines[row + 1].split(",")
    # Above the block's bound of 1e-9 * sqrt(1000), far below any sampled
    # row's neighbours' scale.
    lines[row + 1] = ",".join([*x, repr(float(v) + 1e-7)])
    out.stdout = "\n".join(lines)
    assert check_job(job, out, refs) == ["projection of 1 block(s) differs, first rows 1000-1999"]


def test_probe_set_catches_a_loose_truncation(monkeypatch):
    from ellipsf import spectral

    job = next(j for j in jobs_for("fourier", 0, smoke=True) if j.key == "phi_hat/A1/m1")
    refs = load_refs()
    assert check_job(job, run_job(job), refs) == []
    monkeypatch.setattr(spectral, "_truncation_depth", lambda *args: 2)
    problems = check_job(job, run_job(job), refs)
    assert any(p.startswith("probe values differ") for p in problems), problems
