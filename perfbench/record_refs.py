#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record_refs.py

Run at the commit whose outputs are the reference (the seed commit of the
benchmark).  Runs every CLI job of the full and smoke job lists, evaluates
``phi_hat`` of every ``phi_hat`` job on the fixed probe set, and writes
``refs/report.json``, ``refs/fourier.json`` and ``refs/lattice.json``.
Report jobs run once per seed in ``range(STATUS_SEEDS)``; their per-check
statuses must not depend on the seed, or recording stops.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import REFS, grid_summary, probe_points, split_json  # noqa: E402
from workloads import FIXTURES, jobs_for, run_job  # noqa: E402

STATUS_SEEDS = 10


def all_jobs(workload: str, seed: int) -> dict:
    jobs = {}
    for smoke in (False, True):
        jobs.update({j.key: j for j in jobs_for(workload, seed, smoke)})
    return jobs


def cli_jobs(workload: str, seed: int) -> dict:
    return {k: j for k, j in all_jobs(workload, seed).items() if j.argv is not None}


def checked_run(job):
    out = run_job(job)
    if out.error is not None:
        raise SystemExit(f"{job.key}: {out.error}")
    return out


def report_ref(job) -> dict:
    out = checked_run(job)
    analyze, mask, spectrum, verify = split_json(out.stdout)
    statuses = {c["name"]: c["status"] for c in verify["checks"]}
    for seed in range(1, STATUS_SEEDS):
        argv = list(job.argv)
        argv[argv.index("--seed") + 1] = str(seed)
        job.argv = argv
        again = checked_run(job)
        other = {c["name"]: c["status"] for c in split_json(again.stdout)[3]["checks"]}
        if other != statuses or again.exit_code != out.exit_code:
            raise SystemExit(f"{job.key}: statuses depend on the seed ({seed})")
    return {"exit_code": out.exit_code,
            "analyze": {k: analyze[k] for k in ("d", "q", "isotropic", "Q2", "digits_A", "digits_AT")},
            "mask": {"coefficients": mask["coefficients"]},
            "spectrum": spectrum, "statuses": statuses}


def lattice_ref(job) -> dict:
    out = checked_run(job)
    n = out.stdout.count("\n") - 1
    header, rows, sample, proj, finite = grid_summary(out.stdout, len(FIXTURES[job.fixture]), n)
    assert rows == n and finite
    return {"exit_code": out.exit_code, "header": header, "rows": rows,
            "sample": sample.tolist(), "projections": proj.tolist()}


def probe_ref(job) -> dict:
    from ellipsf import spectral

    profile = spectral.make_profile(FIXTURES[job.fixture], m=job.m)
    values = spectral.phi_hat(profile, probe_points(len(FIXTURES[job.fixture])))
    return {"probe_values": values.tolist()}


def main():
    REFS.mkdir(exist_ok=True)
    fourier = all_jobs("fourier", 0)
    refs = {
        "report": {k: report_ref(j) for k, j in cli_jobs("report", 0).items()},
        "fourier": {k: probe_ref(j) if j.argv is None else
                    {"exit_code": (o := checked_run(j)).exit_code,
                     "spectrum": split_json(o.stdout)[0]}
                    for k, j in fourier.items()},
        "lattice": {k: lattice_ref(j) for k, j in cli_jobs("lattice", 0).items()},
    }
    for name, doc in refs.items():
        (REFS / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote refs/{name}.json ({len(doc)} jobs)")


if __name__ == "__main__":
    main()
