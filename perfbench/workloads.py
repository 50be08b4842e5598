"""Job lists of the three benchmark workloads and the code that runs one job.

A job is one unit of user work: a call of ``ellipsf.cli.main(argv)`` with
stdout captured in memory, or a library call of ``spectral.phi_hat`` on a
batch of points.  Every job starts from the matrix, so it pays for its own
profile build, as a CLI call does.

Workloads (see NOTES.md for why each exists):

* ``report``  -- ``ellipsf report --J 5`` on A1-A4 and ``uni`` at m = 1, 2.
* ``fourier`` -- ``phi_hat`` on seeded points for A1-A4, ``uni`` and C3 at
  m = 1, 2, then ``ellipsf spectrum`` on A1-A4 (grid 256) and C3 (grid 128).
* ``lattice`` -- ``ellipsf eval`` on C3 (m=1, J=3), A4 (m=2, J=5) and
  A3 (m=2, J=11).

``smoke=True`` gives a reduced job list of the same kinds for the
benchmark's own tests; its jobs have references of their own.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

FIXTURES = {
    "A1": [[1, -1], [1, 1]],
    "A2": [[0, -2], [1, 1]],
    "A3": [[1, -2], [1, 0]],
    "A4": [[2, 0], [0, 2]],
    "uni": [[2]],
    "C3": [[0, 0, 2], [1, 0, 0], [0, 1, 0]],  # companion matrix of x^3 - 2
}

WORKLOADS = ("report", "fourier", "lattice")
REPORT_J = 5
FOURIER_POINTS = 20000
SMOKE_FOURIER_POINTS = 500


def matrix_arg(name: str) -> str:
    return ";".join(",".join(str(v) for v in row) for row in FIXTURES[name])


@dataclass(eq=False)
class Job:
    """One job.  ``key`` names its reference; ``argv`` is set for CLI jobs,
    ``points`` for ``phi_hat`` jobs."""

    key: str
    fixture: str
    m: int
    argv: list | None = None
    points: np.ndarray | None = field(default=None, repr=False)


@dataclass(eq=False)
class Output:
    """What one job produced.  ``error`` holds an unexpected exception."""

    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    values: np.ndarray | None = None
    profile: object = None
    error: str | None = None


def _cli(key, fixture, m, *args):
    return Job(key, fixture, m, argv=[*args, "--matrix", matrix_arg(fixture), "--m", str(m)])


def report_jobs(seed: int, smoke: bool = False) -> list[Job]:
    cases = [("uni", 1), ("uni", 2), ("A1", 1)] if smoke else [
        (name, m) for name in ("A1", "A2", "A3", "A4", "uni") for m in (1, 2)]
    return [_cli(f"report/{name}/m{m}", name, m, "report", "--J", str(REPORT_J),
                 "--seed", str(seed)) for name, m in cases]


def fourier_points(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    return rng.uniform(-4 * math.pi, 4 * math.pi, size=(n, d))


def fourier_jobs(seed: int, smoke: bool = False) -> list[Job]:
    rng = np.random.default_rng(seed)
    if smoke:
        names, n = ("A1", "uni"), SMOKE_FOURIER_POINTS
    else:
        names, n = ("A1", "A2", "A3", "A4", "uni", "C3"), FOURIER_POINTS
    jobs = [Job(f"phi_hat/{name}/m{m}", name, m,
                points=fourier_points(rng, len(FIXTURES[name]), n))
            for name in names for m in (1, 2)]
    spectra = [("A1", 256)] if smoke else [(name, 256) for name in ("A1", "A2", "A3", "A4")] + [("C3", 128)]
    jobs += [_cli(f"spectrum/{name}/g{g}", name, 1, "spectrum", "--grid-n", str(g))
             for name, g in spectra]
    return jobs


def lattice_jobs(seed: int, smoke: bool = False) -> list[Job]:
    # The lattice workload has no random input; ``seed`` is unused.
    cases = [("A1", 1, 4), ("uni", 2, 6)] if smoke else [("C3", 1, 3), ("A4", 2, 5), ("A3", 2, 11)]
    return [_cli(f"eval/{name}/m{m}/J{J}", name, m, "eval", "--J", str(J))
            for name, m, J in cases]


def jobs_for(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    return {"report": report_jobs, "fourier": fourier_jobs,
            "lattice": lattice_jobs}[workload](seed, smoke)


def profile_cases(jobs: list[Job]) -> list[tuple[str, int]]:
    """The distinct (fixture, m) pairs whose profiles the jobs build."""
    return sorted({(j.fixture, j.m) for j in jobs})


def run_job(job: Job) -> Output:
    """Run one job in process.  Exceptions are returned, never raised."""
    from ellipsf import cli, spectral

    out = Output()
    try:
        if job.argv is not None:
            so, se = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                out.exit_code = cli.main(list(job.argv))
            out.stdout, out.stderr = so.getvalue(), se.getvalue()
        else:
            out.profile = spectral.make_profile(FIXTURES[job.fixture], m=job.m)
            out.values = np.asarray(spectral.phi_hat(out.profile, job.points))
            out.exit_code = 0
    except Exception as exc:  # a failed job is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    return out
