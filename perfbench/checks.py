"""Output checks of the benchmark's jobs.

CLI outputs are compared by value with references recorded from the seed
commit (``refs/*.json``, written by ``record_refs.py``).  ``phi_hat``
outputs depend on the workload seed, so they are checked by identities that
hold for every input instead, and on a fixed probe set by recorded values.  ``check_job`` returns the list of problems it
found; a job with any problem has failed.

Exit codes and property statuses may improve but not worsen: an exit code
lower than the reference's and a check going fail -> pass are accepted; a
check going pass -> fail (or any other change of status) is a failure.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import FIXTURES, Job, Output

REFS = Path(__file__).resolve().parent / "refs"

# Tolerances, stated once.
Q2_RTOL = 1e-9             # quadratic form entries, relative to max |Q2|
MASK_ATOL = 1e-12          # mask coefficients, absolute
B_RTOL = 1e-9              # B against the recorded value
B_EXACT_ATOL = 1e-6        # B against the paper's constants (as in acceptance c03)
SPECTRUM_RTOL = 1e-9       # threshold and decay exponent
LATTICE_ATOL = 1e-9        # lattice values, absolute
COORD_ATOL = 1e-12         # lattice point coordinates, absolute
PHI_HAT_FLOOR = -1e-12     # phi_hat >= 0 up to rounding
TWO_SCALE_RTOL = 1e-8      # phi_hat(xi) = m0(A^-T xi)^m phi_hat(A^-T xi), relative
TWO_SCALE_POINTS = 400     # points per job on which the identity is checked
TWO_SCALE_MIN_DIST = 0.3   # ... at torus distance above this from 2 pi Z^d
CLOSED_FORM_ATOL = 1e-12   # uni: (sin(xi/2) / (xi/2))^(2m)
PROBE_RTOL = 1e-8          # phi_hat on the probe set, relative to the reference
PROBE_ATOL = 1e-15         # ... plus this, absolute

# B of the worked fixtures (paper constants).
B_EXACT = {"A1": 1.0, "A2": 2.0, "A3": 25.0 / 24.0, "A4": 9.0 / 8.0}

LATTICE_BLOCK = 1000       # lattice rows per recorded projection
LATTICE_SAMPLES = 600      # lattice rows stored verbatim per job
PROBE_POINTS = 200         # fixed phi_hat probe points per job, seed-independent
PROBE_SEED = 20131105

STATUS_OK = {("pass", "pass"), ("fail", "fail"), ("skip", "skip"),
             ("fail", "pass"), ("skip", "pass")}


def load_refs() -> dict:
    refs = {}
    for path in sorted(REFS.glob("*.json")):
        refs.update(json.loads(path.read_text()))
    return refs


def split_json(text: str) -> list:
    """The JSON documents printed one after another by a CLI job."""
    dec = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = dec.raw_decode(text, pos)
        docs.append(doc)


GRID_CHUNK_CHARS = 1 << 22


def iter_grid(text: str, d: int):
    """Header line of an ``eval`` CSV, then (points, values) blocks of its
    rows.  Parsing in blocks keeps the check's memory small next to the
    job's, so it does not set the process's peak."""
    header, _, body = text.partition("\n")
    yield header
    pos = 0
    while pos < len(body):
        end = body.rfind("\n", pos, pos + GRID_CHUNK_CHARS) + 1
        if end <= pos:
            end = len(body)
        rows = np.fromstring(body[pos:end].replace("\n", ","), sep=",").reshape(-1, d + 1)
        yield rows[:, :d], rows[:, d]
        pos = end


def sample_rows(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, LATTICE_SAMPLES)).astype(np.int64))


def row_signs(index: np.ndarray) -> np.ndarray:
    """A +-1 weight for each row index, fixed by the index alone (a
    splitmix64 hash), so it does not depend on how the CSV is split."""
    z = index.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.where(z & np.uint64(1), 1.0, -1.0)


def grid_summary(text: str, d: int, n_ref: int):
    """(header, rows, sampled rows [x..., v], block projections, all finite)
    of an ``eval`` CSV.  Rows are sampled at the positions
    ``sample_rows(n_ref)`` picks; projection b is the sum of +-v over rows
    b * LATTICE_BLOCK up to the next block, signs from ``row_signs``."""
    chunks = iter_grid(text, d)
    header = next(chunks)
    want = sample_rows(n_ref)
    sums, sample, rows, finite = [], [], 0, True
    for x, v in chunks:
        index = np.arange(rows, rows + len(v))
        first = rows // LATTICE_BLOCK
        sums.append((first, np.bincount(index // LATTICE_BLOCK - first,
                                        weights=row_signs(index) * v)))
        hit = want[(want >= rows) & (want < rows + len(v))] - rows
        sample.append(np.column_stack([x[hit], v[hit]]))
        finite &= bool(np.all(np.isfinite(v)))
        rows += len(v)
    proj = np.zeros(-(-rows // LATTICE_BLOCK))
    for first, s in sums:
        proj[first:first + len(s)] += s
    sample = np.vstack(sample) if sample else np.zeros((0, d + 1))
    return header, rows, sample, proj, finite


def _close(a, b, atol=0.0, rtol=0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def _exit_problems(out: Output, ref: dict) -> list:
    if out.error is not None:
        return [f"raised {out.error}"]
    if out.exit_code is None or out.exit_code > ref["exit_code"]:
        return [f"exit code {out.exit_code}, reference {ref['exit_code']}"]
    return []


def _spectrum_problems(doc: dict, ref: dict, fixture: str) -> list:
    p = []
    if not _close(doc["B"], ref["B"], rtol=B_RTOL):
        p.append(f"B {doc['B']!r}, reference {ref['B']!r}")
    if fixture in B_EXACT and abs(doc["B"] - B_EXACT[fixture]) > B_EXACT_ATOL:
        p.append(f"B {doc['B']!r}, paper {B_EXACT[fixture]!r}")
    for key in ("threshold", "decay_exponent"):
        if not _close(doc[key], ref[key], atol=SPECTRUM_RTOL, rtol=SPECTRUM_RTOL):
            p.append(f"{key} {doc[key]!r}, reference {ref[key]!r}")
    if doc["riesz_ok"] != ref["riesz_ok"]:
        p.append(f"riesz_ok {doc['riesz_ok']}, reference {ref['riesz_ok']}")
    return p


def check_report(job: Job, out: Output, ref: dict) -> list:
    p = _exit_problems(out, ref)
    if out.error is not None:
        return p
    docs = split_json(out.stdout)
    if len(docs) != 4:
        return p + [f"printed {len(docs)} documents, expected 4"]
    analyze, mask, spectrum, verify = docs
    r_an, r_mask, r_sp = ref["analyze"], ref["mask"], ref["spectrum"]
    for key in ("d", "q", "isotropic", "digits_A", "digits_AT"):
        if analyze.get(key) != r_an[key]:
            p.append(f"analyze {key} differs")
    scale = float(np.max(np.abs(r_an["Q2"])))
    if not _close(analyze["Q2"], r_an["Q2"], atol=Q2_RTOL * scale):
        p.append("Q2 differs")
    ks = [c["k"] for c in mask["coefficients"]]
    if ks != [c["k"] for c in r_mask["coefficients"]]:
        p.append("mask frequencies differ")
    elif not _close([c["c"] for c in mask["coefficients"]],
                    [c["c"] for c in r_mask["coefficients"]], atol=MASK_ATOL):
        p.append("mask coefficients differ")
    p += _spectrum_problems(spectrum, r_sp, job.fixture)
    status = {c["name"]: c["status"] for c in verify["checks"]}
    for name, want in ref["statuses"].items():
        got = status.get(name)
        if (want, got) not in STATUS_OK:
            p.append(f"check {name}: {want} -> {got}")
    for name in set(status) - set(ref["statuses"]):
        p.append(f"unexpected check {name}")
    if verify["passed"] != all(s != "fail" for s in status.values()):
        p.append("verify 'passed' disagrees with its checks")
    return p


def check_spectrum(job: Job, out: Output, ref: dict) -> list:
    p = _exit_problems(out, ref)
    if out.error is not None:
        return p
    docs = split_json(out.stdout)
    if len(docs) != 1:
        return p + [f"printed {len(docs)} documents"]
    return p + _spectrum_problems(docs[0], ref["spectrum"], job.fixture)


def check_lattice(job: Job, out: Output, ref: dict) -> list:
    p = _exit_problems(out, ref)
    if out.error is not None:
        return p
    header, rows, sample, proj, finite = grid_summary(
        out.stdout, len(FIXTURES[job.fixture]), ref["rows"])
    if header != ref["header"]:
        p.append(f"header {header!r}, reference {ref['header']!r}")
    if rows != ref["rows"]:
        return p + [f"{rows} rows, reference {ref['rows']}"]
    if not finite:
        return p + ["non-finite value"]
    want = np.asarray(ref["sample"], dtype=float)
    if not _close(sample[:, :-1], want[:, :-1], atol=COORD_ATOL):
        p.append("sampled coordinates differ")
    if not _close(sample[:, -1], want[:, -1], atol=LATTICE_ATOL):
        p.append("sampled values differ")
    # Every value enters the projection of its block of n rows with weight
    # +-1.  The bound, LATTICE_ATOL * sqrt(n), is what n values that all
    # differ from the reference by LATTICE_ATOL with unrelated signs give.
    # So a single unsampled value is held to LATTICE_ATOL * sqrt(n), about
    # 3.2e-8 for a whole block; the sampled rows are held to LATTICE_ATOL.
    sizes = np.diff(np.minimum(np.arange(len(proj) + 1) * LATTICE_BLOCK, rows))
    bad = np.nonzero(np.abs(proj - np.asarray(ref["projections"]))
                     > LATTICE_ATOL * np.sqrt(sizes))[0]
    if len(bad):
        p.append(f"projection of {len(bad)} block(s) differs, first rows "
                 f"{bad[0] * LATTICE_BLOCK}-{min(rows, (bad[0] + 1) * LATTICE_BLOCK) - 1}")
    return p


def _m0_from_coefficients(coefficients, xi):
    K = np.array([c["k"] for c in coefficients], dtype=float)
    C = np.array([c["c"] for c in coefficients])
    return (np.exp(-1j * (xi @ K.T)) @ C).real


def probe_points(d: int) -> np.ndarray:
    """The fixed phi_hat probe set of dimension d; the seed does not move it."""
    return np.random.default_rng(PROBE_SEED + d).uniform(
        -4 * math.pi, 4 * math.pi, size=(PROBE_POINTS, d))


def check_phi_hat(job: Job, out: Output, ref: dict) -> list:
    """Identities of phi_hat^m that hold for every input point, and
    phi_hat^m on the probe set against its recorded values.  The identities
    alone would pass a product truncated at a fixed size of |A^{-Tj} xi|:
    phi_hat(xi) and phi_hat(A^{-T} xi) would share the same error."""
    from ellipsf import spectral, trigpoly

    if out.error is not None:
        return [f"raised {out.error}"]
    v, xi = out.values, job.points
    if v.shape != (len(xi),) or not np.all(np.isfinite(v)):
        return ["values missing or not finite"]
    p = []
    if np.min(v) < PHI_HAT_FLOOR:
        p.append(f"phi_hat negative: {np.min(v)!r}")
    # With phi_hat(0) = 1 the two-scale identity below pins phi_hat down.
    at_zero = spectral.phi_hat(out.profile, np.zeros(xi.shape[1]))
    if abs(at_zero - 1.0) > CLOSED_FORM_ATOL:
        p.append(f"phi_hat(0) = {at_zero!r}")
    if job.fixture == "uni":
        half = xi[:, 0] / 2
        exact = np.ones(len(half))
        nz = half != 0
        exact[nz] = (np.sin(half[nz]) / half[nz]) ** (2 * job.m)
        err = float(np.max(np.abs(v - exact)))
        if err > CLOSED_FORM_ATOL:
            p.append(f"uni closed form off by {err:.3e}")
    eta = xi - 2 * math.pi * np.round(xi / (2 * math.pi))
    sel = np.nonzero(np.linalg.norm(eta, axis=1) > TWO_SCALE_MIN_DIST)[0][:TWO_SCALE_POINTS]
    contraction = np.linalg.inv(np.array(FIXTURES[job.fixture], dtype=float)).T
    coarse = xi[sel] @ contraction.T
    m0 = _m0_from_coefficients(trigpoly.mask_to_json(out.profile.m0), coarse)
    rhs = m0 ** job.m * spectral.phi_hat(out.profile, coarse)
    lhs = v[sel]
    resid = float(np.max(np.abs(lhs - rhs) / (np.abs(lhs) + 1e-15))) if len(sel) else 0.0
    if resid > TWO_SCALE_RTOL:
        p.append(f"two-scale identity off by {resid:.3e} (relative)")
    want = np.asarray(ref["probe_values"])
    got = np.asarray(spectral.phi_hat(out.profile, probe_points(xi.shape[1])))
    if not _close(got, want, atol=PROBE_ATOL, rtol=PROBE_RTOL):
        p.append(f"probe values differ, by up to {float(np.max(np.abs(got - want))):.3e}")
    return p


def check_job(job: Job, out: Output, refs: dict) -> list:
    kind = job.key.split("/")[0]
    try:
        if job.key not in refs:
            return [f"no reference for {job.key}"]
        return {"report": check_report, "spectrum": check_spectrum, "phi_hat": check_phi_hat,
                "eval": check_lattice}[kind](job, out, refs[job.key])
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
