"""Fourier-domain analysis of elliptic scaling functions.

Provides the correction factor mu, its infinite product M along the
contracting orbit of A^{-T}, the transform phi_hat = (G/P)^m M^m, the
brute-force supremum B of mu, and the resulting Riesz-basis verdict with its
decay exponent.

Singularities: mu and G/P have removable 0/0 points on 2 pi Z^d (resp. at 0).
Exact lattice queries return the analytic limit; queries within NEAR_LATTICE
of the lattice are answered by Richardson extrapolation along the query
direction, since floats cannot form the quotient there.  Everywhere else the
direct formula is numerically safe because G is evaluated in its sin form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import digits as digits_mod
from . import matana, trigpoly
from .errors import NotIsotropic
from .matana import DilationMatrix, QuadraticForm
from .trigpoly import TrigPoly

TWO_PI = 2.0 * math.pi
NEAR_LATTICE = 1e-6  # Euclidean distance below which the quotient is extrapolated
DEFAULT_TOL = 1e-9
GRID_BLOCK = 1 << 16  # estimate_B evaluates its grid this many points at a time


@dataclass
class SpectralProfile:
    """Everything needed to evaluate one scaling function in the Fourier domain.

    B_estimate, riesz_ok, threshold and decay_exponent stay None until
    estimate_B / riesz_verdict have run.
    """

    A: DilationMatrix
    Q2: QuadraticForm
    G: TrigPoly
    m0: TrigPoly
    m: int
    digits_AT: digits_mod.DigitSet
    truncation_tol: float = DEFAULT_TOL
    B_estimate: float | None = None
    riesz_ok: bool | None = None
    threshold: float | None = None
    decay_exponent: float | None = None
    _tail_C: float | None = field(default=None, repr=False)

    @property
    def d(self) -> int:
        return self.A.d

    @property
    def q(self) -> int:
        return self.A.q

    @property
    def contraction(self) -> np.ndarray:
        return self.A.inv_T


def make_profile(matrix, m: int = 1, tol: float = DEFAULT_TOL) -> SpectralProfile:
    """Validate, certify isotropy, and synthesize G and the mask for `matrix`."""
    if m < 1:
        raise ValueError("order m must be >= 1")
    A = matrix if isinstance(matrix, DilationMatrix) else matana.validate_dilation(matrix)
    cert = matana.certify_isotropy(A)
    if not cert.isotropic:
        raise NotIsotropic(cert.failure_reason or "matrix is not isotropic")
    qf = cert.witness
    G = trigpoly.build_G(qf)
    ds = digits_mod.digit_set(A.entries.T)
    m0 = trigpoly.build_mask(A, G, ds)
    return SpectralProfile(A, qf, G, m0, m, ds, truncation_tol=tol)


def _reduce_torus(xi: np.ndarray):
    """Split xi = 2 pi k + eta with k integer and eta in [-pi, pi]^d (nearest)."""
    k = np.round(xi / TWO_PI)
    eta = xi - TWO_PI * k
    return eta, k


def _richardson_even_limit(f, h0: float = 0.02, levels: int = 4):
    """Limit at 0 of an even smooth function via Richardson in h^2.

    f is sampled at h0, h0/2, ..., h0/2^(levels-1); a Neville tableau in h^2
    removes the h^2, h^4, ... terms (fourth order and beyond).  The tableau
    is elementwise, so f may return an array of values, one per direction.
    """
    hs = [h0 / 2 ** i for i in range(levels)]
    vals = [f(h) for h in hs]
    x = [h * h for h in hs]
    for j in range(1, levels):
        for i in range(levels - j):
            vals[i] = vals[i + 1] + (vals[i + 1] - vals[i]) * x[i + 1] / (x[i] - x[i + 1])
    return vals[0]


def _mu_direct(profile: SpectralProfile, eta: np.ndarray) -> np.ndarray:
    """q^{2/d} m0(B eta) G(B eta) / G(eta) for eta safely off the lattice."""
    B = profile.contraction
    Beta = eta @ B.T
    num = profile.m0.eval_real(Beta) * trigpoly.eval_G_stable(profile.Q2, Beta)
    den = trigpoly.eval_G_stable(profile.Q2, eta)
    return profile.q ** (2.0 / profile.d) * num / den


def mu(profile: SpectralProfile, xi) -> float | np.ndarray:
    """Correction factor mu; 2 pi periodic, equal to 1 on 2 pi Z^d.

    Accepts a point (d,) or a batch (N, d).  The argument is reduced to the
    fundamental cell first, which makes periodicity exact in floats.
    """
    x = np.asarray(xi, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    eta, _ = _reduce_torus(x)
    r2 = np.sum(eta * eta, axis=1)
    out = np.empty(len(x))
    far = r2 >= NEAR_LATTICE ** 2
    if np.any(far):
        out[far] = _mu_direct(profile, eta[far])
    out[r2 == 0.0] = 1.0
    near = ~far & (r2 != 0.0)
    if np.any(near):
        V = eta[near] / np.sqrt(r2[near])[:, None]
        out[near] = _richardson_even_limit(lambda h: _mu_direct(profile, h * V))
    return float(out[0]) if single else out


def mu_quadratic_constant(profile: SpectralProfile) -> float:
    """Calibrated C with |mu - 1| <= C P on the cell and the unit P-ellipsoid.

    Theory only guarantees such a constant exists; this one is an empirical
    max of |mu - 1| / P over a dense sample, cached on the profile.  It
    controls the geometric tail of the infinite product.
    """
    if profile._tail_C is not None:
        return profile._tail_C
    d = profile.d
    rng = np.random.default_rng(1234)
    pts = []
    # Fundamental cell grid (avoid the lattice point itself).
    axes = [np.linspace(-math.pi, math.pi, 41) for _ in range(d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    keep = np.sum(grid * grid, axis=1) > 1e-4
    pts.append(grid[keep])
    # Unit P-ellipsoid samples: random directions, radii spread to the boundary.
    dirs = rng.normal(size=(400, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pdir = matana.eval_P(profile.Q2, dirs)
    for t in (0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 1.0):
        pts.append(dirs * (t / np.sqrt(pdir))[:, None])
    pts = np.vstack(pts)
    vals = np.abs(mu(profile, pts) - 1.0) / matana.eval_P(profile.Q2, pts)
    C = float(np.max(vals)) * 1.05 + 1e-12
    profile._tail_C = C
    return C


def _truncation_depth(profile: SpectralProfile, pmax: float, tol: float) -> int:
    """Smallest J with the geometric tail bound C q^{-2J/d} P < tol."""
    C = mu_quadratic_constant(profile)
    ratio = profile.q ** (-2.0 / profile.d)
    budget = tol * (1.0 - ratio) / (2.0 * C)
    # Also force the first tail point inside the unit P-ellipsoid.
    target = max(pmax / budget, pmax, 1.0)
    J = int(math.ceil(math.log(target) / math.log(1.0 / ratio))) + 1
    return min(max(J, 3), 400)


def M_eval(profile: SpectralProfile, xi, tol: float | None = None) -> float | np.ndarray:
    """Infinite product M(xi) = prod_j mu((A^{-T})^j xi), truncated below tol.

    The truncation depth comes from |mu - 1| <= C P and the invariance
    P(A^{-T} xi) = q^{-2/d} P(xi), so the dropped tail is a geometric series.
    """
    if tol is None:
        tol = profile.truncation_tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(xi, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    pmax = float(np.max(matana.eval_P(profile.Q2, x))) if len(x) else 0.0
    J = _truncation_depth(profile, max(pmax, 1e-300), tol)
    out = np.ones(len(x))
    cur = x.copy()
    B = profile.contraction
    for _ in range(J + 1):
        out *= mu(profile, cur)
        cur = cur @ B.T
    return float(out[0]) if single else out


def phi_hat(profile: SpectralProfile, xi, tol: float | None = None,
            order: int | None = None) -> float | np.ndarray:
    """phi_hat^m(xi) = (G(xi)/P(xi))^m M(xi)^m with the removable 0/0 at 0.

    Exact nonzero lattice queries return 0 (G vanishes there while P does
    not); the origin returns 1.  Everything is nonnegative.
    """
    m = profile.m if order is None else order
    if m < 0:
        raise ValueError("order must be >= 0")
    x = np.asarray(xi, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    ratio = np.empty(len(x))
    r2 = np.sum(x * x, axis=1)
    far = r2 >= NEAR_LATTICE ** 2
    if np.any(far):
        ratio[far] = (trigpoly.eval_G_stable(profile.Q2, x[far])
                      / matana.eval_P(profile.Q2, x[far]))
    ratio[r2 == 0.0] = 1.0
    near = ~far & (r2 != 0.0)
    if np.any(near):
        V = x[near] / np.sqrt(r2[near])[:, None]
        ratio[near] = _richardson_even_limit(
            lambda h: trigpoly.eval_G_stable(profile.Q2, h * V) / matana.eval_P(profile.Q2, h * V)
        )
    base = ratio * M_eval(profile, x, tol)
    # Exact nonzero lattice points: G vanishes analytically, clamp the dust.
    eta, k = _reduce_torus(x)
    exact = (np.max(np.abs(eta), axis=1) == 0.0) & np.any(k != 0, axis=1)
    base[exact] = 0.0
    out = base ** m
    return float(out[0]) if single else out


def _golden_max(f, lo: float, hi: float, iters: int = 60):
    """Golden-section maximizer on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def estimate_B(profile: SpectralProfile, grid_n: int = 256, refine_iters: int = 12) -> float:
    """Estimate B = sup mu over the torus by dense grid plus local refinement.

    mu is 2 pi periodic, so the grid covers [-pi, pi)^d, evaluated in blocks
    of GRID_BLOCK points so memory stays flat in grid_n; refinement runs
    coordinate-wise golden-section sweeps around the best grid cell.  The
    result is monotone in the observed values (never below the grid max).
    """
    if grid_n < 32:
        raise ValueError("grid_n must be >= 32")
    d = profile.d
    axis_vals = np.linspace(-math.pi, math.pi, grid_n, endpoint=False)
    n_points = grid_n ** d
    best = -math.inf
    for start in range(0, n_points, GRID_BLOCK):
        flat = np.arange(start, min(start + GRID_BLOCK, n_points))
        block = axis_vals[np.stack(np.unravel_index(flat, (grid_n,) * d), axis=-1)]
        vals = mu(profile, block)
        i = int(np.argmax(vals))
        if vals[i] > best:  # strict: the first maximum wins, as in np.argmax
            best, best_x = float(vals[i]), block[i].copy()
    cell = TWO_PI / grid_n

    def f_at(x):
        return float(mu(profile, x[None, :])[0])

    for _ in range(max(refine_iters, 0)):
        moved = False
        for axis in range(d):
            def f1(t, axis=axis):
                x = best_x.copy()
                x[axis] = t
                return f_at(x)
            t, ft = _golden_max(f1, best_x[axis] - 2 * cell, best_x[axis] + 2 * cell)
            if ft > best:
                best = ft
                best_x[axis] = t
                moved = True
        if not moved:
            break
    profile.B_estimate = best
    return best


def riesz_verdict(profile: SpectralProfile):
    """Riesz-basis test B < q^{2/d - 1/(2m)} plus the brute-force decay exponent.

    Returns (riesz_ok, threshold, decay_exponent) with
    decay_exponent = m (d log_q B - 2).  The comparison gets 1e-12 of slack
    toward failure so borderline estimates never pass by rounding.
    """
    if profile.B_estimate is None:
        estimate_B(profile)
    B = profile.B_estimate
    exponent = 2.0 / profile.d - 1.0 / (2.0 * profile.m)
    threshold = profile.q ** exponent
    ok = B < threshold - 1e-12
    decay = profile.m * (profile.d * math.log(B) / math.log(profile.q) - 2.0)
    profile.riesz_ok = ok
    profile.threshold = threshold
    profile.decay_exponent = decay
    return ok, threshold, decay


def spectrum_report(profile: SpectralProfile, grid_n: int = 256,
                    refine_iters: int = 12) -> dict:
    """JSON-ready summary used by the CLI `spectrum` command."""
    estimate_B(profile, grid_n=grid_n, refine_iters=refine_iters)
    ok, threshold, decay = riesz_verdict(profile)
    return {
        "B": profile.B_estimate,
        "threshold": threshold,
        "riesz_ok": ok,
        "decay_exponent": decay,
        "grid_n": grid_n,
        "tol": profile.truncation_tol,
    }
