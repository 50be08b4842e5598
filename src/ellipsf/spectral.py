"""Fourier-domain analysis of elliptic scaling functions.

Provides the correction factor mu, its infinite product M along the
contracting orbit of A^{-T}, the transform phi_hat = (G/P)^m M^m, the
brute-force supremum B of mu, and the resulting Riesz-basis verdict with its
decay exponent.

phi_hat is evaluated in its telescoped form.  With the contraction B = A^{-T},
P(B xi) = q^{-2/d} P(xi) gives
(G/P)(xi) prod_{j=0..J} mu(B^j xi) = (G/P)(B^{J+1} xi) prod_{j=1..J+1} m0(B^j xi),
which takes one mask evaluation per level and one G/P at the end.

Singularities: mu and G/P have removable 0/0 points on 2 pi Z^d (resp. at 0).
G is evaluated in its sin form, so both quotients stay exact next to them;
below LIMIT_RADIUS, where the squares underflow, their limit 1 is returned.
Query rows with a NaN or infinite coordinate give NaN.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import digits as digits_mod
from . import matana, trigpoly
from .errors import ConfigError, NotIsotropic
from .matana import DilationMatrix, QuadraticForm
from .trigpoly import TrigPoly

TWO_PI = 2.0 * math.pi
# |eta| below which mu and G/P return their limit 1: there the squares in the
# sin-form quotients underflow (at |eta| = 1e-160 they are off by 1e-3).
LIMIT_RADIUS = 1e-150
DEFAULT_TOL = 1e-9
# Rows per block of estimate_B's tensor grid pass: each block gathers its rows
# and their sines from the per-axis tables, and its (N, d) gathers and m0's
# (N, terms) phase array stay near the CPU caches.
GRID_BLOCK = 1 << 14
# Deepest truncation of the infinite products; a tolerance or point that needs
# more levels is rejected rather than served at a depth that misses it.
MAX_DEPTH = 400


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


def _pointwise(f):
    """Lift f(profile, x, ...) on a finite batch x (N, d) to a point (d,) or batch.

    Rows with a NaN or infinite coordinate give NaN and are left out of the
    batch f sees, so they change neither the other rows nor a truncation
    depth taken from the batch.
    """
    @functools.wraps(f)
    def lifted(profile, xi, *args, **kwargs):
        x = np.asarray(xi, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        finite = np.all(np.isfinite(x), axis=1)
        out = np.full(len(x), np.nan)
        out[finite] = f(profile, x[finite], *args, **kwargs)
        return float(out[0]) if single else out
    return lifted


def _mu_direct(profile: SpectralProfile, eta: np.ndarray,
               G_eta: np.ndarray | None = None) -> np.ndarray:
    """q^{2/d} m0(B eta) G(B eta) / G(eta) for |eta| >= LIMIT_RADIUS.

    G_eta, when given, is G(eta) already computed (estimate_B's sine tables).
    """
    B = profile.contraction
    Beta = eta @ B.T
    num = profile.m0.eval_real(Beta) * trigpoly.eval_G_stable(profile.Q2, Beta)
    den = trigpoly.eval_G_stable(profile.Q2, eta) if G_eta is None else G_eta
    return profile.q ** (2.0 / profile.d) * num / den


@_pointwise
def mu(profile: SpectralProfile, x: np.ndarray) -> np.ndarray:
    """Correction factor mu; 2 pi periodic, equal to 1 on 2 pi Z^d.

    Accepts a point (d,) or a batch (N, d).  The argument is reduced to the
    fundamental cell first, which makes periodicity exact in floats.
    """
    eta, _ = _reduce_torus(x)
    out = np.ones(len(x))
    far = np.sum(eta * eta, axis=1) >= LIMIT_RADIUS ** 2
    out[far] = _mu_direct(profile, eta[far])
    return out


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


def _truncation_depth(profile: SpectralProfile, x: np.ndarray, tol: float | None) -> int:
    """truncation_depth_at for the largest P over the rows of x."""
    pmax = max(float(np.max(matana.eval_P(profile.Q2, x))) if len(x) else 0.0, 1e-300)
    return truncation_depth_at(profile, pmax, tol)


def truncation_depth_at(profile: SpectralProfile, pmax: float, tol: float | None) -> int:
    """Smallest J with the geometric tail bound C q^{-2J/d} P < tol for every P <= pmax.

    At least 3; raises ConfigError when it exceeds MAX_DEPTH.
    """
    if tol is None:
        tol = profile.truncation_tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    C = mu_quadratic_constant(profile)
    ratio = profile.q ** (-2.0 / profile.d)
    budget = tol * (1.0 - ratio) / (2.0 * C)
    # Also force the first tail point inside the unit P-ellipsoid.
    target = max(pmax / budget, pmax, 1.0)
    J = int(math.ceil(math.log(target) / math.log(1.0 / ratio))) + 1
    if J > MAX_DEPTH:
        raise ConfigError(f"truncation depth {J} for tol {tol:.3g} exceeds "
                          f"MAX_DEPTH = {MAX_DEPTH}")
    return max(J, 3)


@_pointwise
def M_eval(profile: SpectralProfile, x: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Infinite product M(xi) = prod_j mu((A^{-T})^j xi), truncated below tol.

    The truncation depth comes from |mu - 1| <= C P and the invariance
    P(A^{-T} xi) = q^{-2/d} P(xi), so the dropped tail is a geometric series.
    """
    J = _truncation_depth(profile, x, tol)
    out = np.ones(len(x))
    cur = x
    B = profile.contraction
    for _ in range(J + 1):
        out *= mu(profile, cur)
        cur = cur @ B.T
    return out


@_pointwise
def phi_hat(profile: SpectralProfile, x: np.ndarray, tol: float | None = None,
            order: int | None = None) -> np.ndarray:
    """phi_hat^m(xi) = (G(xi)/P(xi))^m M(xi)^m, truncated below tol as M_eval is.

    Evaluated in the telescoped form of the module docstring.  The origin
    returns 1 and exact nonzero lattice points return 0.  Values are
    nonnegative up to the rounding of m0 next to its zeros (about 1e-16).
    """
    m = profile.m if order is None else order
    if m < 0:
        raise ValueError("order must be >= 0")
    J = _truncation_depth(profile, x, tol)
    B = profile.contraction
    base = np.ones(len(x))
    cur = x
    for _ in range(J + 1):
        cur = cur @ B.T
        base *= profile.m0.eval_real(cur)
    far = np.sum(cur * cur, axis=1) >= LIMIT_RADIUS ** 2
    base[far] *= (trigpoly.eval_G_stable(profile.Q2, cur[far])
                  / matana.eval_P(profile.Q2, cur[far]))
    # Exact lattice points: clamp the rounding dust of the vanishing factors.
    eta, k = _reduce_torus(x)
    lattice = np.max(np.abs(eta), axis=1) == 0.0
    base[lattice] = np.all(k[lattice] == 0, axis=1)
    return base ** m


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


def _mu_grid(profile: SpectralProfile, grid_n: int):
    """Yield (rows, mu(rows)) over the grid_n^d grid on [-pi, pi)^d, in C order.

    The grid is the tensor product of one linspace axis, on which sin(x/2)^2
    and sin x are tabulated once.  It is walked in blocks of at most
    GRID_BLOCK rows, each gathering its G(eta) from the tables, so memory
    stays flat in grid_n.  The grid needs no torus reduction, holds only
    finite rows, and its one row below LIMIT_RADIUS is the origin, which gets
    mu's limit 1.  Each value is mu's up to the row-dependent rounding of the
    BLAS products (about an ulp).
    """
    d = profile.d
    axis_vals = np.linspace(-math.pi, math.pi, grid_n, endpoint=False)
    s2_axis = np.sin(0.5 * axis_vals) ** 2
    sx_axis = np.sin(axis_vals)
    # An axis value is exactly 0 or at least an ulp of pi away from it, so
    # only the all-zero row can fall below LIMIT_RADIUS.
    zero = np.flatnonzero(axis_vals == 0.0)
    origin = int(zero[0]) * sum(grid_n ** k for k in range(d)) if len(zero) else -1
    n_points = grid_n ** d
    for start in range(0, n_points, GRID_BLOCK):
        stop = min(start + GRID_BLOCK, n_points)
        idx = np.stack(np.unravel_index(np.arange(start, stop), (grid_n,) * d), axis=-1)
        rows = axis_vals[idx]
        G_eta = trigpoly.G_from_sines(profile.Q2, s2_axis[idx], sx_axis[idx])
        at_origin = start <= origin < stop
        if at_origin:
            G_eta[origin - start] = 1.0  # G(0) = 0; the row is overwritten below
        vals = _mu_direct(profile, rows, G_eta)
        if at_origin:
            vals[origin - start] = 1.0
        yield rows, vals


def estimate_B(profile: SpectralProfile, grid_n: int = 256, refine_iters: int = 12) -> float:
    """Estimate B = sup mu over the torus by dense grid plus local refinement.

    mu is 2 pi periodic, so the grid covers [-pi, pi)^d; _mu_grid evaluates it
    from per-axis sine tables in blocks of GRID_BLOCK rows.  Refinement runs
    coordinate-wise golden-section sweeps around the first grid maximum.  The
    result is monotone in the observed values (never below the grid max).
    """
    if grid_n < 32:
        raise ValueError("grid_n must be >= 32")
    d = profile.d
    best = -math.inf
    for block, vals in _mu_grid(profile, grid_n):
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
