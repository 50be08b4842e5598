"""Fourier-domain analysis of elliptic scaling functions.

Provides the correction factor mu, its infinite product M along the
contracting orbit of A^{-T}, the transform phi_hat = (G/P)^m M^m, the
supremum B of mu from a grid and a local zoom, and the resulting Riesz-basis
verdict with its decay exponent.

phi_hat is evaluated in its telescoped form.  With the contraction B = A^{-T},
P(B xi) = q^{-2/d} P(xi) gives
(G/P)(xi) prod_{j=0..J} mu(B^j xi) = (G/P)(B^{J+1} xi) prod_{j=1..J+1} m0(B^j xi),
which takes one mask evaluation per level.

Both products are closed at eta = B^{J+1} xi by the moments of phi rather
than cut off there.  Their exact tails are phi_hat_1(eta) for phi_hat and
M(eta) = phi_hat_1(eta) P(eta) / G(eta) for M, with
phi_hat_1(eta) = prod_{j>=1} m0(B^j eta).  Write V = sum_k c_k k k^T over the
mask's coefficients, so m0(z) = 1 - z^T V z / 2 + O(|z|^4), and let S solve
the Stein equation A S A^T - S = V (S is the second-moment matrix of phi;
Cavaretta, Dahmen and Micchelli, Stationary Subdivision, 1991).  Then
log phi_hat_1(eta) = -eta^T S eta / 2 + O(P(eta)^2), and with the quartic
Taylor term G4 of G = P + G4 + O(|eta|^6),

    h(eta) = -eta^T S eta / 2 - G4(eta) / P(eta)

is log M(eta) to O(P(eta)^2).  So M_eval closes with exp(h(eta)) and phi_hat
with (G/P)(eta) exp(h(eta)).  In one dimension phi_hat_1 = G/P exactly, and
h vanishes up to rounding.  The depth J is derived, not calibrated:
SpectralProfile.tail_bound bounds the log of the closure's error by
K P(eta)^2 from the mask and G alone, and J is the smallest depth that takes
this below tol for every row of the batch.

Singularities: mu, G/P and G4/P have removable 0/0 points on 2 pi Z^d (resp.
at 0).  G is evaluated in its sin form, so the quotients stay exact next to
them; below LIMIT_RADIUS, where the squares underflow, their limits (1, 1
and 0) are used.  Query rows with a NaN or infinite coordinate give NaN.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import digits as digits_mod
from . import cascade, matana, trigpoly
from .errors import ConfigError, NotIsotropic
from .matana import DilationMatrix, QuadraticForm
from .trigpoly import RefinementCoefficients, TrigPoly

TWO_PI = 2.0 * math.pi
# |eta| below which mu, G/P and the closure return their limit 1: there the
# squares in the sin-form quotients underflow (at |eta| = 1e-160 they are off
# by 1e-3).
LIMIT_RADIUS = 1e-150
DEFAULT_TOL = 1e-9
# Rows per block of estimate_B's tensor grid pass: each block gathers its rows
# and their sines from the per-axis tables, and its (N, d) gathers and m0's
# (N, terms) phase array stay near the CPU caches.
GRID_BLOCK = 1 << 14
# Halvings of estimate_B's zoom step, from one grid cell down to 2^-26 cells.
ZOOM_ROUNDS = 27
# Deepest truncation of the infinite products; a tolerance or point that needs
# more levels is rejected rather than served at a depth that misses it.
MAX_DEPTH = 400


@dataclass(frozen=True)
class SpectralProfile:
    """Everything needed to evaluate one scaling function in the Fourier domain.

    Frozen: B and the Riesz verdict are values returned by estimate_B and
    riesz_verdict, not state of the profile.  The order m fixes phi^m, whose
    mask m0^m and refinement data are built on first use and kept.
    """

    A: DilationMatrix
    Q2: QuadraticForm
    G: TrigPoly
    m0: TrigPoly
    m: int
    digits_AT: digits_mod.DigitSet
    truncation_tol: float = DEFAULT_TOL

    @property
    def d(self) -> int:
        return self.A.d

    @property
    def q(self) -> int:
        return self.A.q

    @property
    def contraction(self) -> np.ndarray:
        return self.A.inv_T

    @functools.cached_property
    def mask(self) -> TrigPoly:
        """The order-m mask m0^m of phi^m."""
        return self.m0 ** self.m

    @functools.cached_property
    def refinement(self) -> tuple[RefinementCoefficients, cascade.SupportBox]:
        """phi^m's refinement coefficients and the support box they give."""
        rc = trigpoly.refinement_coefficients(self.mask, self.q)
        return rc, cascade.support_box(self.A, rc)

    @functools.cached_property
    def second_moment(self) -> np.ndarray:
        """S with A S A^T - S = V, where V = sum_k c_k k k^T over the mask m0.

        Then sum_{j>=1} (B^j eta)^T V (B^j eta) = eta^T S eta for B = A^{-T}.
        One d^2 x d^2 solve of (A kron A - I) vec S = vec V, which is
        nonsingular: every eigenvalue of A kron A has modulus q^{2/d} > 1.
        """
        k, c = self.m0.K.astype(float), self.m0.C.real
        A = self.A.entries.astype(float)
        d = self.d
        V = (k.T * c) @ k
        return np.linalg.solve(np.kron(A, A) - np.eye(d * d), V.ravel()).reshape(d, d)

    @functools.cached_property
    def tail_bound(self) -> tuple[float, float]:
        """(K, p_max): the log of the closure's error is at most K P(eta)^2
        wherever P(eta) <= p_max, for both products (module docstring).

        With w_k = k^T (Q^2)^{-1} k, Cauchy-Schwarz gives (k.z)^2 <= w_k P(z),
        and for real t, |1 - cos t - t^2/2| <= t^4/24 and
        |1 - cos t - t^2/2 + t^4/24| <= t^6/720.  For |u| <= 1/2,
        |log(1 - u) + u| <= u^2.

        Mask, at z = B^j eta, j >= 1, where P(z) = rho^j P(eta), rho = q^{-2/d}:
        u = 1 - m0(z) = z^T V z / 2 + r with |r| <= a4 P(z)^2 and
        |u| <= a2 P(z) + a4 P(z)^2, where a2 = sum |c_k| w_k / 2 and
        a4 = sum |c_k| w_k^2 / 24.  So |log m0(z) + z^T V z / 2| <=
        (a4 + (a2 + a4 P(z))^2) P(z)^2, and the sum over j >= 1 carries the
        factor rho^2 / (1 - rho^2).

        G, at eta: G / P = 1 + x with x = G4 / P + R6 / P, |G4| <= b4 P^2 and
        |R6| <= b6 P^3, where b4 = sum |g_k| w_k^2 / 24 and
        b6 = sum |g_k| w_k^3 / 720 over G's coefficients.  So
        |log(G / P) - G4 / P| <= (b6 + (b4 + b6 P)^2) P^2.

        p_max is the largest P(eta) at which these bounds keep |u| <= 1/2 at
        B eta and |x| <= 1/2 at eta; K takes both constants at p_max.
        """
        Q2_inv = np.linalg.inv(self.Q2.Q2)

        def weighted(poly, *powers):
            k = poly.K.astype(float)
            w = np.einsum("ni,ij,nj->n", k, Q2_inv, k)
            return [float(np.abs(poly.C.real) @ w ** n) for n in powers]

        def reach(lin, quad):
            """Largest p >= 0 with lin p + quad p^2 <= 1/2."""
            return 1.0 / (lin + math.sqrt(lin * lin + 2.0 * quad))

        c1, c2 = weighted(self.m0, 1, 2)
        g2, g3 = weighted(self.G, 2, 3)
        a2, a4, b4, b6 = c1 / 2.0, c2 / 24.0, g2 / 24.0, g3 / 720.0
        rho = self.q ** (-2.0 / self.d)
        p_max = min(reach(a2 * rho, a4 * rho * rho), reach(b4, b6))
        k_mask = a4 + (a2 + a4 * rho * p_max) ** 2
        k_G = b6 + (b4 + b6 * p_max) ** 2
        return k_mask * rho * rho / (1.0 - rho * rho) + k_G, p_max


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


def _off_lattice_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points drawn uniformly on [-4 pi, 4 pi]^d at torus distance > 0.3 from 2 pi Z^d.

    Candidates are drawn in batches of 4n and kept in draw order, so a given
    rng state always yields the same points.
    """
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-4 * math.pi, 4 * math.pi, size=(4 * n, d))
        eta, _ = _reduce_torus(cand)
        keep = np.linalg.norm(eta, axis=1) > 0.3
        pts.extend(cand[keep][: n - len(pts)])
    return np.array(pts)


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
    """The constant K of the closure's bound: see SpectralProfile.tail_bound."""
    return profile.tail_bound[0]


def _truncation_depth(profile: SpectralProfile, x: np.ndarray, tol: float | None) -> int:
    """Smallest J >= 0 at which eta = B^{J+1} xi has K P(eta)^2 <= log(1 + tol)
    and P(eta) <= p_max for every row xi of x (SpectralProfile.tail_bound).

    Then the closure moves phi_hat_1 and M by a factor within
    [1/(1 + tol), 1 + tol].  Raises ConfigError when J exceeds MAX_DEPTH or
    P overflows on a row.
    """
    if tol is None:
        tol = profile.truncation_tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    pmax = float(np.max(matana.eval_P(profile.Q2, x))) if len(x) else 0.0
    if not math.isfinite(pmax):
        raise ConfigError(f"P(xi) = {pmax} for a finite query row: no truncation "
                          f"depth reaches tol {tol:.3g}")
    K = mu_quadratic_constant(profile)
    reach = min(profile.tail_bound[1], math.sqrt(math.log1p(tol) / K))
    J = 0
    if pmax > reach:
        # P(B^{J+1} xi) = q^{-2(J+1)/d} P(xi).
        levels = math.log(pmax / reach) / math.log(profile.q ** (2.0 / profile.d))
        J = math.ceil(levels) - 1
    if J > MAX_DEPTH:
        raise ConfigError(f"truncation depth {J} for tol {tol:.3g} exceeds "
                          f"MAX_DEPTH = {MAX_DEPTH}")
    return J


def _closure(profile: SpectralProfile, eta: np.ndarray, with_G_over_P: bool) -> np.ndarray:
    """exp(h(eta)), times (G/P)(eta) if with_G_over_P, for the rows of eta.

    Rows below LIMIT_RADIUS get the limit 1.
    """
    out = np.ones(len(eta))
    far = np.sum(eta * eta, axis=1) >= LIMIT_RADIUS ** 2
    e = eta[far]
    P = matana.eval_P(profile.Q2, e)
    h = (-0.5 * np.einsum("ni,ij,nj->n", e, profile.second_moment, e)
         - profile.G.quartic_form(e) / (24.0 * P))
    out[far] = np.exp(h)
    if with_G_over_P:
        out[far] *= trigpoly.eval_G_stable(profile.Q2, e) / P
    return out


@_pointwise
def M_eval(profile: SpectralProfile, x: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Infinite product M(xi) = prod_j mu((A^{-T})^j xi), to a relative tol.

    The first J + 1 factors are multiplied out and the tail is closed with
    exp(h(B^{J+1} xi)) (module docstring); J comes from _truncation_depth.
    """
    J = _truncation_depth(profile, x, tol)
    out = np.ones(len(x))
    cur = x
    B = profile.contraction
    for _ in range(J + 1):
        out *= mu(profile, cur)
        cur = cur @ B.T
    return out * _closure(profile, cur, with_G_over_P=False)


@_pointwise
def phi_hat(profile: SpectralProfile, x: np.ndarray) -> np.ndarray:
    """phi_hat^m(xi) = (G(xi)/P(xi))^m M(xi)^m, phi_hat_1 to a relative truncation_tol.

    Evaluated in the telescoped form of the module docstring, closed with
    (G/P)(eta) exp(h(eta)) at eta = B^{J+1} xi.  The origin returns 1 and
    exact nonzero lattice points return 0.  Values are nonnegative up to the
    rounding of m0 next to its zeros (about 1e-16).
    """
    J = _truncation_depth(profile, x, None)
    B = profile.contraction
    base = np.ones(len(x))
    cur = x
    for _ in range(J + 1):
        cur = cur @ B.T
        base *= profile.m0.eval_real(cur)
    base *= _closure(profile, cur, with_G_over_P=True)
    # Exact lattice points: clamp the rounding dust of the vanishing factors.
    eta, k = _reduce_torus(x)
    lattice = np.max(np.abs(eta), axis=1) == 0.0
    base[lattice] = np.all(k[lattice] == 0, axis=1)
    return base ** profile.m


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


def estimate_B(profile: SpectralProfile, grid_n: int = 256) -> float:
    """Estimate B = sup mu over the torus by a dense grid plus a batched zoom.

    mu is 2 pi periodic, so the grid covers [-pi, pi)^d; _mu_grid evaluates it
    from per-axis sine tables in blocks of GRID_BLOCK rows.  The zoom starts
    at the first grid maximum with the step h of one grid cell.  Each round
    evaluates mu on the 3^d points best + h {-1, 0, 1}^d in one call, moves to
    their maximum if it beats the best value so far, and halves h, so it
    moves at most 2 cells in all.  The result is never below the grid max.
    """
    if grid_n < 32:
        raise ValueError("grid_n must be >= 32")
    if grid_n ** profile.d > cascade.MAX_GRID_CELLS:
        raise ConfigError(f"grid_n={grid_n} needs a B grid of {grid_n ** profile.d} "
                          f"points; at most {cascade.MAX_GRID_CELLS} are allowed")
    best = -math.inf
    for block, vals in _mu_grid(profile, grid_n):
        i = int(np.argmax(vals))
        if vals[i] > best:  # strict: the first maximum wins, as in np.argmax
            best, best_x = float(vals[i]), block[i].copy()
    steps = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=profile.d)))
    h = TWO_PI / grid_n
    # Near a smooth maximum mu falls off as h^2, so once h is sqrt(eps) of a
    # cell (2^-26) a further step changes mu below rounding.
    for _ in range(ZOOM_ROUNDS):
        pts = best_x + h * steps
        vals = mu(profile, pts)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_x = float(vals[i]), pts[i]
        h *= 0.5
    return best


def riesz_verdict(profile: SpectralProfile, B: float):
    """Riesz-basis test B < q^{2/d - 1/(2m)} plus the brute-force decay exponent.

    B is the supremum of mu, as estimate_B returns it.  Returns
    (riesz_ok, threshold, decay_exponent) with decay_exponent = m (d log_q B - 2).
    The comparison gets 1e-12 of slack toward failure so borderline estimates
    never pass by rounding.
    """
    exponent = 2.0 / profile.d - 1.0 / (2.0 * profile.m)
    threshold = profile.q ** exponent
    ok = B < threshold - 1e-12
    decay = profile.m * (profile.d * math.log(B) / math.log(profile.q) - 2.0)
    return ok, threshold, decay


def spectrum_report(profile: SpectralProfile, B: float, grid_n: int) -> dict:
    """JSON-ready summary used by the CLI `spectrum` command.

    B is estimate_B's value on the grid_n^d grid.
    """
    ok, threshold, decay = riesz_verdict(profile, B)
    return {
        "B": B,
        "threshold": threshold,
        "riesz_ok": ok,
        "decay_exponent": decay,
        "grid_n": grid_n,
        "tol": profile.truncation_tol,
    }
