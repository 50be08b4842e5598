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
with (G/P)(eta) exp(h(eta)).  In one dimension phi_hat_1 = G/P exactly and h
vanishes identically, so there the closure is exact and the depth is 0.
Elsewhere the depth J is derived, not calibrated:
SpectralProfile.tail_bound bounds the log of the closure's error by
K P(eta)^2 from the mask and G alone, and each row takes its own J, the
smallest depth that takes this below tol at its own eta.  The rows are
ordered by depth once and each level multiplies in the factor for the rows
still active, so a row's value does not depend on the rest of its batch.

Threads: since a row's value does not depend on its batch, every batch is
cut into blocks of ROW_BLOCK rows, each ordered by depth on its own.  A
batch of at least 2 ROW_BLOCK rows runs its blocks on every CPU the process
may use (numpy releases the GIL in the cos sums and products); a smaller
batch, or a process with one CPU (e.g. under taskset -c 0), runs them in
turn on the calling thread.  The bits are the same either way.

estimate_B's grid pass is serial, and it evaluates mu on about half of the
grid (_half_torus_blocks): mu is even (G and every mask have c_k = c_{-k}),
and the pass gives a row with no coordinate at -pi the bits of its mirror,
so a row whose mirror comes earlier in C order cannot be the first maximum.
The rows with a coordinate at -pi are all evaluated, since their mirrors
are not on the grid.  So B and the row its zoom starts from are those of
the whole grid, to the bit.

Singularities: mu, G/P and G4/P have removable 0/0 points on 2 pi Z^d (resp.
at 0).  G is evaluated in its sin form, so the quotients stay exact next to
them; below LIMIT_RADIUS, where the squares underflow, their limits (1, 1
and 0) are used.  Query rows with a NaN or infinite coordinate give NaN.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import digits as digits_mod
from . import cascade, matana, trigpoly
from .errors import ConfigError, NotIsotropic, NumericalBreakdown
from .matana import DilationMatrix, QuadraticForm
from .trigpoly import RefinementCoefficients, TrigPoly

TWO_PI = 2.0 * math.pi
# pi to 50 digits: estimate_B's grid rows and phases are pi times exact
# rationals, rounded once from the exact (Fraction) or extended value.
_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510"
_PI, _PI_LD = Fraction(_PI_DIGITS), np.longdouble(_PI_DIGITS)
# |eta| below which mu, G/P and the closure return their limit 1: there the
# squares in the sin-form quotients underflow (at |eta| = 1e-160 they are off
# by 1e-3).
LIMIT_RADIUS = 1e-150
DEFAULT_TOL = 1e-9
# Rows per block of estimate_B's grid pass: a block's integer phases, table
# gathers and values are (rows,) arrays that stay near the CPU caches.
GRID_BLOCK = 1 << 14
# Rows per block of _closed_product.  Batches of fewer than two blocks' rows,
# or in a process with one CPU, run their blocks on the calling thread only.
ROW_BLOCK = 1 << 12
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
        if self.m == 1:
            return self.m0
        return trigpoly.build_mask(self.A, self.G, self.digits_AT, self.m)

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
        k, c = self.m0.K.astype(float), self.m0.C
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
            return [float(np.abs(poly.C) @ w ** n) for n in powers]

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


def _mu_direct(profile: SpectralProfile, eta: np.ndarray) -> np.ndarray:
    """q^{2/d} m0(B eta) G(B eta) / G(eta) for |eta| >= LIMIT_RADIUS."""
    B = profile.contraction
    Beta = eta @ B.T
    num = profile.m0.eval(Beta) * trigpoly.eval_G_stable(profile.Q2, Beta)
    return profile.q ** (2.0 / profile.d) * num / trigpoly.eval_G_stable(profile.Q2, eta)


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


def _truncation_depth(profile: SpectralProfile, x: np.ndarray, tol: float | None) -> np.ndarray:
    """Each row's depth: the smallest J >= 0 at which eta = B^{J+1} xi has
    K P(eta)^2 <= log(1 + tol) and P(eta) <= p_max (SpectralProfile.tail_bound).

    Then the closure moves that row's phi_hat_1 and M by a factor within
    [1/(1 + tol), 1 + tol].  A row's depth depends on its own P(xi) alone,
    never on the rest of the batch.  In one dimension the closure is exact
    (phi_hat_1 = G/P, h = 0), so every depth is 0 there.  Raises ConfigError
    when the deepest row's J exceeds MAX_DEPTH or P overflows on a row.
    """
    if tol is None:
        tol = profile.truncation_tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    if profile.d == 1:
        return np.zeros(len(x), dtype=np.int64)
    P = matana.eval_P(profile.Q2, x)
    pmax = float(np.max(P)) if len(x) else 0.0
    if not math.isfinite(pmax):
        raise ConfigError(f"P(xi) = {pmax} for a finite query row: no truncation "
                          f"depth reaches tol {tol:.3g}")
    K = mu_quadratic_constant(profile)
    reach = min(profile.tail_bound[1], math.sqrt(math.log1p(tol) / K))
    # P(B^{J+1} xi) = q^{-2(J+1)/d} P(xi); rows with P(xi) <= reach get 0.
    levels = np.log(np.maximum(P, reach) / reach) / math.log(profile.q ** (2.0 / profile.d))
    J = np.maximum(np.ceil(levels) - 1, 0).astype(np.int64)
    deepest = int(np.max(J, initial=0))
    if deepest > MAX_DEPTH:
        raise ConfigError(f"truncation depth {deepest} for tol {tol:.3g} exceeds "
                          f"MAX_DEPTH = {MAX_DEPTH}")
    return J


def _closure(profile: SpectralProfile, eta: np.ndarray, with_G_over_P: bool) -> np.ndarray:
    """exp(h(eta)), times (G/P)(eta) if with_G_over_P, for the rows of eta.

    Rows below LIMIT_RADIUS get the limit 1.  In one dimension h vanishes
    identically and is not evaluated, so the closure is exact at any depth.
    """
    out = np.ones(len(eta))
    far = np.sum(eta * eta, axis=1) >= LIMIT_RADIUS ** 2
    e = eta[far]
    P = matana.eval_P(profile.Q2, e)
    if profile.d > 1:
        h = (-0.5 * matana.quadratic_rows(e, profile.second_moment)
             - profile.G.quartic_form(e) / (24.0 * P))
        out[far] = np.exp(h)
    if with_G_over_P:
        out[far] *= trigpoly.eval_G_stable(profile.Q2, e) / P
    return out


def _closed_product(profile: SpectralProfile, x: np.ndarray, tol: float | None,
                    factor, start: int, with_G_over_P: bool) -> np.ndarray:
    """prod_{j = start..J + start} factor(B^j xi), closed by _closure at
    eta = B^{J+1} xi, for each row xi of x with its own depth J from
    _truncation_depth.

    The depths are taken for the whole batch first, so a depth past
    MAX_DEPTH raises before any product.  The batch is then cut into
    ROW_BLOCK-row blocks (_run_blocks), each a _product_rows call that writes
    its own rows of the output; on a batch of at least 2 ROW_BLOCK rows a
    pool of CPUs - 1 threads takes blocks beside the calling thread.  A
    row's value does not depend on the rest of its batch, so the output has
    the same bits at any CPU count.
    """
    J = np.broadcast_to(_truncation_depth(profile, x, tol), (len(x),))
    out = np.empty(len(x))
    _run_blocks(functools.partial(_product_rows, profile, x, J, out, factor, start,
                                  with_G_over_P), len(x), _cpu_count())
    return out


def _product_rows(profile: SpectralProfile, x: np.ndarray, J: np.ndarray, out: np.ndarray,
                  factor, start: int, with_G_over_P: bool, rows: slice) -> None:
    """_closed_product's value at x[rows], with the depths J[rows], into out[rows].

    The rows are ordered deepest first once, so the rows still active at a
    level are a prefix of the block: each level evaluates factor on those
    rows only, and a row leaves with its eta when its depth is reached.
    """
    x, J = x[rows], J[rows]
    # Depths are at most MAX_DEPTH, so int16 keys sort by radix.
    order = np.argsort(-J.astype(np.int16), kind="stable")
    # active[j] rows have depth >= j, for j = 0 .. max depth + 1.
    active = np.append(np.cumsum(np.bincount(J, minlength=1)[::-1])[::-1], 0)
    B = profile.contraction
    prod, eta = np.ones(len(x)), np.empty_like(x)
    cur = x.take(order, axis=0)
    for n, done in zip(active[:-1], active[1:]):
        nxt = cur[:n] @ B.T
        prod[:n] *= factor(nxt if start else cur[:n])
        eta[done:n] = nxt[done:]
        cur = nxt
    prod *= _closure(profile, eta, with_G_over_P)
    out[rows][order] = prod


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@functools.cache
def _executor(workers: int):
    """The pool of `workers` threads, created on first use.

    concurrent.futures is imported here, not at module level, so importing
    the package starts no thread and does not pay for that import.
    """
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="ellipsf-rows")


def _run_blocks(run, n_rows: int, cpus: int) -> None:
    """run(rows) on each ROW_BLOCK-row block of range(n_rows), on up to cpus threads.

    The calling thread takes the blocks in order from one shared iterator;
    on at least 2 ROW_BLOCK rows, up to cpus - 1 pool threads take from it
    too, and only then is the pool created.  After a block raises no block is
    started; every taker is waited for, then the error of the first failing
    block is raised.  A block must submit no pool work of its own, or it
    could wait on a pool thread that waits on it: so the split is made here,
    never in _pointwise, whose mu is M_eval's level factor.
    """
    blocks = range(0, n_rows, ROW_BLOCK)
    starts = iter(blocks)
    take = threading.Lock()
    errors = {}

    def drain():
        while not errors:
            with take:
                s = next(starts, None)
            if s is None:
                return
            try:
                run(slice(s, s + ROW_BLOCK))
            except BaseException as exc:  # re-raised by the caller
                errors[s] = exc

    helpers = []
    if n_rows >= 2 * ROW_BLOCK and cpus > 1:
        pool = _executor(cpus - 1)
        helpers = [pool.submit(drain) for _ in range(min(cpus, len(blocks)) - 1)]
    try:
        drain()
    finally:
        for h in helpers:
            h.result()
    if errors:
        raise errors[min(errors)]


@_pointwise
def M_eval(profile: SpectralProfile, x: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Infinite product M(xi) = prod_j mu((A^{-T})^j xi), to a relative tol.

    Each row multiplies out its first J + 1 factors, J its own depth from
    _truncation_depth, and closes the tail with exp(h(B^{J+1} xi)) (module
    docstring).  So a row's value does not depend on the rest of the batch.
    """
    return _closed_product(profile, x, tol, lambda y: mu(profile, y), start=0,
                           with_G_over_P=False)


@_pointwise
def phi_hat(profile: SpectralProfile, x: np.ndarray) -> np.ndarray:
    """phi_hat^m(xi) = (G(xi)/P(xi))^m M(xi)^m, phi_hat_1 to a relative truncation_tol.

    Evaluated in the telescoped form of the module docstring: each row takes
    the mask at B xi, ..., B^{J+1} xi, J its own depth from _truncation_depth,
    and closes with (G/P)(eta) exp(h(eta)) at eta = B^{J+1} xi.  So a row's
    value does not depend on the rest of the batch.  The origin returns 1 and
    exact nonzero lattice points return 0.  Values are nonnegative up to the
    rounding of m0 next to its zeros (about 1e-16).
    """
    base = _closed_product(profile, x, None, profile.m0.eval, start=1,
                           with_G_over_P=True)
    # Exact lattice points: clamp the rounding dust of the vanishing factors.
    eta, k = _reduce_torus(x)
    lattice = np.max(np.abs(eta), axis=1) == 0.0
    base[lattice] = np.all(k[lattice] == 0, axis=1)
    return base ** profile.m


def _turn_sines(n, D: int, cosine: bool = False, square: bool = False) -> np.ndarray:
    """sin(2 pi n / D), or cos with cosine=True, squared with square=True,
    for the integers n, each rounded once from extended precision.

    Each n is reduced exactly to an angle x in [0, pi/4] (the first octant)
    before its one sin or cos call, so multiples of a quarter turn give 0 and
    +-1 exactly and no entry carries the error of a large angle.  x, its sine
    or cosine and the square are taken in np.longdouble, so where that type
    is wider than a double an entry is the double nearest the exact value
    (short of a tie within the extended rounding).
    """
    t = (8 * np.asarray(n, dtype=np.int64) + (2 * D if cosine else 0)) % (8 * D)
    octant, r = np.divmod(t, D)
    x = _PI_LD / 4 * np.where(octant % 2 == 1, D - r, r).astype(np.longdouble) / D
    use_cos = (octant + 1) & 2 != 0
    out = np.empty(x.shape, dtype=np.longdouble)
    np.sin(x, out=out, where=~use_cos)
    np.cos(x, out=out, where=use_cos)
    if square:
        return (out * out).astype(float)
    return np.negative(out, out=out, where=octant >= 4).astype(float)


def _phase_span(forms: np.ndarray, grid_n: int, L: int) -> tuple[int, int, bool]:
    """(start, size, wrap): the table span for the phases p = f . v of the
    rows f of forms at v in {-grid_n, -grid_n + 2, ..., grid_n - 2}^d.

    The span is those phases when they fit in fewer than L entries;
    otherwise (wrap) it is one period [0, L), which serves functions of p
    that are L-periodic.  So it holds at most min(L, phase range) entries.
    """
    ends = np.stack([-grid_n * forms, (grid_n - 2) * forms])
    lo = int(ends.min(axis=0).sum(axis=1).min())
    hi = int(ends.max(axis=0).sum(axis=1).max())
    if hi - lo >= L:
        return 0, L, True
    return lo, hi - lo + 1, False


def _tabulate(fill, start: int, size: int) -> np.ndarray:
    """fill(p) for the integers p in [start, start + size), GRID_BLOCK at a time."""
    out = np.empty(size)
    for s in range(0, size, GRID_BLOCK):
        p = np.arange(start + s, start + min(s + GRID_BLOCK, size))
        out[s:s + len(p)] = fill(p)
    return out


def _grid_row(index: int, grid_n: int, d: int) -> np.ndarray:
    """Row `index` (C order) of the grid: the doubles nearest pi (2 i - grid_n) / grid_n."""
    return np.array([float(_PI * Fraction(2 * int(i) - grid_n, grid_n))
                     for i in np.unravel_index(index, (grid_n,) * d)])


def _mu_grid(profile: SpectralProfile, grid_n: int):
    """mu_rows(lines, j): mu on the rows of the grid_n^d grid on [-pi, pi)^d
    that lie on the given last-axis lines at the last-axis indices j.

    A line is numbered by its indices on the first d - 1 axes in C order, so
    row (o, i_d) of line o is o N + i_d in C order; in one dimension the one
    line is 0.  lines is an increasing int array and j a slice, and mu_rows
    returns len(lines) x len(j) values, flat, in C order.  _grid_row gives
    the rows.  The tables are set up once, here.

    With N = grid_n, row i is eta = pi v / N on each axis, v = 2 i - N.
    W = q A^{-T} is an integer matrix (sign(det A) times A's cofactors), so
    B eta = 2 pi u / L with the integer vector u = W v and L = 2 q N, and
    every phase mu needs is an integer mod L: the sin-form arguments of
    G(B eta) are the u_c, and the phases of m0(B eta) are h . u over its
    folded frequencies h.  Each is a linear form f . v of the row, and a
    table of its sin, sin^2 or cos (_phase_span, _tabulate) is read at an
    index summed from a per-line part and a last-axis part.  G(eta) reads
    per-axis tables.  So a row costs an integer add and a gather per phase,
    and no sin, cos or matrix product; m0's terms are summed pairwise.  The
    values are mu's at the exact rational points, each table entry the
    double nearest its exact value (_turn_sines), and a row's value does not
    depend on the other rows of the call.

    mu is even, and so is this pass, to the bit, on the rows with no index 0
    (no coordinate at -pi): the mirror -v of such a row is a grid row whose
    integer phases are the negated ones, the sin tables are exactly odd and
    the sin^2 and cos tables exactly even (_turn_sines reduces p and -p to
    one angle), and the sums run in the same order.

    Memory stays flat in grid_n: a table holds at most min(L, phase range)
    entries, O(q N) for the phases and N per axis, and a call's arrays at
    most (forms) x its rows.  The only row with G(eta) = 0 is the origin
    (even N), which gets mu's limit 1.
    """
    d, q, N = profile.d, profile.q, grid_n
    L = 2 * q * N
    Q2 = profile.Q2.Q2
    cross = any(Q2[i, j] != 0 for i in range(d) for j in range(i + 1, d))
    # G(eta) per axis: sin^2(eta / 2) and sin(eta) at eta = pi v / N.
    s2_axis = _tabulate(lambda i: _turn_sines(2 * i - N, 4 * N, square=True), 0, N)
    sx_axis = _tabulate(lambda i: _turn_sines(2 * i - N, 2 * N), 0, N) if cross else None
    # G(B eta): sin^2(pi u_c / L) and sin(2 pi u_c / L) at u = W v.
    W = np.rint(q * profile.contraction).astype(np.int64)
    if not np.array_equal(W @ profile.A.entries.T, q * np.eye(d, dtype=np.int64)):
        raise NumericalBreakdown("q A^{-T} does not round to the integer matrix it is")
    u_start, u_size, u_wrap = _phase_span(W, N, L)
    S2 = _tabulate(lambda p: _turn_sines(p, 2 * L, square=True), u_start, u_size)
    S1 = _tabulate(lambda p: _turn_sines(p, L), u_start, u_size) if cross else None
    # m0(B eta): cos(2 pi h . u / L) over the nonzero folded h; an even mask
    # is its folded cosine sum.
    H, a = profile.m0.folded
    forms = H @ W
    live = forms.any(axis=1)
    const = float(np.sum(a[~live]))
    forms, a = forms[live], a[live]
    m_start, m_size, m_wrap = _phase_span(forms, N, L)
    C = _tabulate(lambda p: _turn_sines(p, L, cosine=True), m_start, m_size)
    scale = q ** (2.0 / d)
    # The origin's line and last-axis index (even N only).
    origin = divmod(N // 2 * sum(N ** k for k in range(d)), N) if N % 2 == 0 else None

    def mu_rows(lines: np.ndarray, j: slice) -> np.ndarray:
        # The lines' indices on the first d - 1 axes, as columns.
        heads = [i[:, None] for i in np.unravel_index(lines, (N,) * (d - 1))] if d > 1 else []

        def index(F, start, wrap):
            """Table indices (forms, rows) of the phases f . v at the rows."""
            head = sum(F[:, ax, None, None] * (2 * i - N) for ax, i in enumerate(heads)) - start
            tail = F[:, -1, None] * (2 * np.arange(j.start, j.stop) - N)
            if wrap:  # both parts mod L; a negative index wraps to the table's end
                head, tail = head % L - L, tail % L
            return (head + tail[:, None, :]).reshape(len(F), -1)

        def mask_sum(lo, hi):
            """Sum of a cos over the mask terms lo..hi-1, pairwise."""
            if hi - lo > 1:
                mid = (lo + hi) // 2
                return mask_sum(lo, mid) + mask_sum(mid, hi)
            return a[lo] * C.take(index(forms[lo:hi], m_start, m_wrap)[0])

        u = index(W, u_start, u_wrap)
        num = trigpoly.sin_form(Q2, S2.take(u), S1.take(u) if cross else [])
        m0 = mask_sum(0, len(forms)) + const
        den = trigpoly.sin_form(
            Q2, [s2_axis[i] for i in heads] + [s2_axis[j]],
            [sx_axis[i] for i in heads] + [sx_axis[j]] if cross else []).ravel()
        at = None
        if origin is not None and j.start <= origin[1] < j.stop:
            hit = np.flatnonzero(lines == origin[0])
            if len(hit):
                at = int(hit[0]) * (j.stop - j.start) + origin[1] - j.start
                den[at] = 1.0  # G(0) = 0; the row is overwritten below
        vals = scale * (m0 * num) / den
        if at is not None:
            vals[at] = 1.0
        return vals

    return mu_rows


def _half_torus_blocks(grid_n: int, d: int):
    """(lines, j) blocks for _mu_grid's mu_rows that cover every grid row
    which can hold the grid's first maximum.

    Row i is mirrored by the row (N - i) mod N, N = grid_n.  The blocks hold
    every row with i_1 <= N // 2 (a prefix of the grid in C order) and every
    row with i_1 > N // 2 and some other index 0.  A row left out has
    i_1 > N // 2 and no index 0, so its mirror is a row of the prefix with
    no index 0, earlier in C order, where _mu_grid gives the same value to
    the bit.  Rows with an index 0 (a coordinate at -pi) are all kept: their
    mirrors have a coordinate at +pi, which is not on the grid.  That is
    (N // 2 + 1) N^{d-1} rows of the prefix and a few more: 50.6 % of a
    256^2 grid and 51.5 % of a 128^3 one.

    The prefix comes first, in C order.  Past it, the lines with an index 0
    on axes 2 .. d - 1 are taken whole (none when d <= 2), then the others
    at i_d = 0 only.  Each block holds at most GRID_BLOCK rows, its rows in
    increasing C order: whole lines, or a piece of one line when
    N > GRID_BLOCK.
    """
    N = grid_n
    if d == 1:  # the one line, up to its middle row
        parts = [(np.zeros(1, dtype=np.int64), N // 2 + 1)]
    else:
        front = (N // 2 + 1) * N ** (d - 2)
        back = np.arange(front, N ** (d - 1))
        whole = np.zeros(len(back), dtype=bool)
        for i in np.unravel_index(back, (N,) * (d - 1))[1:]:
            whole |= i == 0
        parts = [(np.arange(front), N), (back[whole], N), (back[~whole], 1)]
    for lines, width in parts:
        per_block = max(1, GRID_BLOCK // width)
        for b0 in range(0, len(lines), per_block):
            for j0 in range(0, width, GRID_BLOCK):
                yield lines[b0:b0 + per_block], slice(j0, min(j0 + GRID_BLOCK, width))


def _zoom(profile: SpectralProfile, grid_n: int, best: float, best_at: int) -> float:
    """estimate_B's zoom from the grid maximum best at the C-order row best_at."""
    best_x = _grid_row(best_at, grid_n, profile.d)
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


def estimate_B(profile: SpectralProfile, grid_n: int = 256) -> float:
    """Estimate B = sup mu over the torus by a dense grid plus a batched zoom.

    mu is 2 pi periodic, so the grid covers [-pi, pi)^d, at the exact points
    pi (2 i - grid_n) / grid_n on each axis; _mu_grid evaluates it from
    tables of exact integer phases in blocks of at most GRID_BLOCK rows.
    mu is even, so only the rows of _half_torus_blocks are evaluated, about
    half the grid: every row left out has a mirror earlier in C order with
    the same value to the bit, so the maximum and the row of its first
    occurrence are those of the whole grid.  The zoom starts at that row
    (the nearest doubles to it) with the step h of one grid cell.  Each
    round evaluates mu on the 3^d points best + h {-1, 0, 1}^d in one call,
    moves to their maximum if it beats the best value so far, and halves h,
    so it moves at most 2 cells in all.  The result is never below the grid
    max.
    """
    if grid_n < 32:
        raise ValueError("grid_n must be >= 32")
    if grid_n ** profile.d > cascade.MAX_GRID_CELLS:
        raise ConfigError(f"grid_n={grid_n} needs a B grid of {grid_n ** profile.d} "
                          f"points; at most {cascade.MAX_GRID_CELLS} are allowed")
    mu_rows = _mu_grid(profile, grid_n)
    best, best_at = -math.inf, -1
    for lines, j in _half_torus_blocks(grid_n, profile.d):
        vals = mu_rows(lines, j)
        i = int(np.argmax(vals))  # the block's first maximum
        line, k = divmod(i, j.stop - j.start)
        at = int(lines[line]) * grid_n + j.start + k
        # The first maximum in C order wins, as np.argmax over the whole grid.
        if vals[i] > best or (vals[i] == best and at < best_at):
            best, best_at = float(vals[i]), at
    return _zoom(profile, grid_n, best, best_at)


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
