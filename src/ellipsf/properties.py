"""Property-verification harness.

Each check_* function measures one claimed property of a scaling function and
returns a residual; run_all executes the whole battery against a profile with
the pinned tolerances below and collects a PropertyReport.  Checks never panic
on a failing property: failures and skips are values in the report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import cascade, digits, operators, spectral
from .cascade import LatticeGrid, SupportBox
from .errors import ConfigError, DegreeTooHigh, NonSimpleEigenvalue
from .spectral import SpectralProfile
from .trigpoly import refinement_coefficients

# Pinned settings of run_all; verify.json prints each check's tolerance.  A
# tolerance is a ceiling on the residual, except the two floors
# (nonnegativity, positivity).
TOL_MASS = 1e-6
TOL_PARTITION = 1e-8
TOL_INTERPOLATION = 1e-10
TOL_NONNEGATIVITY = -1e-10
TOL_POSITIVITY = -1e-10
TOL_STRANG_FIX = 1e-6
TOL_REFINEMENT = 1e-8
NON_DECAY_FACTOR = 10  # non_decay's tolerance is this times truncation_tol
TOL_CONVOLUTION = 5e-3
TOL_OPERATOR = 1e-6
TOL_REPRODUCTION = 1e-5
POSITIVITY_GRID_N = 64
PARTITION_SAMPLES = 50


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial as a finite map multi-index -> coefficient."""

    terms: dict
    d: int

    @property
    def total_degree(self) -> int:
        return max((sum(k) for k, c in self.terms.items() if c != 0), default=0)

    def eval(self, x) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(len(pts))
        for k, c in self.terms.items():
            term = np.full(len(pts), float(c))
            for i, p in enumerate(k):
                if p:
                    term *= pts[:, i] ** p
            out += term
        return out

    @classmethod
    def from_terms(cls, d: int, *term_list) -> "Polynomial":
        return cls({tuple(k): float(c) for k, c in term_list}, d)


def _monomial_exponents(d: int, max_degree: int) -> list[tuple[int, ...]]:
    out = [k for k in product(range(max_degree + 1), repeat=d) if sum(k) <= max_degree]
    return sorted(out, key=lambda k: (sum(k), k))


# ---------------------------------------------------------------------------
# Finite differences (Fornberg weights) for the Strang-Fix check.

def _fd_weights(nodes, m: int) -> np.ndarray:
    """Weights of the m-th derivative at 0 on the given nodes (Fornberg)."""
    n = len(nodes)
    C = np.zeros((n, m + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(min(i, m), 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - nodes[i - 1] * C[i - 1, k]) / c2
                C[i, 0] = -c1 * nodes[i - 1] * C[i - 1, 0] / c2
            for k in range(min(i, m), 0, -1):
                C[j, k] = (nodes[i] * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = nodes[i] * C[j, 0] / c3
        c1 = c2
    return C[:, m]


# ---------------------------------------------------------------------------
# The span of the integer shifts.  Partition of unity, polynomial
# reproduction and approximation order read sum_k c_k phi(x - k) off one
# matrix of shifted values, LatticeGrid.shifts.

def _shifts_meeting(box: SupportBox, lo, hi) -> np.ndarray:
    """Integer shifts k whose translate k + box meets [lo, hi], lexicographic order."""
    ranges = [range(math.floor(l - bh), math.ceil(h - bl) + 1)
              for l, h, bl, bh in zip(lo, hi, box.lo, box.hi)]
    return np.array(list(product(*ranges)), dtype=np.int64).reshape(-1, len(ranges))


def _pick(count: int, n: int, seed: int) -> np.ndarray:
    """Up to n distinct positions in range(count), drawn with the seed."""
    return np.random.default_rng(seed).choice(count, size=min(n, count), replace=False)


def _sample(grid: LatticeGrid, n: int, seed: int, window: float = math.inf):
    """Up to n distinct in-box index vectors j with |A^{-J} j|_inf <= window,
    drawn with the seed, and their points A^{-J} j."""
    idx, x = grid.index_points, grid.cartesian_points()
    near = np.all(np.abs(x) <= window, axis=1)
    idx, x = idx[near], x[near]
    pick = _pick(len(idx), n, seed)
    return idx[pick], x[pick]


# ---------------------------------------------------------------------------
# Individual checks.

_PARTITION_MIN_J = 3
_NO_PARTITION_LEVEL = f"need J >= {_PARTITION_MIN_J}"


def check_partition_of_unity(grid: LatticeGrid, n_samples: int = PARTITION_SAMPLES,
                             seed: int = 0) -> float:
    """Max over sample points of |sum_k phi(x - k) - 1|."""
    if grid.J < _PARTITION_MIN_J:
        raise ValueError(_NO_PARTITION_LEVEL)
    idx = grid.index_points  # _sample's picks for an unbounded window, without points
    sel = idx[_pick(len(idx), n_samples, seed)]
    S = grid.shifts(sel, _shifts_meeting(grid.box, grid.box.lo, grid.box.hi))
    return max(abs(math.fsum(row) - 1.0) for row in S)


def check_total_positivity(profile: SpectralProfile,
                           grid_n: int = POSITIVITY_GRID_N) -> float:
    """Min of phi_hat over a [-6 pi, 6 pi]^d grid; totally positive means >= 0."""
    axes = [np.linspace(-6 * math.pi, 6 * math.pi, grid_n) for _ in range(profile.d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, profile.d)
    return float(np.min(spectral.phi_hat(profile, pts)))


def check_strang_fix(profile: SpectralProfile) -> float:
    """Max |D^n phi_hat(2 pi k)| over 0 < |k|_inf <= 2 and |n| <= 2m - 1.

    Derivatives are 4th-order central differences (9-point Fornberg stencils
    per axis with step 1e-3, tensorized for mixed orders).  phi_hat is
    evaluated once, at 2 pi k plus the union of the offsets the stencils
    use, and each stencil reads its own columns.
    """
    d, step = profile.d, 1e-3
    nodes = list(range(-4, 5))
    ks = [k for k in product(range(-2, 3), repeat=d) if any(k)]
    union: dict = {}  # offset -> its column
    stencils = []
    for n in _monomial_exponents(d, 2 * profile.m - 1):
        axes = [([0], np.ones(1)) if ni == 0 else (nodes, _fd_weights(nodes, ni) / step ** ni)
                for ni in n]
        cols = [union.setdefault(o, len(union)) for o in product(*(a[0] for a in axes))]
        stencils.append((cols, functools.reduce(np.multiply.outer, [a[1] for a in axes]).ravel()))
    base = 2 * math.pi * np.array(ks, dtype=float)
    offs = np.array(list(union), dtype=float)
    pts = (base[:, None, :] + step * offs[None, :, :]).reshape(-1, d)
    vals = spectral.phi_hat(profile, pts).reshape(len(ks), len(offs))
    return max(float(np.max(np.abs(vals[:, cols] @ w))) for cols, w in stencils)


def check_fourier_refinement(profile: SpectralProfile, n_samples: int = 100,
                             seed: int = 0) -> float:
    """Max relative residual of phi_hat(xi) = m0(A^{-T} xi)^m phi_hat(A^{-T} xi)."""
    pts = spectral._off_lattice_points(np.random.default_rng(seed), n_samples, profile.d)
    y = pts @ profile.contraction.T
    vals = spectral.phi_hat(profile, np.vstack([pts, y]))
    lhs = vals[:len(pts)]
    rhs = profile.m0.eval_real(y) ** profile.m * vals[len(pts):]
    return float(np.max(np.abs(lhs - rhs) / (np.abs(lhs) + 1e-15)))


def check_non_decay(profile: SpectralProfile, J_max: int = 4) -> float:
    """Spot check that M(2 pi (A^T)^J s) = M(2 pi s) along digit orbits.

    This is the testable form of M's failure to decay: it repeats its
    digit-point values at arbitrarily large lattice scales.  M is evaluated
    once, on the (q - 1)(J_max + 1) points of every nonzero digit's orbit.
    """
    AT = profile.A.entries.T.astype(float)
    orbits = []
    for s in profile.digits_AT.nonzero_S():
        v = np.array([float(c) for c in s])
        orbits.append(v)
        for _ in range(J_max):
            v = AT @ v
            orbits.append(v)
    M = spectral.M_eval(profile, 2 * math.pi * np.array(orbits)).reshape(-1, J_max + 1)
    return float(np.max(np.abs(M[:, 1:] - M[:, :1]), initial=0.0))


def check_interpolation(grid0: LatticeGrid) -> float:
    """Max |phi(k) - delta_{k,0}| on the integer points of the support box."""
    if grid0.J != 0:
        raise ValueError("needs the level-0 grid")
    delta = np.all(grid0.index_points == 0, axis=1)
    return float(np.max(np.abs(grid0.values - delta)))


def check_nonnegativity(grid: LatticeGrid) -> float:
    """Min value over the grid; lattice values of nonnegative-mask functions."""
    return float(np.min(grid.values))


_NO_COARSER_LEVEL = "need J >= 1: level J - 1 is the coarser Richardson level"
# At J = 0 the samples are integer points only.  There sum_k p(k) phi(n - k)
# is p convolved with a finite sequence summing to 1: a polynomial with the
# leading term of p for every p, so reproduction can only fail off Z^d.
_NO_OFF_INTEGER_LEVEL = ("need J >= 1: on integer points alone the "
                         "expected-failure candidate cannot fail")


def check_convolution(profile: SpectralProfile, J: int, grid0: LatticeGrid | None = None,
                      detail: dict | None = None) -> float:
    """Max deviation of phi^m * phi^m from cascade phi^{2m} on the level-(J-1) lattice.

    The rectangle sums S_j(x) = q^{-j} sum_k phi^m(A^{-j} k) phi^m(x - A^{-j} k)
    differ from the convolution integral only by the Poisson aliasing terms at
    2 pi (A^T)^j k, k != 0, which are O(h^{2m}) with h = q^{-j/d}.  One
    Richardson step (r S_J - S_{J-1}) / (r - 1), r = q^{2m/d}, removes that
    term.  Both sums are taken at the level-(J-1) points A^{-(J-1)} l =
    A^{-J} (A l).

    The sums are not formed from samples of phi^m.  A cascade level convolves
    the coarser one with the taps c_k at A^j k, and phi^{2m}'s taps are those
    convolved with themselves over q (the subdivision symbols multiply:
    Cavaretta, Dahmen and Micchelli, Stationary Subdivision, 1991).  So the
    defect S_j - phi^{2m} is the phi^{2m} cascade of E_0 = g_0 * g_0 -
    phi^{2m}|Z^d, g_0 the integer values of phi^m.  E_0 is one scatter over
    the nonzero entries of g_0 in lexicographic order, on a box holding
    phi^{2m}'s box and the support of g_0 * g_0, so none of it is dropped.
    Its level-(J-1) cascade is the coarse defect; one more level, of that
    cascade coarsened to level J - 2 (or of E_0 at J = 1), gives the fine
    defect at A l, so no level-J grid is formed.

    `grid0`, if given, holds the integer values of phi^m and stands in for
    their solve.  A dict passed as `detail` receives the raw deviation of
    S_J on the same points ("raw") and the factor ("r").
    """
    if J < 1:
        raise ValueError(_NO_COARSER_LEVEL)
    if grid0 is not None and grid0.J != 0:
        raise ValueError(f"grid0 is at level {grid0.J}, not 0")
    A, m = profile.A, profile.m
    g0 = grid0 if grid0 is not None else cascade.integer_values(A, *profile.refinement)
    rc2 = refinement_coefficients(profile.m0 ** (2 * m), profile.q)
    box2 = cascade.support_box(A, rc2)
    lo, shape = cascade.grid_bounds(A, box2, J - 1)  # an oversize level fails before the solve
    phi2 = cascade.integer_values(A, rc2, box2)
    box = SupportBox(np.minimum(box2.lo, 2 * g0.box.lo), np.maximum(box2.hi, 2 * g0.box.hi))
    E = cascade._empty_grid(A, box, 0)
    nonzero = g0.data != 0
    cascade.scatter_taps(E, g0, np.argwhere(nonzero) + g0.offset, g0.data[nonzero])
    at = phi2.offset - E.offset
    E.data[tuple(map(slice, at, at + phi2.data.shape))] -= phi2.data
    for _ in range(J - 1):
        E = cascade.refine(A, rc2, E)
    # The fine defect at the points A l, on E's level-(J-1) grid.
    F = (cascade.coarsen(cascade.refine(A, rc2, E)) if J == 1
         else cascade.refine(A, rc2, cascade.coarsen(E)))
    window = tuple(map(slice, lo - E.offset, lo - E.offset + shape))
    inside = LatticeGrid(J - 1, A, box2, lo, E.data[window]).inside  # box2's points
    fine, coarse = F.data[window][inside], E.data[window][inside]
    r = float(profile.q) ** (2 * m / profile.d)
    if detail is not None:
        detail.update(raw=float(np.max(np.abs(fine))), r=r)
    return float(np.max(np.abs((r * fine - coarse) / (r - 1.0))))


def check_polynomial_reproduction(profile: SpectralProfile, p: Polynomial,
                                  grid: LatticeGrid | None = None, seed: int = 3,
                                  sample=None):
    """Shift-sum r(x) = sum_k p(k) phi(x - k) tested for leading-term
    reproduction r = p + (degree < deg p) at 60 points of [-2, 2]^d.

    `sample`, if given, is _sample(grid, 60, seed, 2.0) drawn once by the
    caller.  Returns (leading_ok, residual_degree, fit_residual).  leading_ok
    is the verdict of a least-squares fit of r - p against monomials of lower
    degree; polynomials outside the operator null space are expected to fail
    it, and that expected failure is asserted by the caller.
    """
    if p.total_degree > 2 * profile.m + 1:
        raise DegreeTooHigh(f"degree {p.total_degree} exceeds 2m + 1 = {2 * profile.m + 1}")
    if grid is None:
        grid = cascade.sample_phi(profile.A, *profile.refinement, 5)
    d = profile.d
    sel, xs = sample if sample is not None else _sample(grid, 60, seed, 2.0)
    ks = _shifts_meeting(grid.box, [-2.0] * d, [2.0] * d)
    r = np.zeros(len(sel))
    for w, col in zip(p.eval(ks.astype(float)), grid.shifts(sel, ks).T):
        if w != 0.0:  # column by column, in shift order: S @ w would round differently
            r += w * col
    resid = r - p.eval(xs)
    expo = _monomial_exponents(d, p.total_degree - 1)
    V = np.prod(xs[:, None, :] ** np.array(expo, dtype=float).reshape(-1, d), axis=2)
    coef, *_ = np.linalg.lstsq(V, resid, rcond=None)
    fit_residual = float(np.max(np.abs(resid - V @ coef)))
    scale = float(np.max(np.abs(coef), initial=1.0))
    sig = [sum(e) for e, c in zip(expo, coef) if abs(c) > 1e-7 * scale]
    return fit_residual < 1e-5, max(sig, default=-1), fit_residual


def reproduction_cases(profile: SpectralProfile) -> list[tuple[Polynomial, bool]]:
    """Candidate polynomials with their expected reproduction verdicts.

    Degree <= 2m - 1 always reproduces (Strang-Fix); degree-2 null-space
    candidates of the order-m operator reproduce at m = 1; candidates with
    P(D)^m p != 0 beyond degree 2m - 1 must fail.
    """
    d, m = profile.d, profile.m
    Q2 = profile.Q2.Q2
    cases: list[tuple[Polynomial, bool]] = []
    one = Polynomial.from_terms(d, ((0,) * d, 1.0))
    x1 = Polynomial.from_terms(d, (tuple(1 if i == 0 else 0 for i in range(d)), 1.0))
    cases.append((one, True))
    cases.append((x1, True))
    if d == 1:
        if m == 1:
            cases.append((Polynomial.from_terms(1, ((2,), 1.0)), False))
        else:
            cases.append((Polynomial.from_terms(1, ((3,), 1.0)), True))
            cases.append((Polynomial.from_terms(1, ((2 * m,), 1.0)), False))
    elif d == 2:
        if m == 1:
            # Null space of q11 dxx + 2 q12 dxy + q22 dyy at degree 2.
            cases.append((Polynomial.from_terms(
                2, ((2, 0), 1.0), ((0, 2), -Q2[0, 0] / Q2[1, 1])), True))
            cases.append((Polynomial.from_terms(
                2, ((1, 1), 1.0), ((0, 2), -Q2[0, 1] / Q2[1, 1])), True))
            cases.append((Polynomial.from_terms(2, ((2, 0), 1.0), ((0, 2), 1.0)), False))
        else:
            cases.append((Polynomial.from_terms(2, ((3, 0), 1.0)), True))
            cases.append((Polynomial.from_terms(2, ((2 * m, 0), 1.0)), False))
    return cases


def check_approximation_order(profile: SpectralProfile, f=None):
    """Fitted slope of log L2 error of the best lattice approximant vs log h.

    The approximant is the discrete least-squares projection of f onto
    span{phi(A^J x - k)}, J = 2, 3, 4, which realizes the infimum over
    coefficients; the error, sampled on the level-(J + 3) points of
    [-3, 3]^d, should scale like h^{2m}.  Returns (slope, errors); slope is
    None when the error is at rounding level (f reproduced exactly).
    """
    d, levels, window, oversample = profile.d, (2, 3, 4), 3.0, 3
    if f is None:
        f = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))
    grid_r = cascade.sample_phi(profile.A, *profile.refinement, oversample)
    corners = np.array(list(product((-window, window), repeat=d)))
    errs = []
    for J in levels:
        AJr = profile.A.power(J + oversample)
        icorn = corners @ AJr.T
        ranges = [range(int(math.floor(c)), int(math.ceil(C)) + 1)
                  for c, C in zip(icorn.min(axis=0), icorn.max(axis=0))]
        N = np.array(list(product(*ranges)), dtype=np.int64)
        X = N @ np.linalg.inv(AJr.astype(float)).T
        keep = np.all(np.abs(X) <= window, axis=1)
        N, X = N[keep], X[keep]
        # Columns phi(A^J x - k) over the shifts whose support can meet the window.
        kc = corners @ profile.A.power(J).T
        D = grid_r.shifts(N, _shifts_meeting(grid_r.box, kc.min(axis=0), kc.max(axis=0)))
        # compress keeps D C-ordered (D[:, mask] would not), which fixes how D @ coef rounds.
        D = D.compress(np.any(D, axis=0), axis=1)
        target = f(X)
        coef, *_ = np.linalg.lstsq(D, target, rcond=None)
        res = target - D @ coef
        errs.append(math.sqrt(float(np.sum(res ** 2)) * profile.q ** (-(J + oversample))))
    if max(errs) < 1e-12:
        return None, errs
    hs = [profile.q ** (-J / d) for J in levels]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return slope, errs


# ---------------------------------------------------------------------------
# Harness.

@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    residual: float | None
    tolerance: float | None
    note: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "residual": self.residual,
                "tolerance": self.tolerance, "note": self.note}


@dataclass
class PropertyReport:
    matrix: list
    m: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {"matrix": self.matrix, "m": self.m, "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}


def _mask_is_interpolating(profile: SpectralProfile) -> bool:
    """sum_s m0(xi + 2 pi s) over the digits s of A^T is identically 1.

    The sum multiplies c_k by sum_s e^{-2 pi i k.s}, which is q for k in
    A Z^d and 0 elsewhere, so it is 1 exactly when q c_0 = 1 and q c_k = 0
    for the other k in A Z^d.  k is in A Z^d when adj(A) k = 0 mod det A,
    an exact test on the integer frequencies.
    """
    m0, q = profile.m0, profile.q
    adj = np.array(digits.int_adjugate(profile.A.entries), dtype=np.int64)
    on = np.all(m0.K @ adj.T % q == 0, axis=1)
    zero = ~np.any(m0.K[on], axis=1)
    return bool(np.any(zero)) and bool(np.all(np.abs(q * m0.C[on] - zero) <= 1e-12))


def run_all(profile: SpectralProfile, B: float, J: int = 5, seed: int = 0) -> PropertyReport:
    """Execute every check against the profile; failures are report entries.

    B is the supremum of mu from spectral.estimate_B; the riesz_basis check
    compares it with the paper's threshold.  The cascade checks run at level
    J on phi^m from profile.refinement, the convolution check from its
    integer values, and seed draws their sample points.
    """
    report = PropertyReport([[int(v) for v in row] for row in profile.A.entries], profile.m)
    # An oversize level is a bad request, not a property verdict: it raises
    # ConfigError here, before any check runs.
    grid = grid0 = grid_err = None
    try:
        rc, box = profile.refinement
        cascade.grid_bounds(profile.A, box, J)
        grid0 = grid = cascade.integer_values(profile.A, rc, box)
        for _ in range(J):
            grid = cascade.refine(profile.A, rc, grid)
    except ConfigError:
        raise
    except Exception as exc:
        grid_err = exc
        grid = grid0 = None

    def record(name, fn, tolerance, skip_reason=None, note=None, passes=None):
        """Run fn and file its residual; by default it passes at or below tolerance."""
        if skip_reason is not None:
            report.checks.append(CheckResult(name, "skip", None, tolerance, skip_reason))
            return
        try:
            residual = fn()
        except ConfigError:
            raise  # e.g. a truncation depth past spectral.MAX_DEPTH
        except NonSimpleEigenvalue as exc:
            report.checks.append(CheckResult(
                name, "skip", None, tolerance, f"NonSimpleEigenvalue: {exc}"))
            return
        except Exception as exc:  # aggregated, never panics
            report.checks.append(CheckResult(
                name, "fail", None, tolerance, f"{type(exc).__name__}: {exc}"))
            return
        ok = passes(residual) if passes else residual <= tolerance
        report.checks.append(CheckResult(
            name, "pass" if ok else "fail", float(residual), tolerance,
            note() if note else ""))

    # Riesz verdict first: it needs no cascade and fails honestly for
    # constructions that only exist as distributions.
    record("riesz_basis", lambda: B, None,
           passes=lambda _: bool(spectral.riesz_verdict(profile, B)[0]))

    skip = None if grid is not None else f"{type(grid_err).__name__}: {grid_err}"
    record("mass", lambda: abs(grid.mass() - 1.0), TOL_MASS, skip)
    record("partition_of_unity",
           lambda: check_partition_of_unity(grid, seed=seed), TOL_PARTITION,
           skip or (None if J >= _PARTITION_MIN_J else _NO_PARTITION_LEVEL))
    record("interpolation", lambda: check_interpolation(grid0), TOL_INTERPOLATION,
           skip or (None if _mask_is_interpolating(profile) and profile.m == 1
                    else "mask is not interpolating"))
    record("lattice_nonnegativity", lambda: check_nonnegativity(grid), TOL_NONNEGATIVITY,
           skip or (None if all(v >= -1e-15 for v in rc.c.values())
                    else "mask has negative coefficients"),
           passes=lambda r: r >= TOL_NONNEGATIVITY)
    record("total_positivity", lambda: check_total_positivity(profile), TOL_POSITIVITY,
           passes=lambda r: r >= TOL_POSITIVITY)
    record("strang_fix", lambda: check_strang_fix(profile), TOL_STRANG_FIX)
    record("fourier_refinement", lambda: check_fourier_refinement(profile, seed=seed),
           TOL_REFINEMENT)
    record("non_decay", lambda: check_non_decay(profile),
           NON_DECAY_FACTOR * profile.truncation_tol)
    conv: dict = {}
    record("convolution",
           lambda: check_convolution(profile, J, grid0=grid0, detail=conv),
           TOL_CONVOLUTION, skip or (None if J >= 1 else _NO_COARSER_LEVEL),
           lambda: (f"Richardson step from levels {J - 1} and {J} with "
                    f"r = {conv['r']:.17g}; raw level-{J} rectangle-rule "
                    f"deviation {conv['raw']:.17g} on the level-{J - 1} "
                    f"points") if conv else "")
    record("operator_relation",
           lambda: operators.verify_operator_relation(profile, 1), TOL_OPERATOR,
           None if profile.m >= 2 else "needs m >= 2 (k < m)")

    def reproduction():
        worst = 0.0
        sample = _sample(grid, 60, seed, 2.0)  # shared by the candidates
        for p, expect in reproduction_cases(profile):
            ok, _, fit = check_polynomial_reproduction(
                profile, p, grid=grid, seed=seed, sample=sample)
            if ok != expect:
                raise AssertionError(
                    f"degree-{p.total_degree} candidate: expected "
                    f"{'reproduction' if expect else 'failure'}, fit residual {fit:.3e}")
            if expect:
                worst = max(worst, fit)
        return worst
    record("polynomial_reproduction", reproduction, TOL_REPRODUCTION,
           skip or (None if J >= 1 else _NO_OFF_INTEGER_LEVEL))

    return report
