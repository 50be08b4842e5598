"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: coefficients
come from FFT sampling of closed-form expressions, masks also from the
expanded product of exactly shifted copies of G, spline values from their
piecewise formulas, coset arithmetic from exact rationals, the cascade's
scatter from one slice add per tap, the transition build from one pass per
tap, the support mask from float points and the convolution check's
rectangle sums from FFT autoconvolutions of the level-J grid.  The
Fourier-side checks are kept as they were written before they batched their
spectral calls: one call per orbit point or per monomial.
"""

import cmath
import functools
import math
from fractions import Fraction
from itertools import product

import numpy as np

from ellipsf import cascade, properties, spectral
from ellipsf.errors import NumericalBreakdown
from ellipsf.trigpoly import REALNESS_TOL, TrigPoly


def fft_coeffs(func, d, N=16, tol=1e-13):
    """Fourier coefficients {k: c} of a trigonometric polynomial.

    Samples func on the uniform N^d grid of [0, 2pi)^d and reads the
    coefficients off the inverse FFT; exact (to rounding) whenever the
    maximal frequency is below N/2.  Convention: func(xi) = sum c_k e^{-i k.xi}.
    """
    axes = [2 * np.pi * np.arange(N) / N for _ in range(d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.asarray(func(grid), dtype=complex)
    coeff_grid = np.fft.ifftn(vals)
    out = {}
    for idx, c in np.ndenumerate(coeff_grid):
        if abs(c) <= tol:
            continue
        k = tuple(i - N if i > N // 2 else i for i in idx)
        # ifftn gives coefficients of e^{+i k.xi}; flip to the e^{-i k.xi} convention.
        out[tuple(-v for v in k)] = complex(c)
    return out


def coeff_dict_dist(a, b):
    keys = set(a) | set(b)
    return max(abs(complex(a.get(k, 0)) - complex(b.get(k, 0))) for k in keys)


def hat(x):
    """Centered linear B-spline (degree 1)."""
    return np.maximum(0.0, 1.0 - np.abs(x))


def cubic_bspline(x):
    """Centered cardinal cubic B-spline on [-2, 2]."""
    a = np.abs(np.asarray(x, dtype=float))
    return np.where(a <= 1, (4 - 6 * a ** 2 + 3 * a ** 3) / 6,
                    np.where(a <= 2, (2 - a) ** 3 / 6, 0.0))


def sinc_squared(xi):
    """FT of the centered hat: sin^2(xi/2) / (xi/2)^2 with the limit at 0."""
    xi = np.asarray(xi, dtype=float)
    out = np.ones_like(xi)
    nz = xi != 0
    out[nz] = np.sin(xi[nz] / 2) ** 2 / (xi[nz] / 2) ** 2
    return out


# The mask as it was built before it was sampled: the product of q - 1 copies
# of G, each shifted by 2 pi s with exact phases, expanded as complex
# coefficient maps {k: c_k}, and its n-th power taken the same way.  Past
# q = 25 the cancellation in the expanded complex product loses the mask
# (imaginary residue 1.0e-11 at 6I), so it serves as the reference on the
# fixtures only.

def _turns(s, coeffs):
    """(n, D) with s = n / D exactly: D the common denominator of rational s,
    whose length must be the dimension of the frequencies of coeffs."""
    d = len(next(iter(coeffs)))
    if len(s) != d:
        raise ValueError(f"rational argument has wrong dimension {len(s)}, expected {d}")
    s = [Fraction(c) for c in s]
    D = math.lcm(*(c.denominator for c in s))
    return tuple(c.numerator * (D // c.denominator) for c in s), D


def _phase(num, den):
    """exp(-2 pi i num/den), exact for the dyadic values 0, 1/2, 1/4, 3/4."""
    r = num % den
    if r == 0:
        return 1.0 + 0.0j
    if 2 * r == den:
        return -1.0 + 0.0j
    if 4 * r == den:
        return -1.0j
    if 4 * r == 3 * den:
        return 1.0j
    return cmath.exp(-2j * math.pi * (r / den))


def eval_at_two_pi(coeffs, s):
    """p(2 pi s) for p's coefficient map and exact rational s, with compensated sums."""
    n, D = _turns(s, coeffs)
    terms = [c * _phase(sum(ki * ni for ki, ni in zip(k, n)), D) for k, c in coeffs.items()]
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def shift_argument(coeffs, t):
    """The coefficient map of p(xi + 2 pi t) for exact rational t: c_k *= e^{-2 pi i k.t}."""
    n, D = _turns(t, coeffs)
    return {k: c * _phase(sum(ki * ni for ki, ni in zip(k, n)), D) for k, c in coeffs.items()}


def coeff_product(a, b):
    """The coefficient map of the product of two polynomials, from theirs.

    Frequencies add and coefficients convolve in the order of the two maps;
    exact zeros and the terms at or below 1e-14 of the largest are dropped,
    the rule build_mask prunes by.
    """
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    top = max(map(abs, out.values()), default=0.0)
    return {k: c for k, c in out.items() if c != 0 and abs(c) > 1e-14 * top}


def coeff_power(coeffs, n, d):
    """The coefficient map of p^n, as n products with coeff_product."""
    out = {(0,) * d: 1.0}
    for _ in range(n):
        out = coeff_product(out, coeffs)
    return out


def realify(coeffs):
    """coeffs with the imaginary parts dropped; they must be below REALNESS_TOL."""
    worst = max((abs(c.imag) for c in coeffs.values()), default=0.0)
    if worst > REALNESS_TOL:
        raise NumericalBreakdown(f"imaginary residue {worst:.3e} above {REALNESS_TOL:.1e}")
    return {k: c.real for k, c in coeffs.items() if c.real != 0}


def dict_product_mask(A, G, ds, n=1):
    """The coefficient map of m0^n from the expanded product of shifted copies of G."""
    shifts = ds.nonzero_S()
    den = math.prod(eval_at_two_pi(G.coeffs, s).real for s in shifts)
    num = {(0,) * G.d: 1.0}
    for s in shifts:
        num = coeff_product(num, shift_argument(G.coeffs, s))
    return coeff_power(realify({k: c * (1.0 / den) for k, c in num.items()}), n, G.d)


def map_frequencies(coeffs, M):
    """The coefficient map of p(M^T xi): each frequency k goes to M k."""
    M = np.asarray(M, dtype=np.int64)
    out = {}
    for k, c in coeffs.items():
        nk = tuple((M @ np.array(k, dtype=np.int64)).tolist())
        out[nk] = out.get(nk, 0) + c
    return out


def green_combination(profile):
    """Weights w with phi^m = sum_k w_k rho(. - k); these are exactly the
    coefficients of G^m, since phi_hat^m = G^m rho_hat."""
    return TrigPoly(profile.d, coeff_power(profile.G.coeffs, profile.m, profile.d))


def folded_sum_left_to_right(p, xi, quartic=False):
    """p.eval(xi), or p.quartic_form(xi) with quartic=True, at the rows of xi
    (N, d), with each row's sum taken over the folded terms one at a time, in
    ascending order of the representative, from p's coefficient map.

    The phases are the same matrix product of the rows with the frequencies,
    so the bits differ from the evaluator's only if its order of addition does.
    """
    reps = sorted({max(k, tuple(-v for v in k)) for k in p.coeffs})
    H = np.array(reps, dtype=np.int64).reshape(len(reps), p.d)
    ph = np.atleast_2d(np.asarray(xi, dtype=float)) @ H.T
    if quartic:
        ph *= ph
        ph *= ph
    else:
        ph = np.cos(ph)
    out = np.zeros(len(ph))
    for j, k in enumerate(reps):
        neg = tuple(-v for v in k)
        alpha = p.coeffs.get(k, 0.0) + p.coeffs.get(neg, 0.0) if any(k) else p.coeffs[k]
        out += ph[:, j] * alpha
    return out


# Closed forms of the worked masks, written exactly as displayed in the
# tables this library is checked against.

def mask_quincunx(xi):
    return 0.5 + 0.25 * np.cos(xi[..., 0]) + 0.25 * np.cos(xi[..., 1])


def mask_tr1_minus(xi):  # det 2, trace 1, Q2 = [[2,-1/2],[-1/2,1]]
    x, y = xi[..., 0], xi[..., 1]
    return 0.25 * (3 + 2 * np.cos(x) - np.cos(y) + 0.5 * np.sin(x) * np.sin(y))


def mask_tr1_plus(xi):  # det 2, trace 1, Q2 = [[2,1/2],[1/2,1]]
    x, y = xi[..., 0], xi[..., 1]
    return (3 + 2 * np.cos(x) + np.cos(y) + 0.5 * np.sin(x) * np.sin(y)) / 6.0


def mask_diag2(xi):  # 2I, det 4
    x, y = xi[..., 0], xi[..., 1]
    return ((2 + np.cos(x) + np.cos(y)) * (2 + np.cos(x) - np.cos(y))
            * (2 - np.cos(x) + np.cos(y))) / 16.0


def mask_univariate(xi):
    return (1 + np.cos(xi[..., 0])) / 2.0


REFERENCE_MASKS = {
    "A1": mask_quincunx,
    "A2": mask_tr1_minus,
    "A3": mask_tr1_plus,
    "A4": mask_diag2,
    "uni": mask_univariate,
}


# The scatter as it was written before cascade.scatter_taps: every tap finds
# its own overlap and adds its own slice.  Same adds in the same order, so
# the results must agree bit for bit.

def shift_accumulate(dst, src, shift, weight):
    """dst[j] += weight * src[j - shift] on the overlap of the index ranges."""
    shift = np.asarray(shift, dtype=np.int64)
    dshape = np.array(dst.data.shape, dtype=np.int64)
    sshape = np.array(src.data.shape, dtype=np.int64)
    lo = np.maximum(dst.offset, src.offset + shift)
    hi = np.minimum(dst.offset + dshape, src.offset + shift + sshape)
    if np.any(hi <= lo):
        return
    dsl = tuple(slice(int(a - o), int(b - o)) for a, b, o in zip(lo, hi, dst.offset))
    ssl = tuple(slice(int(a - o), int(b - o))
                for a, b, o in zip(lo - shift, hi - shift, src.offset))
    dst.data[dsl] += weight * src.data[ssl]


def refine_by_taps(A, rc, grid):
    """One subdivision step, one shift_accumulate call per tap."""
    out = cascade._empty_grid(A, grid.box, grid.J + 1)
    AJ = A.power(grid.J)
    for k, ck in rc.c.items():
        shift_accumulate(out, grid, AJ @ np.array(k, dtype=np.int64), ck)
    return out


def apply_stencil_by_taps(G, grid, k):
    """k applications of the stencil with G's taps, one call per tap."""
    taps = G.coeffs
    AJ = grid.A.power(grid.J)
    offs = np.array(list(taps), dtype=np.int64)
    out = grid
    for _ in range(k):
        box = cascade.SupportBox(out.box.lo + offs.min(axis=0),
                                 out.box.hi + offs.max(axis=0))
        nxt = cascade._empty_grid(grid.A, box, grid.J)
        for n, w in taps.items():
            shift_accumulate(nxt, out, AJ @ np.asarray(n, dtype=np.int64), w)
        out = nxt
    return out


def same_grid(a, b):
    """Bit-identical values (0.0 and -0.0 told apart), offset and mask."""
    return (np.array_equal(a.data.view(np.int64), b.data.view(np.int64))
            and np.array_equal(a.offset, b.offset) and np.array_equal(a.inside, b.inside))


# The Fourier-side checks as written before each made one batched spectral
# call, and the interpolating-mask test as q shifted copies of m0.

def non_decay_by_points(profile, J_max=4):
    """properties.check_non_decay with one M_eval call per orbit point."""
    worst = 0.0
    AT = profile.A.entries.T.astype(float)
    for s in profile.digits_AT.nonzero_S():
        sf = np.array([float(c) for c in s])
        ref = spectral.M_eval(profile, 2 * math.pi * sf)
        v = sf.copy()
        for _ in range(1, J_max + 1):
            v = AT @ v
            worst = max(worst, abs(spectral.M_eval(profile, 2 * math.pi * v) - ref))
    return worst


def strang_fix_by_monomials(profile):
    """properties.check_strang_fix with one phi_hat call per monomial."""
    d, step = profile.d, 1e-3
    nodes = list(range(-4, 5))
    ks = [k for k in product(range(-2, 3), repeat=d) if any(k)]
    worst = 0.0
    for n in properties._monomial_exponents(d, 2 * profile.m - 1):
        axes = [([0], np.ones(1)) if ni == 0
                else (nodes, properties._fd_weights(nodes, ni) / step ** ni) for ni in n]
        offs = np.array(list(product(*(a[0] for a in axes))), dtype=float)
        w = functools.reduce(np.multiply.outer, [a[1] for a in axes]).ravel()
        base = 2 * math.pi * np.array(ks, dtype=float)
        pts = (base[:, None, :] + step * offs[None, :, :]).reshape(-1, d)
        vals = spectral.phi_hat(profile, pts).reshape(len(ks), len(offs))
        worst = max(worst, float(np.max(np.abs(vals @ w))))
    return worst


def mask_is_interpolating_by_shifts(profile):
    """sum_s m0(xi + 2 pi s) over the digits of A^T is 1 at 16 seeded points."""
    xi = np.random.default_rng(11).uniform(-math.pi, math.pi, size=(16, profile.d))
    S = 2 * math.pi * np.array(profile.digits_AT.S, dtype=float)
    total = sum(profile.m0.eval(xi + s) for s in S)
    return bool(np.max(np.abs(total - 1.0)) <= 1e-12)


# The transition build as it was written before it took blocks of taps: one
# pass over the box points per tap.  Every (row, column) pair is unique, so
# the matrices must agree bit for bit.

def transition_matrix_by_taps(A, rc, box):
    """cascade.transition_matrix with one pass per tap."""
    shape = tuple(int(w) + 1 for w in box.widths)
    box_pts = np.indices(shape).reshape(A.d, -1).T + box.lo
    n = len(box_pts)
    Aj_lo = box_pts @ A.entries.T - box.lo
    rows, cols, vals = [], [], []
    for k, ck in rc.c.items():
        if ck == 0:
            continue
        pos = Aj_lo - np.asarray(k, dtype=np.int64)
        ok = np.all((pos >= 0) & (pos < shape), axis=1)
        rows.append(np.nonzero(ok)[0])
        cols.append(np.ravel_multi_index(tuple(pos[ok].T), shape))
        vals.append(np.full(len(rows[-1]), ck))
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    alive = np.ones(n, dtype=bool)
    while True:
        live = alive[rows] & alive[cols]
        rows, cols, vals = rows[live], cols[live], vals[live]
        nonzero_row = np.bincount(rows, minlength=n) > 0
        if np.array_equal(nonzero_row, alive):
            break
        alive = nonzero_row
    keep = np.nonzero(alive)[0]
    new_index = np.cumsum(alive) - 1
    n = len(keep)
    T = np.zeros((n, n))
    T[new_index[rows], new_index[cols]] = vals
    return T, box_pts[keep]


# The support mask as it was computed before the interval geometry: x = A^{-J}
# j summed from one float table j_i a_i per axis, a_i column i of the float
# inverse of A^J, and tested against the box with a 1e-9 slack.

def float_inside(A, box, J):
    lo_idx, shape = cascade.grid_bounds(A, box, J)
    cols = np.linalg.inv(A.power(J).astype(float)).T
    x = 0.0
    for i, (lo, n, a) in enumerate(zip(lo_idx, shape, cols)):
        axis_shape = (1,) * i + (n,) + (1,) * (A.d - 1 - i) + (A.d,)
        x = x + ((lo + np.arange(n))[:, None] * a).reshape(axis_shape)
    return np.all((x >= box.lo - 1e-9) & (x <= box.hi + 1e-9), axis=-1)


# The convolution check as written before it cascaded the level-0 defect:
# rectangle sums of the level-J and level-(J - 1) samples of phi^m, each from
# one FFT autoconvolution, against the cascade of phi^{2m}'s integer values.

def smooth_size(n):
    """Smallest 2^a 3^b 5^c >= n: a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())  # 2^a p35 >= n
            p35 *= 3
        p5 *= 5
    return best


def fft_autoconvolve(a):
    """Full linear convolution a * a, from one forward transform at the
    smallest 5-smooth length per axis that holds the 2n - 1 outputs."""
    shape = [2 * n - 1 for n in a.shape]
    fshape = [smooth_size(s) for s in shape]
    axes = list(range(a.ndim))
    fa = np.fft.rfftn(a, fshape, axes=axes)
    return np.fft.irfftn(fa * fa, fshape, axes=axes)[tuple(slice(s) for s in shape)]


def rectangle_sums(g, idx):
    """q^{-j} sum_k g[k] g[n - k] at the level-j index vectors n (rows of idx)."""
    conv = fft_autoconvolve(g.data) * g.quadrature_weight
    pos = idx - 2 * g.offset
    ok = np.all((pos >= 0) & (pos < np.array(conv.shape)), axis=1)
    out = np.zeros(len(idx))
    out[ok] = conv[tuple(pos[ok].T)]
    return out


def convolution_by_fft(profile, J):
    """properties.check_convolution from the level-J grid: (residual, raw)."""
    A, m = profile.A, profile.m
    g = cascade.sample_phi(A, *profile.refinement, J)
    g2m = cascade.sample_phi(A, *spectral.make_profile(A, 2 * m).refinement, J - 1)
    idx = g2m.index_points
    fine = rectangle_sums(g, idx @ A.entries.T)
    coarse = rectangle_sums(cascade.coarsen(g), idx)
    r = float(profile.q) ** (2 * m / profile.d)
    extrapolated = (r * fine - coarse) / (r - 1.0)
    return (float(np.max(np.abs(extrapolated - g2m.values))),
            float(np.max(np.abs(fine - g2m.values))))


def convolution_matches_fft(profile, J):
    """check_convolution's residual and raw deviation agree with
    convolution_by_fft's within 1e-13 of the scale of g_0 * g_0, on which
    both paths round (g_0 the integer values of phi^m)."""
    g0 = cascade.integer_values(profile.A, *profile.refinement)
    tol = 1e-13 * max(1.0, float(np.max(np.abs(g0.data)))) ** 2
    detail = {}
    got = properties.check_convolution(profile, J, grid0=g0, detail=detail)
    want, raw = convolution_by_fft(profile, J)
    return abs(got - want) <= tol and abs(detail["raw"] - raw) <= tol


# estimate_B's grid pass as it was before it skipped mirrored rows: mu on
# every row of the grid_n^d grid, whole last-axis lines in C order, and the
# first maximum by np.argmax over all of them.

def full_grid_mu(profile, grid_n):
    """spectral._mu_grid's values on every grid row, in C order."""
    mu_rows = spectral._mu_grid(profile, grid_n)
    n_lines = grid_n ** (profile.d - 1)
    per = max(1, 4096 // grid_n)
    return np.concatenate([mu_rows(np.arange(o, min(o + per, n_lines)), slice(0, grid_n))
                           for o in range(0, n_lines, per)])


def full_grid_estimate_B(profile, grid_n):
    """estimate_B from the first maximum over the whole grid, with its zoom."""
    vals = full_grid_mu(profile, grid_n)
    first = int(np.argmax(vals))
    return spectral._zoom(profile, grid_n, float(vals[first]), first)
