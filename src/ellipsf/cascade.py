"""Cascade evaluation of scaling functions on refined lattices A^{-J} Z^d.

Starting values on the integer lattice are the eigenvalue-1 eigenvector of the
transition matrix T[j, k] = c_{A j - k}, found with one linear solve of the
bordered system [[T - I, 1], [1^T, 0]] [v; s] = [0; 1]: the sum rules make
1^T a left eigenvector of T for eigenvalue 1, so the solution is that
eigenvector normalized to sum 1, and the bordered matrix is singular exactly
when eigenvalue 1 is not algebraically simple.  Each refinement level then
reads the two-scale relation phi(x) = sum_k c_k phi(A x - k) off the coarser
level with exact index arithmetic (x = A^{-J} j keeps every lookup on the
lattice, so the cascade itself never interpolates).

Grids are stored densely over the integer index bounding box of the support
region; entries outside the support parallelogram stay 0, which doubles as
the zero extension used by stencils.  The geometry of a level is exact
integer arithmetic: with D = q^J, the matrix M = D A^{-J} is an integer
matrix, so the point of index j is the rational x = M j / D, it lies in the
support box exactly when D lo <= M j <= D hi, and its float coordinates are
one correctly rounded division each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .digits import int_adjugate
from .errors import ConfigError, NoConvergence, NonSimpleEigenvalue, NumericalBreakdown
from .matana import DilationMatrix, int_det
from .trigpoly import RefinementCoefficients

# Eigenvalue 1 counts as simple while the bordered matrix M stays 1/_EIG_TOL
# away from singular: a lower bound on the 2-norm of M^{-1}, from fixed
# right-hand sides cos(f i) at these frequencies f, must not pass
# MAX_INVERSE_NORM.  The bound is at most 40 on the worked fixtures and on C3
# up to m = 2, where the norm itself is at most 458.  (Cosines, not random
# vectors: numpy.random costs a lazy import of several MB.)
_EIG_TOL = 1e-6
MAX_INVERSE_NORM = 1.0 / _EIG_TOL
_PROBE_FREQUENCIES = (1.0, math.sqrt(2.0), math.sqrt(3.0))
# v is an eigenvector for eigenvalue 1 when |s| and |T v - v| stay below this
# times max |v|; on the fixtures and on C3 up to m = 4 they stay below 1e-14.
_EIGEN_RESIDUAL_TOL = 1e-10

# Largest dense grid (index bounding box) a level may take.  A grid keeps 8
# bytes a cell (float64 values), and 1 more once its mask is read; a
# refinement step also holds the coarser level and a temporary of its size,
# about 16 bytes a cell at the peak for q = 2 (tracemalloc), so 2^24 cells
# peak near 0.3 GB.  The benchmark's largest grid, A3 at m = 2 and J = 11,
# has 805 809 cells; C3 at m = 2 and J = 3 has 33 825.
MAX_GRID_CELLS = 1 << 24
# Largest bordered transition matrix, 8 (n + 1)^2 bytes, that integer_values
# may allocate (its solve factors a copy): C3's phi^4, n = 7,745, takes 480 MB;
# the 4-D quincunx pair's phi^2, n = 53,049, would take 22.5 GB.
MAX_TRANSITION_BYTES = 1 << 30
# (row, shift) pairs per block of LatticeGrid.shifts.  Beside the result a
# block holds its d axis positions, bounds mask, flat positions and values,
# about 8 (d + 3) bytes a pair: 2.6 MB at d = 2.
SHIFT_BLOCK = 1 << 16
# (tap, box point) pairs per block of transition_matrix.  A block holds their
# d int64 positions and three masks, 8 d + 3 bytes a pair: 19 MB at d = 2.
_PAIR_BLOCK = 1 << 20

@dataclass(frozen=True)
class SupportBox:
    """Axis-aligned integer box [lo, hi] containing supp(phi)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo


def support_box(A: DilationMatrix, rc: RefinementCoefficients) -> SupportBox:
    """Bounding box of the fixed point of Omega -> A^{-1}(Omega + supp c).

    Accumulates the Minkowski sum of the images A^{-j} supp(c) exactly
    (bounding boxes of Minkowski sums add), which converges geometrically at
    rate q^{-1/d}.  The result is rounded outward to integers.
    """
    total = abs(sum(rc.c.values()))
    if abs(total - rc.q) > 1e-6 * rc.q:
        raise ValueError("refinement coefficients must sum to q")
    d = rc.d
    K = np.array(sorted(rc.c), dtype=float).reshape(len(rc.c), d)
    Ainv = A.inv
    lo = np.zeros(d)
    hi = np.zeros(d)
    ratio = A.q ** (-1.0 / A.d)
    V = K.copy()
    extent = math.inf
    for _ in range(1000):
        V = V @ Ainv.T
        step_lo = V.min(axis=0)
        step_hi = V.max(axis=0)
        lo += step_lo
        hi += step_hi
        extent = max(np.max(np.abs(step_lo)), np.max(np.abs(step_hi)))
        if extent < 1e-9 * 1e-2:
            break
    else:
        raise NoConvergence("support box iteration did not contract")
    tail = 4.0 * extent * ratio / (1.0 - ratio)
    lo_int = np.floor(lo - tail + 1e-9).astype(np.int64)
    hi_int = np.ceil(hi + tail - 1e-9).astype(np.int64)
    return SupportBox(lo_int, hi_int)


@dataclass
class LatticeGrid:
    """Values of phi on A^{-J} Z^d restricted to the support box.

    `data` is dense over the index bounding box with `offset` mapping index
    vectors to array positions.  The in-box index points j, those whose point
    x = A^{-J} j = M j / D (`numerators`) lies in the box, are read off one integer
    interval per line of the last axis (`lines`); `inside`, their mask over
    `data`, is built from the intervals when it is first read, so the levels
    of a cascade never build one.  quadrature_weight = q^{-J} = |det A^{-J}|.
    """

    J: int
    A: DilationMatrix
    box: SupportBox
    offset: np.ndarray
    data: np.ndarray

    @property
    def quadrature_weight(self) -> float:
        return float(self.A.q) ** (-self.J)

    @cached_property
    def numerators(self) -> tuple[np.ndarray, int]:
        """(M, D): D = q^J and the int64 matrix M = D A^{-J}, so the point of
        index j is exactly x = M j / D.

        A^{-J} = adj(A)^J / det(A)^J with det A = +-q, so M = (sign det A)^J
        adj(A)^J, formed in exact integers and checked against M A^J = D I.
        Raises ConfigError when some (M j)_c over the stored index range could
        reach 2^53: below that every numerator, and every sum of the interval
        arithmetic, is exact in int64 and in float64, so M j / D is one
        correctly rounded division.
        """
        A, J = self.A, self.J
        sign = 1 if int_det(A.entries) > 0 else -1
        M = sign ** J * np.linalg.matrix_power(np.array(int_adjugate(A.entries), dtype=object), J)
        D = A.q ** J
        if not np.array_equal(M @ np.linalg.matrix_power(A.entries.astype(object), J),
                              D * np.eye(A.d, dtype=np.int64)):
            raise AssertionError(f"adj(A)^{J} is not q^{J} A^-{J}")
        reach = np.maximum(np.abs(self.offset), np.abs(self.offset + self.data.shape - 1))
        bound = max(np.abs(M) @ reach.astype(object))
        if bound >= 2 ** 53:
            raise ConfigError(f"level J={self.J} has lattice numerators up to {bound}; "
                              f"at most 2^53 are exact")
        return M.astype(np.int64), D

    @cached_property
    def lines(self) -> tuple[np.ndarray, ...]:
        """(line, heads, first, begins) for the lines of the last axis that
        meet the box, in lexicographic order: each line's position among all
        lines of `data`, its first d - 1 index coordinates, the first in-box
        j_d, and the running count of in-box points before it (one entry
        more, ending with the total).

        On the line j = (h, t), M j = M' h + m t with m the last column of
        M, and D lo <= M j <= D hi holds for one interval of integers t: the
        bounds are exact floor and ceiling quotients.
        """
        M, D = self.numerators
        shape, d = self.data.shape, self.A.d
        heads = (np.indices(shape[:-1], dtype=np.int64).reshape(d - 1, math.prod(shape[:-1])).T
                 + self.offset[:-1])
        base = heads @ M[:, :-1].T
        first = np.full(len(heads), self.offset[-1])
        last = first + shape[-1] - 1
        for c, m in enumerate(M[:, -1].tolist()):
            low, high = D * int(self.box.lo[c]) - base[:, c], D * int(self.box.hi[c]) - base[:, c]
            if m == 0:
                last[(low > 0) | (high < 0)] = self.offset[-1] - 1
                continue
            if m < 0:
                low, high = high, low
            np.maximum(first, -(-low // m), out=first)
            np.minimum(last, high // m, out=last)
        count = last - first + 1
        line = np.flatnonzero(count > 0)
        begins = np.concatenate([[0], np.cumsum(count[line])])
        return line, heads[line], first[line], begins

    @cached_property
    def inside(self) -> np.ndarray:
        """Mask over `data` of the in-box index points."""
        line, _, first, begins = self.lines
        n = self.data.shape[-1]
        t = np.arange(n) + self.offset[-1]
        inside = np.zeros((self.data.size // n, n), dtype=bool)
        inside[line] = (t >= first[:, None]) & (t < (first + np.diff(begins))[:, None])
        return inside.reshape(self.data.shape)

    @property
    def npoints(self) -> int:
        """Number of in-box index points."""
        return int(self.lines[-1][-1])

    def rows(self, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(j, flat) for the in-box points start .. stop - 1 in lexicographic
        order: their index vectors (n, d) and their positions in data.ravel()."""
        line, heads, first, begins = self.lines
        r = np.arange(start, self.npoints if stop is None else stop)
        k = np.searchsorted(begins, r, side="right") - 1
        t = first[k] + (r - begins[k])
        j = np.empty((len(r), self.A.d), dtype=np.int64)
        j[:, :-1] = heads[k]
        j[:, -1] = t
        return j, line[k] * self.data.shape[-1] + (t - self.offset[-1])

    @property
    def index_points(self) -> np.ndarray:
        """In-box integer index vectors j, lexicographic order."""
        return self.rows()[0]

    @property
    def values(self) -> np.ndarray:
        return self.data.ravel()[self.rows()[1]]

    def cartesian_points(self) -> np.ndarray:
        """x = A^{-J} j = M j / D for the in-box indices: the nearest doubles
        to the exact rationals."""
        M, D = self.numerators
        return (self.index_points @ M.T) / D

    def lookup(self, idx) -> np.ndarray:
        """Values at integer index vectors (N, d); 0 outside the stored range."""
        return self.shifts(np.atleast_2d(idx), np.zeros((1, self.A.d), dtype=np.int64))[:, 0]

    def shifts(self, idx, ks) -> np.ndarray:
        """(N, K) matrix of phi(A^{-J} j - k) for index vectors j (N, d) and shifts k (K, d).

        A^{-J} j - k = A^{-J} (j - A^J k) stays on the lattice.  Each entry is
        read at its flat position in `data`, in blocks of whole rows with
        about SHIFT_BLOCK entries, so memory beyond the result stays flat.
        """
        pos = np.asarray(idx, dtype=np.int64) - self.offset
        steps = np.asarray(ks, dtype=np.int64) @ self.A.power(self.J).T
        flat, shape = self.data.ravel(), self.data.shape
        out = np.empty((len(pos), len(steps)))
        rows = max(1, SHIFT_BLOCK // max(1, len(steps)))
        for start in range(0, len(pos), rows):
            axes = [p[:, None] - s for p, s in zip(pos[start:start + rows].T, steps.T)]
            ok = np.logical_and.reduce([(a >= 0) & (a < n) for a, n in zip(axes, shape)])
            at = np.ravel_multi_index(axes, shape, mode="clip")
            out[start:start + rows] = np.where(ok, flat[at], 0.0)
        return out

    def value_at_index(self, j) -> float:
        return float(self.lookup(np.asarray(j, dtype=np.int64)[None, :])[0])

    def mass(self) -> float:
        """Quadrature approximation of the integral of phi (tends to 1)."""
        return float(self.data.sum()) * self.quadrature_weight

    def query(self, x) -> tuple[float, bool]:
        """Value at an arbitrary point, with an `approximate` label.

        On-lattice points return the stored value and False; anything else is
        multilinear interpolation in index space at this level and is flagged
        True, since phi has no closed form between lattice points.
        """
        u = self.A.power(self.J).astype(float) @ np.asarray(x, dtype=float)
        nearest = np.round(u)
        if np.all(np.abs(u - nearest) < 1e-12):  # each coordinate on its own
            return self.value_at_index(nearest.astype(np.int64)), False
        base = np.floor(u).astype(np.int64)
        frac = u - base
        corners = np.array(list(np.ndindex(*(2,) * len(u))), dtype=np.int64)
        vals = self.lookup(base + corners)
        weights = np.prod(np.where(corners == 1, frac, 1.0 - frac), axis=1)
        return float(vals @ weights), True


def grid_bounds(A: DilationMatrix, box: SupportBox, J: int):
    """Index bounding box of the level-J grid over `box`: (lo_idx, shape).

    Counted in exact integers, so a deep level cannot overflow int64 into a
    small count; raises ConfigError past MAX_GRID_CELLS.
    """
    AJ = np.linalg.matrix_power(A.entries.astype(object), J)
    corners = np.stack(np.meshgrid(*zip(box.lo, box.hi), indexing="ij"), axis=-1).reshape(-1, A.d)
    idx_corners = corners.astype(object) @ AJ.T
    lo = idx_corners.min(axis=0)
    shape = tuple(int(h - l + 1) for l, h in zip(lo, idx_corners.max(axis=0)))
    cells = math.prod(shape)
    if cells > MAX_GRID_CELLS:
        raise ConfigError(f"level J={J} needs a grid of {cells} cells; "
                          f"at most {MAX_GRID_CELLS} are allowed")
    return np.array(lo, dtype=np.int64), shape


def _empty_grid(A: DilationMatrix, box: SupportBox, J: int) -> LatticeGrid:
    """Zero level-J grid over the index bounding box of `box`."""
    lo_idx, shape = grid_bounds(A, box, J)
    return LatticeGrid(J, A, box, lo_idx, np.zeros(shape))


def transition_matrix(A: DilationMatrix, rc: RefinementCoefficients, box: SupportBox):
    """T[j, k] = c_{A j - k} restricted to the box points that can carry a value.

    Built a block of taps at a time: for each c_k of the block the in-box
    columns A j - k of all box points j are found at once, so the work is
    (taps x points), not points^2, and a block holds about _PAIR_BLOCK
    (tap, point) pairs.  Then every point whose row has no nonzero entry on
    the surviving set is dropped, as a row and as a column, until the set
    stops changing.

    The pruning is exact for the eigenvalue-1 problem.  Listing the pruned
    points in the order they were removed, then the kept set K, puts T in the
    form [[N, 0], [*, T_KK]] with N strictly block lower triangular, hence
    nilpotent.  So spec(T) = spec(T_KK) with extra zeros, eigenvalue 1 keeps
    its algebraic multiplicity, and the eigenvector vanishes on every pruned
    point (Cavaretta, Dahmen and Micchelli, Stationary Subdivision, 1991).

    Returns (T, pts): the dense matrix over the kept points and those points
    as an (n, d) int64 array in lexicographic order.  T is the leading block
    of a zero (n + 1) x (n + 1) array, T.base, which integer_values borders in
    place, so no second copy of T is made.  Raises ConfigError before that
    array is allocated when it would pass MAX_TRANSITION_BYTES.
    """
    shape = tuple(int(w) + 1 for w in box.widths)
    box_pts = np.indices(shape).reshape(A.d, -1).T + box.lo
    n = len(box_pts)
    Aj_lo = box_pts @ A.entries.T - box.lo
    K = np.array([k for k, ck in rc.c.items() if ck != 0], dtype=np.int64).reshape(-1, A.d)
    C = np.array([ck for ck in rc.c.values() if ck != 0], dtype=float)
    rows, cols, vals = [], [], []
    step = max(1, _PAIR_BLOCK // max(1, n))
    for start in range(0, len(K), step):
        pos = Aj_lo - K[start:start + step, None, :]
        ok = (pos[..., 0] >= 0) & (pos[..., 0] < shape[0])
        for c in range(1, A.d):
            ok &= (pos[..., c] >= 0) & (pos[..., c] < shape[c])
        tap, row = np.nonzero(ok)
        rows.append(row)
        cols.append(np.ravel_multi_index(tuple(pos[tap, row].T), shape))
        vals.append(C[start + tap])
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
    nbytes = 8 * (n + 1) ** 2
    if nbytes > MAX_TRANSITION_BYTES:
        raise ConfigError(f"the transition matrix keeps n={n} points, so its bordered matrix "
                          f"needs {nbytes} bytes; at most {MAX_TRANSITION_BYTES} are allowed")
    T = np.zeros((n + 1, n + 1))[:n, :n]
    T[new_index[rows], new_index[cols]] = vals
    return T, box_pts[keep]


def integer_values(A: DilationMatrix, rc: RefinementCoefficients,
                   box: SupportBox | None = None) -> LatticeGrid:
    """Values of phi on Z^d: the eigenvalue-1 eigenvector of T, summing to 1.

    Solves the bordered system [[T - I, 1], [1^T, 0]] [v; s] = [0; 1] of the
    module docstring, so sum_k phi(k) = 1, matching phi_hat(0) = 1.  Box
    points pruned from T hold 0.

    Raises NonSimpleEigenvalue when the bordered matrix is singular, or near
    singular: solving fixed extra right-hand sides in the same call bounds
    the 2-norm of its inverse from below, and a bound past MAX_INVERSE_NORM
    counts.  That happens when eigenvalue 1 is not simple, for masks whose
    solution is only a distribution, and must be reported rather than
    silently resolved.  Raises NumericalBreakdown when the solution is not an
    eigenvector (|s| or |T v - v| above _EIGEN_RESIDUAL_TOL max |v|): then
    1^T is no left eigenvector and T has no eigenvalue 1.
    """
    if box is None:
        box = support_box(A, rc)
    T, pts = transition_matrix(A, rc, box)
    n = len(pts)
    if n == 0:
        raise NumericalBreakdown("transition matrix is nilpotent: no eigenvalue 1")
    M = T.base
    M[:n, n] = 1.0
    M[n, :n] = 1.0
    T[np.arange(n), np.arange(n)] -= 1.0  # T now holds T - I
    rhs = np.zeros((n + 1, 1 + len(_PROBE_FREQUENCIES)))
    rhs[n, 0] = 1.0
    rhs[:, 1:] = np.cos(np.outer(np.arange(n + 1), _PROBE_FREQUENCIES))
    try:
        X = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonSimpleEigenvalue("bordered transition matrix is singular: "
                                  "eigenvalue 1 is not simple") from exc
    inv_norm = float(np.max(np.linalg.norm(X[:, 1:], axis=0)
                            / np.linalg.norm(rhs[:, 1:], axis=0)))
    if not inv_norm <= MAX_INVERSE_NORM:
        raise NonSimpleEigenvalue(
            f"bordered transition matrix is near singular (inverse norm >= "
            f"{inv_norm:.2e}, above {MAX_INVERSE_NORM:.0e}): eigenvalue 1 is not simple")
    v, s = X[:n, 0], float(X[n, 0])
    residual = max(abs(s), float(np.max(np.abs(T @ v))))
    if not residual <= _EIGEN_RESIDUAL_TOL * np.max(np.abs(v)):
        raise NumericalBreakdown(
            f"transition matrix has no eigenvalue 1: bordered solution has "
            f"|s|, |Tv - v| up to {residual:.2e}")
    grid = _empty_grid(A, box, 0)
    grid.data[tuple((pts - grid.offset).T)] = v
    return grid


def scatter_taps(dst: LatticeGrid, src: LatticeGrid, shifts: np.ndarray, weights) -> LatticeGrid:
    """dst[j] += w * src[j - s] for each tap: s a row of the (taps, d) int64
    `shifts`, w its weight.  Returns dst.

    The overlaps of all taps come from one vectorized step, then one slice add
    per tap, in tap order.  Contributions outside dst's stored range are exact
    zeros of the refinement algebra and are dropped.
    """
    lo = np.maximum(dst.offset, src.offset + shifts)
    hi = np.minimum(dst.offset + dst.data.shape, src.offset + shifts + src.data.shape)
    meets = np.all(hi > lo, axis=1).tolist()
    bounds = zip((lo - dst.offset).tolist(), (hi - dst.offset).tolist(),
                 (lo - shifts - src.offset).tolist(), (hi - shifts - src.offset).tolist())
    for w, ok, (dlo, dhi, slo, shi) in zip(weights, meets, bounds):
        if ok:
            view = dst.data[tuple(map(slice, dlo, dhi))]
            view += w * src.data[tuple(map(slice, slo, shi))]
    return dst


def refine(A: DilationMatrix, rc: RefinementCoefficients, grid: LatticeGrid) -> LatticeGrid:
    """One subdivision step: level J values to level J + 1.

    new[j] = sum_k c_k old[j - A^J k]; all index arithmetic exact.  Realized
    as one scatter: each tap adds a shifted copy of the coarse array.
    """
    shifts = np.array(list(rc.c), dtype=np.int64).reshape(-1, A.d) @ A.power(grid.J).T
    return scatter_taps(_empty_grid(A, grid.box, grid.J + 1), grid, shifts, rc.c.values())


def coarsen(grid: LatticeGrid) -> LatticeGrid:
    """Level J - 1 values read off a level-J grid: A^{-(J-1)} l = A^{-J} (A l)."""
    if grid.J < 1:
        raise ValueError("a level-0 grid has no coarser level")
    A = grid.A
    out = _empty_grid(A, grid.box, grid.J - 1)
    idx = np.indices(out.data.shape).reshape(A.d, -1).T + out.offset
    out.data[...] = grid.lookup(idx @ A.entries.T).reshape(out.data.shape)
    return out


def sample_phi(A: DilationMatrix, rc: RefinementCoefficients, box: SupportBox, J: int) -> LatticeGrid:
    """Cascade the function with coefficients rc and support box to level J;
    an oversize level raises ConfigError first."""
    if J < 0:
        raise ValueError("need J >= 0")
    grid_bounds(A, box, J)
    grid = integer_values(A, rc, box)
    for _ in range(J):
        grid = refine(A, rc, grid)
    return grid
