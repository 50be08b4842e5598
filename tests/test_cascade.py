import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ellipsf import cascade, digits, spectral, trigpoly
from ellipsf.errors import ConfigError, NonSimpleEigenvalue, NumericalBreakdown
from ellipsf.trigpoly import RefinementCoefficients, TrigPoly, refinement_coefficients

import helpers
from conftest import MATRICES
from test_generalization import ZOO


def _rc(profile, m=1):
    """The refinement coefficients of phi^m, from the order-m mask."""
    return refinement_coefficients(
        trigpoly.build_mask(profile.A, profile.G, profile.digits_AT, m), profile.q)


def test_support_box_univariate_hat(profiles):
    p = profiles("uni")
    box = cascade.support_box(p.A, _rc(p))
    assert list(box.lo) == [-1] and list(box.hi) == [1]


def test_support_box_quincunx(profiles):
    p = profiles("A1")
    box = cascade.support_box(p.A, _rc(p))
    assert np.all(box.lo >= -2) and np.all(box.hi <= 2)


def test_support_box_delta():
    A = spectral.make_profile([[2]]).A
    rc = RefinementCoefficients({(0,): 2.0}, 2, 1)
    box = cascade.support_box(A, rc)
    assert list(box.lo) == [0] and list(box.hi) == [0]


def test_support_box_rejects_unnormalized(profiles):
    p = profiles("uni")
    with pytest.raises(ValueError):
        cascade.support_box(p.A, RefinementCoefficients({(0,): 1.0}, 2, 1))


def test_integer_values_hat(profiles):
    p = profiles("uni")
    g = cascade.integer_values(p.A, _rc(p))
    assert g.value_at_index([0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(g.value_at_index([1])) < 1e-12
    assert abs(g.value_at_index([-1])) < 1e-12


def test_integer_values_quincunx_delta(profiles):
    p = profiles("A1")
    g = cascade.integer_values(p.A, _rc(p))
    idx = g.index_points
    delta = np.all(idx == 0, axis=1).astype(float)
    assert np.max(np.abs(g.values - delta)) < 1e-10


def test_integer_values_diag_sum_one(profiles):
    p = profiles("A4")
    g = cascade.integer_values(p.A, _rc(p))
    assert math.fsum(g.values) == pytest.approx(1.0, abs=1e-12)


def test_integer_values_nonsimple_eigenvalue():
    # Haar-type weights: the box-function transition matrix is the identity
    # on {0, 1}, so eigenvalue 1 has multiplicity 2 and must be reported.
    A = spectral.make_profile([[2]]).A
    rc = RefinementCoefficients({(0,): 1.0, (1,): 1.0}, 2, 1)
    with pytest.raises(NonSimpleEigenvalue):
        cascade.integer_values(A, rc, cascade.SupportBox(np.array([0]), np.array([1])))


def test_integer_values_nearly_double_eigenvalue():
    # T = diag(1, 1 - 1e-8): the bordered matrix is invertible, but its inverse
    # has norm about 1e8, so eigenvalue 1 is reported as not simple.
    A = spectral.make_profile([[2]]).A
    rc = RefinementCoefficients({(0,): 1.0, (1,): 1.0 - 1e-8}, 2, 1)
    with pytest.raises(NonSimpleEigenvalue) as err:
        cascade.integer_values(A, rc, cascade.SupportBox(np.array([0]), np.array([1])))
    assert not isinstance(err.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("c, hi", [
    ({(0,): 0.5, (1,): 0.5}, 1),  # T = diag(1/2, 1/2): 1^T is no left eigenvector
    ({(1,): 1.0}, 0),             # T = [0]: pruned to nothing
])
def test_integer_values_without_eigenvalue_one(c, hi):
    A = spectral.make_profile([[2]]).A
    rc = RefinementCoefficients(c, 2, 1)
    with pytest.raises(NumericalBreakdown):
        cascade.integer_values(A, rc, cascade.SupportBox(np.array([0]), np.array([hi])))


def _literal_transition(A, rc, box):
    """T[j, k] = c_{A j - k} over every box point, pair by pair."""
    pts = [tuple(int(v) for v in p)
           for p in np.indices(tuple(box.widths + 1)).reshape(A.d, -1).T + box.lo]
    rows = [[int(v) for v in row] for row in A.entries]
    T = np.zeros((len(pts), len(pts)))
    for a, j in enumerate(pts):
        Aj = [sum(r * x for r, x in zip(row, j)) for row in rows]
        for b, k in enumerate(pts):
            T[a, b] = rc.c.get(tuple(u - v for u, v in zip(Aj, k)), 0.0)
    return T, pts


def _exact_bordered_solve(T):
    """v with [[T - I, 1], [1^T, 0]] [v; s] = [0; 1], in exact rationals."""
    n = len(T)
    M = [[Fraction(float(x)) - (i == j) for j, x in enumerate(row)] + [Fraction(1)]
         for i, row in enumerate(T)]
    M.append([Fraction(1)] * n + [Fraction(0)])
    b = [Fraction(0)] * n + [Fraction(1)]
    for c in range(n + 1):
        p = next(r for r in range(c, n + 1) if M[r][c] != 0)
        M[c], M[p], b[c], b[p] = M[p], M[c], b[p], b[c]
        for r in range(c + 1, n + 1):
            f = M[r][c] / M[c][c]
            if f:
                M[r] = [a - f * e for a, e in zip(M[r], M[c])]
                b[r] -= f * b[c]
    x = [Fraction(0)] * (n + 1)
    for r in range(n, -1, -1):
        x[r] = (b[r] - sum(M[r][k] * x[k] for k in range(r + 1, n + 1) if M[r][k])) / M[r][r]
    return x[:n]


M3 = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]  # companion matrix of x^3 - 2
EXACT_MAX_N = 100  # larger kept sets take seconds in exact arithmetic


@pytest.mark.parametrize("name,m", [(n, m) for n in ("A1", "A2", "A3", "A4", "uni")
                                    for m in (1, 2)] + [("C3", 1)])
def test_pruned_transition_matches_literal_definition(name, m, profiles):
    p = spectral.make_profile(M3) if name == "C3" else profiles(name)
    rc = _rc(p, m)
    box = cascade.support_box(p.A, rc)
    T_full, box_pts = _literal_transition(p.A, rc, box)
    lam, vecs = np.linalg.eig(T_full)
    v = vecs[:, np.argmin(np.abs(lam - 1.0))].real
    v = v / v.sum()

    T, pts = cascade.transition_matrix(p.A, rc, box)
    assert pts.dtype == np.int64 and pts.shape == (len(T), p.d)
    kept_pts = set(map(tuple, pts.tolist()))
    kept = np.array([j in kept_pts for j in box_pts])
    assert np.array_equal(T, T_full[np.ix_(kept, kept)])
    assert np.all(np.any(T != 0.0, axis=1))
    # a zero row on the surviving set forces v_j = 0, so pruning loses nothing
    assert np.all(v[~kept] == 0.0)

    g = cascade.integer_values(p.A, rc, box)
    ref = np.array([g.value_at_index(j) for j in box_pts])
    assert np.all(ref[~kept] == 0.0)
    if len(T) <= EXACT_MAX_N:
        exact = _exact_bordered_solve(T)
        assert max(abs(Fraction(float(a)) - b) for a, b in zip(ref[kept], exact)) < 1e-13
    else:
        # An eig reference is itself off by up to 1e-12 where the eigen-gap is
        # small, so the values are held to the eigen-equation of the full T.
        assert np.max(np.abs(T_full @ ref - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert abs(math.fsum(ref) - 1.0) <= 1e-14


@pytest.mark.parametrize("name,m", [(n, m) for n in ("A1", "A2", "A3", "A4", "uni")
                                    for m in (1, 2)] + [("C3", 1), ("C3", 2)])
@pytest.mark.parametrize("block", [None, 1, 7])
def test_transition_matrix_matches_tap_loop(name, m, block, profiles, monkeypatch):
    # Every (row, column) pair is set once, so blocks of taps give the
    # loop's matrix bit for bit, whatever the block size.
    p = spectral.make_profile(M3) if name == "C3" else profiles(name)
    rc = _rc(p, m)
    box = cascade.support_box(p.A, rc)
    if block is not None:
        monkeypatch.setattr(cascade, "_PAIR_BLOCK", block * math.prod(int(w) + 1 for w in box.widths))
    T, pts = cascade.transition_matrix(p.A, rc, box)
    T_ref, pts_ref = helpers.transition_matrix_by_taps(p.A, rc, box)
    assert np.array_equal(pts, pts_ref)
    assert np.array_equal(T.view(np.int64), T_ref.view(np.int64))


def test_bordered_matrix_past_its_budget_is_a_config_error(profiles, monkeypatch):
    # The budget sits one byte below A1's bordered phi^2 matrix, (n + 1)^2
    # doubles: transition_matrix raises before allocating it, naming n and
    # the bytes.  At the exact size it is built.
    p = profiles("A1")
    rc = _rc(p, 2)
    box = cascade.support_box(p.A, rc)
    n = len(cascade.transition_matrix(p.A, rc, box)[1])
    monkeypatch.setattr(cascade, "MAX_TRANSITION_BYTES", 8 * (n + 1) ** 2 - 1)
    with pytest.raises(ConfigError) as err:
        cascade.integer_values(p.A, rc, box)
    assert f"keeps n={n} points" in str(err.value)
    assert f"needs {8 * (n + 1) ** 2} bytes" in str(err.value)
    monkeypatch.setattr(cascade, "MAX_TRANSITION_BYTES", 8 * (n + 1) ** 2)
    assert cascade.transition_matrix(p.A, rc, box)[0].shape == (n, n)


def test_integer_values_match_eig_on_c3_order_two():
    p = spectral.make_profile(M3)
    rc = _rc(p, 2)
    box = cascade.support_box(p.A, rc)
    T, pts = cascade.transition_matrix(p.A, rc, box)
    assert len(T) == 1041
    lam, vecs = np.linalg.eig(T)
    v = vecs[:, np.argmin(np.abs(lam - 1.0))].real
    v = v / v.sum()
    g = cascade.integer_values(p.A, rc, box)
    assert np.max(np.abs(g.lookup(pts) - v)) < 1e-12


def test_refine_hat_midpoint(profiles):
    p = profiles("uni")
    rc = _rc(p)
    g0 = cascade.integer_values(p.A, rc)
    g1 = cascade.refine(p.A, rc, g0)
    assert g1.value_at_index([1]) == pytest.approx(0.5)  # x = 1/2


def test_refine_preserves_integer_sublattice(profiles, grids):
    p = profiles("A1")
    g5 = grids("A1", 1, 5)
    A5 = p.A.power(5)
    for k in ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 2)):
        x = np.array(k, dtype=np.int64)
        expected = 1.0 if k == (0, 0) else 0.0
        assert g5.value_at_index(A5 @ x) == pytest.approx(expected, abs=1e-10)


def test_refine_preserves_mass(profiles):
    p = profiles("A3")
    rc = _rc(p)
    g = cascade.integer_values(p.A, rc)
    masses = [g.mass()]
    for _ in range(4):
        g = cascade.refine(p.A, rc, g)
        masses.append(g.mass())
    assert np.max(np.abs(np.array(masses) - 1.0)) < 1e-12


def test_refinement_residual_recheck(profiles, grids, rng):
    # independently re-verify phi(x) = sum_k c_k phi(Ax - k) between levels
    p = profiles("A1")
    rc = _rc(p)
    g4 = grids("A1", 1, 4)
    g5 = grids("A1", 1, 5)
    idx5 = g5.index_points
    sel = idx5[rng.choice(len(idx5), size=100, replace=False)]
    A4 = p.A.power(4)
    recon = np.zeros(len(sel))
    for k, ck in rc.c.items():
        recon += ck * g4.lookup(sel - A4 @ np.array(k, dtype=np.int64))
    assert np.max(np.abs(recon - g5.lookup(sel))) < 1e-12


@pytest.mark.parametrize("name,m,J", [
    *[(name, m, 4) for name in ("A1", "A2", "A3", "A4", "uni") for m in (1, 2, 4)],
    ("C3", 1, 4), ("A3", 2, 7)])
def test_refine_matches_tap_by_tap_reference(name, m, J, profiles):
    p = spectral.make_profile(M3) if name == "C3" else profiles(name, m)
    rc, box = p.refinement
    grid = cascade.integer_values(p.A, rc, box)
    for _ in range(J):
        ref = helpers.refine_by_taps(p.A, rc, grid)
        grid = cascade.refine(p.A, rc, grid)
        assert helpers.same_grid(grid, ref)


def test_sample_phi_from_the_profile_refinement(profiles):
    p = profiles("A3", 2)
    g = cascade.sample_phi(p.A, *p.refinement, 4)
    rc = refinement_coefficients(trigpoly.build_mask(p.A, p.G, p.digits_AT, 2), p.q)
    assert helpers.same_grid(g, cascade.sample_phi(p.A, rc, cascade.support_box(p.A, rc), 4))
    with pytest.raises(ValueError):
        cascade.sample_phi(p.A, *p.refinement, -1)


def test_hat_level3_exact(grids):
    g = grids("uni", 1, 3)
    x = g.cartesian_points()[:, 0]
    assert np.max(np.abs(g.values - helpers.hat(x))) == 0.0


def test_sample_phi_m_cubic_bspline(grids):
    g = grids("uni", 2, 4)
    x = g.cartesian_points()[:, 0]
    assert np.max(np.abs(g.values - helpers.cubic_bspline(x))) < 1e-8


def test_sample_phi_m_level0_consistency(profiles):
    p = profiles("A3")
    g0 = cascade.sample_phi(p.A, *p.refinement, 0)
    gi = cascade.integer_values(p.A, _rc(p))
    assert np.max(np.abs(g0.values - gi.values)) == 0.0


def test_sample_phi_m_validates_args(profiles):
    p = profiles("uni")
    with pytest.raises(ValueError):
        spectral.make_profile(MATRICES["uni"], m=0)
    with pytest.raises(ValueError):
        cascade.sample_phi(p.A, *p.refinement, -1)


def test_quincunx_nonnegative_on_lattice(grids):
    g = grids("A1", 1, 6)
    assert np.min(g.values) >= -1e-10


def test_dft_matches_phi_hat_low_frequencies(profiles, grids):
    p = profiles("A1")
    g = grids("A1", 1, 6)
    X = g.cartesian_points()
    V = g.values
    w = g.quadrature_weight
    for xi in (np.array([0.5, 0.3]), np.array([-0.4, 0.6]), np.array([0.2, 0.0])):
        dft = (w * np.sum(V * np.exp(-1j * (X @ xi)))).real
        ref = spectral.phi_hat(p, xi)
        assert abs(dft - ref) / abs(ref) < 2e-3


def test_dft_error_decreases_with_level(profiles, grids):
    p = profiles("A1")
    xi = np.array([0.5, 0.3])
    errs = []
    for J in (4, 6):
        g = grids("A1", 1, J)
        dft = (g.quadrature_weight
               * np.sum(g.values * np.exp(-1j * (g.cartesian_points() @ xi)))).real
        errs.append(abs(dft - spectral.phi_hat(p, xi)))
    assert errs[1] < errs[0]


def test_lookup_outside_box_is_zero(grids):
    g = grids("uni", 1, 3)
    assert g.lookup(np.array([[10 ** 6], [-10 ** 6]])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("name,m,J", [("uni", 1, 3), ("A3", 2, 3), ("C3", 1, 2)])
def test_shifts_match_one_lookup_per_shift(name, m, J, grids):
    if name == "C3":
        p = spectral.make_profile(M3)
        g = cascade.sample_phi(p.A, *p.refinement, J)
    else:
        g = grids(name, m, J)
    d = g.A.d
    idx = g.index_points[::5]
    ks = np.array(np.meshgrid(*[np.arange(-2, 3)] * d, indexing="ij")).reshape(d, -1).T
    S = g.shifts(idx, ks)
    assert S.shape == (len(idx), len(ks))
    AJ = g.A.power(J)
    for col, k in zip(S.T, ks):
        assert np.array_equal(col, g.lookup(idx - AJ @ k))
    assert np.count_nonzero(S) > len(idx)  # several shifts meet each point


def test_quadrature_weight(grids):
    assert grids("A1", 1, 5).quadrature_weight == pytest.approx(2.0 ** -5)
    assert grids("uni", 2, 4).quadrature_weight == pytest.approx(2.0 ** -4)


def test_mass_tends_to_integral(grids):
    # discrete mass equals phi_hat(0) = 1 exactly at every level
    for key in (("A1", 1, 5), ("A3", 1, 5), ("uni", 2, 4)):
        assert grids(*key).mass() == pytest.approx(1.0, abs=1e-6)


def test_query_off_lattice_interpolates(grids):
    g = grids("uni", 1, 3)
    val, approx = g.query([0.3])  # between lattice points at level 3
    assert approx
    assert val == pytest.approx(0.7, abs=1e-12)  # hat is piecewise linear
    val, approx = g.query([0.25])  # exactly on the level-3 lattice
    assert not approx
    assert val == pytest.approx(0.75, abs=1e-12)


def test_query_quincunx_lattice_exact(grids):
    g = grids("A1", 1, 4)
    val, approx = g.query([0.0, 0.0])
    assert not approx and val == pytest.approx(1.0, abs=1e-10)


def test_query_flags_no_in_box_lattice_point():
    # A^J x rounds to either side of an integer coordinate by coordinate;
    # each in-box point must still read back its stored value, unflagged.
    p = spectral.make_profile([[1, -2], [1, 0]])
    g = cascade.sample_phi(p.A, *p.refinement, 6)
    x = g.cartesian_points()
    assert len(x) == 3093
    for xi, v in zip(x, g.values):
        assert g.query(xi) == (v, False)


def test_shifts_peak_stays_near_its_result(grids):
    g = grids("A3", 1, 5)
    idx = np.tile(g.index_points, (32, 1))
    ks = np.array(np.meshgrid(*[np.arange(-2, 3)] * 2, indexing="ij")).reshape(2, -1).T
    result_bytes = 8 * len(idx) * len(ks)
    tracemalloc.start()
    try:
        S = g.shifts(idx, ks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert S.nbytes == result_bytes
    # One block of rows at a time: the work arrays stay well below the result.
    assert peak - result_bytes < 0.5 * result_bytes


@pytest.mark.parametrize("matrix, m, J, cells", [
    ([[1, -2], [1, 0]], 2, 11, 805_809),             # largest benchmark grid
    ([[0, 0, 2], [1, 0, 0], [0, 1, 0]], 2, 3, 33_825),
])
def test_grid_bounds_count_cells_within_budget(matrix, m, J, cells):
    p = spectral.make_profile(matrix, m=m)
    box = cascade.support_box(p.A, _rc(p, m))
    lo, shape = cascade.grid_bounds(p.A, box, J)
    assert math.prod(shape) == cells <= cascade.MAX_GRID_CELLS
    assert lo.dtype == np.int64


def test_grid_bounds_match_built_grid(profiles):
    p = profiles("A3")
    box = cascade.support_box(p.A, _rc(p))
    grid = cascade.sample_phi(p.A, *p.refinement, 3)
    lo, shape = cascade.grid_bounds(p.A, box, 3)
    assert np.array_equal(lo, grid.offset) and shape == grid.data.shape


@pytest.mark.parametrize("J", [40, 200])
def test_oversize_level_is_rejected_with_both_counts(profiles, J):
    p = profiles("A4")
    box = cascade.support_box(p.A, _rc(p))
    with pytest.raises(ConfigError) as err:
        cascade.grid_bounds(p.A, box, J)
    # Exact integers: at J = 200 an int64 count would have wrapped around.
    requested = math.prod(int(w) * 2 ** J + 1 for w in box.widths)
    assert f"{requested} cells" in str(err.value)
    assert f"at most {cascade.MAX_GRID_CELLS}" in str(err.value)


def test_sample_phi_m_rejects_before_building_a_level(profiles, monkeypatch):
    p = profiles("A4")

    def no_cascade(*args, **kwargs):
        raise AssertionError("integer values built for an oversize level")
    monkeypatch.setattr(cascade, "integer_values", no_cascade)
    monkeypatch.setattr(cascade, "MAX_GRID_CELLS", 1000)
    with pytest.raises(ConfigError):
        cascade.sample_phi(p.A, *p.refinement, 3)


# The 2+i dilation: q = 5, so no lattice point off Z^2 is a dyadic rational
# and a float inverse of A^J rounds its coordinates at every level J >= 1.
TWO_PLUS_I = [[2, -1], [1, 2]]
# C3 conjugated by the shear U = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]: at J = 1,
# 2 and 4 a row of M has a zero last entry, and some lines of the index box
# hold no point because of that row alone.
C3_CONJUGATE = [[1, -1, 2], [1, -1, 0], [0, 1, 0]]


MASK_CASES = {**{name: MATRICES[name] for name in ("A1", "A2", "A3", "A4", "uni")},
              "C3": M3, "2+i": TWO_PLUS_I, "C3-sheared": C3_CONJUGATE,
              **{f"zoo{i}": matrix for i, matrix in enumerate(ZOO)}}


@pytest.mark.parametrize("matrix", list(MASK_CASES.values()), ids=list(MASK_CASES))
def test_inside_matches_float_mask(matrix):
    # Levels up to 2^18 cells, where the float test is cheap.
    p = spectral.make_profile(matrix)
    box = p.refinement[1]
    for J in range(12):
        shape = cascade.grid_bounds(p.A, box, J)[1]
        if math.prod(shape) > 1 << 18:
            break
        grid = cascade._empty_grid(p.A, box, J)
        expected = helpers.float_inside(p.A, box, J)
        assert np.array_equal(grid.inside, expected), J
        assert np.array_equal(grid.index_points, np.argwhere(expected) + grid.offset), J
    assert J >= 3


def test_values_and_rows_follow_the_mask(grids):
    g = grids("A3", 1, 5)
    assert np.array_equal(g.values, g.data[g.inside])
    j, flat = g.rows(100, 1000)
    assert np.array_equal(j, g.index_points[100:1000])
    assert np.array_equal(flat, np.flatnonzero(g.inside)[100:1000])


def _exact_points(grid):
    """A^{-J} j as Fractions, from the exact inverse of A^J itself."""
    AJ = grid.A.power(grid.J)
    det = digits.int_det(AJ)
    adj = digits.int_adjugate(AJ)
    return [[Fraction(sum(a * int(v) for a, v in zip(row, j)), det) for row in adj]
            for j in grid.index_points]


@pytest.mark.parametrize("matrix, m, J", [(MATRICES["A3"], 2, 6), (TWO_PLUS_I, 1, 3)],
                         ids=["A3", "2+i"])
def test_cartesian_points_are_the_nearest_doubles(matrix, m, J):
    p = spectral.make_profile(matrix, m=m)
    grid = cascade.sample_phi(p.A, *p.refinement, J)
    x = grid.cartesian_points()
    exact = _exact_points(grid)
    assert x.tolist() == [[float(c) for c in row] for row in exact]
    # A float inverse of A^J misses at least one of these points.
    rounded = grid.index_points @ np.linalg.inv(p.A.power(J).astype(float)).T
    assert not np.array_equal(rounded, x)
