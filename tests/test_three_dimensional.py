"""End-to-end coverage for a trivariate construction.

Companion matrix of x^3 - 2: eigenvalues are 2^(1/3) times the cube roots
of unity, so the matrix is isotropic with q = 2 and the invariant form is
diag(2^(4/3), 2^(2/3), 1).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ellipsf import cascade, properties, spectral, trigpoly

M3 = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]


@pytest.fixture(scope="module")
def profile3():
    return spectral.make_profile(M3)


def test_quadratic_form_is_diagonal_powers_of_two(profile3):
    expected = np.diag([2.0 ** (4.0 / 3.0), 2.0 ** (2.0 / 3.0), 1.0])
    assert np.max(np.abs(profile3.Q2.Q2 - expected)) < 1e-10


def test_invariance_residual(profile3):
    lam = profile3.q ** (2.0 / 3.0)
    A = profile3.A.A
    resid = A @ profile3.Q2.Q2 @ A.T - lam * profile3.Q2.Q2
    assert np.max(np.abs(resid)) < 1e-12


def test_digits(profile3):
    assert set(profile3.digits_AT.S) == {
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0), Fraction(0)),
    }


def test_mask_normalized_and_even(profile3):
    m0 = profile3.m0
    assert m0.eval(np.zeros(3)) == pytest.approx(1.0, abs=1e-13)
    assert m0.is_real
    for k, c in m0.coeffs.items():
        assert abs(m0.coeffs.get(tuple(-v for v in k), 0) - c) < 1e-12


def test_mu_lattice_and_bounds(profile3):
    assert spectral.mu(profile3, 2 * math.pi * np.array([1.0, -2.0, 3.0])) == 1.0
    B = spectral.estimate_B(profile3, grid_n=32)
    assert B >= 1.0
    ok, threshold, _ = spectral.riesz_verdict(profile3, B)
    assert ok == (B < threshold - 1e-12)


def test_cascade_partition_of_unity(profile3):
    grid = cascade.sample_phi(profile3.A, *profile3.refinement, 3)
    assert grid.mass() == pytest.approx(1.0, abs=1e-9)
    assert properties.check_partition_of_unity(grid, n_samples=25) < 1e-8


def test_cascade_order_two(profile3):
    # the transition matrix over the whole 4641-point box took ~100 s to
    # build pair by pair; pruned to its 1041-point support it is fast
    t0 = time.perf_counter()
    rc, box = spectral.make_profile(M3, m=2).refinement
    grid = cascade.sample_phi(profile3.A, rc, box, 3)
    assert time.perf_counter() - t0 < 30.0
    assert grid.mass() == pytest.approx(1.0, abs=1e-9)
    assert properties.check_partition_of_unity(grid, n_samples=25) < 1e-8
    # level 0 read back off level 3 is phi(A^3 j) = phi(j): the eigen
    # equation of the unpruned operator holds on every box point
    g0 = cascade.sample_phi(profile3.A, rc, box, 0)
    back = cascade.coarsen(cascade.coarsen(cascade.coarsen(grid)))
    assert np.max(np.abs(back.data - g0.data)) < 1e-12


def test_strang_fix_and_refinement(profile3):
    assert properties.check_strang_fix(profile3) < 1e-6
    assert properties.check_fourier_refinement(profile3, n_samples=40) < 1e-8


def test_non_decay(profile3):
    assert properties.check_non_decay(profile3, J_max=3) <= 10 * profile3.truncation_tol
