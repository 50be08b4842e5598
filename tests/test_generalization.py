"""Invariants across a zoo of isotropic matrices beyond the worked fixtures.

Determinants 2 through 6 exercise digit denominators other than 2 (so the
rational phase factors in the shifted products are genuinely complex) and
larger mask supports.
"""

import math

import numpy as np
import pytest

from ellipsf import cascade, digits, properties, spectral, trigpoly

import helpers

ZOO = [
    [[0, -3], [1, 0]],     # det 3, complex eigenvalue pair
    [[1, -2], [1, 1]],     # det 3, trace 2
    [[1, -3], [1, -1]],    # det 2, trace 0
    [[2, 1], [1, -2]],     # det -5, real +-sqrt(5)
    [[0, 2], [3, 0]],      # det -6, real +-sqrt(6)
    [[1, -5], [1, 0]],     # det 5, complex pair
    [[-1, -2], [2, -1]],   # det 5, scaled rotation
]


@pytest.fixture(scope="module", params=range(len(ZOO)), ids=lambda i: f"zoo{i}")
def zoo_profile(request):
    return spectral.make_profile(ZOO[request.param])


def test_mask_normalization_evenness_realness(zoo_profile):
    m0 = zoo_profile.m0
    assert m0.is_real
    assert m0.eval(np.zeros(2)).real == pytest.approx(1.0, abs=1e-12)
    for k, c in m0.coeffs.items():
        assert abs(m0.coeffs.get(tuple(-v for v in k), 0) - c) < 1e-12


def test_sum_rules_per_coset(zoo_profile):
    """Coset sums of the refinement weights are all 1.

    This is the lattice identity behind partition of unity: every residue
    class of Z^d modulo A carries total weight exactly 1.
    """
    p = zoo_profile
    rc = trigpoly.refinement_coefficients(p.m0, p.q)
    M = [[int(v) for v in row] for row in p.A.entries]
    ds = digits.digit_set(np.array(M))
    det = digits.int_det(M)
    adj = digits.int_adjugate(M)

    def coset_of(k):
        for i, w in enumerate(ds.W):
            r = [k[0] - w[0], k[1] - w[1]]
            u = [adj[0][0] * r[0] + adj[0][1] * r[1],
                 adj[1][0] * r[0] + adj[1][1] * r[1]]
            if all(x % det == 0 for x in u):
                return i
        raise AssertionError(f"{k} matched no coset")

    sums = [0.0] * p.q
    for k, c in rc.c.items():
        sums[coset_of(k)] += c
    assert max(abs(s - 1.0) for s in sums) < 1e-12


def test_mask_vanishes_at_nonzero_digit_shifts(zoo_profile):
    # m0(2 pi s) = 0 for every nonzero digit representative
    for s in zoo_profile.digits_AT.nonzero_S():
        assert abs(zoo_profile.m0.eval_at_two_pi(s)) < 1e-12


def test_mu_is_one_on_lattice_and_bounded(zoo_profile):
    p = zoo_profile
    assert spectral.mu(p, 2 * math.pi * np.array([2.0, -1.0])) == pytest.approx(1.0, abs=1e-12)
    B = spectral.estimate_B(p, grid_n=64)
    assert B >= 1.0 - 1e-12
    ax = np.linspace(-math.pi, math.pi, 41)
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = spectral.mu(p, grid)
    assert np.all(vals > 0) and np.max(vals) <= B + 1e-9


def test_partition_of_unity(zoo_profile):
    grid = cascade.sample_phi_m(zoo_profile.A, zoo_profile.m0, 1, 3)
    assert properties.check_partition_of_unity(grid, n_samples=20) < 1e-8
    assert grid.mass() == pytest.approx(1.0, abs=1e-9)


def test_fourier_refinement(zoo_profile):
    assert properties.check_fourier_refinement(zoo_profile, n_samples=40) < 1e-8


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("J", [1, 3])
def test_convolution_matches_the_fft_rectangle_sums(zoo_profile, m, J):
    # The cascaded level-0 defect against FFT rectangle sums of the level-J
    # grid, on determinants 2 to 6 and their larger phi^{2m} boxes.
    p = zoo_profile if m == 1 else spectral.make_profile(zoo_profile.A.entries, m=m)
    assert helpers.convolution_matches_fft(p, J)
