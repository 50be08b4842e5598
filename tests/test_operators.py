import math
from itertools import product

import numpy as np
import pytest

from ellipsf import cascade, matana, operators, spectral
from ellipsf.trigpoly import build_G, eval_G_stable

import helpers


def test_stencil_identity_form():
    taps = build_G(matana.QuadraticForm(np.eye(2), 2)).coeffs
    expected = {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0}
    assert helpers.coeff_dict_dist(taps, expected) < 1e-15


def test_stencil_univariate_second_difference():
    taps = build_G(matana.QuadraticForm(np.eye(1), 1)).coeffs
    assert helpers.coeff_dict_dist(taps, {(-1,): -1.0, (0,): 2.0, (1,): -1.0}) < 1e-15


def test_stencil_mixed_terms():
    qf = matana.QuadraticForm(np.array([[2.0, 0.5], [0.5, 1.0]]), 2)
    taps = build_G(qf).coeffs
    assert taps[(1, 1)] == pytest.approx(-0.25)
    assert taps[(-1, -1)] == pytest.approx(-0.25)
    assert taps[(1, -1)] == pytest.approx(0.25)
    assert taps[(-1, 1)] == pytest.approx(0.25)
    assert taps[(0, 0)] == pytest.approx(6.0)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "uni"])
def test_stencil_symbol_is_G(name, profiles, rng):
    p = profiles(name)
    pts = rng.uniform(-8, 8, size=(100, p.d))
    assert np.max(np.abs(p.G.eval(pts) - eval_G_stable(p.Q2, pts))) < 1e-12
    assert abs(sum(p.G.coeffs.values())) < 1e-12


def _filled_grid(profile, values_of_x, J=3, half=2):
    box = cascade.SupportBox(np.full(profile.d, -half), np.full(profile.d, half))
    g = cascade._empty_grid(profile.A, box, J)
    idx = np.indices(g.data.shape).reshape(profile.d, -1).T + g.offset
    x = idx @ np.linalg.inv(profile.A.power(J).astype(float)).T
    g.data[tuple((idx - g.offset).T)] = values_of_x(x)
    return g, idx, x


def _interior(profile, g, idx, x, margin=1.1):
    lo = g.box.lo + margin
    hi = g.box.hi - margin
    return idx[np.all((x >= lo) & (x <= hi), axis=1)]


def test_apply_stencil_annihilates_constants(profiles):
    p = profiles("A1")
    g, idx, x = _filled_grid(p, lambda pts: np.ones(len(pts)))
    out = operators.apply_stencil(build_G(p.Q2), g)
    interior = _interior(p, g, idx, x)
    assert np.max(np.abs(out.lookup(interior))) == 0.0


def test_apply_stencil_annihilates_affine(profiles):
    p = profiles("A3")
    g, idx, x = _filled_grid(p, lambda pts: 2.0 * pts[:, 0] - pts[:, 1] + 0.5)
    out = operators.apply_stencil(build_G(p.Q2), g)
    interior = _interior(p, g, idx, x)
    assert np.max(np.abs(out.lookup(interior))) < 1e-12


def test_apply_stencil_rejects_bad_power(profiles, grids):
    p = profiles("A1")
    with pytest.raises(ValueError):
        operators.apply_stencil(build_G(p.Q2), grids("A1", 1, 3), k=0)


def _poly_after_stencil(taps, alpha):
    """Exact difference calculus: expand sum_n w_n (x - n)^alpha.

    Returns the coefficient map of the resulting polynomial in x.
    """
    from math import comb
    out = {}
    for n, w in taps.items():
        for beta in product(*(range(a + 1) for a in alpha)):
            coef = w
            for ai, bi, ni in zip(alpha, beta, n):
                coef *= comb(ai, bi) * (-ni) ** (ai - bi)
            out[beta] = out.get(beta, 0.0) + coef
    return {k: v for k, v in out.items() if abs(v) > 1e-12}


@pytest.mark.parametrize("name", ["A1", "A3"])
def test_stencil_reduces_polynomial_degree(name, profiles):
    # G applied to monomial samples of total degree N <= 4 leaves a
    # polynomial of total degree <= N - 2 (exact difference calculus).
    p = profiles(name)
    taps = build_G(p.Q2).coeffs
    for alpha in product(range(5), repeat=2):
        if not 0 <= sum(alpha) <= 4:
            continue
        result = _poly_after_stencil(taps, alpha)
        if not result:  # the zero polynomial
            continue
        assert max(sum(k) for k in result) <= sum(alpha) - 2


def test_operator_relation_quincunx(profiles):
    p = profiles("A1", 2)
    assert operators.verify_operator_relation(p, 1) < 1e-7


def test_operator_relation_univariate_exact(profiles):
    p = profiles("uni", 2)
    assert operators.verify_operator_relation(p, 1) < 1e-10


@pytest.mark.parametrize("name", ["A1", "A3", "A4"])
def test_operator_relation_m3(name, profiles):
    p = profiles(name, 3)
    assert operators.verify_operator_relation(p, 1) < 1e-6
    assert operators.verify_operator_relation(p, 2) < 1e-6


def test_operator_relation_rejects_k_ge_m(profiles):
    p = profiles("A1", 2)
    with pytest.raises(ValueError):
        operators.verify_operator_relation(p, 2)  # k = m


def test_green_combination_univariate(profiles):
    p = profiles("uni")
    w = helpers.green_combination(p)
    assert helpers.coeff_dict_dist(w.coeffs, {(0,): 2.0, (1,): -1.0, (-1,): -1.0}) < 1e-13


@pytest.mark.parametrize("name,m", [("A1", 1), ("A3", 2), ("uni", 2)])
def test_green_spectrum_ratios(name, m, profiles, rng):
    p = profiles(name, m)
    pts = []
    while len(pts) < 50:
        cand = rng.uniform(-3 * math.pi, 3 * math.pi, size=(200, p.d))
        eta, _ = spectral._reduce_torus(cand)
        keep = np.linalg.norm(eta, axis=1) > 0.4
        pts.extend(cand[keep][: 50 - len(pts)])
    pts = np.array(pts)
    Gm = helpers.green_combination(p).eval(pts)
    rho = operators.green_spectrum(p, pts)
    ph = spectral.phi_hat(p, pts)
    # phi_hat^m / rho_hat = G^m
    assert np.max(np.abs(ph / rho - Gm) / (np.abs(Gm) + 1e-15)) < 1e-9
    # rho_hat (P/M)^m = 1 by definition of the Green spectrum
    sym = operators.delta_sharp_symbol(p, pts)
    assert np.max(np.abs(rho * sym ** p.m - 1.0)) < 1e-9


def test_green_annihilation_coefficient_identity(profiles):
    # (P/M)^m phi_hat^m is 2pi-periodic and equals the integer-frequency
    # polynomial G^m; read its coefficients off an FFT sample and compare.
    p = profiles("A1")
    N = 8

    def func(xi):
        flat = xi.reshape(-1, 2)
        vals = (operators.delta_sharp_symbol(p, flat) ** p.m
                * spectral.phi_hat(p, flat))
        return vals.reshape(xi.shape[:-1])

    got = helpers.fft_coeffs(func, 2, N=N, tol=1e-9)
    expected = helpers.green_combination(p).coeffs
    assert helpers.coeff_dict_dist(got, expected) < 1e-7


def test_stencil_dft_cross_check(profiles, grids):
    p = profiles("A1")
    g = grids("A1", 1, 5)
    out = operators.apply_stencil(build_G(p.Q2), g)
    X = out.cartesian_points()
    V = out.values
    w = g.quadrature_weight
    for xi in (np.array([0.4, 0.2]), np.array([0.3, 0.0])):
        dft = (w * np.sum(V * np.exp(-1j * (X @ xi)))).real
        target = eval_G_stable(p.Q2, xi) * spectral.phi_hat(p, xi)
        assert abs(dft - target) / abs(target) < 5e-3


def test_apply_stencil_grows_box(profiles, grids):
    g = grids("A1", 1, 3)
    out = operators.apply_stencil(build_G(profiles("A1").Q2), g)
    assert np.all(out.box.lo == g.box.lo - 1)
    assert np.all(out.box.hi == g.box.hi + 1)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "uni"])
@pytest.mark.parametrize("k", [1, 2])
def test_apply_stencil_matches_tap_by_tap_reference(name, k, profiles, grids):
    p, g = profiles(name), grids(name, 1, 3)
    out = operators.apply_stencil(p.G, g, k)
    assert helpers.same_grid(out, helpers.apply_stencil_by_taps(p.G, g, k))
