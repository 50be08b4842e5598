import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsf import cascade, digits, matana, spectral, trigpoly
from ellipsf.errors import ConfigError, MaskPoleAtDigit, NotPositiveDefinite
from ellipsf.trigpoly import TrigPoly

import helpers
from conftest import MATRICES


def _profile_parts(name):
    A = matana.validate_dilation(MATRICES[name])
    qf = matana.solve_quadratic_form(A)
    G = trigpoly.build_G(qf)
    ds = digits.digit_set(A.entries.T)
    return A, qf, G, ds


def test_eval_G_quincunx_at_pi_pi():
    _, _, G, _ = _profile_parts("A1")
    assert G.eval(np.array([math.pi, math.pi])) == pytest.approx(8.0, abs=1e-12)


def test_eval_at_zero_is_coefficient_sum():
    p = TrigPoly(2, {(1, 0): 0.3, (0, -2): 0.7, (0, 0): -1.0})
    assert p.eval(np.zeros(2)) == pytest.approx(0.3 + 0.7 - 1.0)


@pytest.mark.parametrize("c", [0.5j, 1.0 + 0j, np.complex128(0.5), np.complex64(0.5)],
                         ids=["complex", "complex-real", "complex128", "complex64"])
def test_complex_coefficient_raises(c):
    with pytest.raises(TypeError, match="coefficients are real"):
        TrigPoly(1, {(1,): c, (-1,): 0.5})


@st.composite
def _poly_and_points(draw):
    """A real polynomial in d = 1..3 (even or not) and points with |xi| <= 40."""
    d = draw(st.integers(1, 3))
    freq = st.tuples(*[st.integers(-4, 4)] * d)
    part = st.floats(-2.0, 2.0)
    coeffs = draw(st.dictionaries(freq, part, max_size=12))
    if draw(st.booleans()):  # even: c_{-k} = c_k
        even = {}
        for k, c in coeffs.items():
            even[k] = even[tuple(-v for v in k)] = c
        coeffs = even
    x = np.array(draw(st.lists(st.lists(part, min_size=d, max_size=d), min_size=1, max_size=8)))
    norms = np.linalg.norm(x, axis=1)
    scale = draw(st.floats(0.0, 40.0)) / np.where(norms > 0, norms, 1.0)
    return d, coeffs, x * scale[:, None]


@settings(max_examples=150, deadline=None)
@given(_poly_and_points())
def test_eval_matches_termwise_sum(case):
    d, coeffs, xs = case
    p = TrigPoly(d, coeffs)
    # Re sum_k c_k e^{-i k.xi} for real c_k, term by term.
    literal = np.array([sum((c * math.cos(sum(ki * xi for ki, xi in zip(k, x)))
                             for k, c in coeffs.items()), 0.0) for x in xs])
    bound = 1e-12 * max(sum(abs(c) for c in coeffs.values()), 1e-300)
    assert np.max(np.abs(p.eval(xs) - literal)) <= bound
    assert abs(p.eval(xs[0]) - literal[0]) <= bound


@pytest.mark.parametrize("name", ["A1", "A3", "A4", "uni"])
def test_eval_row_does_not_depend_on_the_batch(name):
    # A BLAS gemv changed the bits of 50 of these 200 quincunx rows with
    # their batch; the fixed-order sum gives each row its bits alone.
    A, qf, G, ds = _profile_parts(name)
    m0 = trigpoly.build_mask(A, G, ds)
    x = np.random.default_rng(5).uniform(-4 * math.pi, 4 * math.pi, size=(200, A.d))
    batch = m0.eval(x)
    assert [m0.eval(row) for row in x] == batch.tolist()
    assert [m0.eval(x[r:r + 1])[0] for r in range(len(x))] == batch.tolist()


def test_trigpoly_is_immutable():
    p = TrigPoly(2, {(1, 0): 0.5, (-1, 0): 0.5, (0, 2): 0.25})
    with pytest.raises(TypeError):
        p.coeffs[(1, 0)] = 2.0
    with pytest.raises(ValueError):
        p.C[0] = 2.0
    with pytest.raises(ValueError):
        p.K[0, 0] = 7
    with pytest.raises(AttributeError):
        p.d = 3
    assert [tuple(k) for k in p.K.tolist()] == sorted(p.coeffs) == [(-1, 0), (0, 2), (1, 0)]
    assert [p.coeffs[tuple(k)] for k in p.K.tolist()] == p.C.tolist()


def test_mask_normalization_at_zero():
    for name in MATRICES:
        A, _, G, ds = _profile_parts(name)
        m0 = trigpoly.build_mask(A, G, ds)
        assert m0.eval(np.zeros(A.d)) == pytest.approx(1.0, abs=1e-13)


# The expanded products of the references, helpers.coeff_product and
# coeff_power, which build helpers.dict_product_mask and green_combination.

def test_mul_pow_match_pointwise(rng):
    A, _, G, ds = _profile_parts("A1")
    m0 = trigpoly.build_mask(A, G, ds)
    pts = rng.uniform(-math.pi, math.pi, size=(50, 2))
    prod = TrigPoly(2, helpers.coeff_product(m0.coeffs, m0.coeffs)).eval(pts)
    assert np.max(np.abs(prod - m0.eval(pts) ** 2)) < 1e-12
    pw = TrigPoly(2, helpers.coeff_power(m0.coeffs, 3, 2)).eval(pts)
    assert np.max(np.abs(pw - m0.eval(pts) ** 3)) < 1e-12


def test_pow_double_angle():
    sq = helpers.coeff_power({(1,): 0.5, (-1,): 0.5}, 2, 1)  # cos^2 xi
    assert helpers.coeff_dict_dist(sq, {(0,): 0.5, (2,): 0.25, (-2,): 0.25}) < 1e-15


def test_mul_identity():
    p = {(1, 0): 0.25, (0, 0): 0.5}
    assert helpers.coeff_dict_dist(p, helpers.coeff_product(p, {(0, 0): 1.0})) == 0


def test_pow_m2_pointwise_cross_check():
    # The order-2 mask of the quincunx, sampled as m0^2, against m0 squared.
    p = spectral.make_profile(MATRICES["A1"], 2)
    pt = np.array([math.pi / 3, math.pi / 5])
    assert p.mask.eval(pt) == pytest.approx(p.m0.eval(pt) ** 2, abs=1e-14)


# The exact shifts of the reference mask build, helpers.dict_product_mask.

def test_shift_by_integer_is_identity():
    p = {(2, -1): 1.25, (0, 1): -0.5}
    s = helpers.shift_argument(p, (Fraction(3), Fraction(-2)))
    assert helpers.coeff_dict_dist(p, s) < 1e-15


def test_shift_univariate_G_by_half():
    G = trigpoly.build_G(matana.QuadraticForm(np.eye(1), 1))
    s = helpers.shift_argument(G.coeffs, (Fraction(1, 2),))
    # 2(1 + cos xi)
    assert helpers.coeff_dict_dist(s, {(0,): 2.0, (1,): 1.0, (-1,): 1.0}) < 1e-15


@pytest.mark.parametrize("s", [(Fraction(1, 2),), (Fraction(1, 2), 0, 0)], ids=["short", "long"])
@pytest.mark.parametrize("method", ["eval_at_two_pi", "shift_argument"])
def test_rational_argument_of_wrong_dimension_raises(method, s):
    p = {(1, 1): 0.5, (2, 0): -1.0}
    with pytest.raises(ValueError, match="wrong dimension"):
        getattr(helpers, method)(p, s)


def test_double_half_shift_recovers():
    p = {(1, 1): 0.5 + 0.25j, (2, 0): -1.0}
    t = (Fraction(1, 2), Fraction(1, 2))
    back = helpers.shift_argument(helpers.shift_argument(p, t), t)
    assert helpers.coeff_dict_dist(p, back) < 1e-15


def test_build_G_identity_form():
    G = trigpoly.build_G(matana.QuadraticForm(np.eye(2), 2))
    expected = helpers.fft_coeffs(
        lambda xi: 4 * (np.sin(xi[..., 0] / 2) ** 2 + np.sin(xi[..., 1] / 2) ** 2), 2)
    assert helpers.coeff_dict_dist(G.coeffs, expected) < 1e-13


def test_build_G_univariate_form():
    G = trigpoly.build_G(matana.QuadraticForm(np.eye(1), 1))
    assert helpers.coeff_dict_dist(G.coeffs, {(0,): 2.0, (1,): -1.0, (-1,): -1.0}) < 1e-15


def test_build_G_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        trigpoly.build_G(matana.QuadraticForm(np.array([[1.0, 2.0], [2.0, 1.0]]), 2))


@pytest.mark.parametrize("name", ["A1", "A2", "A3"])
def test_G_taylor_starts_with_P(name, rng):
    _, qf, G, _ = _profile_parts(name)
    v = rng.normal(size=(20, qf.d))
    v /= np.linalg.norm(v, axis=1)[:, None]
    for eps in (1e-1, 1e-2):
        dev = np.abs(G.eval(eps * v) - matana.eval_P(qf, eps * v))
        # remainder is quartic: shrinking eps by 10 shrinks dev by 10^4
        assert np.max(dev) < 2.0 * eps ** 4


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "uni"])
def test_masks_match_reference_tables(name):
    A, _, G, ds = _profile_parts(name)
    m0 = trigpoly.build_mask(A, G, ds)
    expected = helpers.fft_coeffs(helpers.REFERENCE_MASKS[name], A.d)
    assert helpers.coeff_dict_dist(m0.coeffs, expected) < 1e-12


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "uni"])
def test_G_and_mask_even(name, rng):
    A, qf, G, ds = _profile_parts(name)
    m0 = trigpoly.build_mask(A, G, ds)
    for p in (G, m0):
        for k, c in p.coeffs.items():
            mk = tuple(-v for v in k)
            assert abs(p.coeffs.get(mk, 0) - c) < 1e-12
    xi = rng.uniform(-4, 4, size=(50, A.d))
    assert np.max(np.abs(G.eval(xi) - G.eval(-xi))) < 1e-12


def test_G_zero_set(rng):
    _, qf, G, _ = _profile_parts("A3")
    for k in ([0, 0], [2, -1], [-3, 5]):
        assert abs(G.eval(2 * math.pi * np.array(k, dtype=float))) < 1e-12
    xi = rng.uniform(-10, 10, size=(200, 2))
    eta = xi - 2 * math.pi * np.round(xi / (2 * math.pi))
    off = np.linalg.norm(eta, axis=1) > 1e-3
    assert np.all(trigpoly.eval_G_stable(qf, xi[off]) > 0)


def test_quincunx_interpolating_identity(rng):
    A, _, G, ds = _profile_parts("A1")
    m0 = trigpoly.build_mask(A, G, ds)
    xi = rng.uniform(-4 * math.pi, 4 * math.pi, size=(50, 2))
    total = m0.eval(xi) + m0.eval(xi + math.pi)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_mask_pole_detection():
    A = matana.validate_dilation([[2]])
    ds = digits.digit_set(A.entries.T)
    # G with a zero at the shifted digit 2 pi (1/2): 1 - cos(2 xi)
    bad_G = TrigPoly(1, {(0,): 1.0, (2,): -0.5, (-2,): -0.5})
    with pytest.raises(MaskPoleAtDigit):
        trigpoly.build_mask(A, bad_G, ds)


def test_build_mask_requires_transposed_digits():
    A = matana.validate_dilation(MATRICES["A2"])
    G = trigpoly.build_G(matana.solve_quadratic_form(A))
    with pytest.raises(ValueError):
        trigpoly.build_mask(A, G, digits.digit_set(A.entries))  # digits of A, not A^T


REFERENCE_MATRICES = {**MATRICES, "C3": [[0, 0, 2], [1, 0, 0], [0, 1, 0]], "2+i": [[2, -1], [1, 2]]}


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("name", list(REFERENCE_MATRICES))
def test_sampled_mask_matches_the_dict_product(name, n):
    A = matana.validate_dilation(REFERENCE_MATRICES[name])
    G = trigpoly.build_G(matana.solve_quadratic_form(A))
    ds = digits.digit_set(A.entries.T)
    got = trigpoly.build_mask(A, G, ds, n)
    want = helpers.dict_product_mask(A, G, ds, n)
    assert set(got.coeffs) == set(want)
    # Both builds are within an ulp or two of the largest coefficient (2.34
    # for C3's m0^4; 1 or less elsewhere).
    scale = max(1.0, max(map(abs, want.values())))
    assert helpers.coeff_dict_dist(got.coeffs, want) <= 1e-15 * scale
    assert [tuple(k) for k in got.K.tolist()] == list(got.coeffs)  # lexicographic


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "uni", "C3", "4I"])
def test_eval_and_quartic_form_add_left_to_right(name):
    # The printed phi_hat, M and B rest on these bits: each row's sum runs over
    # the folded terms in ascending order, one term at a time.
    matrix = [[4, 0], [0, 4]] if name == "4I" else REFERENCE_MATRICES[name]
    p = spectral.make_profile(matrix, 1 if name == "4I" else 2)
    x = np.random.default_rng(13).uniform(-4 * math.pi, 4 * math.pi, (500, p.d))
    for poly in (p.G, p.m0, p.mask):
        assert np.array_equal(poly.eval(x), helpers.folded_sum_left_to_right(poly, x))
        assert np.array_equal(poly.quartic_form(x),
                              helpers.folded_sum_left_to_right(poly, x, quartic=True))


def _conjugate(A, U):
    """U A U^{-1} for unimodular U, in exact integers."""
    U = np.array(U, dtype=np.int64)
    U_inv = np.rint(np.linalg.inv(U)).astype(np.int64)
    assert np.array_equal(U @ U_inv, np.eye(len(U), dtype=np.int64))
    return (U @ np.array(A, dtype=np.int64) @ U_inv).tolist()


# q = 25 to 64, where the expanded dict product lost the mask from q = 36
# on, and the 2+i dilation conjugated by two unimodular matrices (new Q2 and
# digits, same spectrum; 2I is its own conjugate).
LARGE_Q = ([[[c, 0], [0, c]] for c in range(5, 9)]
           + [_conjugate([[2, -1], [1, 2]], U) for U in ([[1, 1], [0, 1]], [[2, 1], [1, 1]])])


@pytest.mark.parametrize("matrix", LARGE_Q,
                         ids=lambda M: ";".join(",".join(map(str, r)) for r in M))
def test_sampled_mask_identities(matrix):
    A = matana.validate_dilation(matrix)
    G = trigpoly.build_G(matana.solve_quadratic_form(A))
    ds = digits.digit_set(A.entries.T)
    m0 = trigpoly.build_mask(A, G, ds)
    assert abs(m0.eval(np.zeros(2)) - 1.0) <= 1e-13
    S = 2 * math.pi * np.array(ds.nonzero_S(), dtype=float)
    assert np.max(np.abs(m0.eval(S))) <= 1e-13
    xi = np.random.default_rng(sum(map(sum, matrix))).uniform(-4 * math.pi, 4 * math.pi, (40, 2))
    pointwise = np.prod([G.eval(xi + s) / G.eval(s) for s in S], axis=0)
    assert np.max(np.abs(m0.eval(xi) - pointwise)) <= 1e-12
    assert abs(trigpoly.refinement_coefficients(m0, A.q).total() - A.q) <= 1e-12 * A.q


def test_build_mask_refuses_a_sample_grid_past_the_cap(monkeypatch):
    A, _, G, ds = _profile_parts("A1")
    monkeypatch.setattr(cascade, "MAX_GRID_CELLS", 8 ** 2)
    assert len(trigpoly.build_mask(A, G, ds, 3)) == 25  # N = 2 * 3 + 1 = 7 per axis
    with pytest.raises(ConfigError, match=r"order-4 mask needs a sample grid of 9\^2 = 81 points"):
        trigpoly.build_mask(A, G, ds, 4)
    with pytest.raises(ValueError):
        trigpoly.build_mask(A, G, ds, 0)


def test_refinement_coefficients_univariate():
    A, _, G, ds = _profile_parts("uni")
    rc = trigpoly.refinement_coefficients(trigpoly.build_mask(A, G, ds), A.q)
    assert helpers.coeff_dict_dist(rc.c, {(-1,): 0.5, (0,): 1.0, (1,): 0.5}) < 1e-13
    assert rc.total() == pytest.approx(2.0, abs=1e-12)


def test_refinement_coefficients_quincunx():
    A, _, G, ds = _profile_parts("A1")
    rc = trigpoly.refinement_coefficients(trigpoly.build_mask(A, G, ds), A.q)
    # c_k = q * coeff(m0, k): center 1, four neighbors 1/4, total q = 2
    assert rc.c[(0, 0)] == pytest.approx(1.0, abs=1e-13)
    for e in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert rc.c[e] == pytest.approx(0.25, abs=1e-13)
    assert rc.total() == pytest.approx(2.0, abs=1e-12)
    assert min(rc.c.values()) >= 0  # quincunx weights are nonnegative


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "uni"])
def test_refinement_sum_rule(name):
    A, _, G, ds = _profile_parts(name)
    rc = trigpoly.refinement_coefficients(trigpoly.build_mask(A, G, ds), A.q)
    assert abs(rc.total() - A.q) < 1e-12


def test_refinement_coefficients_rejects_complex_mask():
    p = TrigPoly(1, {(0,): 0.5, (1,): 0.5})  # not real (no conjugate partner)
    with pytest.raises(ValueError):
        trigpoly.refinement_coefficients(p, 2)


def test_is_real_flag():
    # Real coefficients give a real-valued polynomial exactly when c_{-k} = c_k.
    assert TrigPoly(1, {(1,): 0.5, (-1,): 0.5}).is_real
    assert TrigPoly(1, {(1,): 0.5, (-1,): 0.5 + 1e-13}).is_real
    assert not TrigPoly(1, {(1,): 0.5}).is_real
    assert not TrigPoly(1, {(1,): 0.5, (-1,): -0.5}).is_real


def test_realify_rejects_residue():
    with pytest.raises(Exception):
        helpers.realify({(0,): 1.0 + 1e-6j})


def test_render_cosine():
    A, _, G, ds = _profile_parts("A1")
    m0 = trigpoly.build_mask(A, G, ds)
    text = trigpoly.render_cosine(m0)
    assert "0.5" in text and "cos(x1)" in text and "cos(x2)" in text


def test_mask_json_sorted():
    A, _, G, ds = _profile_parts("uni")
    doc = trigpoly.mask_to_json(trigpoly.build_mask(A, G, ds))
    assert [e["k"] for e in doc] == [[-1], [0], [1]]
    assert doc[1]["c"] == pytest.approx(0.5)
