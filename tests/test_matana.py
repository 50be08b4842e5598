import numpy as np
import pytest

from ellipsf import matana
from ellipsf.errors import NotExpanding, NotIsotropic, SingularMatrix

from conftest import MATRICES


def test_validate_quincunx():
    A = matana.validate_dilation([[1, -1], [1, 1]])
    assert A.q == 2 and A.d == 2


def test_validate_univariate():
    A = matana.validate_dilation([[2]])
    assert A.q == 2 and A.d == 1


def test_validate_identity_not_expanding():
    with pytest.raises(NotExpanding):
        matana.validate_dilation([[1, 0], [0, 1]])


def test_validate_shear_not_expanding():
    # eigenvalues 1, 1
    with pytest.raises(NotExpanding):
        matana.validate_dilation([[1, 5], [0, 1]])


def test_validate_singular():
    with pytest.raises(SingularMatrix):
        matana.validate_dilation([[1, 1], [1, 1]])


def test_validate_rejects_non_square():
    with pytest.raises(ValueError):
        matana.validate_dilation([[1, 2, 3], [4, 5, 6]])


def test_validate_rejects_non_integer():
    with pytest.raises(ValueError):
        matana.validate_dilation([[1.5, 0], [0, 2]])


def test_validate_d4_spectral_path():
    A = matana.validate_dilation(2 * np.eye(4, dtype=int))
    assert A.q == 16
    with pytest.raises(NotExpanding):
        matana.validate_dilation(np.diag([2, 2, 2, 1]))


QF_FIXTURES = [
    ("A1", np.eye(2)),
    ("A2", np.array([[2.0, -0.5], [-0.5, 1.0]])),
    ("A3", np.array([[2.0, 0.5], [0.5, 1.0]])),
    ("A4", np.eye(2)),
    ("uni", np.array([[1.0]])),
]


@pytest.mark.parametrize("name,expected", QF_FIXTURES)
def test_quadratic_form_fixtures(name, expected):
    A = matana.validate_dilation(MATRICES[name])
    qf = matana.solve_quadratic_form(A)
    assert np.max(np.abs(qf.Q2 - expected)) < 1e-10
    assert qf.Q2[-1, -1] == pytest.approx(1.0, abs=1e-14)


def test_quadratic_form_1x1():
    qf = matana.solve_quadratic_form(matana.validate_dilation([[3]]))
    assert np.allclose(qf.Q2, [[1.0]])


def test_degenerate_solution_space_flagged():
    qf = matana.solve_quadratic_form(matana.validate_dilation([[2, 0], [0, 2]]))
    assert qf.degenerate
    qf2 = matana.solve_quadratic_form(matana.validate_dilation([[0, -2], [1, 1]]))
    assert not qf2.degenerate


def test_degenerate_mixed_signs():
    # diag(2, -2) is isotropic; the solution space is the diagonal matrices.
    qf = matana.solve_quadratic_form(matana.validate_dilation([[2, 0], [0, -2]]))
    assert qf.degenerate
    assert np.max(np.abs(qf.Q2 - np.eye(2))) < 1e-10


def test_jordan_block_not_isotropic():
    A = matana.validate_dilation([[2, 1], [0, 2]])
    cert = matana.certify_isotropy(A)
    assert not cert.isotropic
    assert cert.failure_reason == matana.FAIL_NOT_DIAGONALIZABLE
    with pytest.raises(NotIsotropic):
        matana.solve_quadratic_form(A)


def test_unequal_moduli_not_isotropic():
    cert = matana.certify_isotropy(matana.validate_dilation([[2, 0], [0, -3]]))
    assert not cert.isotropic
    assert cert.failure_reason == matana.FAIL_UNEQUAL_MODULI


def test_isotropic_3d_companion():
    # Companion matrix of x^3 + 2: distinct eigenvalues of modulus 2^(1/3).
    A = matana.validate_dilation([[0, 0, -2], [1, 0, 0], [0, 1, 0]])
    cert = matana.certify_isotropy(A)
    assert cert.isotropic
    qf = cert.witness
    lam = A.q ** (2.0 / 3.0)
    resid = A.A @ qf.Q2 @ A.A.T - lam * qf.Q2
    assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(qf.Q2))


def _exact_isotropy_oracle_2x2(M) -> bool:
    """Integer arithmetic: diagonalizable over C with equal eigenvalue moduli."""
    a, b, c, d = M[0][0], M[0][1], M[1][0], M[1][1]
    tr, det = a + d, a * d - b * c
    disc = tr * tr - 4 * det
    if disc < 0:
        return True  # complex pair: conjugates, equal moduli
    if disc > 0:
        return tr == 0  # real distinct: need lambda1 = -lambda2
    return b == 0 and c == 0 and a == d  # double root: diagonalizable iff scalar


def test_certify_agrees_with_eigenvalue_oracle_exhaustive():
    span = range(-3, 4)
    checked = 0
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    det = a * d - b * c
                    if not 2 <= abs(det) <= 4:
                        continue
                    M = [[a, b], [c, d]]
                    expected = _exact_isotropy_oracle_2x2(M)
                    A = matana.DilationMatrix(np.array(M, dtype=np.int64), 2, abs(det))
                    got = matana.certify_isotropy(A).isotropic
                    assert got == expected, f"mismatch for {M}"
                    checked += 1
    assert checked == 896


def test_certify_d1_always_isotropic():
    for a in range(-4, 5):
        if not 2 <= abs(a) <= 4:
            continue
        A = matana.DilationMatrix(np.array([[a]], dtype=np.int64), 1, abs(a))
        cert = matana.certify_isotropy(A)
        assert cert.isotropic
        assert np.allclose(cert.witness.Q2, [[1.0]])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "uni"])
def test_invariance_residual(name, profiles):
    p = profiles(name)
    lam = p.q ** (2.0 / p.d)
    resid = p.A.A @ p.Q2.Q2 @ p.A.A.T - lam * p.Q2.Q2
    assert np.max(np.abs(resid)) / np.max(np.abs(p.Q2.Q2)) < 1e-12


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "uni"])
def test_P_invariance_random(name, profiles, rng):
    p = profiles(name)
    xi = rng.uniform(-10, 10, size=(100, p.d))
    lhs = matana.eval_P(p.Q2, xi @ p.A.inv_T.T)
    rhs = p.q ** (-2.0 / p.d) * matana.eval_P(p.Q2, xi)
    assert np.all(np.abs(lhs - rhs) < 1e-10 * (1 + matana.eval_P(p.Q2, xi)))


def test_orthogonal_part_tr1():
    A = matana.validate_dilation(MATRICES["A2"])
    op = matana.orthogonal_part(A, matana.solve_quadratic_form(A))
    assert abs(abs(op.U[0, 0]) - 1 / (2 * np.sqrt(2))) < 1e-12
    assert abs(abs(op.U[1, 0]) - np.sqrt(7) / (2 * np.sqrt(2))) < 1e-12


def test_orthogonal_part_quincunx_rotation():
    A = matana.validate_dilation(MATRICES["A1"])
    op = matana.orthogonal_part(A, matana.solve_quadratic_form(A))
    expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)  # rotation by pi/4
    assert np.max(np.abs(op.U - expected)) < 1e-12


def test_orthogonal_part_diagonal_identity():
    A = matana.validate_dilation(MATRICES["A4"])
    op = matana.orthogonal_part(A, matana.solve_quadratic_form(A))
    assert np.max(np.abs(op.U - np.eye(2))) < 1e-12


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
def test_orthogonal_part_reconstruction(name):
    A = matana.validate_dilation(MATRICES[name])
    qf = matana.solve_quadratic_form(A)
    op = matana.orthogonal_part(A, qf)
    assert np.max(np.abs(op.U.T @ op.U - np.eye(A.d))) < 1e-10
    recon = A.q ** (-1.0 / A.d) * np.linalg.inv(op.Q) @ op.U @ op.Q
    assert np.max(np.abs(recon - A.inv_T)) < 1e-10


@pytest.mark.parametrize("name", ["A1", "A2", "uni"])
def test_inverse_is_computed_once_and_read_only(name):
    A = matana.validate_dilation(MATRICES[name])
    expected = np.linalg.inv(np.array(MATRICES[name], dtype=float))
    assert np.array_equal(A.inv, expected)
    assert np.array_equal(A.inv_T, expected.T)
    assert A.inv_T is A.inv_T
    for M in (A.inv, A.inv_T):
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


def test_eval_P():
    qf = matana.QuadraticForm(np.eye(2), 2)
    assert matana.eval_P(qf, [3.0, 4.0]) == pytest.approx(25.0)
    qf2 = matana.QuadraticForm(np.array([[2.0, -0.5], [-0.5, 1.0]]), 2)
    assert matana.eval_P(qf2, [1.0, 1.0]) == pytest.approx(2.0)
    assert matana.eval_P(qf2, [0.0, 0.0]) == 0.0
    batch = matana.eval_P(qf, np.array([[3.0, 4.0], [1.0, 0.0]]))
    assert np.allclose(batch, [25.0, 1.0])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
def test_eval_P_point_has_the_bits_of_its_batch_row(name):
    qf = matana.solve_quadratic_form(matana.validate_dilation(MATRICES[name]))
    x = np.random.default_rng(3).uniform(-13.0, 13.0, size=(200, 2))
    batch = matana.eval_P(qf, x)
    assert [matana.eval_P(qf, row) for row in x] == batch.tolist()
