"""Dilation-matrix analysis.

Validates integer dilation matrices, certifies isotropy (similarity of the
normalized matrix to an orthogonal one), solves for the invariant positive
definite quadratic form, and extracts the orthogonal part of the similarity
factorization.  All checks are plain real linear algebra on the space of
symmetric matrices; no symbolic eigenvalue machinery is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotExpanding, NotIsotropic, NotPositiveDefinite, NumericalBreakdown, SingularMatrix

# Relative tolerances used by the certificates.
INVARIANCE_RTOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
_NULLSPACE_RTOL = 1e-9
_PD_RTOL = 1e-10

FAIL_UNEQUAL_MODULI = "eigenvalue moduli differ"
FAIL_NOT_DIAGONALIZABLE = "not diagonalizable (defective eigenvalue)"
FAIL_NO_PD_SOLUTION = "invariance equation has no positive definite solution"


def int_det(M) -> int:
    """Exact determinant of an integer matrix via cofactor expansion."""
    M = [[int(v) for v in row] for row in M]
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * int_det(minor)
    return total


@dataclass(frozen=True)
class DilationMatrix:
    """Validated integer matrix with all eigenvalue moduli > 1."""

    entries: np.ndarray
    d: int
    q: int

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def A(self) -> np.ndarray:
        return self.entries.astype(float)

    @cached_property
    def inv(self) -> np.ndarray:
        out = np.linalg.inv(self.entries.astype(float))
        out.setflags(write=False)
        return out

    @cached_property
    def inv_T(self) -> np.ndarray:
        """A^{-T}, the contraction that drives all Fourier-domain orbits (read-only, as `inv`)."""
        return self.inv.T

    def power(self, j: int) -> np.ndarray:
        """Exact integer matrix power A^j (j >= 0)."""
        out = np.eye(self.d, dtype=np.int64)
        for _ in range(j):
            out = out @ self.entries
        return out


def _char_poly_coeffs(M: np.ndarray) -> list[int]:
    """Monic characteristic polynomial coefficients for d <= 3, exact integers."""
    d = M.shape[0]
    tr = int(np.trace(M))
    det = int_det(M)
    if d == 1:
        return [1, -int(M[0, 0])]
    if d == 2:
        return [1, -tr, det]
    m = M
    c2 = 0  # sum of principal 2x2 minors
    for i in range(3):
        for j in range(i + 1, 3):
            c2 += int(m[i, i]) * int(m[j, j]) - int(m[i, j]) * int(m[j, i])
    return [1, -tr, c2, -det]


def validate_dilation(matrix) -> DilationMatrix:
    """Check that `matrix` is a square integer dilation matrix.

    Raises SingularMatrix when det = 0 and NotExpanding when some eigenvalue
    has modulus <= 1.  For d <= 3 the eigenvalue moduli come from the exact
    integer characteristic polynomial; larger d falls back on the numerical
    spectrum with a 1e-8 margin.
    """
    M = np.asarray(matrix)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.equal(np.mod(M, 1), 0)):
        raise ValueError("matrix entries must be integers")
    M = M.astype(np.int64)
    d = M.shape[0]
    det = int_det(M)
    if det == 0:
        raise SingularMatrix("determinant is zero")
    if d <= 3:
        roots = np.roots(_char_poly_coeffs(M))
        if np.min(np.abs(roots)) <= 1.0 + 1e-9:
            raise NotExpanding(f"eigenvalue moduli {sorted(np.abs(roots))} not all > 1")
    else:
        moduli = np.abs(np.linalg.eigvals(M.astype(float)))
        if np.min(moduli) <= 1.0 + 1e-8:
            raise NotExpanding(f"eigenvalue moduli {sorted(moduli)} not all > 1")
    return DilationMatrix(M, d, abs(det))


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric positive definite Q^2 with A Q^2 A^T = q^{2/d} Q^2.

    Normalized so the last diagonal entry equals 1.  `degenerate` flags the
    case where the invariance equation had a solution space of dimension > 1
    and the positive definite element closest to the identity was picked.
    """

    Q2: np.ndarray
    d: int
    degenerate: bool = False

    def __post_init__(self):
        self.Q2.setflags(write=False)

    def __call__(self, xi) -> float | np.ndarray:
        return eval_P(self, xi)


@dataclass(frozen=True)
class IsotropyCertificate:
    isotropic: bool
    witness: QuadraticForm | None = None
    failure_reason: str | None = None


@dataclass(frozen=True)
class OrthogonalPart:
    U: np.ndarray
    Q: np.ndarray = field(repr=False)


def _sym_basis(d: int) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the symmetric d x d matrices."""
    basis = []
    for i in range(d):
        for j in range(i, d):
            E = np.zeros((d, d))
            if i == j:
                E[i, i] = 1.0
            else:
                E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(E)
    return basis


def _invariance_nullspace(A: DilationMatrix) -> np.ndarray:
    """Null space of X -> A X A^T - q^{2/d} X on symmetric matrices.

    Returns an (n_null, d, d) array of Frobenius-orthonormal symmetric
    solutions.
    """
    d = A.d
    lam = A.q ** (2.0 / d)
    basis = _sym_basis(d)
    Af = A.A
    L = np.empty((len(basis), len(basis)))
    for k, E in enumerate(basis):
        img = Af @ E @ Af.T - lam * E
        L[:, k] = [np.tensordot(img, B) for B in basis]
    _, s, vt = np.linalg.svd(L)
    null = [vt[i] for i in range(len(basis)) if s[i] < _NULLSPACE_RTOL * max(s[0], 1.0)]
    out = np.empty((len(null), d, d))
    for n, vec in enumerate(null):
        X = np.zeros((d, d))
        for coeff, E in zip(vec, basis):
            X += coeff * E
        out[n] = X
    return out


def _min_eig_ratio(X: np.ndarray) -> float:
    w = np.linalg.eigvalsh(X)
    return w[0] / max(abs(w[-1]), 1e-300)


def _classify_failure(A: DilationMatrix) -> str:
    lam = np.linalg.eigvals(A.A)
    moduli = np.abs(lam)
    if moduli.max() - moduli.min() > 1e-8 * moduli.max():
        return FAIL_UNEQUAL_MODULI
    # Equal moduli: check geometric multiplicities against cluster sizes.
    remaining = list(lam)
    while remaining:
        lam0 = remaining[0]
        cluster = [z for z in remaining if abs(z - lam0) < 1e-6 * max(1.0, abs(lam0))]
        remaining = [z for z in remaining if abs(z - lam0) >= 1e-6 * max(1.0, abs(lam0))]
        sv = np.linalg.svd(A.A.astype(complex) - lam0 * np.eye(A.d), compute_uv=False)
        geo = int(np.sum(sv < 1e-8 * max(sv[0], 1.0)))
        if geo < len(cluster):
            return FAIL_NOT_DIAGONALIZABLE
    return FAIL_NO_PD_SOLUTION


def certify_isotropy(A: DilationMatrix) -> IsotropyCertificate:
    """Decide isotropy by positive definite solvability of the invariance equation.

    A is isotropic (diagonalizable with eigenvalues equal in modulus) exactly
    when A X A^T = q^{2/d} X admits a symmetric positive definite solution X.
    Failure is a value with a diagnostic reason, never an exception.
    """
    try:
        qf = solve_quadratic_form(A)
    except NotIsotropic:
        return IsotropyCertificate(False, failure_reason=_classify_failure(A))
    return IsotropyCertificate(True, witness=qf)


def solve_quadratic_form(A: DilationMatrix) -> QuadraticForm:
    """Solve A X A^T = q^{2/d} X for symmetric PD X, scaled so x_dd = 1.

    When the solution space has dimension > 1, the element closest to the
    identity in Frobenius norm is chosen and flagged `degenerate`.
    Raises NotIsotropic when no positive definite solution exists.
    """
    null = _invariance_nullspace(A)
    if len(null) == 0:
        raise NotIsotropic("invariance equation has only the zero solution")
    if len(null) == 1:
        candidates = [null[0] if null[0][-1, -1] >= 0 else -null[0]]
        degenerate = False
    else:
        # Orthogonal projection of I onto the null space (basis is
        # Frobenius-orthonormal), then the individual basis solutions as
        # fallbacks in case the projection misses the PD cone.
        proj = np.zeros_like(null[0])
        for B in null:
            proj += np.trace(B) * B
        candidates = [proj]
        for B in null:
            candidates.extend([B, -B])
        degenerate = True
    X = None
    for cand in candidates:
        if cand[-1, -1] > 0 and _min_eig_ratio(cand) > _PD_RTOL:
            X = cand
            break
    if X is None:
        raise NotIsotropic("no positive definite solution of the invariance equation")
    X = X / X[-1, -1]
    X = 0.5 * (X + X.T)
    qf = QuadraticForm(X, A.d, degenerate)
    _check_invariance(A, qf)
    return qf


def _check_invariance(A: DilationMatrix, qf: QuadraticForm):
    lam = A.q ** (2.0 / A.d)
    resid = A.A @ qf.Q2 @ A.A.T - lam * qf.Q2
    rel = np.max(np.abs(resid)) / np.max(np.abs(qf.Q2))
    if rel > 100 * INVARIANCE_RTOL:
        raise NumericalBreakdown(f"invariance residual {rel:.3e} too large")


def pd_sqrt(X: np.ndarray) -> np.ndarray:
    """Symmetric PD square root via eigendecomposition."""
    w, V = np.linalg.eigh(X)
    if w[0] <= 0:
        raise NotPositiveDefinite("matrix is not positive definite")
    return (V * np.sqrt(w)) @ V.T


def orthogonal_part(A: DilationMatrix, qf: QuadraticForm) -> OrthogonalPart:
    """Orthogonal factor U = q^{1/d} Q A^{-T} Q^{-1} of the similarity.

    Q is the PD square root of Q^2; the reconstruction
    A^{-T} = q^{-1/d} Q^{-1} U Q holds within 1e-10.
    """
    try:
        Q = pd_sqrt(qf.Q2)
    except NotPositiveDefinite as exc:
        raise NumericalBreakdown(str(exc)) from exc
    Qinv = np.linalg.inv(Q)
    U = A.q ** (1.0 / A.d) * Q @ A.inv_T @ Qinv
    if np.max(np.abs(U.T @ U - np.eye(A.d))) > ORTHOGONALITY_TOL:
        raise NumericalBreakdown("similarity factor failed the orthogonality check")
    return OrthogonalPart(U, Q)


def quadratic_rows(x: np.ndarray, S: np.ndarray) -> np.ndarray:
    """x_n^T S x_n for each row of x (N, d), summed over (i, j) in row-major
    order.  The order is fixed, so a row has the same bits alone or in any
    batch; einsum("ni,ij,nj->n") gives these bits for N >= 3 rows, but its
    iterator reorders the sum when N is 1 or 2.  As in einsum, a row that
    overflows gives inf or nan without a warning; callers test the result."""
    out = np.zeros(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(x.shape[1]):
            for j in range(x.shape[1]):
                out += x[:, i] * S[i, j] * x[:, j]
    return out


def eval_P(qf: QuadraticForm, xi) -> float | np.ndarray:
    """Quadratic form P(xi) = xi^T Q^2 xi; accepts a point (d,) or batch (N, d).
    A point has the bits of its row in a batch (quadratic_rows)."""
    x = np.asarray(xi, dtype=float)
    if x.ndim == 1:
        return float(quadratic_rows(x[None], qf.Q2)[0])
    return quadratic_rows(x, qf.Q2)
