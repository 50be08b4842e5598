"""Sparse trigonometric polynomials and mask synthesis.

A TrigPoly is a finite map from integer frequency vectors k to real
coefficients, representing p(xi) = sum_k c_k exp(-i k . xi), evaluated as one
folded cosine sum (TrigPoly.eval).  Frequencies are exact integers; only
coefficient values are floating point.  This module builds the nonnegative
polynomial G from a quadratic form, the mask m0 and its order-n powers m0^n,
and the refinement coefficients of the scaling relation
phi(x) = sum_k c_k phi(A x - k).

The mask is never expanded as a product of polynomials: build_mask samples
m0^n, the digit-shifted product of values of G, on a grid that holds all its
frequencies, and reads the coefficients off one inverse FFT.  A term at or
below _PRUNE_REL = 1e-14 of the largest is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .digits import DigitSet
from .errors import ConfigError, MaskPoleAtDigit, NotPositiveDefinite, NumericalBreakdown
from .matana import DilationMatrix, QuadraticForm

_PRUNE_REL = 1e-14
REALNESS_TOL = 1e-12
# Sample rows per block of build_mask: a block's phases are (rows, terms of G).
_SAMPLE_BLOCK = 1 << 16


def _negate(k: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-v for v in k)


class TrigPoly:
    """Finite-support real trigonometric polynomial sum_k c_k e^{-i k.xi}; immutable.

    The coefficients are real; a complex one raises TypeError.  The terms are
    stored once, at construction: K (T, d) holds the nonzero frequencies in
    lexicographic order and C (T,) their coefficients, both read-only;
    `coeffs` is a read-only {k: c_k} view of the same terms in the order they
    were given.  For evaluation the pairs {k, -k} are folded onto one
    representative k (the larger one), alpha_k = c_k + c_{-k} and
    alpha_0 = c_0, so that

        Re p(xi) = sum_k alpha_k cos(k.xi),

    which is p itself when p is even (c_{-k} = c_k), as G and every mask
    are.  The folded terms are built on the first evaluation and kept.
    """

    def __init__(self, d: int, coeffs: dict | None = None):
        terms = {}
        for k, c in (coeffs or {}).items():
            if isinstance(c, (complex, np.complexfloating)):
                raise TypeError(f"TrigPoly coefficients are real; got {c!r} at {tuple(k)}")
            c = float(c)
            if c != 0:
                terms[tuple(map(int, k))] = c
        keys = sorted(terms)
        K = np.fromiter(chain.from_iterable(keys), np.int64, len(keys) * d).reshape(len(keys), d)
        C = np.array([terms[k] for k in keys], dtype=float)
        K.flags.writeable = C.flags.writeable = False
        init = object.__setattr__
        init(self, "d", d)
        init(self, "K", K)
        init(self, "C", C)
        init(self, "coeffs", MappingProxyType(terms))

    def __setattr__(self, name, value):
        raise AttributeError(f"TrigPoly is immutable; cannot set {name!r}")

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        return f"TrigPoly(d={self.d}, terms={len(self.coeffs)})"

    @cached_property
    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """(H, alpha): the representatives H (n, d), ascending, and alpha (n,).

        alpha is a stride-2 view on purpose.  Over a strided operand einsum
        sums each row left to right, term by term; over a contiguous one it
        takes a SIMD kernel that adds in another order and moves the last bits
        of eval and quartic_form.
        """
        reps = sorted({max(k, _negate(k)) for k in self.coeffs})
        alpha = np.zeros((len(reps), 2))
        for i, k in enumerate(reps):
            c = self.coeffs.get(k, 0.0)
            alpha[i, 0] = c + self.coeffs.get(_negate(k), 0.0) if any(k) else c
        return np.array(reps, dtype=np.int64).reshape(len(reps), self.d), alpha[:, 0]

    def eval(self, xi):
        """Re p at a point (d,), as a float, or at the rows of a batch (N, d).

        Each row is summed left to right over the folded terms (einsum, no
        BLAS), so a row has the same bits alone or in any batch.  The cosines
        overwrite the phases, so a call holds one (rows, terms) matrix (a pool
        thread's malloc arena keeps that peak).
        """
        H, alpha = self.folded
        x = np.asarray(xi, dtype=float)
        ph = np.atleast_2d(x) @ H.T
        vals = np.einsum("ij,j->i", np.cos(ph, out=ph), alpha)
        return float(vals[0]) if x.ndim == 1 else vals

    def quartic_form(self, xi) -> np.ndarray:
        """sum_k c_k (k.xi)^4 at the rows of xi (N, d), from the folded terms.

        For an even polynomial p this is 24 times the quartic Taylor term of
        p at 0.  The power is taken as two squarings of the phase matrix.
        """
        H, alpha = self.folded
        y = np.atleast_2d(np.asarray(xi, dtype=float)) @ H.T
        y *= y
        y *= y
        return np.einsum("ij,j->i", y, alpha)

    @property
    def is_real(self) -> bool:
        """True iff p is real-valued: c_{-k} = c_k for every frequency, to
        REALNESS_TOL of the largest coefficient (checked, not assumed)."""
        scale = max(max(map(abs, self.coeffs.values()), default=1.0), 1.0)
        return all(abs(self.coeffs.get(_negate(k), 0.0) - c) <= REALNESS_TOL * scale
                   for k, c in self.coeffs.items())


def build_G(qf: QuadraticForm) -> TrigPoly:
    """Trigonometric polynomial with Taylor expansion P(xi) + O(|xi|^4).

    G(xi) = 4 sum_i q_ii sin^2(xi_i/2) + 2 sum_{i<j} q_ij sin xi_i sin xi_j,
    nonnegative on R^d and vanishing exactly on 2 pi Z^d.
    """
    Q2 = qf.Q2
    d = qf.d
    if np.linalg.eigvalsh(Q2)[0] <= 0:
        raise NotPositiveDefinite("quadratic form must be positive definite")
    coeffs: dict[tuple[int, ...], float] = {}

    def bump(k, v):
        k = tuple(k)
        coeffs[k] = coeffs.get(k, 0) + v

    for i in range(d):
        qii = Q2[i, i]
        e = [0] * d
        bump(e, 2 * qii)
        e[i] = 1
        bump(e, -qii)
        e[i] = -1
        bump(e, -qii)
    for i in range(d):
        for j in range(i + 1, d):
            qij = Q2[i, j]
            if qij == 0:
                continue
            for si, sj, w in ((1, 1, -0.5), (-1, -1, -0.5), (1, -1, 0.5), (-1, 1, 0.5)):
                e = [0] * d
                e[i], e[j] = si, sj
                bump(e, w * qij)
    return TrigPoly(d, coeffs)


def sin_form(Q2: np.ndarray, s2: list, sx: list) -> np.ndarray:
    """G's sin form from the columns s2[i] = sin^2(xi_i / 2) and sx[i] = sin xi_i:
    4 sum_i q_ii s2[i] + 2 sum_{i<j} q_ij sx[i] sx[j].

    The columns are arrays that broadcast together; sx is read only where
    Q2 has a nonzero off-diagonal entry.
    """
    out = 4.0 * Q2[0, 0] * s2[0]
    for i in range(1, len(s2)):
        out = out + 4.0 * Q2[i, i] * s2[i]
    for i in range(len(s2)):
        for j in range(i + 1, len(s2)):
            if Q2[i, j] != 0:
                out = out + 2.0 * Q2[i, j] * sx[i] * sx[j]
    return out


def eval_G_stable(qf: QuadraticForm, xi):
    """Evaluate G in its sin form; no cancellation even next to 2 pi Z^d."""
    x = np.asarray(xi, dtype=float)
    cols = np.atleast_2d(x).T
    out = sin_form(qf.Q2, np.sin(0.5 * cols) ** 2, np.sin(cols) if qf.d > 1 else [])
    return float(out[0]) if x.ndim == 1 else out


def build_mask(A: DilationMatrix, G: TrigPoly, ds: DigitSet, n: int = 1) -> TrigPoly:
    """The order-n mask m0^n, m0(xi) = prod_{s in S(A^T)\\{0}} G(xi + 2 pi s) / G(2 pi s).

    `ds` must be the digit set of A^T.  Raises ConfigError when the sample
    grid below has more than cascade.MAX_GRID_CELLS points, MaskPoleAtDigit
    when some G(2 pi s) vanishes, in which case the construction is
    undefined, and NumericalBreakdown when their product overflows or
    underflows (at 32I, 1,023 factors); all before any sample.  The grid is
    checked first, so every integer phase below fits in int64.

    With reach(G) the largest |k_i| over G's frequencies, m0^n has its
    frequencies in the cube |k_i| <= R = n (q - 1) reach(G), so
    its values at xi = 2 pi j / N, N = 2 R + 1 per axis, determine it, and
    one inverse FFT of them gives its coefficients.  A value is a product of
    ratios G(xi + 2 pi s) / G(2 pi s) >= 0, so nothing cancels in it; each G
    is its cosine sum at the point reduced to [-pi, pi)^d exactly (q s is an
    integer vector, so xi + 2 pi s = 2 pi u / (q N) for integers u).  The
    real parts are kept, the terms at or below _PRUNE_REL of the largest are
    dropped, and the rest enter in lexicographic order of k.  The samples
    and their transform peak near 40 bytes a point, 0.7 GB at the cap.
    """
    from . import cascade  # cascade imports this module, so not at the top

    expected = tuple(tuple(int(v) for v in row) for row in A.entries.T)
    if ds.matrix != expected:
        raise ValueError("digit set does not belong to A^T")
    if n < 1:
        raise ValueError("mask order n must be >= 1")
    shifts = ds.nonzero_S()
    N = 2 * n * len(shifts) * int(np.abs(G.K).max()) + 1
    cells = N ** G.d
    if cells > cascade.MAX_GRID_CELLS:
        raise ConfigError(f"the order-{n} mask needs a sample grid of {N}^{G.d} = {cells} "
                          f"points; at most {cascade.MAX_GRID_CELLS} are allowed")
    L = N * ds.q
    turns = N * np.array([[int(c * ds.q) for c in s] for s in shifts], dtype=np.int64)

    def G_at(u):
        """G(2 pi u / L) at the integer rows u, each reduced to [-L/2, L/2)."""
        u = u % L
        return G.eval((2.0 * math.pi / L) * np.where(2 * u >= L, u - L, u))

    values = G_at(turns).tolist()
    scale = max(abs(c) for c in G.coeffs.values())
    for s, g in zip(shifts, values):
        if abs(g) <= 1e-12 * scale:
            raise MaskPoleAtDigit(f"G(2 pi {tuple(map(str, s))}) = {g:.3e}")
    den = math.prod(values)
    if den == 0 or not math.isfinite(den):
        raise NumericalBreakdown(f"the product of the {len(shifts)} values G(2 pi s) is {den}")
    samples = np.ones(cells)
    for lo in range(0, cells, _SAMPLE_BLOCK):
        rows = samples[lo:lo + _SAMPLE_BLOCK]
        j = ds.q * np.stack(np.unravel_index(np.arange(lo, lo + len(rows)), (N,) * G.d), axis=1)
        for t, g in zip(turns, values):
            rows *= G_at(j + t) / g
    samples **= n
    # Unscaled, then divided by N^d: the scaled transform multiplies each
    # axis by a rounded 1/N, which moved 1-D coefficients at q = 3 by an ulp.
    c = np.fft.fftshift(np.fft.ifftn(samples.reshape((N,) * G.d), norm="forward").real)
    c /= cells
    a = np.abs(c)
    keep = a > _PRUNE_REL * a.max()
    k = np.argwhere(keep) - N // 2
    return TrigPoly(G.d, dict(zip(map(tuple, k.tolist()), c[keep].tolist())))


@dataclass(frozen=True)
class RefinementCoefficients:
    """Weights of phi(x) = sum_k c_k phi(A x - k), with sum c_k = q.

    c_k is q times the Fourier coefficient of the mask at k; the L2-normalized
    weights of the scaling relation are h_k = c_k / sqrt(q).
    """

    c: dict[tuple[int, ...], float]
    q: int
    d: int

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.c)

    def total(self) -> float:
        return math.fsum(self.c.values())


def refinement_coefficients(m0: TrigPoly, q: int) -> RefinementCoefficients:
    if not m0.is_real:
        raise ValueError("mask must be real")
    total = math.fsum(m0.coeffs.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mask is not normalized, m0(0) = {total!r}")
    c = {k: q * v for k, v in m0.coeffs.items()}
    return RefinementCoefficients(c, q, m0.d)


def render_cosine(p: TrigPoly) -> str:
    """Human-readable cosine rendering, 12 significant digits, for tables.

    Reads the folded form: the constant first, then each representative
    frequency k, in descending order, as alpha_k cos(k.xi).
    """
    H, alpha = p.folded
    c0 = p.coeffs.get((0,) * p.d, 0)
    parts = [f"{c0:.12g}"] if c0 != 0 or not p.coeffs else []
    for pos, a in zip(H.tolist()[::-1], alpha[::-1]):
        if not any(pos):
            continue
        freq = " + ".join(
            f"{'' if abs(v) == 1 else str(abs(v)) + ' '}x{i + 1}" if v > 0
            else f"-{'' if abs(v) == 1 else str(abs(v)) + ' '}x{i + 1}"
            for i, v in enumerate(pos) if v != 0
        ).replace("+ -", "- ")
        if abs(a) > 1e-15:
            parts.append(f"{a:+.12g} cos({freq})")
    return " ".join(parts) if parts else "0"


def mask_to_json(p: TrigPoly) -> list[dict]:
    """Export format: list of {"k": [...], "c": float} sorted by frequency."""
    return [{"k": list(k), "c": p.coeffs[k]} for k in sorted(p.coeffs)]
