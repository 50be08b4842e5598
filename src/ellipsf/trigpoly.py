"""Sparse trigonometric polynomials and mask synthesis.

A TrigPoly is a finite map from integer frequency vectors k to complex
coefficients, representing p(xi) = sum_k c_k exp(-i k . xi).  Frequencies are
exact integers; only coefficient values are floating point.  This module
builds the nonnegative polynomial G from a quadratic form, the mask m0 as the
digit-shifted product of G, and the refinement coefficients of the scaling
relation phi(x) = sum_k c_k phi(A x - k).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .digits import DigitSet
from .errors import MaskPoleAtDigit, NotPositiveDefinite, NumericalBreakdown
from .matana import DilationMatrix, QuadraticForm

_PRUNE_REL = 1e-14
REALNESS_TOL = 1e-12


def _negate(k: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-v for v in k)


def _turns(s, d: int) -> tuple[tuple[int, ...], int]:
    """(n, D) with s = n / D exactly: D the common denominator of rational s (length d)."""
    if len(s) != d:
        raise ValueError(f"rational argument has wrong dimension {len(s)}, expected {d}")
    s = [Fraction(c) for c in s]
    D = math.lcm(*(c.denominator for c in s))
    return tuple(c.numerator * (D // c.denominator) for c in s), D


def _phase(num: int, den: int) -> complex:
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


class TrigPoly:
    """Finite-support trigonometric polynomial sum_k c_k e^{-i k.xi}; immutable.

    The terms are stored once, at construction: K (T, d) holds the nonzero
    frequencies in lexicographic order and C (T,) their coefficients, both
    read-only; `coeffs` is a read-only {k: c_k} view of the same terms in
    the order they were given.  For evaluation the pairs {k, -k} are folded
    onto one representative k (the larger one): alpha_k = c_k + c_{-k} and
    beta_k = c_k - c_{-k}, with alpha_0 = c_0 and beta_0 = 0, so that

        p(xi) = sum_k alpha_k cos(k.xi) - i beta_k sin(k.xi),
        Re p(xi) = sum_k Re(alpha_k) cos(k.xi) + Im(beta_k) sin(k.xi)

    for every polynomial, real or not.  Real even polynomials (G and every
    mask) have Im(beta) = 0 and evaluate as a cosine sum alone.  The folded
    arrays are built on the first evaluation and kept.
    """

    def __init__(self, d: int, coeffs: dict | None = None):
        terms = {}
        for k, c in (coeffs or {}).items():
            c = complex(c)
            if c != 0:
                terms[tuple(map(int, k))] = c
        keys = sorted(terms)
        K = np.fromiter(chain.from_iterable(keys), np.int64, len(keys) * d).reshape(len(keys), d)
        C = np.array([terms[k] for k in keys], dtype=complex)
        K.flags.writeable = C.flags.writeable = False
        init = object.__setattr__
        init(self, "d", d)
        init(self, "K", K)
        init(self, "C", C)
        init(self, "coeffs", MappingProxyType(terms))

    def __setattr__(self, name, value):
        raise AttributeError(f"TrigPoly is immutable; cannot set {name!r}")

    @classmethod
    def constant(cls, d: int, value=1.0) -> "TrigPoly":
        return cls(d, {(0,) * d: value})

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        return f"TrigPoly(d={self.d}, terms={len(self.coeffs)})"

    @cached_property
    def _folded(self):
        """(H, alpha, beta, has_sin): representatives H (n, d), ascending."""
        reps = sorted({max(k, _negate(k)) for k in self.coeffs})
        alpha, beta = [], []
        for k in reps:
            c = self.coeffs.get(k, 0j)
            if any(k):
                cm = self.coeffs.get(_negate(k), 0j)
                alpha.append(c + cm)
                beta.append(c - cm)
            else:
                alpha.append(c)
                beta.append(0j)
        H = np.array(reps, dtype=np.int64).reshape(len(reps), self.d)
        has_sin = any(z.imag != 0 for z in beta)
        return H, np.array(alpha, dtype=complex), np.array(beta, dtype=complex), has_sin

    def eval(self, xi):
        """Evaluate at a point (d,) or batch (N, d); returns complex."""
        H, alpha, beta, _ = self._folded
        x = np.asarray(xi, dtype=float)
        ph = np.atleast_2d(x) @ H.T
        vals = np.cos(ph) @ alpha - 1j * (np.sin(ph) @ beta)
        return complex(vals[0]) if x.ndim == 1 else vals

    def eval_real(self, xi):
        """Real part of eval, from the folded cosine (and, if any, sine) sum."""
        H, alpha, beta, has_sin = self._folded
        x = np.asarray(xi, dtype=float)
        ph = np.atleast_2d(x) @ H.T
        vals = np.cos(ph) @ alpha.real
        if has_sin:
            vals += np.sin(ph) @ beta.imag
        return float(vals[0]) if x.ndim == 1 else vals

    def eval_at_two_pi(self, s) -> complex:
        """Evaluate at xi = 2 pi s for exact rational s, with compensated sums.

        Phases e^{-2 pi i k.s} are exact for dyadic k.s, so digit products
        with determinant a power of two come out bit-exact.
        """
        n, D = _turns(s, self.d)
        re, im = [], []
        for k, c in self.coeffs.items():
            z = c * _phase(sum(ki * ni for ki, ni in zip(k, n)), D)
            re.append(z.real)
            im.append(z.imag)
        return complex(math.fsum(re), math.fsum(im))

    def shift_argument(self, t) -> "TrigPoly":
        """Realize xi -> xi + 2 pi t exactly for rational t: c_k *= e^{-2 pi i k.t}."""
        n, D = _turns(t, self.d)
        return TrigPoly(self.d, {k: c * _phase(sum(ki * ni for ki, ni in zip(k, n)), D)
                                 for k, c in self.coeffs.items()})

    def transform_frequencies(self, M) -> "TrigPoly":
        """Map k -> M k on frequencies; the result evaluates to p(M^T xi)."""
        out = {}
        for nk, c in zip(map(tuple, (self.K @ np.asarray(M, dtype=np.int64).T).tolist()), self.C):
            out[nk] = out.get(nk, 0) + c
        return TrigPoly(self.d, out)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return TrigPoly(self.d, out)

    def __sub__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return TrigPoly(self.d, out)

    def __mul__(self, other):
        """Product; coefficient maps convolve, supports add."""
        if isinstance(other, (int, float, complex)):
            return TrigPoly(self.d, {k: c * other for k, c in self.coeffs.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], complex] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return TrigPoly(self.d, out)._prune()

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if not isinstance(m, int) or m < 0:
            raise ValueError("power must be a nonnegative integer")
        out = TrigPoly.constant(self.d)
        for _ in range(m):
            out = out * self
        return out

    def _coerce(self, other) -> "TrigPoly":
        if isinstance(other, TrigPoly):
            if other.d != self.d:
                raise ValueError("dimension mismatch")
            return other
        return TrigPoly.constant(self.d, other)

    def _prune(self) -> "TrigPoly":
        """Copy without the terms at or below _PRUNE_REL of the largest."""
        if not self.coeffs:
            return self
        cut = _PRUNE_REL * max(abs(c) for c in self.coeffs.values())
        return TrigPoly(self.d, {k: c for k, c in self.coeffs.items() if abs(c) > cut})

    @property
    def is_real(self) -> bool:
        """True iff c_{-k} = conj(c_k) for every frequency (checked, not assumed)."""
        scale = max((abs(c) for c in self.coeffs.values()), default=1.0)
        for k, c in self.coeffs.items():
            if abs(self.coeffs.get(_negate(k), 0) - c.conjugate()) > REALNESS_TOL * max(scale, 1.0):
                return False
        return True

    def realify(self, tol: float = REALNESS_TOL) -> "TrigPoly":
        """Drop imaginary coefficient parts below tol (absolute); fail otherwise."""
        worst = max((abs(c.imag) for c in self.coeffs.values()), default=0.0)
        if worst > tol:
            raise NumericalBreakdown(f"imaginary residue {worst:.3e} above {tol:.1e}")
        return TrigPoly(self.d, {k: complex(c.real, 0.0) for k, c in self.coeffs.items()})

    def real_coeffs(self) -> dict[tuple[int, ...], float]:
        return {k: c.real for k, c in self.realify().coeffs.items()}


def build_G(qf: QuadraticForm) -> TrigPoly:
    """Trigonometric polynomial with Taylor expansion P(xi) + O(|xi|^4).

    G(xi) = 4 sum_i q_ii sin^2(xi_i/2) + 2 sum_{i<j} q_ij sin xi_i sin xi_j,
    nonnegative on R^d and vanishing exactly on 2 pi Z^d.
    """
    Q2 = qf.Q2
    d = qf.d
    if np.linalg.eigvalsh(Q2)[0] <= 0:
        raise NotPositiveDefinite("quadratic form must be positive definite")
    coeffs: dict[tuple[int, ...], complex] = {}

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


def eval_G_stable(qf: QuadraticForm, xi):
    """Evaluate G in its sin form; no cancellation even next to 2 pi Z^d."""
    x = np.asarray(xi, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    out = G_from_sines(qf, np.sin(0.5 * x) ** 2, np.sin(x) if qf.d > 1 else None)
    return float(out[0]) if single else out


def G_from_sines(qf: QuadraticForm, s2: np.ndarray, sx: np.ndarray | None) -> np.ndarray:
    """G on rows given by their sines: s2 = sin(xi/2)^2 and sx = sin(xi), both (N, d).

    sx is read only for d > 1.  eval_G_stable and estimate_B's tabulated grid
    share this arithmetic, so both give G to the same bits.
    """
    Q2 = qf.Q2
    out = 4.0 * (s2 @ np.diag(Q2).copy())
    for i in range(qf.d):
        for j in range(i + 1, qf.d):
            if Q2[i, j] != 0:
                out = out + 2.0 * Q2[i, j] * sx[:, i] * sx[:, j]
    return out


def build_mask(A: DilationMatrix, G: TrigPoly, ds: DigitSet) -> TrigPoly:
    """Mask m0(xi) = prod_{s in S(A^T)\\{0}} G(xi + 2 pi s) / G(2 pi s).

    `ds` must be the digit set of A^T.  Raises MaskPoleAtDigit when some
    G(2 pi s) vanishes, in which case the construction is undefined.
    """
    expected = tuple(tuple(int(v) for v in row) for row in A.entries.T)
    if ds.matrix != expected:
        raise ValueError("digit set does not belong to A^T")
    shifts = ds.nonzero_S()
    num = TrigPoly.constant(G.d)
    den = 1.0
    scale = max(abs(c) for c in G.coeffs.values())
    for s in shifts:
        g = G.eval_at_two_pi(s)
        if abs(g) <= 1e-12 * scale:
            raise MaskPoleAtDigit(f"G(2 pi {tuple(map(str, s))}) = {g:.3e}")
        num = num * G.shift_argument(s)
        den *= g.real if abs(g.imag) <= 1e-12 * abs(g) else g
    mask = num * (1.0 / den)
    return mask.realify()


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
    cmap = m0.real_coeffs()
    total = math.fsum(cmap.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mask is not normalized, m0(0) = {total!r}")
    c = {k: q * v for k, v in cmap.items()}
    return RefinementCoefficients(c, q, m0.d)


def render_cosine(p: TrigPoly, digits: int = 12) -> str:
    """Human-readable cosine/sine rendering for comparison against tables.

    Reads the folded form: the constant first, then each representative
    frequency k, in descending order, as Re(alpha_k) cos + Im(beta_k) sin.
    """
    H, alpha, beta, _ = p._folded
    c0 = p.coeffs.get((0,) * p.d, 0)
    parts = [f"{c0.real:.{digits}g}"] if c0 != 0 or not p.coeffs else []
    for pos, a, b in zip(H.tolist()[::-1], alpha.real[::-1], beta.imag[::-1]):
        if not any(pos):
            continue
        freq = " + ".join(
            f"{'' if abs(v) == 1 else str(abs(v)) + ' '}x{i + 1}" if v > 0
            else f"-{'' if abs(v) == 1 else str(abs(v)) + ' '}x{i + 1}"
            for i, v in enumerate(pos) if v != 0
        ).replace("+ -", "- ")
        if abs(a) > 1e-15:
            parts.append(f"{a:+.{digits}g} cos({freq})")
        if abs(b) > 1e-15:
            parts.append(f"{b:+.{digits}g} sin({freq})")
    return " ".join(parts) if parts else "0"


def mask_to_json(p: TrigPoly) -> list[dict]:
    """Export format: list of {"k": [...], "c": float} sorted by frequency."""
    cmap = p.real_coeffs()
    return [{"k": list(k), "c": cmap[k]} for k in sorted(cmap)]
