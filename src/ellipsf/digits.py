"""Digit sets of integer matrices, computed exactly.

The digit set W(A) = Z^d intersected with A[0,1)^d is a complete set of coset
representatives of Z^d / A Z^d; S(A) = A^{-1} W(A) collects the fractional
representatives in [0,1)^d.  Everything here is integer or rational
arithmetic, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import ConfigError
from .matana import DilationMatrix, int_det

# Largest q = |det A| whose digits are enumerated; a larger q is a
# ConfigError before any digit is listed.  At the cap, `ellipsf analyze
# --matrix "256,0;0,256"` takes 3.3 s, peaks at 101 MB RSS and prints 5.9 MB
# (2-vCPU VM); uncapped, q = 10^6 took 48 s, 984 MB and printed 95 MB.
MAX_DIGITS = 1 << 16


def int_adjugate(M) -> list[list[int]]:
    """Exact adjugate (transposed cofactor matrix) of an integer matrix."""
    M = [[int(v) for v in row] for row in M]
    n = len(M)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(M) if k != i]
            adj[j][i] = (-1) ** (i + j) * int_det(minor)
    return adj


@dataclass(frozen=True)
class DigitSet:
    W: tuple[tuple[int, ...], ...]
    S: tuple[tuple[Fraction, ...], ...]
    matrix: tuple[tuple[int, ...], ...]

    @property
    def q(self) -> int:
        return len(self.W)

    @property
    def d(self) -> int:
        return len(self.matrix)

    def nonzero_S(self) -> list[tuple[Fraction, ...]]:
        return [s for s in self.S if any(c != 0 for c in s)]


def _as_int_rows(A) -> list[list[int]]:
    if isinstance(A, DilationMatrix):
        return [[int(v) for v in row] for row in A.entries]
    M = np.asarray(A)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("digit_set needs a square matrix")
    if not np.all(np.equal(np.mod(M, 1), 0)):
        raise ValueError("digit_set needs integer entries")
    return [[int(v) for v in row] for row in M]


def digit_set(A) -> DigitSet:
    """Enumerate W(A) = Z^d in A[0,1)^d and S(A) = A^{-1} W(A) exactly.

    Membership of n is decided by integer inequalities on adj(A) n: after
    adjusting by the sign of det, every component must lie in [0, |det|).
    W is sorted lexicographically so downstream mask coefficients are
    deterministic.  Raises ConfigError when q = |det| exceeds MAX_DIGITS.
    """
    M = _as_int_rows(A)
    d = len(M)
    det = int_det(M)
    if det == 0:
        raise ValueError("matrix is singular")
    q = abs(det)
    if q > MAX_DIGITS:
        raise ConfigError(f"matrix has q = |det| = {q} digits; at most {MAX_DIGITS} are allowed")
    adj = int_adjugate(M)
    sign = 1 if det > 0 else -1

    # Bounding box: min/max of A applied to the corners of [0,1]^d, padded by 1.
    lo = [0] * d
    hi = [0] * d
    for corner in product((0, 1), repeat=d):
        img = [sum(M[i][j] * corner[j] for j in range(d)) for i in range(d)]
        lo = [min(a, b) for a, b in zip(lo, img)]
        hi = [max(a, b) for a, b in zip(hi, img)]
    lo = [a - 1 for a in lo]
    hi = [b + 1 for b in hi]

    W = []
    S = []
    for n in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        u = [sign * sum(adj[i][j] * n[j] for j in range(d)) for i in range(d)]
        if all(0 <= ui < q for ui in u):
            W.append(tuple(n))
            S.append(tuple(Fraction(ui, q) for ui in u))
    order = sorted(range(len(W)), key=lambda i: W[i])
    W = tuple(W[i] for i in order)
    S = tuple(S[i] for i in order)
    if len(W) != q:
        raise AssertionError(f"digit enumeration found {len(W)} points, expected {q}")
    return DigitSet(W, S, tuple(tuple(row) for row in M))


def verify_coset_partition(ds: DigitSet, radius: int) -> bool:
    """True iff every |v|_inf <= radius is A k + n for exactly one digit n."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    M = [list(row) for row in ds.matrix]
    d = len(M)
    det = int_det(M)
    adj = int_adjugate(M)
    for v in product(range(-radius, radius + 1), repeat=d):
        hits = 0
        for n in ds.W:
            r = [v[i] - n[i] for i in range(d)]
            u = [sum(adj[i][j] * r[j] for j in range(d)) for i in range(d)]
            if all(ui % det == 0 for ui in u):
                hits += 1
        if hits != 1:
            return False
    return True


def digits_to_json(ds: DigitSet) -> dict:
    """JSON form: W as integer arrays, S as exact "p/q" strings."""
    return {
        "W": [list(n) for n in ds.W],
        "S": [[f"{c.numerator}/{c.denominator}" for c in s] for s in ds.S],
    }
