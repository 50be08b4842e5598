"""The central-difference operator with symbol G, and the operator relations.

The finite-difference operator is -P(D_1, ..., D_d) built from the iterated
central differences D_i^2 and the mixed four-tap stencils D_ij; its symbol is
exactly the trigonometric polynomial G.  The companion objects are the symbol
P/M (whose m-th power annihilates phi^m off the integer lattice) and the
Green spectrum (M/P)^m; both are defined only through their symbols, so every
relation involving them is verified spectrally.
"""

from __future__ import annotations

import numpy as np

from . import cascade, spectral
from .cascade import LatticeGrid, _empty_grid
from .matana import eval_P
from .spectral import SpectralProfile
from .trigpoly import TrigPoly, eval_G_stable


def apply_stencil(G: TrigPoly, grid: LatticeGrid, k: int = 1) -> LatticeGrid:
    """k-fold application of the difference operator with symbol G on a lattice grid.

    The taps are the coefficients of G: the operator maps f to
    sum_n c_n f(. - n), so that its symbol sum_n c_n e^{-i n.xi} is G; for
    G = build_G(qf) that is -sum q_ii D_i^2 - 2 sum_{i<j} q_ij D_ij.  Reads
    outside the input box are exact zeros (compact support); the output box
    grows by the tap hull per application, since supp(Gf) is contained in
    supp(f) + supp(taps).  Integer offsets shift by A^J in index space.
    """
    if k < 1:
        raise ValueError("power k must be >= 1")
    taps = G.coeffs
    offs = np.array(list(taps), dtype=np.int64).reshape(-1, grid.A.d)
    shifts = offs @ grid.A.power(grid.J).T
    out = grid
    for _ in range(k):
        box = cascade.SupportBox(out.box.lo + offs.min(axis=0), out.box.hi + offs.max(axis=0))
        out = cascade.scatter_taps(_empty_grid(grid.A, box, grid.J), out, shifts, taps.values())
    return out


def delta_sharp_symbol(profile: SpectralProfile, xi):
    """Symbol P(xi)/M(xi) of the operator whose m-th power annihilates phi^m
    between lattice points."""
    x = np.asarray(xi, dtype=float)
    return eval_P(profile.Q2, x) / spectral.M_eval(profile, x)


def green_spectrum(profile: SpectralProfile, xi):
    """Fourier transform (M/P)^m of the Green function of the operator."""
    x = np.asarray(xi, dtype=float)
    return (spectral.M_eval(profile, x) / eval_P(profile.Q2, x)) ** profile.m


def verify_operator_relation(profile: SpectralProfile, k: int) -> float:
    """Max relative residual of (P/M)^k phi_hat^m = G^k phi_hat^{m-k}, m = profile.m.

    Checked at 200 seeded points away from the lattice, with the three M
    factors truncated at different tolerances so the identity is not an
    algebraic tautology of one shared truncation.
    """
    m = profile.m
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    tol = profile.truncation_tol
    pts = spectral._off_lattice_points(np.random.default_rng(7), 200, profile.d)
    P = eval_P(profile.Q2, pts)
    Gv = eval_G_stable(profile.Q2, pts)
    M1 = spectral.M_eval(profile, pts, tol)
    M2 = spectral.M_eval(profile, pts, tol * 1e-2)
    M3 = spectral.M_eval(profile, pts, tol * 0.3)
    lhs = (P / M1) ** k * (Gv / P * M2) ** m
    rhs = Gv ** k * (Gv / P * M3) ** (m - k)
    return float(np.max(np.abs(lhs - rhs) / (np.abs(rhs) + 1e-300)))
