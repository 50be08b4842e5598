"""Acceptance suite: one test per numbered criterion (7 is parametrized).

Every test prints a `ACCEPTANCE <n> ...: PASS/FAIL` line (run pytest with -s
to stream them).  Tolerances are pinned here and nowhere else; tests that
cannot meet a pinned tolerance fail honestly with the measured value.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from ellipsf import cascade, digits, matana, properties, spectral, trigpoly
from ellipsf.properties import Polynomial

import helpers
from conftest import MATRICES


def _line(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


# -- 1 ----------------------------------------------------------------------

def test_c01_quadratic_form_reproduction():
    expected = {
        "A1": np.eye(2),
        "A2": np.array([[2.0, -0.5], [-0.5, 1.0]]),
        "A3": np.array([[2.0, 0.5], [0.5, 1.0]]),
        "A4": np.eye(2),
    }
    mats = {name: matana.validate_dilation(MATRICES[name]) for name in expected}
    matana.solve_quadratic_form(mats["A1"])  # warm BLAS before timing
    worst_err, worst_ms = 0.0, 0.0
    for name, target in expected.items():
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            qf = matana.solve_quadratic_form(mats[name])
            best = min(best, time.perf_counter() - t0)
        worst_err = max(worst_err, float(np.max(np.abs(qf.Q2 - target))))
        worst_ms = max(worst_ms, best * 1e3)
    ok = worst_err < 1e-10 and worst_ms < 1.0
    assert _line(1, "Q2 reproduction", ok,
                 f"(max entry err {worst_err:.2e}, max time {worst_ms:.3f} ms)")


# -- 2 ----------------------------------------------------------------------

def test_c02_mask_reproduction():
    worst_err, worst_ms = 0.0, 0.0
    for name in ("A1", "A2", "A3", "A4", "uni"):
        A = matana.validate_dilation(MATRICES[name])
        qf = matana.solve_quadratic_form(A)
        G = trigpoly.build_G(qf)
        ds = digits.digit_set(A.entries.T)
        t0 = time.perf_counter()
        m0 = trigpoly.build_mask(A, G, ds)
        worst_ms = max(worst_ms, (time.perf_counter() - t0) * 1e3)
        ref = helpers.fft_coeffs(helpers.REFERENCE_MASKS[name], A.d)
        worst_err = max(worst_err, helpers.coeff_dict_dist(m0.coeffs, ref))
    ok = worst_err < 1e-12 and worst_ms < 10.0
    assert _line(2, "mask reproduction", ok,
                 f"(max coeff err {worst_err:.2e}, max time {worst_ms:.2f} ms)")


# -- 3 ----------------------------------------------------------------------

def test_c03_B_constants(profiles):
    targets = {"A1": 1.0, "A2": 2.0, "A3": 25.0 / 24.0, "A4": 9.0 / 8.0}
    t0 = time.perf_counter()
    errs = {}
    for name, target in targets.items():
        B = spectral.estimate_B(profiles(name), grid_n=256)
        errs[name] = abs(B - target)
    elapsed = time.perf_counter() - t0
    ok = max(errs.values()) < 1e-6 and elapsed < 5.0
    assert _line(3, "B constants", ok,
                 f"(max err {max(errs.values()):.2e}, total {elapsed:.2f} s)")


# -- 4 ----------------------------------------------------------------------

def test_c04_riesz_verdicts(profiles):
    expected = {"A1": (True, -2.0), "A3": (True, -1.882), "A4": (True, -1.8301)}
    ok = True
    details = []
    for name, (want_ok, want_decay) in expected.items():
        p = profiles(name)
        got_ok, _, decay = spectral.riesz_verdict(
            p, spectral.estimate_B(p, grid_n=256))
        ok &= got_ok == want_ok and abs(decay - want_decay) < 5e-4
        details.append(f"{name}:{decay:+.5f}")
    p2 = profiles("A2")
    got_ok2, _, _ = spectral.riesz_verdict(
        p2, spectral.estimate_B(p2, grid_n=256))
    ok &= got_ok2 is False
    assert _line(4, "Riesz verdicts and decay", ok, "(" + ", ".join(details) + ", A2 fails)")


# -- 5 ----------------------------------------------------------------------

def test_c05_univariate_reduction(profiles, grids):
    t0 = time.perf_counter()
    p = profiles("uni")
    xs = np.linspace(-25.0, 25.0, 10000)
    mu_dev = float(np.max(np.abs(spectral.mu(p, xs.reshape(-1, 1)) - 1.0)))
    phi_dev = float(np.max(np.abs(spectral.phi_hat(p, xs.reshape(-1, 1))
                                  - helpers.sinc_squared(xs))))
    g = grids("uni", 2, 5)
    x = g.cartesian_points()[:, 0]
    spline_dev = float(np.max(np.abs(g.values - helpers.cubic_bspline(x))))
    elapsed = time.perf_counter() - t0
    ok = mu_dev < 1e-12 and phi_dev < 1e-10 and spline_dev < 1e-8 and elapsed < 2.0
    assert _line(5, "univariate reduction", ok,
                 f"(mu {mu_dev:.1e}, phi_hat {phi_dev:.1e}, B3 {spline_dev:.1e}, {elapsed:.2f} s)")


# -- 6 ----------------------------------------------------------------------

def test_c06_quincunx_interpolation(profiles):
    p = profiles("A1")
    rc = trigpoly.refinement_coefficients(p.m0, p.q)
    g0 = cascade.integer_values(p.A, rc)
    idx = g0.index_points
    delta = np.all(idx == 0, axis=1).astype(float)
    dev = float(np.max(np.abs(g0.values - delta)))
    assert _line(6, "quincunx interpolation", dev < 1e-10, f"(max dev {dev:.2e})")


# -- 7 ----------------------------------------------------------------------

_C7_TIMES = []
_C7_CASES = list(product(("A1", "A3", "A4"), (1, 2)))


def _c7_grid(grids, name, m):
    return grids(name, m, 5)


@pytest.mark.parametrize("name,m", _C7_CASES)
def test_c07_partition_of_unity(name, m, grids):
    t0 = time.perf_counter()
    r = properties.check_partition_of_unity(_c7_grid(grids, name, m))
    _C7_TIMES.append(time.perf_counter() - t0)
    assert _line(7, f"partition of unity {name} m={m}", r <= 1e-8, f"(residual {r:.2e})")


@pytest.mark.parametrize("name,m", _C7_CASES)
def test_c07_total_positivity(name, m, profiles):
    t0 = time.perf_counter()
    r = properties.check_total_positivity(profiles(name, m), 64)
    _C7_TIMES.append(time.perf_counter() - t0)
    assert _line(7, f"total positivity {name} m={m}", r >= -1e-10, f"(min {r:.2e})")


@pytest.mark.parametrize("name,m", _C7_CASES)
def test_c07_strang_fix(name, m, profiles):
    t0 = time.perf_counter()
    r = properties.check_strang_fix(profiles(name, m))
    _C7_TIMES.append(time.perf_counter() - t0)
    assert _line(7, f"Strang-Fix {name} m={m}", r <= 1e-6, f"(max derivative {r:.2e})")


@pytest.mark.parametrize("name,m", _C7_CASES)
def test_c07_fourier_refinement(name, m, profiles):
    t0 = time.perf_counter()
    r = properties.check_fourier_refinement(profiles(name, m))
    _C7_TIMES.append(time.perf_counter() - t0)
    assert _line(7, f"Fourier refinement {name} m={m}", r <= 1e-8, f"(residual {r:.2e})")


@pytest.mark.parametrize("name,m", _C7_CASES)
def test_c07_convolution(name, m, profiles):
    t0 = time.perf_counter()
    r = properties.check_convolution(profiles(name, m), 5)
    _C7_TIMES.append(time.perf_counter() - t0)
    h2 = profiles(name, m).q ** (-2 * 5.0 / profiles(name, m).d)
    assert _line(7, f"convolution {name} m={m}", r <= 5e-3,
                 f"(max dev {r:.2e}, level-5 quadrature scale h^2 = {h2:.2e})")


@pytest.mark.parametrize("name,m", _C7_CASES)
def test_c07_non_decay(name, m, profiles):
    t0 = time.perf_counter()
    p = profiles(name, m)
    r = properties.check_non_decay(p)
    _C7_TIMES.append(time.perf_counter() - t0)
    assert _line(7, f"non-decay spot check {name} m={m}",
                 r <= 10 * p.truncation_tol, f"(max dev {r:.2e})")


def test_c07_total_runtime():
    total = sum(_C7_TIMES)
    assert _line(7, "property suite runtime", total < 60.0, f"({total:.1f} s for "
                 f"{len(_C7_TIMES)} checks)")


# -- 8 ----------------------------------------------------------------------

def test_c08_null_space_reproduction(profiles, grids):
    p = profiles("A1")
    grid = grids("A1", 1, 5)
    AJ = p.A.power(5)
    inv = np.linalg.inv(AJ.astype(float))
    rng = np.random.default_rng(88)
    idx = grid.index_points
    x = idx @ inv.T
    pool = idx[np.all(np.abs(x) <= 2.0, axis=1)]
    sel = pool[rng.choice(len(pool), size=80, replace=False)]
    xs = sel @ inv.T
    ks = np.array(list(product(range(-5, 6), repeat=2)), dtype=np.int64)

    def shift_sum(poly):  # brute-force oracle, independent of the library path
        pk = poly.eval(ks.astype(float))
        out = np.zeros(len(sel))
        for w, k in zip(pk, ks):
            if w != 0.0:
                out += w * grid.lookup(sel - k @ AJ.T)
        return out

    cases = [
        ("x^2-y^2", Polynomial.from_terms(2, ((2, 0), 1.0), ((0, 2), -1.0)), True),
        ("xy", Polynomial.from_terms(2, ((1, 1), 1.0)), True),
        ("x^2+y^2", Polynomial.from_terms(2, ((2, 0), 1.0), ((0, 2), 1.0)), False),
    ]
    ok = True
    details = []
    for label, poly, expect in cases:
        resid = shift_sum(poly) - poly.eval(xs)
        V = np.stack([np.ones(len(xs)), xs[:, 0], xs[:, 1]], axis=1)
        coef, *_ = np.linalg.lstsq(V, resid, rcond=None)
        fit = float(np.max(np.abs(resid - V @ coef)))
        reproduced = fit < 1e-5
        ok &= reproduced == expect
        # library verdict must agree with the brute-force oracle
        lib_ok, lib_deg, _ = properties.check_polynomial_reproduction(p, poly, grid=grid)
        ok &= lib_ok == expect
        if expect:
            ok &= lib_deg < 2
        details.append(f"{label}:{'repr' if reproduced else 'fails'}({fit:.1e})")
    assert _line(8, "null-space reproduction", ok, "(" + ", ".join(details) + ")")


# -- 9 ----------------------------------------------------------------------

def test_c09_approximation_order(profiles):
    ok = True
    details = []
    for name in ("uni", "A1"):
        for m in (1, 2):
            slope, _ = properties.check_approximation_order(profiles(name, m))
            target = 2 * m - 0.4
            ok &= slope is not None and slope >= target
            details.append(f"{name} m={m}: {slope:.2f}>={target}")
    assert _line(9, "approximation order", ok, "(" + ", ".join(details) + ")")


# -- 10 ---------------------------------------------------------------------

def test_c10_diag_not_quincunx_squared(profiles):
    m04 = profiles("A4").m0
    m01 = profiles("A1").m0
    Atilde = np.array([[1, 1], [1, -1]])
    prod = helpers.coeff_product(helpers.map_frequencies(m01.coeffs, Atilde), m01.coeffs)
    dist = helpers.coeff_dict_dist(m04.coeffs, prod)
    assert _line(10, "diag mask is not the quincunx square", dist > 1e-3,
                 f"(max coeff gap {dist:.3f})")
