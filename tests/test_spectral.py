import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ellipsf import matana, spectral, trigpoly
from ellipsf.errors import ConfigError, NotIsotropic
from ellipsf.spectral import M_eval, estimate_B, mu, phi_hat, riesz_verdict

import helpers

B_FIXTURES = {"A1": 1.0, "A2": 2.0, "A3": 25.0 / 24.0, "A4": 9.0 / 8.0, "uni": 1.0}


def test_make_profile_rejects_non_isotropic():
    with pytest.raises(NotIsotropic):
        spectral.make_profile([[2, 1], [0, 2]])


def test_make_profile_rejects_bad_order():
    with pytest.raises(ValueError):
        spectral.make_profile([[2]], m=0)


def test_mu_exact_lattice_is_one(profiles):
    p = profiles("A1")
    assert mu(p, 2 * math.pi * np.array([3.0, -2.0])) == 1.0
    assert mu(p, np.zeros(2)) == 1.0


def test_mu_univariate_identically_one(profiles):
    p = profiles("uni")
    xs = np.linspace(-20, 20, 10001).reshape(-1, 1)
    assert np.max(np.abs(mu(p, xs) - 1.0)) < 1e-12
    assert mu(p, np.array([1.234])) == pytest.approx(1.0, abs=1e-12)


def test_mu_quincunx_grid_sup(profiles):
    p = profiles("A1")
    ax = np.linspace(-math.pi, math.pi, 41)
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    assert np.max(mu(p, grid)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
def test_mu_bounds_and_periodicity(name, profiles):
    p = profiles(name)
    B = estimate_B(p, grid_n=128)
    ax = np.linspace(-3 * math.pi, 3 * math.pi, 201)
    grid = np.stack(np.meshgrid(*([ax] * p.d), indexing="ij"), axis=-1).reshape(-1, p.d)
    vals = mu(p, grid)
    assert np.all(vals > 0)
    assert np.max(vals) <= B + 1e-6
    shift = np.zeros(p.d)
    shift[0] = 2 * math.pi
    sub = grid[::7]
    assert np.max(np.abs(mu(p, sub + shift) - mu(p, sub))) < 1e-10


def _sin_form_quartic(p, eta):
    """G4 from G's sin form: 4 sin^2(x/2) = x^2 - x^4/12 + ... and
    sin x sin y = x y - (x^3 y + x y^3)/6 + ..."""
    Q2 = p.Q2.Q2
    out = -np.sum(np.diag(Q2) * eta ** 4, axis=1) / 12
    for i in range(p.d):
        for j in range(i + 1, p.d):
            out -= Q2[i, j] * (eta[:, i] ** 3 * eta[:, j] + eta[:, i] * eta[:, j] ** 3) / 3
    return out


def _closure_free_phi_hat_1(p, x, levels=160):
    """prod_{j=1..levels} m0(B^j x): at 160 levels P(B^j x) is below 1e-28 P(x)."""
    out = np.ones(len(x))
    for _ in range(levels):
        x = x @ p.contraction.T
        out *= p.m0.eval(x)
    return out


@pytest.mark.parametrize("name", ["A1", "A3", "A4", "C3"])
def test_mu_quadratic_sandwich(name, any_profile, rng):
    # mu_quadratic_constant is the K of the closure's bound:
    # |log phi_hat_1(eta) - log (G/P)(eta) - h(eta)| <= K P(eta)^2 for P(eta) <= p_max.
    p = any_profile(name, 1)
    K, p_max = p.tail_bound
    assert spectral.mu_quadratic_constant(p) == K
    dirs = _directions(2000, p.d, rng)
    P = p_max * rng.uniform(0, 1, size=2000) ** 2
    P[:10] = p_max
    eta = dirs * np.sqrt(P / matana.eval_P(p.Q2, dirs))[:, None]
    G = trigpoly.eval_G_stable(p.Q2, eta)
    h = -0.5 * np.einsum("ni,ij,nj->n", eta, p.second_moment, eta) - _sin_form_quartic(p, eta) / P
    closure = spectral._closure(p, eta, with_G_over_P=True)
    assert np.allclose(closure, G / P * np.exp(h), rtol=1e-14, atol=0)
    err = np.log(_closure_free_phi_hat_1(p, eta)) - np.log(closure)
    # 1e-13 is the rounding of the 160 factors, which dominates at small P.
    assert np.all(np.abs(err) <= K * P ** 2 + 1e-13)


@pytest.mark.parametrize("name,m", [(name, m) for name in ("A1", "A3", "A4", "uni")
                                    for m in (1, 2)])
def test_second_moment_solves_stein_and_matches_the_lattice_moments(name, m, profiles, grids):
    p = profiles(name, m)
    S = p.second_moment
    A = p.A.entries.astype(float)
    k, c = p.m0.K.astype(float), p.m0.C.real
    assert np.allclose(A @ S @ A.T - S, (k.T * c) @ k, rtol=0, atol=1e-14)
    # phi^m has second-moment matrix m S.  Its level-J lattice sums of
    # x x^T phi^m(x) q^{-J} are exact for quadratics once m >= 2 (Strang-Fix
    # order 2m), and converge at m = 1.
    g = grids(name, m, 5)
    x = g.index_points @ np.linalg.inv(p.A.power(5).astype(float)).T
    moments = (x.T * (g.values * g.quadrature_weight)) @ x
    assert np.allclose(moments, m * S, rtol=0, atol=1e-13 if m >= 2 else 2e-2)
    if name == "uni":
        assert S[0, 0] == pytest.approx(1 / 6, abs=1e-15)  # the hat function's variance


def test_M_at_zero_is_one(profiles):
    assert M_eval(profiles("A3"), np.zeros(2)) == pytest.approx(1.0, abs=1e-12)


def test_M_univariate_identically_one(profiles):
    p = profiles("uni")
    xs = np.linspace(-30, 30, 301).reshape(-1, 1)
    assert np.max(np.abs(M_eval(p, xs) - 1.0)) < 1e-12


@pytest.mark.parametrize("name", ["A1", "A3", "A4"])
def test_M_truncation_convergence(name, profiles, rng):
    p = profiles(name)
    pts = rng.uniform(-4 * math.pi, 4 * math.pi, size=(50, p.d))
    dev = np.abs(M_eval(p, pts, 1e-8) - M_eval(p, pts, 1e-12))
    assert np.max(dev) < 1e-7


def test_M_rejects_bad_tol(profiles):
    with pytest.raises(ValueError):
        M_eval(profiles("A1"), np.zeros(2), tol=0.0)


def test_truncation_past_max_depth_is_rejected(profiles):
    p = profiles("A1")
    x = np.array([[1.0, 0.5]])
    assert spectral._truncation_depth(p, x, 1e-100) <= spectral.MAX_DEPTH
    # q = 2, d = 2: each level halves P and quarters K P^2, so 1e-300 needs
    # about 500.
    with pytest.raises(ConfigError, match=r"truncation depth 49\d for tol 1e-300"):
        spectral._truncation_depth(p, x, 1e-300)
    with pytest.raises(ConfigError):
        M_eval(p, x, tol=1e-300)
    with pytest.raises(ConfigError):
        phi_hat(spectral.make_profile(p.A, tol=1e-300), x)


@pytest.mark.parametrize("fn", [M_eval, phi_hat], ids=["M_eval", "phi_hat"])
@pytest.mark.parametrize("name,row,P", [("A1", [1e200, 0.0], "inf"),
                                        ("A3", [1e200, -1e200], "(inf|nan)")],
                         ids=["A1", "A3"])
def test_overflowing_P_is_a_config_error(fn, name, row, P, profiles):
    # A finite row whose P overflows needs more levels than any depth.
    with pytest.raises(ConfigError, match=rf"P\(xi\) = {P} for a finite query row"):
        fn(profiles(name), row)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
def test_M_non_decay_along_digit_orbits(name, profiles):
    p = profiles(name)
    tol = 10 * p.truncation_tol
    AT = p.A.entries.T.astype(float)
    for s in p.digits_AT.nonzero_S():
        v = np.array([float(c) for c in s])
        ref = M_eval(p, 2 * math.pi * v)
        assert ref > 0
        for _ in range(4):
            v = AT @ v
            assert abs(M_eval(p, 2 * math.pi * v) - ref) < tol


@pytest.mark.parametrize("name", ["A1", "A3", "A4"])
def test_M_growth_bound(name, profiles, rng):
    p = profiles(name)
    alpha = p.d * math.log(estimate_B(p, grid_n=128)) / math.log(p.q)
    ax = np.linspace(-math.pi, math.pi, 41)
    cell = np.stack(np.meshgrid(*([ax] * p.d), indexing="ij"), axis=-1).reshape(-1, p.d)
    C_fit = np.max(M_eval(p, cell) / (1 + np.linalg.norm(cell, axis=1)) ** alpha)
    dirs = rng.normal(size=(200, p.d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    shell = 16 * math.pi * dirs
    ratio = M_eval(p, shell) / (1 + np.linalg.norm(shell, axis=1)) ** alpha
    assert np.max(ratio) <= 1.5 * C_fit


def test_phi_hat_univariate_closed_form(profiles):
    p = profiles("uni")
    xs = np.linspace(-40, 40, 10001)
    vals = phi_hat(p, xs.reshape(-1, 1))
    assert np.max(np.abs(vals - helpers.sinc_squared(xs))) < 1e-10


def test_phi_hat_at_zero_and_lattice(profiles):
    for name in ("A1", "A3", "A4"):
        p = profiles(name)
        assert phi_hat(p, np.zeros(p.d)) == pytest.approx(1.0, abs=1e-12)
        for k in ([2.0, 0.0], [1.0, -3.0]):
            assert abs(phi_hat(p, 2 * math.pi * np.array(k))) < 1e-10


def test_phi_hat_total_positivity_grid(profiles):
    for name in ("A1", "A3"):
        p = profiles(name)
        ax = np.linspace(-6 * math.pi, 6 * math.pi, 61)
        grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
        assert np.min(phi_hat(p, grid)) >= -1e-10


def test_phi_hat_near_zero_richardson(profiles):
    p = profiles("A3")
    # next to the removable singularity at the origin
    val = phi_hat(p, np.array([1e-8, -1e-8]))
    assert val == pytest.approx(1.0, abs=1e-9)


C3 = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]  # companion matrix of x^3 - 2
LIMIT_CASES = [(name, m) for name in ("A1", "A2", "A3", "A4", "uni", "C3") for m in (1, 2)]
NEAR_ORIGIN_RADII = (1e-8, 1e-10, 1e-50, 1e-100, 1e-150, 1e-160, 1e-200, 1e-300, 5e-324)


@pytest.fixture(scope="module")
def any_profile(profiles):
    """any_profile(name, m) -> profile of a conftest fixture or of C3."""
    c3 = {}

    def get(name, m):
        if name != "C3":
            return profiles(name, m)
        if m not in c3:
            c3[m] = spectral.make_profile(C3, m=m)
        return c3[m]
    return get


def _directions(n, d, rng):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


@pytest.mark.parametrize("name,m", LIMIT_CASES)
def test_mu_and_phi_hat_reach_their_limit_near_origin(name, m, any_profile, rng):
    # The sin-form quotients are exact down to |eta| = 1e-150; below that the
    # limit 1 is returned instead of an underflowed quotient.
    p = any_profile(name, m)
    radii = np.repeat(NEAR_ORIGIN_RADII, 4)
    pts = radii[:, None] * _directions(len(radii), p.d, rng)
    assert np.max(np.abs(mu(p, pts) - 1.0)) <= 4e-15
    assert np.max(np.abs(phi_hat(p, pts) - 1.0)) <= 4e-15
    # Exact lattice points keep their exact values.
    lattice = np.vstack([np.zeros(p.d), 2 * math.pi * np.ones(p.d)])
    assert mu(p, lattice).tolist() == [1.0, 1.0]
    assert phi_hat(p, lattice).tolist() == [1.0, 0.0]


def _reference_points(d):
    """2000 seeded points on [-4 pi, 4 pi]^d and 60 near-lattice points, the
    first ten next to the origin."""
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-4 * math.pi, 4 * math.pi, size=(2000, d))
    k = rng.integers(-3, 4, size=(60, d)).astype(float)
    k[:10] = 0.0
    r = 10.0 ** rng.uniform(-9, -3, size=60)
    return np.vstack([pts, 2 * math.pi * k + r[:, None] * _directions(60, d, rng)])


@pytest.mark.parametrize("name,m", LIMIT_CASES)
def test_phi_hat_within_tol_of_deep_reference(name, m, any_profile):
    p = any_profile(name, m)
    x = _reference_points(p.d)
    if p.d == 1:
        # phi_hat_1(xi) = m0(B xi) phi_hat_1(B xi) with phi_hat_1 the closed
        # form (sin(x/2) / (x/2))^2.  The 160-level product of m0's cosine sum
        # loses up to all of it next to the zeros at 4 pi k, where 1 + cos
        # cancels at the second level, so the reference takes one level.
        y = x @ p.contraction.T
        ref = (p.m0.eval(y) * helpers.sinc_squared(y[:, 0])) ** m
    else:
        ref = _closure_free_phi_hat_1(p, x) ** m
    assert np.all(np.abs(phi_hat(p, x) - ref) <= p.truncation_tol * np.abs(ref))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "uni", "C3"])
def test_M_within_tol_of_deep_reference(name, any_profile):
    p = any_profile(name, 1)  # M does not depend on the order m
    x = _reference_points(p.d)
    ref = np.ones(len(x))
    cur = x
    for _ in range(160):
        ref *= mu(p, cur)
        cur = cur @ p.contraction.T
    assert np.all(np.abs(M_eval(p, x) - ref) <= p.truncation_tol * np.abs(ref))


@pytest.mark.parametrize("name,most", [("A1", 22), ("C3", 34)])
def test_derived_depth_halves_the_levels(name, most, any_profile):
    # The sampled tail constant and the G/P closure needed 38 levels for A1
    # and 59 for C3 at these corners and the default tol 1e-9.
    p = any_profile(name, 1)
    corners = 4 * math.pi * np.array(list(itertools.product((-1.0, 1.0), repeat=p.d)))
    assert np.max(spectral._truncation_depth(p, corners, None)) <= most


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("a", [2, 3, -2, 5, -3])
def test_univariate_closure_is_exact_at_depth_zero(a, m):
    # phi_hat_1 = G/P for every 1-D dilation, so h = 0 and no level is needed.
    p = spectral.make_profile([[a]], m=m)
    xs = np.linspace(-4 * math.pi, 4 * math.pi, 20001).reshape(-1, 1)
    assert np.max(spectral._truncation_depth(p, xs, None)) == 0
    # 5 ulp of 1 (1.1e-15); the earlier bound-sized depths gave up to 2.6e-15.
    closed = helpers.sinc_squared(xs[:, 0]) ** m
    assert np.max(np.abs(phi_hat(p, xs) - closed)) <= 5 * np.spacing(1.0)
    assert np.max(np.abs(M_eval(p, xs) - 1.0)) <= 1.4e-15
    # Exact at any distance: far rows stay within tol, relative.
    far = np.array([[1234.5], [1e5], [-3.3e7]])
    ref = helpers.sinc_squared(far[:, 0]) ** m
    assert np.all(np.abs(phi_hat(p, far) - ref) <= p.truncation_tol * ref)


@pytest.mark.parametrize("name,m", LIMIT_CASES)
def test_row_values_do_not_depend_on_the_batch(name, m, any_profile):
    # Each row takes its own depth and every sum over terms runs in a fixed
    # order outside BLAS, so a row has the bits it has alone.
    p = any_profile(name, m)
    rng = np.random.default_rng(31)
    x = rng.uniform(-4 * math.pi, 4 * math.pi, size=(2000, p.d))
    rows = rng.choice(len(x), size=100, replace=False)
    depth = spectral._truncation_depth(p, x, None)
    for fn in (phi_hat, M_eval):
        batch = fn(p, x)
        for r in rows:
            alone = fn(p, x[r:r + 1])[0]
            assert batch[r] == alone, (fn.__name__, r)
    for r in rows:
        assert spectral._truncation_depth(p, x[r:r + 1], None).tolist() == [depth[r]]


BLOCK_SIZES = (1, 2 * spectral.ROW_BLOCK - 1, 2 * spectral.ROW_BLOCK, 5 * spectral.ROW_BLOCK + 17)


def _count_pool_uses(monkeypatch):
    """Count _executor calls, so a test can tell that pool threads took blocks."""
    calls = []
    real = spectral._executor

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(spectral, "_executor", counted)
    return calls


@pytest.mark.parametrize("name,m", [(name, m) for name in ("A1", "A4", "uni", "C3")
                                    for m in (1, 2)])
def test_rows_have_the_same_bits_at_any_cpu_count(name, m, any_profile, monkeypatch):
    # Blocks on the calling thread only below 2 ROW_BLOCK rows or at one
    # CPU, on a pool too otherwise: every row keeps its bits.
    p = any_profile(name, m)
    x = np.random.default_rng(41).uniform(-4 * math.pi, 4 * math.pi,
                                          size=(max(BLOCK_SIZES), p.d))
    calls = _count_pool_uses(monkeypatch)
    for fn in (phi_hat, M_eval):
        for n in BLOCK_SIZES:
            monkeypatch.setattr(spectral, "_cpu_count", lambda: 1)
            del calls[:]
            serial = fn(p, x[:n])
            assert not calls, (fn.__name__, n)
            for cpus in (2, 3):
                monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
                del calls[:]
                got = fn(p, x[:n])
                assert got.tobytes() == serial.tobytes(), (fn.__name__, n, cpus)
                assert len(calls) == (n >= 2 * spectral.ROW_BLOCK), (fn.__name__, n, cpus)


def test_depth_past_max_in_a_later_block_keeps_the_serial_message(profiles, monkeypatch):
    # The depths are taken for the whole batch before any block runs.
    p = profiles("A1")
    x = np.random.default_rng(43).uniform(-4 * math.pi, 4 * math.pi,
                                          size=(5 * spectral.ROW_BLOCK, 2))
    x[2 * spectral.ROW_BLOCK + 5] = [1e60, 0.0]
    messages = []
    for cpus in (1, 2):
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        for fn in (phi_hat, M_eval):
            with pytest.raises(ConfigError, match=r"truncation depth \d+ for tol 1e-09 exceeds") \
                    as err:
                fn(p, x)
            messages.append(str(err.value))
    assert len(set(messages)) == 1


def test_an_error_in_a_block_reaches_the_caller_after_every_block_ends(profiles, monkeypatch):
    p = profiles("A3")
    x = np.random.default_rng(47).uniform(-4 * math.pi, 4 * math.pi,
                                          size=(6 * spectral.ROW_BLOCK, 2))
    monkeypatch.setattr(spectral, "_cpu_count", lambda: 3)
    real = spectral._product_rows
    lock, running, started = threading.Lock(), [0], []

    def failing(*args):
        rows = args[-1]
        with lock:
            running[0] += 1
            started.append(rows.start)
        try:
            if rows.start == 2 * spectral.ROW_BLOCK:
                raise RuntimeError("block 2")
            time.sleep(0.05)
            return real(*args)
        finally:
            with lock:
                running[0] -= 1
    monkeypatch.setattr(spectral, "_product_rows", failing)
    for fn in (phi_hat, M_eval):
        del started[:]
        with pytest.raises(RuntimeError, match="block 2"):
            fn(p, x)
        assert running[0] == 0, fn.__name__
        assert 2 * spectral.ROW_BLOCK in started, fn.__name__


def test_each_block_runs_once_under_fast_thread_switching(profiles, monkeypatch):
    # More takers than CPUs and a thread switch every microsecond: a block
    # taken twice or skipped would show in the count or in the bits.
    p = profiles("A3")
    x = np.random.default_rng(59).uniform(-4 * math.pi, 4 * math.pi, size=(3001, 2))
    serial = phi_hat(p, x)
    monkeypatch.setattr(spectral, "ROW_BLOCK", 16)
    monkeypatch.setattr(spectral, "_cpu_count", lambda: 8)
    real, lock, taken = spectral._product_rows, threading.Lock(), []

    def counted(*args):
        with lock:
            taken.append(args[-1].start)
        return real(*args)
    monkeypatch.setattr(spectral, "_product_rows", counted)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: result.append(phi_hat(p, x)), daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "threaded phi_hat did not return"
    assert sorted(taken) == list(range(0, len(x), 16))
    assert result[0].tobytes() == serial.tobytes()


def test_threaded_M_eval_does_not_deadlock(profiles, monkeypatch):
    # M_eval's level factor is mu, itself a batch function: the blocks must
    # not wait on pool work of their own.
    p = profiles("A2")
    x = np.random.default_rng(53).uniform(-4 * math.pi, 4 * math.pi,
                                          size=(3 * spectral.ROW_BLOCK, 2))
    monkeypatch.setattr(spectral, "_cpu_count", lambda: 3)
    calls = _count_pool_uses(monkeypatch)
    result = []
    worker = threading.Thread(target=lambda: result.append(M_eval(p, x)), daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "threaded M_eval did not return"
    assert len(calls) == 1 and result[0].shape == (len(x),)


def test_import_and_profile_start_no_thread():
    # The pool and concurrent.futures wait for the first threaded call, so
    # neither an import nor a small batch pays for them.
    code = ("import sys, threading, numpy as np\n"
            "import ellipsf\n"
            "from ellipsf import spectral\n"
            "p = spectral.make_profile([[1, -1], [1, 1]])\n"
            "spectral.phi_hat(p, np.ones((100, 2)))\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n")
    src = str(pathlib.Path(spectral.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False 1\n"


@pytest.mark.parametrize("fn", [mu, M_eval, phi_hat], ids=["mu", "M_eval", "phi_hat"])
@pytest.mark.parametrize("name", ["A3", "uni"])
def test_non_finite_rows_give_nan_and_leave_the_rest(fn, name, profiles, rng):
    p = profiles(name)
    clean = rng.uniform(-4 * math.pi, 4 * math.pi, size=(40, p.d))
    bad = np.full((2, p.d), 1.0)
    bad[0, -1] = np.nan
    bad[1, 0] = np.inf
    mixed = np.vstack([clean[:17], bad[:1], clean[17:30], bad[1:], clean[30:]])
    got = fn(p, mixed)
    assert np.isnan(got[17]) and np.isnan(got[31])
    assert np.array_equal(np.delete(got, [17, 31]), fn(p, clean))
    assert math.isnan(fn(p, bad[1]))


def _generated_isotropic(count: int, seed: int = 7) -> list:
    """count isotropic 2x2 integer matrices with entries in [-3, 3] and
    0 < |det| <= 6, taken in a seeded random order."""
    entries = [e for e in itertools.product(range(-3, 4), repeat=4)
               if 0 < abs(e[0] * e[3] - e[1] * e[2]) <= 6]
    out = []
    for i in np.random.default_rng(seed).permutation(len(entries)):
        A = [list(entries[i][:2]), list(entries[i][2:])]
        try:
            isotropic = matana.certify_isotropy(matana.validate_dilation(A)).isotropic
        except ValueError:  # not expanding
            continue
        if isotropic:
            out.append(A)
            if len(out) == count:
                return out


# pi to 50 digits, for the exact grid points pi (2 i - N) / N.
PI_50 = "3.14159265358979323846264338327950288419716939937510"
# Grid cases by name beyond the conftest fixtures and C3: a negative
# determinant, q = 5 (2 + i), q = 9 (3I), and six generated matrices.
GRID_MATRICES = {"neg": [[1, 1], [1, -1]], "2+i": [[2, 1], [-1, 2]], "3I": [[3, 0], [0, 3]],
                 **{f"gen{k}": A for k, A in enumerate(_generated_isotropic(6))}}
_grid_profiles: dict = {}


def _grid_profile(name, any_profile):
    if name not in GRID_MATRICES:
        return any_profile(name, 1)
    if name not in _grid_profiles:
        _grid_profiles[name] = spectral.make_profile(GRID_MATRICES[name])
    return _grid_profiles[name]


def _torus_grid(d, grid_n):
    """The rows estimate_B walks, materialized in C order: on each axis the
    doubles nearest the exact points pi (2 i - grid_n) / grid_n."""
    pi = Fraction(PI_50)
    ax = np.array([float(pi * Fraction(v, grid_n)) for v in range(-grid_n, grid_n, 2)])
    return np.stack(np.meshgrid(*([ax] * d), indexing="ij"), axis=-1).reshape(-1, d)


def _exact_grid_mu(p, grid_n):
    """mu at the exact grid points, in np.longdouble, in C order.

    Row i is eta = pi v / N with the integer vector v = 2 i - N, and
    B eta = pi W v / (q N) with the integer matrix W = q A^{-T}, so every
    phase of G's sin form and of m0's coefficient map is pi times an exact
    rational.  The origin gets the limit 1.
    """
    d, q, N = p.d, p.q, grid_n
    W = np.rint(q * p.contraction).astype(np.int64)
    assert np.array_equal(W @ p.A.entries.T, q * np.eye(d, dtype=np.int64))
    pi = np.longdouble(PI_50)
    ax = np.arange(-N, N, 2)
    v = np.stack(np.meshgrid(*([ax] * d), indexing="ij"), axis=-1).reshape(-1, d)
    Q2 = p.Q2.Q2.astype(np.longdouble)
    K, c = p.m0.K, p.m0.C.real.astype(np.longdouble)
    assert np.all(p.m0.C.imag == 0)

    def G(x):
        out = sum(4 * Q2[i, i] * np.sin(x[:, i] / 2) ** 2 for i in range(d))
        for i, j in itertools.combinations(range(d), 2):
            out = out + 2 * Q2[i, j] * np.sin(x[:, i]) * np.sin(x[:, j])
        return out

    out = np.ones(len(v), dtype=np.longdouble)
    for s in range(0, len(v), 4096):
        vs = v[s:s + 4096]
        u = vs @ W.T
        m0 = np.cos(pi * (u @ K.T).astype(np.longdouble) / (q * N)) @ c
        num = m0 * G(pi * u.astype(np.longdouble) / (q * N))
        den = G(pi * vs.astype(np.longdouble) / N)
        far = np.any(vs != 0, axis=1)
        out[s:s + 4096][far] = (np.longdouble(q) ** (np.longdouble(2) / d)
                                * num[far] / den[far])
    return out


def _ulps(x, ref):
    """|x - ref| in units of the spacing of the double nearest ref, per row."""
    r = ref.astype(float)
    return np.abs((x - ref).astype(float)) / np.spacing(np.abs(r))


# mu itself, at the rows rounded to doubles, is off from _exact_grid_mu by up
# to 9.3 ulp on these cases (gen5, [[1, 2], [-1, 3]], at 64^2); the pass,
# whose table entries are each the double nearest an exact value, is held to
# GRID_ULPS.  Even and odd N: an even N has the exact origin (50 included).
GRID_ULPS = 9.0
GRID_CASES = ([(name, n) for name in ("A1", "A2", "A3", "A4", "uni") for n in (32, 33, 50, 64, 257)]
              + [("C3", n) for n in (32, 33, 50, 64)]
              + [(name, n) for name in GRID_MATRICES for n in (33, 64)])


@pytest.mark.parametrize("name,grid_n", GRID_CASES)
def test_grid_pass_matches_mu(name, grid_n, any_profile):
    p = _grid_profile(name, any_profile)
    vals = helpers.full_grid_mu(p, grid_n)
    assert len(vals) == grid_n ** p.d
    assert np.max(_ulps(vals, _exact_grid_mu(p, grid_n))) <= GRID_ULPS


@pytest.mark.parametrize("name,grid_n", [(name, n) for name in ("A1", "A2", "A3", "A4", "uni")
                                         for n in (64, 257)] + [("C3", 33), ("C3", 64)]
                         + [(name, 64) for name in GRID_MATRICES])
def test_grid_maximum_and_refinement_start_match_mu(name, grid_n, any_profile, monkeypatch):
    p = _grid_profile(name, any_profile)
    grid = _torus_grid(p.d, grid_n)
    vals = helpers.full_grid_mu(p, grid_n)
    first = int(np.argmax(vals))
    top = float(np.max(_exact_grid_mu(p, grid_n)))
    assert abs(vals[first] - top) <= GRID_ULPS * np.spacing(top)
    # A zoom that never moves returns the grid maximum, and each of its rounds
    # is centred on the row of the first argmax with a step halving from one
    # cell.
    calls = []

    def never_better(profile, x):
        calls.append(x)
        return np.full(len(x), -np.inf)
    monkeypatch.setattr(spectral, "mu", never_better)
    assert estimate_B(p, grid_n) == vals[first]
    steps = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=p.d)))
    cell = 2 * math.pi / grid_n
    assert len(calls) == spectral.ZOOM_ROUNDS
    for k, x in enumerate(calls):
        assert np.array_equal(x, grid[first] + cell / 2 ** k * steps)


# tracemalloc peaks of estimate_B with the earlier linspace grid pass, which
# gathered every row and its sines per block: the table pass stays within 2x.
@pytest.mark.parametrize("name,grid_n,earlier_mb", [("uni", 1 << 20, 26.6), ("A1", 1024, 2.4),
                                                    ("C3", 128, 3.2)])
def test_estimate_B_peak_stays_flat_in_grid_n(name, grid_n, earlier_mb, any_profile):
    p = any_profile(name, 1)
    tracemalloc.start()
    try:
        estimate_B(p, grid_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * earlier_mb * 1e6


@pytest.mark.parametrize("name,block,grid_n",
                         [(name, block, n) for name in ("A1", "A2", "A3", "A4")
                          for block, n in ((spectral.GRID_BLOCK, 257), (1000, 64))]
                         + [("uni", 50, 257), ("uni", 7, 64), ("C3", 1000, 64), ("C3", 500, 33)])
def test_blocked_estimate_B_matches_one_grid(name, block, grid_n, any_profile, monkeypatch):
    p = any_profile(name, 1)
    assert grid_n ** p.d % block != 0
    assert block < grid_n ** (p.d - 1) or p.d < 3
    monkeypatch.setattr(spectral, "GRID_BLOCK", block)
    blocked = estimate_B(p, grid_n=grid_n)
    assert max(len(lines) * (j.stop - j.start)
               for lines, j in spectral._half_torus_blocks(grid_n, p.d)) <= block
    monkeypatch.setattr(spectral, "GRID_BLOCK", grid_n ** p.d)
    assert estimate_B(p, grid_n=grid_n) == blocked


@pytest.mark.parametrize("name,block,grid_n", [("A1", 50, 64), ("C3", 20, 33), ("2+i", 64, 65)])
def test_grid_blocks_shorter_than_a_line_give_the_same_values(name, block, grid_n, any_profile,
                                                             monkeypatch):
    # Pieces of one last-axis line in 2-D and 3-D: every row's value is the
    # same to the bit as on the whole line.
    p = _grid_profile(name, any_profile)
    whole = helpers.full_grid_mu(p, grid_n)
    monkeypatch.setattr(spectral, "GRID_BLOCK", block)
    mu_rows = spectral._mu_grid(p, grid_n)
    blocks = list(spectral._half_torus_blocks(grid_n, p.d))
    assert max(len(lines) * (j.stop - j.start) for lines, j in blocks) <= block < grid_n
    for lines, j in blocks:
        assert np.array_equal(mu_rows(lines, j), whole[_block_rows(lines, j, grid_n)])


def _block_rows(lines, j, grid_n):
    """The C-order indices of a (lines, j) block's rows, in the block's order."""
    return (lines[:, None] * grid_n + np.arange(j.start, j.stop)).ravel()


def _mirrors(d, grid_n):
    """Each row's mirror (N - i) mod N in C order, and whether it has no index 0."""
    idx = np.indices((grid_n,) * d).reshape(d, -1)
    return (np.ravel_multi_index(tuple((grid_n - idx) % grid_n), (grid_n,) * d),
            np.all(idx != 0, axis=0))


@pytest.mark.parametrize("d,grid_n,block", [(d, n, spectral.GRID_BLOCK) for d in (1, 2, 3)
                                            for n in (32, 33)]
                         + [(1, 257, 50), (2, 64, 1000), (2, 65, 64), (3, 33, 500), (3, 32, 20),
                            (4, 32, spectral.GRID_BLOCK)])
def test_half_torus_blocks_hold_each_row_that_can_hold_the_first_maximum_once(d, grid_n, block,
                                                                              monkeypatch):
    monkeypatch.setattr(spectral, "GRID_BLOCK", block)
    blocks = list(spectral._half_torus_blocks(grid_n, d))
    rows = [_block_rows(lines, j, grid_n) for lines, j in blocks]
    assert all(0 < len(r) <= block and np.all(np.diff(r) > 0) for r in rows)
    rows = np.concatenate(rows)
    assert len(np.unique(rows)) == len(rows)
    # Kept: i_1 <= N // 2, or some other index 0.  Left out: every row whose
    # mirror is a row with no index 0 that comes earlier in C order.
    idx = np.indices((grid_n,) * d).reshape(d, -1)
    kept = (idx[0] <= grid_n // 2) | np.any(idx[1:] == 0, axis=0)
    assert np.array_equal(np.sort(rows), np.flatnonzero(kept))
    mirror, interior = _mirrors(d, grid_n)
    assert np.all(interior[~kept] & (mirror[~kept] < np.flatnonzero(~kept)) & kept[mirror[~kept]])
    # The prefix comes first, whole and in C order.
    prefix = (grid_n // 2 + 1) * grid_n ** (d - 1)
    assert np.array_equal(rows[:prefix], np.arange(prefix))


def test_half_torus_share():
    # The prefix and the -pi edge past it: 50.6 % of a 256^2 grid and 51.5 %
    # of a 128^3 one.
    for d, grid_n, count in ((2, 256, 129 * 256 + 127), (3, 128, 65 * 128 ** 2 + 63 * 255)):
        assert sum(len(lines) * (j.stop - j.start)
                   for lines, j in spectral._half_torus_blocks(grid_n, d)) == count


TWO_I_3D = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
EVEN_CASES = ([(name, n) for name in ("A1", "A2", "A3", "A4", "uni", *GRID_MATRICES)
               for n in (33, 64)]
              + [("C3", n) for n in (32, 33)] + [("2I3", n) for n in (32, 33)])


@pytest.mark.parametrize("name,grid_n", EVEN_CASES)
def test_grid_pass_is_even_to_the_bit_off_the_boundary(name, grid_n, any_profile):
    # Every row with no coordinate at -pi has the bits of its mirror, which is
    # what lets estimate_B leave out half of the grid.
    p = spectral.make_profile(TWO_I_3D) if name == "2I3" else _grid_profile(name, any_profile)
    vals = helpers.full_grid_mu(p, grid_n)
    mirror, interior = _mirrors(p.d, grid_n)
    assert np.array_equal(vals[interior], vals[mirror[interior]])


B_REFERENCE_CASES = ([(name, n) for name in ("A1", "A2", "A3", "A4", "uni", *GRID_MATRICES)
                      for n in (32, 33, 64, 257)] + [("C3", n) for n in (32, 33, 64)]
                     + [(A, n) for A in _generated_isotropic(24, seed=28) for n in (32, 33, 64, 257)])


@pytest.mark.parametrize("case,grid_n", B_REFERENCE_CASES,
                         ids=lambda v: v if isinstance(v, (str, int)) else
                         ";".join(",".join(map(str, row)) for row in v))
def test_estimate_B_matches_the_full_grid(case, grid_n, any_profile):
    p = _grid_profile(case, any_profile) if isinstance(case, str) else spectral.make_profile(case)
    assert estimate_B(p, grid_n) == helpers.full_grid_estimate_B(p, grid_n)


# [[2, 0], [1, -2]] at 33^2: the first maximum is row (17, 0), past the
# prefix, on the -pi edge; row (16, 0) holds the same mu(eta) in exact
# arithmetic (evenness and periodicity) but rounds lower.  A1 at 64^2: the
# maximum 1 + 4.4e-16 is taken on 24 rows, the first of them (1, 32), whose
# mirror (63, 32) is left out.
@pytest.mark.parametrize("case,grid_n,on_edge", [([[2, 0], [1, -2]], 33, True), ("A1", 64, False)],
                         ids=["edge", "tied"])
def test_first_maximum_on_the_edge_or_tied_starts_the_zoom(case, grid_n, on_edge, any_profile,
                                                          monkeypatch):
    p = any_profile(case, 1) if isinstance(case, str) else spectral.make_profile(case)
    vals = helpers.full_grid_mu(p, grid_n)
    first = int(np.argmax(vals))
    idx = np.unravel_index(first, (grid_n,) * p.d)
    mirror, interior = _mirrors(p.d, grid_n)
    if on_edge:
        assert idx[0] > grid_n // 2 and idx[1] == 0
    else:
        assert interior[first] and vals[mirror[first]] == vals[first] and mirror[first] > first
        assert np.sum(vals == vals[first]) == 24
    B = estimate_B(p, grid_n)
    assert B == helpers.full_grid_estimate_B(p, grid_n)
    monkeypatch.setattr(spectral, "_zoom", lambda profile, n, best, at: (best, at))
    assert estimate_B(p, grid_n) == (vals[first], first)


@pytest.mark.parametrize("d,grid_n,seed", [(d, n, seed) for d in (1, 2, 3) for n in (32, 33)
                                           for seed in range(3)])
def test_first_maximum_rule_over_blocks_out_of_c_order(d, grid_n, seed, monkeypatch):
    # A stand-in for mu with small integer values, even off the boundary, so
    # maxima tie across many rows; past the prefix a few edge rows get the
    # top value, so in 3-D the whole lines and the i_3 = 0 rows, taken in
    # separate blocks, both hold it.  estimate_B must start from the first
    # maximum of the whole grid.
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 3, grid_n ** d).astype(float)
    mirror, interior = _mirrors(d, grid_n)
    vals[interior] = np.maximum(vals[interior], vals[mirror[interior]])
    idx = np.indices((grid_n,) * d).reshape(d, -1)
    edge = np.flatnonzero((idx[0] > grid_n // 2) & np.any(idx[1:] == 0, axis=0))
    if seed and len(edge):
        vals[rng.choice(edge, size=min(3 * seed, len(edge)), replace=False)] = 3.0
    by_line = vals.reshape(-1, grid_n)
    monkeypatch.setattr(spectral, "_mu_grid",
                        lambda profile, n: lambda lines, j: by_line[lines, j].ravel())
    monkeypatch.setattr(spectral, "_zoom", lambda profile, n, best, at: (best, at))
    p = spectral.make_profile([[2]] if d == 1 else [[2, 0], [0, 2]] if d == 2 else TWO_I_3D)
    assert estimate_B(p, grid_n) == (vals.max(), int(np.argmax(vals)))


# On 48 of the 480 generated matrices the zoom raises B above the 64^2 grid
# maximum; on these two the most (by 6.6e-3 and 1.6e-3).
ZOOM_NEEDED = [[[2, -2], [3, -2]], [[2, 1], [-2, 0]]]
ZOOM_CASES = ([(name, 64) for name in ("A1", "A2", "A3", "A4", "uni")] + [("C3", 32)]
              + [(A, 64) for A in ZOOM_NEEDED + _generated_isotropic(24)])


@pytest.mark.parametrize("case,grid_n", ZOOM_CASES,
                         ids=lambda v: v if isinstance(v, (str, int)) else
                         ";".join(",".join(map(str, row)) for row in v))
def test_zoom_reaches_the_local_grid_maximum(case, grid_n, any_profile):
    p = any_profile(case, 1) if isinstance(case, str) else spectral.make_profile(case)
    rows = _torus_grid(p.d, grid_n)
    vals = helpers.full_grid_mu(p, grid_n)
    first = int(np.argmax(vals))
    B = estimate_B(p, grid_n)
    assert B >= vals[first]
    # A 129^d grid spanning one cell either side of the grid argmax.
    cell = 2 * math.pi / grid_n
    ax = np.linspace(-cell, cell, 129)
    offsets = np.stack(np.meshgrid(*([ax] * p.d), indexing="ij"), axis=-1).reshape(-1, p.d)
    local = rows[first] + offsets
    local_max = max(float(np.max(mu(p, block))) for block in np.array_split(local, 64))
    assert B >= local_max - 4 * np.spacing(local_max)


@pytest.mark.parametrize("name,expected", sorted(B_FIXTURES.items()))
def test_estimate_B_fixtures(name, expected, profiles):
    p = profiles(name)
    assert estimate_B(p, grid_n=128) == pytest.approx(expected, abs=1e-6)


def test_estimate_B_monotone_in_grid(profiles):
    p = profiles("A3")
    b64 = estimate_B(p, grid_n=64)
    b128 = estimate_B(p, grid_n=128)
    assert b128 >= b64 - 1e-9


def test_estimate_B_rejects_small_grid(profiles):
    with pytest.raises(ValueError):
        estimate_B(profiles("A1"), grid_n=16)


RIESZ_FIXTURES = [
    ("A1", 1, True, -2.0),
    ("A2", 1, False, 0.0),
    ("A3", 1, True, -1.8822),
    ("A4", 1, True, -1.8301),
]


@pytest.mark.parametrize("name,m,ok_expected,decay_expected", RIESZ_FIXTURES)
def test_riesz_verdicts(name, m, ok_expected, decay_expected, profiles):
    p = profiles(name, m)
    ok, threshold, decay = riesz_verdict(p, estimate_B(p, grid_n=128))
    assert ok == ok_expected
    assert threshold == pytest.approx(p.q ** (2.0 / p.d - 1.0 / (2 * m)), abs=1e-14)
    assert decay == pytest.approx(decay_expected, abs=5e-4)


def test_profile_is_frozen(profiles):
    p = profiles("A1")
    for name, value in (("m", 2), ("truncation_tol", 1e-6), ("G", p.m0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)


@pytest.mark.parametrize("name,m", [("A2", 1), ("A3", 2), ("uni", 1)])
def test_spectral_values_leave_the_profile_as_it_was(name, m, profiles):
    p = profiles(name, m)
    before = dict(vars(p))
    B = estimate_B(p, grid_n=64)
    verdict = riesz_verdict(p, B)
    doc = spectral.spectrum_report(p, B, 64)
    assert vars(p).keys() == before.keys()
    assert all(vars(p)[k] is v for k, v in before.items())
    assert (doc["riesz_ok"], doc["threshold"], doc["decay_exponent"]) == verdict
    assert riesz_verdict(p, B) == verdict


def test_riesz_threshold_improves_with_order(profiles):
    # raising m weakens the sufficient condition toward q^{2/d}
    p1 = profiles("A2", 1)
    p3 = profiles("A2", 3)
    _, t1, _ = riesz_verdict(p1, estimate_B(p1, 64))
    _, t3, _ = riesz_verdict(p3, estimate_B(p3, 64))
    assert t1 < t3 < p1.q ** (2.0 / p1.d)


def test_fourier_refinement_identity(profiles, rng):
    for name in ("A1", "A3", "A4"):
        p = profiles(name)
        pts = spectral._off_lattice_points(rng, 100, p.d)
        lhs = phi_hat(p, pts)
        B = p.contraction
        rhs = p.m0.eval(pts @ B.T) * phi_hat(p, pts @ B.T)
        assert np.max(np.abs(lhs - rhs) / (np.abs(lhs) + 1e-15)) < 1e-8


def test_spectrum_report_fields(profiles):
    p = profiles("A3")
    B = estimate_B(p, grid_n=64)
    doc = spectral.spectrum_report(p, B, 64)
    assert set(doc) == {"B", "threshold", "riesz_ok", "decay_exponent", "grid_n", "tol"}
    assert doc["riesz_ok"] is True
    assert (doc["B"], doc["grid_n"]) == (B, 64)
