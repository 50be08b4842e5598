import math

import numpy as np
import pytest

from ellipsf import matana, spectral
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
    B = estimate_B(p, grid_n=128, refine_iters=8)
    ax = np.linspace(-3 * math.pi, 3 * math.pi, 201)
    grid = np.stack(np.meshgrid(*([ax] * p.d), indexing="ij"), axis=-1).reshape(-1, p.d)
    vals = mu(p, grid)
    assert np.all(vals > 0)
    assert np.max(vals) <= B + 1e-6
    shift = np.zeros(p.d)
    shift[0] = 2 * math.pi
    sub = grid[::7]
    assert np.max(np.abs(mu(p, sub + shift) - mu(p, sub))) < 1e-10


@pytest.mark.parametrize("name", ["A1", "A3", "A4"])
def test_mu_quadratic_sandwich(name, profiles, rng):
    p = profiles(name)
    C = spectral.mu_quadratic_constant(p)
    pts = rng.uniform(-math.pi, math.pi, size=(2000, p.d))
    P = matana.eval_P(p.Q2, pts)
    vals = mu(p, pts)
    assert np.all(vals >= 1 - C * P - 1e-9)
    assert np.all(vals <= 1 + C * P + 1e-9)


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
    # q = 2, d = 2: each level gains a factor 2, so 1e-300 needs about 1000.
    with pytest.raises(ConfigError, match=r"truncation depth 9\d\d for tol 1e-300"):
        spectral._truncation_depth(p, x, 1e-300)
    for f in (M_eval, phi_hat):
        with pytest.raises(ConfigError):
            f(p, x, tol=1e-300)


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
    estimate_B(p, grid_n=128, refine_iters=8)
    alpha = p.d * math.log(p.B_estimate) / math.log(p.q)
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


@pytest.mark.parametrize("name,m", LIMIT_CASES)
def test_phi_hat_within_tol_of_deep_reference(name, m, any_profile):
    p = any_profile(name, m)
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-4 * math.pi, 4 * math.pi, size=(2000, p.d))
    # Near-lattice points, the first ten next to the origin.
    k = rng.integers(-3, 4, size=(60, p.d)).astype(float)
    k[:10] = 0.0
    r = 10.0 ** rng.uniform(-9, -3, size=60)
    near = 2 * math.pi * k + r[:, None] * _directions(60, p.d, rng)
    x = np.vstack([pts, near])
    got = phi_hat(p, x)
    ref = phi_hat(p, x, tol=1e-14)
    assert np.all(np.abs(got - ref) <= p.truncation_tol * np.abs(ref))


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


def _torus_grid(d, grid_n):
    """The grid estimate_B walks, materialized: [-pi, pi)^d in C order."""
    ax = np.linspace(-math.pi, math.pi, grid_n, endpoint=False)
    return np.stack(np.meshgrid(*([ax] * d), indexing="ij"), axis=-1).reshape(-1, d)


# 50 is even, yet its linspace misses 0 by an ulp of pi: no row needs the limit.
GRID_CASES = ([(name, n) for name in ("A1", "A2", "A3", "A4", "uni") for n in (32, 33, 50, 64, 257)]
              + [("C3", n) for n in (32, 33, 50, 64)])


@pytest.mark.parametrize("name,grid_n", GRID_CASES)
def test_grid_pass_matches_mu(name, grid_n, any_profile):
    # Tabulated sines, no torus reduction and no radius mask give mu's values
    # up to the row-dependent rounding of the small BLAS products.
    p = any_profile(name, 1)
    rows, vals = map(np.concatenate, zip(*spectral._mu_grid(p, grid_n)))
    grid = _torus_grid(p.d, grid_n)
    assert np.array_equal(rows, grid)
    ref = mu(p, grid)
    assert np.all(np.abs(vals - ref) <= 2 * np.spacing(np.maximum(np.abs(vals), np.abs(ref))))


@pytest.mark.parametrize("name,grid_n", [(name, n) for name in ("A1", "A2", "A3", "A4", "uni")
                                         for n in (64, 257)] + [("C3", 33), ("C3", 64)])
def test_grid_maximum_and_refinement_start_match_mu(name, grid_n, any_profile, monkeypatch):
    p = any_profile(name, 1)
    grid = _torus_grid(p.d, grid_n)
    ref = mu(p, grid)
    first = int(np.argmax(ref))
    assert estimate_B(p, grid_n, refine_iters=0) == ref[first]
    # Every sweep of a refinement that never moves is centred on the argmax.
    spans = []

    def recorder(f, lo, hi, iters=60):
        spans.append((lo, hi))
        return lo, -math.inf
    monkeypatch.setattr(spectral, "_golden_max", recorder)
    estimate_B(p, grid_n, refine_iters=1)
    cell = 2 * math.pi / grid_n
    assert spans == [(x - 2 * cell, x + 2 * cell) for x in grid[first]]


@pytest.mark.parametrize("name,block,grid_n",
                         [(name, block, n) for name in ("A1", "A2", "A3", "A4")
                          for block, n in ((spectral.GRID_BLOCK, 257), (1000, 64))]
                         + [("uni", 50, 257), ("uni", 7, 64), ("C3", 1000, 64), ("C3", 500, 33)])
def test_blocked_estimate_B_matches_one_grid(name, block, grid_n, any_profile, monkeypatch):
    p = any_profile(name, 1)
    assert grid_n ** p.d % block != 0
    assert block < grid_n ** (p.d - 1) or p.d < 3
    monkeypatch.setattr(spectral, "GRID_BLOCK", block)
    blocked = estimate_B(p, grid_n=grid_n, refine_iters=6)
    assert max(len(v) for _, v in spectral._mu_grid(p, grid_n)) <= block
    monkeypatch.setattr(spectral, "GRID_BLOCK", grid_n ** p.d)
    assert estimate_B(p, grid_n=grid_n, refine_iters=6) == blocked


@pytest.mark.parametrize("name,expected", sorted(B_FIXTURES.items()))
def test_estimate_B_fixtures(name, expected, profiles):
    p = profiles(name)
    assert estimate_B(p, grid_n=128, refine_iters=10) == pytest.approx(expected, abs=1e-6)


def test_estimate_B_monotone_in_grid(profiles):
    p = profiles("A3")
    b64 = estimate_B(p, grid_n=64, refine_iters=10)
    b128 = estimate_B(p, grid_n=128, refine_iters=10)
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
    estimate_B(p, grid_n=128, refine_iters=10)
    ok, threshold, decay = riesz_verdict(p)
    assert ok == ok_expected
    assert threshold == pytest.approx(p.q ** (2.0 / p.d - 1.0 / (2 * m)), abs=1e-14)
    assert decay == pytest.approx(decay_expected, abs=5e-4)


def test_riesz_threshold_improves_with_order(profiles):
    # raising m weakens the sufficient condition toward q^{2/d}
    p1 = profiles("A2", 1)
    p3 = profiles("A2", 3)
    estimate_B(p1, 64, 5)
    estimate_B(p3, 64, 5)
    _, t1, _ = riesz_verdict(p1)
    _, t3, _ = riesz_verdict(p3)
    assert t1 < t3 < p1.q ** (2.0 / p1.d)


def test_fourier_refinement_identity(profiles, rng):
    for name in ("A1", "A3", "A4"):
        p = profiles(name)
        pts = []
        while len(pts) < 100:
            cand = rng.uniform(-4 * math.pi, 4 * math.pi, size=(400, p.d))
            eta, _ = spectral._reduce_torus(cand)
            keep = np.linalg.norm(eta, axis=1) > 0.3
            pts.extend(cand[keep][: 100 - len(pts)])
        pts = np.array(pts)
        lhs = phi_hat(p, pts)
        B = p.contraction
        rhs = p.m0.eval_real(pts @ B.T) * phi_hat(p, pts @ B.T)
        assert np.max(np.abs(lhs - rhs) / (np.abs(lhs) + 1e-15)) < 1e-8


def test_spectrum_report_fields(profiles):
    doc = spectral.spectrum_report(profiles("A3"), grid_n=64, refine_iters=6)
    assert set(doc) == {"B", "threshold", "riesz_ok", "decay_exponent", "grid_n", "tol"}
    assert doc["riesz_ok"] is True
