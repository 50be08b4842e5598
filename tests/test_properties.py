import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ellipsf import cascade, matana, properties, spectral
from ellipsf.errors import DegreeTooHigh, NotExpanding, SingularMatrix
from ellipsf.properties import (Polynomial, check_approximation_order,
                                check_convolution, check_interpolation,
                                check_partition_of_unity, check_polynomial_reproduction,
                                check_strang_fix, check_total_positivity, run_all)

import helpers
from conftest import MATRICES


def test_partition_of_unity_quincunx(grids):
    assert check_partition_of_unity(grids("A1", 1, 5)) < 1e-8


def test_partition_of_unity_hat_exact(grids):
    assert check_partition_of_unity(grids("uni", 1, 3)) < 1e-12


def test_partition_detects_broken_normalization(grids):
    g = grids("uni", 1, 3)
    # The mask is no constructor argument: the copy derives it from the same
    # geometry, and only the values are doubled.
    broken = cascade.LatticeGrid(g.J, g.A, g.box, g.offset, 2.0 * g.data)
    assert np.array_equal(broken.inside, g.inside)
    assert check_partition_of_unity(broken) == pytest.approx(1.0, abs=1e-10)


def test_partition_needs_enough_levels(grids):
    with pytest.raises(ValueError):
        check_partition_of_unity(grids("uni", 1, 2))


def test_total_positivity(profiles):
    assert check_total_positivity(profiles("A1"), 48) >= -1e-10
    assert check_total_positivity(profiles("uni"), 64) >= -1e-10


def test_total_positivity_detects_negative(profiles, monkeypatch):
    orig = spectral.phi_hat
    monkeypatch.setattr(spectral, "phi_hat",
                        lambda p, xi: -orig(p, xi))
    assert check_total_positivity(profiles("A1"), 32) < -1e-10


@pytest.mark.parametrize("name,m", [("A1", 1), ("A1", 2), ("A3", 1), ("uni", 2)])
def test_strang_fix_orders(name, m, profiles):
    assert check_strang_fix(profiles(name, m)) < 1e-6


C3 = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]  # companion matrix of x^3 - 2
FIXTURE_CASES = [(name, m) for name in (*MATRICES, "C3") for m in (1, 2)]
_c3_profiles: dict = {}


def _fixture_profile(profiles, name, m):
    if name != "C3":
        return profiles(name, m)
    if m not in _c3_profiles:
        _c3_profiles[m] = spectral.make_profile(C3, m=m)
    return _c3_profiles[m]


@pytest.mark.parametrize("name,m", FIXTURE_CASES)
def test_batched_fourier_checks_match_the_per_call_loops(name, m, profiles):
    # One spectral call per check against one per orbit point or per monomial.
    p = _fixture_profile(profiles, name, m)
    assert abs(properties.check_non_decay(p) - helpers.non_decay_by_points(p)) <= 1e-15
    assert abs(check_strang_fix(p) - helpers.strang_fix_by_monomials(p)) <= 1e-15


@pytest.mark.parametrize("name", ["A2", "A4"])
def test_batched_non_decay_is_exact(name, profiles):
    # M repeats exactly along a digit orbit when every row keeps its own bits
    # in the batch; a BLAS row sum read 4.4e-16 (A2) and 6.7e-16 (A4) here.
    assert properties.check_non_decay(profiles(name, 1)) == 0.0


def _isotropic_2x2(lo, hi):
    """Every isotropic 2 x 2 dilation with entries in [lo, hi]."""
    for e in itertools.product(range(lo, hi + 1), repeat=4):
        try:
            A = matana.validate_dilation([e[:2], e[2:]])
        except (SingularMatrix, NotExpanding):
            continue
        if matana.certify_isotropy(A).isotropic:
            yield A


def test_interpolating_mask_test_on_frequencies_matches_the_shifted_sum(profiles):
    # adj(A) k = 0 mod det A on the mask's frequencies against the sum of q
    # shifted copies of m0, on the fixtures and every small isotropic matrix.
    cases = [_fixture_profile(profiles, name, 1) for name in (*MATRICES, "C3")]
    small = [spectral.make_profile(A) for A in _isotropic_2x2(-2, 2)]
    verdicts = []
    for p in cases + small:
        verdicts.append(properties._mask_is_interpolating(p))
        assert verdicts[-1] == helpers.mask_is_interpolating_by_shifts(p), p.A.entries.tolist()
    assert verdicts[:len(cases)] == [True, False, False, False, True, False]
    assert (len(small), sum(verdicts[len(cases):])) == (200, 8)


def test_interpolation_check(grids, profiles):
    p = profiles("A1")
    g0 = cascade.integer_values(p.A, spectral.trigpoly.refinement_coefficients(p.m0, p.q))
    assert check_interpolation(g0) < 1e-10


@pytest.mark.parametrize("shape", [(1,), (7,), (193,), (385,), (4, 5), (13, 8), (3, 193)])
def test_fft_autoconvolve_matches_the_direct_sum(shape):
    # 2n - 1 = 385, 769 and 385 are transformed at 400, 800 and 400 points.
    a = np.random.default_rng(sum(shape)).uniform(-1, 1, size=shape)
    direct = np.zeros([2 * n - 1 for n in shape])
    for k in np.ndindex(*shape):
        direct[tuple(slice(i, i + n) for i, n in zip(k, shape))] += a[k] * a
    got = helpers.fft_autoconvolve(a)
    assert got.shape == direct.shape
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(a)) ** 2


def test_smooth_size_is_the_next_5_smooth_number():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1
    for n in range(1, 2000):
        got = helpers.smooth_size(n)
        assert got >= n and smooth(got)
        assert not any(smooth(m) for m in range(n, got))


def test_convolution_univariate_matches_cubic_bspline(profiles):
    # the discretized hat*hat against the closed-form cubic B-spline
    p = profiles("uni")
    g1 = cascade.sample_phi_m(p.A, p.m0, 1, 6)
    conv = helpers.fft_autoconvolve(g1.data) * g1.quadrature_weight
    offset = 2 * g1.offset[0]
    xs = (np.arange(conv.shape[0]) + offset) * 2.0 ** -6
    assert np.max(np.abs(conv - helpers.cubic_bspline(xs))) < 5e-4


@pytest.mark.parametrize("name,m,J", [("uni", 1, 1), ("uni", 2, 3), ("A1", 1, 1),
                                      ("A1", 2, 5), ("A2", 1, 5), ("A3", 2, 1),
                                      ("A4", 1, 1), ("A4", 2, 5), ("C3", 1, 3)])
def test_convolution_matches_the_fft_rectangle_sums(name, m, J, profiles):
    # The cascaded level-0 defect against rectangle sums of the level-J grid.
    # On A2 at m=1 the cascade of phi diverges and the residual is 0.396; on
    # C3 at m=1 it is 5.43.  Both paths round on the scale of g_0 * g_0,
    # whose entries reach 224 on A4 at m=1 (phi(0) = -13.4 there).
    p = _fixture_profile(profiles, name, m)
    assert helpers.convolution_matches_fft(p, J)


@pytest.mark.parametrize("name", ["uni", "A1", "A4"])
def test_rectangle_sums_are_the_phi_2m_cascade_of_the_integer_autoconvolution(name, profiles):
    # The subdivision symbols multiply: q^{-J} (g_J * g_J) is the cascade of
    # g_0 * g_0 with the coefficients of (m0^m)^2, on Z^d at every level.
    J = 3
    for m in (1, 2):
        p = profiles(name, m)
        rc, box = p.refinement
        g0 = cascade.integer_values(p.A, rc, box)
        rc2 = spectral.trigpoly.refinement_coefficients(p.m0 ** (2 * m), p.q)
        box2 = cascade.SupportBox(2 * box.lo, 2 * box.hi)
        E = cascade._empty_grid(p.A, box2, 0)
        E.data[...] = helpers.fft_autoconvolve(g0.data)
        for _ in range(J):
            E = helpers.refine_by_taps(p.A, rc2, E)
        gJ = cascade.sample_phi(p.A, rc, box, J)
        conv = helpers.fft_autoconvolve(gJ.data) * gJ.quadrature_weight
        assert np.array_equal(E.offset, 2 * gJ.offset) and E.data.shape == conv.shape
        assert np.max(np.abs(E.data - conv)) <= 1e-13 * np.max(np.abs(conv))


def test_convolution_peak_stays_below_the_level_j_transform(profiles):
    # A4 at m=2, J=6: the FFT pair of the level-6 grid (769^2 values at
    # 800^2 points) peaked at 105 MiB; the defect cascade's largest arrays
    # are level-5 grids of phi^4, and it peaks at 27.7 MiB.
    p = profiles("A4", 2)
    grid0 = cascade.integer_values(p.A, *p.refinement)
    tracemalloc.start()
    try:
        check_convolution(p, 6, grid0=grid0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2 ** 20


def test_convolution_residuals(profiles):
    # Richardson-extrapolated rectangle sums: the O(h^{2m}) aliasing term
    # (h = q^{-J/d}; quincunx m=1 ~0.45 h^2 raw) is removed, and what remains
    # is of higher order; these are regression bounds above the measured values
    assert check_convolution(profiles("uni"), 6) < 5e-4
    assert check_convolution(profiles("A1"), 6) < 8e-3
    assert check_convolution(profiles("A1", 2), 5) < 1e-5


def test_convolution_scaling(profiles):
    r5 = check_convolution(profiles("A1"), 5)
    r7 = check_convolution(profiles("A1"), 7)
    assert r7 < 0.35 * r5  # measured r7/r5 = 0.11 after the Richardson step


def test_convolution_rejects_zero_order(profiles):
    # The order is the profile's, and a profile of order 0 cannot be made.
    with pytest.raises(ValueError):
        spectral.make_profile([[2]], m=0)
    with pytest.raises(ValueError):
        check_convolution(profiles("uni"), 0)  # no coarser level


def test_reproduction_quincunx_harmonics(profiles, grids):
    p = profiles("A1")
    g = grids("A1", 1, 5)
    for terms in ([((2, 0), 1.0), ((0, 2), -1.0)], [((1, 1), 1.0)]):
        ok, deg, fit = check_polynomial_reproduction(p, Polynomial.from_terms(2, *terms), grid=g)
        assert ok and deg < 2 and fit < 1e-5


def test_reproduction_quincunx_expected_failure(profiles, grids):
    p = profiles("A1")
    g = grids("A1", 1, 5)
    ok, _, fit = check_polynomial_reproduction(
        p, Polynomial.from_terms(2, ((2, 0), 1.0), ((0, 2), 1.0)), grid=g)
    assert not ok and fit > 1e-2


def test_reproduction_univariate_kernel_is_sharp(profiles, grids):
    # degree <= 2m-1 reproduces and nothing above it does
    p1, g1 = profiles("uni"), grids("uni", 1, 5)
    ok, _, _ = check_polynomial_reproduction(p1, Polynomial.from_terms(1, ((1,), 1.0)), grid=g1)
    assert ok
    ok, _, _ = check_polynomial_reproduction(p1, Polynomial.from_terms(1, ((2,), 1.0)), grid=g1)
    assert not ok
    p2, g2 = profiles("uni", 2), grids("uni", 2, 5)
    ok, _, _ = check_polynomial_reproduction(p2, Polynomial.from_terms(1, ((3,), 1.0)), grid=g2)
    assert ok
    for deg in (4, 5):
        ok, _, _ = check_polynomial_reproduction(
            p2, Polynomial.from_terms(1, ((deg,), 1.0)), grid=g2)
        assert not ok


def test_reproduction_degree_cap(profiles, grids):
    with pytest.raises(DegreeTooHigh):
        check_polynomial_reproduction(
            profiles("uni"), Polynomial.from_terms(1, ((4,), 1.0)), grid=grids("uni", 1, 5))


def test_polynomial_eval_and_degree():
    p = Polynomial.from_terms(2, ((2, 0), 1.0), ((0, 2), -1.0))
    assert p.total_degree == 2
    assert p.eval(np.array([[3.0, 2.0]]))[0] == pytest.approx(5.0)


@pytest.mark.parametrize("name,m,target", [
    ("uni", 1, 1.6), ("uni", 2, 3.6), ("A1", 1, 1.6), ("A1", 2, 3.6)])
def test_approximation_order_slopes(name, m, target, profiles):
    slope, errs = check_approximation_order(profiles(name, m))
    assert slope is not None and slope >= target
    assert errs[-1] < errs[0]


def test_approximation_order_constant_is_exact(profiles):
    slope, errs = check_approximation_order(
        profiles("uni"), f=lambda x: np.ones(np.asarray(x).shape[:-1]))
    assert slope is None
    assert max(errs) < 1e-12


def test_diag_is_not_square_of_quincunx(profiles):
    # the det-4 mask is not m01(A~^T xi) m01(xi): coefficients differ
    m04 = profiles("A4").m0
    m01 = profiles("A1").m0
    Atilde = np.array([[1, 1], [1, -1]])
    product = m01.transform_frequencies(Atilde) * m01
    assert helpers.coeff_dict_dist(m04.coeffs, product.coeffs) > 1e-3


def _run_all(p, **kwargs):
    return run_all(p, spectral.estimate_B(p, 128), **kwargs)


def _statuses(report):
    return {c.name: c.status for c in report.checks}


def test_run_all_univariate_m2_all_pass(profiles):
    report = _run_all(profiles("uni", 2), J=5)
    st = _statuses(report)
    assert report.passed
    assert st["riesz_basis"] == "pass"
    assert st["convolution"] == "pass"
    assert st["operator_relation"] == "pass"
    assert st["interpolation"] == "skip"  # centered B3 mask is not interpolating


def test_run_all_quincunx_m1(profiles):
    report = _run_all(profiles("A1", 1), J=5)
    st = _statuses(report)
    for name in ("riesz_basis", "mass", "partition_of_unity", "interpolation",
                 "lattice_nonnegativity", "total_positivity", "strang_fix",
                 "fourier_refinement", "non_decay", "polynomial_reproduction"):
        assert st[name] == "pass", name
    assert st["operator_relation"] == "skip"
    # the raw level-5 rectangle rule misses by 1.4e-2 = 0.45 h^2; the
    # Richardson step brings it to 1.1e-3, inside the 5e-3 tolerance
    assert st["convolution"] == "pass"
    assert report.passed
    note = next(c.note for c in report.checks if c.name == "convolution")
    assert "r = 2;" in note and "raw level-5 rectangle-rule deviation 0.014" in note


def test_run_all_convolution_skips_without_coarser_level(profiles):
    report = _run_all(profiles("uni", 1), J=0)
    conv = next(c for c in report.checks if c.name == "convolution")
    assert conv.status == "skip"
    assert "J >= 1" in conv.note


@pytest.mark.parametrize("name,J", [("uni", 0), ("uni", 2), ("A1", 0), ("A1", 2)])
def test_run_all_skips_checks_below_their_level(name, J, profiles):
    report = _run_all(profiles(name, 1), J=J)
    checks = {c.name: c for c in report.checks}
    assert (checks["partition_of_unity"].status, checks["partition_of_unity"].note) \
        == ("skip", "need J >= 3")
    reproduction = checks["polynomial_reproduction"]
    if J == 0:
        assert reproduction.status == "skip" and "J >= 1" in reproduction.note
    else:
        assert reproduction.status == "pass"
    # a level-2 rectangle rule for the quincunx misses the level-5 tolerance
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert failed == (set() if name == "uni" or J == 0 else {"convolution"})


def test_run_all_reads_each_shift_sum_with_one_lookup(profiles, monkeypatch):
    # Partition of unity and each reproduction candidate read their whole
    # shift matrix through one LatticeGrid.shifts call.
    calls, per_check = [0], []
    shifts = cascade.LatticeGrid.shifts

    def counted_shifts(self, idx, ks):
        calls[0] += 1
        return shifts(self, idx, ks)
    monkeypatch.setattr(cascade.LatticeGrid, "shifts", counted_shifts)
    for name in ("check_partition_of_unity", "check_polynomial_reproduction"):
        def counted(*args, _check=getattr(properties, name), _name=name, **kwargs):
            before = calls[0]
            out = _check(*args, **kwargs)
            per_check.append((_name, calls[0] - before))
            return out
        monkeypatch.setattr(properties, name, counted)
    p = profiles("A1", 1)
    st = _statuses(_run_all(p, J=5))
    assert st["partition_of_unity"] == st["polynomial_reproduction"] == "pass"
    assert per_check == [("check_partition_of_unity", 1)] + [
        ("check_polynomial_reproduction", 1)] * len(properties.reproduction_cases(p))


def test_run_all_computes_lattice_points_once(profiles, monkeypatch):
    # The reproduction candidates share one sample of [-2, 2]^d, and the
    # unbounded partition window needs index vectors only.
    calls = [0]
    points = cascade.LatticeGrid.cartesian_points

    def counted(self):
        calls[0] += 1
        return points(self)
    monkeypatch.setattr(cascade.LatticeGrid, "cartesian_points", counted)
    st = _statuses(_run_all(profiles("A1", 1), J=5))
    assert st["partition_of_unity"] == st["polynomial_reproduction"] == "pass"
    assert calls[0] == 1


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_partition_picks_the_unbounded_sample(grids, seed, monkeypatch):
    g = grids("A1", 1, 5)
    seen = []
    shifts = cascade.LatticeGrid.shifts

    def recorded(self, idx, ks):
        seen.append(np.array(idx))
        return shifts(self, idx, ks)
    monkeypatch.setattr(cascade.LatticeGrid, "shifts", recorded)
    check_partition_of_unity(g, n_samples=40, seed=seed)
    assert np.array_equal(seen[0], properties._sample(g, 40, seed)[0])


def test_reproduction_fallback_cascades_from_the_profile(profiles, monkeypatch):
    def no_rebuild(*args, **kwargs):
        raise AssertionError("mask and refinement data rebuilt")
    monkeypatch.setattr(cascade, "sample_phi_m", no_rebuild)
    p = profiles("A1", 1)
    one = properties.Polynomial.from_terms(2, ((0, 0), 1.0))
    assert check_polynomial_reproduction(p, one) == check_polynomial_reproduction(
        p, one, grid=cascade.sample_phi(p.A, *p.refinement, 5))


def test_run_all_a2_riesz_fails_report_completes(profiles):
    report = _run_all(profiles("A2", 1), J=4)
    st = _statuses(report)
    assert st["riesz_basis"] == "fail"
    assert not report.passed
    assert len(report.checks) >= 10  # every check reported something
    doc = report.to_json()
    assert doc["passed"] is False


def test_run_all_deterministic(profiles):
    r1 = _run_all(profiles("A3", 1), J=4, seed=11)
    r2 = _run_all(profiles("A3", 1), J=4, seed=11)
    assert r1.to_json() == r2.to_json()
