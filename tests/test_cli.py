import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from ellipsf import cascade, cli, digits, ioutils, matana, spectral, trigpoly
from ellipsf.errors import MaskPoleAtDigit

import helpers


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_quincunx(capsys):
    code, out = run_cli(capsys, "analyze", "--matrix", "1,-1;1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["isotropic"] is True
    assert np.max(np.abs(np.array(doc["Q2"]) - np.eye(2))) < 1e-10
    expected_U = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
    assert np.max(np.abs(np.array(doc["U"]) - expected_U)) < 1e-10
    assert doc["digits_AT"]["S"] == [["0/1", "0/1"], ["1/2", "1/2"]]


def test_analyze_tr1(capsys):
    code, out = run_cli(capsys, "analyze", "--matrix", "0,-2;1,1")
    assert code == 0
    doc = json.loads(out)
    assert np.max(np.abs(np.array(doc["Q2"]) - [[2, -0.5], [-0.5, 1]])) < 1e-10


def test_analyze_non_isotropic_exit_3(capsys, tmp_path):
    code, out = run_cli(capsys, "analyze", "--matrix", "2,1;0,2")
    assert code == 3
    assert json.loads(out)["isotropic"] is False
    # report writes the analysis that explains the exit code, and nothing else
    assert cli.main(["report", "--matrix", "2,1;0,2", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("not isotropic: ")
    assert [f.name for f in tmp_path.iterdir()] == ["analyze.json"]


def test_analyze_singular_exit_2(capsys):
    code, _ = run_cli(capsys, "analyze", "--matrix", "1,1;1,1")
    assert code == 2


def test_analyze_not_expanding_exit_2(capsys):
    code, _ = run_cli(capsys, "analyze", "--matrix", "1,0;0,1")
    assert code == 2


def test_matrix_value_may_start_with_minus(capsys):
    # argparse alone reads "-1,1;-1,-1" as an option and exits with a usage error.
    joined = run_cli(capsys, "analyze", "--matrix=-1,1;-1,-1")
    assert joined[0] == 0
    assert run_cli(capsys, "analyze", "--matrix", "-1,1;-1,-1") == joined
    assert run_cli(capsys, "mask", "--matrix", "-2") == run_cli(capsys, "mask", "--matrix=-2")


@pytest.mark.parametrize("command", ["analyze", "mask"])
def test_exit_codes_on_every_small_matrix(command, capsys):
    """Every 2x2 matrix with entries in [-2, 2], passed as one argv token."""
    codes = set()
    for e in itertools.product(range(-2, 3), repeat=4):
        A = [list(e[:2]), list(e[2:])]
        code, _ = run_cli(capsys, command, "--matrix", f"{e[0]},{e[1]};{e[2]},{e[3]}")
        moduli = np.abs(np.linalg.eigvals(np.array(A, dtype=float)))
        if e[0] * e[3] - e[1] * e[2] == 0 or moduli.min() <= 1.0 + 1e-9:
            assert code == 2, A
            continue
        isotropic = matana.certify_isotropy(matana.validate_dilation(A)).isotropic
        assert code == (0 if isotropic else 3), A
        # An isotropic matrix has eigenvalues of one modulus.
        assert not isotropic or moduli.max() - moduli.min() < 1e-9, A
        codes.add(code)
    assert codes == {0, 3}


def test_missing_matrix_exit_2(capsys):
    code, _ = run_cli(capsys, "analyze")
    assert code == 2


def test_bad_matrix_string_exit_2(capsys):
    code, _ = run_cli(capsys, "analyze", "--matrix", "1,x;0,2")
    assert code == 2


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"matrix": [[1, -1], [1, 1]], "m": 1, "J": 3}))
    code, out = run_cli(capsys, "analyze", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["q"] == 2


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"matrix": [[2]], "tolerance": 1e-9}))
    code, _ = run_cli(capsys, "analyze", "--config", str(cfg))
    assert code == 2


def test_config_invalid_values_rejected(tmp_path, capsys):
    # Each is a config error with one line on stderr: a wrong type used to end
    # in a TypeError traceback (J, grid_n, out), fail property checks (seed),
    # or print "tol": nan, which is no JSON.
    cases = [("analyze", {"tol": -1.0}), ("analyze", {"matrix": [[1, 2]]}),
             ("eval", {"J": 2.5}), ("spectrum", {"grid_n": 64.5}), ("analyze", {"out": 5}),
             ("verify", {"seed": 1.5, "J": 3}), ("verify", {"seed": -1, "J": 3}),
             ("mask", {"m": True}), ("spectrum", {"tol": math.nan}),
             ("spectrum", {"tol": math.inf})]
    cfg = tmp_path / "job.json"
    for command, data in cases:
        cfg.write_text(json.dumps({"matrix": [[2]], **data}))
        code, (out, err) = cli.main([command, "--config", str(cfg)]), capsys.readouterr()
        assert (code, out) == (2, ""), data
        assert err.startswith("config error: ") and err.count("\n") == 1, data
    assert run_cli(capsys, "spectrum", "--matrix", "2", "--tol", "nan") == (2, "")


@pytest.mark.parametrize("text", ["1,2;3", "", "1,,2;3,4", "1.5,0;0,2",
                                  "99999999999999999999,0;0,2"])
def test_malformed_matrix_string_exit_2(text, capsys):
    code, (out, err) = cli.main(["analyze", "--matrix", text]), capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"matrix": [[2]], "m": 1}))
    code, out = run_cli(capsys, "mask", "--config", str(cfg), "--m", "2")
    assert code == 0
    assert json.loads(out)["m"] == 2


@pytest.mark.parametrize("name,matrix", [
    ("A1", "1,-1;1,1"), ("A2", "0,-2;1,1"), ("A3", "1,-2;1,0"),
    ("A4", "2,0;0,2"), ("uni", "2")])
def test_mask_matches_reference(name, matrix, capsys):
    code, out = run_cli(capsys, "mask", "--matrix", matrix)
    assert code == 0
    doc = json.loads(out)
    got = {tuple(entry["k"]): entry["c"] for entry in doc["coefficients"]}
    d = len(doc["matrix"])
    expected = helpers.fft_coeffs(helpers.REFERENCE_MASKS[name], d)
    assert helpers.coeff_dict_dist(got, expected) < 1e-12


def test_mask_order_two_squares_coefficients(capsys):
    code, out = run_cli(capsys, "mask", "--matrix", "2", "--m", "2")
    assert code == 0
    got = {tuple(e["k"]): e["c"] for e in json.loads(out)["coefficients"]}
    expected = helpers.fft_coeffs(lambda xi: ((1 + np.cos(xi[..., 0])) / 2) ** 2, 1)
    assert helpers.coeff_dict_dist(got, expected) < 1e-13


def test_mask_pole_exit_4(capsys, monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise MaskPoleAtDigit("synthetic")
    monkeypatch.setattr(trigpoly, "build_mask", boom)
    code, _ = run_cli(capsys, "mask", "--matrix", "1,-1;1,1")
    assert code == 4
    assert cli.main(["report", "--matrix", "1,-1;1,1", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "mask pole: synthetic\n"
    assert [f.name for f in tmp_path.iterdir()] == ["analyze.json"]


SPECTRUM_FIXTURES = [
    ("1,-1;1,1", 1.0, True), ("0,-2;1,1", 2.0, False),
    ("1,-2;1,0", 25.0 / 24.0, True), ("2,0;0,2", 9.0 / 8.0, True), ("2", 1.0, True)]


@pytest.mark.parametrize("matrix,B,ok", SPECTRUM_FIXTURES)
def test_spectrum_constants(matrix, B, ok, capsys):
    code, out = run_cli(capsys, "spectrum", "--matrix", matrix, "--grid-n", "128")
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == pytest.approx(B, abs=1e-6)
    assert doc["riesz_ok"] is ok


def test_B_grid_past_the_cell_cap_is_a_config_error(capsys, tmp_path, monkeypatch):
    # The B grid shares the lattice grids' cap; lowered here so the check is
    # quick.  At the real cap, --grid-n 100000 in 2-D asks for 10^10 rows.
    monkeypatch.setattr(cascade, "MAX_GRID_CELLS", 64 ** 2)
    assert run_cli(capsys, "spectrum", "--matrix", "2,0;0,2", "--grid-n", "64")[0] == 0
    for command in ("spectrum", "verify", "report"):
        out = tmp_path / command
        code = cli.main([command, "--matrix", "2,0;0,2", "--J", "1", "--grid-n", "65",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: grid_n=65 needs a B grid of 4225 points; at most 4096 are allowed\n")
        assert not out.exists() or not any(out.iterdir())


def test_bordered_matrix_past_its_budget_exits_2(capsys, monkeypatch):
    # With the budget between the bordered matrices of A1's phi and phi^2,
    # verify stops at the convolution check's phi^2 solve with exit 2.
    p = spectral.make_profile([[1, -1], [1, 1]])
    ns = []
    for m in (1, 2):
        rc = trigpoly.refinement_coefficients(p.m0 ** m, p.q)
        ns.append(len(cascade.transition_matrix(p.A, rc, cascade.support_box(p.A, rc))[1]))
    assert ns[0] < ns[1]
    budget = 8 * (ns[1] + 1) ** 2 - 1
    monkeypatch.setattr(cascade, "MAX_TRANSITION_BYTES", budget)
    code = cli.main(["verify", "--matrix", "1,-1;1,1", "--J", "2", "--grid-n", "32"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == (f"config error: the transition matrix keeps n={ns[1]} points, so its "
                   f"bordered matrix needs {budget + 1} bytes; at most {budget} are allowed\n")


def test_mask_denominator_overflow_exit_2(capsys):
    # At 32I the product of the 1,023 values G(2 pi s) passes 1e308; with an
    # infinite denominator every coefficient would be dropped and the mask
    # printed as "0".  It is checked before any numerator product is built.
    start = time.perf_counter()
    code, (out, err) = cli.main(["mask", "--matrix", "32,0;0,32"]), capsys.readouterr()
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert err == "numerical breakdown: the product of the 1023 values G(2 pi s) is inf\n"


def test_numerical_breakdown_in_the_profile_exit_2(capsys, tmp_path):
    # At q = 36 the mask's imaginary residue passes the realify tolerance.
    code, (out, err) = cli.main(["mask", "--matrix", "6,0;0,6"]), capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("numerical breakdown: imaginary residue ") and err.count("\n") == 1
    assert cli.main(["report", "--matrix", "6,0;0,6", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == err
    assert [f.name for f in tmp_path.iterdir()] == ["analyze.json"]


def test_spectrum_csv_dump(tmp_path, capsys):
    code, _ = run_cli(capsys, "spectrum", "--matrix", "2", "--grid-n", "64",
                      "--out", str(tmp_path), "--csv")
    assert code == 0
    assert (tmp_path / "spectrum.json").exists()
    mu_rows = (tmp_path / "mu.csv").read_text().strip().splitlines()
    assert mu_rows[0].startswith("# xi_1")
    assert len(mu_rows) == 65


def test_eval_univariate_hat_exact(capsys):
    code, out = run_cli(capsys, "eval", "--matrix", "2", "--J", "3")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("# A=[[2]], J=3")
    for row in rows[1:]:
        x, v = (float(t) for t in row.split(","))
        assert v == max(0.0, 1.0 - abs(x))


def test_eval_univariate_m2_cubic(capsys):
    code, out = run_cli(capsys, "eval", "--matrix", "2", "--m", "2", "--J", "4")
    assert code == 0
    for row in out.strip().splitlines()[1:]:
        x, v = (float(t) for t in row.split(","))
        assert abs(v - helpers.cubic_bspline(np.array([x]))[0]) < 1e-8


def test_eval_quincunx_grid_runs(capsys):
    code, out = run_cli(capsys, "eval", "--matrix", "1,-1;1,1", "--J", "5")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) > 500
    values = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert abs(values.sum() * 2.0 ** -5 - 1.0) < 1e-9


@pytest.mark.parametrize("command", ["eval", "verify", "report"])
def test_oversize_level_is_a_config_error(capsys, tmp_path, command):
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main([command, "--matrix", "2,0;0,2", "--J", "40", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: level J=40 needs a grid of ")
    assert not out.exists() or not any(out.iterdir())
    # A grid at the cell budget alone holds 9 * 2^24 bytes (151 MB).
    assert peak < 64 * 2 ** 20
    # The level is checked before any grid is built, verify's 21 MB Riesz
    # grid included.
    assert peak < 2 ** 20


def test_truncation_depth_past_the_cap_is_a_config_error(capsys, tmp_path):
    # At the cap the non_decay check would fail for want of depth, not of decay;
    # report computes every document before it writes any file.  1e-239 passes
    # at P = 1 and fails only at the larger P of verify's [-6 pi, 6 pi]^d grid.
    profile = spectral.make_profile(cli.parse_matrix("1,-1;1,1"))
    at_P_1 = spectral._truncation_depth(profile, np.array([[1.0, 0.0]]), 1e-239)
    assert at_P_1 <= spectral.MAX_DEPTH
    for command, tol in (("verify", "1e-300"), ("report", "1e-300"), ("report", "1e-239")):
        out = tmp_path / f"{command}-{tol}"
        code = cli.main([command, "--matrix", "1,-1;1,1", "--J", "3", "--tol", tol,
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: truncation depth ")
        assert not out.exists() or not any(out.iterdir())


def test_report_builds_one_profile_and_one_B(capsys, tmp_path, monkeypatch):
    calls = {"make_profile": [], "estimate_B": []}
    for name in calls:
        original = getattr(spectral, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name].append(args[1:])
            return _original(*args, **kwargs)
        monkeypatch.setattr(spectral, name, counted)
    code, _ = run_cli(capsys, "report", "--matrix", "1,-2;1,0", "--J", "5",
                      "--grid-n", "64", "--out", str(tmp_path))
    assert code == 0
    assert len(calls["make_profile"]) == 1
    assert calls["estimate_B"] == [(64,)]
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    verify = json.loads((tmp_path / "verify.json").read_text())
    riesz = next(c for c in verify["checks"] if c["name"] == "riesz_basis")
    assert riesz["residual"] == spectrum["B"]


@pytest.mark.parametrize("command", ["verify", "report"])
def test_job_checks_its_level_once(command, capsys, tmp_path, monkeypatch):
    # The profile builds phi^m's refinement data once; the early level check,
    # the battery and the mask share it.  Convolution's phi^{2m} builds its own.
    built = []
    original = cascade.support_box

    def counted(A, rc):
        built.append(rc.c)
        return original(A, rc)
    monkeypatch.setattr(cascade, "support_box", counted)
    code, _ = run_cli(capsys, command, "--matrix", "1,-2;1,0", "--m", "2", "--J", "4",
                      "--grid-n", "64", "--out", str(tmp_path))
    assert code == 0
    p = spectral.make_profile([[1, -2], [1, 0]])
    order_2 = trigpoly.refinement_coefficients(p.m0 ** 2, p.q).c
    order_4 = trigpoly.refinement_coefficients(p.m0 ** 4, p.q).c
    assert built.count(order_2) == 1
    assert built.count(order_4) == 1


def test_report_raises_the_mask_to_the_power_m_once(capsys, tmp_path, monkeypatch):
    exponents = []
    original = trigpoly.TrigPoly.__pow__

    def counted(self, m):
        exponents.append(m)
        return original(self, m)
    monkeypatch.setattr(trigpoly.TrigPoly, "__pow__", counted)
    code, _ = run_cli(capsys, "report", "--matrix", "1,-1;1,1", "--m", "2", "--J", "4",
                      "--grid-n", "64", "--out", str(tmp_path))
    assert code == 0
    assert exponents.count(2) == 1  # mask.json and the cascade share m0^2


def test_digit_count_past_the_cap_is_a_config_error(capsys, tmp_path, monkeypatch):
    # Lowered here so the check is quick.  At the real cap of 2^16 digits a
    # matrix such as 1000 I (q = 10^6) is rejected instead of listing them all.
    monkeypatch.setattr(digits, "MAX_DIGITS", 3)
    assert run_cli(capsys, "analyze", "--matrix", "1,-1;1,1")[0] == 0
    for command in ("analyze", "mask", "spectrum", "eval", "verify", "report"):
        out = tmp_path / command
        code = cli.main([command, "--matrix", "2,0;0,2", "--J", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: matrix has q = |det| = 4 digits; at most 3 are allowed\n")
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("matrix", ["1,-2;1,0", "2,0;0,2"])
def test_verify_estimates_B_at_grid_n(matrix, capsys):
    code, out = run_cli(capsys, "verify", "--matrix", matrix, "--J", "5", "--grid-n", "64")
    assert code == 0
    riesz = next(c for c in json.loads(out)["checks"] if c["name"] == "riesz_basis")
    profile = spectral.make_profile(cli.parse_matrix(matrix))
    assert riesz["residual"] == spectral.estimate_B(profile, 64)


def test_verify_univariate_passes(capsys):
    code, out = run_cli(capsys, "verify", "--matrix", "2", "--J", "4")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_univariate_coarse_level_passes(capsys):
    code, out = run_cli(capsys, "verify", "--matrix", "2", "--J", "2")
    assert code == 0
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert statuses["partition_of_unity"] == "skip"


def test_verify_a2_fails(capsys):
    code, out = run_cli(capsys, "verify", "--matrix", "0,-2;1,1", "--J", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    riesz = [c for c in doc["checks"] if c["name"] == "riesz_basis"][0]
    assert riesz["status"] == "fail"


def test_verify_seed_stable_byte_identical(capsys):
    _, out1 = run_cli(capsys, "verify", "--matrix", "2", "--J", "4", "--seed", "7")
    _, out2 = run_cli(capsys, "verify", "--matrix", "2", "--J", "4", "--seed", "7")
    assert out1 == out2


def test_analyze_deterministic_files(tmp_path, capsys):
    outdir1 = tmp_path / "r1"
    outdir2 = tmp_path / "r2"
    run_cli(capsys, "analyze", "--matrix", "1,-2;1,0", "--out", str(outdir1))
    run_cli(capsys, "analyze", "--matrix", "1,-2;1,0", "--out", str(outdir2))
    assert (outdir1 / "analyze.json").read_bytes() == (outdir2 / "analyze.json").read_bytes()


def test_report_combines_everything(tmp_path, capsys):
    code, _ = run_cli(capsys, "report", "--matrix", "2", "--J", "4",
                      "--grid-n", "64", "--out", str(tmp_path))
    assert code == 0
    for fname in ("analyze.json", "mask.json", "mask.txt", "spectrum.json", "verify.json"):
        assert (tmp_path / fname).exists()


def test_float_formatting_17g(tmp_path, capsys):
    _, out = run_cli(capsys, "analyze", "--matrix", "1,-2;1,0")
    # 17 significant digits round-trip: parse and compare exactly
    doc = json.loads(out)
    q2 = np.array(doc["Q2"])
    _, out2 = run_cli(capsys, "analyze", "--matrix", "1,-2;1,0")
    assert np.array_equal(q2, np.array(json.loads(out2)["Q2"]))


def test_eval_cascades_from_the_profile_refinement(capsys, monkeypatch, grids):
    def no_rebuild(*args, **kwargs):
        raise AssertionError("mask and refinement data rebuilt")
    monkeypatch.setattr(cascade, "sample_phi_m", no_rebuild)
    code, out = run_cli(capsys, "eval", "--matrix", "1,-1;1,1", "--J", "3")
    assert code == 0
    monkeypatch.undo()
    assert out == ioutils.grid_csv(grids("A1", 1, 3))
