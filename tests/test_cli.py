import json
import math
import tracemalloc

import numpy as np
import pytest

from ellipsf import cli, trigpoly
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


def test_analyze_non_isotropic_exit_3(capsys):
    code, out = run_cli(capsys, "analyze", "--matrix", "2,1;0,2")
    assert code == 3
    assert json.loads(out)["isotropic"] is False


def test_analyze_singular_exit_2(capsys):
    code, _ = run_cli(capsys, "analyze", "--matrix", "1,1;1,1")
    assert code == 2


def test_analyze_not_expanding_exit_2(capsys):
    code, _ = run_cli(capsys, "analyze", "--matrix", "1,0;0,1")
    assert code == 2


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
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"matrix": [[2]], "tol": -1.0}))
    code, _ = run_cli(capsys, "analyze", "--config", str(cfg))
    assert code == 2
    cfg.write_text(json.dumps({"matrix": [[1, 2]]}))
    code, _ = run_cli(capsys, "analyze", "--config", str(cfg))
    assert code == 2


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


def test_mask_pole_exit_4(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise MaskPoleAtDigit("synthetic")
    monkeypatch.setattr(trigpoly, "build_mask", boom)
    code, _ = run_cli(capsys, "mask", "--matrix", "1,-1;1,1")
    assert code == 4


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


def test_truncation_depth_past_the_cap_is_a_config_error(capsys):
    # At the cap the non_decay check would fail for want of depth, not of decay.
    code = cli.main(["verify", "--matrix", "1,-1;1,1", "--J", "3", "--tol", "1e-300"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: truncation depth ")


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
