"""Byte identity of the blocked CSV writers against number-by-number formatting."""

import numpy as np
import pytest

from ellipsf import cascade, cli, ioutils, spectral

EDGE = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]
C3 = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]


def reference_csv(header, points, values):
    """The per-row loop the writers replaced: format_float on every number."""
    rows = [header]
    for pt, val in zip(points, values):
        rows.append(",".join(ioutils.format_float(c) for c in pt) + "," + ioutils.format_float(val))
    return "\n".join(rows) + "\n"


def reference_grid_csv(grid):
    header = f"# A={[list(map(int, r)) for r in grid.A.entries]}, J={grid.J}, d={grid.A.d}"
    return reference_csv(header, grid.cartesian_points(), grid.values)


def first_difference(text, expected):
    """None when equal, else the first differing row (a large-string diff is slow)."""
    if text == expected:
        return None
    got, want = text.split("\n"), expected.split("\n")
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return i, got[i:i + 1], want[i:i + 1], len(got), len(want)


def field(n, d, seed):
    """n rows of d coordinates and a value; the edge values lead both columns."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
    vals = rng.standard_normal(n) / 3.0
    k = min(n, len(EDGE))
    vals[:k] = EDGE[:k]
    pts[:k, 0] = EDGE[::-1][:k]
    return pts, vals


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, len(EDGE), ioutils._CSV_BLOCK - 1,
                               ioutils._CSV_BLOCK, ioutils._CSV_BLOCK + 1])
def test_field_csv_matches_per_number_formatting(d, n):
    pts, vals = field(n, d, seed=1000 * d + n)
    header = "# " + ",".join(f"xi_{i + 1}" for i in range(d)) + ",mu"
    assert first_difference(ioutils.field_csv(pts, vals, header),
                            reference_csv(header, pts, vals)) is None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_empty_table_is_header_and_newline(d):
    assert ioutils.field_csv(np.zeros((0, d)), np.zeros(0), "# h") == "# h\n"


def test_edge_values_render_as_format_float():
    pts = np.array(EDGE).reshape(-1, 1)
    text = ioutils.field_csv(pts, np.array(EDGE[::-1]), "# x,v")
    rows = text.splitlines()[1:]
    assert rows[0] == "-0,1.7976931348623157e+308"
    assert rows[1] == "nan,4.9406564584124654e-324"
    assert [r.split(",")[0] for r in rows] == [ioutils.format_float(x) for x in EDGE]


@pytest.mark.parametrize("matrix, m, J", [([[2]], 2, 4), ([[1, -1], [1, 1]], 1, 4), (C3, 1, 1)])
def test_grid_csv_across_block_boundaries(monkeypatch, matrix, m, J):
    p = spectral.make_profile(matrix, m=m)
    grid = cascade.sample_phi_m(p.A, p.m0, m, J)
    expected = reference_grid_csv(grid)
    n = len(grid.values)
    for block in (1, n - 1, n, n + 1):
        monkeypatch.setattr(ioutils, "_CSV_BLOCK", block)
        assert first_difference(ioutils.grid_csv(grid), expected) is None


@pytest.mark.parametrize("matrix, m, J", [(C3, 1, 3), ([[2, 0], [0, 2]], 2, 3)])
def test_eval_stdout_matches_reference(capsys, matrix, m, J):
    text = ";".join(",".join(map(str, row)) for row in matrix)
    assert cli.main(["eval", "--matrix", text, "--m", str(m), "--J", str(J)]) == 0
    p = spectral.make_profile(matrix, m=m)
    expected = reference_grid_csv(cascade.sample_phi_m(p.A, p.m0, m, J))
    assert first_difference(capsys.readouterr().out, expected) is None
