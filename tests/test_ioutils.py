"""Byte identity of the blocked CSV writers against number-by-number formatting."""

import tracemalloc

import numpy as np
import pytest

from ellipsf import cascade, cli, ioutils, spectral

EDGE = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]
# Values that compare equal, or unequal to themselves, but differ in their
# bits: the distinct-coordinate tables must keep 0.0 and -0.0 apart, and both
# NaN signs print as "nan".
SIGNED = [0.0, -0.0, np.nan, -np.nan, 1.0 / 3.0, -1.0 / 3.0, 5e-324, -5e-324]
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


def field(n, d, seed, pool=None):
    """n rows of d coordinates and a value; the edge values lead both columns.

    With a `pool`, coordinates and values are drawn from it, so every
    distinct value repeats across many rows and across block boundaries.
    """
    rng = np.random.default_rng(seed)
    if pool is None:
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
        vals = rng.standard_normal(n) / 3.0
    else:
        pts, vals = rng.choice(pool, (n, d)), rng.choice(pool, n)
    k = min(n, len(EDGE))
    vals[:k] = EDGE[:k]
    pts[:k, 0] = EDGE[::-1][:k]
    return pts, vals


SIZES = [0, 1, len(EDGE), ioutils._CSV_BLOCK - 1, ioutils._CSV_BLOCK, ioutils._CSV_BLOCK + 1]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n, pool", [pytest.param(n, None, id=str(n)) for n in SIZES]
                         + [pytest.param(n, SIGNED, id=f"{n}-repeats") for n in SIZES])
def test_field_csv_matches_per_number_formatting(d, n, pool):
    pts, vals = field(n, d, seed=1000 * d + n, pool=pool)
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


def test_signed_zeros_and_nans_keep_their_own_text():
    column = np.array(SIGNED * 3)
    assert np.signbit(column[3]) and np.isnan(column[3])
    text = ioutils.field_csv(column[:, None], column, "# x,v")
    expected = ["0", "-0", "nan", "nan", "0.33333333333333331", "-0.33333333333333331",
                "4.9406564584124654e-324", "-4.9406564584124654e-324"] * 3
    assert text.splitlines()[1:] == [f"{x},{x}" for x in expected]


@pytest.mark.parametrize("matrix, m, J", [([[2]], 2, 4), ([[1, -1], [1, 1]], 1, 4), (C3, 1, 1)])
def test_grid_csv_across_block_boundaries(monkeypatch, matrix, m, J):
    p = spectral.make_profile(matrix, m=m)
    grid = cascade.sample_phi_m(p.A, p.m0, m, J)
    expected = reference_grid_csv(grid)
    n = len(grid.values)
    for block in (1, n - 1, n, n + 1):
        monkeypatch.setattr(ioutils, "_CSV_BLOCK", block)
        assert first_difference(ioutils.grid_csv(grid), expected) is None


def test_grid_csv_peak_stays_near_its_text():
    # The points are dropped once their distinct values are formatted, and
    # the text is joined once the tables are gone: the peak is the block
    # texts and the joined text, about 2.3 times the text (formatting every
    # number of a stacked block, with the points alive, peaked at 2.64).
    p = spectral.make_profile([[1, -2], [1, 0]], m=2)
    grid = cascade.sample_phi_m(p.A, p.m0, 2, 9)
    tracemalloc.start()
    try:
        text = ioutils.grid_csv(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 3_000_000
    assert peak <= 2.5 * len(text)


@pytest.mark.parametrize("matrix, m, J", [(C3, 1, 3), ([[2, 0], [0, 2]], 2, 3)])
def test_eval_stdout_matches_reference(capsys, matrix, m, J):
    text = ";".join(",".join(map(str, row)) for row in matrix)
    assert cli.main(["eval", "--matrix", text, "--m", str(m), "--J", str(J)]) == 0
    p = spectral.make_profile(matrix, m=m)
    expected = reference_grid_csv(cascade.sample_phi_m(p.A, p.m0, m, J))
    assert first_difference(capsys.readouterr().out, expected) is None
