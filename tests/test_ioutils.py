"""Byte identity of the float kernel and the blocked CSV writers against
number-by-number formatting."""

import dataclasses
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsf import cascade, cli, ioutils, spectral

EDGE = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]
# Values that compare equal, or unequal to themselves, but differ in their
# bits: the distinct-coordinate tables must keep 0.0 and -0.0 apart, and both
# NaN signs print as "nan".
SIGNED = [0.0, -0.0, np.nan, -np.nan, 1.0 / 3.0, -1.0 / 3.0, 5e-324, -5e-324]
C3 = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]


# Where "%g" switches between fixed point and exponent (X = -5 | -4 and
# 16 | 17), and the largest double below 10^17.
SWITCHES = [1e-5, np.nextafter(1e-4, 0.0), 1e-4, 1e16, np.nextafter(1e16, 0.0),
            1e17, 99999999999999984.0]
# Exact rounding ties at the 17th digit (1234567890123456.75 -> ...456.8,
# .25 -> ...456.2), which the kernel leaves to CPython.
TIES = [1234567890123456.75, -1234567890123456.75, 1234567890123456.25,
        -1234567890123456.25]
SUBNORMAL = [5e-324, -5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0),
             2.2250738585072014e-308, 1.5e-323]


def kernel_text(values):
    """format_float_array as a list of str, and its fallback rows."""
    text, fallback = ioutils.format_float_array(np.asarray(values, dtype=np.float64))
    return [t.decode("ascii") for t in text], fallback.tolist()


def assert_kernel_matches(values):
    values = np.asarray(values, dtype=np.float64)
    text, _ = kernel_text(values)
    assert text == [ioutils.format_float(v) for v in values]


def powers_of_ten():
    """Every double nearest a power of ten, its two neighbours, both signs."""
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    p = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    return np.concatenate([p, -p])


def test_kernel_matches_format_float_on_powers_of_ten():
    values = powers_of_ten()
    assert_kernel_matches(values)
    # log10 misplaces the decimal exponent on many of these rows (the double
    # below 1e-280 reads -280.0), and the move by one keeps them on the fast
    # path.  Only an exact tie (1e15 - 1/8 -> 99999999999999987.5) and 10^20,
    # whose scaled digits sit within rounding of 10^16, reach CPython.
    _, fallback = kernel_text(values)
    assert set(np.abs(values[fallback]).tolist()) <= {1e20, 1e15 - 0.125}


def test_kernel_matches_format_float_at_the_format_switches_and_edges():
    # 2^-60 is exact in binary; its decimal expansion runs to 43 digits.
    values = SWITCHES + TIES + [2.0 ** -60] + SUBNORMAL + SIGNED + EDGE + [-np.inf]
    assert_kernel_matches(values + [-v for v in values])


def test_kernel_leaves_ties_and_non_finite_rows_to_cpython():
    values = TIES + [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 0.1, 2.0 ** -60]
    _, fallback = kernel_text(values)
    assert fallback == list(range(8))
    # Zeros skip the arithmetic; between them the indices still point into
    # the input, and every row keeps the bytes of format_float.
    mixed = [0.0, TIES[0], -0.0, np.nan, 0.1, -0.0, np.inf, TIES[1], 0.0, -np.inf,
             2.0 ** -60, TIES[3], -0.0]
    text, fallback = kernel_text(mixed)
    assert fallback == [1, 3, 6, 7, 9, 11]
    assert text == [ioutils.format_float(v) for v in mixed]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_kernel_matches_format_float_on_any_bit_pattern(bits):
    assert_kernel_matches(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1,
                max_size=64))
def test_kernel_certifies_almost_every_finite_value(values):
    # Hypothesis favours short decimals, so this also exercises trailing zeros.
    assert_kernel_matches(values)


def test_power_of_ten_table_is_within_its_bound():
    # 10^p = (hi + lo) 2^k to 2^-106 relative, hi in [1, 2].
    (hi, hi_hi, hi_lo, lo, k), *_ = ioutils._tables()
    for i, p in enumerate(range(ioutils._P_MIN, ioutils._P_MAX + 1)):
        assert 1.0 <= hi[i] <= 2.0 and hi_hi[i] + hi_lo[i] == hi[i]
        exact = Fraction(10) ** p / Fraction(2) ** int(k[i])
        assert abs(Fraction(hi[i]) + Fraction(lo[i]) - exact) <= exact * Fraction(1, 2 ** 106)


@pytest.mark.parametrize("matrix, J", [([[1, -2], [1, 0]], 9), ([[2, 0], [0, 2]], 5)],
                         ids=["A3", "A4"])
def test_kernel_formats_lattice_values_without_cpython(matrix, J):
    # The lattice writer's own columns must stay on the fast path: a kernel
    # that left every row to CPython would still print the right bytes.
    p = spectral.make_profile(matrix, m=2)
    grid = cascade.sample_phi(p.A, *p.refinement, J)
    for column in [grid.values, *grid.cartesian_points().T]:
        text, fallback = kernel_text(column)
        assert fallback == []
        assert text == [ioutils.format_float(v) for v in column]


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


# One block's edge, and the edge of the fourth block, where the distinct-value
# tables also run to several kernel blocks.
SIZES = [0, 1, len(EDGE)] + [k * ioutils._CSV_BLOCK + i for k in (1, 4) for i in (-1, 0, 1)]


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


# The grid's own values, then replacements of its data: all +0.0, the edge
# values cycled through it (with -0.0, subnormals and the largest double),
# and no zero at all.
FILLS = [
    lambda data: data,
    np.zeros_like,
    lambda data: np.resize([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0 / 3.0,
                            1.7976931348623157e308, -0.0, *SUBNORMAL, 0.0, 0.0], data.shape),
    lambda data: 1.0 + np.abs(data),
]


@pytest.mark.parametrize("matrix, m, J", [([[2]], 2, 4), ([[1, -1], [1, 1]], 1, 4), (C3, 1, 1)])
def test_grid_csv_across_block_boundaries(monkeypatch, matrix, m, J):
    p = spectral.make_profile(matrix, m=m)
    phi = cascade.sample_phi(p.A, *p.refinement, J)
    for fill in FILLS:
        grid = dataclasses.replace(phi, data=fill(phi.data))
        expected = reference_grid_csv(grid)
        n = len(grid.values)
        for block in (1, n - 1, n, n + 1):
            monkeypatch.setattr(ioutils, "_CSV_BLOCK", block)
            assert first_difference(ioutils.grid_csv(grid), expected) is None


def test_grid_csv_peak_stays_near_its_text():
    # The points are dropped once their distinct values are formatted, and
    # the text is joined once the tables are gone: the peak is the block
    # texts and the joined text, about 2.0 times the text (16,384-row blocks
    # peaked at 3.4).
    p = spectral.make_profile([[1, -2], [1, 0]], m=2)
    grid = cascade.sample_phi(p.A, *p.refinement, 9)
    tracemalloc.start()
    try:
        text = ioutils.grid_csv(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 3_000_000
    assert peak <= 2.25 * len(text)


# A3 at J=9 prints 100k rows of dyadic coordinates; the 2+i dilation's
# coordinates (0.0080000000000000002) give tables nearly 24 bytes wide.
@pytest.mark.parametrize("matrix, m, J", [(C3, 1, 3), ([[2, 0], [0, 2]], 2, 3),
                                          ([[1, -2], [1, 0]], 2, 9), ([[2, -1], [1, 2]], 1, 3)])
def test_eval_stdout_matches_reference(capsys, matrix, m, J):
    text = ";".join(",".join(map(str, row)) for row in matrix)
    assert cli.main(["eval", "--matrix", text, "--m", str(m), "--J", str(J)]) == 0
    p = spectral.make_profile(matrix, m=m)
    expected = reference_grid_csv(cascade.sample_phi(p.A, *p.refinement, J))
    assert first_difference(capsys.readouterr().out, expected) is None


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_of_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        ioutils.atomic_write(str(tmp_path / "atomic.csv"), "x\n")
        with open(tmp_path / "plain.csv", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "atomic.csv").st_mode == os.stat(tmp_path / "plain.csv").st_mode
    assert sorted(os.listdir(tmp_path)) == ["atomic.csv", "plain.csv"]
