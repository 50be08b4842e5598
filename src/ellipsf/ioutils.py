"""Deterministic JSON/CSV emission and atomic file writes.

Floats are rendered with 17 significant digits ('.' decimal point), so the
text round-trips exactly; it is bit-stable for a fixed numpy/BLAS build and
BLAS thread count, which can move last bits of the values.  format_float is
CPython's "%.17g".  The CSV writers render whole columns with
format_float_array, a numpy kernel with the same bytes: correctly rounded
digits from a double-double product with an exact power-of-ten table (Dekker,
Numer. Math. 18, 1971), spelled through fixed byte patterns, and CPython for
the few values it cannot certify.  A lattice coordinate is formatted once per
integer numerator of the level (x = n / D exactly), a field coordinate once
per distinct value.
"""

from __future__ import annotations

import functools
import itertools
import os
import tempfile

import numpy as np


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {_emit(v, indent, level + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return "[" + ", ".join(_emit(v, indent, level + 1) for v in seq) + "]"
        items = [f"{pad_in}{_emit(v, indent, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def emit_json(obj) -> str:
    return _emit(obj, 2, 0) + "\n"


def atomic_write(path: str, text: str):
    """Write via a temporary file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Rows per CSV block: the block's byte template is (d + 1) * 25 bytes a row,
# so beside the text itself memory stays flat however many rows there are.
# With the kernel's temporaries, grid_csv's tracemalloc peak is 2.0 times its
# text at 4,096 rows (A3, m=2, J=9), 2.5 at 8,192 and 3.4 at 16,384.
_CSV_BLOCK = 1 << 12

# "%.17g" never takes more than 24 bytes: -d.dddddddddddddddde-ddd.
_WIDTH = 24
# Powers 10^p in the table: p = 16 - X for every decimal exponent X of a
# finite nonzero double (-324 .. 308), with two to spare on each side: one
# for the move of the log10 estimate of X, one of margin.
_P_MIN, _P_MAX = 16 - 310, 16 + 326
# The digits y = |x| 10^p come out with an absolute error below 2^-46 (see
# _scaled); a row whose fraction is within this band of 1/2 may round either
# way and is left to CPython.
_TIE_BAND = 2.0 ** -44
# A row's characters (format_float_array's `chars`, 28 bytes so that its
# 4-digit groups are aligned uint32 words): '-', '.', 'e', digit 0, digits
# 1 .. 16, the exponent's sign, '0', NUL, NUL, then |X| as four digits.
_MINUS, _POINT, _E, _DIGIT0, _EXP_SIGN, _ZERO, _NUL, _EXP = 0, 1, 2, 3, 20, 21, 22, 25
_CHARS = 28
# Pattern keys: 21 fixed-point layouts (X = -4 .. 16), then the exponent
# layouts with two and with three exponent digits; times 17 digit counts,
# times the sign.
_FIXED_KINDS, _KINDS = 21, 23


def _veltkamp(v):
    """v = hi + lo with hi and lo of at most 26 significant bits each, so
    their pairwise products are exact (Dekker, Numer. Math. 18, 1971)."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


@functools.cache
def _tables():
    """Lazily built, read-only tables of the float kernel.

    pow10: for p = _P_MIN .. _P_MAX, 10^p = (hi + lo) 2^k with hi in [1, 2]
    the correctly rounded quotient and lo the correctly rounded rest, from
    exact integers; hi is also stored split (_veltkamp).  digits4 and sig:
    see below.  patterns: for each (sign, layout, digit count) key, the 24
    columns of a row's characters that spell the number, padded with _NUL.
    """
    hi, lo, k = [], [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        e = num.bit_length() - den.bit_length()
        num, den = num << max(-e, 0), den << max(e, 0)
        if num < den:
            num, e = 2 * num, e - 1
        # int / int is correctly rounded; hi = H / 2^52 exactly.
        hi.append(num / den)
        H = int(hi[-1] * 2 ** 52)
        lo.append(((num << 52) - H * den) / (den << 52))
        k.append(e)
    hi = np.array(hi)
    pow10 = (hi, *_veltkamp(hi), np.array(lo), np.array(k, dtype=np.int32))

    # digits4[c]: the four ASCII digits of c = 0 .. 9999 as one uint32 word.
    # sig[i, c]: the significant digits of D up to the last nonzero one in
    # its 4-digit group i (digits 4i + 1 .. 4i + 4), at least 1.
    c = np.arange(10000)
    digits = c[:, None] // np.array([1000, 100, 10, 1]) % 10
    digits4 = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    last = np.where(digits != 0, np.arange(1, 5), 0).max(axis=1)
    sig = np.where(last > 0, 4 * np.arange(4)[:, None] + 1 + last, 1).astype(np.int8)

    patterns = np.full((2, _KINDS, 17, _WIDTH), _NUL, dtype=np.uint8)
    digit = list(range(_DIGIT0, _DIGIT0 + 17))
    for neg, kind, ns in itertools.product((0, 1), range(_KINDS), range(1, 18)):
        X = kind - 4
        if X < 0:
            cols = [_ZERO, _POINT] + [_ZERO] * (-X - 1) + digit[:ns]
        elif kind < _FIXED_KINDS:
            # Every integer digit, zero or not, then the point and the
            # fraction digits up to the last significant one.
            cols = digit[:X + 1] + ([_POINT] + digit[X + 1:ns] if ns > X + 1 else [])
        else:
            exp = [_EXP, _EXP + 1, _EXP + 2][kind == _FIXED_KINDS:]
            cols = digit[:1] + ([_POINT] + digit[1:ns] if ns > 1 else []) + [_E, _EXP_SIGN] + exp
        cols = [_MINUS] * neg + cols
        patterns[neg, kind, ns - 1, :len(cols)] = cols
    return pow10, digits4, sig, patterns.reshape(-1, _WIDTH)


def _scaled(m, e, X, pow10):
    """|x| 10^(16 - X) as y_hi + y_lo, for |x| = m 2^e with m in [1, 2).

    With 10^(16 - X) = (hi + lo) 2^k from the table, m hi is formed exactly
    (Dekker's product); the table's rest, m lo and the sum add at most
    2^-103 to m (hi + lo) in [1, 4).  Scaled by 2^(e + k) to y < 2^57 that
    is below 2^-46 absolute.  y_hi is an integer once y >= 2^53, and y_lo
    carries the fraction.
    """
    hi, hi_hi, hi_lo, lo, k = pow10
    i = 16 - X - _P_MIN
    th, tl = hi_hi[i], hi_lo[i]
    mh, ml = _veltkamp(m)
    P = m * hi[i]
    err = ((mh * th - P) + mh * tl + ml * th) + ml * tl
    s = e + k[i]
    return np.ldexp(P, s), np.ldexp(err + m * lo[i], s)


def _floor_and_fraction(y_hi, y_lo):
    f = np.floor(y_lo)
    return y_hi.astype(np.int64) + f.astype(np.int64), y_lo - f


def format_float_array(values: np.ndarray):
    """(text, fallback): format_float of every float64 in `values` as an S24
    array, and the int64 indices of the rows formatted by CPython.

    The 17 significant digits D and decimal exponent X come from the exact
    scaling y = |x| 10^(16 - X) in double-double arithmetic (_scaled); X is
    floor(log10 |x|), moved by one where the test 10^16 <= floor(y) < 10^17
    fails.  A row is left to CPython's "%.17g" when it is not finite, when
    floor(y) is still out of range after the move (|x| within the error of a
    power of ten), or when the fraction of y is within _TIE_BAND of a
    rounding tie; so every row has the bytes of format_float.  The others
    are spelled from fixed byte patterns: "%g" takes fixed point for -4 <= X
    < 17, drops trailing zeros and writes at least two exponent digits.
    """
    pow10, digits4, sig, patterns = _tables()
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = len(x)
    a = np.abs(x)
    finite = np.isfinite(a)
    work = finite & (a != 0)
    # Rows the arithmetic does not certify compute on 1.0, which warns nowhere.
    a = np.where(work, a, 1.0)
    m, e = np.frexp(a)
    m, e = 2.0 * m, e - 1
    X = np.floor(np.log10(a)).astype(np.int64)
    D, frac = _floor_and_fraction(*_scaled(m, e, X, pow10))
    move = (D >= 10 ** 17).astype(np.int64) - (D < 10 ** 16)
    moved = np.flatnonzero(move)
    if len(moved):
        X[moved] += move[moved]
        D[moved], frac[moved] = _floor_and_fraction(*_scaled(m[moved], e[moved], X[moved], pow10))
    ok = work & (D >= 10 ** 16) & (D < 10 ** 17) & (np.abs(frac - 0.5) > _TIE_BAND)
    D += frac > 0.5
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X += carry
    zero = finite & ~work
    D[zero], X[zero] = 0, 0

    # D = g0 10^16 + g1 10^12 + g2 10^8 + g3 10^4 + g4.
    groups = np.empty((n, 4), dtype=np.int64)
    hi, lo = np.divmod(D, 10 ** 8)
    g0, hi = np.divmod(hi, 10 ** 8)
    np.divmod(hi, 10 ** 4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(lo, 10 ** 4, out=(groups[:, 2], groups[:, 3]))
    chars = np.empty((n, _CHARS), dtype=np.uint8)
    words = chars.view(np.uint32)
    words[:, 1:5] = digits4[groups]
    words[:, 6] = digits4[np.abs(X)]
    chars[:, _MINUS] = ord("-")
    chars[:, _POINT] = ord(".")
    chars[:, _E] = ord("e")
    chars[:, _DIGIT0] = g0 + ord("0")
    chars[:, _EXP_SIGN] = np.where(X < 0, ord("-"), ord("+"))
    chars[:, _ZERO] = ord("0")
    chars[:, _NUL] = 0
    ns = sig[0][groups[:, 0]]
    for i in (1, 2, 3):
        np.maximum(ns, sig[i][groups[:, i]], out=ns)
    fixed = (X >= -4) & (X < 17)
    kind = np.where(fixed, X + 4, _FIXED_KINDS + (np.abs(X) >= 100))
    key = (np.signbit(x) * _KINDS + kind) * 17 + ns - 1
    cols = np.add(patterns.take(key, axis=0), np.arange(0, _CHARS * n, _CHARS)[:, None])
    text = chars.ravel()[cols]

    fallback = np.flatnonzero(~ok & ~zero)
    if len(fallback):
        text[fallback] = np.array([format_float(v) for v in x[fallback].tolist()],
                                  dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return text.view(f"S{_WIDTH}").ravel(), fallback


def _formatted_table(values: np.ndarray) -> np.ndarray:
    """format_float of every value as an S24 array, a kernel block at a time."""
    table = np.empty(len(values), f"S{_WIDTH}")
    for start in range(0, len(values), _CSV_BLOCK):
        table[start:start + _CSV_BLOCK] = format_float_array(values[start:start + _CSV_BLOCK])[0]
    return table


def _formatted_column(column: np.ndarray):
    """(table, index): the distinct values of `column` as format_float text in
    an S24 array (format_float_array), and each row's int32 position in it.
    Distinct means distinct bits, so 0.0 and -0.0 keep their own text.  One
    argsort, not np.unique(return_inverse=True), whose int64 temporaries
    raised the lattice benchmark's peak RSS by about 20 MB."""
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    order = np.argsort(bits)
    bits = bits[order]
    first = np.empty(len(bits), dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    index = np.empty(len(bits), dtype=np.int32)
    index[order] = np.cumsum(first, dtype=np.int32) - 1
    return _formatted_table(bits[first].view(np.float64)), index


def _csv_text(header: str, d: int, blocks) -> str:
    """The CSV: header, then one "p_1,...,p_d,value" row per value.  Each of
    `blocks` is (coordinate texts, values): d S24 arrays and the float64
    values of its rows.  A block is laid out as fixed 25-byte fields (the
    NUL-padded text and its ',' or newline), values from format_float_array,
    and compacted once by dropping the NULs."""
    parts = [header, "\n"]
    for coords, values in blocks:
        buf = np.empty((len(values), d + 1, _WIDTH + 1), dtype=np.uint8)
        for j, text in enumerate(coords):
            buf[:, j, :_WIDTH] = text.view(np.uint8).reshape(-1, _WIDTH)
        buf[:, d, :_WIDTH] = format_float_array(values)[0].view(np.uint8).reshape(-1, _WIDTH)
        buf[:, :, _WIDTH] = ord(",")
        buf[:, d, _WIDTH] = ord("\n")
        parts.append(str(buf[buf != 0], "ascii"))
    return "".join(parts)


def grid_csv(grid) -> str:
    """Lattice grid dump: comment header, then x_1,...,x_d,value rows in
    lexicographic index order.

    A coordinate x_c = n_c / D has an integer numerator n_c = (M j)_c in
    [D lo_c, D hi_c] (grid.numerators), so each column's texts come from one
    table over that range, indexed by n_c - D lo_c.  Rows are built from the
    grid's line intervals a block at a time, and the tables are dropped
    before the join, so the peak is the block texts and the joined text."""
    header = f"# A={[list(map(int, r)) for r in grid.A.entries]}, J={grid.J}, d={grid.A.d}"

    def blocks():
        M, D = grid.numerators
        low = D * grid.box.lo
        tables = [_formatted_table(np.arange(lo, D * hi + 1) / D) for lo, hi in zip(low, grid.box.hi)]
        flat, n = grid.data.ravel(), grid.npoints
        for start in range(0, n, _CSV_BLOCK):
            j, at = grid.rows(start, min(start + _CSV_BLOCK, n))
            numerators = j @ M.T - low
            yield [t.take(c) for t, c in zip(tables, numerators.T)], flat[at]
    return _csv_text(header, grid.A.d, blocks())


def field_csv(points: np.ndarray, values: np.ndarray, header: str) -> str:
    """Rectangular field dump (columns xi_1..xi_d,value)."""
    def blocks():
        columns = [_formatted_column(c) for c in points.T]
        for s in range(0, len(values), _CSV_BLOCK):
            yield ([table.take(index[s:s + _CSV_BLOCK]) for table, index in columns],
                   values[s:s + _CSV_BLOCK])
    return _csv_text(header, points.shape[1], blocks())
