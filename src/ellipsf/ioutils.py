"""Deterministic JSON/CSV emission and atomic file writes.

Floats are rendered with 17 significant digits ('.' decimal point), so the
text round-trips exactly; it is bit-stable for a fixed numpy/BLAS build and
BLAS thread count, which can move last bits of the values.
"""

from __future__ import annotations

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


# Rows formatted per `%` operation.  A block's arguments are _CSV_BLOCK * (d + 1)
# Python objects (about 4 MB with their tuple at d = 2), so beside the text
# itself memory stays flat however many rows there are.
_CSV_BLOCK = 1 << 14


def _formatted_column(column: np.ndarray):
    """(table, index): the distinct values of `column` as "%.17g" text in an
    S24 array (the format never exceeds 24 bytes), and each row's int32
    position in it.  Distinct means distinct bits, so 0.0 and -0.0 keep their
    own text.  One argsort, not np.unique(return_inverse=True), whose int64
    temporaries raised the lattice benchmark's peak RSS by about 20 MB."""
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    order = np.argsort(bits)
    bits = bits[order]
    first = np.empty(len(bits), dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    index = np.empty(len(bits), dtype=np.int32)
    index[order] = np.cumsum(first, dtype=np.int32) - 1
    distinct = bits[first].view(np.float64)
    table = np.empty(len(distinct), "S24")
    for start in range(0, len(distinct), _CSV_BLOCK):
        chunk = distinct[start:start + _CSV_BLOCK].tolist()
        table[start:start + len(chunk)] = (b"%.17g\n" * len(chunk) % tuple(chunk)).split(b"\n")[:-1]
    return table, index


def _csv_parts(header: str, columns: list, values: np.ndarray) -> list:
    """The CSV as a list of texts: header, then one "p_1,...,p_d,value" row
    per value, each block of rows rendered by one C-level `%`.  Coordinates
    come from their `_formatted_column` tables; values are formatted inline
    with "%.17g", the same CPython formatter as format_float, so the bytes
    are those of formatting number by number."""
    row = b",".join([b"%s"] * len(columns) + [b"%.17g\n"])
    parts = [header, "\n"]
    for start in range(0, len(values), _CSV_BLOCK):
        end = start + _CSV_BLOCK
        block = values[start:end]
        args = np.empty((len(block), len(columns) + 1), dtype=object)
        for j, (table, index) in enumerate(columns):
            args[:, j] = table[index[start:end]]
        args[:, -1] = block
        parts.append(((row * len(block)) % tuple(args.ravel().tolist())).decode("ascii"))
    return parts


def grid_csv(grid) -> str:
    """Lattice grid dump: comment header, then x_1,...,x_d,value rows in
    lexicographic index order.  The points are dropped once tabulated and
    the tables before the join, so the peak is the parts and the text."""
    header = f"# A={[list(map(int, r)) for r in grid.A.entries]}, J={grid.J}, d={grid.A.d}"
    points = grid.cartesian_points()
    columns = [_formatted_column(c) for c in points.T]
    del points
    parts = _csv_parts(header, columns, grid.values)
    del columns
    return "".join(parts)


def field_csv(points: np.ndarray, values: np.ndarray, header: str) -> str:
    """Rectangular field dump (columns xi_1..xi_d,value)."""
    return "".join(_csv_parts(header, [_formatted_column(c) for c in points.T], values))
