"""Deterministic JSON/CSV emission and atomic file writes.

Floats are rendered with 17 significant digits ('.' decimal point) so output
is bit-stable across platforms and round-trips exactly.
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


# Rows formatted per `%` operation.  A block's table and argument tuple hold
# _CSV_BLOCK * width numbers (about 1.5 MB of Python floats at width 3), so
# beside the text itself memory stays flat however many rows there are.
_CSV_BLOCK = 1 << 14


def _table_csv(header: str, points: np.ndarray, values: np.ndarray) -> str:
    """header, then one "p_1,...,p_d,value" row per point.

    Each block of rows is rendered by a single C-level `%` with one "%.17g"
    per number; "%.17g" % x and format_float(x) are the same CPython float
    formatter, so the text is byte-identical to formatting number by number.
    """
    row = ",".join(["%.17g"] * (points.shape[1] + 1)) + "\n"
    parts = [header, "\n"]
    for start in range(0, len(values), _CSV_BLOCK):
        end = start + _CSV_BLOCK
        block = np.column_stack((points[start:end], values[start:end]))
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def grid_csv(grid) -> str:
    """Lattice grid dump: comment header, then x_1,...,x_d,value rows in
    lexicographic index order."""
    header = f"# A={[list(map(int, r)) for r in grid.A.entries]}, J={grid.J}, d={grid.A.d}"
    return _table_csv(header, grid.cartesian_points(), grid.values)


def field_csv(points: np.ndarray, values: np.ndarray, header: str) -> str:
    """Rectangular field dump (columns xi_1..xi_d,value)."""
    return _table_csv(header, points, values)
