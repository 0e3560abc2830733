"""Columns: the node cap of every grid, and as text the number format and
the row writer of every CSV and PLY table."""

import numpy as np

from .errors import ConfigError

# The node cap of every grid a call builds (scan nodes, workspace samples,
# explore depth x waypoint tips). Under tracemalloc a 1 mm scan command
# (40,401 nodes) peaks at about 150 bytes per node and a workspace command
# at about 230, so 512 bytes a node fits 1 GiB; a scan with pressure
# synthesis peaks at about 710.
MEMORY_BUDGET_BYTES = 1 << 30
MAX_NODES = MEMORY_BUDGET_BYTES // 512
# Below this many values one repr per value costs less than finding the
# distinct values first (np.unique has a fixed cost of about 15 us).
DEDUPE_MIN_SIZE = 128
# Rows formatted per write, which bounds the text held in memory.
CHUNK_ROWS = 2048


def check_node_count(count, what: str):
    """ConfigError when `count` (an int, or a float that may be inf) exceeds MAX_NODES."""
    if not count <= MAX_NODES:
        raise ConfigError(f"{what} exceeds the cap of {MAX_NODES} nodes")


def repr_column(values, nan="nan") -> list:
    """repr(float(v)) of each value of an array, flattened, with `nan` for NaN.

    From DEDUPE_MIN_SIZE values on, each distinct bit pattern is formatted
    once and the text looked up per value, so a column with few distinct
    values (grid coordinates, quantized heights) costs one sort rather than
    a repr per value. Bit patterns keep -0.0 apart from 0.0, so the text is
    exactly what repr gives.
    """
    values = np.ascontiguousarray(values, dtype=float).ravel()
    if values.size < DEDUPE_MIN_SIZE:
        return [nan if v != v else repr(v) for v in values.tolist()]
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [nan if v != v else repr(v) for v in distinct.view(float).tolist()]
    return list(map(text.__getitem__, inverse.tolist()))


def write_rows(fh, columns, sep=",", nan="nan"):
    """Write one `sep`-delimited, newline-ended line per row of `columns`.

    Every column is an array of the same length N; a 2-D (N, k) one gives k
    cells per row. Float columns are formatted by repr_column, with `nan`
    for NaN, and integer columns by str; text columns (str or object
    arrays, such as flags from np.where(mask, "1", "0")) are written as
    they are. CHUNK_ROWS rows are formatted and written at a time.
    """
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        cells = []
        for col in columns:
            chunk = col[start : start + CHUNK_ROWS]
            for part in chunk.T if chunk.ndim == 2 else [chunk]:
                if part.dtype.kind == "f":
                    cells.append(repr_column(part, nan))
                elif part.dtype.kind in "iu":
                    cells.append(list(map(str, part.tolist())))
                else:
                    cells.append(part.tolist())
        fh.write("\n".join([*map(sep.join, zip(*cells)), ""]))
