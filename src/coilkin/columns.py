"""Columns: the node cap of every grid, and as text the number format and
the row writer of every CSV and PLY table."""

import itertools

import numpy as np

from .errors import ConfigError

# The node cap of every grid a call builds (scan nodes, workspace samples,
# explore depth x waypoint tips). Under tracemalloc a whole 1 mm scan
# command (40,401 nodes) peaks at about 146 bytes per node, 259 with
# pressure synthesis, and a workspace command on the default grid at about
# 284 per sample, writers included (tests/test_cli.py bounds them at 180,
# 320 and 300), so 512 bytes a node fits 1 GiB.
MEMORY_BUDGET_BYTES = 1 << 30
MAX_NODES = MEMORY_BUDGET_BYTES // 512
# A float array of this many values or more is deduplicated column by
# column; smaller ones share one sort, whose fixed cost (about 15 us) would
# dominate a sort per column. From this size on, integers are written as
# digits by numpy rather than by one str per value.
DEDUPE_MIN_SIZE = 128
# Rows assembled per write, which bounds the text held in memory.
CHUNK_ROWS = 2048

# The text of False and True.
_FLAGS = np.array([b"0", b"1"])


def check_node_count(count, what: str):
    """ConfigError when `count` (an int, or a float that may be inf) exceeds MAX_NODES."""
    if not count <= MAX_NODES:
        raise ConfigError(f"{what} exceeds the cap of {MAX_NODES} nodes")


def _distinct(bits):
    """np.unique(bits, return_inverse=True) for a 1-D int64 array, with int32
    codes and about half the scratch memory."""
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.empty(bits.size, bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    del ordered
    codes = np.empty(bits.size, np.int32)
    codes[order] = np.cumsum(first, dtype=np.int32)
    codes -= 1
    return distinct, codes


def _digits(values) -> np.ndarray:
    """The decimal text of each integer: a minus sign or NUL, then the
    digits right-aligned behind NULs."""
    magnitude = np.abs(values).astype(np.uint64)  # abs(int64 min) wraps to 2**63
    width = len(str(int(magnitude.max())))
    table = np.zeros((magnitude.size, width + 1), np.uint8)
    table[values < 0, 0] = ord("-")
    for place in range(width, 0, -1):
        # A place before the first digit stays NUL; 0 has the one digit 0.
        np.copyto(table[:, place], magnitude % 10 + ord("0"), casting="unsafe",
                  where=(magnitude > 0) | (place == width))
        magnitude //= 10
    return table.view(f"S{width + 1}")[:, 0]


def _float_codes(values):
    """(distinct, codes) of a float array of DEDUPE_MIN_SIZE values or more:
    per column (last axis) its distinct values, and the codes that index
    the columns' distinct values laid end to end; (values, None) for a
    smaller array."""
    if values.size < DEDUPE_MIN_SIZE:
        return values, None
    columns = values.reshape(-1, values.shape[-1] if values.ndim > 1 else 1)
    distinct, codes, size = [], np.empty(columns.shape, np.int32), 0
    for j in range(columns.shape[1]):
        bits, codes[:, j] = _distinct(columns[:, j].astype(float, copy=False).view(np.int64))
        codes[:, j] += size
        distinct.append(bits)
        size += len(bits)
    return np.concatenate(distinct).view(float), codes.reshape(values.shape)


def _reprs(values) -> np.ndarray:
    """repr of each float as one NUL-padded bytes array, formatted CHUNK_ROWS
    values at a time, which bounds the Python objects held."""
    return np.concatenate([np.array(list(map(repr, values[i : i + CHUNK_ROWS].tolist())), "S")
                           for i in range(0, values.size, CHUNK_ROWS)])


def _float_texts(entries, nan) -> np.ndarray:
    """The table of a 1-D float array `entries`: repr(v) of each, or `nan`
    for NaN, NUL-padded to the longest text.

    A table of DEDUPE_MIN_SIZE entries or more formats each magnitude once:
    repr(-x) is "-" + repr(x) for every x but NaN, so a negative entry is a
    minus sign before the text of its magnitude, and one np.isnan mask
    writes `nan`. Without a negative entry the entries are formatted as they
    are. A smaller table is formatted value by value.
    """
    if entries.size < DEDUPE_MIN_SIZE:
        return np.array([nan if v != v else repr(v) for v in entries.tolist()], "S")
    bits = entries.view(np.int64)
    negative, isnan = bits < 0, np.isnan(entries)
    if negative.any():
        magnitudes, codes = _distinct(bits & np.iinfo(np.int64).max)
        texts = _reprs(magnitudes.view(float))
        del magnitudes
    else:
        texts = _reprs(entries)
        if not isnan.any():
            return texts
        codes = np.arange(entries.size)
    # The width of the table. Every text but NaN's is at least as long as
    # "nan", so unless all entries are NaN the longest entry text has `size`
    # bytes, the longest magnitude text, and one more where a negative entry
    # that is not NaN has a magnitude text of that length.
    size = texts.itemsize
    longest = negative & ~isnan & (texts.view(np.uint8)[size - 1 :: size] != 0)[codes]
    width = max(0 if isnan.all() else size + longest.any(), len(nan.encode()) if isnan.any() else 0, 1)
    # Each magnitude's text behind a minus sign, from which a block of rows
    # is gathered: a negative entry's text starts at the sign, another's a
    # byte later.
    rows = np.zeros((texts.size, width + 1), np.uint8)
    rows[:, 0] = ord("-")
    rows[:, 1 : size + 1] = texts.view(np.uint8).reshape(-1, size)[:, :width]
    del texts
    windows = np.lib.stride_tricks.sliding_window_view(rows.ravel(), width)
    table = np.empty((entries.size, width), np.uint8)
    for first in range(0, entries.size, CHUNK_ROWS):
        block = slice(first, first + CHUNK_ROWS)
        table[block] = windows[codes[block].astype(np.intp) * (width + 1) + ~negative[block]]
    table = table.view(f"S{width}")[:, 0]
    table[isnan] = nan.encode()
    return table


def _text_codes(values):
    """(table, codes) of an array of integers, booleans or text."""
    if values.dtype.kind == "b":
        return _FLAGS, values.astype(np.int32)
    flat = values.ravel()
    if values.dtype.kind in "iu":
        table = _digits(flat) if flat.size >= DEDUPE_MIN_SIZE else np.array(list(map(str, flat.tolist())), "S")
        codes = np.arange(flat.size, dtype=np.int32)
        return table, codes if values.ndim == 1 else codes.reshape(values.shape)
    index = {}
    codes = np.array([index.setdefault(cell, len(index)) for cell in flat.tolist()], np.int32)
    text = [cell.encode() for cell in index]
    if b"\0" in b"".join(text):
        raise ValueError("a text cell holds NUL")
    return np.array(text, dtype="S"), codes.reshape(values.shape)


def text_column(*arrays, nan="nan"):
    """The text of every value of one or more arrays as (table, codes, ...):
    table is a 1-D bytes array of texts, NUL-padded to its width, and
    table[codes[i]] is the text of values.flat[i]; each array gets int32
    codes of its own shape, and all share the table.

    Floats are written as repr(float(v)), with `nan` for NaN, integers as
    str(int(v)), booleans as 1 and 0 and text as UTF-8; text holding NUL
    raises ValueError. The distinct float bit patterns are found by
    sorting, so a column with few distinct values (grid coordinates,
    quantized heights) costs a sort rather than a repr per value, and bit
    patterns keep -0.0 apart from 0.0. A float array of DEDUPE_MIN_SIZE
    values or more is sorted one column (last axis) at a time, which bounds
    the scratch memory; the smaller ones are pooled into one sort. The
    distinct floats of all arrays are then formatted in one pass: with
    DEDUPE_MIN_SIZE of them or more, repr runs once per distinct magnitude
    and a negative value's text is "-" and its magnitude's; with fewer, once
    per distinct value. Large integer arrays are written as digits by
    numpy. The table is as wide as its longest text.
    """
    # Per array: whether it is float, its shape, the size of its texts (a
    # table, or the floats to format) and its codes, None for a small float
    # array.
    parts, tables, pool, floats = [], [], [], []
    for values in map(np.asarray, arrays):
        is_float = values.dtype.kind == "f"
        texts, codes = (_float_codes if is_float else _text_codes)(values)
        (tables if not is_float else pool if codes is None else floats).append(texts)
        parts.append((is_float, values.shape, texts.size, codes))
    # The texts of floats come after all others, the pooled ones first.
    next_text = 0
    next_float = other = sum(map(len, tables))
    if pool:
        distinct, pool_codes = _distinct(np.concatenate(pool, axis=None, dtype=float).view(np.int64))
        pool_codes += other
        next_float += len(distinct)
        floats.insert(0, distinct.view(float))
    if floats:
        # Only this array holds the distinct floats while they are formatted.
        floats = np.concatenate(floats)
        tables.append(_float_texts(floats, nan))
    out, pooled = [], 0
    for is_float, shape, size, codes in parts:
        if codes is None:
            codes = pool_codes[pooled : pooled + size]
            codes = codes if len(shape) == 1 else codes.reshape(shape)
            pooled += size
        elif is_float:
            codes += next_float
            next_float += size
        else:
            codes += next_text
            next_text += size
        out.append(codes)
    return (tables[0] if len(tables) == 1 else np.concatenate(tables or [np.zeros(0, "S1")]), *out)


def _stacked(table, *codes):
    """(table, codes) of one text_column call, the codes of several arrays
    stacked as the columns of one array; the unstacked codes are freed on
    return, before the next call formats its floats."""
    return table, codes[0] if len(codes) == 1 else np.column_stack(codes)


def write_rows(fh, columns, sep=",", nan="nan"):
    """Write one `sep`-delimited, newline-ended line per row of `columns` to
    the binary file fh; sep is one ASCII character.

    Every column holds N rows: a (table, codes) pair as text_column returns
    it, with codes (N,) or (N, k) for k cells a row, or an array, 1-D or
    (N, k). A run of array columns is encoded by one text_column call, with
    `nan` for NaN. Each block of CHUNK_ROWS rows is assembled as bytes in a
    (rows, width) buffer: one gather per table puts each cell's text in
    place, a separator byte follows every cell and a newline the last, and
    the NUL padding is dropped as the block is written.
    """
    groups = []
    for encoded, run in itertools.groupby(columns, lambda col: isinstance(col, tuple)):
        groups += run if encoded else [_stacked(*text_column(*run, nan=nan))]
    n = len(groups[0][1])
    counts = [codes.shape[1] if codes.ndim == 2 else 1 for _, codes in groups]  # cells per row
    widths = [(table.itemsize + 1) * k for (table, _), k in zip(groups, counts)]
    # A row of every cell's NUL padding, then its separator or the newline.
    row = b"".join((b"\0" * table.itemsize + sep.encode()) * k for (table, _), k in zip(groups, counts))
    buf = np.empty((min(n, CHUNK_ROWS), len(row)), np.uint8)
    buf[:] = np.frombuffer(row[:-1] + b"\n", np.uint8)
    for first in range(0, n, CHUNK_ROWS):
        block = buf[: n - first]
        for (table, codes), k, end, width in zip(groups, counts, itertools.accumulate(widths), widths):
            text = table.take(codes[first : first + CHUNK_ROWS]).view(np.uint8)
            cells = block[:, end - width : end].reshape(-1, k, table.itemsize + 1)
            cells[:, :, :-1] = text.reshape(len(block), k, table.itemsize)
        fh.write(block[block != 0])
