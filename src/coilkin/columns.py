"""Columns: the node cap of every grid, and as text the number format and
the row writer of every CSV and PLY table."""

import itertools

import numpy as np

from .errors import ConfigError

# The node cap of every grid a call builds (scan nodes, workspace samples,
# explore depth x waypoint tips). Under tracemalloc a whole 1 mm scan
# command (40,401 nodes) peaks at about 146 bytes per node, 235 with
# pressure synthesis, and a workspace command on the default grid at about
# 260 per sample, writers included (tests/test_cli.py bounds them at 180,
# 260 and 275), so 512 bytes a node fits 1 GiB.
MEMORY_BUDGET_BYTES = 1 << 30
MAX_NODES = MEMORY_BUDGET_BYTES // 512
# A text_column call of this many values or more formats each distinct
# magnitude once, after a sort per float column, and writes integers as
# digits by numpy; a smaller call sorts all its floats at once and formats
# value by value. Explore logs (at most 230 values a call) are faster the
# small way at every size measured up to 2,076 values, integer blocks the
# large way from about 150; a 1 mm scan's smallest call holds 930 values.
DEDUPE_MIN_SIZE = 512
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
    """The decimal text of each integer, as wide as the longest: a negative
    value's minus sign in the first column, the digits right-aligned behind
    NULs."""
    negative = values < 0
    magnitude = np.abs(values).astype(np.uint64)  # abs(int64 min) wraps to 2**63
    # The longest text is that of the largest magnitude of either sign.
    width = max(len(str(int(magnitude.max(initial=0, where=~negative)))),
                len(str(-int(magnitude.max(initial=0, where=negative)))))
    table = np.zeros((magnitude.size, width), np.uint8)
    table[negative, 0] = ord("-")
    for place in range(width - 1, -1, -1):
        # A place before the first digit stays NUL; 0 has the one digit 0.
        np.copyto(table[:, place], magnitude % 10 + ord("0"), casting="unsafe",
                  where=(magnitude > 0) | (place == width - 1))
        magnitude //= 10
    return table.view(f"S{width}")[:, 0]


def _float_texts(entries, nan) -> np.ndarray:
    """The table of a 1-D float array `entries`: repr(v) of each, or `nan`
    for NaN, NUL-padded to the longest text.

    Each magnitude is formatted once: repr(-x) is "-" + repr(x) for every x
    but NaN, so a negative entry is a minus sign before the text of its
    magnitude, and one np.isnan mask writes `nan`.
    """
    bits = entries.view(np.int64)
    negative, isnan = bits < 0, np.isnan(entries)
    magnitudes, codes = _distinct(bits & np.iinfo(np.int64).max)
    magnitudes = magnitudes.view(float)
    # CHUNK_ROWS values at a time, which bounds the Python objects held.
    texts = np.concatenate([np.array(list(map(repr, magnitudes[i : i + CHUNK_ROWS].tolist())), "S")
                            for i in range(0, magnitudes.size, CHUNK_ROWS)])
    del magnitudes
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


def _text_codes(values, large):
    """(table, codes) of an array of integers or booleans; integers are
    written as digits by numpy in a large call, by str in a small one."""
    if values.dtype.kind == "b":
        return _FLAGS, values.astype(np.int32)
    flat = values.ravel()
    table = _digits(flat) if large else np.array(list(map(str, flat.tolist())), "S")
    return table, np.arange(flat.size, dtype=np.int32).reshape(values.shape)


def text_column(*arrays, nan="nan"):
    """The text of every value of one or more arrays as (table, codes, ...):
    table is a 1-D bytes array of texts, NUL-padded to its width, and
    table[codes[i]] is the text of values.flat[i]; each array gets int32
    codes of its own shape, and all share the table.

    The arrays hold floats, integers or booleans: floats are written as
    repr(float(v)), with `nan` for NaN, integers as str(int(v)) and
    booleans as 1 and 0. A caller with a fixed set of texts passes its own
    (table, codes) pair to write_rows instead. The distinct float bit
    patterns are found by sorting, so a column with few distinct values
    (grid coordinates, quantized heights) costs a sort rather than a repr
    per value, and bit patterns keep -0.0 apart from 0.0. The call's size,
    all its values counted, decides the rest once. A call of fewer than
    DEDUPE_MIN_SIZE values sorts all its floats at once, passes each
    distinct value to repr and each integer to str. A larger call sorts its
    floats one column (last axis) at a time, which bounds the scratch
    memory, passes each distinct magnitude to repr, a negative value's text
    being "-" and its magnitude's, and writes integers as digits by numpy.
    The table is as wide as its longest text.
    """
    arrays = list(map(np.asarray, arrays))
    large = sum(values.size for values in arrays) >= DEDUPE_MIN_SIZE
    tables, codes, floats = [], [None] * len(arrays), []
    size = 0  # texts in the tables so far; the texts of floats come after all others
    for i, values in enumerate(arrays):
        if values.dtype.kind == "f":
            floats.append(i)
        else:
            table, codes[i] = _text_codes(values, large)
            codes[i] += size
            size += len(table)
            tables.append(table)
    if large:
        distinct = [np.zeros(0, np.int64)]
        for i in floats:
            values = arrays[i]
            columns = values.reshape(-1, values.shape[-1] if values.ndim > 1 and values.size else 1)
            codes[i] = np.empty(columns.shape, np.int32)
            for j in range(columns.shape[1]):
                bits, codes[i][:, j] = _distinct(columns[:, j].astype(float, copy=False).view(np.int64))
                codes[i][:, j] += size
                size += bits.size
                distinct.append(bits)
            codes[i] = codes[i].reshape(values.shape)
        # Only this array holds the distinct floats while they are formatted.
        distinct = np.concatenate(distinct).view(float)
        if distinct.size:
            tables.append(_float_texts(distinct, nan))
    elif floats:
        bits = np.concatenate([arrays[i] for i in floats], axis=None, dtype=float).view(np.int64)
        distinct, pooled = _distinct(bits)
        pooled += size
        for i in floats:
            codes[i], pooled = pooled[: arrays[i].size].reshape(arrays[i].shape), pooled[arrays[i].size :]
        tables.append(np.array([nan if v != v else repr(v) for v in distinct.view(float).tolist()], "S"))
    return (tables[0] if len(tables) == 1 else np.concatenate(tables or [np.zeros(0, "S1")]), *codes)


def write_rows(fh, columns, sep=","):
    """Write one `sep`-delimited, newline-ended line per row of `columns` to
    the binary file fh; sep is one ASCII character.

    Every column holds N rows: a (table, codes) pair as text_column returns
    it, with codes (N,) or (N, k) for k cells a row, or an array, 1-D or
    (N, k). A run of array columns is encoded by one text_column call, which
    writes NaN as nan; a caller that wants other NaN text encodes that
    column itself. Each block of CHUNK_ROWS rows is assembled as bytes in
    one buffer of fixed-width lines: a separator byte follows every cell
    and a newline the last, one gather per column copies each cell's
    NUL-padded text into place through a strided view of the table's own
    dtype, and the NUL padding is dropped as the block is written.
    """
    groups = []
    for encoded, run in itertools.groupby(columns, lambda col: isinstance(col, tuple)):
        if encoded:
            groups += run
        else:
            table, *codes = text_column(*run)
            groups += [(table, array_codes) for array_codes in codes]
    n = len(groups[0][1])
    counts = [codes.shape[1] if codes.ndim == 2 else 1 for _, codes in groups]  # cells per row
    widths = [(table.itemsize + 1) * k for (table, _), k in zip(groups, counts)]
    # A line of every cell's NUL padding, then its separator or the newline.
    line = b"".join((b"\0" * table.itemsize + sep.encode()) * k for (table, _), k in zip(groups, counts))
    line = line[:-1] + b"\n"
    buf = bytearray(line * min(n, CHUNK_ROWS))
    for first in range(0, n, CHUNK_ROWS):
        rows = min(n - first, CHUNK_ROWS)
        for (table, codes), k, end, width in zip(groups, counts, itertools.accumulate(widths), widths):
            cells = np.ndarray((rows, k), table.dtype, buf, end - width, (len(line), table.itemsize + 1))
            cells[...] = table.take(codes[first : first + rows]).reshape(rows, k)
        # translate allocates its result at its input's size, so only a last
        # block shorter than the buffer is sliced (copied) first.
        size = rows * len(line)
        fh.write((buf if size == len(buf) else buf[:size]).translate(None, b"\0"))
