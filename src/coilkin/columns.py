"""Columns: the node cap of every grid, and as text the number format and
the row writer of every CSV and PLY table. Floats are written as repr
writes them; a large table gets repr's bytes from a vectorized
shortest-decimal kernel instead of a repr call per value."""

import functools
import itertools

import numpy as np

from .errors import ConfigError

# The node cap of every grid a call builds (scan nodes, workspace samples,
# explore depth x waypoint tips). Under tracemalloc a whole 1 mm scan
# command (40,401 nodes) peaks at about 138 bytes per node, 227 with
# pressure synthesis, and a workspace command on the default grid at about
# 260 per sample, writers included (tests/test_cli.py bounds them at 180,
# 260 and 275), so 512 bytes a node fits 1 GiB.
MEMORY_BUDGET_BYTES = 1 << 30
MAX_NODES = MEMORY_BUDGET_BYTES // 512
# A text_column call of this many values or more formats each distinct
# magnitude once, after a sort per float column (of its runs of equal
# neighbours where most values repeat), by the kernel of _repr_bytes, and
# writes integers four digits at a time by _digits; a smaller call sorts
# all its floats at once and formats value by value with repr and str.
# Explore logs (at most 230 values a call) are faster the small way at every
# size measured up to 2,076 values, integer blocks the large way from about
# 150; a 1 mm scan's smallest call holds 930 values. The kernel costs about
# 0.16 ms a call before its first value, so repr is faster below about 400
# distinct values.
DEDUPE_MIN_SIZE = 512
# Rows assembled per write, which bounds the text held in memory.
CHUNK_ROWS = 2048

# The text of False and True.
_FLAGS = np.array([b"0", b"1"])


def check_node_count(count, what: str):
    """ConfigError when `count` (an int, or a float that may be inf) exceeds MAX_NODES."""
    if not count <= MAX_NODES:
        raise ConfigError(f"{what} exceeds the cap of {MAX_NODES} nodes")


def _sorted_distinct(bits):
    """np.unique(bits, return_inverse=True) for a 1-D int64 array by one
    argsort, with int32 codes and about half the scratch memory."""
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


def _distinct(bits):
    """np.unique(bits, return_inverse=True) for a 1-D int64 array, with int32
    codes. Where most values repeat the value before them (a grid's row
    coordinate, a quantized height), each run of equal neighbours is sorted
    as its first value, whose code np.repeat spreads over the run. Other
    columns (a zig-zag row's column coordinate, whose runs are the row
    ends) are sorted whole by _sorted_distinct, as the run starts and the
    spreading would cost more time and scratch memory than they save."""
    first = np.empty(bits.size, bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if 2 * np.count_nonzero(first) >= bits.size:
        del first
        return _sorted_distinct(bits)
    distinct, codes = _sorted_distinct(bits[first])
    return distinct, np.repeat(codes, np.diff(np.flatnonzero(first), append=bits.size))


@functools.cache
def _quads():
    """The four-digit words of _decimal_words, built on first use: the text
    of n < 10,000 as four ASCII bytes in a uint32 at n, and for n < 1,000
    also at 10,000 + n with NUL for its leading zeros (0 all NUL)."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    padded = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        padded[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    trimmed = padded[0].copy()
    for place in range(4):
        # n < 10**(3 - place) has no digit at `place`.
        trimmed[(0,) * place + (Ellipsis, place)] = 0
    quads = np.concatenate([padded.reshape(-1, 4), trimmed.reshape(-1, 4)]).view(np.uint32).reshape(-1)
    quads.flags.writeable = False
    return quads


def _decimal_words(m, words, padded):
    """Write each uint64 of m in decimal into its row of the uint32 array
    words (n, k), four ASCII digits a word, the lowest places in the last
    word. With `padded` every place is a digit; without it the places
    before the first digit are NUL, and 0 has no digit. A word is one take
    from _quads at the value of its four places, or, without `padded`,
    where its places and all higher ones are worth less than 1,000, at the
    entry without leading zeros."""
    quads = _quads()
    for j in range(words.shape[1] - 1, -1, -1):
        higher = m // 10000
        index = higher * 10000
        np.subtract(m, index, out=index)
        if not padded:
            np.add(index, 10000, out=index, where=m < 1000)
        words[:, j] = quads.take(index.view(np.intp))
        m = higher


def _digits(values) -> np.ndarray:
    """The decimal text of each integer, as wide as the longest: a negative
    value's minus sign in the first column, the digits right-aligned behind
    NULs, written four at a time by _decimal_words."""
    if not values.size:
        return np.zeros(0, "S1")
    # The longest text is that of the least value or of the greatest.
    width = max(len(str(int(values.min()))), len(str(int(values.max()))))
    magnitude = np.empty(values.size, np.uint64)
    np.abs(values, out=magnitude, casting="unsafe")  # abs(int64 min) wraps to 2**63
    words = np.empty((values.size, -(-width // 4)), np.uint32)
    _decimal_words(magnitude, words, padded=False)
    # Each text is its row from column `skip` on: the row's first columns
    # stand for places that no value has.
    rows, skip = words.view(np.uint8), -width % 4
    rows[:, -1] |= ord("0")  # the one digit of 0
    rows[values < 0, skip] = ord("-")
    return np.ndarray(values.shape, f"S{width}", rows, skip, rows.strides[:1]).copy()


# repr's text of a float by integer arithmetic on uint64 arrays. Its digits
# are the shortest decimal that reads back as the float, found by Schubfach
# (Giulietti, "The Schubfach way to render doubles", 2020) as Java's
# DoubleToDecimal finds them, without Java's two-digit minimum: repr writes
# 5e-324 where Java writes 4.9E-324. Its tables cover the decimal exponents
# k in [_K_MIN, 292] of every finite float.
_K_MIN = -324


def _flog2_pow10(e):
    """floor(e * log2(10)) for |e| <= 1233 (Java's MathUtils.flog2pow10)."""
    return (e * 217706) >> 16


@functools.cache
def _shortest_tables():
    """The read-only tables of _repr_bytes, built on first use.

    - g[:, k - _K_MIN] is g = floor(beta) + 1 for 10**-k = beta * 2**r,
      2**125 <= beta < 2**126, as five uint64: its high 63 bits g1, their
      32-bit halves, and the 32-bit halves of its low 63 bits. With
      r = flog2(10**-k) - 125, beta is 10**-k * 2**125 >> flog2(10**-k)
      for k <= 0 and 2**(125 - flog2(10**-k)) // 10**k for k > 0, from a
      running power of ten: one big-integer multiply and at most one
      division per k;
    - exponents[e - _K_MIN] is repr's exponent text e+XX of 10**e,
      NUL-padded to 5 bytes.
    """
    g, power = [], 1
    for k in range(0, _K_MIN - 1, -1):
        g.append((power << 125 >> _flog2_pow10(-k)) + 1)
        power *= 10
    g.reverse()
    power = 1
    for k in range(1, 293):
        power *= 10
        g.append((1 << 125 - _flog2_pow10(-k)) // power + 1)
    g = np.array([[x >> 63, x >> 95, x >> 63 & 0xFFFFFFFF, x >> 32 & 0x7FFFFFFF, x & 0xFFFFFFFF] for x in g],
                 np.uint64).T.copy()
    exponents = np.array([b"e%+03d" % e for e in range(_K_MIN, 309)], "S5").view(np.uint8).reshape(-1, 5)
    for table in (g, exponents):
        table.flags.writeable = False
    return g, exponents


def _mul_high(ah, al, bh, bl):
    """The high 64 bits of the products (ah * 2**32 + al) * (bh * 2**32 + bl)
    of uint64 arrays given as 32-bit halves (Warren, Hacker's Delight, mulhu)."""
    t = ah * bl + (al * bl >> 32)
    return ah * bh + (t >> 32) + ((t & 0xFFFFFFFF) + al * bh >> 32)


def _round_to_odd(g, cp):
    """Java's rop(g1, g0, cp) for cp < 2**63 and the five words of g that
    _shortest_tables holds: g * cp / 2**127 rounded down, then to odd where
    it drops bits that are not all zero."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & 0xFFFFFFFF
    z = (g1 * cp >> 1) + _mul_high(g0h, g0l, ch, cl)
    return _mul_high(g1h, g1l, ch, cl) + (z >> 63) | ((z << 1) != 0)


def _shortest_decimal(x):
    """(digits, k) for a 1-D array x of finite floats >= 0: the shortest
    decimal digits * 10**k that reads back as each float, the one nearest to
    it among those, as repr finds it. digits (uint64) has at most 17 digits,
    trailing zeros included, and k is int64; 0.0 gives (0, 0)."""
    bits = x.view(np.uint64)
    fraction = bits & (1 << 52) - 1
    biased = (bits >> 52).astype(np.int64)
    # x = c * 2**q.
    q = np.maximum(biased, 1) - 1075
    c = fraction | (biased > 0).astype(np.uint64) << 52
    # A power of two above the least normal has its lower neighbour half as
    # far as its upper one, which moves its lower bound and its k.
    irregular = (fraction == 0) & (biased > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2_pow10(-k) + 2).astype(np.uint64)
    # x and the bounds of its rounding interval, times 4 * 10**-k, rounded to
    # odd; an even c's interval includes its bounds.
    cb = c << 2
    vb, vbl, vbr = _round_to_odd(_shortest_tables()[0][:, k - _K_MIN],
                                 np.stack([cb, cb - 2 + irregular, cb + 2]) << h)
    vbl += c & 1
    vbr -= c & 1
    # sp10 or sp10 + 10 where just one of them lies in the interval, else s
    # or s + 1 where just one does, else the nearer of s and s + 1 to x, the
    # even one on a tie.
    s = vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = vbl <= sp10 << 2, (sp10 << 2) + 40 <= vbr
    uin, win = vbl <= s << 2, (s << 2) + 4 <= vbr
    digits = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10),
                      s + np.where(uin != win, win, (vb & 3) + (s & 1) > 2))
    zero = c == 0
    digits[zero] = 0
    k[zero] = 0
    return digits, k


def _repr_bytes(x) -> np.ndarray:
    """np.array([repr(v) for v in x.tolist()], "S") for a 1-D float array
    x of magnitudes (sign bits clear), without a repr call: the same bytes,
    as wide as the longest text.

    _shortest_decimal gives the digits, without their trailing zeros, and
    the place of the decimal point, `point` digits after the first digit.
    repr writes them in fixed notation when -4 < point <= 16 (the digits
    before the point or 0, a point, the digits after it or 0), else as
    d[.ddd]e+XX with the exponent point - 1 in at least two digits; NaN and
    inf are nan and inf.
    """
    exponents = _shortest_tables()[1]
    special = ~np.isfinite(x)
    digits, k = _shortest_decimal(np.where(special, 0.0, x))
    n = x.size
    # Each row: four '0's, the digits right-aligned in 20 columns from five
    # four-digit words, then 24 more '0's.
    rows = np.full((n, 48), ord("0"), np.uint8)
    _decimal_words(digits, rows[:, 4:24].view(np.uint32), padded=True)
    nonzero = rows[:, 4:24] != ord("0")
    last = 23 - nonzero[:, ::-1].argmax(axis=1)
    nonzero[:, -1] = True
    first = 4 + nonzero.argmax(axis=1)
    point = 24 - first + k
    fixed = (point > -4) & (point <= 16)
    # Each text is the row from `start` on, with a point inserted at column
    # `dot`, cut at column `end`. Fixed notation starts at the first digit,
    # or at the 0 before the point. Exponent notation writes its exponent
    # over the zeros after the last digit; a single digit gets its point at
    # column 23, past the end.
    several = last > first
    start = np.where(fixed, first + np.minimum(point, 1) - 1, first)
    dot = np.where(fixed, np.maximum(point, 1), np.where(several, 1, 23))
    end = np.where(fixed, dot + 1 + np.maximum(last + 1 - first - point, 1),
                   last - first + 1 + several + 4 + (np.abs(point - 1) >= 100))
    scientific = np.flatnonzero(~fixed)
    rows.reshape(-1)[(scientific * 48 + last[scientific] + 1)[:, None] + np.arange(5)] = \
        exponents[point[scientific] - 1 - _K_MIN]
    # shifted[:, j + 1] is rows[:, start + j], gathered from the windows of
    # 25 bytes that start at each of the first 24 columns of each row:
    # columns before the point are those of shifted[:, 1:], those after it
    # of shifted[:, :-1].
    windows = np.ndarray((n, 24, 25), np.uint8, rows, 0, (48, 1, 1))
    shifted = windows[np.arange(n), start - 1]
    column = np.arange(24, dtype=np.uint8)
    text = shifted[:, :-1] + (shifted[:, 1:] - shifted[:, :-1]) * (column < dot.astype(np.uint8)[:, None])
    text.reshape(-1)[np.arange(n) * 24 + dot] = ord(".")
    text[special, :3] = np.frombuffer(b"infnan", np.uint8).reshape(2, 3)[np.isnan(x[special]).astype(np.intp)]
    end[special] = 3
    text *= column < end.astype(np.uint8)[:, None]
    width = int(end.max(initial=1))
    return np.ascontiguousarray(text[:, :width]).view(f"S{width}")[:, 0]


def _float_texts(entries, nan) -> np.ndarray:
    """The table of a 1-D float array `entries`: repr(v) of each, or `nan`
    for NaN, NUL-padded to the longest text.

    Each distinct magnitude is formatted once, by _repr_bytes: repr(-x) is
    "-" + repr(x) for every x but NaN, so a negative entry is a minus sign
    before the text of its magnitude, and one np.isnan mask writes `nan`.
    """
    bits = entries.view(np.int64)
    negative, isnan = bits < 0, np.isnan(entries)
    # Sorted distinct bit patterns seldom hold a magnitude twice in a row.
    magnitudes, codes = _sorted_distinct(bits & np.iinfo(np.int64).max)
    magnitudes = magnitudes.view(float)
    # CHUNK_ROWS values at a time, which bounds the kernel's scratch memory;
    # each chunk's table is as wide as its own longest text.
    texts = np.concatenate([_repr_bytes(magnitudes[i : i + CHUNK_ROWS])
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
    written by _digits in a large call, by str in a small one."""
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
    (grid coordinates, quantized heights) is formatted once per distinct
    value rather than once per value, and bit patterns keep -0.0 apart from
    0.0. The call's size, all its values counted, decides the rest once. A
    call of fewer than DEDUPE_MIN_SIZE values sorts all its floats at once,
    passes each distinct value to repr and each integer to str. A larger
    call sorts its floats one column (last axis) at a time, which bounds the
    scratch memory, and where most values of a column repeat the value
    before them it sorts only the first value of each run (_distinct). It
    formats each distinct magnitude once with _repr_bytes, a vectorized
    kernel that gives repr's bytes, a negative value's text being "-" and
    its magnitude's, and writes integers four digits at a time (_digits).
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
        distinct, pooled = _sorted_distinct(bits)
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
