"""Height-map reconstruction, feature vectors and error statistics."""

import csv
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coilkin import (
    ConfigError,
    ContactCloud,
    EmptyCloudError,
    FeatureVector,
    HeightField,
    HeightMap,
    MissionLog,
    RobotGeometry,
    ScanConfig,
    error_stats,
    reconstruct,
    resample_average,
    sample_workspace,
    surface_scan,
    to_feature,
)
from coilkin import columns
from coilkin.columns import CHUNK_ROWS, DEDUPE_MIN_SIZE, text_column, write_rows
from coilkin.perception import _overlap_weights
from coilkin.ply import write_points

GEOM = RobotGeometry()


def synthetic_cloud(height_grid, step=10.0, contact_mask=None):
    """Cloud whose node (i, j) reports height_grid[i, j], visited row by row in j."""
    grid = np.asarray(height_grid, dtype=float)
    nx, ny = grid.shape
    j, i = (k.ravel() for k in np.mgrid[0:ny, 0:nx])
    arm = np.column_stack([i * step, j * step, np.full(i.size, 200.0)])
    hit = np.ones(i.size, bool) if contact_mask is None else np.asarray(contact_mask, bool)[i, j]
    extension = np.where(hit, 50.0, 70.0)
    contact_z = np.where(hit, grid[i, j], np.nan)
    points = np.where(hit[:, None], np.column_stack([arm[:, :2], contact_z]), np.nan)
    log = MissionLog(arm, 20.0, 0.0, extension[:, None], hit[:, None], points[:, None])
    return ContactCloud(step, (0.0, 0.0), log)


def stamped_scene(pattern, at_i, at_j, size=21):
    grid = np.zeros((size, size))
    p = np.asarray(pattern, dtype=float)
    grid[at_i : at_i + p.shape[0], at_j : at_j + p.shape[1]] = p
    return HeightField((0.0, 0.0), 10.0, grid)


def texts(table, codes) -> list:
    """The text that each code selects, without its NUL padding."""
    return [cell.replace(b"\0", b"").decode() for cell in table[codes].ravel().tolist()]


def from_bits(bits: int) -> float:
    """The float whose IEEE 754 binary64 pattern is `bits`."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def assert_tight(table):
    """The table is as wide as its longest text, NUL padding not counted
    (numpy's least width is 1)."""
    assert table.itemsize == max([1, *(len(text.replace(b"\0", b"")) for text in table.tolist())])


# Floats whose text is easy to get wrong: NaN (with the sign bit, with a
# payload), signed zeros and infinities, subnormals, and both sides of
# repr's switch to exponent notation, with both signs.
SPECIAL_FLOATS = [math.nan, from_bits(0xFFF8000000000000), from_bits(0x7FF8000000000123), 0.0, -0.0, math.inf,
                  -math.inf, 5e-324, -5e-324, 2.5e-310, 1e16, -1e16, 9999999999999998.0, -9999999999999998.0,
                  1e-5, 0.0001, 0.1, 1 / 3, 2.0**60]
INT64 = np.iinfo(np.int64)
SPECIAL_INTS = [INT64.min, INT64.max, 0, -1, 1, 10, -10]
# Row counts around the deduplication threshold and the chunk size.
ROW_COUNTS = [0, 1, 2, DEDUPE_MIN_SIZE - 1, DEDUPE_MIN_SIZE, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# Bit patterns for _distinct: those of the special floats (both zeros, NaN
# with and without its sign bit or a payload), a few small integers, so
# that runs of different values repeat, and any int64.
BITS = st.one_of(st.sampled_from(np.array(SPECIAL_FLOATS).view(np.int64).tolist()), st.integers(-3, 3),
                 st.integers(INT64.min, INT64.max))
# Columns of bit patterns: runs of random lengths, one value throughout, two
# values in turn, and 0 to 2 values.
BIT_COLUMNS = st.one_of(
    st.lists(st.tuples(BITS, st.integers(1, 40)), max_size=30).map(
        lambda runs: np.repeat(np.array([v for v, _ in runs], np.int64), [n for _, n in runs])),
    st.tuples(BITS, st.integers(0, 300)).map(lambda v: np.full(v[1], v[0], np.int64)),
    st.tuples(BITS, BITS, st.integers(0, 300)).filter(lambda v: v[0] != v[1]).map(
        lambda v: np.resize(np.array(v[:2], np.int64), v[2])),
    st.lists(BITS, max_size=2).map(lambda v: np.array(v, np.int64)),
)
# Integers whose text is easy to get wrong: the int64 extremes and each
# power of ten with its neighbours, of both signs.
EDGE_INTS = [INT64.min, INT64.max, *(sign * 10**k + d for k in range(19) for d in (-1, 0, 1) for sign in (1, -1))]
# The arrays of a call of fewer than DEDUPE_MIN_SIZE values: floats, 1-D, in
# rows of 3 or of none, integers and flags.
SMALL_CALLS = st.lists(st.one_of(
    st.lists(FLOATS, max_size=60).map(lambda v: np.array(v, float)),
    st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=20).map(lambda v: np.array(v, float).reshape(-1, 3)),
    st.integers(0, 3).map(lambda n: np.zeros((n, 0))),
    st.lists(st.integers(INT64.min, INT64.max), max_size=60).map(lambda v: np.array(v, np.int64)),
    st.lists(st.booleans(), max_size=60).map(lambda v: np.array(v, bool)),
), max_size=4)


def random_column(rng, kind, n):
    """A column of n rows: normal draws or random integers with special
    values mixed in, or booleans."""
    if kind == "bool":
        return rng.random(n) < 0.5
    shape = (n, 3) if kind.endswith("2d") else (n,)
    if kind.startswith("float"):
        values = rng.normal(scale=10.0 ** rng.integers(-8, 20), size=shape)
        specials = SPECIAL_FLOATS
    else:
        values = rng.integers(INT64.min, INT64.max, size=shape, endpoint=True)
        specials = SPECIAL_INTS
    pick = rng.random(shape) < 0.3
    values[pick] = rng.choice(specials, size=int(pick.sum()))
    return values


def reference_text(column, nan) -> list:
    """The cells of a column, row by row, as str, repr and the flags did
    value by value."""
    def cell(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return nan if v != v else repr(v)
        return str(v)

    return [[cell(v) for v in (row if isinstance(row, list) else [row])] for row in column.tolist()]


def assert_kernel_is_repr(magnitudes):
    """columns._repr_bytes gives, for floats without a sign bit, the bytes of
    repr of each, in a table as wide as the longest text."""
    x = np.asarray(magnitudes, float)
    assert not np.signbit(x).any()
    for first in range(0, x.size, 1 << 16):
        chunk = x[first : first + (1 << 16)]
        expected = np.array([repr(v) for v in chunk.tolist()], "S")
        got = columns._repr_bytes(chunk)
        wrong = np.flatnonzero(got != expected)
        assert not wrong.size, [(chunk[i].item(), got[i], expected[i]) for i in wrong[:5]]
        assert got.dtype == expected.dtype


def with_neighbours(values):
    """Each float and the floats just below and just above it."""
    x = np.asarray(values, float)
    return np.concatenate([np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)])


class TestColumnText:
    @pytest.mark.parametrize("size", [1, 9, 127, 128, DEDUPE_MIN_SIZE - 1, DEDUPE_MIN_SIZE, 640])
    def test_text_column_is_repr_per_value(self, size):
        """A small call (fewer than DEDUPE_MIN_SIZE values) and a large one
        both give repr's text, with -0.0 kept apart from 0.0 and NaN written
        as asked."""
        values = np.resize([0.0, -0.0, math.nan, 12.5, 1 / 3, -7.25, 1e-300, 2.0**60, 0.1], size)
        values[::4] = np.random.default_rng(size).normal(size=values[::4].size)
        expected = [repr(v) for v in values.tolist()]
        table, codes = text_column(values)
        assert texts(table, codes) == expected
        assert_tight(table)
        assert texts(*text_column(values, nan="")) == [("" if t == "nan" else t) for t in expected]

    @pytest.mark.parametrize("nan", ["nan", "", "not-a-number"])
    def test_both_signs_of_each_magnitude(self, nan):
        """A large call, of DEDUPE_MIN_SIZE magnitudes and more, each with
        both signs: every text is repr's (or `nan`), and the table is as wide
        as the longest of them."""
        magnitudes = np.abs([*SPECIAL_FLOATS, *np.random.default_rng(5).normal(size=DEDUPE_MIN_SIZE)])
        magnitudes[:3] = [math.nan, from_bits(0x7FF8000000000123), from_bits(0x7FF0000000000001)]
        values = np.concatenate([magnitudes, -magnitudes])
        assert np.unique(np.abs(values)).size >= DEDUPE_MIN_SIZE
        assert np.signbit(values[magnitudes.size :]).all()
        table, codes = text_column(values, nan=nan)
        assert texts(table, codes) == [nan if v != v else repr(v) for v in values.tolist()]
        assert_tight(table)
        # Without its longest texts the table is a byte narrower: the width
        # follows the texts, and no cell gets a sign byte it does not use.
        longest = max(len(t) for t in texts(table, codes))
        short = values[[len(repr(v)) < longest for v in values.tolist()]]
        assert short.size >= DEDUPE_MIN_SIZE
        assert text_column(short, nan=nan)[0].itemsize == max(len(nan), longest - 1)

    def test_repr_once_per_magnitude(self, monkeypatch):
        """The spring tops of the default workspace grid format each
        distinct magnitude once, 17,537 for 25,747 distinct bit patterns,
        by the kernel and without repr; a call of fewer than DEDUPE_MIN_SIZE
        values takes one repr per distinct value."""
        calls, sizes = [], []
        monkeypatch.setattr(columns, "repr", lambda v: calls.append(v) or repr(v), raising=False)
        kernel = columns._repr_bytes
        monkeypatch.setattr(columns, "_repr_bytes", lambda x: sizes.append(x.size) or kernel(x))
        u = sample_workspace(GEOM).u
        table, codes = text_column(u)
        assert sum(sizes) == np.unique(np.abs(u)).size == 17537
        assert calls == []
        assert texts(table, codes) == [repr(v) for v in u.ravel().tolist()]
        assert_tight(table)
        sizes.clear()
        small = np.array([1.5, -1.5, 0.25, -0.25, 3.0, 1.5])
        assert texts(*text_column(small)) == [repr(v) for v in small.tolist()]
        assert len(calls) == 5
        assert sizes == []

    def test_arrays_share_one_table(self):
        """Each array gets codes of its own shape into one table, and the
        codes of each array skip the texts of the others. A small call has
        the flags, the integers, and the distinct floats of all arrays (0.5,
        -0.0 and 0.0 to 4.0) from one sort; a large call has the flags, the
        integers, the two floats of the small array, and 0.0 to 4.0 once per
        column of the big array."""
        for rows, size in ((4, 2 + 2 + 7), (DEDUPE_MIN_SIZE, 2 + 2 + 2 + 2 * 5)):
            floats = np.arange(2 * rows, dtype=float).reshape(-1, 2) % 5
            table, small, big, flags, ints = text_column([0.5, -0.0], floats, [True, False], [7, -8])
            assert [small.shape, big.shape, flags.shape, ints.shape] == [(2,), floats.shape, (2,), (2,)]
            assert all(codes.dtype == np.int32 for codes in (small, big, flags, ints))
            assert texts(table, small) == ["0.5", "-0.0"]
            assert texts(table, big) == [repr(v) for v in floats.ravel().tolist()]
            assert texts(table, flags) == ["1", "0"] and texts(table, ints) == ["7", "-8"]
            assert len(table) == size

    @given(parts=SMALL_CALLS, padding=st.sampled_from(["float", "int", "bool"]), nan=st.sampled_from(["", "nan"]),
           seed=st.integers(0, 2**32 - 1))
    @example(parts=[np.zeros(0, np.int64)], padding="bool", nan="", seed=0)
    @example(parts=[np.array([100, -5])], padding="bool", nan="", seed=0)
    @settings(max_examples=60, deadline=None)
    def test_small_and_large_calls_agree(self, parts, padding, nan, seed):
        """The arrays of a small call, padded with DEDUPE_MIN_SIZE more
        values into a large call, keep their text: both ways are repr of
        each float (or `nan`), str of each integer and 1/0, in a table as
        wide as the longest text."""
        small = text_column(*parts, nan=nan)
        assert sum(np.size(part) for part in parts) < DEDUPE_MIN_SIZE
        large = text_column(*parts, random_column(np.random.default_rng(seed), padding, DEDUPE_MIN_SIZE), nan=nan)
        for part, codes, padded in zip(parts, small[1:], large[1:]):
            assert texts(small[0], codes) == texts(large[0], padded) == sum(reference_text(part, nan), [])
        assert_tight(small[0])
        assert_tight(large[0])

    @given(n=st.sampled_from(ROW_COUNTS),
           kinds=st.lists(st.sampled_from(["float", "float2d", "int", "int2d", "bool", "encoded"]),
                          min_size=1, max_size=4),
           sep=st.sampled_from([",", " "]), nan=st.sampled_from(["", "nan"]), seed=st.integers(0, 2**32 - 1))
    @example(n=CHUNK_ROWS + 1, kinds=["encoded", "float2d", "int", "bool"], sep=",", nan="",
             seed=0)
    @settings(max_examples=40, deadline=None)
    def test_write_rows_is_a_per_row_join(self, n, kinds, sep, nan, seed):
        """write_rows writes sep.join of each row's cells, formatted value by
        value: repr of floats (nan for NaN), str of integers and 1/0 of
        booleans, for 1-D and 2-D array columns and for columns that
        text_column encoded. A float column whose NaN text is
        not nan is encoded with text_column first, as MissionLog.write does."""
        rng = np.random.default_rng(seed)
        encoded, cells = [], []
        for kind in kinds:
            column = random_column(rng, "float2d" if kind == "encoded" else kind, n)
            cells.append(reference_text(column, nan))
            if kind == "encoded" or (kind.startswith("float") and nan != "nan"):
                column = text_column(column, nan=nan)
                assert_tight(column[0])
            encoded.append(column)
        fh = io.BytesIO()
        write_rows(fh, encoded, sep=sep)
        expected = "".join(sep.join(sum(row, [])) + "\n" for row in zip(*cells))
        assert fh.getvalue().decode().splitlines(keepends=True) == expected.splitlines(keepends=True)

    @given(st.lists(st.floats(), min_size=1, max_size=200))
    @example([5e-324, 8e-323, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, math.inf, math.nan])
    @settings(max_examples=200, deadline=None)
    def test_kernel_is_repr(self, values):
        """repr's bytes for the magnitudes of any floats, NaN and inf among
        them."""
        assert_kernel_is_repr(np.abs(values))

    def test_kernel_is_repr_at_the_edges(self):
        """Every power of two and 10**k with their neighbours, the least
        subnormals, integers around 2**53 and repr's switches between fixed
        and exponent notation (at 1e-4 and 1e16)."""
        assert_kernel_is_repr(np.concatenate([
            with_neighbours(2.0 ** np.arange(-1074, 1024)),
            with_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
            np.arange(1, 1001).view(float),
            with_neighbours(2.0**53 + np.arange(-1000, 1001)),
            with_neighbours(np.outer([1e-5, 1e-4, 1e16, 1e17], [1.0, 1.5, 9.999999999999999]).ravel()),
            [0.0, math.inf, math.nan, from_bits(0x7FF8000000000123)],
        ]))
        assert_kernel_is_repr(np.zeros(0))

    def test_kernel_is_repr_on_random_bit_patterns(self):
        """A million bit patterns, every exponent equally likely and NaN and
        inf among them."""
        assert_kernel_is_repr(np.random.default_rng(1).integers(0, 1 << 63, 10**6).view(float))

    @pytest.mark.parametrize("nan", ["nan", ""])
    def test_large_call_over_every_exponent(self, nan):
        """A large call whose columns hold random bit patterns of both signs
        and the special floats: each text is reference_text's."""
        rng = np.random.default_rng(7)
        rows = rng.integers(INT64.min, INT64.max, size=(3 * DEDUPE_MIN_SIZE, 3), endpoint=True).view(float)
        pick = rng.random(rows.shape) < 0.1
        rows[pick] = rng.choice(SPECIAL_FLOATS, size=int(pick.sum()))
        column = rng.integers(INT64.min, INT64.max, size=DEDUPE_MIN_SIZE, endpoint=True).view(float)
        column[:2] = [0.0, -0.0]
        table, row_codes, column_codes = text_column(rows, column, nan=nan)
        assert texts(table, row_codes) == sum(reference_text(rows, nan), [])
        assert texts(table, column_codes) == sum(reference_text(column, nan), [])
        assert_tight(table)

    @given(BIT_COLUMNS)
    @settings(max_examples=200, deadline=None)
    def test_distinct_is_unique(self, bits):
        """_distinct is np.unique with return_inverse, with int32 codes,
        whether it sorts runs of equal neighbours or the whole column."""
        distinct, codes = columns._distinct(bits)
        expected, inverse = np.unique(bits, return_inverse=True)
        assert codes.dtype == np.int32
        assert distinct.tolist() == expected.tolist()
        assert codes.tolist() == inverse.ravel().tolist()

    @given(size=st.sampled_from([1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]),
           values=st.lists(st.one_of(st.sampled_from(EDGE_INTS), st.integers(INT64.min, INT64.max)),
                           min_size=1, max_size=30))
    @example(size=1, values=[INT64.min])
    @example(size=1, values=[0])
    @example(size=CHUNK_ROWS, values=[-999, 999])
    @example(size=CHUNK_ROWS, values=[-1000, 9999, 5])
    @settings(max_examples=100, deadline=None)
    def test_digits_is_str(self, size, values):
        """_digits writes str of each integer, its digits right-aligned
        behind NULs and a negative value's sign in the first column, in a
        table as wide as the longest text; a negative value can make it one
        byte wider than the longest digits."""
        column = np.resize(np.array(values, np.int64), size)
        table = columns._digits(column)
        width = max(len(str(v)) for v in column.tolist())
        assert table.dtype == f"S{width}"
        assert table.tolist() == [(b"-" if v < 0 else b"") + str(abs(v)).encode().rjust(width - (v < 0), b"\0")
                                  for v in column.tolist()]

    def test_kernel_tables_are_their_formulas(self):
        """The tables built from running powers of ten hold, word for word,
        what their definitions give: g = floor(10**-k / 2**r) + 1 by one
        big-integer division per k, the four-digit words with leading zeros
        and, below 1,000, without them, and the exponent texts."""
        g, exponents = columns._shortest_tables()
        for k in range(columns._K_MIN, 293):
            r = columns._flog2_pow10(-k) - 125
            x = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
            assert g[:, k - columns._K_MIN].tolist() == [x >> 63, x >> 95, x >> 63 & 0xFFFFFFFF,
                                                          x >> 32 & 0x7FFFFFFF, x & 0xFFFFFFFF]
        assert g.dtype == np.uint64 and g.shape == (5, 293 - columns._K_MIN)
        assert columns._quads().tobytes() == b"".join([*(b"%04d" % n for n in range(10000)), b"\0" * 4,
                                                        *((b"%d" % n).rjust(4, b"\0") for n in range(1, 1000))])
        assert exponents.tobytes() == b"".join((b"e%+03d" % e).ljust(5, b"\0") for e in range(columns._K_MIN, 309))

    def test_ply_text_across_chunks(self, tmp_path):
        pts = np.random.default_rng(0).normal(size=(2 * CHUNK_ROWS + 5, 3))
        pts[::7, 2] = -0.0
        pts[::5, 0] = 12.5
        write_points(pts, tmp_path / "points.ply")
        lines = (tmp_path / "points.ply").read_text().splitlines()
        assert f"element vertex {len(pts)}" in lines
        body = lines[lines.index("end_header") + 1 :]
        assert body == [f"{x!r} {y!r} {z!r}" for x, y, z in pts.tolist()]


class TestReconstruct:
    def test_flat_cloud_becomes_zero_map(self):
        hmap = reconstruct(synthetic_cloud(np.full((5, 5), 17.0)))
        assert hmap.heights.shape == (5, 5)
        assert np.allclose(hmap.heights, 0.0)
        # centroid recentering puts the middle of the box at the origin
        assert hmap.origin == (-20.0, -20.0)

    def test_crops_to_contact_bbox_with_sentinels(self):
        grid = np.zeros((7, 7))
        mask = np.zeros((7, 7), dtype=bool)
        grid[2, 2] = 30.0
        grid[4, 3] = 10.0
        mask[2, 2] = mask[4, 3] = True
        hmap = reconstruct(synthetic_cloud(grid, contact_mask=mask))
        assert hmap.heights.shape == (3, 2)
        assert hmap.heights[0, 0] == pytest.approx(20.0)  # 30 - min(10)
        assert hmap.heights[2, 1] == pytest.approx(0.0)
        assert math.isnan(hmap.heights[1, 0])
        assert hmap.contact_mask.sum() == 2

    def test_single_contact_is_one_cell_zero(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[3, 1] = True
        hmap = reconstruct(synthetic_cloud(np.full((5, 5), 22.0), contact_mask=mask))
        assert hmap.heights.shape == (1, 1)
        assert hmap.heights[0, 0] == 0.0
        assert hmap.origin == (0.0, 0.0)

    def test_never_invents_contacts(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[1:3, 1:5] = True
        hmap = reconstruct(synthetic_cloud(np.full((6, 6), 5.0), contact_mask=mask))
        assert int(hmap.contact_mask.sum()) == int(mask.sum())

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloudError):
            reconstruct(synthetic_cloud(np.zeros((3, 3)), contact_mask=np.zeros((3, 3), bool)))

    def test_scan_of_plateau_matches_scene(self):
        scene = stamped_scene(np.full((4, 4), 40.0), 6, 6)
        cloud = surface_scan(scene, GEOM)  # floor reachable: min contact is 0
        hmap = reconstruct(cloud)
        assert hmap.heights.shape == (21, 21)
        for (i, j), value in np.ndenumerate(hmap.heights):
            truth = scene.height_at(i * 10.0, j * 10.0)
            assert truth - 0.5 <= value <= truth + 1e-9

    def test_csv_and_ply_exports(self, tmp_path):
        grid = np.zeros((6, 6))
        mask = np.zeros((6, 6), dtype=bool)
        grid[1:3, 1:4] = 25.0
        mask[1:3, 1:4] = True
        hmap = reconstruct(synthetic_cloud(grid, contact_mask=mask))
        csv_path = tmp_path / "map.csv"
        ply_path = tmp_path / "map.ply"
        hmap.write_csv(csv_path)
        hmap.write_ply(ply_path)
        rows = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == hmap.heights.shape[0]
        ply = ply_path.read_text().splitlines()
        assert ply[0] == "ply"
        assert f"element vertex {int(mask.sum())}" in ply
        assert len(ply) == ply.index("end_header") + 1 + int(mask.sum())

    def test_header_of_numpy_numbers_is_float_text(self, tmp_path):
        # The origin and cell size follow the number rule: numpy scalars are
        # stored as Python floats, whose repr is plain under numpy 2 too.
        hmap = HeightMap(np.zeros((2, 2)), (np.float64(-5.0), np.float32(0.5)), np.float64(10))
        hmap.write_csv(tmp_path / "map.csv")
        header = (tmp_path / "map.csv").read_text().splitlines()[0]
        assert header == "# origin_x=-5.0 origin_y=0.5 cell_mm=10.0"
        assert [type(v) for v in (*hmap.origin, hmap.cell_mm)] == [float] * 3

    @pytest.mark.parametrize(
        "origin,cell_mm",
        [((0.0,), 10.0), ((0.0, "1"), 10.0), ((True, 0.0), 10.0), ((0.0, math.nan), 10.0),
         ((0.0, 0.0), math.inf), ((0.0, 0.0), 0.0), ((0.0, 0.0), -1.0)],
    )
    def test_bad_origin_or_cell_raises_config_error(self, origin, cell_mm):
        with pytest.raises(ConfigError, match="height map"):
            HeightMap(np.zeros((1, 1)), origin, cell_mm)

    @pytest.mark.parametrize(
        "step_mm,origin",
        [(0.0, (0.0, 0.0)), (-1.0, (0.0, 0.0)), (math.nan, (0.0, 0.0)), (math.inf, (0.0, 0.0)),
         ("10", (0.0, 0.0)), (True, (0.0, 0.0)), (10.0, (0.0, math.nan)), (10.0, (0.0,)), (10.0, (0.0, "1"))],
    )
    def test_bad_cloud_grid_raises_config_error(self, step_mm, origin):
        log = synthetic_cloud(np.zeros((3, 3))).log
        with pytest.raises(ConfigError, match="cloud"):
            ContactCloud(step_mm, origin, log)

    def test_cloud_grid_numbers_are_stored_as_floats(self):
        cloud = ContactCloud(np.int64(10), (np.float32(0.5), 0), synthetic_cloud(np.zeros((3, 3))).log)
        assert (cloud.step_mm, cloud.origin) == (10.0, (0.5, 0.0))
        assert [type(v) for v in (cloud.step_mm, *cloud.origin)] == [float] * 3

    @pytest.mark.parametrize("step_mm", [1e-300, 1e-3])
    def test_box_above_node_cap_raises(self, step_mm):
        # A 20 mm scan of 3 x 3 nodes read at a finer step than it was made
        # at: 2e301 or 20,001 cells a side, rejected before any allocation.
        cloud = ContactCloud(step_mm, (0.0, 0.0), synthetic_cloud(np.zeros((3, 3))).log)
        with pytest.raises(ConfigError, match="cap"):
            reconstruct(cloud)

    @pytest.mark.parametrize("x,step_mm", [(3e7, 10.0), (math.inf, 10.0), (math.nan, 10.0), (1e10, 1e-300)])
    def test_far_contact_point_above_node_cap_raises(self, x, step_mm):
        # Node (1, 1) moved to x: a box of 3,000,001 x 3 cells, or of an
        # inf or NaN size, or one whose x index overflows; none warns.
        cloud = synthetic_cloud(np.zeros((3, 3)), step=step_mm)
        cloud.log.point[4, 0, 0] = x
        with pytest.raises(ConfigError, match="cap"):
            reconstruct(cloud)


def overlap_weights_loop(n_in, n_out):
    """_overlap_weights as a loop over bins and the cells each one covers."""
    edges = np.linspace(0.0, n_in, n_out + 1)
    w = np.zeros((n_out, n_in))
    for o in range(n_out):
        a, b = edges[o], edges[o + 1]
        for i in range(int(math.floor(a)), min(n_in, int(math.ceil(b)))):
            w[o, i] = max(0.0, min(b, i + 1.0) - max(a, float(i)))
    return w / w.sum(axis=1, keepdims=True)


class TestResample:
    def test_uniform_stays_uniform(self):
        out = resample_average(np.full((7, 9), 3.25), 20, 15)
        assert out.shape == (20, 15)
        assert np.allclose(out, 3.25)

    def test_integer_block_average(self):
        grid = np.arange(16.0).reshape(4, 4)
        out = resample_average(grid, 2, 2)
        expected = [
            [grid[:2, :2].mean(), grid[:2, 2:].mean()],
            [grid[2:, :2].mean(), grid[2:, 2:].mean()],
        ]
        assert np.allclose(out, expected)

    def test_upsampling_single_cell(self):
        out = resample_average(np.array([[5.0]]), 20, 15)
        assert out.shape == (20, 15)
        assert np.allclose(out, 5.0)

    @given(n_in=st.integers(1, 300), n_out=st.integers(1, 256))
    @example(n_in=259, n_out=201)
    @example(n_in=7, n_out=20)
    @example(n_in=1, n_out=1)
    @settings(max_examples=200, deadline=None)
    def test_overlap_weights_match_loop(self, n_in, n_out):
        """The broadcast weights are bit for bit those of the per-cell loop."""
        expected = overlap_weights_loop(n_in, n_out)
        assert _overlap_weights(n_in, n_out).tobytes() == expected.tobytes()

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, scale):
        rng = np.random.default_rng(3)
        grid = rng.uniform(0.0, 40.0, (6, 11))
        assert np.allclose(resample_average(grid * scale, 20, 15), resample_average(grid, 20, 15) * scale)


class TestToFeature:
    def test_zero_map_gives_zero_vector(self):
        vec = to_feature(reconstruct(synthetic_cloud(np.zeros((21, 21)))))
        assert len(vec.values) == 300
        assert all(v == 0.0 for v in vec.values)

    def test_whole_cell_shift_invariance(self):
        pattern = np.array([[20.0, 20.0, 40.0], [20.0, 40.0, 40.0]])
        features = []
        for (di, dj) in ((2, 3), (9, 11), (14, 5)):
            scene = stamped_scene(pattern, di, dj)
            cloud = surface_scan(scene, GEOM, ScanConfig(arm_z=191.0))  # floor out of reach
            features.append(to_feature(reconstruct(cloud)).values)
        assert features[0] == features[1] == features[2]

    def test_taller_plateau_scales_feature(self):
        low = stamped_scene(np.full((5, 5), 30.0), 8, 8)
        high = stamped_scene(np.full((5, 5), 45.0), 8, 8)
        # Floor reachable, so the plateau keeps its absolute height; heights
        # on the 0.5 mm probe grid measure exactly, making the scaling exact.
        f_low = np.array(to_feature(reconstruct(surface_scan(low, GEOM))).values)
        f_high = np.array(to_feature(reconstruct(surface_scan(high, GEOM))).values)
        assert np.allclose(f_high, f_low * 1.5)

    def test_provenance_and_csv(self):
        vec = to_feature(reconstruct(synthetic_cloud(np.zeros((4, 4)))), provenance="trial-1")
        row = vec.to_csv_row().split(",")
        assert row[0] == "trial-1"
        assert len(row) == 301

    @pytest.mark.parametrize("name", ["a,b.json", 'say "hi".json', "two\nlines.json", "cr\rlf\r\n", '"'])
    def test_provenance_is_quoted(self, name):
        """A name with a comma, a quote or a line break is one quoted cell."""
        vec = to_feature(reconstruct(synthetic_cloud(np.zeros((4, 4)))), provenance=name)
        (row,) = csv.reader(io.StringIO(vec.to_csv_row() + "\n", newline=""))
        assert len(row) == 301
        assert row[0] == name
        assert [float(v) for v in row[1:]] == list(vec.values)

    def test_empty_map_rejected(self):
        with pytest.raises(EmptyCloudError):
            to_feature(HeightMap(np.zeros((0, 0)), (0.0, 0.0), 10.0))

    @pytest.mark.parametrize("size", [0, 299, 301])
    def test_wrong_length_rejected(self, size):
        with pytest.raises(ValueError, match="300 values"):
            FeatureVector((0.0,) * size)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            FeatureVector((0.0,) * 299 + (value,))


class TestErrorStats:
    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least one pair"):
            error_stats([])

    def test_identical_pairs_are_zero(self):
        report = error_stats([((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))] * 4)
        assert report.mean_dis == 0.0
        assert report.sd_dis == 0.0
        assert np.all(report.mean_axes == 0.0)

    def test_three_four_five(self):
        report = error_stats([((0.0, 0.0, 50.0), (3.0, 0.0, 46.0))])
        assert report.mean_dis == pytest.approx(5.0)
        assert report.mean_axes == pytest.approx([3.0, 0.0, 4.0])

    def test_gaussian_offsets_recovered(self):
        rng = np.random.default_rng(42)
        n = 5000
        desired = rng.uniform(-30.0, 30.0, (n, 3))
        offsets = np.stack(
            [rng.normal(4.0, 0.2, n), rng.normal(3.0, 0.15, n), rng.normal(2.0, 0.1, n)], axis=1
        )
        report = error_stats(list(zip(desired, desired + offsets)))
        assert report.mean_axes == pytest.approx([4.0, 3.0, 2.0], rel=0.02)
        assert report.sd_axes == pytest.approx([0.2, 0.15, 0.1], rel=0.05)
        assert report.mean_dis == pytest.approx(math.sqrt(29.0), rel=0.02)

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)),
                st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_norm_dominates_axes(self, pairs):
        report = error_stats(pairs)
        assert np.all(report.dis + 1e-12 >= report.axes.max(axis=1))
        assert report.mean_dis + 1e-12 >= report.mean_axes.max()
        assert report.sd_dis >= 0.0

    def test_csv_matches_table_structure(self):
        report = error_stats([((0.0, 0.0, 50.0), (3.0, 0.0, 46.0))])
        lines = [l for l in report.to_csv().splitlines() if not l.startswith("#")]
        assert lines[0] == ",DIS,X,Y,Z"
        assert lines[1].startswith("Mean (mm),")
        assert lines[2].startswith("SD (mm),")
        assert [float(v) for v in lines[1].split(",")[1:]] == pytest.approx([5.0, 3.0, 0.0, 4.0])


class TestArrayRecords:
    """Records that hold arrays compare by identity and hash: a generated
    field-by-field __eq__ could only raise on a multi-cell array."""

    @pytest.mark.parametrize("build", [
        lambda: HeightField((0.0, 0.0), 10.0, [[1.0, 2.0]]),
        lambda: HeightMap(np.array([[1.0, 2.0]]), (0.0, 0.0), 10.0),
        lambda: error_stats([((0.0, 0.0, 50.0), (3.0, 0.0, 46.0))] * 2),
    ], ids=["HeightField", "HeightMap", "ErrorReport"])
    def test_equal_contents_compare_false_and_hash(self, build):
        a, b = build(), build()
        assert (a == b) is False
        assert a == a
        assert hash(a) == hash(a)
        assert len({a, b}) == 2
