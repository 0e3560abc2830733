"""Height-map reconstruction, feature vectors and error statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilkin import (
    ContactCloud,
    EmptyCloudError,
    HeightField,
    MissionLog,
    RobotGeometry,
    ScanConfig,
    bubble_aggregate,
    error_stats,
    reconstruct,
    resample_average,
    surface_scan,
    to_feature,
)
from coilkin.columns import CHUNK_ROWS, DEDUPE_MIN_SIZE, repr_column
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
    return ContactCloud(arm, extension, hit, contact_z, step, (0.0, 0.0), log)


def stamped_scene(pattern, at_i, at_j, size=21):
    grid = np.zeros((size, size))
    p = np.asarray(pattern, dtype=float)
    grid[at_i : at_i + p.shape[0], at_j : at_j + p.shape[1]] = p
    return HeightField((0.0, 0.0), 10.0, grid)


class TestColumnText:
    @pytest.mark.parametrize(
        "size", [1, 9, DEDUPE_MIN_SIZE - 1, DEDUPE_MIN_SIZE, 5 * DEDUPE_MIN_SIZE]
    )
    def test_repr_column_is_repr_per_value(self, size):
        """Both the per-value and the deduplicating path give repr's text,
        with -0.0 kept apart from 0.0 and NaN written as asked."""
        values = np.resize([0.0, -0.0, math.nan, 12.5, 1 / 3, -7.25, 1e-300, 2.0**60, 0.1], size)
        values[::4] = np.random.default_rng(size).normal(size=values[::4].size)
        expected = [repr(v) for v in values.tolist()]
        assert repr_column(values) == expected
        assert repr_column(values, nan="") == [("" if t == "nan" else t) for t in expected]

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


class TestErrorStats:
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


class TestBubbleAggregate:
    def test_single_direction_passthrough(self):
        assert bubble_aggregate([(10.0, 40.0, 2.5)]) == [(10.0, 40.0, 2.5)]

    def test_four_directions_average(self):
        records = [(10.0, 40.0, e) for e in (2.0, 4.0, 4.0, 6.0)]
        assert bubble_aggregate(records) == [(10.0, 40.0, 4.0)]

    def test_cell_count_and_ordering(self):
        records = []
        for z in (60.0, 40.0, 50.0):
            for disp in (5.0, 15.0, 10.0):
                for _ in range(4):
                    records.append((disp, z, 1.0))
        out = bubble_aggregate(records)
        assert len(out) == 9
        keys = [(z, disp) for disp, z, _ in out]
        assert keys == sorted(keys)
