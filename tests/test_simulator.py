"""Mission simulation: vertical probes, surface scans, tube exploration."""

import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coilkin import (
    ArcState,
    ArmTooLowError,
    CoilkinError,
    ConfigError,
    Cube,
    EmptyCloudError,
    ExploreConfig,
    HeightField,
    InvalidStateError,
    MissionLog,
    RobotGeometry,
    ScanConfig,
    ServoRangeError,
    Tube,
    UnreachableTargetError,
    explore_tube,
    fk,
    ik,
    pressure_detections,
    probe_columns,
    reconstruct,
    ring_path,
    servo_winding,
    surface_scan,
)
import coilkin.columns
import coilkin.kinematics
import coilkin.simulator
from coilkin.actuation import beyond_servo_range
from coilkin.cli import _write_pressure, make_offset_tube
from coilkin.columns import CHUNK_ROWS, MAX_NODES
from coilkin.simulator import LOG_ALPHA, LOG_ARM, LOG_CONTACT, LOG_HEADER, LOG_POINT, LOG_S

GEOM = RobotGeometry()
FLAT = HeightField((0.0, 0.0), 10.0, np.zeros((21, 21)))


def plateau_scene(height=40.0, i0=5, i1=10, j0=5, j1=10):
    grid = np.zeros((21, 21))
    grid[i0:i1, j0:j1] = height
    return HeightField((0.0, 0.0), 10.0, grid)


def log_rows(log):
    """The log's rows as dicts of arm, alpha, s and contact."""
    return [
        {
            "arm": tuple(row[LOG_ARM]),
            "alpha": row[LOG_ALPHA],
            "s": row[LOG_S],
            "contact": row[LOG_CONTACT] != 0.0,
        }
        for row in log.rows.tolist()
    ]


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("logs")


def log_text(log, directory):
    """The events.csv text that MissionLog.write puts in directory."""
    path = directory / "events.csv"
    log.write(path)
    return path.read_bytes().decode("utf-8")


def probe(scene, arm, quantum=0.5):
    """probe_columns at one arm position: (extension, contact, contact z)."""
    (ext,), (hit,), (z,) = probe_columns(scene, [arm], GEOM, quantum)
    return float(ext), bool(hit), float(z)


class TestProbeVertical:
    """The vertical probe at one arm position, through probe_columns."""

    def test_out_of_reach(self):
        ext, hit, z = probe(FLAT, (50.0, 50.0, 200.0))
        assert not hit
        assert ext == GEOM.s_max
        assert math.isnan(z)

    def test_flat_contact_at_50(self):
        ext, hit, z = probe(FLAT, (50.0, 50.0, 156.0))
        assert hit
        assert ext == pytest.approx(50.0)
        assert z == pytest.approx(0.0)

    def test_contact_at_minimum_extension(self):
        ext, hit, z = probe(plateau_scene(30.0), (70.0, 70.0, 156.0))
        assert hit
        assert ext == pytest.approx(GEOM.s_min)
        assert z == pytest.approx(30.0)

    def test_arm_too_low(self):
        scene = plateau_scene(35.0)
        with pytest.raises(ArmTooLowError):
            probe(scene, (70.0, 70.0, 156.0))

    def test_quantization_rounds_up(self):
        ext, _, _ = probe(plateau_scene(30.3), (70.0, 70.0, 176.0))
        # exact extension 39.7 mm -> next 0.5 mm grid point 40.0
        assert ext == pytest.approx(40.0)
        measured = 176.0 - (ext + GEOM.probe_offset)
        assert 30.3 - 0.5 <= measured <= 30.3

    @pytest.mark.parametrize(
        "geom,arm,quantum,expected",
        [
            (RobotGeometry(s_max=1.7e308), (0.0, 0.0, 1.7e308), 0.5, (1.7e308, True)),
            (GEOM, (50.0, 50.0, 1e308), 0.5, (GEOM.s_max, False)),
            (GEOM, (50.0, 50.0, 1.7e308), 1e308, (GEOM.s_max, False)),
            (GEOM, (50.0, 50.0, 156.0), 5e-324, (50.0, True)),
            (GEOM, (50.0, 50.0, 156.0), 1e-300, (50.0, True)),
        ],
    )
    def test_overflowing_step_count(self, geom, arm, quantum, expected):
        # Step counts or lengths that overflow to inf: no warning, and a
        # subnormal quantum measures the surface instead of full extension.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (ext,), (hit,), _ = probe_columns(FLAT, [arm], geom, quantum)
        assert (ext, hit) == pytest.approx(expected)

    @pytest.mark.parametrize("quantum", [0.0, -1.0, math.nan, math.inf])
    def test_bad_quantum_rejected(self, quantum):
        with pytest.raises(ConfigError, match="quantum"):
            probe_columns(FLAT, [(50.0, 50.0, 156.0)], GEOM, quantum)


class TestSurfaceScan:
    def test_empty_scene_control(self):
        cloud = surface_scan(FLAT, GEOM, ScanConfig(arm_z=200.0))
        assert len(cloud.contact) == 441
        assert cloud.contact_count == 0

    def test_plateau_heights_within_quantum(self):
        scene = plateau_scene(40.0)
        cloud = surface_scan(scene, GEOM)  # floor exactly reachable
        assert cloud.contact_count == 441
        for (x, y, _), measured in zip(cloud.arm.tolist(), cloud.contact_z.tolist()):
            truth = scene.height_at(x, y)
            assert truth - 0.5 <= measured <= truth + 1e-9

    def test_zig_zag_order(self):
        cloud = surface_scan(FLAT, GEOM, ScanConfig(width=20.0, height=20.0, step_mm=10.0))
        xs = cloud.arm[:, 0].tolist()
        ys = cloud.arm[:, 1].tolist()
        assert xs == [0.0, 10.0, 20.0, 20.0, 10.0, 0.0, 0.0, 10.0, 20.0]
        assert ys == [0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0]

    def test_retract_before_move(self):
        cloud = surface_scan(plateau_scene(40.0), GEOM, ScanConfig(width=50.0, height=50.0))
        rows = log_rows(cloud.log)
        for prev, row in zip(rows, rows[1:]):
            if row["arm"] != prev["arm"]:
                assert row["s"] == GEOM.s_min

    def test_arm_stays_in_scan_plane(self):
        cloud = surface_scan(FLAT, GEOM, ScanConfig(width=40.0, height=40.0))
        zs = {row["arm"][2] for row in log_rows(cloud.log)}
        assert len(zs) == 1

    def test_completeness_reachable_cells_contact(self):
        # Arm at 191 mm: cells of height >= 15 are reachable, the floor is not.
        scene = plateau_scene(30.0, 4, 9, 4, 9)
        cloud = surface_scan(scene, GEOM, ScanConfig(arm_z=191.0))
        for (x, y, _), contact in zip(cloud.arm.tolist(), cloud.contact.tolist()):
            reachable = scene.height_at(x, y) >= 191.0 - GEOM.probe_offset - GEOM.s_max
            assert contact == reachable
        assert cloud.contact_count == 25

    def test_box_scene_single_component(self):
        scene = plateau_scene(25.0, 8, 14, 9, 12)  # board-eraser proportions
        cloud = surface_scan(scene, GEOM)
        tall = {
            (round(x), round(y))
            for (x, y, _), z in zip(cloud.arm.tolist(), cloud.contact_z.tolist())
            if z > 12.5  # NaN, no contact, compares False
        }
        # flood fill oracle: the thresholded map must be one connected blob
        components = 0
        remaining = set(tall)
        while remaining:
            components += 1
            stack = [remaining.pop()]
            while stack:
                x, y = stack.pop()
                for nb in ((x + 10, y), (x - 10, y), (x, y + 10), (x, y - 10)):
                    if nb in remaining:
                        remaining.remove(nb)
                        stack.append(nb)
        assert components == 1
        assert len(tall) == 6 * 3


class TestScanConfig:
    @pytest.mark.parametrize(
        "fields",
        [
            {"step_mm": 0.0},
            {"step_mm": -1.0},
            {"quantum": 0.0},
            {"width": -50.0},
            {"height": -0.5},
            {"width": math.nan},
            {"step_mm": math.inf},
            {"origin": (0.0, math.nan)},
            {"origin": (0.0,)},
            {"origin": (0.0, 0.0, 5.0)},
            {"origin": ()},
            {"arm_z": math.inf},
        ],
    )
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(ConfigError):
            ScanConfig(**fields)

    def test_node_cap(self):
        # Checked from the configuration; nothing is allocated.
        assert ScanConfig(width=MAX_NODES - 1.0, height=0.0, step_mm=1.0).shape == (MAX_NODES, 1)
        # 1e308 / 1e-300 overflows to inf, which round() cannot take.
        too_big = ({"width": MAX_NODES}, {"width": 1e308}, {"width": 1e308, "step_mm": 1e-300},
                   {"width": 2000.0, "height": 2000.0})
        for fields in too_big:
            with pytest.raises(ConfigError, match="cap"):
                ScanConfig(**{"height": 0.0, "step_mm": 1.0, **fields})

    def test_zero_extent_is_one_node(self):
        cloud = surface_scan(FLAT, GEOM, ScanConfig(width=0.0, height=0.0))
        assert len(cloud.contact) == 1

    @pytest.mark.parametrize("number", [int, np.float64, np.int64, np.float32])
    def test_numbers_are_stored_as_floats(self, number, tmp_path):
        """Every number field is a Python float whatever type was passed, so
        the height map's header reads as it does for float fields."""
        fields = {"width": 100.0, "height": 100.0, "step_mm": 10.0, "arm_z": 170.0, "quantum": 1.0}
        cfg = ScanConfig(**{name: number(v) for name, v in fields.items()}, origin=(number(0), number(0)))
        assert cfg == ScanConfig(**fields)
        assert all(type(getattr(cfg, name)) is float for name in fields)
        assert [type(v) for v in cfg.origin] == [float, float]
        assert ScanConfig(**{**fields, "arm_z": None}).arm_z is None
        texts = []
        for config in (cfg, ScanConfig(**fields)):
            reconstruct(surface_scan(plateau_scene(), GEOM, config)).write_csv(tmp_path / "h.csv")
            texts.append((tmp_path / "h.csv").read_bytes())
        assert texts[0] == texts[1]
        assert texts[0].startswith(b"# origin_x=-50.0 origin_y=-50.0 cell_mm=10.0\n")


class TestExploreConfig:
    @pytest.mark.parametrize(
        "fields",
        [
            {"descent_step": math.nan},
            {"descent_step": 0.0},
            {"descent_step": -20.0},
            {"max_steps": 0},
            {"n_directions": 0},
            {"n_directions": -8},
            {"max_step_mm": 0.0},
            {"max_step_mm": math.inf},
            {"compressed_s": math.nan},
            {"target_radial": math.inf},
            {"target_z": -math.inf},
            {"max_steps": 5.5},
            {"max_steps": 5.0},
            {"max_steps": True},
            {"n_directions": 2.5},
        ],
    )
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(ConfigError):
            ExploreConfig(**fields)

    def test_numbers_are_stored_as_floats(self):
        """An int or numpy number is stored as a float, so the stop depth
        is a float too; max_steps and n_directions stay ints."""
        cfg = ExploreConfig(descent_step=20, compressed_s=np.int64(45), target_radial=np.float32(15),
                            target_z=np.float64(60), max_step_mm=2)
        assert cfg == ExploreConfig()
        floats = ("descent_step", "compressed_s", "target_radial", "target_z", "max_step_mm")
        assert all(type(getattr(cfg, name)) is float for name in floats)
        assert type(cfg.max_steps) is int and type(cfg.n_directions) is int
        result = explore_tube(Tube(174.0), GEOM, cfg=cfg)
        assert type(result.stop_depth_mm) is float
        assert json.dumps(result.stop_depth_mm) == "100.0"


def reference_scan(scene, geom, cfg):
    """surface_scan as a per-node loop in plain Python: the events as
    (arm, extension, contact, contact z or None) and the events.csv text.
    Raises ArmTooLowError at the first node in visit order that is too low."""
    nx = round(cfg.width / cfg.step_mm) + 1
    ny = round(cfg.height / cfg.step_mm) + 1
    z = cfg.arm_z if cfg.arm_z is not None else geom.s_max + geom.probe_offset
    gx, gy = scene.heights.shape
    events, lines = [], [LOG_HEADER]
    for j in range(ny):
        for i in range(nx) if j % 2 == 0 else range(nx - 1, -1, -1):
            x, y = cfg.origin[0] + i * cfg.step_mm, cfg.origin[1] + j * cfg.step_mm
            ci = math.floor((x - scene.origin[0]) / scene.cell_mm)
            cj = math.floor((y - scene.origin[1]) / scene.cell_mm)
            h = float(scene.heights[ci, cj]) if 0 <= ci < gx and 0 <= cj < gy else 0.0
            tip_min = z - (geom.s_min + geom.probe_offset)
            if tip_min < h:
                raise ArmTooLowError(
                    f"probe tip at minimum extension is {tip_min:.3f} mm, below surface {h:.3f} mm"
                )
            s_exact = z - geom.probe_offset - h
            if s_exact > geom.s_max:
                event = ((x, y, z), geom.s_max, False, None)
            else:
                steps = math.ceil((s_exact - geom.s_min) / cfg.quantum)
                s_q = min(geom.s_min + steps * cfg.quantum, geom.s_max)
                event = ((x, y, z), s_q, True, z - (s_q + geom.probe_offset))
            events.append(event)
            arm = f"{x!r},{y!r},{float(z)!r}"
            lines.append(f"{len(lines) - 1},{arm},0.0,{float(geom.s_min)!r},0,,,")
            point = f"{x!r},{y!r},{event[3]!r}" if event[2] else ",,"
            lines.append(f"{len(lines) - 1},{arm},0.0,{float(event[1])!r},{int(event[2])},{point}")
    return events, "\n".join(lines) + "\n"


def reference_heights(events, cfg):
    """reconstruct's height grid, filled one contact event at a time."""
    contacts = [
        (round((x - cfg.origin[0]) / cfg.step_mm), round((y - cfg.origin[1]) / cfg.step_mm), z)
        for (x, y, _), _, hit, z in events
        if hit
    ]
    i0, j0 = min(c[0] for c in contacts), min(c[1] for c in contacts)
    i1, j1 = max(c[0] for c in contacts), max(c[1] for c in contacts)
    heights = np.full((i1 - i0 + 1, j1 - j0 + 1), np.nan)
    for i, j, z in contacts:
        heights[i - i0, j - j0] = z
    return heights - np.nanmin(heights)


coords = st.floats(-25.0, 25.0)
MIXED = [[0.0, 20.0, 40.0], [10.0, 30.0, 50.0]]
heights = st.one_of(st.floats(0.0, 60.0), st.integers(0, 600).map(lambda k: k / 10))


@settings(max_examples=150, deadline=None)
@given(
    grid=st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.lists(heights, min_size=n, max_size=n),
            min_size=1,
            max_size=9,
        )
    ),
    cell=st.sampled_from([0.7, 1.0, 2.5, 4.0, 10.0]),
    scene_origin=st.tuples(coords, coords),
    size=st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
    step=st.sampled_from([0.5, 1.0, 2.0, 3.3, 7.5]),
    scan_origin=st.tuples(coords, coords),
    lift=st.one_of(st.none(), st.floats(-0.5, 1.2), st.floats(0.05, 0.95)),
    quantum=st.sampled_from([0.1, 0.25, 0.3, 0.5, 2.0]),
)
# A 3x2-cell field inside a larger scan: cells of 30 mm and more reach the
# probe, lower cells and the floor around the field do not (lift 0.5), or
# the 50 mm cell is too low (lift -0.5); 5 and 6 grid rows.
@example(MIXED, 2.5, (-1.0, 3.0), (13.0, 8.0), 2.0, (-3.0, 0.5), 0.5, 0.3)
@example(MIXED, 2.5, (-1.0, 3.0), (13.0, 10.0), 2.0, (-3.0, 0.5), 0.5, 0.3)
@example(MIXED, 2.5, (-1.0, 3.0), (13.0, 10.0), 2.0, (-3.0, 0.5), -0.5, 0.3)
# 41 x 41 nodes: 3,362 log rows, across the writer's 2,048-row chunks.
@example(MIXED, 2.5, (-1.0, 3.0), (40.0, 40.0), 1.0, (-3.0, 0.5), 0.5, 0.3)
def test_array_scan_matches_node_loop(
    log_dir, grid, cell, scene_origin, size, step, scan_origin, lift, quantum
):
    """The arm sits `lift` times the tallest cell above floor reach (None:
    at floor reach), so that some nodes miss the surface or are too low."""
    scene = HeightField(scene_origin, cell, np.array(grid))
    floor_reach = GEOM.s_max + GEOM.probe_offset
    arm_z = None if lift is None else floor_reach + lift * float(scene.heights.max())
    cfg = ScanConfig(size[0], size[1], step, scan_origin, arm_z, quantum)
    try:
        expected, expected_csv = reference_scan(scene, GEOM, cfg)
    except ArmTooLowError as exc:
        with pytest.raises(ArmTooLowError) as got:
            surface_scan(scene, GEOM, cfg)
        assert str(got.value) == str(exc)
        return
    cloud = surface_scan(scene, GEOM, cfg)
    arm, extension, contact, contact_z = zip(*expected)
    assert cloud.arm.tolist() == [list(a) for a in arm]
    assert cloud.extension_mm.tolist() == list(extension)
    assert cloud.contact.tolist() == list(contact)
    np.testing.assert_array_equal(cloud.contact_z, [np.nan if z is None else z for z in contact_z])
    # Line lists, not one string: a failing 3,362-row example then reports
    # its first differing line at once instead of diffing the whole text.
    assert log_text(cloud.log, log_dir).splitlines(keepends=True) == expected_csv.splitlines(keepends=True)
    if cloud.contact_count:
        np.testing.assert_array_equal(reconstruct(cloud).heights, reference_heights(expected, cfg))
    else:
        with pytest.raises(EmptyCloudError):
            reconstruct(cloud)


ONE_RING = ExploreConfig(max_steps=1)


def one_ring(scene):
    """A mission of one ring scan with the arm at the origin."""
    return explore_tube(scene, GEOM, (0.0, 0.0, ONE_RING.descent_step), ONE_RING)


class TestRadialScan:
    """One ring of radial probes: a mission of one ring."""

    def test_clear_tube_no_contacts(self):
        result = one_ring(Tube(174.0))
        assert len(result.alpha) == 8
        assert not result.any_contact
        assert not result.contact.any()
        assert np.isnan(result.contact_point).all()
        # tip never gets near the wall: extension targets reach ~65 mm radially
        assert result.extension_mm == pytest.approx([62.46955909735036] * 8)

    def test_cube_seen_only_on_facing_azimuth(self):
        # cube straddles the +x scan path, in depth range of the sweep
        result = one_ring(Tube(174.0, Cube((45.0, 0.0, -176.0), 40.0)))
        assert result.any_contact
        by_alpha = dict(zip(np.round(np.degrees(result.alpha)).tolist(), result.contact.tolist()))
        assert by_alpha[0]
        assert not by_alpha[180]
        assert not by_alpha[90]
        assert not by_alpha[45]

    def test_contact_stops_extension_early(self):
        result = one_ring(Tube(174.0, Cube((45.0, 0.0, -176.0), 40.0)))
        k = np.flatnonzero(result.contact)[0]
        assert result.extension_mm[k] < 62.4  # stopped mid-extension
        assert np.isfinite(result.contact_point[k]).all()

    def test_narrow_tube_wall_contact(self):
        result = one_ring(Tube(40.0))
        assert result.any_contact
        assert result.contact.all()  # every azimuth reaches the wall

    def test_wall_touch_is_closed(self):
        """A tip at exactly the wall radius touches; one ulp further out does not."""
        reach = np.hypot(*ring_path(GEOM, ONE_RING).tip[:, :2].T).max()
        result = one_ring(Tube(float(reach)))
        assert len(result.contact) == 8 and result.contact.all()
        assert not one_ring(Tube(float(np.nextafter(reach, np.inf)))).any_contact


class TestRingPath:
    def test_waypoints_match_scalar_loop(self):
        cfg = ExploreConfig()
        path = ring_path(GEOM, cfg)
        q0 = (cfg.compressed_s,) * 4
        expected = []
        for k in range(cfg.n_directions):
            alpha = 2.0 * math.pi * k / cfg.n_directions
            radial = cfg.target_radial
            goal = ik((radial * math.cos(alpha), radial * math.sin(alpha), cfg.target_z), GEOM)
            q1 = fk(goal, GEOM).q.tolist()
            m = max(1, math.ceil(max(abs(b - a) for a, b in zip(q0, q1)) / cfg.max_step_mm))
            for j in range(m + 1):
                t = j / m
                s = cfg.compressed_s + t * (goal.s - cfg.compressed_s)
                expected.append((k, t, t * goal.theta, s))
        columns = zip(path.row.tolist(), path.t.tolist(), path.theta.tolist(), path.s.tolist())
        assert list(columns) == expected
        for (k, _, theta, s), q, tip in zip(expected, path.q, path.tip):
            state = ArcState(path.alpha[k], theta, s)
            kin = fk(state, GEOM)
            d = kin.u + GEOM.probe_offset * kin.tangent
            assert tip == pytest.approx((d[0], -d[1], -d[2]), abs=1e-9)
            assert q == pytest.approx(kin.q, abs=1e-9)

    @pytest.mark.parametrize(
        "cfg",
        [
            ExploreConfig(target_z=120.0),  # length beyond s_max
            ExploreConfig(target_radial=0.0, target_z=10.0),  # compression below s_min
            ExploreConfig(target_radial=60.0, target_z=10.0),  # bend beyond pi/2
        ],
    )
    def test_unreachable_goal_raises_the_error_of_ik(self, cfg):
        # Every azimuth fails alike, so the error is azimuth 0's.
        with pytest.raises(UnreachableTargetError) as expected:
            ik((cfg.target_radial, 0.0, cfg.target_z), GEOM)
        with pytest.raises(UnreachableTargetError) as raised:
            ring_path(GEOM, cfg)
        assert str(raised.value) == str(expected.value)

    def test_default_servo_step_within_max_step(self):
        path = ring_path(GEOM)
        same_azimuth = path.row[1:] == path.row[:-1]
        steps = np.abs(np.diff(path.q, axis=0))[same_azimuth]
        assert steps.max() == pytest.approx(1.962, abs=5e-4)
        assert steps.max() <= ExploreConfig().max_step_mm


    def test_servo_range_10_raises_naming_the_azimuth(self):
        # The default ring path needs 40.93 degrees of winding at azimuth 0.
        with pytest.raises(ServoRangeError, match=r"azimuth 0 deg needs 40\.93 deg"):
            explore_tube(make_offset_tube(55.0, GEOM), replace(GEOM, servo_range=10.0))
        assert servo_winding(ring_path(GEOM).q, GEOM).max() == pytest.approx(40.93, abs=5e-3)

    @given(
        servo_range=st.floats(0.0, 120.0),
        pulley_diameter=st.one_of(st.floats(1.0, 140.0), st.sampled_from([5e-324, 1e-300])),
        d=st.floats(4.0, 20.0),
        compressed_s=st.floats(20.0, 70.0),
        target_radial=st.floats(0.0, 30.0),
        target_z=st.floats(45.0, 100.0),
        n_directions=st.integers(1, 12),
        max_step_mm=st.floats(0.5, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_explore_raises_exactly_when_a_waypoint_is_beyond_range(
        self, servo_range, pulley_diameter, d, compressed_s, target_radial, target_z,
        n_directions, max_step_mm,
    ):
        """explore_tube raises ServoRangeError, naming the first azimuth
        beyond range, or every waypoint of its ring path is within range.
        The path does not depend on the servo, so it is built with a servo
        that reaches every waypoint."""
        geom = RobotGeometry(d=d, servo_range=servo_range, pulley_diameter=pulley_diameter)
        cfg = ExploreConfig(max_steps=2, compressed_s=compressed_s, target_radial=target_radial,
                            target_z=target_z, n_directions=n_directions, max_step_mm=max_step_mm)
        try:
            path = ring_path(replace(geom, servo_range=360.0, pulley_diameter=1e6), cfg)
        except CoilkinError as exc:
            with pytest.raises(type(exc)):
                explore_tube(Tube(174.0), geom, cfg=cfg)
            return
        winding = servo_winding(path.q, geom)
        beyond = beyond_servo_range(winding, geom)
        if not beyond.any():
            assert winding.max() <= servo_range + 1e-9
            explore_tube(Tube(174.0), geom, cfg=cfg)
            return
        azimuth = math.degrees(path.alpha[path.row[beyond.argmax()]])
        with pytest.raises(ServoRangeError, match=rf"azimuth {azimuth:g} deg needs"):
            explore_tube(Tube(174.0), geom, cfg=cfg)


def reference_mission(scene, geom, start, cfg):
    """explore_tube as a per-depth, per-waypoint loop over the scalar API:
    the probe rows (alpha, extension, contact, point or None), the log rows
    (arm, alpha, s, contact, point or None) and the stop depth."""
    q0 = fk(ArcState(0.0, 0.0, cfg.compressed_s), geom).q.tolist()
    probes, log, depth = [], [], 0.0
    for _ in range(cfg.max_steps):
        depth += cfg.descent_step
        arm = (start[0], start[1], start[2] - depth)
        log.append((arm, 0.0, cfg.compressed_s, False, None))
        ring = []
        for k in range(cfg.n_directions):
            alpha = 2.0 * math.pi * k / cfg.n_directions
            radial = cfg.target_radial
            goal = ik((radial * math.cos(alpha), radial * math.sin(alpha), cfg.target_z), geom)
            q1 = fk(goal, geom).q.tolist()
            n = max(1, math.ceil(max(abs(b - a) for a, b in zip(q0, q1)) / cfg.max_step_mm))
            probe = (alpha, goal.s, False, None)
            for step in range(n + 1):
                t = step / n
                s = cfg.compressed_s + t * (goal.s - cfg.compressed_s)
                state = ArcState(alpha, t * goal.theta, s)
                kin = fk(state, geom)
                d = kin.u + geom.probe_offset * kin.tangent
                tip = (arm[0] + d[0], arm[1] - d[1], arm[2] - d[2])
                wall = math.hypot(tip[0] - arm[0], tip[1] - arm[1]) >= scene.inner_radius_mm
                if wall or (scene.obstacle is not None and scene.obstacle.contains(tip)):
                    probe = (alpha, state.s, True, tip)
                    break
            ring.append(probe)
            log.append((arm, *probe))
        probes += ring
        if any(p[2] for p in ring):
            log.append((start, 0.0, cfg.compressed_s, False, None))
            break
    return probes, log, depth


def assert_points(actual, expected):
    """(N, 3) points against a list of points or None (NaN rows)."""
    nan = (math.nan,) * 3
    np.testing.assert_allclose(
        actual, [nan if p is None else p for p in expected], rtol=0, atol=1e-9
    )


# descent_step 0.1 over 12 steps: the running sum, not k * 0.1, sets each depth.
FINE = ExploreConfig(descent_step=0.1, max_steps=12)


@pytest.mark.parametrize("radius", [40.0, 60.0, 80.0, 174.0])
# Offset 2.75 stops FINE at depth 0.8999999999999999 (9 * 0.1 is 0.9).
@pytest.mark.parametrize("offset", [2.75, 10.0, 35.0, 55.0, 75.0, 95.0, 130.0])
def test_batched_ring_matches_waypoint_loop(radius, offset):
    """Every ring of a mission, batched over depths, against the scalar loop,
    with the default config and FINE."""
    scene = make_offset_tube(offset, GEOM, inner_radius_mm=radius)
    start = (1.5, -2.0, 3.25)
    for cfg in (ExploreConfig(), FINE):
        result = explore_tube(scene, GEOM, start, cfg)
        probes, log, depth = reference_mission(scene, GEOM, start, cfg)
        assert result.stop_depth_mm == depth
        assert result.any_contact == any(p[2] for p in probes)
        alpha, ext, contact, points = zip(*probes)
        assert result.alpha.tolist() == list(alpha)
        assert result.extension_mm.tolist() == list(ext)
        assert result.contact.tolist() == list(contact)
        assert_points(result.contact_point, points)
        rows = result.log.rows
        assert rows[:, LOG_ARM].tolist() == [list(r[0]) for r in log]
        assert rows[:, LOG_ARM.stop:LOG_CONTACT + 1].tolist() == [[r[1], r[2], float(r[3])] for r in log]
        assert_points(rows[:, LOG_POINT], [r[4] for r in log])


@pytest.mark.parametrize(
    "scene,rings",
    [(Tube(40.0), 1), (make_offset_tube(35.0, GEOM), 2), (make_offset_tube(95.0, GEOM), 5),
     (Tube(174.0), 5)],
)
@pytest.mark.parametrize("n_directions", [8, 5])
def test_one_path_per_mission(monkeypatch, scene, rings, n_directions):
    """The ik kernel runs once and the arc kernel twice, however deep."""
    calls = {"ik_kernel": 0, "arc_kernel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    kernel = counted("arc_kernel", coilkin.kinematics.arc_kernel)
    monkeypatch.setattr(coilkin.kinematics, "arc_kernel", kernel)
    monkeypatch.setattr(coilkin.simulator, "arc_kernel", kernel)
    monkeypatch.setattr(coilkin.simulator, "ik_kernel", counted("ik_kernel", coilkin.simulator.ik_kernel))
    result = explore_tube(scene, GEOM, cfg=ExploreConfig(n_directions=n_directions))
    assert len(result.alpha) == rings * n_directions
    assert calls == {"ik_kernel": 1, "arc_kernel": 2}


class TestExploreTube:
    @pytest.mark.parametrize(
        "offset,expected_stop",
        [(35.0, 40.0), (55.0, 60.0), (75.0, 80.0), (95.0, 100.0)],
    )
    def test_obstacle_stop_depths(self, offset, expected_stop):
        scene = make_offset_tube(offset, GEOM)
        result = explore_tube(scene, GEOM)
        assert result.stop_depth_mm == expected_stop
        assert result.any_contact

    def test_no_obstacle_control(self):
        result = explore_tube(Tube(174.0), GEOM)
        assert result.stop_depth_mm == 100.0
        assert not result.any_contact
        assert not result.contact.any()
        assert len(result.alpha) == len(result.extension_mm) == len(result.contact) == 5 * 8
        assert result.contact_point.shape == (5 * 8, 3)
        assert np.isnan(result.contact_point).all()

    def test_obstacle_below_reach(self):
        result = explore_tube(make_offset_tube(120.0, GEOM), GEOM)
        assert result.stop_depth_mm == 100.0
        assert not result.any_contact

    def test_deeper_obstacle_never_stops_earlier(self):
        stops = [
            explore_tube(make_offset_tube(off, GEOM), GEOM).stop_depth_mm
            for off in (10.0, 30.0, 50.0, 70.0, 90.0, 110.0)
        ]
        assert stops == sorted(stops)

    @pytest.mark.parametrize(
        "start", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0), (1.0, 2.0, 3.0, 4.0), "abc", None]
    )
    def test_rejects_bad_start(self, start):
        with pytest.raises(ConfigError, match="start"):
            explore_tube(Tube(174.0), GEOM, start)

    def test_compressed_length_within_bounds(self):
        with pytest.raises(InvalidStateError, match="backbone length 10.0 outside"):
            explore_tube(Tube(174.0), GEOM, cfg=ExploreConfig(compressed_s=10.0))

    def test_depth_pass_is_capped(self, monkeypatch):
        # Checked before the (depth, waypoint) tips array is built; a lowered
        # cap, so that a missing check cannot allocate much.
        tips = 5 * len(ring_path(GEOM).t)
        monkeypatch.setattr(coilkin.columns, "MAX_NODES", tips)
        assert explore_tube(Tube(174.0), GEOM).stop_depth_mm == 100.0
        with pytest.raises(ConfigError, match="explore depth pass"):
            explore_tube(Tube(174.0), GEOM, cfg=ExploreConfig(max_steps=6))

    def test_arm_moves_only_compressed(self):
        result = explore_tube(make_offset_tube(55.0, GEOM), GEOM)
        rows = log_rows(result.log)
        for prev, row in zip(rows, rows[1:]):
            if row["arm"] != prev["arm"]:
                assert row["s"] == 45.0

    def test_arm_moves_only_vertically(self):
        result = explore_tube(Tube(174.0), GEOM, start=(2.0, -1.0, 0.0))
        rows = log_rows(result.log)
        assert {(row["arm"][0], row["arm"][1]) for row in rows} == {(2.0, -1.0)}

    def test_returns_to_start_after_contact(self):
        result = explore_tube(make_offset_tube(55.0, GEOM), GEOM, start=(3.0, 4.0, 5.0))
        rows = log_rows(result.log)
        assert rows[-1]["arm"] == (3.0, 4.0, 5.0)
        assert rows[-1]["s"] == 45.0


class TestDeterminism:
    def test_scan_logs_are_byte_identical(self, tmp_path):
        logs = []
        for _ in range(2):
            logs.append(log_text(surface_scan(plateau_scene(40.0), GEOM, ScanConfig()).log, tmp_path))
        assert logs[0] == logs[1]

    def test_explore_logs_are_byte_identical(self, tmp_path):
        a = log_text(explore_tube(make_offset_tube(55.0, GEOM), GEOM).log, tmp_path)
        b = log_text(explore_tube(make_offset_tube(55.0, GEOM), GEOM).log, tmp_path)
        assert a == b

    def test_log_header(self, tmp_path):
        text = log_text(one_ring(Tube(174.0)).log, tmp_path)
        assert text.splitlines()[0] == LOG_HEADER
        assert text.endswith("\n")


# Values whose text is easy to get wrong: signed zeros, NaN (an empty
# cell), inf, and extremes of repr's notation.
SPECIAL_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 2.0**60, 0.1, 1 / 3]


def mixed_values(rng, shape):
    """Normal draws, a third of them, on average, replaced by special values."""
    values = rng.normal(scale=100.0, size=shape)
    pick = rng.random(shape) < 1 / 3
    values[pick] = rng.choice(SPECIAL_VALUES, size=int(pick.sum()))
    return values


def reference_log_csv(rows):
    """events.csv as a per-row repr loop over the laid-out log."""
    lines = [LOG_HEADER]
    for step, row in enumerate(rows.tolist()):
        cells = ["" if v != v else repr(v) for v in row]
        cells[LOG_CONTACT] = "1" if row[LOG_CONTACT] != 0.0 else "0"
        lines.append(",".join([str(step), *cells]))
    return "\n".join(lines) + "\n"


# n probes per move and m moves, with m * (n + 1) log rows on both sides of
# the writer's CHUNK_ROWS.
log_shapes = st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.integers(1, 2 * CHUNK_ROWS // (n + 1) + 2), st.just(n))
)


def reference_lay_out(log, arm, alpha, probes, start, stop):
    """MissionLog._lay_out as the divmod rule it replaced: each step index
    split into its move and slot, three gathers and one concatenate."""
    (k, n), m = np.shape(log.s), len(log.move_arm)
    stop = min(stop, m)
    step = np.arange(start * (n + 1), stop * (n + 1) - n * (stop > k))
    move, slot = np.divmod(step, n + 1)
    return step, np.concatenate([arm[move], alpha[slot], probes[(step - move) * (slot > 0)]], axis=1)


def layout_shapes(n):
    """(m, n) with move counts on both sides of one and two write blocks of
    CHUNK_ROWS // (n + 1) moves, and a few small ones."""
    block = CHUNK_ROWS // (n + 1)
    counts = st.one_of(st.integers(0, 4), *(st.integers(b - 1, b + 1) for b in (block, 2 * block)))
    return st.tuples(counts, st.just(n))


class TestMissionLog:
    @given(shape=st.sampled_from([1, 8]).flatmap(layout_shapes), last_probes=st.booleans(),
           alpha_column=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(shape=(0, 1), last_probes=True, alpha_column=False, seed=0)  # k = m = 0
    @example(shape=(1, 8), last_probes=False, alpha_column=True, seed=1)  # k = 0, one move
    @example(shape=(1024, 1), last_probes=False, alpha_column=False, seed=2)  # one full block
    @example(shape=(228, 8), last_probes=True, alpha_column=True, seed=3)  # one block and one move
    @settings(max_examples=40, deadline=None)
    def test_layout_matches_divmod_rule(self, shape, last_probes, alpha_column, seed, log_dir):
        """rows and the bytes write puts are those of the divmod layout
        rule, with k = m or m - 1 probe rows (k = 0 included), n = 1 or 8
        and move counts around the write's block size."""
        (m, n), rng = shape, np.random.default_rng(seed)
        k = m if last_probes else max(m - 1, 0)
        alpha = mixed_values(rng, n) if alpha_column else -0.0
        log = MissionLog(mixed_values(rng, (m, 3)), float(mixed_values(rng, ())[()]), alpha,
                         mixed_values(rng, (k, n)), rng.random((k, n)) < 0.5, mixed_values(rng, (k, n, 3)))
        rows = log.rows
        with patch.object(MissionLog, "_lay_out", reference_lay_out):
            expected = log.rows
            expected_text = log_text(log, log_dir)
        assert rows.shape == expected.shape == (m + k * n, 9)
        assert rows.tobytes() == expected.tobytes()
        assert log_text(log, log_dir) == expected_text

    @given(shape=log_shapes, last_probes=st.booleans(), alpha_column=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(1024, 1), last_probes=True, alpha_column=False, seed=0)  # exactly CHUNK_ROWS
    @example(shape=(1025, 1), last_probes=False, alpha_column=False, seed=1)  # CHUNK_ROWS + 1
    @example(shape=(228, 8), last_probes=False, alpha_column=True, seed=2)
    @example(shape=(1, 3), last_probes=False, alpha_column=True, seed=3)  # only the return move
    @settings(max_examples=30, deadline=None)
    def test_csv_is_repr_of_rows(self, shape, last_probes, alpha_column, seed, log_dir):
        """write puts the laid-out rows formatted one by one with repr, NaN
        as an empty cell; k = m - 1 probe rows leave the last move, as
        explore's return, without probes."""
        (m, n), rng = shape, np.random.default_rng(seed)
        k = m if last_probes else m - 1
        move_arm, move_s = mixed_values(rng, (m, 3)), float(mixed_values(rng, ())[()])
        alpha = mixed_values(rng, n) if alpha_column else -0.0
        s, point = mixed_values(rng, (k, n)), mixed_values(rng, (k, n, 3))
        contact = rng.random((k, n)) < 0.5
        log = MissionLog(move_arm, move_s, alpha, s, contact, point)
        rows = log.rows
        assert rows.shape == (m + k * n, 9)
        np.testing.assert_array_equal(rows[:: n + 1, LOG_ARM], move_arm)
        probes = rows[: k * (n + 1)].reshape(k, n + 1, 9)[:, 1:]
        np.testing.assert_array_equal(probes[..., LOG_S], s)
        np.testing.assert_array_equal(probes[..., LOG_POINT], point)
        expected = reference_log_csv(rows)
        assert log_text(log, log_dir).splitlines(keepends=True) == expected.splitlines(keepends=True)

    def test_scan_and_write_memory_per_node(self, tmp_path):
        """surface_scan and MissionLog.write on a 201 x 201, 1 mm field stay
        below 140 traced bytes per node: the log is laid out a block at a
        time, never as one (2N, 9) array."""
        grid = np.zeros((201, 201))
        grid[50:150, 50:150] = 40.0
        scene = HeightField((0.0, 0.0), 1.0, grid)
        cfg = ScanConfig(200.0, 200.0, 1.0)
        tracemalloc.start()
        try:
            surface_scan(scene, GEOM, cfg).log.write(tmp_path / "events.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / grid.size < 140


def reference_pressure_csv(contact, seed, threshold_hpa):
    """pressure.csv as a per-probe loop: one default_rng(seed) Generator
    draws each probe's 16-sample deviation trace in turn, a 40 hPa step
    from sample 8 on contact, and its first sample at least the threshold
    off the baseline."""
    rng = np.random.default_rng(seed or 0)
    lines = ["event_index,contact,detected_sample"]
    for idx, touched in enumerate(contact):
        trace = rng.normal(0.0, 1.0, 16)
        if touched:
            trace[8:] += 40.0
        hit = next((k for k, p in enumerate(trace) if abs(float(p)) >= threshold_hpa), "")
        lines.append(f"{idx},{int(touched)},{hit}")
    return "\n".join(lines) + "\n"


PRESSURE_COLUMNS = {
    "all_contact": np.ones(300, bool),
    "no_contact": np.zeros(300, bool),
    "mixed": np.random.default_rng(3).random(300) < 0.5,
    "empty": np.zeros(0, bool),
}


class TestPressureSynth:
    def test_no_contact_never_crosses_threshold(self):
        hit = pressure_detections(np.zeros(64, bool), 7, GEOM.contact_threshold)
        assert hit.tolist() == [-1] * 64

    def test_contact_step_detected(self):
        hit = pressure_detections(np.ones(64, bool), 7, GEOM.contact_threshold)
        assert hit.tolist() == [8] * 64

    def test_seed_reproducibility(self):
        # At one noise SD the noise alone crosses, so the column depends on the seed.
        contact = np.arange(32) % 3 == 0
        a = pressure_detections(contact, 11, 1.0)
        assert np.array_equal(a, pressure_detections(contact, 11, 1.0))
        assert not np.array_equal(a, pressure_detections(contact, 12, 1.0))

    @pytest.mark.parametrize("threshold", [GEOM.contact_threshold, 2.5])
    @pytest.mark.parametrize("column", sorted(PRESSURE_COLUMNS))
    @pytest.mark.parametrize("seed", [None, 0, 7])
    def test_csv_matches_reference_loop(self, seed, column, threshold, tmp_path):
        contact = PRESSURE_COLUMNS[column]
        path = tmp_path / "pressure.csv"
        _write_pressure(path, contact, pressure_detections(contact, seed, threshold))
        assert path.read_bytes() == reference_pressure_csv(contact, seed, threshold).encode()

    @given(
        contact=st.lists(st.booleans(), max_size=80),
        k=st.integers(0, 80),
        seed=st.integers(0, 2**32),
        threshold=st.floats(0.5, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_one_stream_contract(self, contact, k, seed, threshold):
        """A probe's trace depends only on (seed, k): the first K probes of
        an N-probe call are a K-probe call, and a call repeats exactly. The
        seeds do not overlap: at 1 hPa, where noise alone crosses, seed
        s + 1's probes are not seed s's probes shifted by one, as they were
        with one generator per probe seeded s + k."""
        contact = np.array(contact, bool)
        hit = pressure_detections(contact, seed, threshold)
        np.testing.assert_array_equal(hit[:k], pressure_detections(contact[:k], seed, threshold))
        np.testing.assert_array_equal(hit, pressure_detections(contact, seed, threshold))
        quiet = np.zeros(64, bool)
        shifted = pressure_detections(quiet, seed, 1.0)[1:]
        assert not np.array_equal(shifted, pressure_detections(quiet, seed + 1, 1.0)[:-1])

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            pressure_detections(np.ones(4, bool), -1, GEOM.contact_threshold)

    @pytest.mark.parametrize("seed", ["a", True, 1.0, np.int64(-2)])
    def test_seed_must_be_none_or_an_int(self, seed):
        # A bool is not a seed: True used to run as seed 1.
        with pytest.raises(ConfigError, match="pressure seed must be None or an int >= 0"):
            pressure_detections(np.ones(4, bool), seed, GEOM.contact_threshold)

    def test_numpy_int_seed_is_an_int(self):
        contact = np.arange(32) % 3 == 0
        np.testing.assert_array_equal(pressure_detections(contact, np.uint8(11), 1.0),
                                      pressure_detections(contact, 11, 1.0))

    @pytest.mark.parametrize("threshold", ["x", "1.5", True, None, math.nan, math.inf])
    def test_threshold_passes_the_number_rule(self, threshold):
        with pytest.raises(ConfigError, match="pressure threshold_hpa must be a number"):
            pressure_detections(np.ones(4, bool), 0, threshold)
