"""Mission simulation: vertical probes, surface scans, tube exploration."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coilkin import (
    ArcState,
    ArmTooLowError,
    ConfigError,
    Cube,
    EmptyCloudError,
    ExploreConfig,
    HeightField,
    MissionLog,
    PressureSynth,
    RobotGeometry,
    ScanConfig,
    Tube,
    detect_contact,
    explore_tube,
    fk_point,
    ik,
    interpolate,
    probe_vertical,
    radial_scan,
    reconstruct,
    surface_scan,
    tendon_lengths,
)
from coilkin.cli import make_offset_tube
from coilkin.kinematics import tip_tangent
from coilkin.simulator import LOG_HEADER

GEOM = RobotGeometry()
FLAT = HeightField((0.0, 0.0), 10.0, np.zeros((21, 21)))


def plateau_scene(height=40.0, i0=5, i1=10, j0=5, j1=10):
    grid = np.zeros((21, 21))
    grid[i0:i1, j0:j1] = height
    return HeightField((0.0, 0.0), 10.0, grid)


def parse_log_rows(log):
    rows = []
    for line in log.to_csv().splitlines()[1:]:
        cells = line.split(",")
        rows.append(
            {
                "arm": (float(cells[1]), float(cells[2]), float(cells[3])),
                "alpha": float(cells[4]),
                "s": float(cells[5]),
                "contact": cells[6] == "1",
            }
        )
    return rows


class TestProbeVertical:
    def test_out_of_reach(self):
        event = probe_vertical(FLAT, (50.0, 50.0, 200.0), GEOM)
        assert not event.contact
        assert event.extension_mm == GEOM.s_max
        assert event.contact_point is None

    def test_flat_contact_at_50(self):
        event = probe_vertical(FLAT, (50.0, 50.0, 156.0), GEOM)
        assert event.contact
        assert event.extension_mm == pytest.approx(50.0)
        assert event.contact_point[2] == pytest.approx(0.0)

    def test_contact_at_minimum_extension(self):
        scene = plateau_scene(30.0)
        event = probe_vertical(scene, (70.0, 70.0, 156.0), GEOM)
        assert event.contact
        assert event.extension_mm == pytest.approx(GEOM.s_min)
        assert event.contact_point[2] == pytest.approx(30.0)

    def test_arm_too_low(self):
        scene = plateau_scene(35.0)
        with pytest.raises(ArmTooLowError):
            probe_vertical(scene, (70.0, 70.0, 156.0), GEOM)

    def test_quantization_rounds_up(self):
        scene = plateau_scene(30.3)
        event = probe_vertical(scene, (70.0, 70.0, 176.0), GEOM)
        # exact extension 39.7 mm -> next 0.5 mm grid point 40.0
        assert event.extension_mm == pytest.approx(40.0)
        measured = 176.0 - (event.extension_mm + GEOM.probe_offset)
        assert 30.3 - 0.5 <= measured <= 30.3


class TestSurfaceScan:
    def test_empty_scene_control(self):
        cloud = surface_scan(FLAT, GEOM, ScanConfig(arm_z=200.0))
        assert len(cloud.events) == 441
        assert cloud.contact_count == 0

    def test_plateau_heights_within_quantum(self):
        scene = plateau_scene(40.0)
        cloud = surface_scan(scene, GEOM)  # floor exactly reachable
        assert cloud.contact_count == 441
        for event in cloud.events:
            truth = scene.height_at(event.arm[0], event.arm[1])
            measured = event.contact_point[2]
            assert truth - 0.5 <= measured <= truth + 1e-9

    def test_zig_zag_order(self):
        cloud = surface_scan(FLAT, GEOM, ScanConfig(width=20.0, height=20.0, step_mm=10.0))
        xs = [e.arm[0] for e in cloud.events]
        ys = [e.arm[1] for e in cloud.events]
        assert xs == [0.0, 10.0, 20.0, 20.0, 10.0, 0.0, 0.0, 10.0, 20.0]
        assert ys == [0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0]

    def test_retract_before_move(self):
        log = MissionLog()
        surface_scan(plateau_scene(40.0), GEOM, ScanConfig(width=50.0, height=50.0), log)
        rows = parse_log_rows(log)
        for prev, row in zip(rows, rows[1:]):
            if row["arm"] != prev["arm"]:
                assert row["s"] == GEOM.s_min

    def test_arm_stays_in_scan_plane(self):
        log = MissionLog()
        surface_scan(FLAT, GEOM, ScanConfig(width=40.0, height=40.0), log)
        zs = {row["arm"][2] for row in parse_log_rows(log)}
        assert len(zs) == 1

    def test_completeness_reachable_cells_contact(self):
        # Arm at 191 mm: cells of height >= 15 are reachable, the floor is not.
        scene = plateau_scene(30.0, 4, 9, 4, 9)
        cloud = surface_scan(scene, GEOM, ScanConfig(arm_z=191.0))
        for event in cloud.events:
            reachable = scene.height_at(event.arm[0], event.arm[1]) >= 191.0 - GEOM.probe_offset - GEOM.s_max
            assert event.contact == reachable
        assert cloud.contact_count == 25

    def test_box_scene_single_component(self):
        scene = plateau_scene(25.0, 8, 14, 9, 12)  # board-eraser proportions
        cloud = surface_scan(scene, GEOM)
        tall = {
            (round(e.arm[0]), round(e.arm[1]))
            for e in cloud.events
            if e.contact and e.contact_point[2] > 12.5
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
            {"arm_z": math.inf},
        ],
    )
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(ConfigError):
            ScanConfig(**fields)

    def test_zero_extent_is_one_node(self):
        cloud = surface_scan(FLAT, GEOM, ScanConfig(width=0.0, height=0.0))
        assert len(cloud.events) == 1


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
        ],
    )
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(ConfigError):
            ExploreConfig(**fields)


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
    grid, cell, scene_origin, size, step, scan_origin, lift, quantum
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
    log = MissionLog()
    cloud = surface_scan(scene, GEOM, cfg, log)
    arm, extension, contact, contact_z = zip(*expected)
    assert cloud.arm.tolist() == [list(a) for a in arm]
    assert cloud.extension_mm.tolist() == list(extension)
    assert cloud.contact.tolist() == list(contact)
    np.testing.assert_array_equal(cloud.contact_z, [np.nan if z is None else z for z in contact_z])
    assert [(e.arm, e.extension_mm, e.contact) for e in cloud.events] == [e[:3] for e in expected]
    assert log.to_csv() == expected_csv
    if cloud.contact_count:
        np.testing.assert_array_equal(reconstruct(cloud).heights, reference_heights(expected, cfg))
    else:
        with pytest.raises(EmptyCloudError):
            reconstruct(cloud)


class TestRadialScan:
    def test_clear_tube_no_contacts(self):
        events, hit = radial_scan(Tube(174.0), GEOM, (0.0, 0.0, 0.0))
        assert len(events) == 8
        assert not hit
        assert all(not e.contact for e in events)
        # tip never gets near the wall: extension targets reach ~65 mm radially
        assert all(e.extension_mm == pytest.approx(62.46955909735036) for e in events)

    def test_cube_seen_only_on_facing_azimuth(self):
        # cube straddles the +x scan path, in depth range of the sweep
        scene = Tube(174.0, Cube((45.0, 0.0, -176.0), 40.0))
        events, hit = radial_scan(scene, GEOM, (0.0, 0.0, 0.0))
        assert hit
        by_alpha = {round(math.degrees(e.alpha)): e.contact for e in events}
        assert by_alpha[0]
        assert not by_alpha[180]
        assert not by_alpha[90]
        assert not by_alpha[45]

    def test_contact_stops_extension_early(self):
        scene = Tube(174.0, Cube((45.0, 0.0, -176.0), 40.0))
        events, _ = radial_scan(scene, GEOM, (0.0, 0.0, 0.0))
        hit = [e for e in events if e.contact][0]
        assert hit.extension_mm < 62.4  # stopped mid-extension
        assert hit.contact_point is not None

    def test_narrow_tube_wall_contact(self):
        events, hit = radial_scan(Tube(40.0), GEOM, (0.0, 0.0, 0.0))
        assert hit
        assert all(e.contact for e in events)  # every azimuth reaches the wall


def reference_ring(scene, geom, arm, cfg=ExploreConfig()):
    """radial_scan as a per-waypoint loop over the scalar API, stopping at
    the first waypoint whose bristle tip touches the wall or the obstacle."""
    q0 = tendon_lengths(ArcState.from_arc(0.0, 0.0, cfg.compressed_s), GEOM)
    events = []
    for k in range(cfg.n_directions):
        alpha = 2.0 * math.pi * k / cfg.n_directions
        radial = cfg.target_radial
        goal = ik((radial * math.cos(alpha), radial * math.sin(alpha), cfg.target_z), geom)
        n = interpolate(q0, tendon_lengths(goal, geom), cfg.max_step_mm).step_count
        event = (alpha, goal.s, False, None)
        for step in range(n + 1):
            t = step / n
            s = cfg.compressed_s + t * (goal.s - cfg.compressed_s)
            state = ArcState.from_arc(alpha, t * goal.theta, s)
            d = fk_point(state, geom) + geom.probe_offset * tip_tangent(state)
            tip = (arm[0] + d[0], arm[1] - d[1], arm[2] - d[2])
            wall = math.hypot(tip[0] - arm[0], tip[1] - arm[1]) >= scene.inner_radius_mm
            if wall or (scene.obstacle is not None and scene.obstacle.contains(tip)):
                event = (alpha, state.s, True, tip)
                break
        events.append(event)
    return events


@pytest.mark.parametrize("radius", [40.0, 60.0, 80.0, 174.0])
@pytest.mark.parametrize("offset", [10.0, 35.0, 55.0, 75.0, 95.0, 130.0])
def test_batched_ring_matches_waypoint_loop(radius, offset):
    scene = make_offset_tube(offset, GEOM, inner_radius_mm=radius)
    for depth in (20.0, 60.0, 100.0):
        arm = (1.5, -2.0, -depth)
        events, hit = radial_scan(scene, GEOM, arm)
        expected = reference_ring(scene, GEOM, arm)
        assert hit == any(e[2] for e in expected)
        for event, (alpha, ext, contact, point) in zip(events, expected, strict=True):
            assert (event.alpha, event.extension_mm, event.contact) == (alpha, ext, contact)
            if contact:
                assert event.contact_point == pytest.approx(point, abs=1e-9)


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
        assert sum(1 for e in result.events if e.contact) == 0
        assert len(result.events) == 5 * 8

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

    def test_arm_moves_only_compressed(self):
        result = explore_tube(make_offset_tube(55.0, GEOM), GEOM)
        rows = parse_log_rows(result.log)
        for prev, row in zip(rows, rows[1:]):
            if row["arm"] != prev["arm"]:
                assert row["s"] == 45.0

    def test_arm_moves_only_vertically(self):
        result = explore_tube(Tube(174.0), GEOM, start=(2.0, -1.0, 0.0))
        rows = parse_log_rows(result.log)
        assert {(row["arm"][0], row["arm"][1]) for row in rows} == {(2.0, -1.0)}

    def test_returns_to_start_after_contact(self):
        result = explore_tube(make_offset_tube(55.0, GEOM), GEOM, start=(3.0, 4.0, 5.0))
        rows = parse_log_rows(result.log)
        assert rows[-1]["arm"] == (3.0, 4.0, 5.0)
        assert rows[-1]["s"] == 45.0


class TestDeterminism:
    def test_scan_logs_are_byte_identical(self):
        logs = []
        for _ in range(2):
            log = MissionLog()
            surface_scan(plateau_scene(40.0), GEOM, ScanConfig(), log)
            logs.append(log.to_csv())
        assert logs[0] == logs[1]

    def test_explore_logs_are_byte_identical(self):
        a = explore_tube(make_offset_tube(55.0, GEOM), GEOM).log.to_csv()
        b = explore_tube(make_offset_tube(55.0, GEOM), GEOM).log.to_csv()
        assert a == b

    def test_log_header(self):
        log = MissionLog()
        log.add((0.0, 0.0, 0.0), 0.0, 20.0)
        text = log.to_csv()
        assert text.splitlines()[0] == LOG_HEADER
        assert text.endswith("\n")


class TestPressureSynth:
    def test_no_contact_never_crosses_threshold(self):
        synth = PressureSynth(seed=7)
        trace = synth.trace(64)
        assert detect_contact(trace, synth.baseline_hpa, GEOM.contact_threshold) is None

    def test_contact_step_detected(self):
        synth = PressureSynth(seed=7)
        trace = synth.trace(64, contact_at=40)
        assert detect_contact(trace, synth.baseline_hpa, GEOM.contact_threshold) == 40

    def test_seed_reproducibility(self):
        a = PressureSynth(seed=11).trace(32, contact_at=5)
        b = PressureSynth(seed=11).trace(32, contact_at=5)
        assert np.array_equal(a, b)
        c = PressureSynth(seed=12).trace(32, contact_at=5)
        assert not np.array_equal(a, c)
