"""Servo mapping and trajectory interpolation."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilkin import (
    RobotGeometry,
    ServoRangeError,
    TendonSet,
    interpolate,
    max_payout,
    servo_to_tendon,
    tendon_to_servo,
)
from coilkin.actuation import beyond_servo_range, pulley_angle, step_count

GEOM = RobotGeometry()
HOME = TendonSet(70.0, 70.0, 70.0, 70.0)

tendon_sets = st.builds(
    TendonSet,
    st.floats(1.0, 120.0),
    st.floats(1.0, 120.0),
    st.floats(1.0, 120.0),
    st.floats(1.0, 120.0),
)


class TestTendonToServo:
    def test_home_needs_no_actuation(self):
        cmd = tendon_to_servo(HOME, HOME, GEOM)
        assert cmd.angles == (0.0, 0.0, 0.0, 0.0)
        assert cmd.slack == (False, False, False, False)

    def test_full_compression(self):
        # 50 mm of shortening on every 70 mm pulley
        cmd = tendon_to_servo(TendonSet(20.0, 20.0, 20.0, 20.0), HOME, GEOM)
        expected = 50.0 / (math.pi * 70.0) * 360.0
        assert expected == pytest.approx(81.85, abs=0.01)
        assert cmd.angles == pytest.approx((expected,) * 4)
        assert all(a <= GEOM.servo_range for a in cmd.angles)

    def test_quarter_bend_inner_tendon(self):
        q1 = 51.15044407846124
        cmd = tendon_to_servo(TendonSet(q1, 70.0, 70.0, 70.0), HOME, GEOM)
        assert cmd.angle1 == pytest.approx((70.0 - q1) / (math.pi * 70.0) * 360.0)
        assert cmd.angle1 == pytest.approx(30.857142857142858, abs=1e-9)

    def test_slack_tendon_clamps_to_zero(self):
        cmd = tendon_to_servo(TendonSet(70.0, 70.0, 80.0, 70.0), HOME, GEOM)
        assert cmd.angle3 == 0.0
        assert cmd.slack3 is True
        assert cmd.slack1 is False

    def test_out_of_range(self):
        small = replace(GEOM, servo_range=10.0)
        with pytest.raises(ServoRangeError):
            tendon_to_servo(TendonSet(20.0, 70.0, 70.0, 70.0), HOME, small)

    @given(q=st.floats(1.0, 70.0), shorter=st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_shortening(self, q, shorter):
        a = tendon_to_servo(TendonSet(q, 70.0, 70.0, 70.0), HOME, GEOM).angle1
        b = tendon_to_servo(TendonSet(max(q - shorter, 0.5), 70.0, 70.0, 70.0), HOME, GEOM).angle1
        assert b >= a

    @given(target=tendon_sets)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_non_slack(self, target):
        try:
            cmd = tendon_to_servo(target, HOME, GEOM)
        except ServoRangeError:
            return
        back = servo_to_tendon(cmd, HOME, GEOM)
        for q_t, q_b, is_slack in zip(target.as_tuple(), back.as_tuple(), cmd.slack):
            if not is_slack:
                assert q_b == pytest.approx(q_t, abs=1e-9)

    def test_csv_line(self):
        cmd = tendon_to_servo(TendonSet(20.0, 70.0, 80.0, 70.0), HOME, GEOM)
        cells = cmd.to_csv_line().split(",")
        assert len(cells) == 8
        assert float(cells[0]) == pytest.approx(81.85, abs=0.01)
        assert cells[4:] == ["0", "0", "1", "0"]


class TestMaxPayout:
    def test_defaults(self):
        assert max_payout(GEOM) == pytest.approx(73.30382858376183)
        assert max_payout(GEOM) >= 50.0  # full compression is feasible

    def test_linear_in_diameter(self):
        assert max_payout(replace(GEOM, pulley_diameter=35.0)) == pytest.approx(
            max_payout(GEOM) / 2.0
        )

    def test_zero_range(self):
        assert max_payout(replace(GEOM, servo_range=0.0)) == 0.0


class TestInterpolate:
    def test_equal_endpoints_single_waypoint(self):
        traj = interpolate(HOME, HOME, 2.0)
        assert traj.waypoints == (HOME,)
        assert traj.step_count == 1

    def test_uniform_compression(self):
        target = TendonSet(20.0, 20.0, 20.0, 20.0)
        traj = interpolate(HOME, target, 2.0)
        assert traj.step_count == 25
        assert len(traj.waypoints) == 26
        assert traj.waypoints[0] == HOME
        assert traj.waypoints[-1] == target
        for a, b in zip(traj.waypoints, traj.waypoints[1:]):
            deltas = [y - x for x, y in zip(a.as_tuple(), b.as_tuple())]
            assert deltas == pytest.approx([-2.0] * 4)

    def test_remainder_in_final_step(self):
        traj = interpolate(TendonSet(50.0, 60.0, 60.0, 60.0), TendonSet(60.0, 60.0, 60.0, 60.0), 3.0)
        assert traj.step_count == 4
        q1s = [w.q1 for w in traj.waypoints]
        steps = [b - a for a, b in zip(q1s, q1s[1:])]
        assert steps == pytest.approx([3.0, 3.0, 3.0, 1.0])

    @given(start=tendon_sets, stop=tendon_sets, max_step=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_step_bound_and_exact_endpoints(self, start, stop, max_step):
        traj = interpolate(start, stop, max_step)
        assert traj.waypoints[0] == start
        assert traj.waypoints[-1] == stop
        for a, b in zip(traj.waypoints, traj.waypoints[1:]):
            for x, y in zip(a.as_tuple(), b.as_tuple()):
                assert abs(y - x) <= max_step + 1e-9

    def test_bad_step(self):
        with pytest.raises(ValueError):
            interpolate(HOME, HOME, 0.0)


class TestSharedRules:
    @given(tendon_sets, tendon_sets, st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_step_count_matches_interpolate(self, start, stop, step):
        expected = interpolate(start, stop, step).step_count
        assert step_count(start.as_tuple(), stop.as_tuple(), step) == expected

    def test_step_count_batches(self):
        stops = [(70.0, 70.0, 70.0, 70.0), (60.0, 70.0, 70.0, 70.0), (70.0, 70.0, 70.0, 19.5)]
        assert step_count(HOME.as_tuple(), stops, 2.0).tolist() == [1, 5, 26]

    def test_step_count_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            step_count(HOME.as_tuple(), HOME.as_tuple(), 0.0)

    @given(tendon_sets, st.floats(0.0, 360.0))
    @settings(max_examples=300, deadline=None)
    def test_batched_bound_agrees_with_tendon_to_servo(self, target, servo_range):
        geom = replace(GEOM, servo_range=servo_range)
        shortening = max(h - q for h, q in zip(HOME.as_tuple(), target.as_tuple()))
        try:
            tendon_to_servo(target, HOME, geom)
            raised = False
        except ServoRangeError:
            raised = True
        assert bool(beyond_servo_range(pulley_angle(shortening, geom), geom)) == raised
