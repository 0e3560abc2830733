"""Servo mapping, the servo bound and the step rule."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilkin import (
    RobotGeometry,
    ServoRangeError,
    TendonSet,
    max_payout,
    servo_to_tendon,
    tendon_to_servo,
)
from coilkin.actuation import beyond_servo_range, pulley_angle, step_count
from coilkin.kinematics import ArcState, ik, tendon_lengths
from coilkin.simulator import ExploreConfig, ring_path

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


class TestStepCount:
    def test_equal_endpoints_single_step(self):
        assert step_count(HOME.as_tuple(), HOME.as_tuple(), 2.0) == 1

    def test_uniform_compression(self):
        assert step_count(HOME.as_tuple(), (20.0, 20.0, 20.0, 20.0), 2.0) == 25

    def test_remainder_takes_a_step(self):
        assert step_count((50.0, 60.0, 60.0, 60.0), (60.0, 60.0, 60.0, 60.0), 3.0) == 4

    @given(start=tendon_sets, stop=tendon_sets, max_step=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_fewest_steps_within_max_step(self, start, stop, max_step):
        n = step_count(start.as_tuple(), stop.as_tuple(), max_step)
        biggest = max(abs(b - a) for a, b in zip(start.as_tuple(), stop.as_tuple()))
        assert n >= 1
        assert biggest / n <= max_step * (1 + 1e-12)
        assert n == 1 or biggest / (n - 1) > max_step * (1 - 1e-12)


class TestSharedRules:
    @given(st.floats(0.1, 10.0), st.floats(0.0, 25.0))
    @settings(max_examples=50, deadline=None)
    def test_step_count_matches_interpolate(self, step, radial):
        """The ring path interpolates each azimuth from the compressed to the
        goal tendon set in step_count steps, endpoints exact."""
        cfg = ExploreConfig(max_step_mm=step, target_radial=radial)
        path = ring_path(GEOM, cfg)
        q0 = tendon_lengths(ArcState(0.0, 0.0, cfg.compressed_s), GEOM).as_tuple()
        ends = np.append(path.starts[1:], len(path.t)) - 1
        for k, alpha in enumerate(path.alpha.tolist()):
            goal = ik((radial * math.cos(alpha), radial * math.sin(alpha), cfg.target_z), GEOM)
            q1 = tendon_lengths(goal, GEOM).as_tuple()
            assert ends[k] - path.starts[k] == step_count(q0, q1, step)
            assert path.q[path.starts[k]] == pytest.approx(q0, abs=1e-9)
            assert path.q[ends[k]] == pytest.approx(q1, abs=1e-9)

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
