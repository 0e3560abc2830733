"""Servo mapping, the servo bound and the step rule."""

import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilkin import RobotGeometry, TendonSet, max_payout, servo_angles
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


def one_row(target, home=HOME, geom=GEOM):
    """Angles, slack flags and the servo bound of one tendon set, as lists."""
    angles, slack = servo_angles(astuple(target), astuple(home), geom)
    return angles.tolist(), slack.tolist(), beyond_servo_range(angles, geom).tolist()


class TestTendonToServo:
    """The servo rule on one row: servo_angles of one tendon set, bounded by
    beyond_servo_range."""

    def test_home_needs_no_actuation(self):
        angles, slack, beyond = one_row(HOME)
        assert angles == [0.0, 0.0, 0.0, 0.0]
        assert slack == beyond == [False, False, False, False]

    def test_full_compression(self):
        # 50 mm of shortening on every 70 mm pulley
        angles, _, beyond = one_row(TendonSet(20.0, 20.0, 20.0, 20.0))
        expected = 50.0 / (math.pi * 70.0) * 360.0
        assert expected == pytest.approx(81.85, abs=0.01)
        assert angles == pytest.approx([expected] * 4)
        assert not any(beyond)

    def test_quarter_bend_inner_tendon(self):
        q1 = 51.15044407846124
        angles, _, _ = one_row(TendonSet(q1, 70.0, 70.0, 70.0))
        assert angles[0] == pytest.approx((70.0 - q1) / (math.pi * 70.0) * 360.0)
        assert angles[0] == pytest.approx(30.857142857142858, abs=1e-9)

    def test_slack_tendon_clamps_to_zero(self):
        angles, slack, _ = one_row(TendonSet(70.0, 70.0, 80.0, 70.0))
        assert angles[2] == 0.0
        assert slack[2] is True
        assert slack[0] is False

    def test_out_of_range(self):
        # 40 and 50 mm of shortening on tendons 2 and 3, both beyond 10 deg.
        small = replace(GEOM, servo_range=10.0)
        angles, _, beyond = one_row(TendonSet(70.0, 30.0, 20.0, 70.0), geom=small)
        assert angles[1:3] == pytest.approx([65.48, 81.85], abs=0.01)
        assert beyond == [False, True, True, False]

    @given(q=st.floats(1.0, 70.0), shorter=st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_shortening(self, q, shorter):
        a = one_row(TendonSet(q, 70.0, 70.0, 70.0))[0][0]
        b = one_row(TendonSet(max(q - shorter, 0.5), 70.0, 70.0, 70.0))[0][0]
        assert b >= a


class TestServoAngles:
    @given(
        targets=st.lists(tendon_sets, min_size=1, max_size=8),
        home=tendon_sets,
        servo_range=st.floats(0.0, 360.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_tendon_to_servo_is_one_row(self, targets, home, servo_range):
        """One batched call gives, row for row, the angles and slack flags of
        a one-row call, and both follow the pulley formula
        (home - q) * 360 / (pi * D) of the shortening, 0 where slack."""
        geom = replace(GEOM, servo_range=servo_range)
        angles, slack = servo_angles([astuple(t) for t in targets], astuple(home), geom)
        assert angles.shape == slack.shape == (len(targets), 4)
        for target, row_angles, row_slack in zip(targets, angles, slack):
            assert one_row(target, home, geom)[:2] == (row_angles.tolist(), row_slack.tolist())
            shortening = [h - q for h, q in zip(astuple(home), astuple(target))]
            oracle = [max(v, 0.0) * 360 / (math.pi * geom.pulley_diameter) for v in shortening]
            assert row_angles.tolist() == pytest.approx(oracle, rel=1e-12)
            assert row_slack.tolist() == [v < 0.0 for v in shortening]

    def test_broadcasts_home(self):
        q = np.array([[[70.0, 60.0, 80.0, 70.0]], [[20.0, 20.0, 20.0, 20.0]]])
        angles, slack = servo_angles(q, 70.0, GEOM)
        assert angles.shape == slack.shape == (2, 1, 4)
        assert angles[0, 0].tolist() == [0.0, pulley_angle(10.0, GEOM), 0.0, 0.0]
        assert slack[0, 0].tolist() == [False, False, True, False]
        assert not slack[1].any()

    @pytest.mark.parametrize("diameter", [5e-324, 1e-310, 1e-307, 1e-306])
    def test_tiny_pulley_gives_zero_or_out_of_range(self, diameter):
        """Zero and slack shortenings wind 0 degrees, positive ones land out
        of range, and an overflowing product is inf; nothing warns."""
        geom = replace(GEOM, pulley_diameter=diameter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            angles, slack = servo_angles([[70.0, 69.0, 71.0, 20.0]], 70.0, geom)
            beyond = beyond_servo_range(angles, geom)
        assert angles[0, [0, 2, 3]].tolist() == [0.0, 0.0, math.inf]
        assert slack.tolist() == [[False, False, True, False]]
        assert beyond.tolist() == [[False, True, False, True]]


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
        assert step_count(astuple(HOME), astuple(HOME), 2.0) == 1

    def test_uniform_compression(self):
        assert step_count(astuple(HOME), (20.0, 20.0, 20.0, 20.0), 2.0) == 25

    def test_remainder_takes_a_step(self):
        assert step_count((50.0, 60.0, 60.0, 60.0), (60.0, 60.0, 60.0, 60.0), 3.0) == 4

    @given(start=tendon_sets, stop=tendon_sets, max_step=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_fewest_steps_within_max_step(self, start, stop, max_step):
        n = step_count(astuple(start), astuple(stop), max_step)
        biggest = max(abs(b - a) for a, b in zip(astuple(start), astuple(stop)))
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
        q0 = astuple(tendon_lengths(ArcState(0.0, 0.0, cfg.compressed_s), GEOM))
        ends = np.append(path.starts[1:], len(path.t)) - 1
        for k, alpha in enumerate(path.alpha.tolist()):
            goal = ik((radial * math.cos(alpha), radial * math.sin(alpha), cfg.target_z), GEOM)
            q1 = astuple(tendon_lengths(goal, GEOM))
            assert ends[k] - path.starts[k] == step_count(q0, q1, step)
            assert path.q[path.starts[k]] == pytest.approx(q0, abs=1e-9)
            assert path.q[ends[k]] == pytest.approx(q1, abs=1e-9)

    def test_step_count_batches(self):
        stops = [(70.0, 70.0, 70.0, 70.0), (60.0, 70.0, 70.0, 70.0), (70.0, 70.0, 70.0, 19.5)]
        assert step_count(astuple(HOME), stops, 2.0).tolist() == [1, 5, 26]

    def test_step_count_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            step_count(astuple(HOME), astuple(HOME), 0.0)

    @given(tendon_sets, st.floats(0.0, 360.0))
    @settings(max_examples=300, deadline=None)
    def test_batched_bound_agrees_with_tendon_to_servo(self, target, servo_range):
        """One row is beyond the servo range exactly when its largest
        shortening is."""
        geom = replace(GEOM, servo_range=servo_range)
        shortening = max(h - q for h, q in zip(astuple(HOME), astuple(target)))
        assert any(one_row(target, geom=geom)[2]) == bool(
            beyond_servo_range(pulley_angle(shortening, geom), geom)
        )
