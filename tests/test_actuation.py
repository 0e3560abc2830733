"""Servo mapping, the servo bound and the step rule."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coilkin import ConfigError, RobotGeometry, max_payout, servo_winding
from coilkin.actuation import beyond_servo_range, step_count
from coilkin.kinematics import ArcState, fk, ik
from coilkin.simulator import ExploreConfig, ring_path

GEOM = RobotGeometry()
HOME = (70.0, 70.0, 70.0, 70.0)  # GEOM.s_max on every tendon

# Four tendon lengths in mm, tendons 1..4 counterclockwise from +x.
tendon_sets = st.tuples(*[st.floats(1.0, 120.0)] * 4)
# Pulleys of every size, with subnormal and near-overflow ones on which a
# winding overflows to inf.
TINY_PULLEYS = [5e-324, 1e-310, 1e-307, 1e-306, 1e-300]
pulleys = st.one_of(st.floats(1.0, 140.0), st.sampled_from(TINY_PULLEYS))


def one_row(target, geom=GEOM):
    """The winding of one tendon set and its servo bound, as Python values."""
    winding = servo_winding(target, geom)
    return float(winding), bool(beyond_servo_range(winding, geom))


def reference_winding(target, geom):
    """The winding value by value: the largest over the tendons of the
    shortening from s_max times 360 / (pi * D), 0 where it is not positive."""
    per_mm = 360.0 / (math.pi * geom.pulley_diameter)
    return max((geom.s_max - q) * per_mm if geom.s_max - q > 0.0 else 0.0 for q in target)


class TestTendonToServo:
    """The servo rule on one row: servo_winding of one tendon set, bounded
    by beyond_servo_range."""

    def test_home_needs_no_actuation(self):
        assert one_row(HOME) == (0.0, False)

    def test_full_compression(self):
        # 50 mm of shortening on every 70 mm pulley
        winding, beyond = one_row((20.0, 20.0, 20.0, 20.0))
        expected = 50.0 / (math.pi * 70.0) * 360.0
        assert expected == pytest.approx(81.85, abs=0.01)
        assert winding == pytest.approx(expected)
        assert not beyond

    def test_quarter_bend_inner_tendon(self):
        q1 = 51.15044407846124
        winding, _ = one_row((q1, 70.0, 70.0, 70.0))
        assert winding == pytest.approx((70.0 - q1) / (math.pi * 70.0) * 360.0)
        assert winding == pytest.approx(30.857142857142858, abs=1e-9)

    def test_slack_tendon_clamps_to_zero(self):
        """A tendon longer than the home pays out freely: alone it winds
        0 degrees, and beside a shortened one it leaves that winding as is."""
        assert one_row((70.0, 70.0, 80.0, 70.0)) == (0.0, False)
        assert one_row((60.0, 70.0, 80.0, 70.0)) == one_row((60.0, 70.0, 70.0, 70.0))

    def test_out_of_range(self):
        # 40 and 50 mm of shortening on tendons 2 and 3, both beyond 10 deg;
        # the winding is that of the most-shortened tendon.
        small = replace(GEOM, servo_range=10.0)
        assert one_row((70.0, 30.0, 70.0, 70.0), small) == (pytest.approx(65.48, abs=0.01), True)
        assert one_row((70.0, 30.0, 20.0, 70.0), small) == (pytest.approx(81.85, abs=0.01), True)

    @given(q=st.floats(1.0, 70.0), shorter=st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_shortening(self, q, shorter):
        a = one_row((q, 70.0, 70.0, 70.0))[0]
        b = one_row((max(q - shorter, 0.5), 70.0, 70.0, 70.0))[0]
        assert b >= a


class TestServoAngles:
    """servo_winding over a batch of tendon sets."""

    @given(
        targets=st.lists(st.one_of(tendon_sets, st.just(HOME)), min_size=1, max_size=8),
        s_max=st.floats(20.5, 120.0),
        pulley_diameter=pulleys,
    )
    @example(targets=[HOME, (70.0, 69.0, 71.0, 20.0), (71.0, 80.0, 70.0, 120.0)], s_max=70.0,
             pulley_diameter=5e-324)
    @example(targets=[(70.0, 70.0 - 1e-3, 70.0, 70.0 + 1e-3)], s_max=70.0, pulley_diameter=1e-306)
    @settings(max_examples=300, deadline=None)
    def test_tendon_to_servo_is_one_row(self, targets, s_max, pulley_diameter):
        """One batched call gives, row for row and under ==, the winding of
        a one-row call and of reference_winding, over random sets, sets at
        or beside the home with slack tendons, and pulleys whose winding
        overflows; nothing warns."""
        geom = replace(GEOM, s_max=s_max, pulley_diameter=pulley_diameter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            winding = servo_winding(targets, geom)
        assert winding.shape == (len(targets),)
        assert winding.tolist() == [reference_winding(target, geom) for target in targets]
        assert winding.tolist() == [one_row(target, geom)[0] for target in targets]

    def test_broadcasts_over_leading_axes(self):
        q = np.array([[[70.0, 60.0, 80.0, 70.0]], [[20.0, 20.0, 20.0, 20.0]]])
        winding = servo_winding(q, GEOM)
        assert winding.shape == (2, 1)
        assert winding.ravel().tolist() == [one_row((60.0, 70.0, 70.0, 70.0))[0], one_row(q[1, 0])[0]]

    @pytest.mark.parametrize("diameter", [5e-324, 1e-310, 1e-307, 1e-306])
    def test_tiny_pulley_gives_zero_or_out_of_range(self, diameter):
        """Sets at the home, slack ones included, wind 0 degrees, shortened
        ones land out of range, and an overflowing product is inf; nothing
        warns."""
        geom = replace(GEOM, pulley_diameter=diameter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            winding = servo_winding(
                [[70.0, 70.0, 71.0, 70.0], [70.0, 69.0, 71.0, 70.0], [70.0, 69.0, 71.0, 20.0]], geom)
            beyond = beyond_servo_range(winding, geom)
        assert winding[[0, 2]].tolist() == [0.0, math.inf]
        assert beyond.tolist() == [False, True, True]


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
        assert step_count(HOME, HOME, 2.0) == 1

    def test_uniform_compression(self):
        assert step_count(HOME, (20.0, 20.0, 20.0, 20.0), 2.0) == 25

    def test_remainder_takes_a_step(self):
        assert step_count((50.0, 60.0, 60.0, 60.0), (60.0, 60.0, 60.0, 60.0), 3.0) == 4

    @given(start=tendon_sets, stop=tendon_sets, max_step=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_fewest_steps_within_max_step(self, start, stop, max_step):
        n = step_count(start, stop, max_step)
        biggest = max(abs(b - a) for a, b in zip(start, stop))
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
        q0 = fk(ArcState(0.0, 0.0, cfg.compressed_s), GEOM).q.tolist()
        ends = np.append(path.starts[1:], len(path.t)) - 1
        for k, alpha in enumerate(path.alpha.tolist()):
            goal = ik((radial * math.cos(alpha), radial * math.sin(alpha), cfg.target_z), GEOM)
            q1 = fk(goal, GEOM).q.tolist()
            assert ends[k] - path.starts[k] == step_count(q0, q1, step)
            assert path.q[path.starts[k]] == pytest.approx(q0, abs=1e-9)
            assert path.q[ends[k]] == pytest.approx(q1, abs=1e-9)

    def test_step_count_batches(self):
        stops = [(70.0, 70.0, 70.0, 70.0), (60.0, 70.0, 70.0, 70.0), (70.0, 70.0, 70.0, 19.5)]
        assert step_count(HOME, stops, 2.0).tolist() == [1, 5, 26]

    def test_step_count_rejects_non_positive_step(self):
        with pytest.raises(ConfigError):
            step_count(HOME, HOME, 0.0)

    @given(tendon_sets, st.floats(0.0, 360.0))
    @settings(max_examples=300, deadline=None)
    def test_batched_bound_agrees_with_tendon_to_servo(self, target, servo_range):
        """A tendon set is beyond the servo range exactly when one of its
        tendons, with the others at the home, is."""
        geom = replace(GEOM, servo_range=servo_range)
        alone = [HOME[:i] + (q,) + HOME[i + 1 :] for i, q in enumerate(target)]
        assert one_row(target, geom)[1] == any(one_row(q, geom)[1] for q in alone)
