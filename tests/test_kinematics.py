"""Kinematics tests.

Frozen expected values come from independent oracles: the quarter-bend
translation from numerically integrating the backbone's unit tangent, the
tendon cases from direct evaluation of the anchor-point formulas, and the
transform from recomposing the frame chain with primitive rotations. The
r-based frame chain itself lives in kinematics_oracle, beside this file.
"""

import math
import sys
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from coilkin import (
    ArcState,
    DegenerateTargetError,
    InvalidStateError,
    RobotGeometry,
    UnreachableTargetError,
    fk,
    ik,
    ik_kernel,
)
from coilkin.kinematics import HALF_PI, PLANAR_EPS, TIE_EPS, arc_kernel
from kinematics_oracle import (
    attachment_points,
    fk_transform,
    ik_reference,
    is_rigid_transform,
    rot_y,
    rot_z,
    translation,
)

GEOM = RobotGeometry()

# 140/pi, checked below against the arc-integral oracle
QUARTER = 44.563384065730695


def arc_integral_oracle(alpha, theta, s, n=200_000):
    """Integrate the backbone unit tangent along its length (midpoint rule)."""
    u = (np.arange(n) + 0.5) / n * theta
    tangent = np.stack(
        [np.sin(u) * math.cos(alpha), np.sin(u) * math.sin(alpha), np.cos(u)]
    )
    return tangent.sum(axis=1) * (s / n)


def composed_transform(state):
    """D->C->U rebuilt from primitive rotations and translations."""
    d_to_c = rot_z(state.alpha) @ translation(state.r, 0.0, 0.0)
    c_to_u = rot_y(state.theta) @ translation(-state.r, 0.0, 0.0) @ rot_z(-state.alpha)
    return d_to_c @ c_to_u


def angles_close(a, b, tol=1e-9):
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d) <= tol


class TestFkTransform:
    def test_straight_is_pure_translation(self):
        t = fk_transform(ArcState(0.0, 0.0, 70.0), GEOM)
        assert np.allclose(t[:3, :3], np.eye(3), atol=0.0)
        assert np.allclose(t[:3, 3], [0.0, 0.0, 70.0], atol=0.0)

    def test_quarter_bend_translation(self):
        state = ArcState(0.0, math.pi / 2, 70.0)
        u = fk_transform(state, GEOM)[:3, 3]
        oracle = arc_integral_oracle(0.0, math.pi / 2, 70.0)
        assert np.allclose(oracle, [QUARTER, 0.0, QUARTER], atol=1e-8)
        assert u == pytest.approx([QUARTER, 0.0, QUARTER], abs=1e-9)

    def test_quarter_bend_y_plane(self):
        state = ArcState(math.pi / 2, math.pi / 2, 70.0)
        u = fk_transform(state, GEOM)[:3, 3]
        oracle = arc_integral_oracle(math.pi / 2, math.pi / 2, 70.0)
        assert np.allclose(u, oracle, atol=1e-8)
        assert u == pytest.approx([0.0, QUARTER, QUARTER], abs=1e-9)

    @given(
        alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(1e-3, math.pi / 2),
        s=st.floats(20.0, 70.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_frame_composition(self, alpha, theta, s):
        # Below theta ~ 1e-3 the huge arc radius amplifies rounding in both
        # routes; the continuity test covers that regime instead.
        state = ArcState(alpha, theta, s)
        assert np.allclose(fk_transform(state, GEOM), composed_transform(state), atol=1e-9)

    @given(
        alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(0.0, math.pi / 2),
        s=st.floats(20.0, 70.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rotation_block_is_orthonormal(self, alpha, theta, s):
        assert is_rigid_transform(fk_transform(ArcState(alpha, theta, s), GEOM))

    def test_continuity_at_small_theta(self):
        state = ArcState(1.3, 1e-6, 50.0)
        kin = fk(state, GEOM)
        assert kin.u == pytest.approx([0.0, 0.0, 50.0], abs=1e-3)
        assert kin.q == pytest.approx((50.0,) * 4, abs=1e-3)

    def test_invalid_states_rejected(self):
        with pytest.raises(InvalidStateError):
            fk_transform(ArcState(0.0, math.pi / 2 + 0.01, 70.0), GEOM)
        with pytest.raises(InvalidStateError):
            fk_transform(ArcState(0.0, 0.1, 19.0), GEOM)
        with pytest.raises(InvalidStateError):
            fk_transform(ArcState(0.0, 0.1, 71.0), GEOM)


class TestFkTip:
    def test_straight_stack(self):
        tip = fk(ArcState(0.0, 0.0, 70.0), GEOM).e
        assert tip == pytest.approx([0.0, 0.0, 123.0], abs=0.0)

    def test_quarter_bend_tip(self):
        tip = fk(ArcState(0.0, math.pi / 2, 70.0), GEOM).e
        assert tip == pytest.approx([QUARTER + 53.0, 0.0, QUARTER], abs=1e-9)

    def test_mirror_bend_reduces_to_spring_top(self):
        geom = replace(GEOM, l=0.0)
        tip = fk(ArcState(math.pi, math.pi / 2, 70.0), geom).e
        assert tip == pytest.approx([-QUARTER, 0.0, QUARTER], abs=1e-9)

    @given(
        alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(1e-3, math.pi / 2),
        s=st.floats(20.0, 70.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_half_turn_mirrors_through_z(self, alpha, theta, s):
        a = fk(ArcState(alpha, theta, s), GEOM).e
        b = fk(ArcState(alpha + math.pi, theta, s), GEOM).e
        assert b == pytest.approx([-a[0], -a[1], a[2]], abs=1e-9)


class TestIk:
    def test_pure_compression(self):
        state = ik((0.0, 0.0, 50.0), GEOM)
        assert state.alpha == 0.0
        assert state.theta == 0.0
        assert state.s == 50.0
        assert math.isinf(state.r)

    def test_quarter_bend_round_trip(self):
        state = ik((QUARTER, 0.0, QUARTER), GEOM)
        assert state.alpha == pytest.approx(0.0, abs=1e-12)
        assert state.theta == pytest.approx(math.pi / 2, rel=1e-12)
        assert state.r == pytest.approx(QUARTER, rel=1e-12)
        assert state.s == pytest.approx(70.0, rel=1e-12)

    @pytest.mark.parametrize(
        "target", [("12", 0, 60), (True, 0, 60), ("x", 0, 60), (12.0, None, 60.0), (12.0, 0.0), 12.0]
    )
    def test_target_passes_the_number_rule(self, target):
        # A numeric string or a bool is not a coordinate, and no failure
        # escapes as a bare ValueError or TypeError.
        with pytest.raises(UnreachableTargetError, match="target coordinates must be"):
            ik(target, GEOM)

    def test_numpy_scalar_target(self):
        target = (np.float32(15.0), np.int64(0), np.float64(60.0))
        assert ik(target, GEOM) == ik((15.0, 0.0, 60.0), GEOM)

    def test_mirror_quarter_bend(self):
        # A quarter bend toward -X at s = 70 lands on (-r, 0, r), r = 140/pi.
        state = ik((-44.56338406573069, 0.0, QUARTER), GEOM)
        assert state.alpha == pytest.approx(math.pi, rel=1e-12)
        assert state.theta == pytest.approx(math.pi / 2, rel=1e-12)
        assert state.s == pytest.approx(70.0, rel=1e-9)

    def test_shallow_bend_plus_y(self):
        # 10 degrees toward +Y at z = 60: r = 60 / sin(10 deg), s = r * 10 deg.
        state = ik((0.0, 5.249319811555455, 60.0), GEOM)
        assert state.alpha == pytest.approx(math.pi / 2, rel=1e-12)
        assert state.theta == pytest.approx(math.radians(10.0), rel=1e-9)
        assert state.s == pytest.approx(60.30570347851262, rel=1e-9)

    def test_exploration_target(self):
        target = (15.0 * math.cos(math.pi / 4), 15.0 * math.sin(math.pi / 4), 60.0)
        state = ik(target, GEOM)
        # r = (225 + 3600) / (2 * 15) and theta = acos(3375 / 3825), frozen
        assert state.r == pytest.approx(127.5, rel=1e-12)
        assert state.theta == pytest.approx(0.48995732625372834, rel=1e-12)
        assert state.alpha == pytest.approx(math.pi / 4, rel=1e-12)
        assert state.s == pytest.approx(62.46955909735036, rel=1e-12)

    def test_unreachable_and_degenerate(self):
        with pytest.raises(UnreachableTargetError):
            ik((70.0, 0.0, 70.0), GEOM)  # s = 70*pi/2 > s_max
        with pytest.raises(UnreachableTargetError):
            ik((50.0, 0.0, 10.0), GEOM)  # bend angle beyond pi/2
        with pytest.raises(UnreachableTargetError):
            ik((0.0, 0.0, 10.0), GEOM)  # too short
        with pytest.raises(UnreachableTargetError):
            ik((0.0, 0.0, 80.0), GEOM)  # too long
        with pytest.raises(UnreachableTargetError):
            ik((10.0, 0.0, -30.0), GEOM)  # below base plane
        with pytest.raises(DegenerateTargetError):
            ik((0.0, 0.0, 0.0), GEOM)

    @given(
        alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(1e-3, math.pi / 2),
        s=st.floats(20.0, 70.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, alpha, theta, s):
        state = ArcState(alpha, theta, s)
        back = ik(fk(state, GEOM).u, GEOM)
        assert angles_close(back.alpha, state.alpha)
        assert back.theta == pytest.approx(theta, rel=1e-9, abs=1e-9)
        assert back.r == pytest.approx(state.r, rel=1e-9)

    @given(
        alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(0.01, math.pi / 2),
        r=st.floats(5.0, 500.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_identity(self, alpha, theta, r):
        # Point straight from the arc expressions, fed through the inverse
        # with bounds wide enough to never interfere.
        wide = replace(GEOM, s_min=1e-9, s_max=1e9)
        ct = math.cos(theta)
        point = (
            r * math.cos(alpha) * (1.0 - ct),
            r * math.sin(alpha) * (1.0 - ct),
            r * math.sin(theta),
        )
        back = ik(point, wide)
        assert angles_close(back.alpha, alpha % (2.0 * math.pi), tol=1e-9)
        assert back.theta == pytest.approx(theta, rel=1e-9)
        assert back.r == pytest.approx(r, rel=1e-9)


class TestAttachmentPoints:
    def test_straight_rigid_translation(self):
        state = ArcState(0.0, 0.0, 70.0)
        lower, upper = attachment_points(state, GEOM)
        for pl, ph in zip(lower, upper):
            assert ph == pytest.approx(pl + np.array([0.0, 0.0, 70.0]), abs=0.0)

    def test_quarter_bend_third_and_first(self):
        state = ArcState(0.0, math.pi / 2, 70.0)
        _, upper = attachment_points(state, GEOM)
        assert upper[2] == pytest.approx([QUARTER, 0.0, 12.0 + QUARTER], abs=1e-9)
        assert upper[0] == pytest.approx([QUARTER, 0.0, QUARTER - 12.0], abs=1e-9)

    @given(
        alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(1e-6, math.pi / 2),
        s=st.floats(20.0, 70.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_upper_points_match_branch_formulas(self, alpha, theta, s):
        # Independent evaluation of the four per-tendon expansions.
        state = ArcState(alpha, theta, s)
        d = GEOM.d
        ca, sa = math.cos(alpha), math.sin(alpha)
        ct, st_ = math.cos(theta), math.sin(theta)
        r = state.r
        xu, yu, zu = r * ca * (1 - ct), r * sa * (1 - ct), r * st_
        expected = [
            (d * ca * ca * ct + d * sa * sa + xu, d * sa * ca * ct - d * sa * ca + yu, -d * ca * st_ + zu),
            (d * sa * ca * ct - d * sa * ca + xu, d * sa * sa * ct + d * ca * ca + yu, -d * sa * st_ + zu),
            (-d * ca * ca * ct - d * sa * sa + xu, -d * sa * ca * ct + d * sa * ca + yu, d * ca * st_ + zu),
            (-d * sa * ca * ct + d * sa * ca + xu, -d * sa * sa * ct - d * ca * ca + yu, d * sa * st_ + zu),
        ]
        _, upper = attachment_points(state, GEOM)
        for ph, exp in zip(upper, expected):
            assert ph == pytest.approx(exp, abs=1e-9)


class TestTendonLengths:
    def test_straight_all_equal_backbone(self):
        q = fk(ArcState(0.0, 0.0, 45.0), GEOM).q
        assert q.tolist() == [45.0, 45.0, 45.0, 45.0]

    def test_quarter_bend_inner_arc(self):
        q = fk(ArcState(0.0, math.pi / 2, 70.0), GEOM).q
        # (r - d) * theta = 70 - 6*pi
        assert q[0] == pytest.approx(70.0 - 6.0 * math.pi, abs=1e-9)
        assert q[0] == pytest.approx(51.15044407846124, abs=1e-9)

    def test_quarter_bend_outer_chord(self):
        q = fk(ArcState(0.0, math.pi / 2, 70.0), GEOM).q
        oracle = math.dist((-12.0, 0.0, 0.0), (QUARTER, 0.0, 12.0 + QUARTER))
        assert q[2] == pytest.approx(oracle, abs=1e-9)
        assert q[2] == pytest.approx(79.99270487947457, abs=1e-9)

    def test_boundary_tie_takes_chord(self):
        # At alpha = 0 tendons 2 and 4 sit exactly on the case boundary.
        state = ArcState(0.0, math.pi / 2, 70.0)
        q = fk(state, GEOM).q
        _, upper = attachment_points(state, GEOM)
        chord2 = math.dist((0.0, 12.0, 0.0), tuple(upper[1]))
        arc2 = math.hypot(state.r, 12.0) * state.theta
        assert q[1] == pytest.approx(chord2, abs=1e-12)
        assert q[3] == pytest.approx(chord2, abs=1e-12)
        assert abs(q[1] - arc2) > 1.0  # the two branches differ clearly here

    @given(
        alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(1e-3, math.pi / 2),
        s=st.floats(20.0, 70.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_half_turn_swaps_opposite_tendons(self, alpha, theta, s):
        # The arc/chord case split is discontinuous where an anchor sits on
        # the boundary (alpha at a multiple of pi/2); stay off it.
        off_boundary = abs(math.remainder(alpha, math.pi / 2))
        assume(off_boundary > 1e-6)
        qa = fk(ArcState(alpha, theta, s), GEOM).q
        qb = fk(ArcState(alpha + math.pi, theta, s), GEOM).q
        assert qb == pytest.approx(qa[[2, 3, 0, 1]], abs=1e-9)

    @given(
        alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(1e-3, math.pi / 2),
        s=st.floats(20.0, 70.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_all_positive(self, alpha, theta, s):
        q = fk(ArcState(alpha, theta, s), GEOM).q
        assert (q > 0.0).all()


# Generic bend-plane angles plus the quadrant angles and their 1e-13 rad
# neighbourhoods, where anchors sit on the arc/chord case boundary.
near_quadrant_alphas = st.one_of(
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    st.builds(
        lambda k, eps: k * math.pi / 2 + eps, st.integers(0, 3), st.floats(-1e-13, 1e-13)
    ),
)


class TestTieRule:
    def test_margin_is_small(self):
        assert 0.0 < TIE_EPS <= 1e-9

    @given(alpha=near_quadrant_alphas, theta=st.floats(0.0, math.pi / 2), s=st.floats(20.0, 70.0))
    @example(alpha=0.0, theta=math.pi / 2, s=70.0)
    @example(alpha=math.pi / 2, theta=1.0, s=60.0)
    @example(alpha=math.pi, theta=1.0, s=60.0)
    @example(alpha=1.5 * math.pi, theta=1.0, s=60.0)
    @example(alpha=1e-13, theta=1.0, s=60.0)
    @settings(max_examples=300, deadline=None)
    def test_quarter_turn_permutes_tendons(self, alpha, theta, s):
        # Tendon i+1 faces alpha + pi/2 the way tendon i faces alpha.
        q = fk(ArcState(alpha, theta, s), GEOM).q
        turned = fk(ArcState(alpha + math.pi / 2, theta, s), GEOM).q
        assert turned == pytest.approx(np.roll(q, 1), abs=1e-12)

    def test_rounding_of_alpha_does_not_switch_branch(self):
        # theta = 1 rad, s = 60: arc and chord of tendon 2 differ by 3.66 mm here.
        at_zero = fk(ArcState(0.0, 1.0, 60.0), GEOM).q
        nudged = fk(ArcState(1e-13, 1.0, 60.0), GEOM).q
        assert nudged == pytest.approx(at_zero, abs=1e-9)


class TestArcKernel:
    def test_straight_is_exact(self):
        kin = arc_kernel([0.0, 1.0, 2.5, 4.0], 0.0, 37.5, GEOM.d, GEOM.l)
        assert np.array_equal(kin.u, np.tile([0.0, 0.0, 37.5], (4, 1)))
        assert not np.signbit(kin.u).any()
        assert np.array_equal(kin.e, np.tile([0.0, 0.0, 90.5], (4, 1)))
        assert np.array_equal(kin.q, np.full((4, 4), 37.5))

    def test_broadcast_shapes(self):
        kin = arc_kernel(np.linspace(0.0, 6.0, 5), 0.4, 50.0, GEOM.d, GEOM.l)
        assert kin.u.shape == kin.tangent.shape == kin.e.shape == (5, 3)
        assert kin.q.shape == (5, 4)
        grid = arc_kernel(np.zeros((2, 1)), np.array([0.1, 0.2, 0.3]), 50.0, GEOM.d, GEOM.l)
        assert grid.u.shape == (2, 3, 3)
        assert grid.q.shape == (2, 3, 4)

    def test_batch_matches_scalar_wrappers(self):
        rng = np.random.default_rng(11)
        alpha = rng.uniform(0.0, 2.0 * math.pi, 64)
        theta = rng.uniform(0.0, math.pi / 2, 64)
        s = rng.uniform(20.0, 70.0, 64)
        kin = arc_kernel(alpha, theta, s, GEOM.d, GEOM.l)
        for i in range(64):
            state = ArcState(alpha[i], theta[i], s[i])
            for got, row in zip(fk(state, GEOM), kin):
                assert got == pytest.approx(row[i], abs=1e-12)

    @given(
        alpha=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(1e-3, math.pi / 2),
        s=st.floats(20.0, 70.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_frame_chain_oracle(self, alpha, theta, s):
        state = ArcState(alpha, theta, s)
        kin = arc_kernel(state.alpha, state.theta, state.s, GEOM.d, GEOM.l)
        t = fk_transform(state, GEOM)
        assert kin.u == pytest.approx(t[:3, 3], abs=1e-9)
        assert kin.tangent == pytest.approx(t[:3, 2], abs=1e-12)
        assert kin.e == pytest.approx(t[:3, 3] + GEOM.l * t[:3, 2], abs=1e-9)
        # Anchor-point oracle: arc about the arc center, or straight chord.
        lower, upper = attachment_points(state, GEOM)
        cx, cy = state.r * math.cos(state.alpha), state.r * math.sin(state.alpha)
        for i, (pl, ph) in enumerate(zip(lower, upper)):
            facing = math.cos(state.alpha - i * math.pi / 2)
            assume(abs(facing - TIE_EPS) > 1e-12)
            expected = (
                math.hypot(pl[0] - cx, pl[1] - cy) * state.theta
                if facing > TIE_EPS
                else math.dist(pl, ph)
            )
            assert kin.q[i] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "alpha,theta,s",
        [
            (math.nan, 0.1, 50.0),
            (math.inf, 0.1, 50.0),
            (0.1, math.nan, 50.0),
            (0.1, 0.1, math.nan),
            (0.1, 0.0, math.inf),
        ],
    )
    def test_wrappers_reject_non_finite_states(self, alpha, theta, s):
        # The wrappers take only an ArcState, and one with a non-finite
        # field cannot be built.
        with pytest.raises(InvalidStateError, match="finite"):
            ArcState(alpha, theta, s)


# Floats at the edges of ArcState's domain: signed zeros, subnormals, the
# collapse threshold of theta and its neighbours, tiny negatives, the pi/2
# bound and the float just above it, the float extremes and the non-finite.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, -1e-12,
    math.nextafter(1e-12, 0.0), 1e-12, 1.0, HALF_PI, math.nextafter(HALF_PI, math.inf),
    1e308, -1e308, math.inf, -math.inf, math.nan,
]
any_float = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))


class TestArcStateDomain:
    @given(alpha=any_float, theta=any_float, s=any_float)
    @example(alpha=0.0, theta=-0.0, s=50.0)
    @example(alpha=0.0, theta=-1e-300, s=50.0)
    @example(alpha=0.0, theta=math.nextafter(HALF_PI, math.inf), s=50.0)
    @example(alpha=-1e-20, theta=5e-324, s=-0.0)
    @example(alpha=math.inf, theta=0.5, s=50.0)
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_its_domain(self, alpha, theta, s):
        if not (math.isfinite(alpha) and math.isfinite(s) and 0.0 <= theta <= HALF_PI):
            with pytest.raises(InvalidStateError):
                ArcState(alpha, theta, s)
            return
        state = ArcState(alpha, theta, s)
        assert 0.0 <= state.alpha < 2.0 * math.pi
        assert state.s == s
        if theta < 1e-12:
            assert state.theta == 0.0 and math.copysign(1.0, state.theta) == 1.0
            assert state.r == math.inf
            return
        assert state.theta == theta
        # Division can be undone to 1e-15 only away from overflow of r and
        # from the subnormal range of r and s.
        normal = sys.float_info.min
        if math.isfinite(state.r) and (s == 0.0 or min(abs(s), abs(state.r)) >= normal):
            assert state.r * theta == pytest.approx(s, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "fields", [("1", 0, "50"), (True, 0, 50), (0.0, np.array(0.1), 50.0), (0.0, 0.1, None)]
    )
    def test_fields_pass_the_number_rule(self, fields):
        # A numeric string, a bool or a 0-d array is not a number.
        with pytest.raises(InvalidStateError, match=r"arc state (alpha|theta|s) must be a number"):
            ArcState(*fields)

    def test_numbers_are_stored_as_floats(self):
        state = ArcState(1, np.float32(0.5), np.int64(50))
        assert (state.alpha, state.theta, state.s) == (1.0, 0.5, 50.0)
        assert all(type(v) is float for v in (state.alpha, state.theta, state.s))

    def test_is_frozen_with_three_fields(self):
        state = ArcState(0.5, 0.25, 40.0)
        assert [f.name for f in fields(ArcState)] == ["alpha", "theta", "s"]
        assert state.r == 160.0
        with pytest.raises(FrozenInstanceError):
            state.s = 1.0


def test_alpha_wraps_into_range():
    state = ArcState(-math.pi / 2, 0.1, 50.0)
    assert state.alpha == pytest.approx(1.5 * math.pi)
    assert 0.0 <= ArcState(7.0 * math.pi, 0.1, 50.0).alpha < 2.0 * math.pi
    # -1e-20 % 2*pi rounds to the excluded 2*pi endpoint; must land on 0
    assert ArcState(-1e-20, 0.1, 50.0).alpha == 0.0


# Statuses of ik_kernel and the error that coilkin.ik raises for each.
IK_ERRORS = {
    0: None,
    1: DegenerateTargetError,
    2: UnreachableTargetError,
    3: UnreachableTargetError,
    4: UnreachableTargetError,
}
# z of the targets (QUARTER, 0, z) whose bend angle is the float just
# below HALF_PI * (1 + 1e-12), the limit itself and the float just above.
BEND_LIMIT_Z = (44.5633840656607, 44.56338406566069, 44.56338406566068)
LENGTH_LIMIT = GEOM.s_max + 1e-9 * GEOM.s_max
target_coordinate = st.one_of(
    st.floats(-80.0, 80.0), st.floats(), st.sampled_from(EDGE_FLOATS + [PLANAR_EPS])
)


@st.composite
def ik_targets(draw):
    """Half the time the spring top of an arc state whose length lies near
    the default bounds, in math; else any three coordinates."""
    if draw(st.booleans()):
        return tuple(draw(target_coordinate) for _ in range(3))
    alpha = draw(st.floats(0.0, 2.0 * math.pi))
    theta = draw(st.floats(0.0, math.pi / 2))
    s = draw(st.floats(15.0, 75.0))
    if theta == 0.0:
        return (0.0, 0.0, s)
    r = s / theta
    lean = r * (1.0 - math.cos(theta))
    return (lean * math.cos(alpha), lean * math.sin(alpha), r * math.sin(theta))


def ulps_apart(a, b) -> int:
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


class TestIkKernel:
    @given(target=ik_targets())
    @example(target=(QUARTER, 0.0, BEND_LIMIT_Z[0]))
    @example(target=(QUARTER, 0.0, BEND_LIMIT_Z[1]))
    @example(target=(QUARTER, 0.0, BEND_LIMIT_Z[2]))
    @example(target=(0.0, 0.0, math.nextafter(LENGTH_LIMIT, 0.0)))
    @example(target=(0.0, 0.0, LENGTH_LIMIT))
    @example(target=(0.0, 0.0, math.nextafter(LENGTH_LIMIT, math.inf)))
    @example(target=(PLANAR_EPS, 0.0, 50.0))
    @example(target=(math.nextafter(PLANAR_EPS, 0.0), 0.0, 50.0))
    @example(target=(1e-7, -1e-7, -1e-7))
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, target):
        """The kernel's status names the error of the math reference, and
        where both succeed they agree within 4 ulps."""
        x, y, z = target
        try:
            expected = ik_reference((x, y, z), GEOM)
        except (DegenerateTargetError, UnreachableTargetError) as exc:
            expected = exc
        alpha, theta, s, status = ik_kernel(x, y, z, GEOM.s_min, GEOM.s_max)
        error = IK_ERRORS[int(status)]
        event(f"status {int(status)}")
        if error is not None:
            assert type(expected) is error, expected
            with pytest.raises(error):
                ik((x, y, z), GEOM)
            return
        assert isinstance(expected, ArcState), expected
        assert ulps_apart(alpha, expected.alpha) <= 4
        assert ulps_apart(theta, expected.theta) <= 4
        assert ulps_apart(s, expected.s) <= 4
        assert ik((x, y, z), GEOM) == ArcState(float(alpha), float(theta), float(s))

    def test_boundary_examples_land_on_both_sides(self):
        statuses = [int(ik_kernel(QUARTER, 0.0, z, GEOM.s_min, GEOM.s_max)[3]) for z in BEND_LIMIT_Z]
        assert statuses == [0, 0, 3]
        length = [math.nextafter(LENGTH_LIMIT, 0.0), LENGTH_LIMIT, math.nextafter(LENGTH_LIMIT, math.inf)]
        assert ik_kernel(0.0, 0.0, length, GEOM.s_min, GEOM.s_max)[3].tolist() == [0, 0, 4]
        planar = [PLANAR_EPS, math.nextafter(PLANAR_EPS, 0.0)]
        _, theta, s, status = ik_kernel(planar, 0.0, 50.0, GEOM.s_min, GEOM.s_max)
        assert status.tolist() == [0, 0]
        assert theta[0] > 0.0 and theta[1] == 0.0 and s[1] == 50.0

    @pytest.mark.parametrize(
        "target,status",
        [
            ((15.0, 0.0, 60.0), 0),
            ((0.0, 0.0, 0.0), 1),
            ((10.0, 0.0, -30.0), 2),
            ((50.0, 0.0, 10.0), 3),
            ((70.0, 0.0, 70.0), 4),
            ((0.0, 0.0, 80.0), 4),
            ((0.0, 0.0, -30.0), 4),  # pure compression is never below the base
            ((math.nan, 0.0, 50.0), 4),
            ((1e308, 1e308, 1e308), 4),
        ],
    )
    def test_status_codes(self, target, status):
        assert ik_kernel(*target, GEOM.s_min, GEOM.s_max)[3] == status

    def test_broadcasts_rows_as_scalar_calls(self):
        x = np.array([15.0, 0.0, 70.0, -1e-300, 10.0, -20.0])
        y = np.array([[0.0], [-1e-20]])
        z = np.array([[[60.0]], [[45.0]], [[-5.0]]])
        alpha, theta, s, status = ik_kernel(x, y, z, GEOM.s_min, GEOM.s_max)
        assert alpha.shape == theta.shape == s.shape == status.shape == (3, 2, 6)
        for index in np.ndindex(status.shape):
            target = (x[index[2]], y[index[1], 0], z[index[0], 0, 0])
            row = ik_kernel(*target, GEOM.s_min, GEOM.s_max)
            assert row[3] == status[index]
            if status[index] == 0:
                assert (alpha[index], theta[index], s[index]) == tuple(row[:3])
                assert 0.0 <= alpha[index] < 2.0 * math.pi

    def test_tiny_negative_angle_wraps_to_zero(self):
        alpha, _, _, status = ik_kernel(15.0, -1e-20, 60.0, GEOM.s_min, GEOM.s_max)
        assert status == 0 and alpha == 0.0 and not np.signbit(alpha)
