"""Closed-form constant-curvature kinematics of the spring backbone.

The backbone centerline is a circular arc: alpha rotates the bending plane
about the base z axis, theta is the bend angle subtended at the arc center
and s the backbone length; the arc radius r = s/theta follows from them.
Frame D sits at the spring bottom, U at the spring top, E at the tip. All
lengths are millimeters, all angles radians.

U, the tip tangent, E and the tendon lengths come from arc_kernel, which
broadcasts over arrays. The scalar functions wrap it for one ArcState,
which checks itself when built; they add only the geometry's length bound.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTargetError, InvalidStateError, UnreachableTargetError
from .geometry import RobotGeometry

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Targets closer than this to the z axis take the pure-compression branch;
# the bend-plane equations divide by the radial offset and blow up there.
PLANAR_EPS = 1e-6
ORIGIN_EPS = 1e-9
# Tendon i is an arc only where cos(alpha - phi_i) exceeds this, a chord
# otherwise (ties included); the margin keeps rounding off the boundary.
TIE_EPS = 1e-9
ANCHOR_ANGLES = np.arange(4) * HALF_PI  # phi_i of tendons 1..4


@dataclass(frozen=True, slots=True)
class ArcState:
    """One constant-curvature configuration, checked on construction.

    alpha is wrapped into [0, 2*pi). theta must lie in [0, pi/2]; bend
    angles below 1e-12 rad are stored as 0.0, pure compression, where the
    implied arc radius would overflow well before it matters physically.
    A non-finite field or a theta outside that range raises
    InvalidStateError. The arc radius r = s / theta is derived, math.inf
    for a straight backbone.
    """

    alpha: float
    theta: float
    s: float

    def __post_init__(self):
        alpha, theta, s = float(self.alpha), float(self.theta), float(self.s)
        if not all(map(math.isfinite, (alpha, theta, s))):
            raise InvalidStateError(f"arc state must be finite, got {self}")
        if not 0.0 <= theta <= HALF_PI:
            raise InvalidStateError(f"bend angle {theta} outside [0, pi/2]")
        alpha %= TWO_PI
        if alpha == TWO_PI:  # tiny negative angles round up to the excluded endpoint
            alpha = 0.0
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta if theta >= 1e-12 else 0.0)
        object.__setattr__(self, "s", s)

    @property
    def r(self) -> float:
        return self.s / self.theta if self.theta else math.inf


@dataclass(frozen=True)
class TendonSet:
    """Four tendon lengths in mm, indexed 1..4 counterclockwise from +x."""

    q1: float
    q2: float
    q3: float
    q4: float

    def as_tuple(self) -> tuple:
        return (self.q1, self.q2, self.q3, self.q4)


def _check_length(s: float, geom: RobotGeometry):
    """Reject a backbone length outside the geometry's [s_min, s_max]."""
    if not geom.s_min <= s <= geom.s_max:
        raise InvalidStateError(f"backbone length {s} outside [{geom.s_min}, {geom.s_max}]")


class ArcKinematics(NamedTuple):
    """Kernel outputs; leading axes follow the broadcast (alpha, theta, s)."""

    u: np.ndarray  # (..., 3) spring-top center in Frame D
    tangent: np.ndarray  # (..., 3) unit backbone tangent at U
    e: np.ndarray  # (..., 3) U + l * tangent
    q: np.ndarray  # (..., 4) tendon lengths 1..4


def _takes_arc(cos_offset):
    """Tie rule: tendon i is an arc only where cos(alpha - phi_i) > TIE_EPS."""
    return cos_offset > TIE_EPS


def arc_kernel(alpha, theta, s, d: float, l: float) -> ArcKinematics:
    """U, tip tangent, E = U + l * tangent and tendon lengths in closed form.

    alpha, theta and s broadcast; d is the anchor radius. With h = theta/2
    and k = s*sin(h)/h (the D-U chord), U = k*(sin h cos a, sin h sin a,
    cos h). With c_i = cos(alpha - phi_i) and a_i = s - d*theta*c_i, tendon
    i measures arc = hypot(a_i, d*theta*sin(alpha - phi_i)), which is
    sqrt(s^2 + (d theta)^2 - 2 s d theta c_i), or chord = |a_i|*sin(h)/h.
    Nothing divides by theta: theta = 0 gives U = (0, 0, s) and q_i = s.
    """
    alpha, theta, s = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, theta, s)))
    ca, sa = np.cos(alpha), np.sin(alpha)
    half = 0.5 * theta
    sinc_half = np.sinc(half / math.pi)
    k = s * sinc_half
    lean = k * np.sin(half)
    u = np.stack([lean * ca, lean * sa, k * np.cos(half)], axis=-1)
    u += 0.0  # turns the -0.0 of a straight backbone at cos(alpha) < 0 into 0.0
    tangent = np.stack([ca * np.sin(theta), sa * np.sin(theta), np.cos(theta)], axis=-1)
    dt = d * theta
    q = np.empty(u.shape[:-1] + (4,))
    # One tendon at a time keeps the temporaries at the size of one input.
    for i, phi in enumerate(ANCHOR_ANGLES):
        cos_off = np.cos(alpha - phi)
        a = s - dt * cos_off
        arc = np.hypot(a, dt * np.sin(alpha - phi))
        q[..., i] = np.where(_takes_arc(cos_off), arc, np.abs(a) * sinc_half)
    return ArcKinematics(u, tangent, u + l * tangent, q)


def _evaluate(state: ArcState, geom: RobotGeometry) -> ArcKinematics:
    _check_length(state.s, geom)
    return arc_kernel(state.alpha, state.theta, state.s, geom.d, geom.l)


def fk_point(state: ArcState, geom: RobotGeometry) -> np.ndarray:
    """Spring-top center U in Frame D."""
    return _evaluate(state, geom).u


def fk_tip(state: ArcState, geom: RobotGeometry) -> np.ndarray:
    """Tip position E = U + l * (tip tangent) in Frame D."""
    return _evaluate(state, geom).e


def tip_tangent(state: ArcState) -> np.ndarray:
    """Unit tangent of the backbone at the spring top."""
    return arc_kernel(state.alpha, state.theta, state.s, 0.0, 0.0).tangent


def tendon_lengths(state: ArcState, geom: RobotGeometry) -> TendonSet:
    """Tendon lengths: an arc where the anchor faces the bend
    (cos(alpha - phi_i) > TIE_EPS), a straight chord otherwise."""
    return TendonSet(*_evaluate(state, geom).q.tolist())


def ik(target_u, geom: RobotGeometry) -> ArcState:
    """Recover the arc state whose spring-top center lands on target_u.

    Targets within PLANAR_EPS of the z axis take the pure-compression
    branch (theta = 0, s = z). Raises UnreachableTargetError when the bend
    angle leaves [0, pi/2] or the backbone length leaves its bounds, and
    DegenerateTargetError for targets at the base.
    """
    x, y, z = (float(v) for v in target_u)
    norm_sq = x * x + y * y + z * z
    if math.sqrt(norm_sq) < ORIGIN_EPS:
        raise DegenerateTargetError("target coincides with the backbone base")
    # Boundary targets produced by fk round-trips may overshoot the bounds
    # by rounding; accept within this window and clamp back inside.
    slack = 1e-9 * geom.s_max
    planar = math.hypot(x, y)
    if planar < PLANAR_EPS:
        if not geom.s_min - slack <= z <= geom.s_max + slack:
            raise UnreachableTargetError(
                f"compression length {z} outside [{geom.s_min}, {geom.s_max}]"
            )
        return ArcState(0.0, 0.0, min(max(z, geom.s_min), geom.s_max))
    if z < 0.0:
        raise UnreachableTargetError("targets below the base plane are unreachable")
    cos_theta = (z * z - x * x - y * y) / norm_sq
    theta = math.acos(max(-1.0, min(1.0, cos_theta)))
    if theta > HALF_PI:
        if theta > HALF_PI * (1.0 + 1e-12):
            raise UnreachableTargetError(f"required bend angle {theta} exceeds pi/2")
        theta = HALF_PI
    s = norm_sq / (2.0 * planar) * theta
    if not geom.s_min - slack <= s <= geom.s_max + slack:
        raise UnreachableTargetError(
            f"required backbone length {s} outside [{geom.s_min}, {geom.s_max}]"
        )
    return ArcState(math.atan2(y, x), theta, min(max(s, geom.s_min), geom.s_max))


_DIRECTIONS = {
    "+X": (1.0, 0.0),
    "-X": (-1.0, 0.0),
    "+Y": (0.0, 1.0),
    "-Y": (0.0, -1.0),
}


def target_from_z_theta(z: float, theta: float, direction: str, geom: RobotGeometry) -> np.ndarray:
    """Spring-top target at height z bending by theta in an axis plane.

    Solves z = r*sin(theta) for the arc radius and places the in-plane
    displacement r*(1 - cos(theta)) along the chosen axis; the implied
    backbone length r*theta must stay within the geometry bounds.
    theta = 0 returns the pure-compression point (0, 0, z).
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {sorted(_DIRECTIONS)}, got {direction!r}")
    if not 0.0 <= theta <= HALF_PI:
        raise InvalidStateError(f"bend angle {theta} outside [0, pi/2]")
    ux, uy = _DIRECTIONS[direction]
    if theta == 0.0:
        if not geom.s_min <= z <= geom.s_max:
            raise UnreachableTargetError(
                f"compression length {z} outside [{geom.s_min}, {geom.s_max}]"
            )
        return np.array([0.0, 0.0, z])
    r = z / math.sin(theta)
    s = r * theta
    if not geom.s_min <= s <= geom.s_max:
        raise UnreachableTargetError(
            f"required backbone length {s} outside [{geom.s_min}, {geom.s_max}]"
        )
    disp = r * (1.0 - math.cos(theta))
    return np.array([disp * ux, disp * uy, z])
