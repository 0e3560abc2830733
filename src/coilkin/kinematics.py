"""Closed-form constant-curvature kinematics of the spring backbone.

The backbone centerline is a circular arc: alpha rotates the bending plane
about the base z axis, theta is the bend angle subtended at the arc center,
r the arc radius and s = r*theta the backbone length. Frame D sits at the
spring bottom, C at the arc center, U at the spring top, E at the tip.
All lengths are millimeters, all angles radians.

U, the tip tangent, E and the tendon lengths come from arc_kernel, which
broadcasts over arrays; the scalar functions validate one ArcState and
wrap it. fk_transform and attachment_points are the r-based test oracle.
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
    """One constant-curvature configuration.

    alpha is wrapped into [0, 2*pi). theta = 0 encodes pure compression,
    where the arc radius is meaningless and stored as math.inf; otherwise
    r and s must agree through s = r * theta.
    """

    alpha: float
    theta: float
    r: float
    s: float

    def __post_init__(self):
        wrapped = float(self.alpha) % TWO_PI
        if wrapped == TWO_PI:  # tiny negative angles round up to the excluded endpoint
            wrapped = 0.0
        object.__setattr__(self, "alpha", wrapped)

    @classmethod
    def from_arc(cls, alpha: float, theta: float, s: float) -> "ArcState":
        """Build a state from bend-plane angle, bend angle and backbone length.

        Bend angles below 1e-12 rad collapse to the straight branch; the
        implied arc radius would overflow well before it matters physically.
        """
        if theta < 1e-12:
            return cls(alpha, 0.0, math.inf, s)
        return cls(alpha, theta, s / theta, s)

    @property
    def straight(self) -> bool:
        return self.theta == 0.0


@dataclass(frozen=True)
class TendonSet:
    """Four tendon lengths in mm, indexed 1..4 counterclockwise from +x."""

    q1: float
    q2: float
    q3: float
    q4: float

    def as_tuple(self) -> tuple:
        return (self.q1, self.q2, self.q3, self.q4)


def _check_state(state: ArcState, geom: RobotGeometry | None = None):
    """Reject non-finite or out-of-range states; the length bounds need geom."""
    if not all(map(math.isfinite, (state.alpha, state.theta, state.s))):
        raise InvalidStateError(f"arc state must be finite, got {state}")
    if not 0.0 <= state.theta <= HALF_PI:
        raise InvalidStateError(f"bend angle {state.theta} outside [0, pi/2]")
    if geom is not None and not geom.s_min <= state.s <= geom.s_max:
        raise InvalidStateError(
            f"backbone length {state.s} outside [{geom.s_min}, {geom.s_max}]"
        )
    if state.theta > 0.0:
        if not state.r > 0.0 or not math.isfinite(state.r):
            raise InvalidStateError(f"arc radius {state.r} must be finite and > 0")
        if abs(state.s - state.r * state.theta) >= 1e-9 * state.s:
            raise InvalidStateError(
                f"inconsistent arc: s={state.s} but r*theta={state.r * state.theta}"
            )


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
    _check_state(state, geom)
    return arc_kernel(state.alpha, state.theta, state.s, geom.d, geom.l)


def fk_point(state: ArcState, geom: RobotGeometry) -> np.ndarray:
    """Spring-top center U in Frame D."""
    return _evaluate(state, geom).u


def fk_tip(state: ArcState, geom: RobotGeometry) -> np.ndarray:
    """Tip position E = U + l * (tip tangent) in Frame D."""
    return _evaluate(state, geom).e


def tip_tangent(state: ArcState) -> np.ndarray:
    """Unit tangent of the backbone at the spring top (z column of the transform)."""
    _check_state(state)
    return arc_kernel(state.alpha, state.theta, state.s, 0.0, 0.0).tangent


def tendon_lengths(state: ArcState, geom: RobotGeometry) -> TendonSet:
    """Tendon lengths: an arc where the anchor faces the bend
    (cos(alpha - phi_i) > TIE_EPS), a straight chord otherwise."""
    return TendonSet(*_evaluate(state, geom).q.tolist())


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array(
        [[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array(
        [[c, 0.0, s, 0.0], [0.0, 1.0, 0.0, 0.0], [-s, 0.0, c, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )


def translation(x: float, y: float, z: float) -> np.ndarray:
    t = np.eye(4)
    t[:3, 3] = (x, y, z)
    return t


def is_rigid_transform(t: np.ndarray, tol: float = 1e-9) -> bool:
    """True when the rotation block is orthonormal with unit determinant."""
    if t.shape != (4, 4) or not np.array_equal(t[3], (0.0, 0.0, 0.0, 1.0)):
        return False
    r = t[:3, :3]
    return (
        float(np.abs(r.T @ r - np.eye(3)).max()) < tol
        and abs(float(np.linalg.det(r)) - 1.0) < tol
    )


def fk_transform(state: ArcState, geom: RobotGeometry) -> np.ndarray:
    """Frame D -> Frame U homogeneous transform of a valid arc state.

    theta = 0 degenerates to a pure translation of s along z, the limit of
    the arc expressions with r*theta held at s. Only the tests call it, as
    the r-based oracle for arc_kernel.
    """
    _check_state(state, geom)
    if state.straight:
        return translation(0.0, 0.0, state.s)
    ca, sa = math.cos(state.alpha), math.sin(state.alpha)
    ct, st = math.cos(state.theta), math.sin(state.theta)
    r = state.r
    return np.array(
        [
            [ca * ca * ct + sa * sa, sa * ca * ct - sa * ca, ca * st, r * ca * (1.0 - ct)],
            [sa * ca * ct - sa * ca, sa * sa * ct + ca * ca, sa * st, r * sa * (1.0 - ct)],
            [-ca * st, -sa * st, ct, r * st],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


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
        return ArcState(0.0, 0.0, math.inf, min(max(z, geom.s_min), geom.s_max))
    if z < 0.0:
        raise UnreachableTargetError("targets below the base plane are unreachable")
    cos_theta = (z * z - x * x - y * y) / norm_sq
    theta = math.acos(max(-1.0, min(1.0, cos_theta)))
    if theta > HALF_PI:
        if theta > HALF_PI * (1.0 + 1e-12):
            raise UnreachableTargetError(f"required bend angle {theta} exceeds pi/2")
        theta = HALF_PI
    r = norm_sq / (2.0 * planar)
    s = r * theta
    if not geom.s_min - slack <= s <= geom.s_max + slack:
        raise UnreachableTargetError(
            f"required backbone length {s} outside [{geom.s_min}, {geom.s_max}]"
        )
    if not geom.s_min <= s <= geom.s_max:
        s = min(max(s, geom.s_min), geom.s_max)
        r = s / theta
    return ArcState(math.atan2(y, x), theta, r, s)


def attachment_points(state: ArcState, geom: RobotGeometry):
    """Lower (base holder) and upper (top holder) tendon anchors in Frame D.

    The four lower anchors sit on the axes at radius d; the upper ones are
    the same points carried through the D->U transform (a test oracle).
    """
    d = geom.d
    lower = [np.array(p) for p in ((d, 0.0, 0.0), (0.0, d, 0.0), (-d, 0.0, 0.0), (0.0, -d, 0.0))]
    t = fk_transform(state, geom)
    upper = [t[:3, :3] @ p + t[:3, 3] for p in lower]
    return lower, upper


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
