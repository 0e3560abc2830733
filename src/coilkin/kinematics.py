"""Closed-form constant-curvature kinematics of the spring backbone.

The backbone centerline is a circular arc: alpha rotates the bending plane
about the base z axis, theta is the bend angle subtended at the arc center
and s the backbone length; the arc radius r = s/theta follows from them.
Frame D sits at the spring bottom, U at the spring top, E at the tip. All
lengths are millimeters, all angles radians.

U, the tip tangent, E and the tendon lengths come from arc_kernel, and the
inverse map from a target to (alpha, theta, s) from ik_kernel; both
broadcast over arrays. fk and ik wrap them for one ArcState, which checks
itself when built; they add only the geometry's length bound and, in ik,
the number rule on the target and the typed error of a failing status.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateTargetError,
    InvalidStateError,
    UnreachableTargetError,
    finite_number,
    finite_numbers,
)
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
    Each field passes errors.finite_number; a failure, or a theta outside
    that range, raises InvalidStateError. The arc radius r = s / theta is
    derived, math.inf for a straight backbone.
    """

    alpha: float
    theta: float
    s: float

    def __post_init__(self):
        alpha, theta, s = (finite_number(getattr(self, name), f"arc state {name}", InvalidStateError)
                           for name in ("alpha", "theta", "s"))
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
    # A trailing axis of one: every temporary is an array (a 0-d input
    # would give numpy scalars, which take no out=), and the four tendons
    # broadcast against it as one (..., 4) pass.
    alpha, theta, s = (v[..., None] for v in
                       np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, theta, s))))
    rows = alpha.shape[:-1]
    half = 0.5 * theta
    sinc_half = np.sinc(half / math.pi)
    # The tendons first, in place: while the three (..., 4) buffers live,
    # no (..., 3) output exists yet. cos_off then serves as a, sin_off as
    # the arc, and the chord overwrites a, which becomes q.
    sin_off = alpha - ANCHOR_ANGLES
    cos_off = np.cos(sin_off)
    np.sin(sin_off, out=sin_off)
    dt = d * theta
    takes_arc = _takes_arc(cos_off)
    a = np.multiply(dt, cos_off, out=cos_off)
    np.subtract(s, a, out=a)
    np.multiply(dt, sin_off, out=sin_off)
    del dt
    np.hypot(a, sin_off, out=sin_off)
    q = np.abs(a, out=a)
    q *= sinc_half
    np.copyto(q, sin_off, where=takes_arc)
    del sin_off, takes_arc
    ca, sa = np.cos(alpha), np.sin(alpha)
    k = s * sinc_half
    del sinc_half
    lean = k * np.sin(half)
    u = np.empty(rows + (3,))
    np.multiply(lean, ca, out=u[..., 0:1])
    np.multiply(lean, sa, out=u[..., 1:2])
    del lean
    np.cos(half, out=half)
    np.multiply(k, half, out=u[..., 2:3])
    del k, half
    u += 0.0  # turns the -0.0 of a straight backbone at cos(alpha) < 0 into 0.0
    tangent = np.empty(rows + (3,))
    sin_theta = np.sin(theta)
    np.multiply(ca, sin_theta, out=tangent[..., 0:1])
    np.multiply(sa, sin_theta, out=tangent[..., 1:2])
    del ca, sa, sin_theta
    np.cos(theta, out=tangent[..., 2:3])
    e = np.multiply(l, tangent)
    e += u
    return ArcKinematics(u, tangent, e, q)


def fk(state: ArcState, geom: RobotGeometry) -> ArcKinematics:
    """arc_kernel's row for one arc state within the geometry's length
    bounds: spring top u, tip tangent, tip e and tendon lengths q."""
    _check_length(state.s, geom)
    return arc_kernel(state.alpha, state.theta, state.s, geom.d, geom.l)


# ik_kernel's status codes, which its docstring and the README give as
# numbers. A row takes the first test it fails, in this order.
_IK_OK, _IK_DEGENERATE, _IK_BELOW_BASE, _IK_BEND, _IK_LENGTH = range(5)


def ik_kernel(x, y, z, s_min: float, s_max: float):
    """Arc states whose spring-top center lands on the targets (x, y, z),
    in closed form; x, y and z broadcast. Returns (alpha, theta, s, status).

    status is 0 where the target is reachable, else the first test failed:
    1 at the base (|target| < ORIGIN_EPS); then, within PLANAR_EPS of the z
    axis, pure compression (alpha = theta = 0, s = z) with 4 for z out of
    bounds; elsewhere 2 below the base plane (z < 0), 3 for a bend angle
    beyond pi/2, and 4 for a length s = |target|^2 / (2 planar) * theta
    outside [s_min, s_max], which a non-finite target or one whose squared
    norm overflows always is. A bend angle within 1e-12 relative of pi/2,
    or a length within 1e-9 * s_max of a bound, as fk round trips give,
    passes and is clamped back inside. alpha is wrapped into [0, 2*pi) and
    a theta below 1e-12 is 0.0, as ArcState stores them. A failing row
    keeps its unclamped s. Nothing warns.
    """
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    slack = 1e-9 * s_max
    with np.errstate(all="ignore"):  # overflow, inf - inf and 0 / 0 land in failing rows
        xx, yy, zz = x * x, y * y, z * z
        norm_sq = xx + yy + zz
        planar = np.hypot(x, y)
        straight = planar < PLANAR_EPS
        # Rounding is monotone, so the cosine stays in [-1, 1] without a clip.
        theta = np.where(straight, 0.0, np.arccos((zz - xx - yy) / norm_sq))
        bend = theta > HALF_PI * (1.0 + 1e-12)
        np.minimum(theta, HALF_PI, out=theta)
        s = np.where(straight, z, norm_sq / (2.0 * planar) * theta)
        status = np.where((s_min - slack <= s) & (s <= s_max + slack), _IK_OK, _IK_LENGTH)
        status[bend] = _IK_BEND
        status[(z < 0.0) & ~straight] = _IK_BELOW_BASE
        status[np.sqrt(norm_sq) < ORIGIN_EPS] = _IK_DEGENERATE
        ok = status == _IK_OK
        np.maximum(s, s_min, out=s, where=ok)
        np.minimum(s, s_max, out=s, where=ok)
        theta[theta < 1e-12] = 0.0
        alpha = np.zeros_like(s)  # the full shape: arctan2(y, x) lacks z's axes
        np.mod(np.arctan2(y, x), TWO_PI, out=alpha, where=~straight)
        alpha[alpha == TWO_PI] = 0.0  # a tiny negative angle rounds up to 2*pi
    return alpha, theta, s, status


def ik(target_u, geom: RobotGeometry) -> ArcState:
    """Recover the arc state whose spring-top center lands on target_u:
    ik_kernel on one row. The target's three coordinates pass
    errors.finite_numbers; a failure raises UnreachableTargetError. Raises
    DegenerateTargetError for a target at the base and
    UnreachableTargetError for every other failing status.
    """
    target = finite_numbers(target_u, 3, "target coordinates", UnreachableTargetError)
    alpha, theta, s, status = ik_kernel(*target, geom.s_min, geom.s_max)
    if status == _IK_OK:
        return ArcState(float(alpha), float(theta), float(s))
    if status == _IK_DEGENERATE:
        raise DegenerateTargetError("target coincides with the backbone base")
    if status == _IK_BELOW_BASE:
        reason = "targets below the base plane are unreachable"
    elif status == _IK_BEND:
        reason = "required bend angle exceeds pi/2"
    elif math.isfinite(s):
        reason = f"required backbone length {s} outside [{geom.s_min}, {geom.s_max}]"
    else:
        reason = "target out of reach: its squared distance from the base overflows"
    raise UnreachableTargetError(reason)
