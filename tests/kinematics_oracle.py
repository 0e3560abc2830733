"""Independent oracles for coilkin's kernels.

fk_transform builds the Frame D -> Frame U transform from the arc radius
r = s/theta, the textbook route that arc_kernel avoids; attachment_points
carries the four lower tendon anchors through it. ik_reference is the
inverse map one target at a time in `math`, the reference for ik_kernel.
The tests import this module directly (pytest puts tests/ on sys.path,
which has no __init__.py).
"""

import math

import numpy as np

from coilkin import ArcState, DegenerateTargetError, InvalidStateError, UnreachableTargetError
from coilkin.kinematics import HALF_PI, ORIGIN_EPS, PLANAR_EPS


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


def fk_transform(state, geom) -> np.ndarray:
    """Frame D -> Frame U homogeneous transform of an arc state.

    Rejects a backbone length outside the geometry's bounds, as the scalar
    kinematics do. theta = 0 degenerates to a pure translation of s along
    z, the limit of the arc expressions with r*theta held at s.
    """
    if not geom.s_min <= state.s <= geom.s_max:
        raise InvalidStateError(f"backbone length {state.s} outside [{geom.s_min}, {geom.s_max}]")
    if state.theta == 0.0:
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


def attachment_points(state, geom):
    """Lower (base holder) and upper (top holder) tendon anchors in Frame D.

    The four lower anchors sit on the axes at radius d; the upper ones are
    the same points carried through the D->U transform.
    """
    d = geom.d
    lower = [np.array(p) for p in ((d, 0.0, 0.0), (0.0, d, 0.0), (-d, 0.0, 0.0), (0.0, -d, 0.0))]
    t = fk_transform(state, geom)
    upper = [t[:3, :3] @ p + t[:3, 3] for p in lower]
    return lower, upper


def ik_reference(target_u, geom) -> ArcState:
    """The arc state whose spring-top center lands on target_u, branch by
    branch in `math`, with the errors of coilkin.ik.

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
