"""Reachable-set enumeration under length, bend and servo-travel bounds."""

import math
from dataclasses import dataclass

import numpy as np

from .actuation import beyond_servo_range, pulley_angle
from .errors import EmptyWorkspaceError
from .geometry import RobotGeometry
from .kinematics import HALF_PI, TWO_PI, ArcState, arc_kernel
from .ply import write_points

REASON_OK = "ok"
REASON_SERVO = "servo-out-of-range"

# 5 degree steps in both angles and 5 mm in length, the granularity the
# desk experiments were driven at.
DEFAULT_GRID = (72, 19, 11)


@dataclass(frozen=True, slots=True)
class WorkspaceSample:
    state: ArcState
    u: np.ndarray
    e: np.ndarray
    feasible: bool
    reason: str


def sample_workspace(geom: RobotGeometry, grid=DEFAULT_GRID) -> list:
    """Evaluate FK over the (alpha, theta, s) grid in deterministic order.

    alpha spans [0, 2*pi) without its endpoint, theta [0, pi/2] and s
    [s_min, s_max] inclusive; alpha is the outer loop, s the inner one.
    Each sample carries the spring-top and tip positions plus a
    feasibility verdict: the shortening from the s_max home lengths must
    fit the servo travel (grid states always satisfy the other bounds).
    """
    n_alpha, n_theta, n_s = grid
    if min(grid) < 1:
        raise ValueError(f"grid counts must be >= 1, got {grid}")
    alphas = [TWO_PI * k / n_alpha for k in range(n_alpha)]
    thetas = np.linspace(0.0, HALF_PI, n_theta)
    lengths = np.linspace(geom.s_min, geom.s_max, n_s)
    alpha, theta, s = (a.ravel() for a in np.meshgrid(alphas, thetas, lengths, indexing="ij"))
    kin = arc_kernel(alpha, theta, s, geom.d, geom.l)
    shortening = (geom.s_max - kin.q).max(axis=-1)
    feasible = ~beyond_servo_range(pulley_angle(shortening, geom), geom)
    return [
        WorkspaceSample(ArcState.from_arc(a, t, l), u, e, ok, REASON_OK if ok else REASON_SERVO)
        for a, t, l, u, e, ok in zip(
            alpha.tolist(), theta.tolist(), s.tolist(), kin.u, kin.e, feasible.tolist()
        )
    ]


def workspace_extents(samples) -> dict:
    """Axis-aligned extents of the feasible spring-top positions."""
    pts = [s.u for s in samples if s.feasible]
    if not pts:
        raise EmptyWorkspaceError("no feasible samples")
    zs = [p[2] for p in pts]
    return {
        "z_min": min(zs),
        "z_max": max(zs),
        "radial_max": max(math.hypot(p[0], p[1]) for p in pts),
    }


def write_csv(samples, path):
    """alpha,theta,s,xU,yU,zU,xE,yE,zE,feasible,reason rows, angles in radians."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,theta,s,xU,yU,zU,xE,yE,zE,feasible,reason\n")
        for smp in samples:
            st = smp.state
            vals = [st.alpha, st.theta, st.s, *smp.u, *smp.e]
            fh.write(
                ",".join(repr(float(v)) for v in vals)
                + f",{1 if smp.feasible else 0},{smp.reason}\n"
            )


def write_ply(samples, path):
    """ASCII PLY point cloud of the feasible spring-top positions."""
    write_points([s.u for s in samples if s.feasible], path)
