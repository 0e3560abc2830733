"""Reachable-set enumeration under length, bend and servo-travel bounds."""

from dataclasses import dataclass

import numpy as np

from .actuation import beyond_servo_range, servo_angles
from .columns import check_node_count, text_column, write_rows
from .errors import ConfigError, EmptyWorkspaceError
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


@dataclass(frozen=True, eq=False)
class Workspace:
    """The sampled grid as columns, one row per grid point in sampling order.

    alpha, theta and s are (N,), u (spring top) and e (tip) are (N, 3) and
    feasible is (N,) bool. Indexing and iteration give WorkspaceSample rows,
    built on each access.
    """

    alpha: np.ndarray
    theta: np.ndarray
    s: np.ndarray
    u: np.ndarray
    e: np.ndarray
    feasible: np.ndarray

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, k):
        """Row k as a WorkspaceSample; a slice gives a list of rows."""
        rows = range(len(self))[k]
        if isinstance(rows, range):
            return [self[i] for i in rows]
        ok = bool(self.feasible[k])
        state = ArcState(self.alpha[k], self.theta[k], self.s[k])
        return WorkspaceSample(state, self.u[k], self.e[k], ok, REASON_OK if ok else REASON_SERVO)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def sample_workspace(geom: RobotGeometry, grid=DEFAULT_GRID) -> Workspace:
    """Evaluate FK over the (alpha, theta, s) grid in deterministic order.

    alpha spans [0, 2*pi) without its endpoint, theta [0, pi/2] and s
    [s_min, s_max] inclusive; alpha is the outer loop, s the inner one.
    Each row holds the spring-top and tip positions plus a feasibility
    verdict: servo_angles from the s_max home must fit the servo travel
    (grid states always satisfy the other bounds). A grid of more than
    columns.MAX_NODES samples raises ConfigError before anything is built.
    """
    n_alpha, n_theta, n_s = grid
    if min(grid) < 1:
        raise ConfigError(f"grid counts must be >= 1, got {grid}")
    check_node_count(n_alpha * n_theta * n_s, f"workspace grid {grid}")
    alphas = [TWO_PI * k / n_alpha for k in range(n_alpha)]
    thetas = np.linspace(0.0, HALF_PI, n_theta)
    lengths = np.linspace(geom.s_min, geom.s_max, n_s)
    alpha, theta, s = (a.ravel() for a in np.meshgrid(alphas, thetas, lengths, indexing="ij"))
    kin = arc_kernel(alpha, theta, s, geom.d, geom.l)
    angles, _ = servo_angles(kin.q, geom.s_max, geom)
    feasible = ~beyond_servo_range(angles.max(axis=-1), geom)
    return Workspace(alpha, theta, s, kin.u, kin.e, feasible)


def workspace_extents(ws: Workspace) -> dict:
    """Axis-aligned extents of the feasible spring-top positions."""
    u = ws.u[ws.feasible]
    if not len(u):
        raise EmptyWorkspaceError("no feasible samples")
    return {
        "z_min": float(u[:, 2].min()),
        "z_max": float(u[:, 2].max()),
        "radial_max": float(np.hypot(u[:, 0], u[:, 1]).max()),
    }


def write_files(ws: Workspace, csv_path, ply_path):
    """workspace.csv and the ASCII PLY cloud of the feasible spring tops.

    The CSV holds alpha,theta,s,xU,yU,zU,xE,yE,zE,feasible,reason rows,
    angles in radians; the PLY holds u[feasible]. u is encoded once, and
    its text goes to both files.
    """
    u = text_column(ws.u)
    reasons = text_column(np.array([REASON_SERVO, REASON_OK]))[0], ws.feasible.view(np.int8)
    with open(csv_path, "wb") as csv:
        csv.write(b"alpha,theta,s,xU,yU,zU,xE,yE,zE,feasible,reason\n")
        write_rows(csv, [ws.alpha, ws.theta, ws.s, u, ws.e, ws.feasible, reasons])
    write_points((u[0], u[1][ws.feasible]), ply_path)
