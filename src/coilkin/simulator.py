"""Deterministic contact missions: vertical probing, zig-zag surface scans
and tube exploration with an obstacle stop rule.

The arm carries Frame D pointing straight down, so a backbone point
(x, y, z) in Frame D sits at arm + (x, -y, -z) in world coordinates. The
arm only translates. Each mission returns its arm moves and probe results
as one mission log whose CSV serialization is byte-stable, so identical
configurations replay identically.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .actuation import beyond_servo_range, servo_winding, step_count
from .columns import CHUNK_ROWS, check_node_count, text_column, write_rows
from .errors import ArmTooLowError, ConfigError, SceneError, ServoRangeError, finite_number, finite_numbers
from .geometry import RobotGeometry
from .kinematics import TWO_PI, _check_length, arc_kernel, ik, ik_kernel
from .scenes import HeightField, Tube

LOG_HEADER = "step_index,arm_x,arm_y,arm_z,alpha,s,contact,cx,cy,cz"


# Columns of MissionLog.rows, the events.csv columns after step_index.
LOG_ARM, LOG_ALPHA, LOG_S, LOG_CONTACT, LOG_POINT = slice(0, 3), 3, 4, 5, slice(6, 9)


@dataclass(frozen=True, eq=False)
class MissionLog:
    """A mission's event log: each arm move, made with the backbone at
    move_s and logged without contact, then the n probes made from that arm
    position.

    move_arm is (m, 3); s and contact are (k, n) and point (k, n, 3), NaN
    without a contact point, the probes after move i in row i, with k = m,
    or m - 1 when the last move has no probes; alpha is one value or a
    column of n. The log keeps these columns, views of the mission's own,
    and lays them out as rows only when asked, by one rule (_lay_out): write
    encodes each column's text once and lays out the codes a block of whole
    moves at a time, at most CHUNK_ROWS rows unless one move alone has
    more, and rows lays out the whole log's values.
    """

    move_arm: np.ndarray
    move_s: float
    alpha: float | np.ndarray
    s: np.ndarray
    contact: np.ndarray
    point: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """The whole log as one (m + k * n, 9) float array laid out as
        LOG_ARM, LOG_ALPHA, LOG_S, LOG_CONTACT (1.0 or 0.0) and LOG_POINT;
        the step index is the row number. A row without a contact point
        holds NaN there; NaN is written as an empty cell."""
        n = np.shape(self.s)[1]
        alpha = np.zeros((n + 1, 1))
        alpha[1:, 0] = self.alpha
        probes = np.empty((1 + np.size(self.s), 5))
        probes[0] = self.move_s, 0.0, np.nan, np.nan, np.nan
        probes[1:, 0], probes[1:, 1] = np.ravel(self.s), np.ravel(self.contact)
        probes[1:, 2:] = np.reshape(self.point, (-1, 3))
        return self._lay_out(self.move_arm, alpha, probes, 0, len(self.move_arm))[1]

    def _lay_out(self, arm, alpha, probes, start, stop):
        """The one layout rule of the log's rows, for moves start to stop - 1
        and their probes: (step indices, rows). A move's rows are the move
        itself, then its n probes; every move but a last one without probes
        has them. The row of move i and slot j (0 for the move, then its
        probes) joins arm[i], alpha[j], and probes[0] on the move's own row
        or probes[i * n + j] on probe j, for 2-D arm (m, a), alpha
        (n + 1, b) and probes (1 + k * n, p): the log's values or their text
        codes."""
        (k, n), m = np.shape(self.s), len(self.move_arm)
        stop = min(stop, m)
        probed = max(0, min(stop, k) - start)  # the moves with probes
        a, b, p = arm.shape[1], alpha.shape[1], probes.shape[1]
        rows = np.empty((stop - start, n + 1, a + b + p), np.result_type(arm, alpha, probes))
        rows[:, :, :a] = arm[start:stop, None]
        rows[:, :, a : a + b] = alpha
        rows[:, 0, a + b :] = probes[0]
        rows[:probed, 1:, a + b :] = probes[1 + start * n : 1 + (start + probed) * n].reshape(probed, n, p)
        # A last move without probes keeps only its own row.
        rows = rows.reshape(-1, a + b + p)[: (stop - start) * (n + 1) - n * (stop > k)]
        return np.arange(start * (n + 1), start * (n + 1) + len(rows)), rows

    def write(self, path):
        """The events.csv file: the text of every column but the step index
        is encoded once, into one table, and the codes are laid out a block
        of whole moves at a time."""
        n = np.shape(self.s)[1]
        # alpha's n + 1 values, then the s and point of a move row.
        head = np.empty(n + 3)
        head[0], head[1 : n + 1], head[n + 1 :] = 0.0, self.alpha, (self.move_s, np.nan)
        table, arm, head, s, contact, point = text_column(
            self.move_arm, head, np.ravel(self.s),
            np.concatenate([[False], self.contact], axis=None, dtype=bool, casting="unsafe"),
            self.point, nan="")
        # alpha and probes as rows builds them, with text codes for values.
        probes = np.empty((len(contact), 5), np.int32)
        probes[0], probes[0, 0], probes[:, 1] = head[n + 2], head[n + 1], contact
        probes[1:, 0], probes[1:, 2:] = s, point.reshape(-1, 3)
        alpha = head[: n + 1, None]
        del s, contact, point  # copied into probes
        moves = max(1, CHUNK_ROWS // (n + 1))
        with open(path, "wb") as fh:
            fh.write(LOG_HEADER.encode() + b"\n")
            for start in range(0, len(self.move_arm), moves):
                step, codes = self._lay_out(arm, alpha, probes, start, start + moves)
                write_rows(fh, [step, (table, codes)])


@dataclass(frozen=True, eq=False)
class ContactCloud:
    """A grid scan's grid and its log, one probe per node in visit order, in
    world (arm-frame) coordinates: log.move_arm is (N, 3), log.s and
    log.contact (N, 1), log.point (N, 1, 3), NaN without contact. Every
    probe is vertical (alpha 0), so a contact point is (arm x, arm y,
    contact height). step_mm and origin pass errors.finite_number and are
    stored as floats; step_mm is > 0.
    """

    step_mm: float
    origin: tuple
    log: MissionLog

    def __post_init__(self):
        object.__setattr__(self, "step_mm", finite_number(self.step_mm, "cloud step_mm", ConfigError))
        object.__setattr__(self, "origin", finite_numbers(self.origin, 2, "cloud origin", ConfigError))
        if self.step_mm <= 0.0:
            raise ConfigError(f"cloud step_mm must be > 0, got {self.step_mm}")


def probe_columns(scene: HeightField, arms, geom: RobotGeometry, quantum: float = 0.5):
    """Straight downward probes from minimum extension at each row of an
    (N, 3) array of arm positions; returns (extension, contact, contact_z)
    columns.

    The bristle tip starts at arm_z - (s_min + l + bristle) and descends as
    the backbone extends in `quantum` mm increments; first contact is the
    first quantized extension whose tip is at or below the surface. No
    contact by s_max reports full extension, no contact and NaN contact_z.
    A tip already below the surface at minimum extension raises
    ArmTooLowError for the first such row, and a quantum that is not a
    finite number > 0 raises ConfigError.
    """
    quantum = finite_number(quantum, "probe quantum", ConfigError)
    if quantum <= 0.0:
        raise ConfigError(f"probe quantum must be > 0, got {quantum}")
    arms = np.asarray(arms, dtype=float)
    x, y, z = arms.T
    h = scene.height_at(x, y)
    tip_min = z - (geom.s_min + geom.probe_offset)
    too_low = np.flatnonzero(tip_min < h)
    if too_low.size:
        k = too_low[0]
        raise ArmTooLowError(
            f"probe tip at minimum extension is {tip_min[k]:.3f} mm, below surface {h[k]:.3f} mm"
        )
    s_exact = z - geom.probe_offset - h
    contact = s_exact <= geom.s_max
    # Far above the surface, or with a subnormal quantum, the step count or
    # its length overflows to inf. An inf count means quantum is below the
    # resolution of s_exact, so the first step at or past it is s_exact; an
    # inf length lies past s_max, which min() reports, and rows without
    # contact report s_max anyway.
    with np.errstate(over="ignore"):
        steps = np.ceil((s_exact - geom.s_min) / quantum)
        s_q = geom.s_min + steps * quantum
    np.copyto(s_q, s_exact, where=np.isinf(steps))
    s_q = np.where(contact, np.minimum(s_q, geom.s_max, out=s_q), geom.s_max)
    contact_z = np.where(contact, z - (s_q + geom.probe_offset), np.nan)
    return s_q, contact, contact_z


@dataclass(frozen=True)
class ScanConfig:
    """Zig-zag X-Y coverage: width x height mm visited in step_mm strides.

    arm_z = None drops the floor exactly at full extension reach, which
    keeps every cell of a desk-scale object measurable. A grid of more than
    columns.MAX_NODES nodes raises ConfigError. Every number passes
    errors.finite_number and is stored as a float.
    """

    width: float = 200.0
    height: float = 200.0
    step_mm: float = 10.0
    origin: tuple = (0.0, 0.0)
    arm_z: float | None = None
    quantum: float = 0.5

    def __post_init__(self):
        for name in ("width", "height", "step_mm", "quantum") + (() if self.arm_z is None else ("arm_z",)):
            object.__setattr__(self, name, finite_number(getattr(self, name), f"scan {name}", ConfigError))
        object.__setattr__(self, "origin", finite_numbers(self.origin, 2, "scan origin", ConfigError))
        if min(self.step_mm, self.quantum) <= 0.0 or min(self.width, self.height) < 0.0:
            raise ConfigError(f"scan needs step and quantum > 0 and size >= 0: {self}")
        # A quotient that overflows to inf is rejected before round() sees it.
        check_node_count(max(self.width, self.height) / self.step_mm, "scan row")
        check_node_count(math.prod(self.shape), "scan grid")

    @property
    def shape(self) -> tuple:
        """(nx, ny): nodes along x and along y."""
        return round(self.width / self.step_mm) + 1, round(self.height / self.step_mm) + 1


def surface_scan(scene: HeightField, geom: RobotGeometry, cfg: ScanConfig = ScanConfig()) -> ContactCloud:
    """Probe every node of the scan grid in boustrophedon order.

    The backbone retracts to s_min before every arm move (the anti-drag
    rule), probes once per node and reports one row per node. Contact
    heights are arm_z - (extension + l + bristle). All nodes are probed in
    one probe_columns call; the log holds two rows per node, the move and
    the probe. A node too low to probe raises ArmTooLowError.
    """
    if not isinstance(scene, HeightField):
        raise SceneError("surface scan needs a height-field scene")
    nx, ny = cfg.shape
    arm_z = cfg.arm_z if cfg.arm_z is not None else geom.s_max + geom.probe_offset
    # Row j of the grid runs along +x when j is even and back along -x when odd.
    i = np.tile(np.arange(nx), (ny, 1))
    i[1::2] = i[1::2, ::-1]
    j = np.repeat(np.arange(ny), nx)
    arms = np.empty((nx * ny, 3))
    arms[:, 0] = cfg.origin[0] + i.ravel() * cfg.step_mm
    arms[:, 1] = cfg.origin[1] + j * cfg.step_mm
    arms[:, 2] = arm_z
    ext, contact, contact_z = probe_columns(scene, arms, geom, cfg.quantum)
    points = np.where(contact[:, None], np.column_stack([arms[:, :2], contact_z]), np.nan)
    # Each node logs its move, made with the backbone retracted, then its probe.
    log = MissionLog(arms, geom.s_min, 0.0, ext[:, None], contact[:, None], points[:, None])
    return ContactCloud(cfg.step_mm, cfg.origin, log)


@dataclass(frozen=True)
class ExploreConfig:
    """Tube exploration parameters: descent schedule and ring-scan targets;
    max_steps and n_directions are ints >= 1, and every other field passes
    errors.finite_number and is stored as a float."""

    descent_step: float = 20.0
    max_steps: int = 5
    compressed_s: float = 45.0
    target_radial: float = 15.0
    target_z: float = 60.0
    n_directions: int = 8
    max_step_mm: float = 2.0

    def __post_init__(self):
        counts = (self.max_steps, self.n_directions)
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in counts):
            raise ConfigError(f"explore needs integer max_steps and n_directions >= 1: {self}")
        for name in ("descent_step", "compressed_s", "target_radial", "target_z", "max_step_mm"):
            object.__setattr__(self, name, finite_number(getattr(self, name), f"explore {name}", ConfigError))
        if min(self.descent_step, self.max_step_mm) <= 0.0:
            raise ConfigError(f"explore needs descent_step and max_step_mm > 0: {self}")


@dataclass(frozen=True, eq=False)
class RingPath:
    """The commanded motion of one ring scan as columns, one row per
    waypoint with the azimuths back to back.

    alpha and goal_s are (n,), the azimuths and their goal lengths; starts
    (n,) holds the first row of each azimuth. row, t, theta and s are (M,),
    q (M, 4) the tendon lengths and tip (M, 3) the bristle tip's offset from
    the arm in world axes. The path does not depend on depth, because the
    arm only translates.
    """

    alpha: np.ndarray
    goal_s: np.ndarray
    starts: np.ndarray
    row: np.ndarray
    t: np.ndarray
    theta: np.ndarray
    s: np.ndarray
    q: np.ndarray
    tip: np.ndarray


def ring_path(geom: RobotGeometry, cfg: ExploreConfig = ExploreConfig()) -> RingPath:
    """Waypoints of the bend-and-extend sweep toward the target point
    (radial*cos(a), radial*sin(a), target_z) of each of the n azimuths.

    Each azimuth starts compressed to cfg.compressed_s and takes the m
    steps that actuation.step_count gives between the compressed and the
    goal tendon sets. Waypoint k sits at t = k/m, linear in (theta, s):
    theta = t * goal theta, s = compressed_s + t * (goal s - compressed_s).
    Its tendon set is the servo command of that step; step_count bounds
    only the change between the endpoints, not between waypoints. One
    ik_kernel call gives every goal; the first azimuth whose goal fails
    raises the error of ik. One arc_kernel call gives the goal tendon sets
    and one every waypoint; the compressed backbone is straight, so each of
    its tendons measures compressed_s. One servo_winding call checks every
    waypoint: the first azimuth whose largest winding is beyond the servo
    range raises ServoRangeError.
    """
    _check_length(cfg.compressed_s, geom)  # arc_kernel itself checks no bounds
    alphas = TWO_PI * np.arange(cfg.n_directions) / cfg.n_directions
    x, y = cfg.target_radial * np.cos(alphas), cfg.target_radial * np.sin(alphas)
    goal_alpha, goal_theta, goal_s, status = ik_kernel(x, y, cfg.target_z, geom.s_min, geom.s_max)
    failed = np.flatnonzero(status)
    if failed.size:
        ik((x[failed[0]], y[failed[0]], cfg.target_z), geom)  # raises that azimuth's error
    goal_q = arc_kernel(goal_alpha, goal_theta, goal_s, geom.d, geom.l).q
    steps = step_count(cfg.compressed_s, goal_q, cfg.max_step_mm)
    check_node_count((steps + 1.0).sum(), "ring path")
    steps = steps.astype(int)
    starts = np.cumsum(steps + 1) - (steps + 1)
    row = np.repeat(np.arange(cfg.n_directions), steps + 1)
    t = (np.arange(row.size) - starts[row]) / steps[row]
    theta = t * goal_theta[row]
    s = cfg.compressed_s + t * (goal_s[row] - cfg.compressed_s)
    kin = arc_kernel(alphas[row], theta, s, geom.d, geom.probe_offset)
    needed = np.maximum.reduceat(servo_winding(kin.q, geom), starts)
    beyond = beyond_servo_range(needed, geom)
    if beyond.any():
        k = beyond.argmax()
        raise ServoRangeError(f"ring path azimuth {math.degrees(alphas[k]):g} deg needs {needed[k]:.2f} "
                              f"deg of pulley winding, servo range is {geom.servo_range} deg")
    # Frame D point (x, y, z) sits at arm + (x, -y, -z).
    return RingPath(alphas, goal_s, starts, row, t, theta, s, kin.q, kin.e * (1.0, -1.0, -1.0))


@dataclass(frozen=True, eq=False)
class ExploreResult:
    """A mission's outcome and its log, whose probe columns hold one row
    per ring scanned and one column per azimuth: log.alpha is (n,), log.s
    (the extension) and log.contact (rings, n), log.point (rings, n, 3),
    NaN without contact."""

    stop_depth_mm: float
    any_contact: bool
    log: MissionLog


def explore_tube(
    scene: Tube,
    geom: RobotGeometry,
    start=(0.0, 0.0, 0.0),
    cfg: ExploreConfig = ExploreConfig(),
) -> ExploreResult:
    """Descend in fixed steps, ring-scanning after each step.

    Every ring follows ring_path, built once and translated to each depth,
    the running sum of descent steps. A waypoint touches where its bristle
    tip reaches the wall radius or lies in the obstacle; every depth is
    tested in one array pass (at most columns.MAX_NODES depth x waypoint
    tips). In the first ring that touches, each azimuth stops at its first
    touching waypoint; the arm then returns to its start and the mission
    stops with that depth. Without contact the arm performs max_steps
    descents. The log holds, per ring, the compressed descent and one row
    per azimuth, then the return. An overflowing arm z raises ConfigError.
    """
    if not isinstance(scene, Tube):
        raise SceneError("tube exploration needs a tube scene")
    origin = finite_numbers(start, 3, "explore start", ConfigError)
    path = ring_path(geom, cfg)
    check_node_count(cfg.max_steps * len(path.t), "explore depth pass")
    depths = list(itertools.accumulate(itertools.repeat(cfg.descent_step, cfg.max_steps)))
    if not math.isfinite(origin[2] - depths[-1]):
        raise ConfigError(f"explore descent of {depths[-1]:g} mm from z {origin[2]:g} overflows")
    arms = np.empty((cfg.max_steps, 3))
    arms[:, :2] = origin[:2]
    arms[:, 2] = origin[2] - np.array(depths)
    tips = arms[:, None, :] + path.tip
    # The wall test does not depend on depth; the obstacle test does.
    wall = np.hypot(tips[0, :, 0] - origin[0], tips[0, :, 1] - origin[1]) >= scene.inner_radius_mm
    touch = np.broadcast_to(wall, tips.shape[:2])
    if scene.obstacle is not None:
        touch = touch | scene.obstacle.contains(tips)
    hit = touch.any(axis=1)
    any_contact = bool(hit.any())
    rings = int(hit.argmax()) + 1 if any_contact else cfg.max_steps
    # First touching waypoint of each azimuth in each ring, or the row past
    # the last; only the last ring scanned can touch.
    m = len(path.t)
    first = np.minimum.reduceat(np.where(touch[:rings], np.arange(m), m), path.starts, axis=1)
    contact = first < m
    first = np.where(contact, first, 0)
    ext = np.where(contact, path.s[first], path.goal_s)
    points = np.where(contact[..., None], tips[np.arange(rings)[:, None], first], np.nan)
    # Each ring logs its descent, then one row per azimuth; after a contact
    # the return to the start follows. Every arm move is made compressed.
    moves = np.vstack([arms[:rings], origin])[: rings + any_contact]
    log = MissionLog(moves, cfg.compressed_s, path.alpha, ext, contact, points)
    return ExploreResult(depths[rings - 1], any_contact, log)

