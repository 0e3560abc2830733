"""Deterministic contact missions: vertical probing, zig-zag surface scans
and tube exploration with an obstacle stop rule.

The arm carries Frame D pointing straight down, so a backbone point
(x, y, z) in Frame D sits at arm + (x, -y, -z) in world coordinates. The
arm only translates. Every arm move and probe appends to a mission log
whose CSV serialization is byte-stable, so identical configurations
replay identically.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .actuation import step_count
from .columns import write_rows
from .errors import ArmTooLowError, ConfigError, SceneError
from .geometry import RobotGeometry
from .kinematics import TWO_PI, ArcState, arc_kernel, ik, tendon_lengths
from .scenes import HeightField, Tube

LOG_HEADER = "step_index,arm_x,arm_y,arm_z,alpha,s,contact,cx,cy,cz"


@dataclass(frozen=True)
class ProbeEvent:
    """Outcome of one probe: where the arm was, how far the backbone went."""

    arm: tuple
    alpha: float
    extension_mm: float
    contact: bool
    contact_point: tuple | None = None


@dataclass(frozen=True, eq=False)
class ContactCloud:
    """Probe results over a scan grid as columns, one row per node in visit
    order, in world (arm-frame) coordinates.

    arm is (N, 3); extension_mm, contact and contact_z are (N,), with
    contact_z NaN where the probe found no surface. Every probe is
    vertical (alpha 0), so a contact point is (arm x, arm y, contact_z).
    """

    arm: np.ndarray
    extension_mm: np.ndarray
    contact: np.ndarray
    contact_z: np.ndarray
    nx: int
    ny: int
    step_mm: float
    origin: tuple

    @property
    def events(self) -> tuple:
        """One ProbeEvent per node, built from the columns on each access."""
        return tuple(
            ProbeEvent(tuple(arm), 0.0, ext, hit, (arm[0], arm[1], z) if hit else None)
            for arm, ext, hit, z in zip(
                self.arm.tolist(),
                self.extension_mm.tolist(),
                self.contact.tolist(),
                self.contact_z.tolist(),
            )
        )

    @property
    def contact_count(self) -> int:
        return int(self.contact.sum())


# Columns of MissionLog.rows, the events.csv columns after step_index.
LOG_ARM, LOG_ALPHA, LOG_S, LOG_CONTACT, LOG_POINT = slice(0, 3), 3, 4, 5, slice(6, 9)


class MissionLog:
    """Append-only event log; rows are arm moves and probe results.

    Rows are kept in blocks of (n, 9) floats laid out as LOG_ARM, LOG_ALPHA,
    LOG_S, LOG_CONTACT (1.0 or 0.0) and LOG_POINT. A row without a contact
    point holds NaN there; NaN is written as an empty cell.
    """

    def __init__(self):
        self.blocks = []

    @property
    def rows(self) -> np.ndarray:
        """Every row so far as one (n, 9) array; the step index is the row number."""
        return np.concatenate(self.blocks) if self.blocks else np.empty((0, 9))

    def add(self, arm, alpha, s, contact=False, contact_point=None):
        """Append one row, built in the LOG_ARM .. LOG_POINT order by one
        np.array call, which costs less than add_block for a single row."""
        point = (np.nan,) * 3 if contact_point is None else tuple(contact_point)
        self.blocks.append(np.array([[*arm, alpha, s, contact, *point]], dtype=float))

    def add_block(self, arm, alpha, s, contact=False, contact_point=np.nan):
        """Append len(s) rows. Every other argument is one value for all rows
        or a column of that length; arm and contact_point are (3,) or (n, 3)."""
        block = np.empty((len(s), 9))
        block[:, LOG_ARM], block[:, LOG_ALPHA], block[:, LOG_S] = arm, alpha, s
        block[:, LOG_CONTACT], block[:, LOG_POINT] = contact, contact_point
        self.blocks.append(block)

    def to_csv(self) -> str:
        """The events.csv text."""
        with io.StringIO() as buf:
            self._write_csv(buf)
            return buf.getvalue()

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            self._write_csv(fh)

    def _write_csv(self, fh):
        rows = self.rows
        flags = np.where(rows[:, LOG_CONTACT] != 0.0, "1", "0")
        fh.write(LOG_HEADER + "\n")
        write_rows(fh, [np.arange(len(rows)), rows[:, :LOG_CONTACT], flags, rows[:, LOG_POINT]], nan="")


def probe_columns(scene: HeightField, arms, geom: RobotGeometry, quantum: float = 0.5):
    """Straight downward probes from minimum extension at each row of an
    (N, 3) array of arm positions; returns (extension, contact, contact_z)
    columns.

    The bristle tip starts at arm_z - (s_min + l + bristle) and descends as
    the backbone extends in `quantum` mm increments; first contact is the
    first quantized extension whose tip is at or below the surface. No
    contact by s_max reports full extension, no contact and NaN contact_z.
    A tip already below the surface at minimum extension raises
    ArmTooLowError for the first such row.
    """
    if quantum <= 0.0:
        raise ValueError(f"probe quantum must be > 0, got {quantum}")
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
    steps = np.ceil((s_exact - geom.s_min) / quantum)
    s_q = np.where(contact, np.minimum(geom.s_min + steps * quantum, geom.s_max), geom.s_max)
    contact_z = np.where(contact, z - (s_q + geom.probe_offset), np.nan)
    return s_q, contact, contact_z


def probe_vertical(scene: HeightField, arm, geom: RobotGeometry, quantum: float = 0.5) -> ProbeEvent:
    """One probe of probe_columns at a single arm position."""
    x, y, z = (float(v) for v in arm)
    (ext,), (hit,), (contact_z,) = probe_columns(scene, [(x, y, z)], geom, quantum)
    point = (x, y, float(contact_z)) if hit else None
    return ProbeEvent((x, y, z), 0.0, float(ext), bool(hit), point)


@dataclass(frozen=True)
class ScanConfig:
    """Zig-zag X-Y coverage: width x height mm visited in step_mm strides.

    arm_z = None drops the floor exactly at full extension reach, which
    keeps every cell of a desk-scale object measurable.
    """

    width: float = 200.0
    height: float = 200.0
    step_mm: float = 10.0
    origin: tuple = (0.0, 0.0)
    arm_z: float | None = None
    quantum: float = 0.5

    def __post_init__(self):
        values = (self.width, self.height, self.step_mm, *self.origin, self.quantum)
        values += () if self.arm_z is None else (self.arm_z,)
        valid = all(map(math.isfinite, values)) and min(self.step_mm, self.quantum) > 0.0
        if not valid or min(self.width, self.height) < 0.0:
            raise ConfigError(f"scan needs finite values, step and quantum > 0, size >= 0: {self}")


def surface_scan(
    scene: HeightField,
    geom: RobotGeometry,
    cfg: ScanConfig = ScanConfig(),
    log: MissionLog | None = None,
) -> ContactCloud:
    """Probe every node of the scan grid in boustrophedon order.

    The backbone retracts to s_min before every arm move (the anti-drag
    rule), probes once per node and reports one row per node. Contact
    heights are arm_z - (extension + l + bristle). All nodes are probed in
    one probe_columns call and logged as one block of two rows per node,
    the move and the probe; a node too low to probe raises before anything
    is logged.
    """
    nx = round(cfg.width / cfg.step_mm) + 1
    ny = round(cfg.height / cfg.step_mm) + 1
    arm_z = cfg.arm_z if cfg.arm_z is not None else geom.s_max + geom.probe_offset
    log = log if log is not None else MissionLog()
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
    log.add_block(
        np.repeat(arms, 2, axis=0),
        0.0,
        np.column_stack([np.full_like(ext, geom.s_min), ext]).ravel(),
        np.column_stack([np.zeros_like(contact), contact]).ravel(),
        np.stack([np.full_like(points, np.nan), points], axis=1).reshape(-1, 3),
    )
    return ContactCloud(arms, ext, contact, contact_z, nx, ny, cfg.step_mm, cfg.origin)


@dataclass(frozen=True)
class ExploreConfig:
    """Tube exploration parameters: descent schedule and ring-scan targets."""

    descent_step: float = 20.0
    max_steps: int = 5
    compressed_s: float = 45.0
    target_radial: float = 15.0
    target_z: float = 60.0
    n_directions: int = 8
    max_step_mm: float = 2.0

    def __post_init__(self):
        values = (self.descent_step, self.max_steps, self.compressed_s, self.target_radial,
                  self.target_z, self.n_directions, self.max_step_mm)
        valid = all(map(math.isfinite, values)) and min(self.max_steps, self.n_directions) >= 1
        if not valid or min(self.descent_step, self.max_step_mm) <= 0.0:
            raise ConfigError(
                f"explore needs finite values, max_steps and n_directions >= 1, "
                f"descent_step and max_step_mm > 0: {self}"
            )


def radial_scan(
    scene: Tube,
    geom: RobotGeometry,
    arm,
    cfg: ExploreConfig = ExploreConfig(),
    log: MissionLog | None = None,
):
    """One ring of bend-and-extend probes around the tube axis.

    For each azimuth the backbone compresses to cfg.compressed_s, then
    follows the tendon-interpolated path toward the target point
    (radial*cos(a), radial*sin(a), target_z); waypoint states sweep
    (theta, s) linearly at the fractions step/n of the n tendon steps
    (actuation.step_count). The bristle tip is checked against the wall
    and the obstacle at every waypoint; the first contact stops that
    azimuth and the backbone re-compresses. The goal tendon sets of the
    ring are one kernel call and all its waypoints another.

    Returns (events, any_contact).
    """
    log = log if log is not None else MissionLog()
    arm = tuple(float(v) for v in arm)
    q_compressed = tendon_lengths(ArcState.from_arc(0.0, 0.0, cfg.compressed_s), geom)
    alphas = [TWO_PI * k / cfg.n_directions for k in range(cfg.n_directions)]
    goals = [
        ik((cfg.target_radial * math.cos(a), cfg.target_radial * math.sin(a), cfg.target_z), geom)
        for a in alphas
    ]
    goal_alpha, goal_theta, goal_s = np.reshape([(g.alpha, g.theta, g.s) for g in goals], (-1, 3)).T
    goal_q = arc_kernel(goal_alpha, goal_theta, goal_s, geom.d, geom.l).q
    steps = step_count(q_compressed.as_tuple(), goal_q, cfg.max_step_mm)
    # The waypoints of all azimuths back to back: azimuth k owns the rows
    # starts[k] .. starts[k] + steps[k], at fractions t = step / steps[k].
    per_azimuth = steps + 1
    starts = np.cumsum(per_azimuth) - per_azimuth
    rows = np.repeat(np.arange(cfg.n_directions), per_azimuth)
    t = (np.arange(rows.size) - starts[rows]) / steps[rows]
    s = cfg.compressed_s + t * (goal_s[rows] - cfg.compressed_s)
    bristle = arc_kernel(np.take(alphas, rows), t * goal_theta[rows], s, geom.d, geom.probe_offset)
    tips = np.add(arm, bristle.e * (1.0, -1.0, -1.0))  # world = arm + (x, -y, -z)
    touch = np.hypot(tips[:, 0] - arm[0], tips[:, 1] - arm[1]) >= scene.inner_radius_mm
    if scene.obstacle is not None:
        touch |= scene.obstacle.contains(tips)
    # First touching waypoint of each azimuth, or the row past its last one.
    first = np.minimum.reduceat(np.where(touch, np.arange(rows.size), rows.size), starts)
    contact = first < starts + per_azimuth
    first = np.where(contact, first, 0)
    ext = np.where(contact, s[first], goal_s)
    points = np.where(contact[:, None], tips[first], np.nan)
    log.add_block(arm, alphas, ext, contact, points)
    events = [
        ProbeEvent(arm, alpha, e, hit, tuple(p) if hit else None)
        for alpha, e, hit, p in zip(alphas, ext.tolist(), contact.tolist(), points.tolist())
    ]
    return events, bool(contact.any())


@dataclass(frozen=True)
class ExploreResult:
    stop_depth_mm: float
    any_contact: bool
    events: tuple
    log: MissionLog


def explore_tube(
    scene: Tube,
    geom: RobotGeometry,
    start=(0.0, 0.0, 0.0),
    cfg: ExploreConfig = ExploreConfig(),
    log: MissionLog | None = None,
) -> ExploreResult:
    """Descend in fixed steps, ring-scanning after each step.

    The first scan that reports any contact still runs to completion; the
    arm then returns to its start and the mission stops with the
    cumulative descent as stop depth. Without contact the arm performs
    max_steps descents for a stop depth of max_steps * descent_step.
    """
    if not isinstance(scene, Tube):
        raise SceneError("tube exploration needs a tube scene")
    log = log if log is not None else MissionLog()
    start = tuple(float(v) for v in start)
    all_events = []
    depth = 0.0
    for _ in range(cfg.max_steps):
        depth += cfg.descent_step
        arm = (start[0], start[1], start[2] - depth)
        # Descend compressed; the backbone never moves with the arm extended.
        log.add(arm, 0.0, cfg.compressed_s)
        events, hit = radial_scan(scene, geom, arm, cfg, log)
        all_events.extend(events)
        if hit:
            log.add(start, 0.0, cfg.compressed_s)
            return ExploreResult(depth, True, tuple(all_events), log)
    return ExploreResult(depth, False, tuple(all_events), log)


@dataclass(frozen=True)
class PressureSynth:
    """Synthetic bristle pressure traces for exercising threshold detection.

    Produces baseline readings with Gaussian noise and an additive step
    once contact occurs. Purely optional; mission contact decisions stay
    geometric.
    """

    seed: int = 0
    baseline_hpa: float = 1013.0
    noise_sd_hpa: float = 1.0
    contact_step_hpa: float = 40.0

    def trace(self, n_samples: int, contact_at: int | None = None) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        p = self.baseline_hpa + rng.normal(0.0, self.noise_sd_hpa, n_samples)
        if contact_at is not None:
            p[contact_at:] += self.contact_step_hpa
        return p


def detect_contact(trace, baseline_hpa: float, threshold_hpa: float):
    """Index of the first sample deviating from baseline by the threshold, else None."""
    for idx, p in enumerate(trace):
        if abs(float(p) - baseline_hpa) >= threshold_hpa:
            return idx
    return None
