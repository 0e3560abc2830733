"""Deterministic contact missions: vertical probing, zig-zag surface scans
and tube exploration with an obstacle stop rule.

The arm carries Frame D pointing straight down, so a backbone point
(x, y, z) in Frame D sits at arm + (x, -y, -z) in world coordinates. The
arm only translates. Every arm move and probe appends to a mission log
whose CSV serialization is byte-stable, so identical configurations
replay identically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .actuation import step_count
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


@dataclass(frozen=True)
class ContactCloud:
    """Probe results over a scan grid, in world (arm-frame) coordinates."""

    events: tuple
    nx: int
    ny: int
    step_mm: float
    origin: tuple

    @property
    def contact_count(self) -> int:
        return sum(1 for e in self.events if e.contact)


@dataclass
class MissionLog:
    """Append-only event log; rows are arm moves and probe results."""

    rows: list = field(default_factory=list)

    def add(self, arm, alpha, s, contact=False, contact_point=None):
        self.rows.append((len(self.rows), tuple(arm), alpha, s, contact, contact_point))

    def to_csv(self) -> str:
        lines = [LOG_HEADER]
        for idx, arm, alpha, s, contact, cp in self.rows:
            cells = [str(idx)] + [repr(float(v)) for v in arm]
            cells += [repr(float(alpha)), repr(float(s)), "1" if contact else "0"]
            cells += [repr(float(v)) for v in cp] if cp is not None else ["", "", ""]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def probe_vertical(scene: HeightField, arm, geom: RobotGeometry, quantum: float = 0.5) -> ProbeEvent:
    """Straight downward probe from minimum extension.

    The bristle tip starts at arm_z - (s_min + l + bristle) and descends as
    the backbone extends in `quantum` mm increments; first contact is the
    first quantized extension whose tip is at or below the surface. No
    contact by s_max reports a fully extended non-contact event.
    """
    if quantum <= 0.0:
        raise ValueError(f"probe quantum must be > 0, got {quantum}")
    x, y, z = (float(v) for v in arm)
    h = scene.height_at(x, y)
    tip_min = z - (geom.s_min + geom.probe_offset)
    if tip_min < h:
        raise ArmTooLowError(
            f"probe tip at minimum extension is {tip_min:.3f} mm, below surface {h:.3f} mm"
        )
    s_exact = z - geom.probe_offset - h
    if s_exact > geom.s_max:
        return ProbeEvent((x, y, z), 0.0, geom.s_max, False)
    steps = math.ceil((s_exact - geom.s_min) / quantum)
    s_q = min(geom.s_min + steps * quantum, geom.s_max)
    contact_point = (x, y, z - (s_q + geom.probe_offset))
    return ProbeEvent((x, y, z), 0.0, s_q, True, contact_point)


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
    rule), probes once per node and reports one event per node. Contact
    heights are arm_z - (extension + l + bristle).
    """
    nx = round(cfg.width / cfg.step_mm) + 1
    ny = round(cfg.height / cfg.step_mm) + 1
    arm_z = cfg.arm_z if cfg.arm_z is not None else geom.s_max + geom.probe_offset
    log = log if log is not None else MissionLog()
    events = []
    for j in range(ny):
        cols = range(nx) if j % 2 == 0 else range(nx - 1, -1, -1)
        for i in cols:
            arm = (
                cfg.origin[0] + i * cfg.step_mm,
                cfg.origin[1] + j * cfg.step_mm,
                arm_z,
            )
            # Move with the backbone retracted, then extend in place.
            log.add(arm, 0.0, geom.s_min)
            event = probe_vertical(scene, arm, geom, cfg.quantum)
            events.append(event)
            log.add(arm, 0.0, event.extension_mm, event.contact, event.contact_point)
    return ContactCloud(tuple(events), nx, ny, cfg.step_mm, cfg.origin)


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
    events = []
    for k, alpha in enumerate(alphas):
        hits = np.flatnonzero(touch[starts[k] : starts[k] + per_azimuth[k]])
        if hits.size:
            i = starts[k] + hits[0]
            event = ProbeEvent(arm, alpha, float(s[i]), True, tuple(tips[i].tolist()))
        else:
            event = ProbeEvent(arm, alpha, goals[k].s, False)
        events.append(event)
        log.add(arm, alpha, event.extension_mm, event.contact, event.contact_point)
    return events, any(e.contact for e in events)


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
