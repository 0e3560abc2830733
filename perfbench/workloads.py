"""Seeded inputs and command lists of the benchmark workloads.

Every input is drawn from random.Random(seed) and written as the geometry
or scene JSON (or plain CLI arguments) that a user would hand to coilkin;
coilkin never sees the seed.
"""

import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("workspace-grid", "scan-dense", "explore-sweep")

# Defaults of coilkin's RobotGeometry and ExploreConfig that the generated
# scenes and the checks rely on. They are restated here rather than
# imported so that the checks stay independent of the code under test.
S_MIN = 20.0
S_MAX = 70.0
L_TIP = 53.0
BRISTLE = 53.0
PULLEY_DIAMETER = 70.0
COMPRESSED_S = 45.0
DESCENT_STEP = 20.0
MAX_STEPS = 5
N_DIRECTIONS = 8

WORKSPACE_GRID = (72, 19, 11)
# Ranges in which part of the default grid needs more payout than the servo
# gives (the feasible share stays between about 0.83 and 0.998).
D_RANGE = (10.0, 14.0)
SERVO_RANGE = (85.0, 105.0)

SCAN_SIZE_MM = 200
SCAN_STEP_MM = 1.0
SCAN_QUANTUM = 0.5

EXPLORE_COMMANDS = 100
CONTROL_EVERY = 10
OFFSET_RANGE = (10.0, 130.0)
RADIUS_RANGE = (40.0, 200.0)
# The bristle tip never gets farther than about 65 mm from the tube axis,
# so control tubes start well beyond that and must see no contact.
CONTROL_RADIUS_RANGE = (80.0, 200.0)
OBSTACLE_RADIAL = 45.0
OBSTACLE_EDGE = 40.0


@dataclass
class Workload:
    """Commands of one pass plus what the checks need to judge them.

    commands are argv lists for coilkin.cli.main without --out; results
    names the output files of each command that every pass must reproduce
    byte for byte; spec holds the generated parameters of each command.
    """

    name: str
    commands: list
    results: tuple
    spec: list


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _stratified(rng, lo, hi, n):
    """n ascending values, one uniform draw in each of n equal strata of [lo, hi].

    Stratifying keeps the work of a pass nearly the same from seed to seed
    while every individual input still changes.
    """
    width = (hi - lo) / n
    return [round(lo + (k + rng.random()) * width, 3) for k in range(n)]


def _workspace(rng, input_dir):
    d = round(rng.uniform(*D_RANGE), 3)
    servo_range = round(rng.uniform(*SERVO_RANGE), 3)
    path = os.path.join(input_dir, "geometry.json")
    _write_json(path, {"d": d, "servo_range": servo_range})
    return Workload(
        "workspace-grid",
        [["workspace", "--geometry", path]],
        ("workspace.csv", "workspace.ply"),
        [{"d": d, "servo_range": servo_range, "grid": WORKSPACE_GRID}],
    )


def _plateau(side, height):
    def h(x, y):
        return height if abs(x) <= side / 2 and abs(y) <= side / 2 else 0.0

    return h, side, side


def _two_tier(length, width, low, high):
    def h(x, y):
        if abs(x) > length / 2 or abs(y) > width / 2:
            return 0.0
        return high if x < 0 else low

    return h, length, width


def _cylinder(radius, length):
    """Half cylinder lying along y."""

    def h(x, y):
        if abs(x) >= radius or abs(y) > length / 2:
            return 0.0
        return math.sqrt(radius * radius - x * x)

    return h, 2 * radius, length


def _sphere_cap(radius, cut):
    foot = math.sqrt(radius * radius - cut * cut)

    def h(x, y):
        d2 = x * x + y * y
        return max(0.0, math.sqrt(radius * radius - d2) - cut) if d2 < foot * foot else 0.0

    return h, 2 * foot, 2 * foot


def _scan(rng, input_dir):
    """The four C6 shapes, one per 100 mm quadrant, sized and placed by the seed.

    Heights stay at or below 45 mm, under the 50 mm the probe can retract
    to at the default arm height, so no probe fails.
    """
    shapes = [
        _plateau(rng.uniform(40, 60), rng.uniform(30, 45)),
        _two_tier(rng.uniform(80, 90), rng.uniform(50, 60), 20.0, 40.0),
        _cylinder(rng.uniform(25, 30), rng.uniform(80, 95)),
        _sphere_cap(rng.uniform(32, 38), 5.0),
    ]
    quadrants = [(0, 0), (100, 0), (0, 100), (100, 100)]
    rng.shuffle(quadrants)
    n = SCAN_SIZE_MM + 1
    heights = [[0.0] * n for _ in range(n)]
    for (h, sx, sy), (qx, qy) in zip(shapes, quadrants):
        if rng.random() < 0.5:  # quarter turn
            h, sx, sy = (lambda x, y, f=h: f(y, x)), sy, sx
        cx = qx + sx / 2 + rng.uniform(0, 100 - sx)
        cy = qy + sy / 2 + rng.uniform(0, 100 - sy)
        for i in range(max(0, math.floor(cx - sx / 2)), min(n, math.ceil(cx + sx / 2) + 1)):
            for j in range(max(0, math.floor(cy - sy / 2)), min(n, math.ceil(cy + sy / 2) + 1)):
                value = round(h(i - cx, j - cy), 2)
                if value > 0.0:
                    heights[i][j] = value
    path = os.path.join(input_dir, "scene.json")
    _write_json(
        path,
        {"type": "height_field", "origin": [0, 0], "cell_mm": SCAN_STEP_MM, "heights": heights},
    )
    return Workload(
        "scan-dense",
        [["scan", "--scene", path, "--step", repr(SCAN_STEP_MM)]],
        ("events.csv", "heightmap.csv", "heightmap.ply", "features.csv"),
        [{"heights": heights}],
    )


def _explore(rng, input_dir):
    """About 100 explore commands; every tenth is the empty-tube control.

    Obstacle offsets cover every stop depth and some misses; tube radii at
    or below about 65 mm stop on the wall at the first ring.
    """
    n_control = EXPLORE_COMMANDS // CONTROL_EVERY
    n_obstacle = EXPLORE_COMMANDS - n_control
    offsets = _stratified(rng, *OFFSET_RANGE, n_obstacle)
    # Paired by opposite rank: the narrowest tubes hold the deepest
    # obstacles, so the wall stops them. A fixed pairing keeps the mix of
    # stop depths the same for every seed, and puts the median command
    # well inside one stop depth's cluster of latencies instead of on the
    # edge between two, where cmd_ms.p50 would jump from seed to seed.
    radii = _stratified(rng, *RADIUS_RANGE, n_obstacle)[::-1]
    control_radii = _stratified(rng, *CONTROL_RADIUS_RANGE, n_control)
    # Bristle tip height of the compressed backbone below the arm start.
    tip_z = -(COMPRESSED_S + L_TIP + BRISTLE)
    jobs = []
    for k, (offset, radius) in enumerate(zip(offsets, radii)):
        center = [OBSTACLE_RADIAL, 0.0, tip_z - offset - OBSTACLE_EDGE / 2]
        path = os.path.join(input_dir, f"tube{k:03d}.json")
        _write_json(
            path,
            {
                "type": "tube",
                "inner_radius_mm": radius,
                "obstacle": {"center": center, "edge_mm": OBSTACLE_EDGE},
            },
        )
        jobs.append(
            (["explore", "--scene", path],
             {"radius": radius, "center": center, "edge": OBSTACLE_EDGE})
        )
    for radius in control_radii:
        jobs.append(
            (["explore", "--no-obstacle", "--tube-radius", repr(radius)],
             {"radius": radius, "center": None, "edge": None})
        )
    rng.shuffle(jobs)
    return Workload(
        "explore-sweep",
        [argv for argv, _ in jobs],
        ("events.csv", "report.json"),
        [spec for _, spec in jobs],
    )


_BUILDERS = {"workspace-grid": _workspace, "scan-dense": _scan, "explore-sweep": _explore}


def build(name, seed, input_dir):
    """Write the inputs of workload `name` for `seed` under input_dir."""
    os.makedirs(input_dir, exist_ok=True)
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), input_dir)
