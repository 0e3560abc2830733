"""Correctness checks of the warm-up pass outputs.

The checks re-derive what any correct coilkin must produce from the
generated inputs and closed forms of their own. They compare numbers
within tolerances, never digests of today's output, so that a change of
float bits or of the arc/chord tie rule still passes. Each returns
(failures, items): failures as (command index, message) pairs, items as
the work items one pass does.
"""

import csv
import json
import math
import os

from workloads import (
    DESCENT_STEP,
    L_TIP,
    MAX_STEPS,
    N_DIRECTIONS,
    PULLEY_DIAMETER,
    S_MAX,
    S_MIN,
    SCAN_QUANTUM,
    SCAN_STEP_MM,
)

POS_TOL = 1e-9  # mm, positions and grid values
# mm of payout within which either feasibility verdict is accepted.
PAYOUT_BAND = 1e-6
# |cos(alpha - phi)| below which a tendon may be taken as arc or chord.
TIE_TOL = 1e-9
CONTACT_TOL = 1e-6  # mm, contact points on the wall or the cube surface


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _ply_vertices(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("element vertex"):
                return int(line.split()[2])
            if line.startswith("end_header"):
                break
    return None


def _stdout_fields(text):
    """key=value pairs of the last stdout line."""
    lines = text.strip().splitlines()
    return dict(part.split("=", 1) for part in lines[-1].split()) if lines else {}


def _tendon_payout(alpha, theta, s, d):
    """(least, greatest) shortening the four tendons need from home length s_max.

    Tendon i anchors at angle i*pi/2. With c = cos(alpha - phi_i) it runs
    as an arc of radius sqrt(r^2 + d^2 - 2rdc) when c > 0 and as the chord
    2|r - dc|sin(theta/2) otherwise; within TIE_TOL of c = 0 both count.
    """
    if theta < 1e-12:
        need = S_MAX - s
        return need, need
    r = s / theta
    lo_q, hi_q = math.inf, math.inf
    for i in range(4):
        c = math.cos(alpha - i * math.pi / 2)
        arc = math.sqrt(max(0.0, r * r + d * d - 2 * r * d * c)) * theta
        chord = 2 * abs(r - d * c) * math.sin(theta / 2)
        if c > TIE_TOL:
            options = (arc,)
        elif c < -TIE_TOL:
            options = (chord,)
        else:
            options = (arc, chord)
        lo_q = min(lo_q, max(options))
        hi_q = min(hi_q, min(options))
    return S_MAX - lo_q, S_MAX - hi_q


def check_workspace(workload, out_dirs, warmup):
    spec = workload.spec[0]
    n_alpha, n_theta, n_s = spec["grid"]
    expected = n_alpha * n_theta * n_s
    if warmup[0]["rc"] != 0:
        return [], expected
    payout = spec["servo_range"] / 360.0 * math.pi * PULLEY_DIAMETER
    out = out_dirs[0]
    rows = _read_rows(os.path.join(out, "workspace.csv"))[1:]
    if len(rows) != expected:
        return [(0, f"workspace.csv has {len(rows)} rows, expected {expected}")], expected
    problems = []
    feasible = 0
    k = 0
    for ia in range(n_alpha):
        for it in range(n_theta):
            for i_s in range(n_s):
                row = rows[k]
                k += 1
                alpha, theta, s, *pts = (float(v) for v in row[:9])
                grid = (
                    2 * math.pi * ia / n_alpha,
                    math.pi / 2 * it / (n_theta - 1),
                    S_MIN + (S_MAX - S_MIN) * i_s / (n_s - 1),
                )
                if any(abs(a - b) > POS_TOL for a, b in zip((alpha, theta, s), grid)):
                    problems.append(f"row {k}: state {row[:3]} is not grid point {grid}")
                    continue
                if theta < 1e-12:
                    u = (0.0, 0.0, s)
                else:
                    radial = s * 2 * math.sin(theta / 2) ** 2 / theta
                    u = (radial * math.cos(alpha), radial * math.sin(alpha), s * math.sin(theta) / theta)
                tangent = (math.cos(alpha) * math.sin(theta), math.sin(alpha) * math.sin(theta), math.cos(theta))
                e = tuple(uk + L_TIP * tk for uk, tk in zip(u, tangent))
                if any(abs(a - b) > POS_TOL for a, b in zip(pts, u + e)):
                    problems.append(f"row {k}: U/E {pts} differ from {u + e}")
                    continue
                flag = row[9] == "1"
                feasible += flag
                least, most = _tendon_payout(alpha, theta, s, spec["d"])
                if flag and least > payout + PAYOUT_BAND:
                    problems.append(f"row {k}: feasible but needs {least} mm of {payout}")
                elif not flag and most < payout - PAYOUT_BAND:
                    problems.append(f"row {k}: infeasible but needs only {most} mm of {payout}")
    fields = _stdout_fields(warmup[0]["stdout"])
    if fields.get("samples") != str(expected) or fields.get("feasible") != str(feasible):
        problems.append(f"stdout {fields} disagrees with workspace.csv")
    if _ply_vertices(os.path.join(out, "workspace.ply")) != feasible:
        problems.append("workspace.ply vertex count differs from the feasible rows")
    return [(0, p) for p in problems[:5]], expected


def check_scan(workload, out_dirs, warmup):
    heights = workload.spec[0]["heights"]
    n = len(heights)
    if warmup[0]["rc"] != 0:
        return [], n * n
    out = out_dirs[0]
    problems = []

    def off_surface(value, i, j):
        truth = heights[i][j]
        return not truth - SCAN_QUANTUM - POS_TOL <= value <= truth + POS_TOL

    nodes = set()
    contacts = {}
    for row in _read_rows(os.path.join(out, "events.csv"))[1:]:
        i = round(float(row[1]) / SCAN_STEP_MM)
        j = round(float(row[2]) / SCAN_STEP_MM)
        nodes.add((i, j))
        if row[6] == "1":
            cz = float(row[9])
            contacts[(i, j)] = cz
            if off_surface(cz, i, j):
                problems.append(f"node {(i, j)}: contact z {cz} vs height {heights[i][j]}")
    if nodes != {(i, j) for i in range(n) for j in range(n)}:
        problems.append(f"events.csv visits {len(nodes)} nodes, expected {n * n}")
    fields = _stdout_fields(warmup[0]["stdout"])
    if fields.get("nodes") != str(n * n) or fields.get("contacts") != str(len(contacts)):
        problems.append(f"stdout {fields} disagrees with events.csv")
    if contacts:
        i0 = min(i for i, _ in contacts)
        j0 = min(j for _, j in contacts)
        cells = 0
        for a, line in enumerate(_read_rows(os.path.join(out, "heightmap.csv"))[1:]):
            for b, text in enumerate(line):
                value = float(text)
                if math.isnan(value):
                    continue
                cells += 1
                if off_surface(value, i0 + a, j0 + b):
                    problems.append(f"heightmap cell {(a, b)} = {value} is off the surface")
        if cells != len(contacts):
            problems.append(f"heightmap holds {cells} cells for {len(contacts)} contacts")
        if _ply_vertices(os.path.join(out, "heightmap.ply")) != cells:
            problems.append("heightmap.ply vertex count differs from the height map")
        feature = _read_rows(os.path.join(out, "features.csv"))
        values = [float(v) for v in feature[0][1:]] if len(feature) == 1 else []
        if len(values) != 300 or not all(math.isfinite(v) for v in values):
            problems.append("features.csv does not hold one row of 300 finite values")
    return [(0, p) for p in problems[:5]], n * n


def _in_cube(p, center, edge):
    return all(abs(p[k] - center[k]) <= edge / 2 + CONTACT_TOL for k in range(3))


def _explore_one(spec, out, stdout):
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    stop = report["stop_depth_mm"]
    rings = stop / DESCENT_STEP
    if rings != round(rings) or not 1 <= rings <= MAX_STEPS:
        return f"stop depth {stop} is not a multiple of {DESCENT_STEP} up to {MAX_STEPS * DESCENT_STEP}", 0
    if not report["any_contact"] and stop != MAX_STEPS * DESCENT_STEP:
        return f"stopped at {stop} without contact", 0
    if report["probes"] != N_DIRECTIONS * round(rings):
        return f"{report['probes']} probes for {round(rings)} rings", 0
    points = [
        tuple(float(v) for v in row[7:10])
        for row in _read_rows(os.path.join(out, "events.csv"))[1:]
        if row[6] == "1"
    ]
    if len(points) != report["contacts"] or bool(points) != report["any_contact"]:
        return f"report {report} disagrees with {len(points)} contact rows", 0
    if spec["center"] is None and points:
        return f"control tube of radius {spec['radius']} reported contact", 0
    for p in points:
        on_wall = math.hypot(p[0], p[1]) >= spec["radius"] - CONTACT_TOL
        if not on_wall and not (spec["center"] and _in_cube(p, spec["center"], spec["edge"])):
            return f"contact {p} is neither on the wall nor in the cube", 0
    fields = _stdout_fields(stdout)
    if float(fields.get("stop_depth", "nan")) != stop or fields.get("contacts") != str(len(points)):
        return f"stdout {fields} disagrees with report.json", 0
    return None, report["probes"]


def check_explore(workload, out_dirs, warmup):
    failures = []
    items = 0
    for i, (spec, out, rec) in enumerate(zip(workload.spec, out_dirs, warmup)):
        if rec["rc"] != 0:
            continue
        try:
            problem, probes = _explore_one(spec, out, rec["stdout"])
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problem, probes = f"unreadable output: {exc!r}", 0
        items += probes
        if problem:
            failures.append((i, problem))
    return failures, items


CHECKS = {
    "workspace-grid": check_workspace,
    "scan-dense": check_scan,
    "explore-sweep": check_explore,
}


def check(workload, checked_dir, warmup):
    """Run the workload's checks on the warm-up outputs under checked_dir.

    Commands that exited non-zero are skipped: the worker counted them.
    """
    out_dirs = [os.path.join(checked_dir, f"cmd{i:03d}") for i in range(len(workload.commands))]
    try:
        return CHECKS[workload.name](workload, out_dirs, warmup)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [(0, f"unreadable output: {exc!r}")], 0
