"""Command-line front door: kinematics queries, workspace export and missions.

Angles are degrees at this boundary and radians inside. Every run command
writes its outputs plus a manifest.json under --out (overridden by the
COILKIN_OUT environment variable). Exit codes: 0 success, 2 bad arguments
or configuration, 3 unreachable or infeasible request, 4 I/O failure.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .actuation import max_payout
from .columns import write_rows
from .errors import CoilkinError, ConfigError, SceneError
from .geometry import RobotGeometry
from .kinematics import ArcState, fk_point, fk_tip, ik, tendon_lengths
from .perception import reconstruct, to_feature
from .scenes import Cube, Tube, load_scene
from .simulator import (
    ExploreConfig,
    MissionLog,
    PressureSynth,
    ScanConfig,
    detect_contact,
    explore_tube,
    surface_scan,
)
from .workspace import sample_workspace, workspace_extents, write_csv, write_ply

# Radial offset of the canonical exploration obstacle: far enough off-axis
# that descent never touches it, well inside the ring-scan sweep.
OBSTACLE_RADIAL = 45.0
OBSTACLE_EDGE = 40.0


def _geometry(args) -> RobotGeometry:
    geom = RobotGeometry.load(args.geometry) if args.geometry else RobotGeometry()
    overrides = {}
    for name in ("d", "servo_range"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return replace(geom, **overrides) if overrides else geom


def _out_dir(args) -> str:
    out = os.environ.get("COILKIN_OUT") or args.out
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out, command, args, outputs):
    manifest = {
        "command": command,
        "geometry": args.geometry or "defaults",
        "scene": getattr(args, "scene", None),
        "seed": getattr(args, "seed", None),
        "outputs": sorted(outputs),
    }
    path = os.path.join(out, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_record(record):
    print(json.dumps(record, sort_keys=True))


def cmd_fk(args) -> int:
    geom = _geometry(args)
    state = ArcState.from_arc(math.radians(args.alpha), math.radians(args.theta), args.s)
    u = fk_point(state, geom)
    e = fk_tip(state, geom)
    _print_record(
        {
            "xU": u[0], "yU": u[1], "zU": u[2],
            "xE": e[0], "yE": e[1], "zE": e[2],
        }
    )
    return 0


def cmd_ik(args) -> int:
    geom = _geometry(args)
    state = ik((args.x, args.y, args.z), geom)
    _print_record(
        {
            "alpha_deg": math.degrees(state.alpha),
            "theta_deg": math.degrees(state.theta),
            "r_mm": state.r if math.isfinite(state.r) else None,
            "s_mm": state.s,
        }
    )
    return 0


def cmd_tendons(args) -> int:
    geom = _geometry(args)
    state = ArcState.from_arc(math.radians(args.alpha), math.radians(args.theta), args.s)
    q = tendon_lengths(state, geom)
    _print_record({"q1": q.q1, "q2": q.q2, "q3": q.q3, "q4": q.q4})
    return 0


def cmd_workspace(args) -> int:
    geom = _geometry(args)
    ws = sample_workspace(geom, (args.n_alpha, args.n_theta, args.n_s))
    out = _out_dir(args)
    write_csv(ws, os.path.join(out, "workspace.csv"))
    write_ply(ws, os.path.join(out, "workspace.ply"))
    _write_manifest(out, "workspace", args, ["workspace.csv", "workspace.ply"])
    extents = workspace_extents(ws)
    print(
        f"samples={len(ws)} feasible={ws.feasible.sum()} "
        f"z_min={extents['z_min']:.3f} z_max={extents['z_max']:.3f} "
        f"radial_max={extents['radial_max']:.3f} "
        f"max_payout={max_payout(geom):.3f}"
    )
    return 0


def cmd_scan(args) -> int:
    geom = _geometry(args)
    scene = load_scene(args.scene)
    cfg = ScanConfig(
        width=args.width,
        height=args.height,
        step_mm=args.step,
        arm_z=args.arm_z,
        quantum=args.quantum,
    )
    log = MissionLog()
    cloud = surface_scan(scene, geom, cfg, log)
    out = _out_dir(args)
    outputs = ["events.csv"]
    log.write(os.path.join(out, "events.csv"))
    if args.pressure_synth:
        outputs.append("pressure.csv")
        _write_pressure(os.path.join(out, "pressure.csv"), cloud, geom, args.seed)
    if cloud.contact_count > 0:
        hmap = reconstruct(cloud)
        hmap.write_csv(os.path.join(out, "heightmap.csv"))
        hmap.write_ply(os.path.join(out, "heightmap.ply"))
        feature = to_feature(hmap, provenance=os.path.basename(args.scene))
        with open(os.path.join(out, "features.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(feature.to_csv_row() + "\n")
        outputs += ["heightmap.csv", "heightmap.ply", "features.csv"]
    _write_manifest(out, "scan", args, outputs)
    print(f"nodes={len(cloud.contact)} contacts={cloud.contact_count}")
    return 0


def _write_pressure(path, cloud, geom, seed):
    """Synthesized pressure trace check per probe: a step on contact events."""
    synth = PressureSynth(seed=seed or 0)
    detected = []
    for idx, contact in enumerate(cloud.contact.tolist()):
        trace = replace(synth, seed=(seed or 0) + idx).trace(16, contact_at=8 if contact else None)
        hit = detect_contact(trace, synth.baseline_hpa, geom.contact_threshold)
        detected.append("" if hit is None else hit)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("event_index,contact,detected_sample\n")
        flags = np.where(cloud.contact, "1", "0")
        write_rows(fh, [np.arange(len(detected)), flags, np.array(detected, dtype=str)])


def make_offset_tube(offset_mm: float, geom: RobotGeometry, cfg: ExploreConfig = ExploreConfig(),
                     inner_radius_mm: float = 174.0) -> Tube:
    """Tube with the canonical cube obstacle a vertical offset below the
    compressed bristle tip of an arm starting at the origin."""
    tip_z = -(cfg.compressed_s + geom.probe_offset)
    center = (OBSTACLE_RADIAL, 0.0, tip_z - offset_mm - OBSTACLE_EDGE / 2.0)
    return Tube(inner_radius_mm, Cube(center, OBSTACLE_EDGE))


def cmd_explore(args) -> int:
    geom = _geometry(args)
    cfg = ExploreConfig()
    if args.scene:
        scene = load_scene(args.scene)
        if not isinstance(scene, Tube):
            raise SceneError("explore needs a tube scene")
    elif args.no_obstacle:
        scene = Tube(args.tube_radius)
    elif args.obstacle_offset is not None:
        scene = make_offset_tube(args.obstacle_offset, geom, cfg, args.tube_radius)
    else:
        raise ConfigError("explore needs --scene, --obstacle-offset or --no-obstacle")
    result = explore_tube(scene, geom, (0.0, 0.0, 0.0), cfg)
    out = _out_dir(args)
    result.log.write(os.path.join(out, "events.csv"))
    contacts = sum(1 for e in result.events if e.contact)
    report = {
        "stop_depth_mm": result.stop_depth_mm,
        "any_contact": result.any_contact,
        "contacts": contacts,
        "probes": len(result.events),
    }
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "explore", args, ["events.csv", "report.json"])
    print(f"stop_depth={result.stop_depth_mm:g} contacts={contacts}")
    return 0


def _add_geometry_arg(parser):
    parser.add_argument("--geometry", help="geometry JSON file (defaults used when omitted)")


def _add_out_args(parser):
    parser.add_argument("--out", default="coilkin_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed for the optional noise synthesizer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coilkin",
        description="Constant-curvature backbone kinematics and contact missions. "
        "Angles are degrees here, millimeters everywhere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fk", help="spring-top and tip position of a configuration")
    p.add_argument("--alpha", type=float, required=True, help="bend-plane angle, degrees")
    p.add_argument("--theta", type=float, required=True, help="bend angle, degrees")
    p.add_argument("--s", type=float, required=True, help="backbone length, mm")
    _add_geometry_arg(p)
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("ik", help="arc state reaching a spring-top target")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("z", type=float)
    _add_geometry_arg(p)
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("tendons", help="tendon lengths of a configuration")
    p.add_argument("--alpha", type=float, required=True, help="bend-plane angle, degrees")
    p.add_argument("--theta", type=float, required=True, help="bend angle, degrees")
    p.add_argument("--s", type=float, required=True, help="backbone length, mm")
    p.add_argument("--d", type=float, default=None, help="attachment radius override, mm")
    _add_geometry_arg(p)
    p.set_defaults(func=cmd_tendons)

    p = sub.add_parser("workspace", help="sample the reachable set, write CSV + PLY")
    p.add_argument("--n-alpha", type=int, default=72)
    p.add_argument("--n-theta", type=int, default=19)
    p.add_argument("--n-s", type=int, default=11)
    p.add_argument("--servo-range", type=float, default=None, help="servo range override, degrees")
    _add_geometry_arg(p)
    _add_out_args(p)
    p.set_defaults(func=cmd_workspace)

    p = sub.add_parser("scan", help="zig-zag contact scan of a height-field scene")
    p.add_argument("--scene", required=True, help="height-field scene JSON")
    p.add_argument("--width", type=float, default=200.0)
    p.add_argument("--height", type=float, default=200.0)
    p.add_argument("--step", type=float, default=10.0)
    p.add_argument("--arm-z", type=float, default=None, help="arm height, mm (default: floor reach)")
    p.add_argument("--quantum", type=float, default=0.5, help="probe extension step, mm")
    p.add_argument("--pressure-synth", action="store_true", help="emit synthetic pressure checks")
    _add_geometry_arg(p)
    _add_out_args(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("explore", help="tube exploration with descent steps")
    p.add_argument("--scene", default=None, help="tube scene JSON")
    p.add_argument("--obstacle-offset", type=float, default=None,
                   help="cube offset below the compressed bristle tip, mm")
    p.add_argument("--no-obstacle", action="store_true", help="run the empty-tube control")
    p.add_argument("--tube-radius", type=float, default=174.0)
    _add_geometry_arg(p)
    _add_out_args(p)
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CoilkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
