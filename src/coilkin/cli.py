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
from .errors import CoilkinError, ConfigError
from .geometry import RobotGeometry
from .kinematics import ArcState, fk, ik
from .perception import reconstruct, to_feature
from .scenes import Cube, Tube, load_scene
from .simulator import (
    PRESSURE_SAMPLES,
    ExploreConfig,
    ScanConfig,
    explore_tube,
    pressure_detections,
    surface_scan,
)
from .workspace import DEFAULT_GRID, sample_workspace, workspace_extents, write_files

# Radial offset of the canonical exploration obstacle: far enough off-axis
# that descent never touches it, well inside the ring-scan sweep.
OBSTACLE_RADIAL = 45.0
OBSTACLE_EDGE = 40.0
# The detected_sample text of pressure.csv, at code detected + 1: empty
# where nothing was detected (-1), else the sample index.
_DETECTED_TEXT = np.array([b""] + [b"%d" % k for k in range(PRESSURE_SAMPLES)])


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


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out, command, args, outputs):
    _write_json(os.path.join(out, "manifest.json"), {
        "command": command,
        "geometry": args.geometry or "defaults",
        "scene": getattr(args, "scene", None),
        "seed": getattr(args, "seed", None),
        "outputs": sorted(outputs),
    })


def _print_record(record):
    print(json.dumps(record, sort_keys=True))


def cmd_fk(args) -> int:
    geom = _geometry(args)
    state = ArcState(math.radians(args.alpha), math.radians(args.theta), args.s)
    kin = fk(state, geom)
    _print_record(dict(zip(("xU", "yU", "zU", "xE", "yE", "zE"), kin.u.tolist() + kin.e.tolist())))
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
    state = ArcState(math.radians(args.alpha), math.radians(args.theta), args.s)
    _print_record(dict(zip(("q1", "q2", "q3", "q4"), fk(state, geom).q.tolist())))
    return 0


def cmd_workspace(args) -> int:
    geom = _geometry(args)
    ws = sample_workspace(geom, (args.n_alpha, args.n_theta, args.n_s))
    extents = workspace_extents(ws)  # before any output, so that an empty workspace writes nothing
    out = _out_dir(args)
    write_files(ws, os.path.join(out, "workspace.csv"), os.path.join(out, "workspace.ply"))
    _write_manifest(out, "workspace", args, ["workspace.csv", "workspace.ply"])
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
    cloud = surface_scan(scene, geom, cfg)
    # Everything that can fail on the input comes before any output: a bad
    # seed, and the features row, whose provenance is the scene file name
    # as UTF-8, with the bytes of a name that is not UTF-8 escaped.
    if args.pressure_synth:
        detected = pressure_detections(cloud.contact, args.seed, geom.contact_threshold)
    if cloud.contact_count > 0:
        hmap = reconstruct(cloud)
        name = os.fsencode(os.path.basename(args.scene)).decode("utf-8", "backslashreplace")
        features = (to_feature(hmap, provenance=name).to_csv_row() + "\n").encode()
    out = _out_dir(args)
    outputs = ["events.csv"]
    cloud.log.write(os.path.join(out, "events.csv"))
    if args.pressure_synth:
        outputs.append("pressure.csv")
        _write_pressure(os.path.join(out, "pressure.csv"), cloud.contact, detected)
    if cloud.contact_count > 0:
        hmap.write_csv(os.path.join(out, "heightmap.csv"))
        hmap.write_ply(os.path.join(out, "heightmap.ply"))
        with open(os.path.join(out, "features.csv"), "wb") as fh:
            fh.write(features)
        outputs += ["heightmap.csv", "heightmap.ply", "features.csv"]
    _write_manifest(out, "scan", args, outputs)
    print(f"nodes={len(cloud.contact)} contacts={cloud.contact_count}")
    return 0


def _write_pressure(path, contact, detected):
    """Per probe its contact flag and the sample at which its synthetic
    pressure trace crossed the threshold, empty where it never did."""
    with open(path, "wb") as fh:
        fh.write(b"event_index,contact,detected_sample\n")
        write_rows(fh, [np.arange(len(detected)), contact, (_DETECTED_TEXT, detected + 1)])


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
    elif args.no_obstacle:
        scene = Tube(args.tube_radius)
    elif args.obstacle_offset is not None:
        scene = make_offset_tube(args.obstacle_offset, geom, cfg, args.tube_radius)
    else:
        raise ConfigError("explore needs --scene, --obstacle-offset or --no-obstacle")
    result = explore_tube(scene, geom, (0.0, 0.0, 0.0), cfg)
    out = _out_dir(args)
    result.log.write(os.path.join(out, "events.csv"))
    contacts = int(result.contact.sum())
    report = {
        "stop_depth_mm": result.stop_depth_mm,
        "any_contact": result.any_contact,
        "contacts": contacts,
        "probes": len(result.contact),
    }
    _write_json(os.path.join(out, "report.json"), report)
    _write_manifest(out, "explore", args, ["events.csv", "report.json"])
    print(f"stop_depth={result.stop_depth_mm:g} contacts={contacts}")
    return 0


def _add_geometry_arg(parser):
    parser.add_argument("--geometry", help="geometry JSON file (defaults used when omitted)")


def _add_out_args(parser):
    parser.add_argument("--out", default="coilkin_out", help="output directory")


def _add_arc_args(parser):
    parser.add_argument("--alpha", type=float, required=True, help="bend-plane angle, degrees")
    parser.add_argument("--theta", type=float, required=True, help="bend angle, degrees")
    parser.add_argument("--s", type=float, required=True, help="backbone length, mm")


def _fk_args(p):
    _add_arc_args(p)
    _add_geometry_arg(p)


def _ik_args(p):
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("z", type=float)
    _add_geometry_arg(p)


def _tendons_args(p):
    _add_arc_args(p)
    p.add_argument("--d", type=float, default=None, help="attachment radius override, mm")
    _add_geometry_arg(p)


def _workspace_args(p):
    for flag, count in zip(("--n-alpha", "--n-theta", "--n-s"), DEFAULT_GRID):
        p.add_argument(flag, type=int, default=count)
    p.add_argument("--servo-range", type=float, default=None, help="servo range override, degrees")
    _add_geometry_arg(p)
    _add_out_args(p)


def _scan_args(p):
    p.add_argument("--scene", required=True, help="height-field scene JSON")
    p.add_argument("--width", type=float, default=200.0)
    p.add_argument("--height", type=float, default=200.0)
    p.add_argument("--step", type=float, default=10.0)
    p.add_argument("--arm-z", type=float, default=None, help="arm height, mm (default: floor reach)")
    p.add_argument("--quantum", type=float, default=0.5, help="probe extension step, mm")
    p.add_argument("--pressure-synth", action="store_true", help="emit synthetic pressure checks")
    p.add_argument("--seed", type=int, default=None, help="seed of the pressure synthesizer (default 0)")
    _add_geometry_arg(p)
    _add_out_args(p)


def _explore_args(p):
    p.add_argument("--scene", default=None, help="tube scene JSON")
    p.add_argument("--obstacle-offset", type=float, default=None,
                   help="cube offset below the compressed bristle tip, mm")
    p.add_argument("--no-obstacle", action="store_true", help="run the empty-tube control")
    p.add_argument("--tube-radius", type=float, default=174.0)
    _add_geometry_arg(p)
    _add_out_args(p)


# name -> (help, function adding the command's arguments, handler), in the
# order that help and usage list the commands.
COMMANDS = {
    "fk": ("spring-top and tip position of a configuration", _fk_args, cmd_fk),
    "ik": ("arc state reaching a spring-top target", _ik_args, cmd_ik),
    "tendons": ("tendon lengths of a configuration", _tendons_args, cmd_tendons),
    "workspace": ("sample the reachable set, write CSV + PLY", _workspace_args, cmd_workspace),
    "scan": ("zig-zag contact scan of a height-field scene", _scan_args, cmd_scan),
    "explore": ("tube exploration with descent steps", _explore_args, cmd_explore),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; with a command name, only that command's subparser.

    A one-command parser accepts exactly what the full parser accepts for
    that command and prints the same help, usage and errors: its metavar
    keeps the full command list in the top-level usage line, which the
    "unrecognized arguments" error prints. The full parser derives that
    list from its choices; a metavar there would change its own errors.
    """
    parser = argparse.ArgumentParser(
        prog="coilkin",
        description="Constant-curvature backbone kinematics and contact missions. "
        "Angles are degrees here, millimeters everywhere.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run one command. When argv starts with a command name only that
    command's parser is built; any other argv (help, no arguments, an
    unknown command, an option first) gets the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
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
