"""Command-line front door: kinematics queries, workspace export and missions.

Angles are degrees at this boundary and radians inside. Every run command
writes its outputs plus a manifest.json under --out. Exit codes: 0 success,
2 bad arguments or configuration, 3 unreachable or infeasible request, 4 I/O
failure.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .actuation import max_payout
from .errors import CoilkinError, ConfigError
from .geometry import RobotGeometry
from .kinematics import ArcState, fk, ik
from .perception import reconstruct, to_feature
from .scenes import Cube, Tube, load_scene
from .simulator import ExploreConfig, ScanConfig, explore_tube, surface_scan
from .workspace import DEFAULT_GRID, sample_workspace, workspace_extents, write_files

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
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out, command, args, outputs):
    _write_json(os.path.join(out, "manifest.json"), {
        "command": command,
        "geometry": args.geometry or "defaults",
        "scene": getattr(args, "scene", None),
        "outputs": sorted(outputs),
    })


def cmd_fk(args, geom) -> str:
    kin = fk(ArcState(math.radians(args.alpha), math.radians(args.theta), args.s), geom)
    record = dict(zip(("xU", "yU", "zU", "xE", "yE", "zE"), kin.u.tolist() + kin.e.tolist()))
    return json.dumps(record, sort_keys=True)


def cmd_ik(args, geom) -> str:
    state = ik((args.x, args.y, args.z), geom)
    return json.dumps({
        "alpha_deg": math.degrees(state.alpha),
        "theta_deg": math.degrees(state.theta),
        "r_mm": state.r if math.isfinite(state.r) else None,
        "s_mm": state.s,
    }, sort_keys=True)


def cmd_tendons(args, geom) -> str:
    state = ArcState(math.radians(args.alpha), math.radians(args.theta), args.s)
    return json.dumps(dict(zip(("q1", "q2", "q3", "q4"), fk(state, geom).q.tolist())), sort_keys=True)


def cmd_workspace(args, geom) -> str:
    ws = sample_workspace(geom, (args.n_alpha, args.n_theta, args.n_s))
    extents = workspace_extents(ws)  # before any output, so that an empty workspace writes nothing
    out = _out_dir(args)
    write_files(ws, os.path.join(out, "workspace.csv"), os.path.join(out, "workspace.ply"))
    _write_manifest(out, "workspace", args, ["workspace.csv", "workspace.ply"])
    return (
        f"samples={len(ws)} feasible={ws.feasible.sum()} "
        f"z_min={extents['z_min']:.3f} z_max={extents['z_max']:.3f} "
        f"radial_max={extents['radial_max']:.3f} "
        f"max_payout={max_payout(geom):.3f}"
    )


def cmd_scan(args, geom) -> str:
    scene = load_scene(args.scene)
    cfg = ScanConfig(
        width=args.width,
        height=args.height,
        step_mm=args.step,
        arm_z=args.arm_z,
        quantum=args.quantum,
    )
    cloud = surface_scan(scene, geom, cfg)
    contacts = int(cloud.log.contact.sum())
    # Everything that can fail on the input comes before any output: the
    # features row, whose provenance is the scene file name as UTF-8, with
    # the bytes of a name that is not UTF-8 escaped.
    if contacts > 0:
        hmap = reconstruct(cloud)
        name = os.fsencode(os.path.basename(args.scene)).decode("utf-8", "backslashreplace")
        features = (to_feature(hmap, provenance=name).to_csv_row() + "\n").encode()
    out = _out_dir(args)
    outputs = ["events.csv"]
    cloud.log.write(os.path.join(out, "events.csv"))
    if contacts > 0:
        hmap.write_csv(os.path.join(out, "heightmap.csv"))
        hmap.write_ply(os.path.join(out, "heightmap.ply"))
        with open(os.path.join(out, "features.csv"), "wb") as fh:
            fh.write(features)
        outputs += ["heightmap.csv", "heightmap.ply", "features.csv"]
    _write_manifest(out, "scan", args, outputs)
    return f"nodes={cloud.log.contact.size} contacts={contacts}"


def make_offset_tube(offset_mm: float, geom: RobotGeometry, cfg: ExploreConfig = ExploreConfig(),
                     inner_radius_mm: float = 174.0) -> Tube:
    """Tube with the canonical cube obstacle a vertical offset below the
    compressed bristle tip of an arm starting at the origin."""
    tip_z = -(cfg.compressed_s + geom.probe_offset)
    center = (OBSTACLE_RADIAL, 0.0, tip_z - offset_mm - OBSTACLE_EDGE / 2.0)
    return Tube(inner_radius_mm, Cube(center, OBSTACLE_EDGE))


def cmd_explore(args, geom) -> str:
    if (args.scene is not None) + (args.obstacle_offset is not None) + args.no_obstacle != 1:
        raise ConfigError("explore needs exactly one of --scene, --obstacle-offset or --no-obstacle")
    if args.scene is not None:
        scene = load_scene(args.scene)
    elif args.no_obstacle:
        scene = Tube(args.tube_radius)
    else:
        scene = make_offset_tube(args.obstacle_offset, geom, inner_radius_mm=args.tube_radius)
    result = explore_tube(scene, geom)
    out = _out_dir(args)
    result.log.write(os.path.join(out, "events.csv"))
    contacts = int(result.log.contact.sum())
    report = {
        "stop_depth_mm": result.stop_depth_mm,
        "any_contact": result.any_contact,
        "contacts": contacts,
        "probes": result.log.contact.size,
    }
    _write_json(os.path.join(out, "report.json"), report)
    _write_manifest(out, "explore", args, ["events.csv", "report.json"])
    return f"stop_depth={result.stop_depth_mm:g} contacts={contacts}"


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
    p.add_argument("--width", type=float, default=ScanConfig.width)
    p.add_argument("--height", type=float, default=ScanConfig.height)
    p.add_argument("--step", type=float, default=ScanConfig.step_mm)
    p.add_argument("--arm-z", type=float, default=None, help="arm height, mm (default: floor reach)")
    p.add_argument("--quantum", type=float, default=ScanConfig.quantum, help="probe extension step, mm")
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
# order that help and usage list the commands. handler(args, geom) computes,
# writes its files and returns the command's one stdout line.
COMMANDS = {
    "fk": ("spring-top and tip position of a configuration", _fk_args, cmd_fk),
    "ik": ("arc state reaching a spring-top target", _ik_args, cmd_ik),
    "tendons": ("tendon lengths of a configuration", _tendons_args, cmd_tendons),
    "workspace": ("sample the reachable set, write CSV + PLY", _workspace_args, cmd_workspace),
    "scan": ("zig-zag contact scan of a height-field scene", _scan_args, cmd_scan),
    "explore": ("tube exploration with descent steps", _explore_args, cmd_explore),
}


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser: one subparser per command of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="coilkin",
        description="Constant-curvature backbone kinematics and contact missions. "
        "Angles are degrees here, millimeters everywhere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run one command.

    When argv starts with a command name, only a parser with that command's
    arguments is built, as the full parser builds its subparser: the same
    prog, so the same help, usage and errors. Left-over arguments get the
    full parser's "unrecognized arguments" error, which prints the
    top-level usage line. Any other argv (help, no arguments, an unknown
    command, an option first) goes to the full parser. main resolves the
    geometry, prints the line the handler returns and returns 0; a
    CoilkinError or OSError prints only to stderr and returns its exit code.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        _, add_arguments, handler = COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"coilkin {argv[0]}")
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if extras:
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = build_parser().parse_args(argv)
        handler = args.func
    try:
        print(handler(args, _geometry(args)))
    except CoilkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
