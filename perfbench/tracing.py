"""In-memory spans and counts around coilkin's public functions.

install() wraps every public function of the traced layer modules, a few
methods and cli.main, and rebinds each wrapper wherever a coilkin module
holds the original (coilkin.simulator.fk_point as well as
coilkin.kinematics.fk_point), so calls that go through another module's
import are traced too. Nothing is wrapped before install() runs, and
uninstall() puts every original back.
"""

import functools
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("kinematics", "actuation", "workspace", "scenes", "simulator", "perception")
METHODS = (
    ("scenes", "HeightField", "height_at"),
    ("simulator", "MissionLog", "write"),
    ("perception", "HeightMap", "write_csv"),
    ("perception", "HeightMap", "write_ply"),
)
# Only main is wrapped in the CLI, so that its self time is what the CLI
# does around the layers: argparse, geometry, manifest and report writing.
CLI_SPAN = "cli.main"
# Span around the bookkeeping below, so that it is no layer's self time.
HOOK_SPAN = "perfbench.hook"


def _size(args):
    return os.path.getsize(args[1]) if len(args) > 1 else 0


def _radial_scan(counts, args, result):
    events = result[0]
    counts["probes"] += len(events)
    counts["contacts"] += sum(1 for e in events if e.contact)


def _sample_workspace(counts, args, result):
    counts["samples"] += len(result)
    counts["feasible"] += sum(1 for s in result if s.feasible)


def _log_write(counts, args, result):
    counts["log_rows"] += len(args[0].rows)
    counts["log_bytes"] += _size(args)


def _workspace_write(counts, args, result):
    counts["workspace_bytes"] += _size(args)


def _probe_vertical(counts, args, result):
    counts["probes"] += 1
    counts["contacts"] += 1 if result.contact else 0


def _interpolate(counts, args, result):
    counts["waypoints"] += len(getattr(result, "waypoints", ()))


def _reconstruct(counts, args, result):
    counts["cells"] += result.heights.size


HOOKS = {
    "actuation.interpolate": _interpolate,
    "workspace.sample_workspace": _sample_workspace,
    "workspace.write_csv": _workspace_write,
    "workspace.write_ply": _workspace_write,
    "simulator.probe_vertical": _probe_vertical,
    "simulator.radial_scan": _radial_scan,
    "simulator.MissionLog.write": _log_write,
    "perception.reconstruct": _reconstruct,
}


class Tracer:
    """Spans as parallel lists (name, parent index, start, end) plus counters."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = []
        self.counts = Counter()

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                idx = self._open(HOOK_SPAN)
                try:
                    hook(self.counts, args, result)
                finally:
                    self._close(idx)
            return result

        return traced

    def summary(self) -> dict:
        """name -> [calls, self seconds, total seconds] over every span."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        out = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i] - child[i]
            rec[2] += dur[i]
        return out

    def write(self, path):
        """One CSV row per span, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i},{parent},{name},{start - t0!r},{end - t0!r}\n")


def _coilkin_modules():
    return [m for n, m in list(sys.modules.items()) if n == "coilkin" or n.startswith("coilkin.")]


def install(tracer) -> list:
    """Wrap the traced functions; returns what uninstall() needs to undo it."""
    originals = {}
    for layer in LAYERS:
        mod = sys.modules[f"coilkin.{layer}"]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                originals[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    main = sys.modules["coilkin.cli"].main
    originals[id(main)] = (main, tracer.wrap(CLI_SPAN, main))
    restore = []
    for mod in _coilkin_modules():
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                restore.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"coilkin.{layer}"], cls_name)
        fn = cls.__dict__[attr]
        restore.append((cls, attr, fn))
        setattr(cls, attr, tracer.wrap(f"{layer}.{cls_name}.{attr}", fn))
    return restore


def uninstall(restore):
    for owner, attr, obj in reversed(restore):
        setattr(owner, attr, obj)


def layer_metrics(tracer, passes) -> dict:
    """Per-pass values of the per-layer metrics, keyed by metric name."""
    spans = tracer.summary()
    counts = tracer.counts

    def per_pass(value):
        value = value / passes
        return int(value) if float(value).is_integer() else value

    def calls(*names):
        return per_pass(sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names))

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names) / passes

    def total_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names) / passes

    def layer(prefix):
        return [n for n in spans if n.startswith(prefix + ".")]

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    tip_checks = spans.get("simulator.bristle_tip", (0,))[0]
    return {
        "kinematics.calls": calls(*layer("kinematics")),
        "kinematics.self_s": self_s(*layer("kinematics")),
        "kinematics.tendon_lengths.calls": calls("kinematics.tendon_lengths"),
        "kinematics.tendon_lengths.self_s": self_s("kinematics.tendon_lengths"),
        "kinematics.fk_transform.calls": calls("kinematics.fk_transform"),
        "kinematics.ik.calls": calls("kinematics.ik"),
        "kinematics.ik.self_s": self_s("kinematics.ik"),
        "actuation.calls": calls(*layer("actuation")),
        "actuation.self_s": self_s(*layer("actuation")),
        "actuation.servo_out_of_range": per_pass(
            counts["actuation.tendon_to_servo!ServoRangeError"]
        ),
        "actuation.waypoints_built": per_pass(counts["waypoints"]),
        "workspace.sample_workspace.self_s": self_s("workspace.sample_workspace"),
        "workspace.samples": per_pass(counts["samples"]),
        "workspace.feasible_ratio": ratio("feasible", "samples"),
        "workspace.write_s": total_s("workspace.write_csv", "workspace.write_ply"),
        "workspace.bytes_written": per_pass(counts["workspace_bytes"]),
        "scenes.height_at.calls": calls("scenes.HeightField.height_at"),
        "scenes.height_at.self_s": self_s("scenes.HeightField.height_at"),
        "scenes.load_scene.self_s": self_s("scenes.load_scene"),
        "simulator.probe_vertical.calls": calls("simulator.probe_vertical"),
        "simulator.probe_vertical.self_s": self_s("simulator.probe_vertical"),
        "simulator.surface_scan.self_s": self_s("simulator.surface_scan"),
        "simulator.log_rows": per_pass(counts["log_rows"]),
        "simulator.log_write_s": total_s("simulator.MissionLog.write"),
        "simulator.log_bytes": per_pass(counts["log_bytes"]),
        "simulator.radial_scan.calls": calls("simulator.radial_scan"),
        "simulator.radial_scan.self_s": self_s("simulator.radial_scan"),
        "simulator.tip_checks": per_pass(tip_checks),
        "simulator.tip_checks_per_waypoint": (
            tip_checks / counts["waypoints"] if counts["waypoints"] else 0.0
        ),
        "simulator.contact_ratio": ratio("contacts", "probes"),
        "perception.reconstruct.self_s": self_s("perception.reconstruct"),
        "perception.to_feature.self_s": self_s("perception.to_feature"),
        "perception.heightmap_write_s": total_s(
            "perception.HeightMap.write_csv", "perception.HeightMap.write_ply"
        ),
        "perception.cells": per_pass(counts["cells"]),
        "cli.main.self_s": self_s(CLI_SPAN),
    }
