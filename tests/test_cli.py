"""CLI behavior: records, files, exit codes and reproducibility."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import coilkin

QUARTER = 44.563384065730695
# The child process imports the coilkin these tests import, whether it came
# from PYTHONPATH or from pytest's pythonpath setting.
SRC = os.path.dirname(os.path.dirname(coilkin.__file__))


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("COILKIN_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "coilkin", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def write_plateau_scene(path, height=40.0):
    grid = [[0.0] * 21 for _ in range(21)]
    for i in range(5, 10):
        for j in range(5, 10):
            grid[i][j] = height
    path.write_text(
        json.dumps({"type": "height_field", "origin": [0, 0], "cell_mm": 10, "heights": grid})
    )


class TestKinematicsCommands:
    def test_ik_pure_compression(self):
        proc = run_cli("ik", 0, 0, 50)
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["theta_deg"] == 0.0
        assert record["s_mm"] == 50.0
        assert record["r_mm"] is None

    def test_fk_quarter_bend(self):
        proc = run_cli("fk", "--alpha", 0, "--theta", 90, "--s", 70)
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["xU"] == pytest.approx(QUARTER)
        assert record["zU"] == pytest.approx(QUARTER)
        assert record["xE"] == pytest.approx(QUARTER + 53.0)

    def test_tendons_quarter_bend(self):
        proc = run_cli("tendons", "--alpha", 0, "--theta", 90, "--s", 70, "--d", 12)
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["q1"] == pytest.approx(51.15, abs=0.01)
        assert record["q3"] == pytest.approx(79.99, abs=0.01)

    def test_unreachable_exits_3(self):
        proc = run_cli("ik", 70, 0, 70)
        assert proc.returncode == 3
        assert "error" in proc.stderr

    def test_parse_error_exits_2(self):
        proc = run_cli("fk", "--alpha", "wide", "--theta", 0, "--s", 50)
        assert proc.returncode == 2

    def test_bad_geometry_exits_2(self, tmp_path):
        geom = tmp_path / "geom.json"
        geom.write_text(json.dumps({"spring_color": "red"}))
        proc = run_cli("ik", 0, 0, 50, "--geometry", geom)
        assert proc.returncode == 2

    def test_geometry_file_used(self, tmp_path):
        geom = tmp_path / "geom.json"
        geom.write_text(json.dumps({"s_max": 40}))
        proc = run_cli("ik", 0, 0, 50, "--geometry", geom)
        assert proc.returncode == 3  # 50 mm exceeds the shortened s_max


    def test_tie_does_not_flip_on_rounding(self):
        base = run_cli("tendons", "--alpha", 0, "--theta", 90, "--s", 70)
        nudged = run_cli("tendons", "--alpha", "1e-11", "--theta", 90, "--s", 70)
        assert base.returncode == nudged.returncode == 0
        a, b = json.loads(base.stdout), json.loads(nudged.stdout)
        for key in ("q1", "q2", "q3", "q4"):
            assert b[key] == pytest.approx(a[key], abs=1e-9)

    @pytest.mark.parametrize("command", ["fk", "tendons"])
    @pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--theta", "nan"), ("--s", "inf")])
    def test_non_finite_state_exits_3(self, command, flag, value):
        argv = {"--alpha": 0, "--theta": 30, "--s": 50}
        argv[flag] = value
        proc = run_cli(command, *[x for kv in argv.items() for x in kv])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr


class TestExitCodes:
    def test_every_error_class_carries_its_code(self):
        import coilkin.errors as errors

        classes = [
            c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.CoilkinError)
        ]
        assert len(classes) == 10
        for cls in classes:
            assert cls.exit_code == (2 if cls in (errors.ConfigError, errors.SceneError) else 3)

    @pytest.mark.parametrize(
        "extra", [("--step", 0), ("--quantum", 0), ("--width", -50), ("--step", "nan")]
    )
    def test_bad_scan_config_exits_2(self, tmp_path, extra):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        out = tmp_path / "run"
        proc = run_cli("scan", "--scene", scene, "--out", out, *extra)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert not (out / "events.csv").exists()


def assert_rejected_as_input(proc, out=None):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""
    if out is not None:
        assert not (out / "events.csv").exists()


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "fields", [{"cell_mm": math.nan}, {"origin": [math.nan, 0]}, {"cell_mm": math.inf}]
    )
    def test_height_field_exits_2(self, tmp_path, fields):
        doc = {"type": "height_field", "origin": [0, 0], "cell_mm": 10, "heights": [[0, 40]]}
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({**doc, **fields}))
        out = tmp_path / "run"
        assert_rejected_as_input(run_cli("scan", "--scene", scene, "--out", out), out)

    def test_geometry_exits_2(self, tmp_path):
        geom = tmp_path / "geom.json"
        geom.write_text(json.dumps({"l": math.inf}))
        assert_rejected_as_input(
            run_cli("fk", "--alpha", 0, "--theta", 30, "--s", 50, "--geometry", geom)
        )
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        out = tmp_path / "run"
        assert_rejected_as_input(
            run_cli("scan", "--scene", scene, "--geometry", geom, "--out", out), out
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "tube", "inner_radius_mm": math.nan},
            {"type": "tube", "inner_radius_mm": 174,
             "obstacle": {"center": [45, math.nan, -206], "edge_mm": 40}},
            {"type": "tube", "inner_radius_mm": 174,
             "obstacle": {"center": [45, 0, -206], "edge_mm": math.inf}},
        ],
    )
    def test_tube_exits_2(self, tmp_path, doc):
        scene = tmp_path / "tube.json"
        scene.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert_rejected_as_input(run_cli("explore", "--scene", scene, "--out", out), out)


class TestWorkspaceCommand:
    def test_defaults_summary_and_files(self, tmp_path):
        out = tmp_path / "ws"
        proc = run_cli("workspace", "--n-alpha", 8, "--n-theta", 5, "--n-s", 5, "--out", out)
        assert proc.returncode == 0
        assert "z_max=70.000" in proc.stdout
        assert (out / "workspace.csv").exists()
        assert (out / "workspace.ply").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "workspace"
        assert "workspace.csv" in manifest["outputs"]

    @pytest.mark.parametrize("count", [("--n-alpha", 0), ("--n-s", -3)])
    def test_grid_below_one_exits_2(self, tmp_path, count):
        out = tmp_path / "ws"
        assert_rejected_as_input(run_cli("workspace", *count, "--out", out))
        assert not (out / "workspace.csv").exists()

    def test_coarse_grid_row_count(self, tmp_path):
        out = tmp_path / "ws"
        proc = run_cli("workspace", "--n-alpha", 1, "--n-theta", 2, "--n-s", 2, "--out", out)
        assert proc.returncode == 0
        rows = (out / "workspace.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_zero_servo_range_limits_to_full_extension(self, tmp_path):
        out = tmp_path / "ws"
        proc = run_cli(
            "workspace", "--n-alpha", 6, "--n-theta", 4, "--n-s", 4, "--servo-range", 0, "--out", out
        )
        assert proc.returncode == 0
        assert "feasible=6 " in proc.stdout  # one per alpha: theta=0 at s=s_max


class TestScanCommand:
    def test_plateau_scan_outputs(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        out = tmp_path / "run"
        proc = run_cli("scan", "--scene", scene, "--out", out)
        assert proc.returncode == 0
        assert "contacts=441" in proc.stdout
        heights = []
        for line in (out / "heightmap.csv").read_text().splitlines():
            if line.startswith("#"):
                continue
            heights.extend(float(v) for v in line.split(",") if v != "nan")
        assert max(heights) == pytest.approx(40.0, abs=0.5)
        feature_row = (out / "features.csv").read_text().strip().split(",")
        assert len(feature_row) == 301
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == [
            "events.csv",
            "features.csv",
            "heightmap.csv",
            "heightmap.ply",
        ]

    def test_no_contact_scan_still_succeeds(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene, height=0.0)
        out = tmp_path / "run"
        proc = run_cli("scan", "--scene", scene, "--arm-z", 200, "--out", out)
        assert proc.returncode == 0
        assert "contacts=0" in proc.stdout
        assert not (out / "heightmap.csv").exists()

    def test_pressure_synth_output(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        out = tmp_path / "run"
        proc = run_cli(
            "scan", "--scene", scene, "--out", out, "--seed", 9, "--pressure-synth",
            "--width", 40, "--height", 40,
        )
        assert proc.returncode == 0
        lines = (out / "pressure.csv").read_text().splitlines()
        assert lines[0] == "event_index,contact,detected_sample"
        assert len(lines) == 1 + 25

    def test_scene_parse_error_exits_2(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text("{broken")
        proc = run_cli("scan", "--scene", scene, "--out", tmp_path / "run")
        assert proc.returncode == 2


class TestExploreCommand:
    def test_offset_55_stops_at_60(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("explore", "--obstacle-offset", 55, "--out", out)
        assert proc.returncode == 0
        assert "stop_depth=60" in proc.stdout
        report = json.loads((out / "report.json").read_text())
        assert report["stop_depth_mm"] == 60.0
        assert report["any_contact"] is True

    def test_no_obstacle_control(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("explore", "--no-obstacle", "--out", out)
        assert proc.returncode == 0
        assert "stop_depth=100 contacts=0" in proc.stdout

    def test_scene_file(self, tmp_path):
        scene = tmp_path / "tube.json"
        scene.write_text(json.dumps({"type": "tube", "inner_radius_mm": 174}))
        proc = run_cli("explore", "--scene", scene, "--out", tmp_path / "run")
        assert proc.returncode == 0
        assert "stop_depth=100" in proc.stdout

    def test_missing_scene_spec_exits_2(self, tmp_path):
        proc = run_cli("explore", "--out", tmp_path / "run")
        assert proc.returncode == 2

    def test_unwritable_out_exits_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        proc = run_cli("explore", "--no-obstacle", "--out", blocker)
        assert proc.returncode == 4


class TestReproducibility:
    def test_env_var_overrides_out(self, tmp_path):
        flag_dir = tmp_path / "flagged"
        env_dir = tmp_path / "enved"
        proc = run_cli(
            "explore", "--no-obstacle", "--out", flag_dir,
            env_extra={"COILKIN_OUT": str(env_dir)},
        )
        assert proc.returncode == 0
        assert env_dir.exists()
        assert not flag_dir.exists()

    def test_two_runs_byte_identical(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = run_cli("scan", "--scene", scene, "--seed", 5, "--out", out)
            assert proc.returncode == 0
            outputs.append(
                {
                    f: (out / f).read_bytes()
                    for f in ("events.csv", "heightmap.csv", "features.csv")
                }
            )
        assert outputs[0] == outputs[1]

    def test_explore_runs_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = run_cli("explore", "--obstacle-offset", 35, "--out", out)
            assert proc.returncode == 0
            blobs.append((out / "events.csv").read_bytes())
        assert blobs[0] == blobs[1]
