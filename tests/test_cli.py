"""CLI behavior: records, files, exit codes and reproducibility."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import coilkin
from coilkin.cli import build_parser, main

QUARTER = 44.563384065730695
# The child process imports the coilkin these tests import, whether it came
# from PYTHONPATH or from pytest's pythonpath setting.
SRC = os.path.dirname(os.path.dirname(coilkin.__file__))


def limit_memory():
    """Child set-up for the node-cap tests: 1 GiB of address space, so that
    a grid built by mistake fails with MemoryError instead of filling RAM."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli(*args, env_extra=None, cwd=None, timeout=None, preexec_fn=None):
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
        timeout=timeout,
        preexec_fn=preexec_fn,
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

    @pytest.mark.parametrize("command", ["fk", "tendons"])
    def test_one_kernel_call(self, monkeypatch, command):
        calls = []
        kernel = coilkin.kinematics.arc_kernel

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(coilkin.kinematics, "arc_kernel", counted)
        stdout, _, code, _ = run_main([command, "--alpha", "30", "--theta", "40", "--s", "60"])
        assert code == 0 and stdout
        assert len(calls) == 1

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

    @pytest.mark.parametrize(
        "doc,command",
        [
            ({}, ("tendons", "--alpha", 45, "--theta", 80, "--s", 40, "--d", 1.7e308)),
            ({"l": 1.7e308, "bristle_length": 1.7e308}, ("explore", "--no-obstacle")),
            ({"s_max": 1.7e308, "l": 1e308}, ("scan",)),
            ({"d": 1e300}, ("explore", "--no-obstacle")),
        ],
    )
    def test_overflowing_geometry_exits_2(self, tmp_path, doc, command):
        geom = tmp_path / "geom.json"
        geom.write_text(json.dumps(doc))
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        out = tmp_path / "run"
        extra = ("--scene", scene) if command[0] == "scan" else ()
        writes = ("--out", out) if command[0] != "tendons" else ()
        proc = run_cli(*command, *extra, "--geometry", geom, *writes)
        assert_rejected_as_input(proc, out)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_integer_geometry_exits_2(self, tmp_path, digits):
        # 400 digits overflow float(); 5000 exceed Python's int parsing
        # limit, so the file is written as text (json.dumps raises too).
        geom = tmp_path / "geom.json"
        geom.write_text('{"d": 1' + "0" * digits + "}")
        stdout, stderr, code, _ = run_main(
            ["fk", "--alpha", "0", "--theta", "30", "--s", "50", "--geometry", str(geom)]
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ")
        assert "Traceback" not in stderr

    def test_explore_height_field_scene_exits_2(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        out = tmp_path / "run"
        assert_rejected_as_input(run_cli("explore", "--scene", scene, "--out", out), out)

    def test_scan_tube_scene_exits_2(self, tmp_path):
        scene = tmp_path / "tube.json"
        scene.write_text(json.dumps({"type": "tube", "inner_radius_mm": 90}))
        out = tmp_path / "run"
        assert_rejected_as_input(run_cli("scan", "--scene", scene, "--out", out), out)


FUZZ_COMMANDS = {
    "fk": ["fk", "--alpha", "30", "--theta", "40", "--s", "50"],
    "tendons": ["tendons", "--alpha", "45", "--theta", "80", "--s", "40"],
    "scan": ["scan", "--scene", "SCENE", "--width", "40", "--height", "40"],
    "explore": ["explore", "--no-obstacle"],
}
GEOMETRY_FIELDS = [f.name for f in dataclasses.fields(coilkin.RobotGeometry)]
NON_FINITE_TEXT = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)
# The number rule's message on an ik target coordinate, before its value.
TARGET_RULE = "target coordinates must be a number (finite real numbers only, not a bool or a string)"


class TestGeometryFuzz:
    """Extreme but finite geometry values through main, in process: every
    run returns (a traceback would fail the test) with a known exit code,
    and a run that succeeds prints and writes only finite numbers."""

    @pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
    @given(doc=st.dictionaries(
        st.sampled_from(GEOMETRY_FIELDS),
        st.sampled_from([1e300, 1.7e308, 5e-324, 2.2250738585072014e-308, 1e-300]),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=40, deadline=None)
    def test_exit_code_and_finite_output(self, command, doc):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            scene = tmp / "scene.json"
            write_plateau_scene(scene)
            geom = tmp / "geometry.json"
            geom.write_text(json.dumps(doc))
            argv = [str(scene) if a == "SCENE" else a for a in FUZZ_COMMANDS[command]]
            argv += ["--geometry", str(geom)]
            if command in ("scan", "explore"):
                argv += ["--out", str(tmp / "run")]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code in (0, 2, 3, 4), stderr.getvalue()
            if code == 0:
                texts = [stdout.getvalue()]
                if (tmp / "run").exists():
                    texts += [f.read_text() for f in sorted((tmp / "run").iterdir())]
                assert not any(NON_FINITE_TEXT.search(t) for t in texts), doc


# Scene documents whose conversion raises TypeError, ValueError or
# OverflowError; the last two hold integers that no float can hold, one of
# them beyond the digit limit of Python's int parser.
MALFORMED_SCENES = {
    "tube-obstacle-number": '{"type": "tube", "inner_radius_mm": 174, "obstacle": 5}',
    "tube-radius-text": '{"type": "tube", "inner_radius_mm": "abc"}',
    "tube-radius-null": '{"type": "tube", "inner_radius_mm": null}',
    "obstacle-center-number": '{"type": "tube", "inner_radius_mm": 174, "obstacle": {"center": 5, "edge_mm": 40}}',
    "obstacle-center-text": '{"type": "tube", "inner_radius_mm": 174, '
    '"obstacle": {"center": ["a", "b", "c"], "edge_mm": 40}}',
    "height-field-origin-number": '{"type": "height_field", "origin": 5, "cell_mm": 10, "heights": [[0, 40]]}',
    "height-field-cell-bool": '{"type": "height_field", "cell_mm": true, "heights": [[0, 40]]}',
    "height-field-heights-text": '{"type": "height_field", "cell_mm": 10, "heights": [["1", "2"]]}',
    "tube-radius-numeric-text": '{"type": "tube", "inner_radius_mm": "174"}',
    "tube-radius-400-digits": '{"type": "tube", "inner_radius_mm": 1' + "0" * 400 + "}",
    "tube-radius-5000-digits": '{"type": "tube", "inner_radius_mm": 1' + "0" * 5000 + "}",
}
FINITE_SCENE_VALUES = [10, 40.0, 25.5, 174] * 3 + [0, -5, 1e308, -1e308, 5e-324, 2.2250738585072014e-308]
BAD_SCENE_VALUES = [math.nan, math.inf, -math.inf, 10**400, "abc", None, True, [1, 2], {}]

# True in one draw of five; hypothesis draws small integers more often than that.
RARELY = st.sampled_from([False] * 4 + [True])


@st.composite
def scene_docs(draw):
    """A tube or height-field document, or a bare value. Two in three draw
    only finite numbers, mostly ordinary ones, so that many documents get
    past validation; the rest also draw non-finite and wrongly typed values.
    A draw may then lose one key or gain an unknown one."""
    finite = draw(st.sampled_from([True, True, False]))
    number = st.sampled_from(FINITE_SCENE_VALUES + ([] if finite else BAD_SCENE_VALUES * 2))

    def numbers(size):  # usually `size` numbers, sometimes the wrong count or a bare value
        shape = draw(st.sampled_from(["size"] * 3 + ["any", "bare"]))
        if shape == "bare":
            return draw(number)
        return draw(st.lists(number, min_size=size, max_size=size) if shape == "size" else st.lists(number, max_size=4))

    kind = draw(st.sampled_from(["height_field", "tube", "height_field", "tube", "other"]))
    if kind == "tube":
        doc = {"type": "tube", "inner_radius_mm": draw(number)}
        obstacle = draw(st.sampled_from(["none", "cube", "cube", "bare"]))
        if obstacle == "cube":
            doc["obstacle"] = {"center": numbers(3), "edge_mm": draw(number)}
        elif obstacle == "bare":
            doc["obstacle"] = draw(number)
    elif kind == "height_field":
        nx, ny = draw(st.sampled_from([3, 2, 1, 0])), draw(st.sampled_from([3, 2, 1]))
        grid = [draw(st.lists(number, min_size=ny, max_size=ny)) for _ in range(nx)]
        if grid and draw(RARELY):
            grid[-1] = grid[-1][:-1]  # ragged, or an empty row
        doc = {"type": "height_field", "origin": numbers(2), "cell_mm": draw(number), "heights": grid}
    else:
        return numbers(2)
    if draw(RARELY):
        del doc[draw(st.sampled_from(sorted(doc)))]
    if draw(RARELY):
        doc["bogus"] = 1
    return doc


class TestSceneDocuments:
    """Scene JSON through scan and explore, in process: a malformed document
    exits 2 with an error line and writes nothing; any document gives a
    documented exit code, no traceback and, on success, finite output."""

    @pytest.mark.parametrize("command", ["scan", "explore"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_SCENES))
    def test_malformed_document_exits_2(self, tmp_path, name, command):
        scene = tmp_path / "scene.json"
        scene.write_text(MALFORMED_SCENES[name])
        out = tmp_path / "run"
        stdout, stderr, code, _ = run_main([command, "--scene", str(scene), "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and "Traceback" not in stderr
        assert not out.exists()

    @given(doc=scene_docs())
    # A subnormal cell overflows the cell index of every node but the first.
    @example(doc={"type": "height_field", "origin": [0, 0], "cell_mm": 5e-324, "heights": [[0, 40]]})
    @settings(max_examples=100, deadline=None)
    def test_fuzz_exit_code_and_finite_output(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            scene = tmp / "scene.json"
            scene.write_text(json.dumps(doc))
            for command in ("scan", "explore"):
                out = tmp / command
                argv = [command, "--scene", str(scene), "--out", str(out)]
                if command == "scan":
                    argv += ["--width", "40", "--height", "40"]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    stdout, stderr, code, _ = run_main(argv)
                event(f"{command} exit {code}")
                assert code in (0, 2, 3, 4), (doc, stderr)
                assert "Traceback" not in stderr, doc
                if code == 0:
                    texts = [stdout] + [f.read_text() for f in sorted(out.iterdir())]
                    assert not any(NON_FINITE_TEXT.search(t) for t in texts), doc


def run_main(argv, parser=None):
    """main(argv), or parser.parse_args(argv), in process: (stdout, stderr,
    exit code, result). The result is main's return or the parsed namespace
    without func; argparse's exits give code and no result."""
    stdout, stderr = io.StringIO(), io.StringIO()
    result = code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if parser is None:
                code = result = main(argv)
            else:
                result = vars(parser.parse_args(argv))
                result.pop("func")
        except SystemExit as exc:
            code = exc.code
    return stdout.getvalue(), stderr.getvalue(), code, result


USAGE_GOLDEN = Path(__file__).parent / "golden" / "usage.json"
VALID_TAILS = {
    "fk": ["--alpha", "30", "--theta", "40", "--s", "50"],
    "ik": ["0", "0", "45"],
    "tendons": ["--alpha", "45", "--theta", "80", "--s", "40", "--d", "12"],
    "workspace": ["--n-alpha", "4", "--servo-range", "90", "--out", "o"],
    "scan": ["--scene", "s.json", "--arm-z", "150", "--pressure-synth", "--seed", "3"],
    "explore": ["--obstacle-offset", "55", "--tube-radius", "90", "--no-obstacle"],
}
BAD_TYPE_TAILS = {
    "fk": ["--alpha", "x", "--theta", "1", "--s", "2"],
    "ik": ["1", "y", "3"],
    "tendons": ["--d", "wide"],
    "workspace": ["--n-s", "1.5"],
    "scan": ["--step", "fine"],
    "explore": ["--tube-radius", "r"],
}


def parser_tails(command):
    valid = VALID_TAILS[command]
    return [
        [], ["--help"], ["-h"], ["--bogus"], ["--geometry"], valid, valid + ["extra"],
        valid + ["--bogus", "1"], valid + ["-h"], ["--geometry", "g.json", *valid],
        BAD_TYPE_TAILS[command],
    ]


class TestCommandParser:
    """main builds only the subparser that argv[0] names; help, usage and
    errors stay those of the full parser."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_usage_matches_capture(self):
        # Captured from the full parser with COLUMNS=80 under Python 3.11;
        # argparse words some of these messages differently in other versions.
        if sys.version_info[:2] != (3, 11):
            pytest.skip("usage text captured under Python 3.11")
        for case in json.loads(USAGE_GOLDEN.read_text(encoding="utf-8")):
            stdout, stderr, code, _ = run_main(case["argv"])
            assert (stdout, stderr, code) == (case["stdout"], case["stderr"], case["code"]), case["argv"]

    @pytest.mark.parametrize(
        "command,tail",
        [(c, t) for c in VALID_TAILS for t in parser_tails(c)],
        ids=[f"{c}-{i}" for c in VALID_TAILS for i in range(len(parser_tails(c)))],
    )
    def test_one_command_parser_matches_full(self, command, tail):
        argv = [command, *tail]
        expected = run_main(argv, build_parser())
        assert run_main(argv, build_parser(command)) == expected

    def test_builds_only_named_subparser(self, monkeypatch, tmp_path):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        assert run_main(["explore", "--no-obstacle", "--out", str(tmp_path)])[2] == 0
        assert built == ["explore"]
        built.clear()
        assert run_main(["--help"])[2] == 0
        assert built == ["fk", "ik", "tendons", "workspace", "scan", "explore"]


FUZZ_NUMBERS = ["nan", "inf", "-inf", "1e308", "-1e308", "0", "-5", "5e-324", "wide"]
# Bend angles below the domain that argparse reads as values.
NEGATIVE_THETAS = ["-30", "-0.5"]
# Per command: flag -> values (None: a flag without value). The key None
# holds ik's positional values, of which it takes three. Sizes stay small:
# the node cap stops only grids above MAX_NODES nodes, so workspace counts
# stay <= 4 and scans <= 50 mm wide with steps >= 5 mm unless an extreme
# value sends them to the cap.
ARGV_FLAGS = {
    "fk": {
        **{f: FUZZ_NUMBERS + [v] * 3 for f, v in (("--alpha", "30"), ("--s", "50"))},
        "--theta": FUZZ_NUMBERS + NEGATIVE_THETAS + ["40"] * 3,
    },
    "ik": {None: FUZZ_NUMBERS + ["0", "10", "45"] * 2},
    "tendons": {
        **{f: FUZZ_NUMBERS + [v] * 3 for f, v in (("--alpha", "45"), ("--s", "40"))},
        "--theta": FUZZ_NUMBERS + NEGATIVE_THETAS + ["80"] * 3,
        "--d": FUZZ_NUMBERS + ["12"] * 3,
    },
    "workspace": {
        **{f: FUZZ_NUMBERS + ["1", "4"] * 2 for f in ("--n-alpha", "--n-theta", "--n-s")},
        "--servo-range": FUZZ_NUMBERS + ["90"] * 3,
    },
    "scan": {
        **{f: FUZZ_NUMBERS + ["20", "50"] * 2 for f in ("--width", "--height")},
        "--step": FUZZ_NUMBERS + ["5", "10"] * 2,
        "--arm-z": FUZZ_NUMBERS + ["150"] * 3,
        "--quantum": FUZZ_NUMBERS + ["0.5"] * 3,
        "--seed": FUZZ_NUMBERS + ["7"] * 3,
        "--pressure-synth": [None],
        "--scene": ["SCENE", "SCENE", "TUBE"],
    },
    "explore": {
        "--obstacle-offset": FUZZ_NUMBERS + ["55"] * 3,
        "--tube-radius": FUZZ_NUMBERS + ["90"] * 3,
        "--no-obstacle": [None],
        "--scene": ["TUBE", "TUBE", "SCENE"],
    },
}
# Present in every draw (and possibly overridden): the workspace grid and
# the scan extent, which keep the work small.
ARGV_FIXED = {
    "workspace": [("--n-alpha", "4"), ("--n-theta", "4"), ("--n-s", "4")],
    "scan": [("--width", "50"), ("--height", "50")],
}
# Present in most draws, so that most runs get past the required arguments.
ARGV_BASE = {
    "fk": [("--alpha", "30"), ("--theta", "40"), ("--s", "50")],
    "tendons": [("--alpha", "45"), ("--theta", "80"), ("--s", "40")],
    "scan": [("--scene", "SCENE")],
    "explore": [("--obstacle-offset", "55")],
}
UNKNOWN_FLAGS = [("--bogus", "1"), ("-q",), ("--geometry", "MISSING")]


@st.composite
def argv_draws(draw, command):
    flags = ARGV_FLAGS[command]
    named = sorted(f for f in flags if f is not None)
    # Fixed and base items first: hypothesis favours permutations near the
    # identity, and argparse keeps a flag's last value, so drawn values
    # usually override them.
    items = list(ARGV_FIXED.get(command, []))
    if draw(st.integers(0, 3)):
        items += ARGV_BASE.get(command, [])
    if named:
        drawn = draw(st.lists(
            st.sampled_from(named).flatmap(lambda f: st.tuples(st.just(f), st.sampled_from(flags[f]))),
            max_size=4,
        ))
        # "--flag=value" lets argparse take values such as -inf and -1e308,
        # which it reads as options when they stand alone.
        items += [
            (f"{f}={v}",) if v is not None and draw(RARELY) else tuple(t for t in (f, v) if t is not None)
            for f, v in drawn
        ]
    if None in flags:
        count = draw(st.sampled_from([3, 3, 3, 2, 4]))
        items += [(draw(st.sampled_from(flags[None])),) for _ in range(count)]
    unknown = draw(st.sampled_from([None] * 5 + UNKNOWN_FLAGS))
    if unknown:
        items.append(unknown)
    tokens = [t for item in draw(st.permutations(items)) for t in item]
    if tokens and not draw(st.integers(0, 9)):
        tokens = tokens[:-1]  # a flag loses its value
    head = draw(st.sampled_from([command] * 6 + ["bogus", "--bogus"]))
    return [head, *tokens]


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestArgvFuzz:
    """Extreme, malformed and reordered argv through main, in process: a
    documented exit code and no traceback; a failed workspace, scan or
    explore leaves no file under --out; on success fk, ik and tendons
    print strict JSON, fk and tendons had a bend angle of at least 0 and no
    command prints a non-finite number."""

    @pytest.mark.parametrize("command", sorted(ARGV_FLAGS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exit_code_and_strict_output(self, command, data):
        argv = data.draw(argv_draws(command))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_plateau_scene(tmp / "scene.json")
            (tmp / "tube.json").write_text(json.dumps({"type": "tube", "inner_radius_mm": 90}))
            files = {"SCENE": tmp / "scene.json", "TUBE": tmp / "tube.json", "MISSING": tmp / "none.json"}
            argv = [str(files.get(a, a)) for a in argv]
            if command in ("workspace", "scan", "explore"):
                argv += ["--out", str(tmp / "run")]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                stdout, stderr, code, _ = run_main(argv)
            if code != 0 and command in ("workspace", "scan", "explore"):
                assert not any((tmp / "run").rglob("*")), (argv, stderr)
        event(f"exit {code}")
        assert code in (0, 2, 3, 4), (argv, stderr)
        assert "Traceback" not in stderr, argv
        if code == 0 and argv[0] == command:
            assert not NON_FINITE_TEXT.search(stdout), argv
            if command in ("fk", "ik", "tendons"):
                json.loads(stdout, parse_constant=reject_constant)
            if command in ("fk", "tendons"):
                assert run_main(argv, build_parser(command))[3]["theta"] >= 0.0, argv

    @given(
        command=st.sampled_from(["fk", "tendons"]),
        theta=st.floats(max_value=-1e-300),
    )
    @example(command="fk", theta=-30.0)
    @example(command="fk", theta=-math.inf)
    @example(command="tendons", theta=-1e-300)
    @settings(max_examples=40, deadline=None)
    def test_negative_bend_angle_never_succeeds(self, command, theta):
        # A negative bend angle is not a straight backbone. The generic
        # draws above rarely end on a negative --theta; this test always
        # does. Degrees below about -3e-322 stay negative in radians;
        # smaller ones round to -0.0, a straight backbone.
        stdout, stderr, code, _ = run_main([command, "--alpha", "0", f"--theta={theta!r}", "--s", "50"])
        assert (code, stdout) == (3, ""), (theta, stderr)
        assert stderr.startswith("error: ")
        assert "Traceback" not in stderr


# Any float, often one near the reachable set.
ik_coordinate = st.one_of(st.floats(), st.floats(-80.0, 80.0))


class TestIkArgv:
    @given(x=ik_coordinate, y=ik_coordinate, z=ik_coordinate)
    @example(x=math.nan, y=0.0, z=50.0)
    @example(x=math.inf, y=0.0, z=50.0)
    @example(x=1e308, y=1e308, z=1e308)
    @example(x=5e-324, y=0.0, z=1e300)
    @example(x=15.0, y=0.0, z=60.0)
    @example(x=0.0, y=0.0, z=50.0)
    @settings(max_examples=200, deadline=None)
    def test_any_target_exits_0_or_3(self, x, y, z):
        """ik prints finite JSON, or one error line that names no NaN but a
        NaN coordinate of the target itself."""
        # "--" lets argparse read a negative number such as -1e1 as a value.
        stdout, stderr, code, _ = run_main(["ik", "--", repr(x), repr(y), repr(z)])
        assert code in (0, 3), stderr
        assert "Traceback" not in stderr
        if code == 0:
            record = json.loads(stdout, parse_constant=reject_constant)
            assert all(v is None or math.isfinite(v) for v in record.values())
            assert stderr == ""
        else:
            assert stdout == ""
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            # The number rule names the first coordinate that is not finite.
            first = next((v for v in (x, y, z) if not math.isfinite(v)), 0.0)
            if math.isnan(first):
                assert stderr == f"error: {TARGET_RULE}, got nan\n"
            else:
                assert "nan" not in stderr.lower()

    @pytest.mark.parametrize(
        "target,reason",
        [
            (("nan", "0", "50"), f"{TARGET_RULE}, got nan"),
            (("inf", "0", "50"), f"{TARGET_RULE}, got inf"),
            (("1e308", "1e308", "1e308"), "target out of reach"),
            (("70", "0", "70"), "required backbone length 109.95574287564276 outside [20.0, 70.0]"),
        ],
    )
    def test_error_names_the_cause(self, target, reason):
        stdout, stderr, code, _ = run_main(["ik", *target])
        assert (code, stdout) == (3, "")
        assert stderr.startswith(f"error: {reason}")


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

    @pytest.mark.parametrize("count", [("--n-alpha", 10**12), ("--n-s", 10**400)])
    def test_grid_above_node_cap_exits_2(self, tmp_path, count):
        # Rejected from the counts alone, before the alpha column is built.
        out = tmp_path / "ws"
        proc = run_cli("workspace", *count, "--out", out, timeout=60, preexec_fn=limit_memory)
        assert_rejected_as_input(proc)
        assert "cap" in proc.stderr
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

    def test_empty_workspace_exits_3_before_output(self, tmp_path):
        # One length, s_min, and a servo that cannot pay out its shortening.
        out = tmp_path / "ws"
        stdout, stderr, code, _ = run_main(["workspace", "--n-s", "1", "--servo-range", "10", "--out", str(out)])
        assert (code, stdout) == (3, "")
        assert stderr == "error: no feasible samples\n"
        assert not out.exists()


class TestScanCommand:
    @pytest.mark.parametrize("extra", [("--width", "1e308"), ("--step", "0.001")])
    def test_grid_above_node_cap_exits_2(self, tmp_path, extra):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        out = tmp_path / "run"
        proc = run_cli("scan", "--scene", scene, "--out", out, *extra, timeout=60, preexec_fn=limit_memory)
        assert_rejected_as_input(proc, out)
        assert "cap" in proc.stderr

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

    def test_feature_row_quotes_scene_name(self, tmp_path):
        """A scene file name with a comma and quotes stays one provenance cell."""
        scene = tmp_path / 'a,b "c".json'
        write_plateau_scene(scene)
        out = tmp_path / "run"
        assert run_main(["scan", "--scene", str(scene), "--out", str(out)])[2] == 0
        with open(out / "features.csv", encoding="utf-8", newline="") as fh:
            (row,) = csv.reader(fh)
        assert len(row) == 301
        assert row[0] == scene.name

    def test_scene_name_not_utf8(self, tmp_path):
        """A scene file name that is not UTF-8 gets its bytes escaped in the
        provenance cell, and the scan writes every output."""
        scene = Path(os.fsdecode(os.fsencode(tmp_path) + b"/a\xff.json"))
        write_plateau_scene(scene)
        out = tmp_path / "run"
        assert run_main(["scan", "--scene", str(scene), "--out", str(out)])[2] == 0
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            "events.csv", "features.csv", "heightmap.csv", "heightmap.ply"]
        row = (out / "features.csv").read_text(encoding="utf-8").rstrip("\n").split(",")
        assert len(row) == 301
        assert row[0] == "a\\xff.json"

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

    def test_negative_seed_exits_2(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        out = tmp_path / "run"
        proc = run_cli("scan", "--scene", scene, "--out", out, "--seed", -1, "--pressure-synth")
        assert_rejected_as_input(proc, out)

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_non_positive_contact_threshold_exits_2(self, tmp_path, threshold):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        geom = tmp_path / "geometry.json"
        geom.write_text(json.dumps({"contact_threshold": threshold}))
        out = tmp_path / "run"
        proc = run_cli("scan", "--scene", scene, "--geometry", geom, "--out", out, "--pressure-synth")
        assert_rejected_as_input(proc, out)

    @pytest.mark.parametrize("command", [("workspace",), ("explore", "--no-obstacle")])
    def test_seed_only_on_scan(self, tmp_path, command):
        proc = run_cli(*command, "--seed", 1, "--out", tmp_path / "run")
        assert proc.returncode == 2
        assert "unrecognized arguments: --seed" in proc.stderr

    @pytest.mark.parametrize(
        "extra,contacts",
        [(("--geometry", "GEOM"), 25), (("--arm-z", "1e308"), 0), (("--arm-z", "150", "--quantum", "5e-324"), 25)],
    )
    def test_overflowing_probe_warns_nothing(self, tmp_path, extra, contacts):
        scene = tmp_path / "scene.json"
        write_plateau_scene(scene)
        geom = tmp_path / "geometry.json"
        geom.write_text(json.dumps({"s_max": 1.7e308}))
        argv = ["scan", "--scene", str(scene), "--width", "40", "--height", "40", "--out", str(tmp_path / "run")]
        argv += [str(geom) if a == "GEOM" else a for a in extra]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stdout, stderr, code, _ = run_main(argv)
        assert (stdout, stderr, code) == (f"nodes=25 contacts={contacts}\n", "", 0)

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


class TestServoRange:
    def test_explore_beyond_servo_range_exits_3(self, tmp_path):
        # The ring path needs 40.93 degrees of winding; this servo turns 10.
        geom = tmp_path / "geom.json"
        geom.write_text(json.dumps({"servo_range": 10}))
        out = tmp_path / "run"
        proc = run_cli("explore", "--obstacle-offset", 55, "--geometry", geom, "--out", out)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "azimuth 0 deg needs 40.93 deg" in proc.stderr
        assert not out.exists()

    def test_overflowing_payout_exits_2(self, tmp_path):
        # 360 degrees of a 1.7e308 mm pulley pay out more than a float holds.
        geom = tmp_path / "geom.json"
        geom.write_text(json.dumps({"pulley_diameter": 1.7e308, "servo_range": 360}))
        argv = ["workspace", "--n-alpha", "4", "--n-theta", "3", "--n-s", "2",
                "--geometry", str(geom), "--out", str(tmp_path / "run")]
        out, err, code, _ = run_main(argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not NON_FINITE_TEXT.search(out)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command,code",
        [
            (["workspace", "--n-alpha", "4", "--n-theta", "3", "--n-s", "2"], 0),
            (["explore", "--no-obstacle"], 3),
        ],
    )
    def test_subnormal_pulley_never_warns(self, tmp_path, command, code):
        """A subnormal pulley_diameter winds 0 degrees for no shortening and
        is out of range for any other: only the straight, fully extended
        samples are feasible, and the ring path cannot be driven."""
        geom = tmp_path / "geom.json"
        geom.write_text(json.dumps({"pulley_diameter": 5e-324}))
        argv = [*command, "--geometry", str(geom), "--out", str(tmp_path / "run")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, err, exit_code, _ = run_main(argv)
        assert exit_code == code, err
        if code == 0:
            assert "feasible=4 " in out and err == ""
        else:
            assert out == "" and err.startswith("error: ")


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


def traced_peak(argv) -> int:
    """Peak traced bytes of a second in-process main(argv); the first call
    loads what later calls reuse."""
    assert run_main(argv)[2] == 0
    tracemalloc.start()
    try:
        assert run_main(argv)[2] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCommandMemory:
    """Whole commands, writers included, stay near the traced peaks the
    README gives and well under the 512 bytes a node that MAX_NODES
    assumes."""

    @staticmethod
    def scan_peak_per_node(tmp_path, *extra) -> float:
        """Traced bytes per node of a 1 mm scan of a 200 mm plateau scene:
        40,401 nodes."""
        grid = np.zeros((201, 201))
        grid[50:150, 50:150] = 40.0
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"type": "height_field", "origin": [0, 0], "cell_mm": 1.0,
                                     "heights": grid.tolist()}))
        argv = ["scan", "--scene", str(scene), "--step", "1", *extra, "--out", str(tmp_path / "run")]
        return traced_peak(argv) / grid.size

    def test_scan_bytes_per_node(self, tmp_path):
        assert self.scan_peak_per_node(tmp_path) < 180

    def test_pressure_scan_bytes_per_node(self, tmp_path):
        """With --pressure-synth: one (N, 16) noise draw on top of the scan."""
        assert self.scan_peak_per_node(tmp_path, "--pressure-synth") < 260

    def test_workspace_bytes_per_sample(self, tmp_path):
        """The default 72 x 19 x 11 grid: 15,048 samples."""
        peak = traced_peak(["workspace", "--out", str(tmp_path / "run")])
        assert peak / 15048 < 275
