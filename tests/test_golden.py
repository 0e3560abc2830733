"""Golden corpus: CLI outputs frozen before the closed-form kernel refactor.

Each case runs `coilkin.cli.main` in-process and compares stdout and every
output file with `tests/golden/<case>/`. The output files of the scan
cases must match byte for byte. All other files, and stdout, are compared
token by token: tokens are split on commas, whitespace and `=`; numbers
must agree within 1e-12 absolute (NaN matches NaN), every other token
(headers, flags, reasons, empty cells) must match exactly, and line and
token counts must be equal. So the corpus pins rows, columns, contact and
feasibility flags, and lets a refactor of the workspace or explore paths
change only the last bits of a float.

The inputs are fixed: the five C6 scenes of the acceptance suite (stored
as JSON under `tests/golden/scenes/`), one small workspace grid whose
servo range leaves some samples infeasible, the C5 tube explorations, and
the scalar commands: `fk` and `tendons` at a generic state and at the
alpha 0, theta 90 tie state, `ik` at a generic target and at pure
compression. A scalar case writes no file, so only its stdout is kept and
its command gets no `--out`.
The `scan_plateau_pressure` case pins the seeded `pressure.csv` of
`scan --pressure-synth`. To re-capture after an intended output change,
run from the repo root

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

which rewrites the named cases, or every case when none is named. Files a
command writes beyond its case's list are not kept.
"""

import math
import re
import sys
from pathlib import Path

import pytest

from coilkin.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENES = GOLDEN / "scenes"
TOL = 1e-12
SCENE_NAMES = ("flat", "plateau", "two_tier", "cylinder", "sphere_cap")
SCAN_FILES = ("events.csv", "heightmap.csv", "heightmap.ply", "features.csv")
EXPLORE_FILES = ("events.csv", "report.json")

CASES = {
    "workspace": (
        ["workspace", "--n-alpha", "24", "--n-theta", "7", "--n-s", "6", "--servo-range", "95"],
        ("workspace.csv", "workspace.ply"),
    ),
    **{
        f"scan_{name}": (["scan", "--scene", str(SCENES / f"{name}.json")], SCAN_FILES)
        for name in SCENE_NAMES
    },
    "scan_plateau_pressure": (
        ["scan", "--scene", str(SCENES / "plateau.json"), "--pressure-synth", "--seed", "7"],
        ("pressure.csv",),
    ),
    **{
        f"explore_{offset}": (["explore", "--obstacle-offset", str(offset)], EXPLORE_FILES)
        for offset in (35, 55, 75, 95)
    },
    "explore_control": (["explore", "--no-obstacle"], EXPLORE_FILES),
    **{
        f"{command}_{state}": ([command, "--alpha", alpha, "--theta", theta, "--s", s], ())
        for command in ("fk", "tendons")
        for state, (alpha, theta, s) in {"generic": ("30", "40", "60"), "tie": ("0", "90", "70")}.items()
    },
    "ik_generic": (["ik", "12", "-7", "48"], ()),
    "ik_compression": (["ik", "0", "0", "20"], ()),
}


def _argv(name, out_dir):
    """The case's argv, with --out for a command that writes files."""
    argv, files = CASES[name]
    return [*argv, "--out", str(out_dir)] if files else argv


def run_case(name, out_dir, capsys):
    """Run one case into out_dir; returns stdout. Fails on a non-zero exit."""
    code = main(_argv(name, out_dir))
    assert code == 0, f"{name}: exit {code}"
    return capsys.readouterr().out


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def assert_same_text(expected: str, actual: str, what: str):
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    assert len(act_lines) == len(exp_lines), f"{what}: {len(act_lines)} vs {len(exp_lines)} lines"
    for row, (exp_line, act_line) in enumerate(zip(exp_lines, act_lines)):
        exp_tokens = re.split(r"[,\s=]", exp_line)
        act_tokens = re.split(r"[,\s=]", act_line)
        assert len(act_tokens) == len(exp_tokens), f"{what} line {row}: token count differs"
        for col, (e, a) in enumerate(zip(exp_tokens, act_tokens)):
            ev, av = _number(e), _number(a)
            where = f"{what} line {row} token {col}"
            if ev is None or av is None:
                assert a == e, f"{where}: {a!r} != {e!r}"
            elif math.isnan(ev) or math.isnan(av):
                assert math.isnan(ev) and math.isnan(av), f"{where}: {a} != {e}"
            else:
                assert abs(av - ev) <= TOL, f"{where}: {a} differs from {e} by {abs(av - ev):.3e}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path, capsys):
    stdout = run_case(name, tmp_path, capsys)
    case_dir = GOLDEN / name
    assert_same_text((case_dir / "stdout.txt").read_text(), stdout, f"{name}/stdout")
    for fname in CASES[name][1]:
        assert (tmp_path / fname).exists(), f"{name}: {fname} not written"
        if name.startswith("scan_"):
            same = (tmp_path / fname).read_bytes() == (case_dir / fname).read_bytes()
            assert same, f"{name}/{fname} differs from the golden bytes"
        else:
            assert_same_text(
                (case_dir / fname).read_text(), (tmp_path / fname).read_text(), f"{name}/{fname}"
            )


def test_comparison_catches_a_flipped_flag():
    good = "alpha,feasible,reason\n0.5,1,ok\n"
    with pytest.raises(AssertionError):
        assert_same_text(good, "alpha,feasible,reason\n0.5,0,ok\n", "flag")
    with pytest.raises(AssertionError):
        assert_same_text(good, "alpha,feasible,reason\n0.5000000001,1,ok\n", "value")
    with pytest.raises(AssertionError):
        assert_same_text(good, "alpha,feasible,reason\n0.5,1,ok,\n", "columns")
    assert_same_text(good, "alpha,feasible,reason\n0.5000000000001,1,ok\n", "within tolerance")


def capture(names=()):
    """Write the scene inputs and the outputs of the named cases (default
    all) under tests/golden/."""
    import contextlib
    import io
    import json

    from test_acceptance import _criterion_scenes

    SCENES.mkdir(parents=True, exist_ok=True)
    for name, grid in _criterion_scenes().items():
        doc = {"type": "height_field", "origin": [0, 0], "cell_mm": 10, "heights": grid.tolist()}
        (SCENES / f"{name}.json").write_text(json.dumps(doc) + "\n")
    for name in names or CASES:
        files = CASES[name][1]
        case_dir = GOLDEN / name
        case_dir.mkdir(parents=True, exist_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(_argv(name, case_dir))
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (case_dir / "stdout.txt").write_text(stdout.getvalue())
        for path in case_dir.iterdir():
            if path.name not in (*files, "stdout.txt"):
                path.unlink()
        print(f"{name}: {', '.join((*files, 'stdout.txt'))}")


if __name__ == "__main__":
    sys.exit(capture(sys.argv[1:]))
