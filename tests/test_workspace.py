"""Workspace sampling, feasibility classification and exports."""

import math
from dataclasses import replace

import numpy as np
import pytest

from coilkin import (
    ConfigError,
    EmptyWorkspaceError,
    RobotGeometry,
    fk,
    ik,
    sample_workspace,
    servo_winding,
    workspace_extents,
)
import coilkin.columns
from coilkin.actuation import beyond_servo_range
from coilkin.columns import CHUNK_ROWS
from coilkin.workspace import REASON_OK, REASON_SERVO, write_files

GEOM = RobotGeometry()


@pytest.fixture(scope="module")
def default_samples():
    return sample_workspace(GEOM)


def test_single_cell_grid():
    samples = sample_workspace(GEOM, (1, 1, 1))
    assert len(samples) == 1
    smp = samples[0]
    assert smp.state.alpha == 0.0
    assert smp.state.theta == 0.0
    assert smp.state.s == GEOM.s_min
    assert smp.u == pytest.approx([0.0, 0.0, 20.0])
    assert smp.feasible


def test_default_grid_size_and_order(default_samples):
    assert len(default_samples) == 72 * 19 * 11
    # alpha outer, theta middle, s inner
    assert default_samples[0].state.s == GEOM.s_min
    assert default_samples[1].state.s > default_samples[0].state.s
    assert default_samples[11].state.theta > default_samples[0].state.theta
    assert default_samples[19 * 11].state.alpha > default_samples[0].state.alpha


def test_geometric_bounds(default_samples):
    # An arc of length <= s_max bending at most 90 degrees stays within
    # a ball of radius s_max above the base plane.
    for smp in default_samples:
        assert np.linalg.norm(smp.u) <= GEOM.s_max + 1e-9
        assert smp.u[2] >= -1e-12


def test_tight_servo_kills_bent_samples():
    # Payout drops to ~6.1 mm, so almost any shortening is infeasible.
    samples = sample_workspace(replace(GEOM, servo_range=10.0), (8, 5, 5))
    feasible = [s for s in samples if s.feasible]
    infeasible = [s for s in samples if not s.feasible]
    assert len(feasible) < len(samples) / 3
    assert all(s.reason == REASON_SERVO for s in infeasible)
    # straight full extension stays feasible for every alpha
    assert sum(1 for s in feasible if s.state.theta == 0.0 and s.state.s == GEOM.s_max) == 8


def test_extents(default_samples):
    extents = workspace_extents(default_samples)
    assert extents["z_max"] == pytest.approx(70.0)
    # deepest point: quarter bend at minimum length, z = 40/pi
    assert extents["z_min"] == pytest.approx(40.0 / math.pi)
    # widest point: quarter bend at full length, planar reach 140/pi
    assert extents["radial_max"] == pytest.approx(140.0 / math.pi)


def test_extents_empty():
    # Without servo travel only the s_max home lengths are reachable, and a
    # single-length grid holds only s_min.
    with pytest.raises(EmptyWorkspaceError):
        workspace_extents(sample_workspace(replace(GEOM, servo_range=0.0), (4, 2, 1)))


def test_rotational_symmetry(default_samples):
    # Group by (theta, s): feasibility and the (planar, z) profile must not
    # depend on alpha.
    groups = {}
    for smp in default_samples:
        key = (round(smp.state.theta, 12), round(smp.state.s, 12))
        groups.setdefault(key, []).append(smp)
    for members in groups.values():
        flags = {m.feasible for m in members}
        assert len(flags) == 1
        planars = [math.hypot(m.u[0], m.u[1]) for m in members]
        zs = [m.u[2] for m in members]
        assert max(planars) - min(planars) < 1e-9
        assert max(zs) - min(zs) < 1e-9


def test_loosening_servo_never_removes_samples():
    tight = sample_workspace(replace(GEOM, servo_range=40.0), (8, 5, 5))
    loose = sample_workspace(replace(GEOM, servo_range=120.0), (8, 5, 5))
    for a, b in zip(tight, loose):
        if a.feasible:
            assert b.feasible


def test_feasible_samples_round_trip(default_samples):
    for smp in default_samples[:: 37]:
        if not smp.feasible or smp.state.theta < 1e-3:
            continue
        back = ik(smp.u, GEOM)
        assert back.theta == pytest.approx(smp.state.theta, rel=1e-9, abs=1e-9)
        assert back.r == pytest.approx(smp.state.r, rel=1e-9)


def test_csv_and_ply_exports(tmp_path, default_samples):
    samples = sample_workspace(GEOM, (2, 2, 2))
    csv_path = tmp_path / "ws.csv"
    ply_path = tmp_path / "ws.ply"
    write_files(samples, csv_path, ply_path)

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "alpha,theta,s,xU,yU,zU,xE,yE,zE,feasible,reason"
    assert len(lines) == 1 + 8
    first = lines[1].split(",")
    assert len(first) == 11
    assert first[10] in (REASON_OK, REASON_SERVO)

    ply = ply_path.read_text().splitlines()
    n_feasible = sum(1 for s in samples if s.feasible)
    assert ply[0] == "ply"
    assert f"element vertex {n_feasible}" in ply
    assert len(ply) == ply.index("end_header") + 1 + n_feasible


def reference_extents(samples):
    """workspace_extents as a loop over the feasible rows."""
    pts = [s.u for s in samples if s.feasible]
    if not pts:
        raise EmptyWorkspaceError("no feasible samples")
    zs = [p[2] for p in pts]
    return {
        "z_min": min(zs),
        "z_max": max(zs),
        "radial_max": max(math.hypot(p[0], p[1]) for p in pts),
    }


def test_matches_per_sample_loop():
    # The scalar API sample by sample, with the servo rule on each sample's
    # tendon set against the s_max home.
    cases = [
        (replace(GEOM, d=13.0, servo_range=95.0), (24, 7, 6)),
        (replace(GEOM, d=10.5, s_min=25.0, s_max=60.0, l=40.0, servo_range=60.0), (10, 5, 4)),
        (replace(GEOM, servo_range=0.0), (6, 4, 1)),  # nothing feasible
    ]
    for geom, grid in cases:
        samples = sample_workspace(geom, grid)
        assert len(samples) == math.prod(grid)
        assert sum(not s.feasible for s in samples) > 0
        for smp in samples:
            kin = fk(smp.state, geom)
            assert smp.u == pytest.approx(kin.u, abs=1e-12)
            assert smp.e == pytest.approx(kin.e, abs=1e-12)
            reason = REASON_SERVO if beyond_servo_range(servo_winding(kin.q, geom), geom) else REASON_OK
            assert (smp.feasible, smp.reason) == (reason == REASON_OK, reason)
        try:
            expected = reference_extents(samples)
        except EmptyWorkspaceError:
            with pytest.raises(EmptyWorkspaceError):
                workspace_extents(samples)
        else:
            assert workspace_extents(samples) == pytest.approx(expected, rel=1e-15)


def reference_csv(samples, path):
    """The workspace.csv writer as a per-row repr loop over the samples."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,theta,s,xU,yU,zU,xE,yE,zE,feasible,reason\n")
        for smp in samples:
            st = smp.state
            vals = [st.alpha, st.theta, st.s, *smp.u, *smp.e]
            fh.write(
                ",".join(repr(float(v)) for v in vals)
                + f",{1 if smp.feasible else 0},{smp.reason}\n"
            )


def reference_ply(samples, path):
    """The workspace.ply writer as a per-row repr loop over the feasible samples."""
    feasible = [smp for smp in samples if smp.feasible]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "ply\nformat ascii 1.0\n"
            f"element vertex {len(feasible)}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        for smp in feasible:
            fh.write(" ".join(repr(float(v)) for v in smp.u) + "\n")


@pytest.mark.parametrize(
    "grid, servo_range",
    [
        ((24, 7, 6), 95.0),
        ((1, 1, 1), 120.0),
        ((30, 9, 9), 80.0),
        # CHUNK_ROWS - 1, CHUNK_ROWS and CHUNK_ROWS + 1 rows, every chunk
        # with feasible and infeasible rows; at 105 the last chunk of the
        # third grid holds one PLY vertex instead of none.
        ((23, 89, 1), 95.0),
        ((2, 32, 32), 95.0),
        ((3, 683, 1), 95.0),
        ((3, 683, 1), 105.0),
    ],
)
def test_csv_matches_per_row_writer(tmp_path, grid, servo_range):
    """write_files against the per-row CSV and PLY writers."""
    samples = sample_workspace(replace(GEOM, servo_range=servo_range), grid)
    write_files(samples, tmp_path / "ws.csv", tmp_path / "ws.ply")
    reference_csv(samples, tmp_path / "ref.csv")
    reference_ply(samples, tmp_path / "ref.ply")
    assert (tmp_path / "ws.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "ws.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()


@pytest.mark.parametrize(
    "grid, servo_range, last_vertices",
    [((23, 89, 1), 95.0, None), ((2, 32, 32), 95.0, None), ((3, 683, 1), 95.0, 0),
     ((3, 683, 1), 105.0, 1)],
)
def test_chunk_boundary_grids(grid, servo_range, last_vertices):
    """The boundary grids above cover what their comments say."""
    feasible = sample_workspace(replace(GEOM, servo_range=servo_range), grid).feasible
    assert len(feasible) - CHUNK_ROWS in (-1, 0, 1)
    chunks = [feasible[k : k + CHUNK_ROWS] for k in range(0, len(feasible), CHUNK_ROWS)]
    if last_vertices is None:
        assert all(c.any() and not c.all() for c in chunks)
    else:
        assert all(c.any() and not c.all() for c in chunks[:-1])
        assert chunks[-1].sum() == last_vertices


def test_bad_grid():
    with pytest.raises(ConfigError):
        sample_workspace(GEOM, (0, 1, 1))


def test_node_cap(monkeypatch):
    # A lowered cap, so that a missing check cannot allocate much.
    monkeypatch.setattr(coilkin.columns, "MAX_NODES", 100)
    assert len(sample_workspace(GEOM, (10, 5, 2))) == 100
    for grid in [(101, 1, 1), (10, 5, 3), (10**12, 19, 11)]:
        with pytest.raises(ConfigError, match="cap"):
            sample_workspace(GEOM, grid)
