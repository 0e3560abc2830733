"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Every tolerance is pinned here; independent oracles are inlined
where a criterion names one.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np

from coilkin import (
    HeightField,
    RobotGeometry,
    ScanConfig,
    Tube,
    error_stats,
    explore_tube,
    fk,
    ik,
    max_payout,
    reconstruct,
    servo_winding,
    surface_scan,
    to_feature,
)
from coilkin.actuation import beyond_servo_range
from coilkin.cli import make_offset_tube
from coilkin.kinematics import ArcState
from kinematics_oracle import fk_transform

GEOM = RobotGeometry()


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_c1_fk_ik_round_trip():
    """10k random states round-trip within 1e-9 relative in under 1 s."""
    rng = random.Random(101)
    states = [
        ArcState(
            rng.uniform(0.01, math.pi / 2),
            rng.uniform(0.01, math.pi / 2),
            rng.uniform(20.0, 70.0),
        )
        for _ in range(10_000)
    ]
    started = time.perf_counter()
    worst = 0.0
    for state in states:
        back = ik(fk_transform(state, GEOM)[:3, 3], GEOM)
        worst = max(
            worst,
            abs(back.alpha - state.alpha) / state.alpha,
            abs(back.theta - state.theta) / state.theta,
            abs(back.r - state.r) / state.r,
        )
    elapsed = time.perf_counter() - started
    report(
        "C1 fk/ik round trip",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst rel err {worst:.3e} (tol 1e-9), {elapsed:.3f} s for 10k states",
    )


def test_c2_closed_form_identity():
    """Arc points fed through the inverse recover (theta, alpha, r) exactly
    (pinned at 1e-10 relative; bitwise equality is impossible in floats)."""
    wide = replace(GEOM, s_min=1e-9, s_max=1e9)
    rng = random.Random(202)
    worst = 0.0
    for _ in range(10_000):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        theta = rng.uniform(0.01, math.pi / 2)
        r = rng.uniform(5.0, 500.0)
        ct = math.cos(theta)
        point = (
            r * math.cos(alpha) * (1.0 - ct),
            r * math.sin(alpha) * (1.0 - ct),
            r * math.sin(theta),
        )
        back = ik(point, wide)
        d_alpha = abs(back.alpha - alpha)
        d_alpha = min(d_alpha, 2.0 * math.pi - d_alpha)
        worst = max(worst, d_alpha, abs(back.theta - theta) / theta, abs(back.r - r) / r)
    report(
        "C2 closed-form identity",
        worst <= 1e-10,
        f"worst rel err {worst:.3e} over 10k cases (tol 1e-10)",
    )


def test_c3_tendon_case_split():
    """Quarter bend, d = 12: inner tendon takes the arc branch, the opposite
    one the chord branch, matching hand-derived values within 0.01 mm."""
    state = ArcState(0.0, math.pi / 2, 70.0)
    q = fk(state, GEOM).q.tolist()
    # Independent oracle: direct evaluation of the anchor/center geometry.
    r, d, theta = 140.0 / math.pi, 12.0, math.pi / 2
    center = (r, 0.0)
    q1_oracle = math.hypot(d - center[0], 0.0) * theta  # |P_L1 - C| = r - d, inner
    xu, zu = r, r  # quarter bend: (r(1-cos), r sin) = (r, r)
    ph3 = (-d * math.cos(theta) + xu, 0.0, d * math.sin(theta) + zu)
    q3_oracle = math.dist((-d, 0.0, 0.0), ph3)
    ok = (
        abs(q[0] - 51.15) <= 0.01
        and abs(q[2] - 79.99) <= 0.01
        and abs(q[0] - q1_oracle) <= 1e-9
        and abs(q[2] - q3_oracle) <= 1e-9
        and abs(q1_oracle - (r - d) * theta) <= 1e-12
    )
    report(
        "C3 tendon case split",
        ok,
        f"q1={q[0]:.4f} (oracle {q1_oracle:.4f}), q3={q[2]:.4f} (oracle {q3_oracle:.4f})",
    )


def test_c4_actuation_feasibility():
    """Servo travel covers the full 50 mm compression within the 120 deg range."""
    payout = max_payout(GEOM)
    # Every tendon 50 mm short of the s_max = 70 mm home.
    winding = float(servo_winding((20.0, 20.0, 20.0, 20.0), GEOM))
    ok = (
        abs(payout - 73.30) <= 0.01
        and payout >= 50.0
        and abs(winding - 81.9) <= 0.1
        and not beyond_servo_range(winding, GEOM)
    )
    report(
        "C4 feasibility figures",
        ok,
        f"max payout {payout:.2f} mm, compression angle {winding:.2f} deg",
    )


def test_c5_exploration_stop_depths():
    """Obstacle offsets 35/55/75/95 mm stop at exactly 40/60/80/100 mm."""
    results = {}
    slowest = 0.0
    for offset in (35.0, 55.0, 75.0, 95.0):
        started = time.perf_counter()
        res = explore_tube(make_offset_tube(offset, GEOM), GEOM)
        slowest = max(slowest, time.perf_counter() - started)
        results[offset] = (res.stop_depth_mm, res.any_contact)
    started = time.perf_counter()
    control = explore_tube(Tube(174.0), GEOM)
    slowest = max(slowest, time.perf_counter() - started)
    ok = (
        results == {35.0: (40.0, True), 55.0: (60.0, True), 75.0: (80.0, True), 95.0: (100.0, True)}
        and control.stop_depth_mm == 100.0
        and not control.any_contact
        and not control.contact.any()
        and slowest < 1.0
    )
    report(
        "C5 exploration stop depths",
        ok,
        f"stops {sorted(v[0] for v in results.values())}, control {control.stop_depth_mm}, "
        f"slowest trial {slowest:.3f} s",
    )


def _criterion_scenes():
    flat = np.zeros((21, 21))

    plateau = np.zeros((21, 21))
    plateau[5:10, 5:10] = 40.0

    two_tier = np.zeros((21, 21))
    two_tier[4:14, 6:12] = 20.0
    two_tier[4:9, 6:12] = 40.0

    cylinder = np.zeros((21, 21))
    for i in range(21):
        dx = (i - 10) * 10.0
        if abs(dx) < 30.0:
            cylinder[i, 4:15] = math.sqrt(30.0**2 - dx * dx)

    cap = np.zeros((21, 21))
    for i in range(21):
        for j in range(21):
            d2 = ((i - 10) * 10.0) ** 2 + ((j - 10) * 10.0) ** 2
            if d2 < 35.0**2 - 25.0:
                cap[i, j] = max(0.0, math.sqrt(35.0**2 - d2) - 5.0)

    return {
        "flat": flat,
        "plateau": plateau,
        "two_tier": two_tier,
        "cylinder": cylinder,
        "sphere_cap": cap,
    }


def test_c6_surface_scan_fidelity():
    """Reconstructed heights match the scene within one probe quantum at
    100% of contacted cells, each 441-node scan under 5 s."""
    failures = []
    slowest = 0.0
    for name, grid in _criterion_scenes().items():
        scene = HeightField((0.0, 0.0), 10.0, grid)
        started = time.perf_counter()
        cloud = surface_scan(scene, GEOM)  # floor exactly reachable
        slowest = max(slowest, time.perf_counter() - started)
        assert len(cloud.contact) == 441
        hmap = reconstruct(cloud)
        bad = 0
        total = 0
        for (i, j), value in np.ndenumerate(hmap.heights):
            if math.isnan(value):
                continue
            total += 1
            truth = scene.height_at(i * 10.0, j * 10.0)
            if not truth - 0.5 - 1e-9 <= value <= truth + 1e-9:
                bad += 1
        if bad or total == 0:
            failures.append(f"{name}: {bad}/{total} cells off")
    report(
        "C6 surface-scan fidelity",
        not failures and slowest < 5.0,
        f"5 scenes x 441 nodes within 0.5 mm, slowest scan {slowest:.3f} s"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def _objects_for_separability():
    plateau = np.full((5, 5), 40.0)

    two_tier = np.zeros((10, 6))
    two_tier[:, :] = 20.0
    two_tier[:5, :] = 40.0

    ridge = np.zeros((7, 4))
    for i in range(7):
        dx = (i - 3) * 10.0
        if abs(dx) < 30.0:
            ridge[i, :] = math.sqrt(30.0**2 - dx * dx)

    cap = np.zeros((7, 7))
    for i in range(7):
        for j in range(7):
            d2 = ((i - 3) * 10.0) ** 2 + ((j - 3) * 10.0) ** 2
            if d2 < 35.0**2 - 25.0:
                cap[i, j] = max(0.0, math.sqrt(35.0**2 - d2) - 5.0)

    wedge = np.zeros((6, 6))
    for i in range(6):
        wedge[i, :] = 15.0 + 5.0 * i

    return {"plateau": plateau, "two_tier": two_tier, "ridge": ridge, "cap": cap, "wedge": wedge}


def test_c7_feature_separability():
    """5 trials x 5 objects at random whole-cell placements: within-object
    feature distances strictly below every between-object distance, 100%
    nearest-neighbor accuracy."""
    rng = random.Random(707)
    labels = []
    vectors = []
    # Arm high enough that the floor is out of reach: only objects contact.
    cfg = ScanConfig(arm_z=191.0)
    for name, pattern in _objects_for_separability().items():
        for _ in range(5):
            grid = np.zeros((21, 21))
            oi = rng.randrange(0, 21 - pattern.shape[0])
            oj = rng.randrange(0, 21 - pattern.shape[1])
            grid[oi : oi + pattern.shape[0], oj : oj + pattern.shape[1]] = pattern
            cloud = surface_scan(HeightField((0.0, 0.0), 10.0, grid), GEOM, cfg)
            vectors.append(np.array(to_feature(reconstruct(cloud)).values))
            labels.append(name)
    vectors = np.stack(vectors)
    n = len(labels)
    dist = np.linalg.norm(vectors[:, None, :] - vectors[None, :, :], axis=2)
    within = [dist[i, j] for i in range(n) for j in range(n) if i != j and labels[i] == labels[j]]
    between = [dist[i, j] for i in range(n) for j in range(n) if labels[i] != labels[j]]
    correct = 0
    for i in range(n):
        order = np.argsort(dist[i])
        nearest = next(j for j in order if j != i)
        correct += labels[nearest] == labels[i]
    ok = max(within) < min(between) and correct == n
    report(
        "C7 feature separability",
        ok,
        f"max within {max(within):.3e} < min between {min(between):.3f}, NN {correct}/{n}",
    )


def test_c8_error_statistics():
    """Planted per-axis offsets recovered within 2%; CSV matches the
    Mean/SD x DIS/axis table structure."""
    rng = np.random.default_rng(20250808)
    n = 8000
    desired = rng.uniform(-30.0, 30.0, (n, 3))
    mu = np.array([4.0, 3.0, 2.0])
    sd = np.array([0.2, 0.15, 0.1])
    offsets = np.stack([rng.normal(mu[k], sd[k], n) for k in range(3)], axis=1)
    rep = error_stats(list(zip(desired, desired + offsets)))
    # With means >> SDs the folded-normal correction vanishes and the
    # distance moments linearize around |mu|.
    dis_mean = math.sqrt(float(mu @ mu))
    dis_sd = math.sqrt(float(np.sum((mu * sd) ** 2))) / dis_mean
    rel = lambda a, b: float(np.max(np.abs(np.asarray(a) - b) / b))
    worst = max(
        rel(rep.mean_axes, mu),
        rel(rep.sd_axes, sd),
        rel(rep.mean_dis, dis_mean),
        rel(rep.sd_dis, dis_sd),
    )
    lines = [l for l in rep.to_csv().splitlines() if not l.startswith("#")]
    structure_ok = (
        lines[0] == ",DIS,X,Y,Z"
        and lines[1].startswith("Mean (mm),")
        and lines[2].startswith("SD (mm),")
        and len(lines[1].split(",")) == 5
    )
    report(
        "C8 error statistics",
        worst <= 0.02 and structure_ok,
        f"worst moment deviation {worst:.4f} (tol 0.02), table structure ok={structure_ok}",
    )


def test_c9_determinism(tmp_path):
    """Identical config and seed produce byte-identical mission logs."""
    grid = np.zeros((21, 21))
    grid[5:10, 5:10] = 40.0

    def log_bytes(log):
        log.write(tmp_path / "events.csv")
        return (tmp_path / "events.csv").read_bytes()

    scan_logs = [
        log_bytes(surface_scan(HeightField((0.0, 0.0), 10.0, grid), GEOM, ScanConfig()).log)
        for _ in range(2)
    ]
    explore_logs = [log_bytes(explore_tube(make_offset_tube(55.0, GEOM), GEOM).log) for _ in range(2)]
    ok = scan_logs[0] == scan_logs[1] and explore_logs[0] == explore_logs[1]
    report(
        "C9 determinism",
        ok,
        f"scan log {len(scan_logs[0])} bytes, explore log {len(explore_logs[0])} bytes, both identical",
    )
