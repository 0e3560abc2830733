"""coilkin benchmark: one run of one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload explore-sweep --seed 1 --seconds 25 --trace 0

The run builds the workload's inputs from the seed, times set-up in fresh
interpreters, runs the command list in a fresh worker interpreter
(perfbench/worker.py), checks the outputs of its warm-up pass and prints a
table of every metric with its unit, a provenance line and, last, one JSON
result line. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones from an extra traced part of the run.
Everything it writes stays under .perfbench_tmp/ (removed at the end) and
.perfbench_trace/ (the spans of the last traced run per workload).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 15
WORKER_TIMEOUT_S = 150
# p90 needs ten samples beyond it.
P90_MIN_SAMPLES = 100


def child_env():
    env = dict(os.environ)
    env.pop("COILKIN_OUT", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(code, env):
    """Run `code` in a fresh interpreter; returns (seconds from spawn, stdout lines).

    The child prints time.monotonic() last. CLOCK_MONOTONIC is shared by
    all processes, so the difference to the parent's clock before the
    spawn is the time until the child reached that line.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport time\nprint(time.monotonic())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()}")
    lines = proc.stdout.split()
    return float(lines[-1]) - start, lines[:-1]


def measure_setup(env, split):
    """Median seconds from spawn until each import returns.

    The first spawn also writes the bytecode caches and confirms that
    coilkin comes from this checkout's src/.
    """
    _, (where, numpy_version) = spawn(
        "import coilkin.cli, numpy\nprint(coilkin.cli.__file__)\nprint(numpy.__version__)", env
    )
    if not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"coilkin imported from {where}, not from {SRC}")
    codes = {"coilkin.cli": "import coilkin.cli"}
    if split:
        codes.update({"bare": "", "numpy": "import numpy"})
    times = {name: [] for name in codes}
    for _ in range(SETUP_SPAWNS):
        for name, code in codes.items():
            times[name].append(spawn(code, env)[0])
    return {name: statistics.median(v) for name, v in times.items()}, numpy_version


def provenance(args, numpy_version):
    h = hashlib.sha256()
    for path in sorted((SRC / "coilkin").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():  # git would otherwise look in parent directories
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": rev,
        "src_sha256": h.hexdigest(),
    }


def run_worker(run_dir, args, env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(run_dir),
         str(args.seconds), str(args.trace)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr.strip()}")
    with open(run_dir / "worker.json", encoding="utf-8") as fh:
        return json.load(fh)


def fastest_per_command(raw):
    """Each command's fastest repetition over the timed passes, in seconds."""
    return [min(reps) for reps in zip(*raw["cmd_s"])]


def end_to_end(setup, raw, items):
    # Timings take each command's fastest repetition: interference from
    # other work on the machine only ever slows a command down, and a pass
    # of many commands rarely runs through without any (see README.md).
    fastest = fastest_per_command(raw)
    wall = sum(fastest)
    return {
        "setup_s": setup["coilkin.cli"],
        "wall_s": wall,
        "items_per_s": items / wall,
        "cmd_ms.p50": statistics.median(fastest) * 1000.0,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(setup, raw):
    traced = raw["traced"]
    metrics = dict(traced["layers"])
    metrics["cli.import_numpy_s"] = setup["numpy"] - setup["bare"]
    metrics["cli.import_coilkin_s"] = setup["coilkin.cli"] - setup["numpy"]
    metrics["trace.overhead_ratio"] = min(traced["pass_s"]) / min(raw["pass_s"]) - 1.0
    return metrics


def report(args, declared, values, raw, items, attempted, failed):
    """The human-readable table; every metric with its unit and sample count."""
    n_pass = len(raw["pass_s"])
    per_command = fastest_per_command(raw)
    samples = f"{len(per_command)} commands, fastest of {n_pass} repetitions each"
    notes = {
        "setup_s": f"median of {SETUP_SPAWNS} fresh interpreters",
        "wall_s": f"sum over {samples}",
        "items_per_s": f"{items} items per pass",
        "cmd_ms.p50": samples,
        "peak_rss_mb": "worker ru_maxrss",
    }
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:36s} {value:>16.6g} {declared[name]:6s} {notes.get(name, '')}")
    if len(per_command) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(per_command, n=10)[8] * 1000.0
        print(f"  {'cmd_ms.p90':36s} {p90:>16.6g} {'ms':6s} {samples}")
    print(f"  {'fail_ratio':36s} {failed / attempted:>16.6g} {'ratio':6s} "
          f"{failed}/{attempted} commands")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coilkin" / "cli.py").is_file():
        print(f"error: no coilkin sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        env = child_env()
        workload = workloads.build(args.workload, args.seed, str(run_dir / "inputs"))
        with open(run_dir / "plan.json", "w", encoding="utf-8") as fh:
            json.dump({"commands": workload.commands, "results": workload.results}, fh)
        setup, numpy_version = measure_setup(env, split=bool(args.trace))
        raw = run_worker(run_dir, args, env)
        failures, items = checks.check(workload, str(run_dir / "checked"), raw["warmup"])
        if args.trace:
            trace_dir = ROOT / ".perfbench_trace"
            trace_dir.mkdir(exist_ok=True)
            shutil.move(run_dir / "spans.csv", trace_dir / f"{args.workload}.spans.csv")
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    for line in raw["failures"][:10] + [f"command {i}: {msg}" for i, msg in failures[:10]]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = raw["attempted"]
    failed = raw["failed"] + len({i for i, _ in failures})
    values = per_layer(setup, raw) if args.trace else end_to_end(setup, raw, items)
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    report(args, declared, values, raw, items, attempted, failed)
    print(json.dumps(provenance(args, numpy_version), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
