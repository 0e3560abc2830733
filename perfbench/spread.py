"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root:

    python3 perfbench/spread.py --workload scan-dense --seeds 1-10 [--save FILE]

Runs perfbench/run.py once per seed, one run at a time, with the
run_seconds of BENCHMARK.json, then prints per metric the median, the
quartiles from statistics.quantiles(values, n=4) and their distance as a
share of the median next to the metric's bound. --save appends every
result line, with its provenance, to FILE as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result, provenance = json.loads(lines[-1]), json.loads(lines[-2])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}\n{proc.stderr}")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed} ({time.monotonic() - start:.0f} s): " + " ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
        ), flush=True)
        if args.save:
            with open(args.save, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"provenance": provenance, "result": result}) + "\n")
    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{(q3 - q1) / med:8.4f} {m['bound']:6.3f}")


if __name__ == "__main__":
    main()
