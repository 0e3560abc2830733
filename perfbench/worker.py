"""Runs the command list of one workload in this fresh interpreter.

Usage: python3 perfbench/worker.py <run_dir> <seconds> <trace 0|1>

run_dir holds plan.json (written by run.py). The worker calls
coilkin.cli.main(argv) in-process with stdout and stderr captured:

1. one warm-up pass whose outputs stay in run_dir/checked for run.py's
   correctness checks;
2. timed passes, untraced, until `seconds` of command time is spent and at
   least MIN_PASSES passes ran, each pass's result files compared byte for
   byte with the warm-up pass and then deleted;
3. with trace 1, TRACED_PASSES more passes under the tracer.

It writes its raw figures to run_dir/worker.json.
"""

import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

# Repetitions of each command, so that its fastest one is a stable figure.
MIN_PASSES = 10
# The timed phase stops here even short of MIN_PASSES, to keep the run
# inside its time limit when the program is very slow.
MAX_TIMED_S = 90.0
TRACED_PASSES = 3
ALLOWED_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
PROBE_LOOPS = 20000


def call_main(main, argv):
    """(exit code, seconds, stdout, stderr) of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        elapsed = time.perf_counter() - start
    return rc or 0, elapsed, out.getvalue(), err.getvalue()


def _probe_s():
    """Seconds of a fixed 1-2 ms pure-Python loop on the current CPU."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def move_to_faster_cpu(k):
    """Pin the worker, before its k-th pass, to the faster of two CPUs right now.

    On the shared 2-vCPU host the benchmark was written on, each CPU ran
    the same code up to 1.6x slower for seconds at a time, independently
    of the other, as other tenants' load came and went. The scheduler
    cannot see that and keeps a lone process where it is. A short probe
    loop on two CPUs (taking turns through the allowed ones, so that the
    cost stays fixed on a large machine) picks the one that is free, and
    more passes run at the speed the code has when nothing interferes
    (see README.md).
    """
    if not hasattr(os, "sched_setaffinity") or len(ALLOWED_CPUS) < 2:
        return
    cpus = sorted(ALLOWED_CPUS)
    times = {}
    for cpu in (cpus[k % len(cpus)], cpus[(k + 1) % len(cpus)]):
        os.sched_setaffinity(0, {cpu})
        _probe_s()  # the first loop after a move runs on cold caches
        times[cpu] = _probe_s()
    os.sched_setaffinity(0, {min(times, key=times.get)})


def empty_outputs(pass_dir):
    """Truncate every file under pass_dir to 0 bytes, keeping files and directories.

    The next pass then overwrites existing files instead of creating them
    and their directories anew, which on the disk of the machine the
    benchmark was written on added about 1 ms, with a wide spread, to a
    7 ms explore command. A command that fails to rewrite a file leaves
    it empty, so the comparison with the warm-up pass still fails.
    """
    for dirpath, _, names in os.walk(pass_dir):
        for name in names:
            os.truncate(os.path.join(dirpath, name), 0)


def digest(path):
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    def __init__(self, plan):
        import coilkin.cli

        self.cli = coilkin.cli
        self.plan = plan
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_pass(self, pass_dir):
        """Seconds of each command; counts exit codes and result mismatches."""
        gc.collect()
        records = []
        for i, argv in enumerate(self.plan["commands"]):
            out = os.path.join(pass_dir, f"cmd{i:03d}")
            # Look main up on every call so that the tracer's wrapper is used.
            records.append(call_main(self.cli.main, argv + ["--out", out]))
        digests = [
            [digest(os.path.join(pass_dir, f"cmd{i:03d}", name)) for name in self.plan["results"]]
            for i in range(len(records))
        ]
        if self.reference is None:
            self.reference = digests
        for i, (rec, dig) in enumerate(zip(records, digests)):
            self.attempted += 1
            if rec[0] != 0:
                self.failed += 1
                last = rec[3].strip().splitlines()[-1:] or [""]
                self.failures.append(f"command {i} exited {rec[0]}: {last[0]}")
            elif dig != self.reference[i]:
                self.failed += 1
                self.failures.append(f"command {i}: outputs differ from the warm-up pass")
        return records


def main():
    run_dir, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    os.environ.pop("COILKIN_OUT", None)
    with open(os.path.join(run_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    runner = Runner(plan)

    warmup = runner.run_pass(os.path.join(run_dir, "checked"))
    pass_dir = os.path.join(run_dir, "pass")
    pass_s, cmd_s = [], []
    phase_start = time.perf_counter()
    while (sum(pass_s) < seconds or len(pass_s) < MIN_PASSES) and (
        time.perf_counter() - phase_start < MAX_TIMED_S
    ):
        move_to_faster_cpu(len(pass_s))
        times = [rec[1] for rec in runner.run_pass(pass_dir)]
        empty_outputs(pass_dir)
        pass_s.append(sum(times))
        cmd_s.append(times)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        traced_s = []
        try:
            for k in range(TRACED_PASSES):
                move_to_faster_cpu(k)
                traced_s.append(sum(rec[1] for rec in runner.run_pass(pass_dir)))
                empty_outputs(pass_dir)
        finally:
            tracing.uninstall(restore)
        traced = {"pass_s": traced_s, "layers": tracing.layer_metrics(tracer, TRACED_PASSES)}
        tracer.write(os.path.join(run_dir, "spans.csv"))

    result = {
        "warmup": [{"rc": r[0], "stdout": r[2], "stderr": r[3]} for r in warmup],
        "pass_s": pass_s,
        "cmd_s": cmd_s,
        "peak_rss_kb": peak_rss_kb,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "traced": traced,
    }
    with open(os.path.join(run_dir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
