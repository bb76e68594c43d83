#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Two runs of every workload give bit-identical simulated metrics and
   work counters (host times are free to differ).
2. A deliberately wrong reference value makes the cell count as failed
   and the run report correct = false.

Exits 0 when both hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

# Metrics that must repeat exactly: simulated output and work counts.
EXACT = (
    "sim_step_ms", "sim_exposed_ms", "profile.faults", "core.mil",
    "core.case3_events", "dataflow.stalls_per_step",
    "mem.pages_moved_per_step", "mem.channel_transfers_per_step",
    "mem.migrated_mb_per_step", "mem.peak_fast_mb",
    "sim.link_busy_ms_per_step", "common.heap_allocs_per_step",
    "common.setup_heap_allocs", "telemetry.events_per_step",
    "telemetry.events_dropped", "telemetry.audit_records",
)


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("selftest: run.py %s exited with %d" %
                 (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    ok = True

    a = bench("--workload", "all", "--seconds", "1", "--seed", "1")
    b = bench("--workload", "all", "--seconds", "1", "--seed", "2")
    if not (a["correct"] and b["correct"]):
        print("FAIL: a run of the unmodified benchmark is not correct")
        ok = False
    compared = 0
    for key, m in sorted(a["metrics"].items()):
        if key.split("/", 1)[1] not in EXACT:
            continue
        compared += 1
        other = b["metrics"].get(key, {}).get("value")
        if m["value"] != other:
            print("FAIL: %s differs between runs: %r vs %r" %
                  (key, m["value"], other))
            ok = False
    print("%d exact metrics compared across two runs" % compared)

    with open(os.path.join(ROOT, "BENCH_baseline.json")) as f:
        base = json.load(f)
    base["sim.resnet32.sentinel.step_time_ms"] += 0.001
    binary = run.build(run.build_dir())
    wrong = os.path.join(run.build_dir(), "selftest-baseline.json")
    with open(wrong, "w") as f:
        json.dump(base, f)
    r, _ = run.run_workload(binary, "resnet32-2tier", 0, 1, 0,
                            baseline=wrong)
    if r["correct"] or r["failed"] < 1:
        print("FAIL: a wrong reference value was not counted as failed")
        ok = False
    else:
        print("wrong reference counted: %d of %d cells failed" %
              (r["failed"], r["attempted"]))

    print("selftest %s" % ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
