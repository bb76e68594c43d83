#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (its own CMake project
over the simulator libraries in src/) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs the perfbench binary for S
seconds of timed cells.  The binary prints a table of every metric;
this script checks the simulated output against the committed
references (BENCH_baseline.json for the resnet32 cells,
perfbench/reference.json for llm-medium-3tier) and prints, as the last
stdout line, one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end_to_end metrics named in
BENCHMARK.json, --trace 1 the per_layer ones and writes the spans to
the build directory.  `--workload all` runs every workload traced and
prints every table.

The workloads have no random input; the seed is recorded, not used.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload -> (reference file, key prefix) its harness cell must match.
REFERENCES = {
    "resnet32-2tier": ("BENCH_baseline.json", "sim.resnet32.sentinel."),
    "llm-medium-3tier": ("perfbench/reference.json", "llm-medium-3tier."),
    "resnet32-ial": ("BENCH_baseline.json", "sim.resnet32.ial."),
    # Telemetry must not perturb simulated time.
    "resnet32-observed": ("BENCH_baseline.json", "sim.resnet32.sentinel."),
}
HARNESS_KEYS = ("step_time_ms", "throughput", "exposed_ms", "migrated_mb",
                "peak_fast_mb")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configure once, then bring the perfbench target up to date."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def load_reference(path, prefix):
    """The committed harness-cell values, at their printed precision."""
    with open(path) as f:
        data = json.load(f)
    ref = {}
    for key in HARNESS_KEYS:
        if prefix + key not in data:
            fail("%s has no %s" % (path, prefix + key))
        ref[key] = "%.6f" % data[prefix + key]
    return ref


def run_workload(binary, workload, seed, seconds, trace, baseline=None):
    """Run one workload; return (result line dict, binary's JSON).

    baseline, if given, is read in place of BENCH_baseline.json."""
    spans = os.path.join(os.path.dirname(binary),
                         "spans-%s-seed%s.json" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with %d on %s" % (proc.returncode, workload))
    out = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    failed = out["failed"]
    harness = out["harness"]
    ref_path, prefix = REFERENCES[workload]
    if baseline and ref_path == "BENCH_baseline.json":
        ref = load_reference(baseline, prefix)
    else:
        ref = load_reference(os.path.join(ROOT, ref_path), prefix)
    bad = [k for k in HARNESS_KEYS if harness[k] != ref[k]]
    for k in bad:
        print("error: harness %s = %s, %s%s = %s" %
              (k, harness[k], prefix, k, ref[k]))
    if bad and out["check_ok"]:
        failed += 1  # the check cell
    print("reference check (%s, %s*): %s" %
          (ref_path, prefix, "FAILED" if bad else "ok"))
    print("failed_frac %.6f (%d of %d cells)" %
          (failed / out["attempted"], failed, out["attempted"]))
    if trace:
        print("spans written to %s" % spans)
    return {"correct": failed == 0, "attempted": out["attempted"],
            "failed": failed}, out


def select_metrics(out, spec, trace):
    """The BENCHMARK.json metrics of this mode, units checked."""
    kind = "per_layer" if trace else "end_to_end"
    have = out[kind]
    metrics = {}
    for m in spec[kind]:
        got = have.get(m["name"])
        if got is None:
            # Only the heap counts may be absent: sanitizer builds
            # cannot count allocations, and 0 would be a lie.
            print("note: %s not measured in this build" % m["name"],
                  file=sys.stderr)
            continue
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(REFERENCES) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build(build_dir())

    if args.workload != "all":
        result, out = run_workload(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
        result["metrics"] = select_metrics(out, spec, args.trace)
        print(json.dumps(result))
        return

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in REFERENCES:
        result, out = run_workload(binary, w, args.seed, args.seconds, 1)
        for k in ("attempted", "failed"):
            total[k] += result[k]
        total["correct"] = total["correct"] and result["correct"]
        for trace in (0, 1):
            for name, m in select_metrics(out, spec, trace).items():
                total["metrics"][w + "/" + name] = m
        print()
    print(json.dumps(total))


if __name__ == "__main__":
    main()
