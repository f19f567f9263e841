#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_vector --seed 42 --seconds 10 --trace 0

The benchmark program (perfbench/cc/, built by perfbench/CMakeLists.txt
from ../src) generates the data set, orders it by the seed, loads it into a
simulated 4-node cluster several times (set-up), then runs one closed-loop
client for --seconds. This script checks the outputs -- the program's own cross-pass and
traced-vs-untraced checks, plus, for the default seed 42, every request's
row count, fingerprint and modeled seconds against perfbench/refs/ -- and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones. The build tree is $CARGO_TARGET_DIR (default
.bench_build); a traced run also writes a Chrome trace-event file there.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 165


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "paradise_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "paradise_perfbench")


def reference_mismatches(workload, records):
    """Compares the run's reference pass with the stored seed-42 records.

    A record that failed in the program is already counted there and is
    skipped here, so every failing record counts once.
    """
    path = os.path.join(HERE, "refs", workload + ".json")
    with open(path) as f:
        want = json.load(f)
    if len(want) != len(records):
        return abs(len(want) - len(records)), ["record count differs from " + path]
    bad = []
    for got, exp in zip(records, want):
        if got.get("failed"):
            continue
        if (got["name"], got["rows"], got["fingerprint"], got["modeled"]) != (
            exp["name"], exp["rows"], exp["fingerprint"], exp["modeled"]):
            bad.append("%s differs from the stored reference" % got["name"])
    return len(bad), bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-refs", action="store_true",
                    help="store this seed-%d run's records as the reference" % DEFAULT_SEED)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(os.path.join(os.getcwd(), target))
    binary = build(os.path.join(target, "perfbench"))
    trace_dir = os.path.join(target, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        cmd.append("--trace-out=" + os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed)))
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail("benchmark program exited with %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    out = json.loads(lines[-1])

    failed = out["failed"]
    if args.seed == DEFAULT_SEED:
        if args.write_refs:
            if out["failed"]:
                fail("not writing references from a run with failures")
            with open(os.path.join(HERE, "refs", args.workload + ".json"), "w") as f:
                f.write("[\n" + ",\n".join(json.dumps(r) for r in out["reference"]) + "\n]\n")
        n_bad, messages = reference_mismatches(args.workload, out["reference"])
        failed += n_bad
        for m in messages[:10]:
            print("  failure: " + m)
        print("reference check (seed %d): %d of %d records differ"
              % (DEFAULT_SEED, n_bad, len(out["reference"])))

    metrics = {}
    for m in wanted:
        if m["name"] not in out["metrics"]:
            fail("benchmark program did not report " + m["name"])
        metrics[m["name"]] = {"value": out["metrics"][m["name"]], "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": out["attempted"],
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
