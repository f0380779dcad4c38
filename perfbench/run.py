#!/usr/bin/env python3
"""End-to-end ATPG benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the satpg libraries
and the driver (perfbench/e2e_bench.cpp) from source into .bench_build/;
later runs reuse the build. The driver runs in its own process, so
peak_rss_mb is the workload's own. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its
per_layer ones.

A driver that dies (signal, abort, timeout) is reported, not masked: the
operation it was running counts as failed, the result is printed with
"correct": false and the exit code is 1.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD, "e2e_bench")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "e2e_bench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    metrics = spec["per_layer" if trace else "end_to_end"]
    return names, {m["name"]: m["unit"] for m in metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="override the workload's thread count (0 = keep)")
    args = ap.parse_args()

    workloads, expected = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}")
    build()

    work = os.path.join(BUILD_ROOT, "perfbench-work", args.workload)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work", work, "--threads", str(args.threads)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        code = "timeout"
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        stderr = e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or "")

    ops = [l.split() for l in stderr.splitlines() if l.startswith("op ")]
    for line in stderr.splitlines():
        if not line.startswith("op ok"):
            print(line, file=sys.stderr)
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None

    if code != 0 and (result is None or result.get("correct", False)):
        # Crashed or timed out: count the operation in flight as failed.
        failed = sum(1 for o in ops if o[1] == "fail") + 1
        print(f"perfbench: driver exited with {code} after {len(ops)} "
              "operations", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(ops) + 1,
                          "failed": failed, "metrics": {}}))
        sys.exit(1)
    if result is None:
        fail("driver printed no result")

    got = result["metrics"]
    missing = sorted(set(expected) - set(got))
    if missing:
        fail(f"driver did not report {missing}")
    result["metrics"] = {k: got[k] for k in expected}
    for k, unit in expected.items():
        if got[k]["unit"] != unit:
            fail(f"metric {k}: unit {got[k]['unit']} != {unit}")
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
