#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, alternating sides.

    python3 tools/perf_pairs.py A B --workload hitec_pairs --pairs 10
    python3 tools/perf_pairs.py A --aa --workload hitec_pairs --pairs 10

A and B are checkout roots. Pair i runs `python3 perfbench/run.py` once in
each checkout with the same seed (--seed0 + i); a pair with an odd seed runs
A first, an even one B first, so neither side always sees the host first.
--aa runs A against itself: its spread is the noise floor a claimed change
has to clear.

For every end-to-end metric in A's BENCHMARK.json the report prints each
side's median [q1, q3] over the pairs, the change of the medians in %, and
in how many pairs B beat A (ties count for neither side), and whether the
medians differ by more than A's interquartile range. `pass_cpu_s` is
the median per-pass CPU time that run.py echoes on stderr ("pass plain wall
W cpu C"), printed beside `wall_s`. A run that fails (run.py exit code not 0
or "correct": false) stops the comparison with exit code 1.

The comparison also gates: when B's median of an end-to-end metric is worse
than A's by more than that metric's BENCHMARK.json `bound`, read as a
fraction of A's median, the report names the workload and metric, and the
script exits 3 after every workload has run. Nothing under perfbench/ is
changed; each checkout builds its own .bench_build/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct", False):
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"perf_pairs: run failed in {root} (seed {seed}, "
                 f"exit {proc.returncode})")
    cpu = [float(l.split()[5]) for l in proc.stderr.splitlines()
           if l.startswith("pass plain wall ")]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["pass_cpu_s"] = statistics.median(cpu) if cpu else float("nan")
    return values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def cell(xs):
    q1, q3 = quartiles(xs)
    return f"{statistics.median(xs):.6g} [{q1:.6g}, {q3:.6g}]"


def report(workload, metrics, bounds, pairs):
    """Print the comparison table; return the metrics whose bound B crossed."""
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':<12} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  B wins  > A IQR")
    crossed = []
    for name, better in metrics:
        a = [p[0][name] for p in pairs]
        b = [p[1][name] for p in pairs]
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma * 100 if ma else 0.0
        wins = sum(1 for x, y in zip(a, b)
                   if (y < x if better == "lower" else y > x))
        a1, a3 = quartiles(a)
        beyond = "yes" if abs(mb - ma) > a3 - a1 else "no"
        print(f"  {name:<12} {cell(a):>34} {cell(b):>34} {change:>+7.1f}%"
              f"  {f'{wins}/{len(pairs)}':>6}  {beyond}")
        worse = mb - ma if better == "lower" else ma - mb
        if name in bounds and worse > bounds[name] * abs(ma):
            crossed.append(f"{workload} {name}: {change:+.1f}% against a "
                           f"bound of {bounds[name] * 100:g}%")
    return crossed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="checkout root of side A (the baseline)")
    ap.add_argument("b", nargs="?", help="checkout root of side B")
    ap.add_argument("--aa", action="store_true",
                    help="run A against itself (A/A control)")
    ap.add_argument("--workload", action="append", required=True,
                    help="perfbench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed0", type=int, default=11,
                    help="seed of the first pair (default 11)")
    args = ap.parse_args()
    if args.aa == (args.b is not None):
        ap.error("give either B or --aa")
    a = os.path.abspath(args.a)
    b = a if args.aa else os.path.abspath(args.b)

    with open(os.path.join(a, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    wall = [i for i, m in enumerate(metrics) if m[0] == "wall_s"]
    metrics.insert(wall[0] + 1 if wall else 0, ("pass_cpu_s", "lower"))

    print(f"A = {a}\nB = {b}{' (A/A control)' if args.aa else ''}")
    crossed = []
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = [(0, a), (1, b)] if seed % 2 else [(1, b), (0, a)]
            pair = [None, None]
            for side, root in order:
                pair[side] = run_once(root, workload, seed, args.seconds)
            pairs.append(pair)
            print(f"  {workload} seed {seed}: wall_s "
                  f"{pair[0]['wall_s']:.4f} -> {pair[1]['wall_s']:.4f}",
                  flush=True)
        crossed += report(workload, metrics, bounds, pairs)
    if crossed:
        print("\nworse than A beyond the bound:")
        for line in crossed:
            print(f"  {line}")
        sys.exit(3)


if __name__ == "__main__":
    main()
