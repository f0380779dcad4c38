#!/bin/sh
# Regenerates the checked-in golden atpg_run.v6 reports in bench/golden/
# that the tier-2 bench_gate_test gates against: the default (hitec)
# engine and the cdcl engine, each on one cached MCNC circuit and its
# retimed twin, plus one long cdcl search (s510.jc.sd: tens of thousands
# of conflicts and hundreds of restarts, where dk16 runs a few hundred
# conflicts and none).
#
#   tools/gen_golden.sh [build-dir]
#
# Run from the repository root after an intentional engine change shifts
# coverage or effort; the flags below must stay in lockstep with
# tests/bench_gate_test.cpp (kGoldenFlags). Reports are deterministic
# (DESIGN.md §5/§6), so regeneration on any machine gives the same bytes
# apart from the v6 build_info block, which records the generating
# compiler and SIMD tiers on purpose. The circuit name echoes the path
# passed to satpg, so the twin is run from a temporary directory under the
# fixed relative name dk16_retimed.bench. bench_gate compares thresholds
# and BenchGateTest.FreshReportsEqualGoldensOutsideProvenance compares
# every field but build_info and circuit.name, so the goldens stay usable
# across toolchains.
set -eu

BUILD="${1:-build}"
SATPG="$(cd "$BUILD/tools" && pwd)/satpg"
CIRCUIT="circuits_cache/dk16.ji.sd_s3_x30.bench"
LONG_CDCL="circuits_cache/s510.jc.sd_s3_x30.bench"
FLAGS="--budget=0.2 --seed=7 --threads=2"
OUT="$(pwd)/bench/golden"

[ -x "$SATPG" ] || { echo "error: $SATPG not built" >&2; exit 1; }
mkdir -p "$OUT"

WORK="$(mktemp -d -t gen_golden.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT
TWIN="dk16_retimed.bench"

"$SATPG" atpg "$CIRCUIT" $FLAGS --metrics-json="$OUT/dk16_parent.v6.json"
"$SATPG" retime "$CIRCUIT" "$WORK/$TWIN" --dffs=6
(cd "$WORK" &&
  "$SATPG" atpg "$TWIN" $FLAGS --metrics-json="$OUT/dk16_retimed.v6.json")

"$SATPG" atpg "$CIRCUIT" $FLAGS --engine=cdcl \
    --metrics-json="$OUT/dk16_parent_cdcl.v6.json"
(cd "$WORK" &&
  "$SATPG" atpg "$TWIN" $FLAGS --engine=cdcl \
      --metrics-json="$OUT/dk16_retimed_cdcl.v6.json")

"$SATPG" atpg "$LONG_CDCL" $FLAGS --engine=cdcl \
    --metrics-json="$OUT/s510_cdcl.v6.json"

echo "golden reports written to $OUT/"
