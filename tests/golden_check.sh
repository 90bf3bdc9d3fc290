#!/usr/bin/env bash
# Byte-identity harness for the engine refactor.
#
# Runs wadc_run on small sweeps and diffs the output against the golden
# files captured from the pre-refactor engine. Two suites:
#
#   paper   every algorithm at 4 servers, with and without a fault
#           schedule: CSV, metrics and run JSON are diffed; Chrome traces
#           are compared by SHA-256 (a few hundred KB each; a hash detects
#           any byte change without committing the bytes).
#   wide32  one-shot, global and local at 32 servers, the width at which
#           bandwidth-cache piggybacking and branch-and-bound planning
#           dominate: CSV and run JSON are diffed, the metrics (about
#           46 KB each) compared by SHA-256.
#
# Usage:
#   golden_check.sh <wadc_run binary> <golden dir> [jobs] [paper|wide32]
#   REGEN=1 golden_check.sh ...   # re-capture the golden files instead
set -u

BIN=$1
GOLDEN=$2
JOBS=${3:-1}
SUITE=${4:-paper}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0

# check NAME HASHED KEPT ARGS...: runs wadc_run with ARGS (standard output
# to NAME.csv), replaces NAME.HASHED.json by its SHA-256 in NAME.HASHED.sha256,
# then diffs NAME.csv and every NAME.KEPT (space-separated suffixes) plus the
# hash against the golden directory.
check() {
  local name=$1 hashed=$2 kept=$3
  shift 3
  if ! "$BIN" "$@" > "$TMP/$name.csv"; then
    echo "FAIL: $name: wadc_run exited non-zero" >&2
    fail=1
    return
  fi
  sha256sum < "$TMP/$name.$hashed.json" | cut -d' ' -f1 \
    > "$TMP/$name.$hashed.sha256"

  local f
  for f in csv $kept $hashed.sha256; do
    if [ "${REGEN:-0}" = 1 ]; then
      cp "$TMP/$name.$f" "$GOLDEN/"
    elif ! diff -u "$GOLDEN/$name.$f" "$TMP/$name.$f" > "$TMP/diff.out" 2>&1
    then
      echo "FAIL: $name.$f differs from golden:" >&2
      head -40 "$TMP/diff.out" >&2
      fail=1
    fi
  done
  if [ "${REGEN:-0}" = 1 ]; then echo "regenerated $name"; fi
}

case "$SUITE" in
  paper)
    for alg in download-all one-shot global local global-order reorder-only; do
      for mode in plain fault; do
        name="${alg}_${mode}"
        args=(--algorithm="$alg" --servers=4 --iterations=40 --configs=2
              --seed=1000 --period=150 --extras=2 --jobs="$JOBS" --csv
              --metrics-out="$TMP/$name.metrics.json"
              --trace-out="$TMP/$name.trace.json"
              --dump-run="$TMP/$name.run.json")
        if [ "$mode" = fault ]; then
          args+=(--fault-spec="$GOLDEN/golden.fault")
        fi
        check "$name" trace "metrics.json run.json" "${args[@]}"
      done
    done
    ;;
  wide32)
    for alg in one-shot global local; do
      name="wide32_${alg}"
      check "$name" metrics "run.json" \
        --algorithm="$alg" --servers=32 --iterations=30 --configs=2 \
        --seed=1000 --period=150 --jobs="$JOBS" --csv \
        --metrics-out="$TMP/$name.metrics.json" \
        --dump-run="$TMP/$name.run.json"
    done
    ;;
  *)
    echo "unknown suite: $SUITE (expected paper or wide32)" >&2
    exit 2
    ;;
esac

if [ "$fail" = 0 ] && [ "${REGEN:-0}" != 1 ]; then
  echo "golden byte-identity OK ($SUITE, jobs=$JOBS)"
fi
exit "$fail"
