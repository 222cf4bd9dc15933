#!/usr/bin/env bash
# Experiments harness: builds the bench binaries, runs them all offline,
# aggregates their JSON into a single BENCH_<mode>.json, regenerates
# EXPERIMENTS.md from the tables, and can diff the run against a committed
# baseline aggregate (failing on out-of-tolerance regressions; direction-
# hinted metrics only fail when they drift the bad way).
#
# Usage:
#   scripts/bench.sh                       # quick mode (default, ~10 s)
#   scripts/bench.sh --quick               # same, explicit
#   scripts/bench.sh --full                # paper-scale op budgets
#   scripts/bench.sh --diff <baseline>     # also diff against a baseline
#   scripts/bench.sh --tolerance 0.25      # diff tolerance (relative)
#   scripts/bench.sh --no-experiments-md   # never rewrite EXPERIMENTS.md
#   scripts/bench.sh --experiments-md      # rewrite it even in --full mode
#   scripts/bench.sh --write-baseline      # refresh bench/BENCH_baseline.json
#                                          # (quick aggregate, wall-clock
#                                          # metrics stripped) — the file CI
#                                          # diffs every run against
#   BUILD_DIR=out scripts/bench.sh         # custom build directory
#
# EXPERIMENTS.md is the committed quick-mode baseline: quick runs rewrite
# it by default, --full runs leave it alone unless --experiments-md.
#
# Artifacts land in <build>/bench-out/: one .json + .txt per bench binary
# plus the merged BENCH_quick.json (or BENCH_full.json). Model numbers are
# deterministic; realtime-tagged reports (bench_micro_sim, bench_micro_rpc,
# ...) are wall-clock and vary by machine (benchctl diff skips them by
# default).
#
# Every bench runs even when an earlier one fails its checks; the merge
# (and diff) still happen, then the script exits 1 naming the failed
# benches.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
MODE=quick
DIFF_BASELINE=""
TOLERANCE=0.25
WRITE_BASELINE=0
# Empty = auto: EXPERIMENTS.md is the committed QUICK-mode baseline, so it
# is only (re)written for quick runs; a --full run would otherwise replace
# it with numbers a quick run can never reproduce.
WRITE_EXPERIMENTS_MD=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) MODE=quick ;;
    --full) MODE=full ;;
    --diff)
      shift
      [[ $# -gt 0 ]] || { echo "--diff needs a baseline path" >&2; exit 2; }
      DIFF_BASELINE="$1"
      ;;
    --tolerance)
      shift
      [[ $# -gt 0 ]] || { echo "--tolerance needs a value" >&2; exit 2; }
      TOLERANCE="$1"
      ;;
    --no-experiments-md) WRITE_EXPERIMENTS_MD=0 ;;
    --experiments-md) WRITE_EXPERIMENTS_MD=1 ;;
    --write-baseline) WRITE_BASELINE=1 ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
  shift
done

if [[ -z "$WRITE_EXPERIMENTS_MD" ]]; then
  [[ "$MODE" == quick ]] && WRITE_EXPERIMENTS_MD=1 || WRITE_EXPERIMENTS_MD=0
fi

if [[ "$WRITE_BASELINE" == 1 && "$MODE" != quick ]]; then
  # Fail fast, before the (long) full-mode bench run: the committed
  # baseline is the quick-mode aggregate by definition.
  echo "--write-baseline requires quick mode (the committed baseline is" \
       "the quick-mode aggregate)" >&2
  exit 2
fi

JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"

OUT_DIR="$BUILD_DIR/bench-out"
mkdir -p "$OUT_DIR"

# Canonical order: figures, table, ablations, then the micro benches —
# this is the section order of the regenerated EXPERIMENTS.md.
MODEL_BENCHES=(
  bench_fig1_workloads
  bench_fig3_local_fio
  bench_fig4_remote_spdk
  bench_fig5_dfs
  bench_table1_gpus
  bench_ablation_checksum
  bench_ablation_gpudirect
  bench_ablation_host_savings
  bench_ablation_inline_crypto
  bench_ablation_multitenant
  bench_micro_sim
  bench_micro_rpc
  bench_micro_pipeline
  bench_micro_dfs
  bench_micro_mt
  bench_micro_rebuild
  bench_micro_telemetry
  bench_micro_vos
)

QUICK_FLAG=""
[[ "$MODE" == quick ]] && QUICK_FLAG="--quick"

# A bench that fails a check still writes its JSON; keep going so one
# host-sensitive gate does not hide the rest of the run.
FAILED_BENCHES=()
for bench in "${MODEL_BENCHES[@]}"; do
  echo "== running $bench ($MODE) =="
  "$BUILD_DIR/bench/$bench" $QUICK_FLAG \
      --json="$OUT_DIR/$bench.json" > "$OUT_DIR/$bench.txt" ||
      FAILED_BENCHES+=("$bench")
done

# The one list of merge inputs: the aggregate and the committed baseline
# must always be built from the same reports.
MERGE_INPUTS=()
for bench in "${MODEL_BENCHES[@]}"; do
  MERGE_INPUTS+=("$OUT_DIR/$bench.json")
done

AGGREGATE="$OUT_DIR/BENCH_${MODE}.json"
MERGE_ARGS=(merge "--out=$AGGREGATE")
if [[ "$WRITE_EXPERIMENTS_MD" == 1 ]]; then
  MERGE_ARGS+=("--experiments-md=EXPERIMENTS.md")
fi
# Exit 1 = some merged report failed a check: already counted above (the
# bench exited non-zero), so carry on to the diff. Anything else (a bench
# wrote no JSON, an unwritable output) leaves nothing to diff.
MERGE_STATUS=0
"$BUILD_DIR/src/bench/ros2_benchctl" "${MERGE_ARGS[@]}" "${MERGE_INPUTS[@]}" ||
    MERGE_STATUS=$?
if [[ "$MERGE_STATUS" -gt 1 ]]; then
  echo "merge failed (exit $MERGE_STATUS); failed benches:" \
       "${FAILED_BENCHES[*]:-none}" >&2
  exit "$MERGE_STATUS"
fi
echo "aggregate: $AGGREGATE"
[[ "$WRITE_EXPERIMENTS_MD" == 1 ]] && echo "regenerated: EXPERIMENTS.md"

# The diff runs BEFORE any baseline refresh, so `--write-baseline --diff
# bench/BENCH_baseline.json` compares against the PREVIOUS committed
# baseline (and a regression blocks the refresh) instead of vacuously
# diffing the run against itself.
DIFF_OK=1
if [[ -n "$DIFF_BASELINE" ]]; then
  # A baseline that IS the fresh aggregate would diff the file against
  # itself and always pass; save a copy of a previous run's aggregate
  # (e.g. cp .../BENCH_quick.json /tmp/baseline.json) and diff that.
  if [[ "$(realpath -m "$DIFF_BASELINE")" == "$(realpath -m "$AGGREGATE")" ]]; then
    echo "--diff baseline resolves to the aggregate this run just wrote" \
         "($AGGREGATE); diff a saved copy instead" >&2
    exit 2
  fi
  "$BUILD_DIR/src/bench/ros2_benchctl" diff \
      "--tolerance=$TOLERANCE" "$DIFF_BASELINE" "$AGGREGATE" || DIFF_OK=0
fi

# A failed bench or a regression blocks the baseline refresh.
if [[ "$WRITE_BASELINE" == 1 && ${#FAILED_BENCHES[@]} == 0 &&
      "$MERGE_STATUS" == 0 && "$DIFF_OK" == 1 ]]; then
  # The committed regression baseline: same inputs, wall-clock (realtime)
  # reports stripped so the file is byte-stable across machines.
  "$BUILD_DIR/src/bench/ros2_benchctl" merge \
      "--out=bench/BENCH_baseline.json" --strip-realtime "${MERGE_INPUTS[@]}"
  echo "baseline: bench/BENCH_baseline.json"
fi

if [[ ${#FAILED_BENCHES[@]} -gt 0 ]]; then
  echo "FAILED benches (non-zero exit): ${FAILED_BENCHES[*]}" >&2
  exit 1
fi
if [[ "$MERGE_STATUS" != 0 || "$DIFF_OK" != 1 ]]; then
  exit 1
fi
