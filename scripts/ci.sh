#!/usr/bin/env bash
# Tier-1 gate: lint -> configure -> build -> ctest -> sanitizer matrix ->
# bench smoke. Keep the configure/build/ctest sequence byte-for-byte in
# sync with the one-liner in README.md; .github/workflows/ci.yml just
# calls this script.
#
# CI turns -Werror ON (src/ and tests/ are warning-clean and stay that
# way); local builds default it OFF so an unusual toolchain can't brick
# the build.
#
# Usage:
#   scripts/ci.sh                     # vendored minigtest
#   scripts/ci.sh --system-gtest      # suite against installed GoogleTest
#   scripts/ci.sh --no-bench          # skip the bench smoke stage and
#                                     # the e2ebench self-checks
#   scripts/ci.sh --no-tsan           # skip the ThreadSanitizer stage
#   scripts/ci.sh --tsan-only         # ONLY the ThreadSanitizer stage
#   scripts/ci.sh --no-asan           # skip the ASan/UBSan stage
#   scripts/ci.sh --asan-only         # ONLY the ASan/UBSan stage
#   scripts/ci.sh --no-lint           # skip the project-invariant lint
#   scripts/ci.sh --lint-only         # ONLY the project-invariant lint
#   BUILD_DIR=out scripts/ci.sh       # custom build directory
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
CMAKE_ARGS=(-DROS2_WERROR=ON)
RUN_BENCH=1
RUN_TSAN=1
RUN_ASAN=1
RUN_LINT=1
RUN_MAIN=1
for arg in "$@"; do
  case "$arg" in
    --system-gtest)
      CMAKE_ARGS+=(-DROS2_USE_SYSTEM_GTEST=ON)
      BUILD_DIR="${BUILD_DIR}-sysgtest"
      ;;
    --no-bench)
      RUN_BENCH=0
      ;;
    --no-tsan)
      RUN_TSAN=0
      ;;
    --tsan-only)
      RUN_MAIN=0
      RUN_BENCH=0
      RUN_ASAN=0
      RUN_LINT=0
      ;;
    --no-asan)
      RUN_ASAN=0
      ;;
    --asan-only)
      RUN_MAIN=0
      RUN_BENCH=0
      RUN_TSAN=0
      RUN_LINT=0
      ;;
    --no-lint)
      RUN_LINT=0
      ;;
    --lint-only)
      RUN_MAIN=0
      RUN_BENCH=0
      RUN_TSAN=0
      RUN_ASAN=0
      ;;
    *)
      echo "unknown argument: $arg" >&2
      exit 2
      ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

if [[ "$RUN_LINT" == 1 ]]; then
  # Project-invariant lint runs FIRST so rule violations fail in seconds,
  # before any compile. scripts/lint.sh enforces the repo's standing rules
  # (telemetry-tree registration, annotated mutex wrapper, [[nodiscard]]
  # factories, include guards, banned functions) and runs the committed
  # .clang-tidy profile when clang-tidy + compile_commands.json exist.
  scripts/lint.sh
fi

if [[ "$RUN_MAIN" == 1 ]]; then
  cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
  cmake --build "$BUILD_DIR" -j "$JOBS"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
  # Telemetry smoke: boot a demo engine, drive a workload, and validate the
  # end-to-end wiring (non-zero per-opcode latency histograms, per-target
  # queue-depth gauges) over the kTelemetryQuery RPC. --check exits 1 on
  # any missing metric.
  "$BUILD_DIR/src/telemetry/ros2_telemetryctl" dump --check > /dev/null
  # Self-healing smoke: 3 engines, kill one mid-workload, degrade, rebuild,
  # resync. --check additionally gates the rebuild/<victim>/* counters,
  # progress == 100, pool-map transitions, and a fully drained journal.
  "$BUILD_DIR/src/telemetry/ros2_telemetryctl" dump --rebuild --check \
      > /dev/null
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  # ThreadSanitizer gate over the concurrency suites: the xstream workers,
  # the poll-set doorbell, the MR cache, and the stall-deadline client are
  # all multithreaded now, and TSan keeps their locking honest. Only the
  # concurrency-relevant test binaries are built (benches/examples off) so
  # the stage stays cheap; halt_on_error makes any report a hard failure.
  TSAN_DIR="${BUILD_DIR}-tsan"
  TSAN_SUITES="engine_scheduler_mt_test|fabric_test|mr_cache_test"
  TSAN_SUITES+="|rpc_pipeline_test|engine_scheduler_test|nvme_device_test"
  TSAN_SUITES+="|telemetry_test|rebuild_mt_test|dfs_mt_test"
  cmake -B "$TSAN_DIR" -S . "${CMAKE_ARGS[@]}" -DROS2_SANITIZE=thread \
      -DROS2_BUILD_BENCHES=OFF -DROS2_BUILD_EXAMPLES=OFF
  # shellcheck disable=SC2086  # the | list is a ctest regex, not words
  cmake --build "$TSAN_DIR" -j "$JOBS" \
      --target ${TSAN_SUITES//|/ }
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$TSAN_DIR" \
      --output-on-failure -j "$JOBS" -R "^(${TSAN_SUITES})\$"
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  # AddressSanitizer + UBSan gate over the FULL suite (TSan's blind spot:
  # heap misuse, leaks, UB). Unlike the TSan stage this runs everything —
  # including the vos/dfs/rpc fuzz shards, which feed adversarial bytes
  # into the decode paths where UB hides. detect_leaks=1 makes any leak a
  # failure; -fno-sanitize-recover=undefined (wired in CMakeLists.txt when
  # ROS2_SANITIZE contains "undefined") makes any UB report a hard abort
  # instead of a printed warning.
  ASAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$ASAN_DIR" -S . "${CMAKE_ARGS[@]}" \
      -DROS2_SANITIZE=address,undefined \
      -DROS2_BUILD_BENCHES=OFF -DROS2_BUILD_EXAMPLES=OFF
  cmake --build "$ASAN_DIR" -j "$JOBS"
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
      UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  # Bench gate: every experiment binary runs quick-mode, its functional
  # checks must pass, and the aggregate is diffed against the committed
  # model-number baseline (bench/BENCH_baseline.json; wall-clock metrics
  # are excluded from it, and direction-hinted metrics only fail on
  # bad-direction drift). A deliberate model change must refresh the
  # baseline via `scripts/bench.sh --write-baseline` in the same PR.
  # EXPERIMENTS.md is left untouched here — regenerating it is a deliberate
  # local act (scripts/bench.sh) whose diff rides the PR that changed perf.
  BUILD_DIR="$BUILD_DIR" scripts/bench.sh --quick --no-experiments-md \
      --diff bench/BENCH_baseline.json
  # End-to-end benchmark self-checks (e2ebench/): builds the benchmark
  # binary against the current tree and runs every workload briefly,
  # verifying every byte read back. A client API change that breaks the
  # benchmark's build or correctness check fails here, not only in the
  # benchmark pipeline.
  python3 e2ebench/test_bench.py
fi
