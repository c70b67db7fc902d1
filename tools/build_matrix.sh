#!/usr/bin/env bash
# build_matrix.sh — configure, build and test the five gcc build-and-ctest
# configurations of CI, each in its own build directory, and print one
# pass/fail line per configuration.
#
#   tools/build_matrix.sh
#   MATRIX_DIR=/tmp/m JOBS=2 tools/build_matrix.sh
#
# Configurations:
#   release         Release, tier-1 ctest
#   relwithdebinfo  RelWithDebInfo, tier-1 ctest
#   asan-ubsan      RelWithDebInfo + MECRA_SANITIZE=address,undefined, ctest
#   tsan            RelWithDebInfo + MECRA_SANITIZE=thread, the concurrency
#                   suites only (the CI tsan job's list)
#   obs-off         MECRA_OBS=OFF, tier-1 ctest
#
# Not covered: CI's crash-consistency job (chaos_loop --crash-restart), the
# micro_obs step of the obs-off job and the bench --check-against gates.
# Build trees go to $MATRIX_DIR/<name> (default build-matrix/ under the repo
# root); each keeps its full output in matrix.log. The clang-only layers
# (thread-safety analysis as errors, clang-tidy) need clang and are reported
# as skipped when it is not installed. Exit status is non-zero when any
# configuration fails.
set -u -o pipefail

REPO_ROOT="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
MATRIX_DIR="${MATRIX_DIR:-${REPO_ROOT}/build-matrix}"
NPROC="$(nproc 2>/dev/null || echo 2)"
JOBS="${JOBS:-$(( NPROC < 4 ? NPROC : 4 ))}"

ALL=(release relwithdebinfo asan-ubsan tsan obs-off)
TSAN_SUITES=(batch_test orchestrator_test controller_test chaos_test
             dynamic_test reconciliation_test obs_test csr_oracle_test
             mpsc_queue_test streaming_test journal_test recovery_test)

configure_flags() {
  case "$1" in
    release)        echo "-DCMAKE_BUILD_TYPE=Release" ;;
    relwithdebinfo) echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo" ;;
    asan-ubsan)     echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo" \
                         "-DMECRA_SANITIZE=address,undefined" \
                         "-DMECRA_BUILD_BENCH=OFF" ;;
    tsan)           echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo" \
                         "-DMECRA_SANITIZE=thread -DMECRA_BUILD_BENCH=OFF" ;;
    obs-off)        echo "-DCMAKE_BUILD_TYPE=Release -DMECRA_OBS=OFF" ;;
  esac
}

# Runs one configuration; prints its result line and returns 0 on a pass.
run_config() {
  local name="$1" dir="${MATRIX_DIR}/$1" flags stage start
  flags="$(configure_flags "$name")"
  mkdir -p "$dir"
  local log="${dir}/matrix.log"
  : >"$log"
  start=$SECONDS

  stage=configure
  # shellcheck disable=SC2086  # flags are deliberately word-split
  cmake -S "$REPO_ROOT" -B "$dir" $flags >>"$log" 2>&1 || {
    echo "FAIL  ${name}: ${stage} (see ${log})"; return 1; }

  stage=build
  if [[ "$name" == tsan ]]; then
    cmake --build "$dir" -j "$JOBS" --target "${TSAN_SUITES[@]}" \
      >>"$log" 2>&1
  else
    cmake --build "$dir" -j "$JOBS" >>"$log" 2>&1
  fi || { echo "FAIL  ${name}: ${stage} (see ${log})"; return 1; }

  stage=test
  local ok=1
  case "$name" in
    tsan)
      for suite in "${TSAN_SUITES[@]}"; do
        TSAN_OPTIONS=halt_on_error=1 "${dir}/tests/${suite}" >>"$log" 2>&1 \
          || { ok=0; echo "  ${suite} failed" >>"$log"; }
      done ;;
    asan-ubsan)
      ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
        ctest --test-dir "$dir" --output-on-failure -j "$JOBS" >>"$log" 2>&1 \
        || ok=0 ;;
    *)
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" >>"$log" 2>&1 \
        || ok=0 ;;
  esac
  local summary
  summary="$(grep -E '^[0-9]+% tests passed' "$log" | tail -1)"
  [[ "$name" == tsan ]] && summary="${#TSAN_SUITES[@]} concurrency suites"
  if [[ $ok -eq 1 ]]; then
    echo "PASS  ${name}: ${summary} ($(( SECONDS - start )) s)"
    return 0
  fi
  echo "FAIL  ${name}: ${stage}${summary:+, ${summary}} (see ${log})"
  return 1
}

failed=0
for name in "${ALL[@]}"; do
  run_config "$name" || failed=1
done

if command -v clang++ >/dev/null 2>&1; then
  echo "NOTE  clang found: the clang-only layers are not part of this" \
       "matrix; run a -DCMAKE_CXX_COMPILER=clang++ build and" \
       "tools/run_clang_tidy.sh"
else
  echo "SKIP  thread-safety analysis and clang-tidy: clang is not installed"
fi
exit $failed
