#!/usr/bin/env bash
# Sanitizer harness for the simulator, one script for all three passes:
#
#   tools/san_check.sh thread     [build-dir]   (default: build-tsan)
#   tools/san_check.sh address    [build-dir]   (default: build-asan)
#   tools/san_check.sh undefined  [build-dir]   (default: build-ubsan)
#
# thread    proves the Launcher's worker pool is race-free: builds the
#           executor tests with ThreadSanitizer and runs them with a parallel
#           default executor (CFMERGE_SIM_THREADS=4), so every launch in
#           every test — not just the explicitly parallel ones — exercises
#           the pool.  The engine and batched-merge suites keep one launcher,
#           and so one set of pooled helper threads, across hundreds of runs
#           and destroy it with the engine, so TSan sees the whole pool
#           lifetime.  TSan aborts on any data race, so a plain pass is the
#           proof.
# address   proves the engine/executor memory handling is clean
#           (ASan + LeakSan).  The SortEngine suite is the interesting one —
#           cached plans own the buffers their kernel bodies capture and the
#           scratch arena recycles allocations across leases, so
#           use-after-free/leak bugs in that ownership story surface as hard
#           failures.  The kernel suites (serial merge, block sort, merge
#           pass, multiway, access stream) cover the merge-path search and
#           serial merge, which read shared words at computed positions
#           through SharedTile::peek — ASan sees any read past a tile; the
#           poisoned-padding suite runs every pipeline over buffers whose
#           tails no kernel may touch, so its guarded loads and clamped
#           stores index global views at real lengths only.  The
#           bulk-charge, cfprims and dual-gather suites drive the certified
#           bulk movers, which index raw tile and view spans directly.  The
#           two shared-memory suites drive the bank-conflict model, whose
#           dedup bitmap is indexed by shared address.  The verifier suites
#           (cfverify, safety) index lane- and word-sized tables by computed
#           banks and addresses, and the usage-error ctests drive cfsort and
#           cfverify with out-of-range input (a 200-lane warp, say) that
#           must be rejected before any such table is touched.
# undefined runs the whole tier-1 test suite under UBSan with
#           -fno-sanitize-recover=all: any signed overflow, bad shift,
#           misaligned access or invalid enum load aborts the test binary.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-}"
case "$MODE" in
  thread)
    DEFAULT_BUILD=build-tsan
    TARGETS="test_launcher test_merge_sort test_kernel_graph test_segmented_sort \
             test_sort_engine test_batched_merge"
    ;;
  address)
    DEFAULT_BUILD=build-asan
    TARGETS="test_launcher test_kernel_graph test_sort_engine test_merge_sort \
             test_segmented_sort test_batched_merge test_serial_merge \
             test_block_sort test_merge_pass test_multiway_sort test_access_stream \
             test_bulk_charge test_cfprims test_cfprims_golden test_dual_gather \
             test_shared_memory test_shared_memory_oracle test_cfverify test_safety \
             test_poisoned_padding"
    TOOLS="cfsort cfverify"  # for the usage-error ctests
    ;;
  undefined)
    DEFAULT_BUILD=build-ubsan
    TARGETS=""  # whole suite via ctest
    ;;
  *)
    echo "usage: tools/san_check.sh {thread|address|undefined} [build-dir]" >&2
    exit 2
    ;;
esac
BUILD="${2:-$DEFAULT_BUILD}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCFMERGE_SANITIZE="$MODE" \
  -DCFMERGE_BUILD_BENCH=OFF \
  -DCFMERGE_BUILD_EXAMPLES=OFF

# Run the checks with the exit status captured explicitly, so a sanitizer
# report (or ctest failure) provably propagates to this script's own exit
# code and CI always sees one machine-greppable summary line either way.
status=0
if [ "$MODE" = undefined ]; then
  cmake --build "$BUILD" -j"$JOBS"
  CFMERGE_SIM_THREADS=4 ctest --test-dir "$BUILD" -j"$JOBS" \
    --output-on-failure || status=$?
else
  # shellcheck disable=SC2086
  cmake --build "$BUILD" -j"$JOBS" --target $TARGETS ${TOOLS:-}
  for t in $TARGETS; do
    echo "== $t under $MODE sanitizer (CFMERGE_SIM_THREADS=4) =="
    CFMERGE_SIM_THREADS=4 "$BUILD/tests/$t" || { status=$?; break; }
  done
  if [ "$status" -eq 0 ] && [ -n "${TOOLS:-}" ]; then
    echo "== usage-error ctests under $MODE sanitizer =="
    ctest --test-dir "$BUILD" -R usage_errors --output-on-failure || status=$?
  fi
fi

if [ "$status" -ne 0 ]; then
  echo "san_check $MODE: FAIL — exit $status propagated" >&2
  exit "$status"
fi
echo "san_check $MODE: OK — no issues reported"
