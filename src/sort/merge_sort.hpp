// Full pairwise mergesort pipeline on the simulated GPU.
//
//   block sort  ->  ceil(log2(n / tile)) merge passes (partition + merge)
//
// A merge_sort plan is the one-segment segmented pipeline
// (detail::enqueue_segmented_pipeline in segmented_sort.hpp): one
// block_sort kernel, then per pass one merge_partition + merge_pass pair
// (sort/merge_pass.hpp) over that pass's run pairs — the same two kernels
// every 2-way entry point launches.
//
// Inputs of arbitrary length are padded to a tile multiple with +infinity
// sentinels (Thrust clamps ragged tiles instead; padding exercises the same
// code paths with full tiles, and the reported element counts/throughputs
// always refer to the unpadded n).
//
// The pipeline is *enqueued* into a gpusim::KernelGraph (one kernel after
// another, in enqueue order) and executed with Launcher::run; the
// history/trace/counters are bit-identical to launching each kernel in
// turn.  SortEngine caches the graph per shape and replays it.
//
// All kernels enqueued here write block-disjoint data (each block owns its
// tile / partition slots), so the pipeline is safe under the Launcher's
// parallel block executor and its reports are bit-identical for every
// worker-thread count (Launcher::set_threads; asserted by
// test_merge_sort's MergeSortParallelCases).
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/launcher.hpp"
#include "sort/key_value.hpp"
#include "sort/merge_pass.hpp"

namespace cfmerge::sort {

/// Outcome of a simulated sort: the sorted data plus the full cost picture.
struct SortReport {
  std::int64_t n = 0;             ///< unpadded element count
  std::int64_t n_padded = 0;
  int passes = 0;                 ///< number of global merge passes
  double microseconds = 0.0;      ///< total simulated kernel time (serial sum)
  /// Kernel-chain time.  The kernels run one after another, so this always
  /// equals `microseconds`; kept for the JSON report schema.
  double makespan_microseconds = 0.0;
  int graph_levels = 0;           ///< kernels in the chain
  gpusim::Counters totals;        ///< counters summed over all kernels
  gpusim::PhaseCounters phases;   ///< per-phase breakdown
  std::vector<gpusim::KernelReport> kernels;

  /// Elements sorted per simulated microsecond (the paper's figure metric).
  [[nodiscard]] double throughput() const {
    return microseconds > 0 ? static_cast<double>(n) / microseconds : 0.0;
  }
  /// Bank conflicts in the pairwise-merge kernels' merge phase only (what
  /// nvprof measured for the paper: "no bank conflicts during merging").
  /// The block-sort stage is identical in both variants and excluded.
  [[nodiscard]] std::uint64_t merge_conflicts() const;
  [[nodiscard]] std::uint64_t merge_shared_accesses() const;
  /// Bank conflicts in the (variant-independent) block-sort merge rounds.
  [[nodiscard]] std::uint64_t blocksort_conflicts() const;
};

}  // namespace cfmerge::sort

// The entry points (merge_sort, merge_sort_by_key) are thin wrappers over
// sort::SortEngine and live there; pulled in here so that including this
// header keeps providing them.
#include "sort/engine.hpp"
