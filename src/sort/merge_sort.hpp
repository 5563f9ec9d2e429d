// Full pairwise mergesort pipeline on the simulated GPU.
//
//   block sort  ->  ceil(log2(n / tile)) merge passes (partition + merge)
//
// Inputs of arbitrary length are padded to a tile multiple with +infinity
// sentinels (Thrust clamps ragged tiles instead; padding exercises the same
// code paths with full tiles, and the reported element counts/throughputs
// always refer to the unpadded n).
//
// The pipeline is *enqueued* onto a gpusim::Stream (one KernelGraph node
// per kernel, chained in stream order) and executed with Launcher::run, so
// the same enqueue helper serves both the standalone sort and
// sort::segmented_sort, where many of these chains overlap in one graph.
// For a single sort the chain is linear, every wavefront holds one kernel,
// and the history/trace/counters are bit-identical to the old
// launch-per-kernel cadence.
//
// All kernels enqueued here write block-disjoint data (each block owns its
// tile / partition slots), so the pipeline is safe under the Launcher's
// parallel block executor and its reports are bit-identical for every
// worker-thread count (Launcher::set_threads; asserted by
// test_merge_sort's MergeSortParallelCases).
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
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
  /// Graph-overlap simulated time (Launcher::run makespan).  The sort is one
  /// dependency chain, so this equals `microseconds` here; segmented_sort
  /// reports a smaller makespan when independent chains overlap.
  double makespan_microseconds = 0.0;
  int graph_levels = 0;           ///< dependency-chain length of the kernel graph
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

namespace detail {

/// Enqueues the full sort pipeline for one padded buffer onto `stream`:
/// block sort followed by the per-pass partition + merge chain.  `buf` must
/// already hold the (sentinel-padded) input of `n_padded` elements; `tmp`
/// and `boundaries` are resized here and must stay alive (and un-moved)
/// until the graph executed.  Returns the buffer that holds the sorted
/// result after execution and reports the pass count via `passes`.
template <typename T>
std::vector<T>* enqueue_sort_pipeline(gpusim::Stream& stream, std::vector<T>& buf,
                                      std::vector<T>& tmp,
                                      std::vector<std::int64_t>& boundaries,
                                      std::int64_t n_padded, const MergeConfig& cfg,
                                      int& passes) {
  const std::int64_t tile = cfg.tile();
  const int num_tiles = static_cast<int>(n_padded / tile);
  const int regs = cfg.regs_per_thread();
  tmp.resize(static_cast<std::size_t>(n_padded));
  boundaries.assign(static_cast<std::size_t>(num_tiles) + 1, 0);

  // --- stage 1: block sort ------------------------------------------------
  enqueue_block_sort(stream, buf, num_tiles, cfg.u, cfg.e, regs,
                     cfg.variant == Variant::CFMerge && cfg.cf_blocksort, cfg.certs);

  // --- stage 2: merge passes ----------------------------------------------
  // All passes are enqueued up front; each body captures the pass's source
  // and destination buffer pointers by value (they ping-pong per pass) and
  // the shared `boundaries` scratch by reference — the in-stream dependency
  // chain orders every reader after its writer.
  std::vector<T>* src = &buf;
  std::vector<T>* dst = &tmp;
  passes = 0;
  for (std::int64_t run = tile; run < n_padded; run *= 2) {
    ++passes;
    const PassGeometry geom{n_padded, run};

    const auto nb = static_cast<std::int64_t>(boundaries.size());
    const int pblocks = static_cast<int>((nb + cfg.u - 1) / cfg.u);
    gpusim::LaunchShape pshape{pblocks, cfg.u, 0, cost::kPartitionRegsPerThread};
    stream.enqueue("merge_partition", pshape,
                   [src, &boundaries, geom, tile](gpusim::BlockContext& ctx) {
                     merge_partition_body<T>(ctx, std::span<const T>(*src), geom, tile,
                                             std::span<std::int64_t>(boundaries));
                   });

    gpusim::LaunchShape mshape{num_tiles, cfg.u,
                               static_cast<std::size_t>(tile) * sizeof(T), regs};
    stream.enqueue("merge_pass", mshape,
                   [src, dst, &boundaries, geom, cfg](gpusim::BlockContext& ctx) {
                     merge_tile_body<T>(ctx, std::span<const T>(*src), std::span<T>(*dst),
                                        geom, cfg,
                                        std::span<const std::int64_t>(boundaries));
                   });
    std::swap(src, dst);
  }
  return src;
}

}  // namespace detail

}  // namespace cfmerge::sort

// The entry points (merge_sort, merge_sort_by_key) are thin wrappers over
// sort::SortEngine and live there; pulled in here so that including this
// header keeps providing them.
#include "sort/engine.hpp"
