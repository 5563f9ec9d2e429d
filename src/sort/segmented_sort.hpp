// Segmented sort: many independent variable-length sorts in one kernel
// chain — the serving-shape workload (a request batch where every request
// brings its own array to sort).
//
// The segments are concatenated, each at a tile-aligned offset, and sorted
// by one pipeline whose launch count does not grow with the segment count.
// No kernel reads or writes past a segment's real length: the padding to a
// tile multiple exists only in shared memory, filled in-kernel.
//
//   one block_sort over every tile of every segment (block sort is
//   tile-local; each block reads its tile's real length and sorts no
//   padding), then
//   one merge pass per round p over the run groups of every segment that
//   still has more than one run of tile·k^p (detail::enqueue_merge_pass,
//   sort/merge_pass.hpp): merge_partition + merge_pass for a MergeConfig,
//   multiway_partition + multiway_merge for a MultiwayConfig.  The config
//   fixes the arity k and the rows of the co-rank buffer, so the pipeline
//   has no arity branch.
//
// A segment of P merge passes takes part in rounds 0..P-1 and is left in
// the ping-pong buffer its own pass parity put it in; an unpaired trailing
// run is a group of one list.  The batch therefore launches 1 + 2·(max
// segment passes) kernels, one after another.  A merge_sort or
// merge_sort_multiway plan is this pipeline over one segment; the
// segmented_sort entry point runs it 2-way.
//
// This header holds the report type and the pipeline enqueue; the entry
// point is a thin wrapper over sort::SortEngine (engine.hpp, included at
// the bottom).  The engine keys segmented plans by the full list of
// segment lengths, so the next batch with the same lengths skips
// validation, allocation, and graph building entirely.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gpusim/launcher.hpp"
#include "sort/key_value.hpp"
#include "sort/merge_pass.hpp"
#include "sort/multiway_pass.hpp"

namespace cfmerge::sort {

/// Cost picture of a segmented sort: graph timing plus the usual counter
/// aggregates, and each segment's length and merge pass count.
struct SegmentedSortReport {
  struct Segment {
    std::int64_t n = 0;  ///< segment length
    int passes = 0;      ///< merge passes of this segment
  };

  int segments = 0;            ///< segments submitted (including empty ones)
  std::int64_t elements = 0;   ///< total elements across segments
  /// Sum of all kernel times.
  double serial_microseconds = 0.0;
  /// Kernel-chain time: the kernels run one after another, so this
  /// always equals the serial sum; kept for the JSON report schema.
  double makespan_microseconds = 0.0;
  int graph_levels = 0;        ///< 1 + 2 * (max segment passes), 0 when empty
  gpusim::Counters totals;
  gpusim::PhaseCounters phases;
  std::vector<gpusim::KernelReport> kernels;  ///< enqueue order
  std::vector<Segment> per_segment;           ///< one entry per input segment

  [[nodiscard]] double overlap_speedup() const {
    return makespan_microseconds > 0 ? serial_microseconds / makespan_microseconds : 1.0;
  }
  /// Elements sorted per simulated microsecond.
  [[nodiscard]] double throughput() const {
    return makespan_microseconds > 0 ? static_cast<double>(elements) / makespan_microseconds
                                     : 0.0;
  }
  /// Bank conflicts in the merge phase across all segments (0 for CF-Merge).
  [[nodiscard]] std::uint64_t merge_conflicts() const;
};

/// Merge passes of a k-way sort of `n` elements: runs start at one tile
/// and grow k-fold until one run covers the tile-padded input.
[[nodiscard]] inline int merge_pass_count(std::int64_t n, std::int64_t tile, int k = 2) {
  const std::int64_t n_padded = (n + tile - 1) / tile * tile;
  int passes = 0;
  for (std::int64_t run = tile; run < n_padded; run *= k) ++passes;
  return passes;
}

namespace detail {

/// Enqueues the segmented pipeline for segments of the given lengths into
/// `graph`: sizes `buf` and `tmp` to the concatenated tile-padded segments,
/// records each segment's offset and each tile's real length in `layout`,
/// builds every round's tile descriptors over the segments' lengths, sizes
/// `boundaries` to the largest round's rows, adds one block_sort over every
/// tile and one merge pass per round, and returns the round count via
/// `passes`.  Every kernel reads layout.fill when the graph runs: one
/// segment passes its length as a kernel argument (a sort plan is built for
/// a padded length, so its caller sets the real one per input, and the
/// merge passes clamp their descriptors with it); several segments read
/// each tile's length from a device array.  The config fixes the pass
/// arity and row width (2 and 1 for a MergeConfig, k and k for a
/// MultiwayConfig); every round is one enqueue_merge_pass, whose kernel
/// shapes depend on `warp_size`.  The caller loads segment s at
/// layout.offsets[s] of `buf` before running the graph; no kernel reads
/// past its length.  The segments must hold at least one element.  Every
/// buffer must stay alive (and un-moved) until the graph executed.
template <typename T, typename Cfg>
void enqueue_segmented_pipeline(gpusim::KernelGraph& graph, const std::vector<std::int64_t>& lens,
                                std::vector<T>& buf, std::vector<T>& tmp, BatchLayout& layout,
                                std::vector<std::int64_t>& boundaries, const Cfg& cfg,
                                int warp_size, int& passes) {
  const int k = cfg.arity();
  const std::int64_t tile = cfg.tile();
  std::int64_t total = 0;
  passes = 0;
  for (const std::int64_t n : lens) {
    layout.offsets.push_back(total);
    total += (n + tile - 1) / tile * tile;
    passes = std::max(passes, merge_pass_count(n, tile, k));
    if (lens.size() > 1)
      for (std::int64_t at = 0; at < n; at += tile)
        layout.fill.lens.push_back(static_cast<std::int32_t>(std::min(tile, n - at)));
  }
  if (lens.size() == 1) layout.fill.n = lens[0];
  buf.resize(static_cast<std::size_t>(total));
  tmp.resize(static_cast<std::size_t>(total));

  // Every round's tile descriptors, round after round.  In round p (runs of
  // tile·k^p) each segment that still has more than one run merges its run
  // groups into the ping-pong partner buffer at the same offsets.
  std::vector<int> round_t0;
  std::int64_t run = tile;
  for (int p = 0; p < passes; ++p, run *= k) {
    round_t0.push_back(static_cast<int>(layout.tiles.size()));
    for (std::size_t s = 0; s < lens.size(); ++s)
      if (merge_pass_count(lens[s], tile, k) > p)
        add_run_group_tiles(layout.tiles, layout.offsets[s], lens[s], run, k, tile);
  }
  round_t0.push_back(static_cast<int>(layout.tiles.size()));
  // Round 0 has the most tiles (every segment still merging takes part
  // with all of its tiles).
  boundaries.assign(static_cast<std::size_t>(passes > 0 ? round_t0[1] : 0) *
                        static_cast<std::size_t>(cfg.row_width()),
                    0);

  enqueue_block_sort(graph, buf, static_cast<int>(total / tile), layout.fill, cfg.u, cfg.e,
                     cfg.regs_per_thread(), cfg.cf_rounds(), cfg.certs);
  std::vector<T>* src = &buf;
  std::vector<T>* dst = &tmp;
  for (std::size_t p = 0; p + 1 < round_t0.size(); ++p) {
    const int count = round_t0[p + 1] - round_t0[p];
    enqueue_merge_pass(graph, *src, *dst, layout.tiles, round_t0[p], count, boundaries, cfg,
                       warp_size, layout.fill);
    std::swap(src, dst);
  }
}

}  // namespace detail

}  // namespace cfmerge::sort

// The entry point (segmented_sort) is a thin wrapper over sort::SortEngine
// and lives there; pulled in here so that including this header keeps
// providing it.
#include "sort/engine.hpp"
