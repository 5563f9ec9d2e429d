// Segmented sort: many independent variable-length sorts in one kernel
// chain — the serving-shape workload (a request batch where every request
// brings its own array to sort).
//
// The segments are concatenated, each padded to a tile multiple with
// +infinity sentinels, and sorted by one pipeline whose launch count does
// not grow with the segment count:
//
//   one block_sort over every tile of every segment (block sort is
//   tile-local, so the kernel body is merge_sort's), then
//   one flat merge pass (sort/flat_merge.hpp) per round p over the run
//   pairs of every segment that still has more than one run of tile·2^p.
//
// A segment of P merge passes takes part in rounds 0..P-1 and is left in
// the ping-pong buffer its own pass parity put it in; an unpaired trailing
// run is a pair with |B| = 0, as in merge_sort.  The batch therefore
// launches 1 + 2·(max segment passes) kernels, one after another.
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
#include "sort/flat_merge.hpp"
#include "sort/key_value.hpp"

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

/// Merge passes of a sort of `n` elements: runs start at one tile and
/// double until one run covers the tile-padded input.
[[nodiscard]] inline int merge_pass_count(std::int64_t n, std::int64_t tile) {
  const std::int64_t n_padded = (n + tile - 1) / tile * tile;
  int passes = 0;
  for (std::int64_t run = tile; run < n_padded; run *= 2) ++passes;
  return passes;
}

namespace detail {

/// Enqueues the segmented pipeline for segments of the given lengths into
/// `graph`: sizes `buf` (all sentinels) and `tmp` to the concatenated
/// tile-padded segments, records each segment's offset in `layout`, adds
/// one block_sort over every tile and one flat merge pass per round, and
/// returns the round count via `passes`.  The caller loads segment s at
/// layout.offsets[s] of `buf` (keeping its sentinel tail) before running
/// the graph.  The segments must hold at least one element.  Every buffer
/// must stay alive (and un-moved) until the graph executed.
template <typename T>
void enqueue_segmented_pipeline(gpusim::KernelGraph& graph, const std::vector<std::int64_t>& lens,
                                std::vector<T>& buf, std::vector<T>& tmp, BatchLayout& layout,
                                std::vector<std::int64_t>& boundaries, const MergeConfig& cfg,
                                int& passes) {
  const std::int64_t tile = cfg.tile();
  std::int64_t total = 0;
  passes = 0;
  for (const std::int64_t n : lens) {
    layout.offsets.push_back(total);
    total += (n + tile - 1) / tile * tile;
    passes = std::max(passes, merge_pass_count(n, tile));
  }
  buf.assign(static_cast<std::size_t>(total), padding_sentinel<T>::value());
  tmp.resize(static_cast<std::size_t>(total));

  // Every round's tile descriptors, round after round.  In round p (runs of
  // tile·2^p) each segment that still has more than one run merges its run
  // pairs into the ping-pong partner buffer at the same offsets.
  std::vector<int> round_t0;
  std::int64_t run = tile;
  for (int p = 0; p < passes; ++p, run *= 2) {
    round_t0.push_back(static_cast<int>(layout.tiles.size()));
    for (std::size_t s = 0; s < lens.size(); ++s) {
      if (merge_pass_count(lens[s], tile) <= p) continue;
      const std::int64_t padded = (lens[s] + tile - 1) / tile * tile;
      for (std::int64_t base = 0; base < padded; base += 2 * run) {
        const std::int64_t at = layout.offsets[s] + base;
        const std::int64_t ra = std::min(run, padded - base);
        const std::int64_t rb = std::clamp<std::int64_t>(padded - base - run, 0, run);
        add_pair_tiles(layout.tiles, at, ra, at + ra, rb, at, tile);
      }
    }
  }
  round_t0.push_back(static_cast<int>(layout.tiles.size()));
  boundaries.assign(layout.tiles.size(), 0);

  enqueue_block_sort(graph, buf, static_cast<int>(total / tile), cfg.u, cfg.e,
                     cfg.regs_per_thread(),
                     cfg.variant == Variant::CFMerge && cfg.cf_blocksort, cfg.certs);
  std::vector<T>* src = &buf;
  std::vector<T>* dst = &tmp;
  for (std::size_t p = 0; p + 1 < round_t0.size(); ++p) {
    enqueue_flat_merge_pass(graph, *src, *dst, layout.tiles, round_t0[p],
                            round_t0[p + 1] - round_t0[p], boundaries, cfg);
    std::swap(src, dst);
  }
}

}  // namespace detail

}  // namespace cfmerge::sort

// The entry point (segmented_sort) is a thin wrapper over sort::SortEngine
// and lives there; pulled in here so that including this header keeps
// providing it.
#include "sort/engine.hpp"
