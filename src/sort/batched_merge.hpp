// Batched pairwise merge: merge many independent pairs of sorted arrays in
// two launches (cuDF/moderngpu-style vectorized API).
//
// The whole batch is one flat merge pass (sort/flat_merge.hpp): one
// batched_partition kernel over every output tile of every pair, then one
// batched_merge kernel with one block per tile — ⌈(|A|+|B|)/tile⌉ tiles
// per pair, so neither list of a pair is padded to the other's length.
// Pair p is staged as [A | B | sentinel pad to the next tile multiple of
// |A|+|B|] at one offset of the staging buffer, and its merged output lands
// at the same offset of the packed output; the last tile of a pair reads
// its B window on into the pad, whose +infinity sentinels merge behind
// every real element and are dropped on unpack.  A one-pair batch is the
// standalone merge of two sorted arrays — the primitive the paper studies.
//
// This header holds the report type and the pipeline enqueue
// (enqueue_batched_pipeline); the entry point is a thin wrapper over
// sort::SortEngine (engine.hpp, included at the bottom).  The engine keys
// batched plans by the full (|A|, |B|) shape list, so a repeated batch shape
// reuses its staging layout, tile descriptors, and both kernel nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/launcher.hpp"
#include "sort/flat_merge.hpp"
#include "sort/key_value.hpp"

namespace cfmerge::sort {

struct BatchedMergeReport {
  int pairs = 0;
  std::int64_t elements = 0;  ///< total merged elements across pairs
  double microseconds = 0.0;  ///< serial sum of all kernels
  /// Kernel-chain time: the two kernels run one after the other, so this
  /// always equals `microseconds`; kept for the JSON report schema.
  double makespan_microseconds = 0.0;
  int graph_levels = 0;  ///< 2 for a non-empty batch
  gpusim::Counters totals;
  gpusim::PhaseCounters phases;
  std::vector<gpusim::KernelReport> kernels;  ///< batched_partition, batched_merge

  [[nodiscard]] double throughput() const {
    return microseconds > 0 ? static_cast<double>(elements) / microseconds : 0.0;
  }
  [[nodiscard]] std::uint64_t merge_conflicts() const;
};

namespace detail {
/// Enqueues the batched pipeline for the pairs (as[i], bs[i]) into
/// `graph`: stages every pair as [A | B | pad] in `staging` (the sentinel
/// pads are written here, once), fills `layout`, sizes `packed` and
/// `boundaries`, and adds one flat merge pass — two kernels for the whole
/// batch.  The batch must hold at least one element.  Every buffer must
/// stay alive (and un-moved) until the graph executed.
template <typename T>
void enqueue_batched_pipeline(gpusim::KernelGraph& graph, const std::vector<std::vector<T>>& as,
                              const std::vector<std::vector<T>>& bs, std::vector<T>& staging,
                              std::vector<T>& packed, BatchLayout& layout,
                              std::vector<std::int64_t>& boundaries, const MergeConfig& cfg) {
  const std::int64_t tile = cfg.tile();
  std::int64_t total = 0;
  for (std::size_t p = 0; p < as.size(); ++p) {
    const auto na = static_cast<std::int64_t>(as[p].size());
    const auto nb = static_cast<std::int64_t>(bs[p].size());
    layout.offsets.push_back(total);
    add_pair_tiles(layout.tiles, total, na, total + na, nb, total, tile);
    total += (na + nb + tile - 1) / tile * tile;
  }
  staging.assign(static_cast<std::size_t>(total), padding_sentinel<T>::value());
  packed.resize(static_cast<std::size_t>(total));
  boundaries.assign(layout.tiles.size(), 0);
  enqueue_flat_merge_pass(graph, staging, packed, layout.tiles, 0,
                          static_cast<int>(layout.tiles.size()), boundaries, cfg);
}
}  // namespace detail

}  // namespace cfmerge::sort

// The entry point (batched_merge) is a thin wrapper over sort::SortEngine
// and lives there; pulled in here so that including this header keeps
// providing it.
#include "sort/engine.hpp"
