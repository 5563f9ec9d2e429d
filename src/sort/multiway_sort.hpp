// Full k-way multiway mergesort pipeline on the simulated GPU.
//
//   block sort  ->  ceil(log_k(n / tile)) k-way passes (partition + merge)
//
// Identical scaffolding to the pairwise pipeline (merge_sort.hpp) — padded
// input, graph-enqueued kernel chain, ping-pong buffers — but each global
// pass consumes k runs at once, so the global memory traffic shrinks by a
// factor of log2(k) while the in-shared work per tile grows by the same
// factor (the CFCascade runs log2(k) pairwise stages per tile).  The
// boundaries scratch is a flat (num_tiles+1) x k co-rank table per pass.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/launcher.hpp"
#include "sort/block_sort.hpp"
#include "sort/multiway_pass.hpp"

namespace cfmerge::sort::detail {

/// Enqueues the k-way sort pipeline for one padded buffer into `graph`
/// (the multiway counterpart of enqueue_sort_pipeline).  `warp_size` fixes
/// the CFCascade's static shared-memory capacity, which depends on w.
/// Returns the buffer holding the sorted result after execution.
template <typename T>
std::vector<T>* enqueue_multiway_pipeline(gpusim::KernelGraph& graph, std::vector<T>& buf,
                                          std::vector<T>& tmp,
                                          std::vector<std::int64_t>& boundaries,
                                          std::int64_t n_padded, const MultiwayConfig& cfg,
                                          int warp_size, int& passes) {
  const std::int64_t tile = cfg.tile();
  const int num_tiles = static_cast<int>(n_padded / tile);
  const int regs = cost::multiway_regs_per_thread(cfg.e, cfg.k);
  tmp.resize(static_cast<std::size_t>(n_padded));
  boundaries.assign((static_cast<std::size_t>(num_tiles) + 1) * static_cast<std::size_t>(cfg.k),
                    0);

  // --- stage 1: block sort (identical to the pairwise pipeline) -----------
  enqueue_block_sort(graph, buf, num_tiles, cfg.u, cfg.e, regs, cfg.cf_blocksort, cfg.certs);

  // --- stage 2: k-way merge passes -----------------------------------------
  const std::size_t mshared =
      static_cast<std::size_t>(cfg.merge_shared_elems(warp_size)) * sizeof(T);

  std::vector<T>* src = &buf;
  std::vector<T>* dst = &tmp;
  passes = 0;
  for (std::int64_t run = tile; run < n_padded; run *= cfg.k) {
    ++passes;
    const PassGeometryK geom{n_padded, run, cfg.k};

    // One lane per (boundary row, sequence): selections_per_warp rows a warp.
    const auto nb = static_cast<std::int64_t>(num_tiles) + 1;
    const std::int64_t rows_per_block =
        static_cast<std::int64_t>(cfg.u / warp_size) * selections_per_warp(warp_size, cfg.k);
    const int pblocks = static_cast<int>((nb + rows_per_block - 1) / rows_per_block);
    gpusim::LaunchShape pshape{pblocks, cfg.u, 0, cost::kPartitionRegsPerThread};
    graph.enqueue("multiway_partition", pshape,
                   [src, &boundaries, geom, tile](gpusim::BlockContext& ctx) {
                     multiway_partition_body<T>(ctx, std::span<const T>(*src), geom, tile,
                                                std::span<std::int64_t>(boundaries));
                   });

    gpusim::LaunchShape mshape{num_tiles, cfg.u, mshared, regs};
    graph.enqueue("multiway_merge", mshape,
                   [src, dst, &boundaries, geom, cfg](gpusim::BlockContext& ctx) {
                     multiway_tile_body<T>(ctx, std::span<const T>(*src), std::span<T>(*dst),
                                           geom, cfg,
                                           std::span<const std::int64_t>(boundaries));
                   });
    std::swap(src, dst);
  }
  return src;
}

}  // namespace cfmerge::sort::detail
