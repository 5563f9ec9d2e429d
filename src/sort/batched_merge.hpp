// Batched pairwise merge: merge many independent pairs of sorted arrays
// submitted as ONE kernel graph (cuDF/moderngpu-style vectorized API).
//
// Each pair is padded to full runs in a concatenated staging buffer and
// contributes two graph nodes — its partition kernel and its merge kernel,
// with one dependency edge between them.  Different pairs share no edges:
// their kernels are independent graph nodes that the executor overlaps
// (Launcher::run wavefronts), so the report carries both the serial kernel
// sum and the graph makespan.  The merge blocks look up their pair
// descriptor and run the same merge-window core as the sort's merge pass —
// so CF-Merge's zero-conflict guarantee carries over verbatim.  This is the
// natural library form of the paper's conclusion: the gather makes *any*
// parallel pair-of-arrays scan conflict free, including many scans at once.
//
// This header holds the report and layout types and the pipeline enqueue
// (enqueue_batched_pipeline); the entry point is a thin wrapper over
// sort::SortEngine (engine.hpp, included at the bottom).  The engine keys
// batched plans by the full (|A|, |B|) shape list, so a repeated batch shape
// reuses its staging layout, tile descriptors, and kernel nodes.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "mergepath/merge_path.hpp"
#include "sort/key_value.hpp"
#include "sort/merge_pass.hpp"

namespace cfmerge::sort {

struct BatchedMergeReport {
  int pairs = 0;
  std::int64_t elements = 0;  ///< total merged elements across pairs
  double microseconds = 0.0;  ///< serial sum of all kernels
  /// Graph makespan: pairs are independent subgraphs, so this is the
  /// longest single pair's partition + merge chain.
  double makespan_microseconds = 0.0;
  int graph_levels = 0;  ///< 2 for a non-empty batch
  gpusim::Counters totals;
  gpusim::PhaseCounters phases;
  std::vector<gpusim::KernelReport> kernels;  ///< enqueue order, 2 per pair

  [[nodiscard]] double throughput() const {
    return microseconds > 0 ? static_cast<double>(elements) / microseconds : 0.0;
  }
  [[nodiscard]] double overlap_speedup() const {
    return makespan_microseconds > 0 ? microseconds / makespan_microseconds : 1.0;
  }
  [[nodiscard]] std::uint64_t merge_conflicts() const;
};

namespace detail {
/// Per-output-tile descriptor, precomputed on the host (in a real
/// implementation this is a tiny device array built by a setup kernel).
struct BatchTile {
  std::int32_t pair = 0;
  std::int64_t a_base = 0;  ///< staging offset of the pair's (padded) A run
  std::int64_t b_base = 0;
  std::int64_t ra = 0;      ///< real |A| of the pair
  std::int64_t rb = 0;
  std::int64_t diag0 = 0;   ///< output diagonal of this tile within the pair
  std::int64_t out_base = 0;  ///< offset of this tile in the packed output
};

/// Host-side layout of one batch shape: the per-tile descriptors, each
/// pair's first tile, and each pair's real output length.
struct BatchLayout {
  std::vector<BatchTile> tiles;
  std::vector<int> pair_tile0;
  std::vector<std::int64_t> out_sizes;
  std::int64_t elements = 0;  ///< total real output elements of the shape

  /// Rebind: overwrite each run's real prefix in `staging`.  The sentinel
  /// pads between runs persist from build time (kernels never write staging).
  template <typename T>
  void load(const std::vector<std::vector<T>>& as, const std::vector<std::vector<T>>& bs,
            std::vector<T>& staging) const {
    for (std::size_t p = 0; p < as.size(); ++p) {
      const BatchTile& first = tiles[static_cast<std::size_t>(pair_tile0[p])];
      std::copy(as[p].begin(), as[p].end(),
                staging.begin() + static_cast<std::ptrdiff_t>(first.a_base));
      std::copy(bs[p].begin(), bs[p].end(),
                staging.begin() + static_cast<std::ptrdiff_t>(first.b_base));
    }
  }

  /// Unpack the packed output (dropping sentinel tails) into `outs`.
  template <typename T>
  void unpack(const std::vector<T>& packed, std::vector<std::vector<T>>& outs) const {
    for (std::size_t p = 0; p < out_sizes.size(); ++p) {
      const std::int64_t off = tiles[static_cast<std::size_t>(pair_tile0[p])].out_base;
      outs[p].assign(packed.begin() + static_cast<std::ptrdiff_t>(off),
                     packed.begin() + static_cast<std::ptrdiff_t>(off + out_sizes[p]));
    }
  }
};

/// Enqueues the batched pipeline for the pairs (as[i], bs[i]) into `graph`:
/// stages every pair as [A pad | B pad] in `staging` with both runs padded
/// to the same multiple of the tile (the sentinel pads are written here,
/// once), fills `layout`, sizes `packed` and `boundaries`, and adds two
/// nodes per pair — partition -> merge, no cross-pair edges.  Every buffer
/// must stay alive (and un-moved) until the graph executed.
template <typename T>
void enqueue_batched_pipeline(gpusim::KernelGraph& graph,
                              const std::vector<std::vector<T>>& as,
                              const std::vector<std::vector<T>>& bs, std::vector<T>& staging,
                              std::vector<T>& packed, BatchLayout& layout,
                              std::vector<std::int64_t>& boundaries, const MergeConfig& cfg) {
  const std::int64_t tile = cfg.tile();
  const T sentinel = padding_sentinel<T>::value();
  std::vector<BatchTile>& tiles = layout.tiles;

  // Stage every pair and precompute its per-tile descriptors.
  layout.pair_tile0.resize(as.size());
  layout.out_sizes.resize(as.size());
  std::int64_t packed_out = 0;
  for (std::size_t p = 0; p < as.size(); ++p) {
    layout.pair_tile0[p] = static_cast<int>(tiles.size());
    const auto na = static_cast<std::int64_t>(as[p].size());
    const auto nb = static_cast<std::int64_t>(bs[p].size());
    layout.out_sizes[p] = na + nb;
    layout.elements += na + nb;
    const std::int64_t run = std::max<std::int64_t>(
        {(na + tile - 1) / tile * tile, (nb + tile - 1) / tile * tile, tile});
    const std::int64_t a_base = static_cast<std::int64_t>(staging.size());
    staging.insert(staging.end(), as[p].begin(), as[p].end());
    staging.resize(static_cast<std::size_t>(a_base + run), sentinel);
    const std::int64_t b_base = static_cast<std::int64_t>(staging.size());
    staging.insert(staging.end(), bs[p].begin(), bs[p].end());
    staging.resize(static_cast<std::size_t>(b_base + run), sentinel);
    for (std::int64_t d = 0; d < 2 * run; d += tile) {
      tiles.push_back({static_cast<std::int32_t>(p), a_base, b_base, run, run, d,
                       packed_out + d});
    }
    packed_out += 2 * run;
  }
  packed.resize(static_cast<std::size_t>(packed_out));
  boundaries.assign(tiles.size(), 0);

  const int regs = cfg.regs_per_thread();
  for (std::size_t p = 0; p < as.size(); ++p) {
    const int t0 = layout.pair_tile0[p];
    const int tcount =
        (p + 1 < as.size() ? layout.pair_tile0[p + 1] : static_cast<int>(tiles.size())) - t0;

    // Stage 1: per-tile co-rank of this pair's tiles (each simulated thread
    // resolves one tile's start diagonal; the descriptor read is charged).
    const int pblocks = (tcount + cfg.u - 1) / cfg.u;
    const gpusim::NodeId partition = graph.add(
        "batched_partition",
        gpusim::LaunchShape{pblocks, cfg.u, 0, cost::kPartitionRegsPerThread},
        [&tiles, &staging, &boundaries, u = cfg.u, t0, tcount](gpusim::BlockContext& ctx) {
          ctx.phase("partition.search");
          const int w = ctx.lanes();
          assert(w <= gpusim::kMaxLanes);
          for (int warp = 0; warp < ctx.warps(); ++warp) {
            std::array<mergepath::LaneSearch, gpusim::kMaxLanes> lanes{};
            std::array<const BatchTile*, gpusim::kMaxLanes> desc{};
            bool any = false;
            std::array<std::int64_t, gpusim::kMaxLanes> daddr;
            daddr.fill(gpusim::kInactiveLane);
            for (int lane = 0; lane < w; ++lane) {
              const std::int64_t local =
                  static_cast<std::int64_t>(ctx.block_id()) * u + warp * w + lane;
              if (local >= tcount) continue;
              const std::int64_t t = t0 + local;
              const auto& bt = tiles[static_cast<std::size_t>(t)];
              desc[static_cast<std::size_t>(lane)] = &bt;
              daddr[static_cast<std::size_t>(lane)] =
                  t * static_cast<std::int64_t>(sizeof(BatchTile));
              lanes[static_cast<std::size_t>(lane)].init(bt.diag0, bt.ra, bt.rb);
              any = true;
            }
            if (!any) continue;
            ctx.charge_gmem(
                warp, std::span<const std::int64_t>(daddr.data(), static_cast<std::size_t>(w)),
                8, /*dependent=*/true);  // descriptor fetch
            std::array<std::int64_t, gpusim::kMaxLanes> pa;
            std::array<std::int64_t, gpusim::kMaxLanes> pb;
            gpusim::GlobalView<const T> g(ctx, std::span<const T>(staging), 0);
            auto probe = [&](std::span<const std::int64_t> a_addr, std::span<T> a_val,
                             std::span<const std::int64_t> b_addr, std::span<T> b_val) {
              for (int lane = 0; lane < w; ++lane) {
                const auto l = static_cast<std::size_t>(lane);
                pa[l] = a_addr[l] == gpusim::kInactiveLane || desc[l] == nullptr
                            ? gpusim::kInactiveLane
                            : desc[l]->a_base + a_addr[l];
                pb[l] = b_addr[l] == gpusim::kInactiveLane || desc[l] == nullptr
                            ? gpusim::kInactiveLane
                            : desc[l]->b_base + b_addr[l];
              }
              ctx.charge_compute(warp, cost::kSearchIterInstrs);
              std::array<T, gpusim::kMaxLanes> av{};
              std::array<T, gpusim::kMaxLanes> bv{};
              g.gather(warp, std::span<const std::int64_t>(pa.data(), a_val.size()),
                       std::span<T>(av.data(), a_val.size()), /*dependent=*/true);
              g.gather(warp, std::span<const std::int64_t>(pb.data(), b_val.size()),
                       std::span<T>(bv.data(), b_val.size()), /*dependent=*/false);
              std::copy(av.begin(), av.begin() + static_cast<std::ptrdiff_t>(w), a_val.begin());
              std::copy(bv.begin(), bv.begin() + static_cast<std::ptrdiff_t>(w), b_val.begin());
            };
            mergepath::warp_corank_search<T>(
                std::span<mergepath::LaneSearch>(lanes.data(), static_cast<std::size_t>(w)),
                probe, std::less<T>{});
            for (int lane = 0; lane < w; ++lane) {
              const std::int64_t local =
                  static_cast<std::int64_t>(ctx.block_id()) * u + warp * w + lane;
              if (local >= tcount) continue;
              boundaries[static_cast<std::size_t>(t0 + local)] =
                  lanes[static_cast<std::size_t>(lane)].lo;
            }
          }
        });

    // Stage 2: one merge block per output tile of this pair.
    graph.add(
        "batched_merge",
        gpusim::LaunchShape{tcount, cfg.u, static_cast<std::size_t>(tile) * sizeof(T), regs},
        [&tiles, &staging, &packed, &boundaries, cfg, t0, tcount,
         tile](gpusim::BlockContext& ctx) {
          const std::int64_t local = ctx.block_id();
          const auto t = static_cast<std::size_t>(t0 + local);
          const BatchTile& bt = tiles[t];
          ctx.phase("merge.load");
          {
            // Descriptor + both boundary co-ranks: one small global read.
            const auto w = static_cast<std::size_t>(ctx.lanes());
            assert(w <= static_cast<std::size_t>(gpusim::kMaxLanes));
            std::array<std::int64_t, gpusim::kMaxLanes> addr;
            addr.fill(gpusim::kInactiveLane);
            addr[0] = static_cast<std::int64_t>(t);
            gpusim::GlobalView<const std::int64_t> bv(
                ctx, std::span<const std::int64_t>(boundaries), 0);
            std::array<std::int64_t, gpusim::kMaxLanes> tmp;
            bv.gather(0, std::span<const std::int64_t>(addr.data(), w),
                      std::span<std::int64_t>(tmp.data(), w));
          }
          const std::int64_t a0 = boundaries[t];
          const bool last_tile_of_pair = local + 1 == tcount;
          const std::int64_t diag1 = bt.diag0 + tile;
          const std::int64_t a1 =
              last_tile_of_pair && diag1 >= bt.ra + bt.rb ? bt.ra : boundaries[t + 1];
          const std::int64_t b0 = bt.diag0 - a0;
          const std::int64_t la = a1 - a0;
          const std::int64_t lb = tile - la;

          gpusim::GlobalView<const T> gin(ctx, std::span<const T>(staging), 0);
          gpusim::GlobalView<T> gout(
              ctx,
              std::span<T>(packed).subspan(static_cast<std::size_t>(bt.out_base),
                                           static_cast<std::size_t>(tile)),
              bt.out_base);
          merge_window_core<T>(ctx, gin, gout, bt.a_base + a0, bt.b_base + b0, la, lb, cfg,
                               std::less<T>{});
        },
        {partition});
  }
}
}  // namespace detail

}  // namespace cfmerge::sort

// The entry point (batched_merge) is a thin wrapper over sort::SortEngine
// and lives there; pulled in here so that including this header keeps
// providing it.
#include "sort/engine.hpp"
