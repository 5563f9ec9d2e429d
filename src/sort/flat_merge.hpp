// The flat merge pass: one merge over many independent pairs of sorted
// lists, in exactly two launches however many pairs there are.
//
// The pass takes a list of (A range, B range) pairs in one source buffer
// and writes each pair's merged output to its own range of a destination
// buffer.  Each pair is cut into ⌈(|A|+|B|)/tile⌉ output tiles (BatchTile
// descriptors, built on the host).  batched_partition resolves the start
// co-rank of every tile of every pair — one lockstep co-rank search per
// tile, as the sort's merge_partition does per tile of a pass — and
// batched_merge runs one block per tile through the same merge-window core
// as the sort's merge pass, so CF-Merge's zero-conflict guarantee carries
// over verbatim.  This is the flat form of Merge Path (Green et al.): the
// launch count does not grow with the pair count, so the timing model's
// per-launch overhead is paid once per pass, not once per pair.
//
// sort::batched_merge is one flat pass; sort::segmented_sort runs one
// flat pass per merge round over the run pairs of every segment.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gpusim/kernel_graph.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/merge_pass.hpp"

namespace cfmerge::sort {

namespace detail {
/// Per-output-tile descriptor of a flat merge pass, precomputed on the
/// host (in a real implementation this is a tiny device array built by a
/// setup kernel).
struct BatchTile {
  std::int64_t a_base = 0;    ///< source offset of the pair's A list
  std::int64_t b_base = 0;    ///< source offset of the pair's B list
  std::int64_t ra = 0;        ///< real |A| of the pair
  std::int64_t rb = 0;        ///< real |B| of the pair
  std::int64_t diag0 = 0;     ///< output diagonal of this tile within the pair
  std::int64_t out_base = 0;  ///< destination offset of this tile
};

/// Appends the ⌈(ra + rb)/tile⌉ tile descriptors of one pair whose output
/// starts at destination offset `out`.  The last tile's B window runs
/// past B's end up to the tile boundary, so the source must hold sentinels
/// there whenever ra + rb is not a tile multiple.
inline void add_pair_tiles(std::vector<BatchTile>& tiles, std::int64_t a_base,
                           std::int64_t ra, std::int64_t b_base, std::int64_t rb,
                           std::int64_t out, std::int64_t tile) {
  for (std::int64_t d = 0; d < ra + rb; d += tile)
    tiles.push_back({a_base, b_base, ra, rb, d, out + d});
}

/// Host-side layout of one batch shape: every flat pass's tile descriptors
/// (pass after pass) and each pair's or segment's staging offset, which is
/// also its output offset.
struct BatchLayout {
  std::vector<BatchTile> tiles;
  std::vector<std::int64_t> offsets;

  /// Start of pair or segment `i` in a staging or output buffer.
  template <typename Vec>
  [[nodiscard]] auto at(Vec& buf, std::size_t i) const {
    return buf.begin() + static_cast<std::ptrdiff_t>(offsets[i]);
  }
};

/// Enqueues one flat merge pass onto `stream`: merges the pairs described
/// by tiles[t0, t0 + count) from `src` into `dst` with one batched_partition
/// kernel (grid thread t resolves the co-rank of tile t0 + t's start
/// diagonal into boundaries[t0 + t]) and one batched_merge kernel (block t
/// merges tile t0 + t).  A pair's tiles must be consecutive.  Every buffer
/// must stay alive (and un-moved) until the graph executed.
template <typename T>
void enqueue_flat_merge_pass(gpusim::Stream& stream, const std::vector<T>& src,
                             std::vector<T>& dst, const std::vector<BatchTile>& tiles,
                             int t0, int count, std::vector<std::int64_t>& boundaries,
                             const MergeConfig& cfg) {
  assert(count > 0 && static_cast<std::size_t>(t0 + count) <= tiles.size() &&
         boundaries.size() >= tiles.size());
  const int pblocks = (count + cfg.u - 1) / cfg.u;
  stream.enqueue(
      "batched_partition",
      gpusim::LaunchShape{pblocks, cfg.u, 0, cost::kPartitionRegsPerThread},
      [&tiles, &src, &boundaries, t0, count](gpusim::BlockContext& ctx) {
        const int w = ctx.lanes();
        const std::int64_t first = static_cast<std::int64_t>(ctx.block_id()) * ctx.threads();
        gpusim::GlobalView<const T> g(ctx, std::span<const T>(src), 0);
        ctx.phase("partition.search");
        const auto task_of = [&](std::int64_t local) {
          const BatchTile& bt = tiles[static_cast<std::size_t>(t0 + local)];
          return CoRankTask{bt.diag0, bt.ra, bt.rb, bt.a_base, bt.b_base};
        };
        // The descriptor fetch of the warp's live lanes.
        const auto fetch = [&](int warp) {
          std::array<std::int64_t, gpusim::kMaxLanes> daddr;
          for (int lane = 0; lane < w; ++lane) {
            const std::int64_t local = first + warp * w + lane;
            daddr[static_cast<std::size_t>(lane)] =
                local < count ? (t0 + local) * static_cast<std::int64_t>(sizeof(BatchTile))
                              : gpusim::kInactiveLane;
          }
          ctx.charge_gmem(
              warp, std::span<const std::int64_t>(daddr.data(), static_cast<std::size_t>(w)),
              8, /*dependent=*/true);
        };
        partition_search<T>(ctx, g, task_of, fetch,
                            std::span<std::int64_t>(boundaries)
                                .subspan(static_cast<std::size_t>(t0),
                                         static_cast<std::size_t>(count)),
                            std::less<T>{});
      });

  const std::int64_t tile = cfg.tile();
  stream.enqueue(
      "batched_merge",
      gpusim::LaunchShape{count, cfg.u, static_cast<std::size_t>(tile) * sizeof(T),
                          cfg.regs_per_thread()},
      [&tiles, &src, &dst, &boundaries, cfg, t0, tile](gpusim::BlockContext& ctx) {
        const auto t = static_cast<std::size_t>(t0 + ctx.block_id());
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
        // The pair's last tile ends at the pair's end (co-rank ra); any
        // other tile's end is the next tile's start, in the same pair.
        const std::int64_t a0 = boundaries[t];
        const std::int64_t a1 = bt.diag0 + tile >= bt.ra + bt.rb ? bt.ra : boundaries[t + 1];
        const std::int64_t b0 = bt.diag0 - a0;
        const std::int64_t la = a1 - a0;
        const std::int64_t lb = tile - la;
        assert(la >= 0 && la <= tile && b0 >= 0);

        gpusim::GlobalView<const T> gin(ctx, std::span<const T>(src), 0);
        gpusim::GlobalView<T> gout(
            ctx,
            std::span<T>(dst).subspan(static_cast<std::size_t>(bt.out_base),
                                      static_cast<std::size_t>(tile)),
            bt.out_base);
        merge_window_core<T>(ctx, gin, gout, bt.a_base + a0, bt.b_base + b0, la, lb, cfg,
                             std::less<T>{});
      });
}

}  // namespace detail

}  // namespace cfmerge::sort
