// The 2-way merge pass: one merge over any list of (A, B) pairs of sorted
// runs in one source buffer, in exactly two launches however many pairs
// there are — the flat form of Merge Path (Green et al.).
//
// Each pair is cut into ⌈(|A|+|B|)/tile⌉ output tiles of u*E elements,
// described by host-built BatchTile descriptors.  Stage 1, the
// merge_partition kernel, resolves the co-rank of every tile's start
// diagonal within its pair by one lockstep binary search in global memory
// per tile — Thrust's hierarchical 2-stage identification of
// subsequences.  Stage 2, the merge_pass kernel, processes one output tile
// per block:
//
//   load A-chunk and B-chunk into shared      (baseline: linear;
//                                              CF-Merge: rho(A ∪ pi(B)))
//   per-thread merge-path search in shared    (both variants)
//   per-thread merge of A_i and B_i           (baseline: sequential merge
//                                              from shared — bank conflicts;
//                                              CF-Merge: dual subsequence
//                                              gather + odd-even network in
//                                              registers — conflict free)
//   write the merged tile back                (stride-E register->shared,
//                                              then coalesced store)
//
// Every 2-way entry point enqueues this pass: a merge_sort pass and a
// segmented_sort round merge the run pairs of their segments (a lone run
// at the end is a pair with an empty B), and batched_merge is one pass over
// the caller's pairs.  The launch count does not grow with the pair count,
// so the timing model's per-launch overhead is paid once per pass.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/schedule.hpp"
#include "gpusim/kernel_graph.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "gpusim/occupancy.hpp"
#include "mergepath/merge_path.hpp"
#include "sort/block_sort.hpp"
#include "sort/certs.hpp"
#include "sort/kernels.hpp"

namespace cfmerge::sort {

enum class Variant {
  Baseline,  ///< unmodified Thrust-style merge (sequential shared merge)
  CFMerge,   ///< bank conflict free load-balanced dual subsequence gather
};

/// Tuning and ablation knobs of a sort/merge configuration.
struct MergeConfig {
  int e = 15;  ///< elements per thread (paper's E)
  int u = 512; ///< threads per block
  Variant variant = Variant::CFMerge;
  /// Ablation: keep pi but disable the circular shift rho (only meaningful
  /// when gcd(w, E) > 1 — the paper's Section 3.2 shows conflicts return).
  bool disable_rho = false;
  /// Write the merged output through rho when gcd(w, E) > 1, so the
  /// stride-E register->shared scatter stays conflict free (the inverse
  /// dual subsequence scatter of footnote 5).  Baseline never does this.
  bool cf_output_scatter = true;
  /// Extension (off by default, matching the paper): use the dual gather in
  /// the block-sort rounds whose run pairs span full warps.  Costs a second
  /// shared-memory staging buffer (occupancy); see block_sort.hpp.
  bool cf_blocksort = false;
  /// Conflict-freedom certificates for this (w, E), resolved by the engine
  /// (or any pipeline entry point) via resolve_tile_certs.  Null members —
  /// including the all-null default — force the lane-accurate path.
  TileCerts certs{};

  [[nodiscard]] std::int64_t tile() const { return static_cast<std::int64_t>(u) * e; }
  /// Registers per thread of the tile kernels (block sort, merge pass).
  [[nodiscard]] int regs_per_thread() const {
    return variant == Variant::CFMerge ? cost::cfmerge_regs_per_thread(e)
                                       : cost::baseline_regs_per_thread(e);
  }
};

/// True if one block of `threads` threads using `shared_bytes` of shared
/// memory and `regs` registers per thread is resident on an SM of `dev`.
[[nodiscard]] inline bool block_fits(const gpusim::DeviceSpec& dev, int threads,
                                     std::size_t shared_bytes, int regs) {
  return gpusim::compute_occupancy(dev, threads, shared_bytes, regs).blocks_per_sm > 0;
}

/// Validates the MergeConfig invariants shared by every sort entry point
/// (merge_sort, batched_merge, segmented_sort), so the rejection messages
/// stay uniform.  `elem_bytes` is the size of the sorted element type:
/// every block the config launches — a tile kernel's
/// u threads over u*E elements of shared memory (twice that with the CF
/// block-sort staging buffer) and a partition kernel's u threads — must fit
/// on an SM, so a config that cannot run is rejected before any kernel
/// does.  Throws std::invalid_argument naming the first violated constraint.
inline void validate_merge_config(const gpusim::DeviceSpec& dev, const MergeConfig& cfg,
                                  std::size_t elem_bytes) {
  if (cfg.e <= 0) throw std::invalid_argument("MergeConfig: E must be positive");
  if (cfg.u <= 0) throw std::invalid_argument("MergeConfig: u must be positive");
  if (cfg.u % dev.warp_size != 0)
    throw std::invalid_argument("MergeConfig: u must be a multiple of the warp size");
  const std::size_t staging = cfg.variant == Variant::CFMerge && cfg.cf_blocksort ? 2 : 1;
  const std::size_t tile_bytes = static_cast<std::size_t>(cfg.tile()) * elem_bytes * staging;
  // A thread holds its E elements in registers, so an E beyond the SM's
  // register file never fits (checked first: the estimate would overflow).
  if (cfg.e > dev.registers_per_sm ||
      !block_fits(dev, cfg.u, tile_bytes, cfg.regs_per_thread()) ||
      !block_fits(dev, cfg.u, 0, cost::kPartitionRegsPerThread))
    throw std::invalid_argument("MergeConfig: block does not fit on an SM");
}

namespace detail {
/// Per-output-tile descriptor of a merge pass, precomputed on the host (in
/// a real implementation this is a tiny device array built by a setup
/// kernel).
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

/// Appends the tiles of one pass over the `padded` elements (a tile
/// multiple) at offset `at`, sorted in runs of `run`: run pair p merges
/// runs 2p and 2p + 1 into the same offsets of the destination; a lone
/// last run is a pair with |B| = 0.
inline void add_run_pair_tiles(std::vector<BatchTile>& tiles, std::int64_t at,
                               std::int64_t padded, std::int64_t run, std::int64_t tile) {
  for (std::int64_t base = 0; base < padded; base += 2 * run) {
    const std::int64_t ra = std::min(run, padded - base);
    const std::int64_t rb = std::clamp<std::int64_t>(padded - base - run, 0, run);
    add_pair_tiles(tiles, at + base, ra, at + base + ra, rb, at + base, tile);
  }
}

/// Host-side layout of one batch shape: every pass's tile descriptors
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

}  // namespace detail

/// The merge_partition kernel's search: grid thread t < tiles.size()
/// resolves the co-rank of tiles[t]'s start diagonal within its pair and
/// writes it to out[t].  Each warp with a live lane first fetches its
/// lanes' descriptors (descriptor index desc0 + t, one dependent read),
/// then runs one lockstep co-rank search over `global`; every round charges
/// kSearchIterInstrs, the A probe row (dependent) and the B probe row.
/// Idle and finished lanes probe kInactiveLane.
template <typename T, typename Cmp>
void partition_search(gpusim::BlockContext& ctx, gpusim::GlobalView<const T>& global,
                      std::span<const detail::BatchTile> tiles, std::int64_t desc0,
                      std::span<std::int64_t> out, Cmp cmp) {
  const int w = ctx.lanes();
  const auto count = static_cast<std::int64_t>(tiles.size());
  assert(w <= gpusim::kMaxLanes && out.size() == tiles.size());
  std::array<mergepath::LaneSearch, gpusim::kMaxLanes> lanes;
  std::array<std::int64_t, gpusim::kMaxLanes> desc;
  std::array<std::int64_t, gpusim::kMaxLanes> abase;
  std::array<std::int64_t, gpusim::kMaxLanes> bbase;
  std::array<std::int64_t, gpusim::kMaxLanes> pa;
  std::array<std::int64_t, gpusim::kMaxLanes> pb;
  const auto at = [](std::int64_t base, std::int64_t idx) {
    return idx == gpusim::kInactiveLane ? gpusim::kInactiveLane : base + idx;
  };
  const std::int64_t first = static_cast<std::int64_t>(ctx.block_id()) * ctx.threads();
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    bool any = false;
    for (int lane = 0; lane < w; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      lanes[l] = mergepath::LaneSearch{};
      desc[l] = gpusim::kInactiveLane;
      abase[l] = 0;
      bbase[l] = 0;
      const std::int64_t t = first + warp * w + lane;
      if (t >= count) continue;
      const detail::BatchTile& bt = tiles[static_cast<std::size_t>(t)];
      lanes[l].init(bt.diag0, bt.ra, bt.rb);
      desc[l] = (desc0 + t) * static_cast<std::int64_t>(sizeof(detail::BatchTile));
      abase[l] = bt.a_base;
      bbase[l] = bt.b_base;
      any = true;
    }
    if (!any) continue;
    ctx.charge_gmem(warp, std::span<const std::int64_t>(desc.data(), static_cast<std::size_t>(w)),
                    8, /*dependent=*/true);
    auto probe = [&](std::span<const std::int64_t> a_addr, std::span<T> a_val,
                     std::span<const std::int64_t> b_addr, std::span<T> b_val) {
      for (std::size_t l = 0; l < a_addr.size(); ++l) {
        pa[l] = at(abase[l], a_addr[l]);
        pb[l] = at(bbase[l], b_addr[l]);
      }
      ctx.charge_compute(warp, cost::kSearchIterInstrs);
      global.gather(warp, std::span<const std::int64_t>(pa.data(), a_val.size()), a_val,
                    /*dependent=*/true);
      global.gather(warp, std::span<const std::int64_t>(pb.data(), b_val.size()), b_val,
                    /*dependent=*/false);
    };
    mergepath::warp_corank_search<T>(
        std::span<mergepath::LaneSearch>(lanes.data(), static_cast<std::size_t>(w)), probe,
        cmp);
    for (int lane = 0; lane < w; ++lane) {
      const std::int64_t t = first + warp * w + lane;
      if (t < count)
        out[static_cast<std::size_t>(t)] = lanes[static_cast<std::size_t>(lane)].lo;
    }
  }
}

/// Reads the two boundary rows of this block's tile — rows block_id and
/// block_id + 1 of `boundaries`, `width` co-ranks each — on warp 0, w lanes
/// per global read: the merge kernels' cheap fetch of their partition
/// results.
inline void read_boundary_rows(gpusim::BlockContext& ctx,
                               std::span<const std::int64_t> boundaries, int width) {
  const int w = ctx.lanes();
  assert(w <= gpusim::kMaxLanes);
  gpusim::GlobalView<const std::int64_t> bview(ctx, boundaries, 0);
  std::array<std::int64_t, gpusim::kMaxLanes> addr;
  std::array<std::int64_t, gpusim::kMaxLanes> vals;
  const std::int64_t first = static_cast<std::int64_t>(ctx.block_id()) * width;
  for (std::int64_t c = 0; c < 2 * width; c += w) {
    for (int lane = 0; lane < w; ++lane) {
      const std::int64_t i = c + lane;
      addr[static_cast<std::size_t>(lane)] = i < 2 * width ? first + i : gpusim::kInactiveLane;
    }
    bview.gather(0, std::span<const std::int64_t>(addr.data(), static_cast<std::size_t>(w)),
                 std::span<std::int64_t>(vals.data(), static_cast<std::size_t>(w)));
  }
}

/// The shared core of every merge-kernel variant: given a block's A/B
/// source windows (global element offsets a_src/b_src of sizes la/lb) and
/// its output window view, stages the lists into shared memory (CF layout
/// when configured), searches the per-thread splits, merges (sequential or
/// gather + network) and stores the merged tile: the block body of the
/// merge_pass kernel.
template <typename T, typename GIn, typename Cmp>
void merge_window_core(gpusim::BlockContext& ctx, GIn& gin, gpusim::GlobalView<T>& gout,
                       std::int64_t a_src, std::int64_t b_src, std::int64_t la,
                       std::int64_t lb, const MergeConfig& cfg, Cmp cmp) {
  const int u = ctx.threads();
  const int w = ctx.lanes();
  const int e = cfg.e;
  const std::int64_t tile = cfg.tile();

  const TileLayout layout =
      cfg.variant == Variant::CFMerge
          ? (cfg.disable_rho ? TileLayout::cf_no_rho(la, lb) : TileLayout::cf(la, lb, w, e))
          : TileLayout::linear(la, lb);

  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(tile));

  // Load the two chunks; CF-Merge applies the layout permutation here
  // ("each thread block reorders elements during the initial transfer from
  // global memory into shared memory" — Section 5).  When the layout's
  // shift is the identity (linear, coprime CF, or the no-rho ablation) both
  // position maps are unit-step runs (pi reverses B), covered by the
  // cf_stage proof.
  if (!layout.is_cf() || layout.rho().identity()) {
    cfprims::exec_staged_copy(ctx, gin, shmem, la, cfg.certs.stage,
                              cfprims::UnitStep{a_src}, cfprims::UnitStep{layout.pos_a(0)});
    cfprims::exec_staged_copy(ctx, gin, shmem, lb, cfg.certs.stage,
                              cfprims::UnitStep{b_src},
                              cfprims::UnitStep{layout.pos_b(0), layout.is_cf() ? -1 : 1});
  } else {
    cfprims::exec_staged_copy(ctx, gin, shmem, la, /*cert=*/nullptr,
                              cfprims::UnitStep{a_src},
                              [&](std::int64_t t) { return layout.pos_a(t); });
    cfprims::exec_staged_copy(ctx, gin, shmem, lb, /*cert=*/nullptr,
                              cfprims::UnitStep{b_src},
                              [&](std::int64_t t) { return layout.pos_b(t); });
  }
  ctx.barrier();

  // Per-thread merge-path search in shared memory.
  ctx.phase("merge.search");
  const std::vector<ThreadSplit> splits = pair_split_search(
      ctx, shmem, /*npairs=*/1, la, lb, ctx.warps(), cfprims::same_warp,
      [&](std::int64_t, std::int64_t x) { return layout.pos_a(x); },
      [&](std::int64_t, std::int64_t y) { return layout.pos_b(y); }, cmp);

  // Per-thread merge.
  ctx.phase("merge.merge");
  std::vector<T> regs(static_cast<std::size_t>(tile));
  if (cfg.variant == Variant::CFMerge && !cfg.disable_rho) {
    cf_merge_pair(ctx, shmem, /*base=*/0, la, lb, std::span<const ThreadSplit>(splits),
                  cfg.certs.gather, cfprims::same_warp, std::span<T>(regs), cmp);
  } else if (cfg.variant == Variant::CFMerge) {
    // Ablation path: emulate the schedule with rho = identity by reading
    // through the layout's raw indices directly.  When gcd(w, E) = 1 the
    // real rho is the identity too, so raw = phys and the cf_gather proof
    // still covers the access; otherwise (the broken ablation) conflicts
    // are real and the lane path must count them.
    const gather::RoundSchedule sched =
        pair_schedule(w, la, lb, std::span<const ThreadSplit>(splits));
    cfprims::exec_crs_gather(
        ctx, shmem, w, e, ctx.warps(), cfprims::kGatherCharge,
        cfg.certs.stride != nullptr ? cfg.certs.gather : nullptr, cfprims::same_warp,
        [&](int vw, int lane, int j) { return sched.read(vw * w + lane, j).raw; },
        std::span<T>(regs));
    warp_network_sort(ctx, ctx.warps(), cfprims::same_warp, std::span<T>(regs), cmp);
  } else {
    std::vector<MergeLaneDesc> descs(static_cast<std::size_t>(u));
    for (int i = 0; i < u; ++i) {
      const auto& s = splits[static_cast<std::size_t>(i)];
      descs[static_cast<std::size_t>(i)] = {s.a_off, s.a_size, s.b_off, s.b_size};
    }
    warp_serial_merge(ctx, shmem, std::span<const MergeLaneDesc>(descs), e,
                      [&](std::int64_t x) { return layout.pos_a(x); },
                      [&](std::int64_t y) { return layout.pos_b(y); }, std::span<T>(regs),
                      cmp);
  }
  ctx.barrier();

  // Write registers to shared (stride E), then store coalesced.
  ctx.phase("merge.store");
  const bool out_rho = cfg.variant == Variant::CFMerge && cfg.cf_output_scatter &&
                       !cfg.disable_rho;
  const gather::CircularShift out_shift(w, e, tile);
  auto out_pos = [&](std::int64_t t) { return out_rho ? out_shift(t) : t; };
  // The cf_rank_scatter primitive: stride-E register write-back through rho
  // (or raw for the baseline), copy cadence — no per-thread setup.  The raw
  // stride-E pattern is only certified when gcd(w, E) = 1 (cf_stride).
  if (!out_rho || out_shift.identity()) {
    // out_pos is the identity here, so the write-back is the pure stride-E
    // pattern and the certified path reduces to per-warp block copies.
    cfprims::exec_stride_scatter(ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge,
                                 out_rho ? cfg.certs.rank_scatter : cfg.certs.stride,
                                 std::span<const T>(regs));
  } else {
    cfprims::exec_crs_scatter(
        ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge, cfg.certs.rank_scatter,
        cfprims::same_warp,
        [&](int vw, int lane, int j) {
          return out_pos(static_cast<std::int64_t>(vw * w + lane) * e + j);
        },
        std::span<const T>(regs));
  }
  ctx.barrier();
  if (!out_rho || out_shift.identity()) {
    cfprims::exec_staged_copy(ctx, shmem, gout, tile, cfg.certs.stage, cfprims::UnitStep{},
                              cfprims::UnitStep{});
  } else {
    cfprims::exec_staged_copy(ctx, shmem, gout, tile, /*cert=*/nullptr, out_pos,
                              cfprims::UnitStep{});
  }
}

namespace detail {
/// Enqueues one merge pass into `graph`: merges the pairs described by
/// tiles[t0, t0 + count) from `src` into `dst` with one merge_partition
/// kernel (grid thread t resolves the co-rank of tile t0 + t's start
/// diagonal into boundaries[t]) and one merge_pass kernel (block t merges
/// tile t0 + t between boundary rows t and t + 1).  A pair's tiles must be
/// consecutive, and `boundaries` must hold count + 1 rows; every pass of a
/// pipeline reuses them from row 0.  Every buffer must stay alive (and
/// un-moved) until the graph executed.
template <typename T>
void enqueue_merge_pass(gpusim::KernelGraph& graph, const std::vector<T>& src,
                        std::vector<T>& dst, const std::vector<BatchTile>& tiles, int t0,
                        int count, std::vector<std::int64_t>& boundaries,
                        const MergeConfig& cfg) {
  assert(count > 0 && static_cast<std::size_t>(t0 + count) <= tiles.size() &&
         boundaries.size() > static_cast<std::size_t>(count));
  const int pblocks = (count + cfg.u - 1) / cfg.u;
  graph.enqueue(
      "merge_partition",
      gpusim::LaunchShape{pblocks, cfg.u, 0, cost::kPartitionRegsPerThread},
      [&tiles, &src, &boundaries, t0, count](gpusim::BlockContext& ctx) {
        gpusim::GlobalView<const T> g(ctx, std::span<const T>(src), 0);
        ctx.phase("partition.search");
        partition_search<T>(
            ctx, g,
            std::span<const BatchTile>(tiles).subspan(static_cast<std::size_t>(t0),
                                                      static_cast<std::size_t>(count)),
            t0, std::span<std::int64_t>(boundaries).first(static_cast<std::size_t>(count)),
            std::less<T>{});
      });

  const std::int64_t tile = cfg.tile();
  graph.enqueue(
      "merge_pass",
      gpusim::LaunchShape{count, cfg.u, static_cast<std::size_t>(tile) * sizeof(T),
                          cfg.regs_per_thread()},
      [&tiles, &src, &dst, &boundaries, cfg, t0, tile](gpusim::BlockContext& ctx) {
        const auto b = static_cast<std::size_t>(ctx.block_id());
        const BatchTile& bt = tiles[static_cast<std::size_t>(t0) + b];
        ctx.phase("merge.load");
        read_boundary_rows(ctx, boundaries, 1);
        // The pair's last tile ends at the pair's end (co-rank ra); any
        // other tile's end is the next tile's start, in the same pair.
        const std::int64_t a0 = boundaries[b];
        const std::int64_t a1 = bt.diag0 + tile >= bt.ra + bt.rb ? bt.ra : boundaries[b + 1];
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
