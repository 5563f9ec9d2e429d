// One global merge pass of the pairwise mergesort.
//
// Runs of length `run` are merged pairwise.  Stage 1 (partition kernel)
// computes, for every tile boundary of the pass output, the co-rank of the
// boundary inside its pair via binary search in global memory — Thrust's
// hierarchical 2-stage identification of subsequences.  Stage 2 (merge
// kernel) processes one output tile of u*E elements per block:
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
// A lone run at the end of a pass (odd run count) is handled by the same
// kernel with an empty B list.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/schedule.hpp"
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
/// (merge_sort, merge_arrays, batched_merge, segmented_sort), so the
/// rejection messages stay uniform.  `elem_bytes` is the size of the
/// sorted element type: every block the config launches — a tile kernel's
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

/// Geometry of one pass: which pair a global output position belongs to.
struct PassGeometry {
  std::int64_t n = 0;    ///< total elements (multiple of tile)
  std::int64_t run = 0;  ///< input run length (multiple of tile)

  /// Start of the pair containing output position `pos`.
  [[nodiscard]] std::int64_t pair_base(std::int64_t pos) const {
    return pos / (2 * run) * (2 * run);
  }
  /// Sizes of the A and B runs of the pair at `base` (B may be short or
  /// empty at the end of the array).
  [[nodiscard]] std::int64_t a_len(std::int64_t base) const {
    return std::min(run, n - base);
  }
  [[nodiscard]] std::int64_t b_len(std::int64_t base) const {
    return std::clamp<std::int64_t>(n - base - run, 0, run);
  }
};

/// Stage 1: partition kernel.  Computes co-ranks for every tile boundary.
/// `boundaries[t]` receives the co-rank (number of A-elements) of output
/// diagonal t*tile within its pair.  One simulated thread per boundary.
template <typename T, typename Cmp = std::less<T>>
void merge_partition_body(gpusim::BlockContext& ctx, std::span<const T> input,
                          const PassGeometry& geom, std::int64_t tile,
                          std::span<std::int64_t> boundaries, Cmp cmp = Cmp{}) {
  const int u = ctx.threads();
  const int w = ctx.lanes();
  const auto nb = static_cast<std::int64_t>(boundaries.size());
  gpusim::GlobalView<const T> global(ctx, input, 0);

  ctx.phase("partition.search");
  assert(w <= gpusim::kMaxLanes);
  std::array<mergepath::LaneSearch, gpusim::kMaxLanes> lanes;
  std::array<std::int64_t, gpusim::kMaxLanes> abase;
  std::array<std::int64_t, gpusim::kMaxLanes> bbase;
  std::array<std::int64_t, gpusim::kMaxLanes> pa;
  std::array<std::int64_t, gpusim::kMaxLanes> pb;
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    bool any = false;
    for (int lane = 0; lane < w; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      lanes[l] = mergepath::LaneSearch{};
      abase[l] = 0;
      bbase[l] = 0;
      const std::int64_t t =
          static_cast<std::int64_t>(ctx.block_id()) * u + warp * w + lane;
      if (t >= nb) continue;
      const std::int64_t pos = t * tile;
      const std::int64_t base = pos >= geom.n ? geom.n : geom.pair_base(pos);
      const std::int64_t diag = pos - base;
      const std::int64_t la = geom.a_len(base);
      const std::int64_t lb = geom.b_len(base);
      lanes[l].init(std::min(diag, la + lb), la, lb);
      abase[l] = base;
      bbase[l] = base + la;
      any = true;
    }
    if (!any) continue;
    auto probe = [&](std::span<const std::int64_t> a_addr, std::span<T> a_val,
                     std::span<const std::int64_t> b_addr, std::span<T> b_val) {
      for (int lane = 0; lane < w; ++lane) {
        const auto l = static_cast<std::size_t>(lane);
        pa[l] = a_addr[l] == gpusim::kInactiveLane ? gpusim::kInactiveLane
                                                   : abase[l] + a_addr[l];
        pb[l] = b_addr[l] == gpusim::kInactiveLane ? gpusim::kInactiveLane
                                                   : bbase[l] + b_addr[l];
      }
      ctx.charge_compute(warp, cost::kSearchIterInstrs);
      global.gather(warp, std::span<const std::int64_t>(pa.data(), a_val.size()), a_val,
                    /*dependent=*/true);
      global.gather(warp, std::span<const std::int64_t>(pb.data(), b_val.size()), b_val,
                    /*dependent=*/false);
    };
    mergepath::warp_corank_search<T>(
        std::span<mergepath::LaneSearch>(lanes.data(), static_cast<std::size_t>(w)),
        probe, cmp);
    for (int lane = 0; lane < w; ++lane) {
      const std::int64_t t =
          static_cast<std::int64_t>(ctx.block_id()) * u + warp * w + lane;
      if (t >= nb) continue;
      boundaries[static_cast<std::size_t>(t)] = lanes[static_cast<std::size_t>(lane)].lo;
    }
  }
}

/// The shared core of every merge-kernel variant: given a block's A/B
/// source windows (global element offsets a_src/b_src of sizes la/lb) and
/// its output window view, stages the lists into shared memory (CF layout
/// when configured), searches the per-thread splits, merges (sequential or
/// gather + network) and stores the merged tile.  Reused by the sort's
/// merge pass, merge_arrays and batched_merge.
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
  std::vector<ThreadSplit> splits(static_cast<std::size_t>(u));
  {
    const auto pos_a = [&](int, std::int64_t x) { return layout.pos_a(x); };
    const auto pos_b = [&](int, std::int64_t y) { return layout.pos_b(y); };
    std::array<LanePair, gpusim::kMaxLanes + 1> pairs;
    for (int warp = 0; warp < ctx.warps(); ++warp) {
      for (int lane = 0; lane <= w; ++lane)
        pairs[static_cast<std::size_t>(lane)] = {
            la, lb, static_cast<std::int64_t>(warp * w + lane) * e};
      warp_split_search(ctx, warp, shmem,
                        std::span<const LanePair>(pairs.data(), static_cast<std::size_t>(w) + 1),
                        pos_a, pos_b, cmp,
                        std::span<ThreadSplit>(splits).subspan(
                            static_cast<std::size_t>(warp * w), static_cast<std::size_t>(w)));
    }
  }

  // Per-thread merge.
  ctx.phase("merge.merge");
  std::vector<T> regs(static_cast<std::size_t>(tile));
  if (cfg.variant == Variant::CFMerge) {
    std::vector<std::int64_t> a_off(static_cast<std::size_t>(u));
    std::vector<std::int64_t> a_size(static_cast<std::size_t>(u));
    for (int i = 0; i < u; ++i) {
      a_off[static_cast<std::size_t>(i)] = splits[static_cast<std::size_t>(i)].a_off;
      a_size[static_cast<std::size_t>(i)] = splits[static_cast<std::size_t>(i)].a_size;
    }
    gather::GatherShape shape{w, e, u, la, lb};
    if (cfg.disable_rho) {
      // Ablation path: emulate the schedule with rho = identity by reading
      // through the layout's raw indices directly.  When gcd(w, E) = 1 the
      // real rho is the identity too, so raw = phys and the cf_gather proof
      // still covers the access; otherwise (the broken ablation) conflicts
      // are real and the lane path must count them.
      gather::RoundSchedule sched(shape, a_off, a_size);
      cfprims::exec_crs_gather(
          ctx, shmem, w, e, ctx.warps(), cfprims::kGatherCharge,
          cfg.certs.stride != nullptr ? cfg.certs.gather : nullptr,
          [](int vw) { return vw; },
          [&](int vw, int lane, int j) {
            return sched.read(vw * w + lane, j).raw;  // no rho applied
          },
          [&](int vw, int lane, int j, const T& v) {
            regs[static_cast<std::size_t>(vw * w + lane) * static_cast<std::size_t>(e) +
                 static_cast<std::size_t>(j)] = v;
          });
    } else {
      gather::RoundSchedule sched(shape, std::move(a_off), std::move(a_size));
      cfprims::exec_cf_gather(ctx, shmem, sched, /*base=*/0, cfg.certs.gather,
                              [](int vw) { return vw; }, std::span<T>(regs));
    }
    // Data-oblivious register merge.
    for (int warp = 0; warp < ctx.warps(); ++warp) {
      for (int lane = 0; lane < w; ++lane) {
        std::span<T> r(regs.data() + static_cast<std::size_t>(warp * w + lane) *
                                         static_cast<std::size_t>(e),
                       static_cast<std::size_t>(e));
        network_sort_result(r, cmp);
      }
      ctx.charge_compute(warp, static_cast<std::uint64_t>(odd_even_network_size(e)) *
                                   cost::kCompareExchangeInstrs);
    }
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
        [](int vw) { return vw; },
        [&](int vw, int lane, int j) {
          return out_pos(static_cast<std::int64_t>(vw * w + lane) * e + j);
        },
        [&](int vw, int lane, int j) {
          return regs[static_cast<std::size_t>(vw * w + lane) * static_cast<std::size_t>(e) +
                      static_cast<std::size_t>(j)];
        });
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

/// Stage 2: merge kernel body for one output tile.
template <typename T, typename Cmp = std::less<T>>
void merge_tile_body(gpusim::BlockContext& ctx, std::span<const T> input,
                     std::span<T> output, const PassGeometry& geom, const MergeConfig& cfg,
                     std::span<const std::int64_t> boundaries, Cmp cmp = Cmp{}) {
  const int w = ctx.lanes();
  const std::int64_t tile = cfg.tile();
  const std::int64_t out0 = static_cast<std::int64_t>(ctx.block_id()) * tile;
  const std::int64_t base = geom.pair_base(out0);
  const std::int64_t ra = geom.a_len(base);
  const std::int64_t rb = geom.b_len(base);

  // Block subsequence bounds from the partition kernel (a cheap global
  // read; one element per block boundary).
  ctx.phase("merge.load");
  {
    std::array<std::int64_t, gpusim::kMaxLanes> addr;
    addr.fill(gpusim::kInactiveLane);
    addr[0] = static_cast<std::int64_t>(ctx.block_id());
    addr[static_cast<std::size_t>(1 % w)] = static_cast<std::int64_t>(ctx.block_id()) + 1;
    std::array<std::int64_t, gpusim::kMaxLanes> vals;
    gpusim::GlobalView<const std::int64_t> bview(ctx, boundaries, 0);
    bview.gather(0,
                 std::span<const std::int64_t>(addr.data(), static_cast<std::size_t>(w)),
                 std::span<std::int64_t>(vals.data(), static_cast<std::size_t>(w)));
  }
  const std::int64_t diag0 = out0 - base;
  const std::int64_t diag1 = diag0 + tile;
  const std::int64_t a0 = boundaries[static_cast<std::size_t>(ctx.block_id())];
  // The co-rank of a boundary that coincides with the *end* of this pair was
  // computed relative to the next pair (as diagonal 0); the end co-rank of
  // this pair is simply ra.
  const std::int64_t a1 = diag1 >= ra + rb
                              ? ra
                              : boundaries[static_cast<std::size_t>(ctx.block_id()) + 1];
  const std::int64_t b0 = diag0 - a0;
  const std::int64_t b1 = diag1 - a1;
  const std::int64_t la = a1 - a0;
  const std::int64_t lb = b1 - b0;

  gpusim::GlobalView<const T> gin(ctx, input, 0);
  gpusim::GlobalView<T> gout(ctx, output.subspan(static_cast<std::size_t>(out0),
                                                 static_cast<std::size_t>(tile)),
                             out0);
  merge_window_core<T>(ctx, gin, gout, base + a0, base + ra + b0, la, lb, cfg, cmp);
}


}  // namespace cfmerge::sort
