// The merge pass: one merge over any list of groups of sorted lists in one
// source buffer, in exactly two launches however many groups there are —
// the flat form of Merge Path (Green et al.).
//
// Each group is cut into ⌈len/tile⌉ output tiles of u*E elements,
// described by host-built BatchTile descriptors {base, run, len, diag0,
// out}.  This header is the one place that decides how a pass is cut into
// tiles and the one place that enqueues a pass, for both arities: a 2-way
// group is a pair (A, B) (MergeConfig), a k-way group up to k runs
// (MultiwayConfig; multiway_pass.hpp holds its row search and cores).
// detail::enqueue_merge_pass reads from the config type the kernel names,
// tiles per partition warp, row width, merge-kernel shape and core.
//
// Stage 1, the partition kernel (merge_partition for a pair), resolves the
// co-rank row of every tile's start diagonal within its group; for a pair
// that is one lockstep binary search in global memory per tile — Thrust's
// hierarchical 2-stage identification of subsequences.  Stage 2, the merge
// kernel (merge_pass for a pair), processes one output tile per block:
//
//   read the tile's boundary rows and descriptor
//   load A-chunk and B-chunk into shared      (baseline: linear;
//                                              CF-Merge: rho(A ∪ pi(B)))
//   per-thread merge-path search in shared    (both variants)
//   per-thread merge of A_i and B_i           (baseline: sequential merge
//                                              from shared — bank conflicts;
//                                              CF-Merge: dual subsequence
//                                              gather + odd-even network in
//                                              registers — conflict free)
//   write the merged tile back                (store_merged_tile: stride-E
//                                              or rho register->shared,
//                                              then coalesced store)
//
// A tile's end co-rank is the next tile's start co-rank, except for the
// group's last tile, which ends at the list ends (BatchTile::ends_group)
// and so reads only its start row; both arities apply that rule.
//
// Ragged groups: a group's real length need not be a tile multiple, and no
// kernel reads or writes global memory past it (Thrust and CUB give a
// partial tile its valid-item count).  The partition search keeps the
// probe path of the group padded to a tile multiple, but a probe past the
// real end reads no memory and sees the sentinel (partition_search), so it
// reads no more than over a padded source.  The merge kernel keeps the
// windows, shared layout,
// splits and merge of the group padded with +inf to a tile multiple
// (padding sits at the tail of the group's last non-empty list), but each
// window loads only its real elements from global memory — a guarded load
// fills the rest in shared — and the store tail writes the tile's real
// ranks only.  Every
// 2-way entry point enqueues this pass: a merge_sort pass and a
// segmented_sort round merge the run pairs of their segments
// (add_run_group_tiles with k = 2; a lone run at the end is a pair with an
// empty B), and batched_merge is one pass over the caller's pairs.  The
// launch count does not grow with the group count, so the timing model's
// per-launch overhead is paid once per pass.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
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

  // What validate_config and the merge pass shell (detail::enqueue_merge_pass)
  // read of the config type; MultiwayConfig answers the same at arity k.
  static constexpr const char* kName = "MergeConfig";
  static constexpr const char* kPartitionKernel = "merge_partition";
  static constexpr const char* kMergeKernel = "merge_pass";

  [[nodiscard]] std::int64_t tile() const { return static_cast<std::int64_t>(u) * e; }
  /// Registers per thread of the tile kernels (block sort, merge pass).
  [[nodiscard]] int regs_per_thread() const {
    return variant == Variant::CFMerge ? cost::cfmerge_regs_per_thread(e)
                                       : cost::baseline_regs_per_thread(e);
  }
  /// True when the block sort runs its CF rounds (and their staging buffer).
  [[nodiscard]] bool cf_rounds() const { return variant == Variant::CFMerge && cf_blocksort; }
  /// Lists merged per group.
  [[nodiscard]] int arity() const { return 2; }
  /// Co-ranks per partition row: A's alone (B's is the diagonal minus it).
  [[nodiscard]] int row_width() const { return 1; }
  /// Tiles one partition warp resolves: one per lane.
  [[nodiscard]] int tiles_per_warp(int w) const { return w; }
  /// Shared elements per block of the merge kernel: one tile.
  [[nodiscard]] std::int64_t merge_shared_elems(int /*w*/) const { return tile(); }
  /// The arity constraint this config violates, if any (a pair always fits).
  [[nodiscard]] const char* arity_error() const { return nullptr; }
};

/// True if one block of `threads` threads using `shared_bytes` of shared
/// memory and `regs` registers per thread is resident on an SM of `dev`.
[[nodiscard]] inline bool block_fits(const gpusim::DeviceSpec& dev, int threads,
                                     std::size_t shared_bytes, int regs) {
  return gpusim::compute_occupancy(dev, threads, shared_bytes, regs).blocks_per_sm > 0;
}

/// Validates the invariants of a MergeConfig or MultiwayConfig shared by
/// every sort entry point, so the rejection messages stay uniform (each
/// names its config type).  `elem_bytes` is the size of the sorted element
/// type: every block the config launches — a tile kernel's u threads over
/// the larger of the block sort's shared tile (twice u*E with the CF
/// block-sort staging buffer) and the merge kernel's, and a partition
/// kernel's u threads — must fit on an SM, so a config that cannot run is
/// rejected before any kernel does.  Throws std::invalid_argument naming
/// the first violated constraint.
template <typename Cfg>
void validate_config(const gpusim::DeviceSpec& dev, const Cfg& cfg, std::size_t elem_bytes) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string(Cfg::kName) + ": " + what);
  };
  if (cfg.e <= 0) reject("E must be positive");
  if (cfg.u <= 0) reject("u must be positive");
  if (cfg.u % dev.warp_size != 0) reject("u must be a multiple of the warp size");
  if (const char* arity = cfg.arity_error()) reject(arity);
  const std::int64_t bsort_elems = cfg.tile() * (cfg.cf_rounds() ? 2 : 1);
  const auto shared_elems =
      static_cast<std::size_t>(std::max(bsort_elems, cfg.merge_shared_elems(dev.warp_size)));
  // A thread holds its E elements in registers, so an E beyond the SM's
  // register file never fits (checked first: the estimate would overflow).
  if (cfg.e > dev.registers_per_sm ||
      !block_fits(dev, cfg.u, shared_elems * elem_bytes, cfg.regs_per_thread()) ||
      !block_fits(dev, cfg.u, 0, cost::kPartitionRegsPerThread))
    reject("block does not fit on an SM");
}

/// validate_config for a MergeConfig.
inline void validate_merge_config(const gpusim::DeviceSpec& dev, const MergeConfig& cfg,
                                  std::size_t elem_bytes) {
  validate_config(dev, cfg, elem_bytes);
}

namespace detail {
/// Per-output-tile descriptor of a merge pass of any arity k, precomputed on
/// the host (in a real implementation this is a tiny device array built by
/// a setup kernel).  The tile belongs to a group of k sorted lists laid out
/// back to back in the source: list s starts at base + s·run, lists
/// 0…k−2 hold clamp(len − s·run, 0, run) elements and the last list holds
/// the rest.  A batched pair is run = |A|, len = |A|+|B|; a group of a pass
/// over sorted runs has run = the run length.  len is the group's real
/// length, except in a one-segment plan, which is built for a padded length
/// and clamps with the input length at run time (real()).
struct BatchTile {
  std::int64_t base = 0;   ///< source offset of the group's first list
  std::int64_t run = 0;    ///< list stride (and cap of every list but the last)
  std::int64_t len = 0;    ///< real elements of the group
  std::int64_t diag0 = 0;  ///< output diagonal of this tile within the group
  std::int64_t out = 0;    ///< destination offset of this tile

  [[nodiscard]] std::int64_t list_base(int s) const { return base + s * run; }
  [[nodiscard]] std::int64_t list_len(int s, int k) const {
    const std::int64_t rest = std::max<std::int64_t>(len - s * run, 0);
    return s + 1 < k ? std::min(rest, run) : rest;
  }
  /// True for the group's last tile, whose end co-ranks are the list ends
  /// (every other tile ends where the next tile of its group starts).
  [[nodiscard]] bool ends_group(std::int64_t tile) const { return diag0 + tile >= len; }
  /// This descriptor with len cut to the group's real elements, given the
  /// real length n of a one-segment source (TileFill::n; n < 0: len is
  /// already real).  Padding is less than one tile, so every tile keeps a
  /// real element and ends_group does not change.
  [[nodiscard]] BatchTile real(std::int64_t n) const {
    BatchTile t = *this;
    if (n >= 0) t.len = std::min(len, n - base);
    return t;
  }
  /// This descriptor with len rounded up to a tile multiple: the group as
  /// the merge kernel's windows see it, padded at its tail.
  [[nodiscard]] BatchTile padded(std::int64_t tile) const {
    BatchTile t = *this;
    t.len = (len + tile - 1) / tile * tile;
    return t;
  }
};

/// Bytes of a descriptor the partition kernels read: the leading base, run,
/// len and diag0 (`out` is read by the merge kernels only).
inline constexpr int kPartitionDescBytes = static_cast<int>(offsetof(BatchTile, out));

/// Appends the ⌈len/tile⌉ tile descriptors of one group whose output
/// starts at destination offset `out`.
inline void add_group_tiles(std::vector<BatchTile>& tiles, std::int64_t base, std::int64_t run,
                            std::int64_t len, std::int64_t out, std::int64_t tile) {
  for (std::int64_t d = 0; d < len; d += tile) tiles.push_back({base, run, len, d, out + d});
}

/// Appends the tiles of one k-way pass over the `len` elements at offset
/// `at`, sorted in runs of `run` (a tile multiple): group g merges runs
/// gk … gk + k − 1 into the same offsets of the destination; the last group
/// may hold fewer runs, or a lone one, and a ragged end.
inline void add_run_group_tiles(std::vector<BatchTile>& tiles, std::int64_t at,
                                std::int64_t len, std::int64_t run, int k, std::int64_t tile) {
  for (std::int64_t g = 0; g < len; g += k * run)
    add_group_tiles(tiles, at + g, run, std::min(k * run, len - g), at + g, tile);
}

/// Host-side layout of one batch shape: every pass's tile descriptors
/// (pass after pass) and each pair's or segment's staging offset, which is
/// also its output offset.
struct BatchLayout {
  std::vector<BatchTile> tiles;
  std::vector<std::int64_t> offsets;
  /// The block-sort tiles' real lengths (a sort or segmented plan).
  TileFill fill;

  /// Start of pair or segment `i` in a staging or output buffer.
  template <typename Vec>
  [[nodiscard]] auto at(Vec& buf, std::size_t i) const {
    return buf.begin() + static_cast<std::ptrdiff_t>(offsets[i]);
  }
};

}  // namespace detail

/// The 2-way row search of one partition warp: lane q resolves the A
/// co-rank of tiles[q]'s start diagonal within its pair (a two-list group)
/// into out[q] by one lockstep co-rank search over `global`; every round
/// charges kSearchIterInstrs, the A probe row (dependent) and the B probe
/// row.  Idle and finished lanes probe kInactiveLane, and so does a probe
/// at or past its list's length in real[q]: it reads the +inf sentinel
/// without touching memory.
template <typename T, typename Cmp>
void search_partition_rows(gpusim::BlockContext& ctx, int warp,
                           gpusim::GlobalView<const T>& global,
                           std::span<const detail::BatchTile> tiles,
                           std::span<const detail::BatchTile> real, const MergeConfig& /*cfg*/,
                           std::span<std::int64_t> out, Cmp cmp) {
  std::array<mergepath::LaneSearch, gpusim::kMaxLanes> lanes{};
  std::array<std::int64_t, gpusim::kMaxLanes> abase{};
  std::array<std::int64_t, gpusim::kMaxLanes> bbase{};
  std::array<std::int64_t, gpusim::kMaxLanes> areal{};
  std::array<std::int64_t, gpusim::kMaxLanes> breal{};
  std::array<std::int64_t, gpusim::kMaxLanes> pa;
  std::array<std::int64_t, gpusim::kMaxLanes> pb;
  for (std::size_t q = 0; q < tiles.size(); ++q) {
    lanes[q].init(tiles[q].diag0, tiles[q].list_len(0, 2), tiles[q].list_len(1, 2));
    abase[q] = tiles[q].base;
    bbase[q] = tiles[q].list_base(1);
    areal[q] = real[q].list_len(0, 2);
    breal[q] = real[q].list_len(1, 2);
  }
  const T top = padding_sentinel<T>::value();
  // A probe below the list's real length reads base + idx; one past it is
  // padding.  Done lanes probe kInactiveLane (negative), never padding.
  const auto at = [](std::int64_t base, std::int64_t idx, std::int64_t len) {
    return idx == gpusim::kInactiveLane || idx >= len ? gpusim::kInactiveLane : base + idx;
  };
  auto probe = [&](std::span<const std::int64_t> a_addr, std::span<T> a_val,
                   std::span<const std::int64_t> b_addr, std::span<T> b_val) {
    for (std::size_t l = 0; l < a_addr.size(); ++l) {
      pa[l] = at(abase[l], a_addr[l], areal[l]);
      pb[l] = at(bbase[l], b_addr[l], breal[l]);
      if (a_addr[l] >= areal[l]) a_val[l] = top;
      if (b_addr[l] >= breal[l]) b_val[l] = top;
    }
    ctx.charge_compute(warp, cost::kSearchIterInstrs);
    global.gather(warp, std::span<const std::int64_t>(pa.data(), a_val.size()), a_val,
                  /*dependent=*/true);
    global.gather(warp, std::span<const std::int64_t>(pb.data(), b_val.size()), b_val,
                  /*dependent=*/false);
  };
  mergepath::warp_corank_search<T>(
      std::span<mergepath::LaneSearch>(lanes.data(), static_cast<std::size_t>(ctx.lanes())),
      probe, cmp);
  for (std::size_t q = 0; q < tiles.size(); ++q) out[q] = lanes[q].lo;
}

/// The partition kernels' search, for both arities: row t of `out`
/// (cfg.row_width() co-ranks) receives the co-rank row of tiles[t]'s start
/// diagonal within its group.  Each warp resolves cfg.tiles_per_warp(w)
/// consecutive tiles: it first fetches the four leading fields of their
/// descriptors (lane q reads descriptor desc0 + t0 + q, one dependent
/// read), then runs the config's row search (search_partition_rows: the
/// co-rank search for a pair, multisequence selection for k lists).
///
/// The search runs over the group as the merge kernel's windows see it: a
/// sort pipeline (one that sets `fill`) searches each group padded to a
/// tile multiple, and a batched pass its pairs' lengths.  Probes past the
/// group's real length (BatchTile::real with fill.n) read no memory and see
/// the +inf sentinel, so the probe path and the co-ranks are those of a
/// source that held the padding, and the search reads no more.
template <typename T, typename Cfg, typename Cmp>
void partition_search(gpusim::BlockContext& ctx, gpusim::GlobalView<const T>& global,
                      std::span<const detail::BatchTile> tiles, std::int64_t desc0,
                      std::span<std::int64_t> out, const Cfg& cfg, Cmp cmp,
                      const TileFill& fill = {}) {
  const int w = ctx.lanes();
  const int per_warp = cfg.tiles_per_warp(w);
  const auto width = static_cast<std::size_t>(cfg.row_width());
  const auto count = static_cast<std::int64_t>(tiles.size());
  const bool padded = fill.n >= 0 || !fill.lens.empty();
  assert(w <= gpusim::kMaxLanes && out.size() == tiles.size() * width);
  std::array<std::int64_t, gpusim::kMaxLanes> desc;
  std::array<detail::BatchTile, gpusim::kMaxLanes> group;
  std::array<detail::BatchTile, gpusim::kMaxLanes> real;
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    const std::int64_t t0 =
        (static_cast<std::int64_t>(ctx.block_id()) * ctx.warps() + warp) * per_warp;
    if (t0 >= count) break;
    const auto queries = static_cast<std::size_t>(std::min<std::int64_t>(per_warp, count - t0));
    desc.fill(gpusim::kInactiveLane);
    for (std::size_t q = 0; q < queries; ++q) {
      desc[q] = (desc0 + t0 + static_cast<std::int64_t>(q)) *
                static_cast<std::int64_t>(sizeof(detail::BatchTile));
      const detail::BatchTile& bt = tiles[static_cast<std::size_t>(t0) + q];
      group[q] = padded ? bt.padded(cfg.tile()) : bt;
      real[q] = bt.real(fill.n);
    }
    ctx.charge_gmem(warp, std::span<const std::int64_t>(desc.data(), static_cast<std::size_t>(w)),
                    detail::kPartitionDescBytes, /*dependent=*/true);
    search_partition_rows<T>(ctx, warp, global,
                             std::span<const detail::BatchTile>(group.data(), queries),
                             std::span<const detail::BatchTile>(real.data(), queries), cfg,
                             out.subspan(static_cast<std::size_t>(t0) * width, queries * width),
                             cmp);
  }
}

/// Reads the boundary rows of this block's tile — its start row block_id
/// and, unless the tile ends its group, its end row block_id + 1 of
/// `boundaries`, `width` co-ranks each — on warp 0, w lanes per global
/// read: the merge kernels' cheap fetch of their partition results.
inline void read_boundary_rows(gpusim::BlockContext& ctx,
                               std::span<const std::int64_t> boundaries, int width,
                               bool ends_group) {
  const int w = ctx.lanes();
  assert(w <= gpusim::kMaxLanes);
  gpusim::GlobalView<const std::int64_t> bview(ctx, boundaries, 0);
  std::array<std::int64_t, gpusim::kMaxLanes> addr;
  std::array<std::int64_t, gpusim::kMaxLanes> vals;
  const std::int64_t first = static_cast<std::int64_t>(ctx.block_id()) * width;
  const std::int64_t count = (ends_group ? 1 : 2) * static_cast<std::int64_t>(width);
  for (std::int64_t c = 0; c < count; c += w) {
    for (int lane = 0; lane < w; ++lane) {
      const std::int64_t i = c + lane;
      addr[static_cast<std::size_t>(lane)] = i < count ? first + i : gpusim::kInactiveLane;
    }
    bview.gather(0, std::span<const std::int64_t>(addr.data(), static_cast<std::size_t>(w)),
                 std::span<std::int64_t>(vals.data(), static_cast<std::size_t>(w)));
  }
}

/// The merge kernels' store tail: thread i writes its E merged registers,
/// ranks iE … iE + E − 1 of the tile, to shared slots from `base` on —
/// through the tile's output shift rho when `through_rho` (the inverse dual
/// subsequence scatter of footnote 5), else stride E — at copy cadence,
/// with no per-thread setup; then the block stores ranks [0, count), the
/// tile's real elements, coalesced to `gout`.  The raw stride-E pattern is
/// only certified when gcd(w, E) = 1 (cf_stride).
template <typename T>
void store_merged_tile(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                       std::int64_t base, bool through_rho, const TileCerts& certs, int e,
                       std::span<const T> regs, gpusim::GlobalView<T>& gout,
                       std::int64_t count) {
  ctx.phase("merge.store");
  const int w = ctx.lanes();
  const std::int64_t tile = static_cast<std::int64_t>(ctx.threads()) * e;
  const gather::CircularShift out_shift(w, e, tile);
  if (!through_rho || out_shift.identity()) {
    // The write-back is the pure stride-E pattern, so the certified path
    // reduces to per-warp block copies.
    cfprims::exec_stride_scatter(ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge,
                                 through_rho ? certs.rank_scatter : certs.stride, regs, base);
    ctx.barrier();
    cfprims::exec_staged_copy(ctx, shmem, gout, count, certs.stage, cfprims::UnitStep{base},
                              cfprims::UnitStep{});
    return;
  }
  const auto out_pos = [&](std::int64_t t) { return base + out_shift(t); };
  cfprims::exec_crs_scatter(
      ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge, certs.rank_scatter,
      cfprims::same_warp,
      [&](int vw, int lane, int j) {
        return out_pos(static_cast<std::int64_t>(vw * w + lane) * e + j);
      },
      regs);
  ctx.barrier();
  cfprims::exec_staged_copy(ctx, shmem, gout, count, /*cert=*/nullptr, out_pos,
                            cfprims::UnitStep{});
}

/// The 2-way merge core, the block body of the merge_pass kernel: given a
/// block's A/B source windows (global element offsets seg_src, lengths
/// seg_len, Σ = tile, of which the first seg_real are real) and its output
/// window view, stages the lists into shared memory (CF layout when
/// configured; guarded loads fill each window past its real elements),
/// searches the per-thread splits, merges (sequential or gather + network)
/// and stores the merged tile's Σ seg_real real ranks.
template <typename T, typename GIn, typename Cmp>
void merge_window_core(gpusim::BlockContext& ctx, GIn& gin, gpusim::GlobalView<T>& gout,
                       std::span<const std::int64_t> seg_src,
                       std::span<const std::int64_t> seg_len,
                       std::span<const std::int64_t> seg_real, const MergeConfig& cfg, Cmp cmp) {
  const int w = ctx.lanes();
  const int e = cfg.e;
  const std::int64_t tile = cfg.tile();
  const std::int64_t a_src = seg_src[0];
  const std::int64_t b_src = seg_src[1];
  const std::int64_t la = seg_len[0];
  const std::int64_t lb = seg_len[1];

  const gather::PairLayout layout =
      cfg.variant == Variant::CFMerge
          ? (cfg.disable_rho ? gather::PairLayout::cf_no_rho(la, lb)
                             : gather::PairLayout::cf(la, lb, w, e))
          : gather::PairLayout::linear(la, lb);

  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(tile));
  const T top = padding_sentinel<T>::value();

  // Load the two chunks; CF-Merge applies the layout permutation here
  // ("each thread block reorders elements during the initial transfer from
  // global memory into shared memory" — Section 5).  When the layout's
  // shift is the identity (linear, coprime CF, or the no-rho ablation) both
  // position maps are unit-step runs (pi reverses B), covered by the
  // cf_stage proof.
  if (!layout.is_cf() || layout.rho().identity()) {
    cfprims::exec_guarded_load(ctx, gin, shmem, la, seg_real[0], top, cfg.certs.stage,
                               cfprims::UnitStep{a_src}, cfprims::UnitStep{layout.pos_a(0)});
    cfprims::exec_guarded_load(ctx, gin, shmem, lb, seg_real[1], top, cfg.certs.stage,
                               cfprims::UnitStep{b_src},
                               cfprims::UnitStep{layout.pos_b(0), layout.b_step()});
  } else {
    cfprims::exec_guarded_load(ctx, gin, shmem, la, seg_real[0], top, /*cert=*/nullptr,
                               cfprims::UnitStep{a_src},
                               [&](std::int64_t t) { return layout.pos_a(t); });
    cfprims::exec_guarded_load(ctx, gin, shmem, lb, seg_real[1], top, /*cert=*/nullptr,
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
    warp_network_sort(ctx, ctx.warps(), cfprims::same_warp, std::span<T>(regs),
                      padding_last<T>(cmp));
  } else {
    serial_merge_core<2>(
        ctx, shmem, 2, e,
        [&](int i, int s) { return split_window(splits[static_cast<std::size_t>(i)], s); },
        [&](int s, std::int64_t x) { return s == 0 ? layout.pos_a(x) : layout.pos_b(x); },
        kPairMergeCharge, std::span<T>(regs), cmp);
  }
  ctx.barrier();
  store_merged_tile<T>(ctx, shmem, /*base=*/0,
                       cfg.variant == Variant::CFMerge && cfg.cf_output_scatter &&
                           !cfg.disable_rho,
                       cfg.certs, e, std::span<const T>(regs), gout, seg_real[0] + seg_real[1]);
}

namespace detail {
/// Enqueues one merge pass of either arity into `graph`: merges the groups
/// described by tiles[t0, t0 + count) from `src` into `dst` with one
/// partition kernel (Cfg::kPartitionKernel: tile t0 + t's co-rank row into
/// row t of `boundaries`, cfg.row_width() co-ranks a row) and one merge
/// kernel (Cfg::kMergeKernel: block t merges tile t0 + t between rows t and
/// t + 1, or from row t to the list ends when the tile ends its group).  A
/// group's tiles must be consecutive and `boundaries` must hold count rows;
/// every pass of a pipeline reuses them from row 0.  Both kernels read
/// `fill.n` when the graph runs: a one-segment plan's descriptors hold
/// padded lengths and n is the real one (BatchTile::real); it is −1 when
/// the descriptors are real.  `warp_size` fixes the partition's rows per
/// block and the merge kernel's shared footprint.  Every buffer, and
/// `fill`, must stay alive (and un-moved) until the graph executed.
///
/// Lists s < k − 1 of a tile take their windows from its two rows (the
/// group's last tile ends at the list ends of the group padded to a tile
/// multiple).  The last list takes what those leave: it starts at
/// diag0 − Σ starts and holds tile − Σ lengths slots — B's window of a
/// pair, and the k-th co-rank of a k-way group.  Each window reads from
/// global memory only the elements below its list's real length; the
/// other slots are padding, filled in shared.
template <typename T, typename Cfg>
void enqueue_merge_pass(gpusim::KernelGraph& graph, const std::vector<T>& src,
                        std::vector<T>& dst, const std::vector<BatchTile>& tiles, int t0,
                        int count, std::vector<std::int64_t>& boundaries, const Cfg& cfg,
                        int warp_size, const TileFill& fill) {
  const auto width = static_cast<std::size_t>(cfg.row_width());
  assert(count > 0 && static_cast<std::size_t>(t0 + count) <= tiles.size() &&
         boundaries.size() >= static_cast<std::size_t>(count) * width);
  const std::int64_t rows_per_block =
      static_cast<std::int64_t>(cfg.u / warp_size) * cfg.tiles_per_warp(warp_size);
  const int pblocks = static_cast<int>((count + rows_per_block - 1) / rows_per_block);
  graph.enqueue(
      Cfg::kPartitionKernel,
      gpusim::LaunchShape{pblocks, cfg.u, 0, cost::kPartitionRegsPerThread},
      [&tiles, &src, &boundaries, &fill, cfg, t0, count, width](gpusim::BlockContext& ctx) {
        gpusim::GlobalView<const T> g(ctx, std::span<const T>(src), 0);
        ctx.phase("partition.search");
        partition_search<T>(
            ctx, g,
            std::span<const BatchTile>(tiles).subspan(static_cast<std::size_t>(t0),
                                                      static_cast<std::size_t>(count)),
            t0, std::span<std::int64_t>(boundaries).first(static_cast<std::size_t>(count) * width),
            cfg, std::less<T>{}, fill);
      });

  const std::int64_t tile = cfg.tile();
  const std::size_t mshared =
      static_cast<std::size_t>(cfg.merge_shared_elems(warp_size)) * sizeof(T);
  graph.enqueue(
      Cfg::kMergeKernel, gpusim::LaunchShape{count, cfg.u, mshared, cfg.regs_per_thread()},
      [&tiles, &src, &dst, &boundaries, &fill, cfg, t0, tile, width](gpusim::BlockContext& ctx) {
        const auto b = static_cast<std::size_t>(ctx.block_id());
        const BatchTile bt = tiles[static_cast<std::size_t>(t0) + b].real(fill.n);
        const bool ends_group = bt.ends_group(tile);
        ctx.phase("merge.load");
        read_boundary_rows(ctx, boundaries, static_cast<int>(width), ends_group);
        // The block's own descriptor, all five fields: it issues behind the
        // boundary rows' read.
        read_block_record(ctx, t0 + static_cast<std::int64_t>(b),
                          static_cast<int>(sizeof(BatchTile)));
        const int k = cfg.arity();
        // The windows of the group padded to a tile multiple.
        BatchTile padded = bt;
        padded.len = (bt.len + tile - 1) / tile * tile;
        std::array<std::int64_t, gpusim::kMaxLanes> seg_src{};
        std::array<std::int64_t, gpusim::kMaxLanes> seg_len{};
        std::array<std::int64_t, gpusim::kMaxLanes> seg_real{};
        std::int64_t starts = 0;
        std::int64_t lens = 0;
        for (int s = 0; s < k; ++s) {
          // Lists s < k − 1 take their windows from the rows; the last list
          // takes what those leave.
          const auto at = static_cast<std::size_t>(s);
          const bool last = s + 1 == k;
          assert(!last || (lens <= tile && bt.diag0 >= starts));
          const std::int64_t r0 = last ? bt.diag0 - starts : boundaries[b * width + at];
          const std::int64_t r1 = last         ? r0 + tile - lens
                                  : ends_group ? padded.list_len(s, k)
                                               : boundaries[(b + 1) * width + at];
          seg_src[at] = bt.list_base(s) + r0;
          seg_len[at] = r1 - r0;
          seg_real[at] = std::clamp<std::int64_t>(bt.list_len(s, k) - r0, 0, r1 - r0);
          starts += r0;
          lens += r1 - r0;
        }
        const auto lists = static_cast<std::size_t>(k);

        gpusim::GlobalView<const T> gin(ctx, std::span<const T>(src), 0);
        gpusim::GlobalView<T> gout(
            ctx,
            std::span<T>(dst).subspan(static_cast<std::size_t>(bt.out),
                                      static_cast<std::size_t>(tile)),
            bt.out);
        merge_window_core<T>(ctx, gin, gout, std::span<const std::int64_t>(seg_src.data(), lists),
                             std::span<const std::int64_t>(seg_len.data(), lists),
                             std::span<const std::int64_t>(seg_real.data(), lists), cfg,
                             std::less<T>{});
      });
}

}  // namespace detail

}  // namespace cfmerge::sort
