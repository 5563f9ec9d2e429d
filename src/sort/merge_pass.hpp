// The merge pass: one merge over any list of groups of sorted lists in one
// source buffer, in exactly two launches however many groups there are —
// the flat form of Merge Path (Green et al.).
//
// Each group is cut into ⌈len/tile⌉ output tiles of u*E elements,
// described by host-built BatchTile descriptors {base, run, len, diag0,
// out}.  This header is the one place that decides how a pass is cut into
// tiles and the one place that enqueues a pass, for both arities: a 2-way
// group is a pair (A, B) (MergeConfig), a k-way group up to k runs
// (MultiwayConfig; multiway_pass.hpp holds its config and row search).
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
//   per-thread merge-path search in shared    (baseline: Thrust's search
//                                              — bank conflicts; CF-Merge:
//                                              the lattice search —
//                                              conflict free)
//   per-thread merge of A_i and B_i           (baseline: sequential merge
//                                              from shared — bank conflicts;
//                                              CF-Merge: dual subsequence
//                                              gather + odd-even network in
//                                              registers — conflict free)
//   write the merged tile back                (store_merged_tile: stride-E
//                                              or rho register->shared,
//                                              then coalesced store)
//
// The merge kernel has two tile bodies, one per schedule, each at any k:
// CF-Merge's window (and its no-rho ablation) is the CF cascade at k = 2
// (cf_cascade_core), the baseline's the sequential tile merge at k = 2
// (serial_window_core); the multiway_merge kernel runs the same two at its
// k (CFCascade, LoserTree).
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
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/multiway_schedule.hpp"
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
  /// Extension (off by default, matching the paper): run the block-sort
  /// rounds whose run pairs span full warps as CF cascade levels.  Costs
  /// one in-place re-layout per tile and a rank scatter per level; see
  /// block_sort.hpp.
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
  /// True when the block sort runs its CF rounds.
  [[nodiscard]] bool cf_rounds() const { return variant == Variant::CFMerge && cf_blocksort; }
  /// Lists merged per group.
  [[nodiscard]] int arity() const { return 2; }
  /// Co-ranks per partition row: A's alone (B's is the diagonal minus it).
  [[nodiscard]] int row_width() const { return 1; }
  /// Tiles one partition warp resolves: one per lane.
  [[nodiscard]] int tiles_per_warp(int w) const { return w; }
  /// Shared elements per block of the merge kernel: one tile.
  [[nodiscard]] std::int64_t merge_shared_elems(int /*w*/) const { return tile(); }
  /// Registers per thread of the merge kernel: the tile kernels' count.
  [[nodiscard]] int merge_regs_per_thread(int /*w*/) const { return regs_per_thread(); }
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
/// type: every block the config launches — the merge kernel's u threads,
/// whose shared buffer and registers are at least the block sort's one
/// tile and register count, and a partition kernel's u threads — must fit
/// on an SM, so a config that cannot run is rejected before any kernel
/// does.  A pipeline that starts with the block sort (`block_sort`: every
/// sort entry point, not batched_merge) also needs u to be a power of two,
/// since its rounds halve the tile.  Throws std::invalid_argument naming
/// the first violated constraint.
template <typename Cfg>
void validate_config(const gpusim::DeviceSpec& dev, const Cfg& cfg, std::size_t elem_bytes,
                     bool block_sort) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string(Cfg::kName) + ": " + what);
  };
  if (cfg.e <= 0) reject("E must be positive");
  if (cfg.u <= 0) reject("u must be positive");
  if (cfg.u % dev.warp_size != 0) reject("u must be a multiple of the warp size");
  if (const char* arity = cfg.arity_error()) reject(arity);
  const auto shared_elems = static_cast<std::size_t>(cfg.merge_shared_elems(dev.warp_size));
  // A thread holds its E elements in registers, so an E beyond the SM's
  // register file never fits (checked first: the estimate would overflow).
  if (cfg.e > dev.registers_per_sm ||
      !block_fits(dev, cfg.u, shared_elems * elem_bytes,
                  cfg.merge_regs_per_thread(dev.warp_size)) ||
      !block_fits(dev, cfg.u, 0, cost::kPartitionRegsPerThread))
    reject("block does not fit on an SM");
  if (block_sort && !std::has_single_bit(static_cast<unsigned>(cfg.u)))
    reject("u must be a power of two");
}

/// validate_config for a MergeConfig: of a sort pipeline unless
/// `block_sort` is false (batched_merge takes any multiple of the warp
/// size).
inline void validate_merge_config(const gpusim::DeviceSpec& dev, const MergeConfig& cfg,
                                  std::size_t elem_bytes, bool block_sort = true) {
  validate_config(dev, cfg, elem_bytes, block_sort);
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
/// ranks iE … iE + E − 1 of the tile, to the shared tile from slot 0 on —
/// through the tile's output shift rho when `through_rho` (the inverse dual
/// subsequence scatter of footnote 5), else stride E — at copy cadence,
/// with no per-thread setup; then the block stores ranks [0, count), the
/// tile's real elements, coalesced to `gout`.  The raw stride-E pattern is
/// only certified when gcd(w, E) = 1 (cf_stride).
template <typename T>
void store_merged_tile(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                       bool through_rho, const TileCerts& certs, int e,
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
                                 through_rho ? certs.rank_scatter : certs.stride, regs);
    ctx.barrier();
    cfprims::exec_staged_copy(ctx, shmem, gout, count, certs.stage, cfprims::UnitStep{},
                              cfprims::UnitStep{});
    return;
  }
  cfprims::exec_crs_scatter(
      ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge, certs.rank_scatter,
      cfprims::same_warp,
      [&](int vw, int lane, int j) {
        return out_shift(static_cast<std::int64_t>(vw * w + lane) * e + j);
      },
      regs);
  ctx.barrier();
  cfprims::exec_staged_copy(ctx, shmem, gout, count, /*cert=*/nullptr, out_shift,
                            cfprims::UnitStep{});
}

/// The CF tile merge (paper §5) of the block's k = seg_len.size() list
/// windows, k a power of two (global element offsets seg_src, lengths
/// seg_len, Σ = tile, of which the first seg_real are real): a cascade of
/// log2(k) in-shared 2-way CF stages (cf_cascade_levels), in place in one
/// shared buffer of CascadePlan::capacity elements
/// (gather/multiway_schedule.hpp): the level-0 loads, the levels, then the
/// store tail.  At k = 2 the cascade is one stage over the tile, the 2-way
/// CF merge of merge_pass; the multiway_merge kernel's CFCascade runs it at
/// any k.  Every gather/scatter round goes through the bank-conflict
/// screener with the conflict-free claim intact.  The root writes back
/// through the store tail, through the tile's output shift when
/// `through_rho`.
///
/// With `rho` false the pairs are laid out in A ∪ pi(B), pi alone
/// (PairLayout::cf_no_rho): the no-rho ablation of paper §3.2, which must
/// store stride E.  Where gcd(w, E) = 1 rho is the identity anyway, so the
/// cf_gather proof still covers the gathers; elsewhere (cf_stride is not
/// certified) they conflict and take the lane path.
template <typename T, typename GIn, typename Cmp>
void cf_cascade_core(gpusim::BlockContext& ctx, GIn& gin, gpusim::GlobalView<T>& gout,
                     std::span<const std::int64_t> seg_src,
                     std::span<const std::int64_t> seg_len,
                     std::span<const std::int64_t> seg_real, int e, const TileCerts& certs,
                     bool through_rho, Cmp cmp, bool rho = true) {
  assert(rho || !through_rho);
  const std::int64_t tile = static_cast<std::int64_t>(ctx.threads()) * e;
  const gather::CascadePlan plan(ctx.lanes(), e, seg_len, rho);
  const std::int64_t cap = gather::CascadePlan::capacity(tile, plan.w(), e, plan.k());
  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(cap));
  TileCerts level_certs = certs;
  if (!rho && certs.stride == nullptr) level_certs.gather = level_certs.rank_scatter = nullptr;

  // Level-0 load: pair p stages segments 2p (as A) and 2p+1 (as B) into its
  // rho(A ∪ pi(B)) region, sentinel tail included — the layout permutation
  // applied during the transfer ("each thread block reorders elements
  // during the initial transfer from global memory into shared memory" —
  // Section 5).  Each segment's load is guarded at its real elements, and
  // B's sentinel tail (B offsets nb … lb − 1) is filled in shared.  When the
  // pair's shift is the identity, all three position maps are unit-step
  // runs (pi reverses B), covered by the cf_stage proof.
  const T top = padding_sentinel<T>::value();
  for (std::size_t p = 0; p < plan.pairs(0).size(); ++p) {
    const gather::CascadePair& pr = plan.pairs(0)[p];
    const std::int64_t nb = seg_len[2 * p + 1];
    const auto stage = [&](const verify::CfCertificate* cert, const auto& pos_a,
                           const auto& pos_b, const auto& pos_tail) {
      cfprims::exec_guarded_load(ctx, gin, shmem, seg_len[2 * p], seg_real[2 * p], top, cert,
                                 cfprims::UnitStep{seg_src[2 * p]}, pos_a);
      cfprims::exec_guarded_load(ctx, gin, shmem, nb, seg_real[2 * p + 1], top, cert,
                                 cfprims::UnitStep{seg_src[2 * p + 1]}, pos_b);
      cfprims::exec_staged_copy(ctx, cfprims::Fill<T>{top}, shmem, pr.layout.lb() - nb, cert,
                                cfprims::UnitStep{}, pos_tail);
    };
    if (pr.layout.rho().identity())
      stage(certs.stage, cfprims::UnitStep{pr.pos_a(0)}, cfprims::UnitStep{pr.pos_b(0), -1},
            cfprims::UnitStep{pr.pos_b(nb), -1});
    else
      stage(nullptr, [pr](std::int64_t t) { return pr.pos_a(t); },
            [pr](std::int64_t t) { return pr.pos_b(t); },
            [pr, nb](std::int64_t t) { return pr.pos_b(nb + t); });
  }
  ctx.barrier();

  // The levels, in place, into one block-wide register file.
  std::vector<T> regfile(static_cast<std::size_t>(cap));
  cf_cascade_levels(ctx, shmem, plan, std::span<T>(regfile), level_certs,
                    {"merge.search", "merge.merge", "merge.store"}, cmp);
  // The root (one pair, virtual warp i on warp i) writes back through the
  // store tail: its output map is the tile's output shift, and only the
  // first u threads' ranks are written — ranks >= tile are sentinels — of
  // which the store keeps the real ones.
  store_merged_tile<T>(ctx, shmem, through_rho, certs, e,
                       std::span<const T>(regfile).first(static_cast<std::size_t>(tile)), gout,
                       std::accumulate(seg_real.begin(), seg_real.end(), std::int64_t{0}));
}

/// The sequential tile merge of the block's k = seg_len.size() list windows
/// (seg_src, seg_len, seg_real as for cf_cascade_core), k in [2,
/// kMaxMultiwayK]: each window staged linearly in shared, window s from the
/// sum of the windows before it (a guarded load, unit step, covered by the
/// cf_stage proof), then every thread's splits and sequential merge, then
/// the stride-E store tail.  At k = 2 it is Thrust's merge, the baseline's
/// (serial_merge_pairs over the one pair); above, the LoserTree's k-way
/// replacement selection: multiway_thread_coranks, then serial_merge_core
/// over the k lists, charging per warp the setup, a gather round per head
/// row, and per output step a selection (floor(log2 k) merge steps) plus the
/// replacement read's gather round.  The head reads and every replacement
/// read are data dependent across lanes, so the merge phase is *not*
/// conflict free (that is the point of the schedule; cfverify refutes the
/// k-way one with a witness).
template <typename T, typename GIn, typename Cmp>
void serial_window_core(gpusim::BlockContext& ctx, GIn& gin, gpusim::GlobalView<T>& gout,
                        std::span<const std::int64_t> seg_src,
                        std::span<const std::int64_t> seg_len,
                        std::span<const std::int64_t> seg_real, int e, const TileCerts& certs,
                        Cmp cmp) {
  const int u = ctx.threads();
  const auto k = static_cast<int>(seg_len.size());
  const std::int64_t tile = static_cast<std::int64_t>(u) * e;
  assert(k >= 2 && k <= kMaxMultiwayK);
  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(tile));

  // Linear layout: segment s occupies [seg_off[s], seg_off[s] + len_s).
  std::array<std::int64_t, kMaxMultiwayK> seg_off{};
  std::exclusive_scan(seg_len.begin(), seg_len.end(), seg_off.begin(), std::int64_t{0});
  for (std::size_t s = 0; s < seg_len.size(); ++s)
    cfprims::exec_guarded_load(ctx, gin, shmem, seg_len[s], seg_real[s],
                               padding_sentinel<T>::value(), certs.stage,
                               cfprims::UnitStep{seg_src[s]}, cfprims::UnitStep{seg_off[s]});
  ctx.barrier();

  std::vector<T> regs(static_cast<std::size_t>(tile));
  if (k == 2) {
    serial_merge_pairs(ctx, shmem, seg_len[0], seg_len[1], e, std::span<T>(regs), "merge.search",
                       "merge.merge", cmp);
  } else {
    ctx.phase("merge.search");
    const std::vector<std::int64_t> co = multiway_thread_coranks<T>(
        ctx, shmem, std::span<const std::int64_t>(seg_off.data(), seg_len.size()), seg_len, e,
        cmp);
    ctx.phase("merge.merge");
    const auto sel = static_cast<std::uint64_t>(
        std::max(1, static_cast<int>(std::bit_width(static_cast<unsigned>(k))) - 1));
    const SerialMergeCharge charge{cost::kThreadSetupInstrs, cost::kGatherRoundInstrs,
                                   sel * cost::kMergeStepInstrs + cost::kGatherRoundInstrs};
    serial_merge_core<0>(
        ctx, shmem, k, e,
        [&](int i, int s) {
          const auto at = static_cast<std::size_t>(i * k + s);
          return ListWindow{co[at], i + 1 < u ? co[at + static_cast<std::size_t>(k)]
                                              : seg_len[static_cast<std::size_t>(s)]};
        },
        [&](int s, std::int64_t x) { return seg_off[static_cast<std::size_t>(s)] + x; }, charge,
        std::span<T>(regs), cmp);
  }
  ctx.barrier();
  store_merged_tile<T>(ctx, shmem, /*through_rho=*/false, certs, e, std::span<const T>(regs),
                       gout, std::accumulate(seg_real.begin(), seg_real.end(), std::int64_t{0}));
}

/// The 2-way merge core, the block body of the merge_pass kernel: the
/// baseline runs the sequential tile merge, CF-Merge (and its no-rho
/// ablation) the CF cascade at k = 2.
template <typename T, typename GIn, typename Cmp>
void merge_window_core(gpusim::BlockContext& ctx, GIn& gin, gpusim::GlobalView<T>& gout,
                       std::span<const std::int64_t> seg_src,
                       std::span<const std::int64_t> seg_len,
                       std::span<const std::int64_t> seg_real, const MergeConfig& cfg, Cmp cmp) {
  if (cfg.variant == Variant::Baseline)
    return serial_window_core<T>(ctx, gin, gout, seg_src, seg_len, seg_real, cfg.e, cfg.certs,
                                 cmp);
  cf_cascade_core<T>(ctx, gin, gout, seg_src, seg_len, seg_real, cfg.e, cfg.certs,
                     cfg.cf_output_scatter && !cfg.disable_rho, cmp, !cfg.disable_rho);
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
      Cfg::kMergeKernel,
      gpusim::LaunchShape{count, cfg.u, mshared, cfg.merge_regs_per_thread(warp_size)},
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
        const BatchTile padded = bt.padded(tile);
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
