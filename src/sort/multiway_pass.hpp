// The k-way pieces of the merge pass of the multiway mergesort.
//
// Runs of length `run` are merged k at a time, cutting the global pass count
// from ceil(log2(n/tile)) to ceil(log_k(n/tile)) (Casanova et al.).  A
// k-way pass is the 2-way pass of merge_pass.hpp run with a MultiwayConfig:
// the same BatchTile descriptors (add_run_group_tiles, one group per k
// runs), the same enqueue (detail::enqueue_merge_pass), partition body,
// merge-kernel prologue and tile bodies.  This header supplies what
// differs: the config and the partition's row search.  Stage 1 (the
// multiway_partition kernel) computes, for every tile, the k-vector of
// co-ranks of its start diagonal inside its group — multisequence
// selection, the k-dimensional generalization of merge path
// (mergepath/multiway_path.hpp), found by a warp-lockstep stride-halving
// search with one lane per list (search_partition_rows over
// detail::warp_multiseq_select in kernels.hpp, shared with the LoserTree's
// thread search).  Stage 2 (the multiway_merge kernel) produces one output
// tile of u*E elements per block from its k list windows, by one of the two
// tile bodies of merge_pass.hpp.  Both load each window through a guarded
// copy that reads only the window's real elements (the rest is sentinel
// padding, filled in shared; see the ragged-group rule in merge_pass.hpp)
// and store only the tile's real ranks:
//
//  * CFCascade — the conflict-free schedule, cf_cascade_core (the 2-way CF
//    merge window is the same body at k = 2).  The tile's k windows are
//    merged by a cascade of log2(k) in-shared pairwise stages, each an
//    instance of the proven 2-way dual-subsequence-gather schedule; stage
//    outputs are scattered straight into the parent pair's rho(A ∪ pi(B))
//    layout through a data-independent rank map
//    (gather/multiway_schedule.hpp), so every gather *and* scatter round is
//    conflict free — machine-checked by cfverify (verify/multiway.cpp) and
//    screened at runtime by the bank-conflict model.  The root writes back
//    through the 2-way store tail (store_merged_tile).  Requires k to be a
//    power of two.
//  * LoserTree — the sequential schedule, serial_window_core (the 2-way
//    baseline's window is the same body at k = 2, where it runs Thrust's
//    merge exactly): segments linear in shared, per-thread splits, then
//    each thread's sequential merge (serial_merge_core) over the k lists,
//    k-way replacement selection.  Every head and replacement read is data
//    dependent across lanes, so the merge phase bank-conflicts freely
//    (cfverify refutes the variant with a concrete lane-pair witness).
//    Kept as the measured baseline; any k >= 2.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "gather/multiway_schedule.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/kernels.hpp"
#include "sort/merge_pass.hpp"

namespace cfmerge::sort {

enum class MultiwayVariant {
  CFCascade,  ///< cascade of 2-way CF stages in shared memory (k = 2^m)
  LoserTree,  ///< per-thread k-way replacement selection (conflicts; any k)
};

/// Tuning knobs of a k-way sort configuration.
struct MultiwayConfig {
  int e = 15;   ///< elements per thread (paper's E)
  int u = 512;  ///< threads per block
  int k = 4;    ///< merge arity per global pass
  MultiwayVariant variant = MultiwayVariant::CFCascade;
  bool cf_blocksort = false;  ///< forwarded to the (2-way) block-sort stage
  /// Conflict-freedom certificates (see MergeConfig::certs); resolved by
  /// the engine, all-null default keeps the lane-accurate path.
  TileCerts certs{};

  // What the merge pass shell reads of the config type (see MergeConfig).
  static constexpr const char* kName = "MultiwayConfig";
  static constexpr const char* kPartitionKernel = "multiway_partition";
  static constexpr const char* kMergeKernel = "multiway_merge";

  [[nodiscard]] std::int64_t tile() const { return static_cast<std::int64_t>(u) * e; }
  /// Shared elements per block of the k-way merge kernel on a `w`-lane
  /// device: the cascade's one buffer, or one tile.
  [[nodiscard]] std::int64_t merge_shared_elems(int w) const {
    return variant == MultiwayVariant::CFCascade
               ? gather::CascadePlan::capacity(tile(), w, e, k)
               : tile();
  }
  /// Registers per thread of the tile kernels (block sort, k-way merge).
  [[nodiscard]] int regs_per_thread() const { return cost::multiway_regs_per_thread(e, k); }
  /// Registers per thread of the k-way merge kernel on a `w`-lane device.
  /// A cascade level's pads exceed the tile by up to k/2 - 1 virtual warps,
  /// mapped round-robin onto the u/w physical warps, so a thread may hold
  /// that many more virtual threads' E merged registers across the level's
  /// barrier.
  [[nodiscard]] int merge_regs_per_thread(int w) const {
    const int extra = variant == MultiwayVariant::CFCascade ? k / 2 - 1 : 0;
    return regs_per_thread() + e * ((extra + u / w - 1) / (u / w));
  }
  /// True when the block sort runs its CF rounds.
  [[nodiscard]] bool cf_rounds() const { return cf_blocksort; }
  [[nodiscard]] int arity() const { return k; }
  /// Co-ranks per partition row: all k.
  [[nodiscard]] int row_width() const { return k; }
  /// Tiles one partition warp resolves: one lane per (tile, list).
  [[nodiscard]] int tiles_per_warp(int w) const { return selections_per_warp(w, k); }
  /// The arity constraint this config violates, or null.
  [[nodiscard]] const char* arity_error() const {
    if (k < 2 || k > kMaxMultiwayK) return "k must be in [2, 16]";
    if (variant == MultiwayVariant::CFCascade && (k & (k - 1)) != 0)
      return "CFCascade requires a power-of-two k";
    return nullptr;
  }
};

/// validate_config for a MultiwayConfig (arity_error's checks included;
/// the k-way pipeline always starts with the block sort).
inline void validate_multiway_config(const gpusim::DeviceSpec& dev,
                                     const MultiwayConfig& cfg, std::size_t elem_bytes) {
  validate_config(dev, cfg, elem_bytes, /*block_sort=*/true);
}

/// The k-way row search of one partition warp: row q of `out` (k
/// co-ranks) receives the co-rank vector of tiles[q]'s start diagonal
/// within its group, by warp_multiseq_select over `global` with one lane
/// per (tile, list).  A probe at or past its list's length in real[q]
/// reads no memory and sees the +inf sentinel.
template <typename T, typename Cmp>
void search_partition_rows(gpusim::BlockContext& ctx, int warp,
                           gpusim::GlobalView<const T>& global,
                           std::span<const detail::BatchTile> tiles,
                           std::span<const detail::BatchTile> real, const MultiwayConfig& cfg,
                           std::span<std::int64_t> out, Cmp cmp) {
  const int k = cfg.k;
  const int queries = static_cast<int>(tiles.size());
  std::array<std::int64_t, gpusim::kMaxLanes> seg_len, seg_real, seg_base, diag;
  for (int q = 0; q < queries; ++q) {
    const detail::BatchTile& bt = tiles[static_cast<std::size_t>(q)];
    diag[static_cast<std::size_t>(q)] = bt.diag0;
    for (int s = 0; s < k; ++s) {
      const auto f = static_cast<std::size_t>(q * k + s);
      seg_len[f] = bt.list_len(s, k);
      seg_real[f] = real[static_cast<std::size_t>(q)].list_len(s, k);
      seg_base[f] = bt.list_base(s);
    }
  }
  const auto slots = static_cast<std::size_t>(queries * k);
  detail::warp_multiseq_select<T>(
      ctx, warp, k, queries, std::span<const std::int64_t>(seg_base.data(), slots),
      std::span<const std::int64_t>(seg_len.data(), slots),
      std::span<const std::int64_t>(diag.data(), static_cast<std::size_t>(queries)),
      [&](std::span<const std::int64_t> addrs, std::span<T> vals, bool dependent) {
        global.gather(warp, addrs, vals, dependent);
      },
      cmp, out, std::span<const std::int64_t>(seg_real.data(), slots));
}

/// The k-way merge core, the block body of the multiway_merge kernel: the
/// configured variant's tile body (merge_pass.hpp) merges the block's k list
/// windows into `gout`.
template <typename T, typename GIn, typename Cmp>
void merge_window_core(gpusim::BlockContext& ctx, GIn& gin, gpusim::GlobalView<T>& gout,
                       std::span<const std::int64_t> seg_src,
                       std::span<const std::int64_t> seg_len,
                       std::span<const std::int64_t> seg_real, const MultiwayConfig& cfg,
                       Cmp cmp) {
  if (cfg.variant == MultiwayVariant::LoserTree)
    return serial_window_core<T>(ctx, gin, gout, seg_src, seg_len, seg_real, cfg.e, cfg.certs,
                                 cmp);
  cf_cascade_core<T>(ctx, gin, gout, seg_src, seg_len, seg_real, cfg.e, cfg.certs,
                     /*through_rho=*/true, cmp);
}

}  // namespace cfmerge::sort
