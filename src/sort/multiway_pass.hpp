// The k-way pieces of the merge pass of the multiway mergesort.
//
// Runs of length `run` are merged k at a time, cutting the global pass count
// from ceil(log2(n/tile)) to ceil(log_k(n/tile)) (Casanova et al.).  A
// k-way pass is the 2-way pass of merge_pass.hpp run with a MultiwayConfig:
// the same BatchTile descriptors (add_run_group_tiles, one group per k
// runs), the same enqueue (detail::enqueue_merge_pass), partition body and
// merge-kernel prologue.  This header supplies what differs.  Stage 1 (the
// multiway_partition kernel) computes, for every tile, the k-vector of
// co-ranks of its start diagonal inside its group — multisequence
// selection, the k-dimensional generalization of merge path
// (mergepath/multiway_path.hpp), found by a warp-lockstep stride-halving
// search with one lane per list (search_partition_rows over
// detail::warp_multiseq_select, shared with the LoserTree's thread search).
// Stage 2 (the multiway_merge kernel) produces one output tile of u*E
// elements per block from its k list windows, in one of two variants.
// Both load each window through a guarded copy that reads only the window's
// real elements (the rest is sentinel padding, filled in shared; see the
// ragged-group rule in merge_pass.hpp) and store only the tile's real
// ranks:
//
//  * CFCascade — the conflict-free schedule.  The tile's k windows are
//    merged by a cascade of log2(k) in-shared pairwise stages, each an
//    instance of the proven 2-way dual-subsequence-gather schedule; stage
//    outputs are scattered straight into the parent pair's rho(A ∪ pi(B))
//    layout through a data-independent rank map (gather/multiway_schedule.hpp),
//    so every gather *and* scatter round is conflict free — machine-checked
//    by cfverify (verify/multiway.cpp) and screened at runtime by the
//    bank-conflict model.  The root writes back through the 2-way store
//    tail (store_merged_tile).  Requires k to be a power of two.
//  * LoserTree — the natural single-phase design: segments linear in shared,
//    per-thread k-way replacement selection, which is the 2-way baseline's
//    sequential merge (serial_merge_core) over k lists.  Every head and
//    replacement read is data dependent across lanes, so the merge phase
//    bank-conflicts freely (cfverify refutes the variant with a concrete
//    lane-pair witness).  Kept as the measured baseline; any k >= 2.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/multiway_schedule.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/kernels.hpp"
#include "sort/key_value.hpp"
#include "sort/merge_pass.hpp"

namespace cfmerge::sort {

enum class MultiwayVariant {
  CFCascade,  ///< cascade of 2-way CF stages in shared memory (k = 2^m)
  LoserTree,  ///< per-thread k-way replacement selection (conflicts; any k)
};

/// Boundaries one warp resolves at once in warp_multiseq_select: one lane
/// per (boundary, sequence), at least one boundary per warp.
[[nodiscard]] inline int selections_per_warp(int w, int k) { return std::max(1, w / k); }
static_assert(kMaxMultiwayK <= gpusim::kMaxLanes, "one selection's slots fit a lane array");

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
  /// device: the cascade's two ping-pong buffers, or one tile.
  [[nodiscard]] std::int64_t merge_shared_elems(int w) const {
    return variant == MultiwayVariant::CFCascade
               ? 2 * gather::CascadePlan::capacity(tile(), w, e, k)
               : tile();
  }
  /// Registers per thread of the tile kernels (block sort, k-way merge).
  [[nodiscard]] int regs_per_thread() const { return cost::multiway_regs_per_thread(e, k); }
  /// True when the block sort runs its CF rounds (and their staging buffer).
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

/// validate_config for a MultiwayConfig (arity_error's checks included).
inline void validate_multiway_config(const gpusim::DeviceSpec& dev,
                                     const MultiwayConfig& cfg, std::size_t elem_bytes) {
  validate_config(dev, cfg, elem_bytes);
}

namespace detail {

/// Warp-lockstep stride-halving multisequence selection (Varman et al.; the
/// host oracle is mergepath::multiway_path).  Resolves the co-rank vectors
/// of `queries` diagonals at once with one lane per sequence: slot
/// f = q*k + s holds query q's window into its sequence s and lives on lane
/// f % w of read chunk f / w (one chunk unless k > w).  seg_base (the
/// address of each sequence's first element), seg_len and out_co are
/// slot-indexed; diag[q] < 0 masks query q.  `gather(addrs, vals,
/// dependent)` issues one charged warp-wide read of w addresses
/// (kInactiveLane masks idle lanes).
///
/// Every sequence is padded (conceptually, with +inf) to L = 2^R - 1 >= its
/// query's longest one and keeps a window [lo, hi] of width h - 1, where lo
/// counts its elements known to lie left of the split.  Each of the R levels
/// halves the block size h: the window-middle element S[lo + h - 1] moves
/// left (lo += h) if it precedes the largest element already left, else hi
/// drops to it.  A skew correction then pops the smallest right-hand block
/// ends (or the largest left-hand ones) until floor(diag / h) whole blocks
/// lie left.  At h = 1 the lo are the co-ranks.  Order is the stable
/// (value, sequence id) key; empty sequences never enter the selection.
/// Lanes keep S[lo - 1] and S[hi] in registers, so a level costs one
/// dependent gather (the middles) and every pop one dependent read: O(log n)
/// rounds per query instead of the nested searches' O(k^2 log^2 n).
/// When `seg_real` is given (slot-indexed), a probe at or past its
/// sequence's seg_real reads no memory and sees the +inf sentinel, as if
/// the sequence were padded with it up to seg_len.
template <typename T, typename Gather, typename Cmp>
void warp_multiseq_select(gpusim::BlockContext& ctx, int warp, int k, int queries,
                          std::span<const std::int64_t> seg_base,
                          std::span<const std::int64_t> seg_len,
                          std::span<const std::int64_t> diag, Gather&& gather, Cmp cmp,
                          std::span<std::int64_t> out_co,
                          std::span<const std::int64_t> seg_real = {}) {
  using gpusim::kInactiveLane;
  const auto w = static_cast<std::size_t>(ctx.lanes());
  const auto kk = static_cast<std::size_t>(k);
  const std::size_t slots = static_cast<std::size_t>(queries) * kk;
  assert(slots <= static_cast<std::size_t>(gpusim::kMaxLanes));
  // Stable order of (value, sequence id) pairs.
  const auto before = [&](const T& x, std::size_t sx, const T& y, std::size_t sy) {
    return cmp(x, y) || (!cmp(y, x) && sx < sy);
  };

  std::array<std::int64_t, gpusim::kMaxLanes> lo{}, hi{}, idx, addr;
  std::array<T, gpusim::kMaxLanes> lo_val{}, hi_val{}, got{};
  std::array<bool, gpusim::kMaxLanes> to_lo{};  // a pop's read refreshes lo_val
  // Per query: current block size minus one, blocks still to move, and
  // whether the query takes part in the current level.
  std::array<std::int64_t, gpusim::kMaxLanes> half{}, skew{};
  std::array<bool, gpusim::kMaxLanes> live{};
  idx.fill(kInactiveLane);
  int levels = 0;
  for (std::size_t q = 0; q < static_cast<std::size_t>(queries); ++q) {
    const auto lens = seg_len.subspan(q * kk, kk);
    const std::int64_t total = std::accumulate(lens.begin(), lens.end(), std::int64_t{0});
    assert(diag[q] <= total);
    for (std::size_t s = 0; s < kk; ++s) lo[q * kk + s] = diag[q] == total ? lens[s] : 0;
    if (diag[q] <= 0 || diag[q] >= total) continue;  // masked, all left or all right
    const auto longest = static_cast<std::uint64_t>(std::ranges::max(lens));
    const int r = std::bit_width(longest);
    half[q] = (std::int64_t{1} << r) - 1;
    std::fill_n(hi.begin() + static_cast<std::ptrdiff_t>(q * kk), kk, half[q]);
    levels = std::max(levels, r);
  }

  // One read round over the slots whose idx is set.  The first chunk with
  // an active lane pays the dependent latency; later chunks pipeline behind.
  const auto read = [&] {
    bool first = true;
    for (std::size_t f0 = 0; f0 < slots; f0 += w) {
      bool active = false;
      for (std::size_t l = 0; l < w; ++l) {
        const std::size_t f = f0 + l;
        const bool probed = f < slots && idx[f] != kInactiveLane;
        const bool padding = probed && !seg_real.empty() && idx[f] >= seg_real[f];
        addr[l] = probed && !padding ? seg_base[f] + idx[f] : kInactiveLane;
        if (padding) got[f] = padding_sentinel<T>::value();
        active = active || addr[l] != kInactiveLane;
      }
      if (!active) continue;
      gather(std::span<const std::int64_t>(addr).first(w), std::span<T>(got).subspan(f0, w),
             first);
      first = false;
    }
  };

  for (int level = 0; level < levels; ++level) {
    // Halve every live window and gather its middle element.
    for (std::size_t q = 0; q < static_cast<std::size_t>(queries); ++q) {
      live[q] = half[q] > 0;
      if (!live[q]) continue;
      half[q] /= 2;
      for (std::size_t f = q * kk; f < (q + 1) * kk; ++f)
        idx[f] = lo[f] + half[q] < seg_len[f] ? lo[f] + half[q] : kInactiveLane;
    }
    ctx.charge_compute(warp, cost::multiseq_level_instrs(k));
    read();

    for (std::size_t q = 0; q < static_cast<std::size_t>(queries); ++q) {
      if (!live[q]) continue;
      const std::size_t f0 = q * kk;
      // Largest element already left of the split (a k-lane reduction).
      std::size_t top = kk;
      for (std::size_t s = 0; s < kk; ++s)
        if (lo[f0 + s] > 0 &&
            (top == kk || !before(lo_val[f0 + s], s, lo_val[f0 + top], top)))
          top = s;
      std::int64_t left = 0;
      for (std::size_t s = 0; s < kk; ++s) {
        const std::size_t f = f0 + s;
        const bool probed = idx[f] != kInactiveLane;
        if (probed && top != kk && before(got[f], s, lo_val[f0 + top], top)) {
          lo[f] = idx[f] + 1;  // never the top slot itself, so lo_val[top] holds
          lo_val[f] = got[f];
        } else {
          hi[f] = lo[f] + half[q];
          if (probed) hi_val[f] = got[f];
        }
        idx[f] = kInactiveLane;
        left += lo[f] / (half[q] + 1);
      }
      skew[q] = diag[q] / (half[q] + 1) - left;
    }

    // Skew correction: every query with blocks to move pops one per round;
    // the popped sequence reads the window end it just uncovered.
    while (true) {
      bool any = false;
      for (std::size_t q = 0; q < static_cast<std::size_t>(queries); ++q) {
        if (!live[q] || skew[q] == 0) continue;
        const std::size_t f0 = q * kk;
        std::size_t pick = kk;
        for (std::size_t s = 0; s < kk; ++s) {
          const std::size_t f = f0 + s;
          if (skew[q] > 0 ? hi[f] < seg_len[f] &&
                                (pick == kk || before(hi_val[f], s, hi_val[f0 + pick], pick))
                          : lo[f] > 0 &&
                                (pick == kk || !before(lo_val[f], s, lo_val[f0 + pick], pick)))
            pick = s;
        }
        if (pick == kk) {  // every block right of the split is padding
          skew[q] = 0;
          continue;
        }
        const std::size_t f = f0 + pick;
        const std::int64_t step = half[q] + 1;
        if (skew[q] > 0) {  // the smallest right-hand block end moves left
          lo[f] = hi[f] + 1;
          lo_val[f] = hi_val[f];
          hi[f] += step;
          idx[f] = hi[f] < seg_len[f] ? hi[f] : kInactiveLane;
          to_lo[f] = false;
          --skew[q];
        } else {  // the largest left-hand block end moves right
          hi[f] = lo[f] - 1;
          hi_val[f] = lo_val[f];
          lo[f] -= step;
          idx[f] = lo[f] > 0 ? lo[f] - 1 : kInactiveLane;
          to_lo[f] = true;
          ++skew[q];
        }
        any = true;
      }
      if (!any) break;
      ctx.charge_compute(warp, cost::multiseq_pop_instrs(k));
      read();
      for (std::size_t f = 0; f < slots; ++f) {
        if (idx[f] == kInactiveLane) continue;
        (to_lo[f] ? lo_val[f] : hi_val[f]) = got[f];
        idx[f] = kInactiveLane;
      }
    }
  }
  std::copy_n(lo.begin(), slots, out_co.begin());
}

}  // namespace detail

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

/// CFCascade merge core: merges the block's k segment windows (global
/// element offsets seg_src, lengths seg_len, Σ = tile, of which the first
/// seg_real are real) into `gout` through the cascade of 2-way CF stages.
/// Every gather/scatter round goes through the bank-conflict screener with
/// the conflict-free claim intact.
template <typename T, typename GIn, typename Cmp>
void multiway_cascade_core(gpusim::BlockContext& ctx, GIn& gin, gpusim::GlobalView<T>& gout,
                           std::span<const std::int64_t> seg_src,
                           std::span<const std::int64_t> seg_len,
                           std::span<const std::int64_t> seg_real, const MultiwayConfig& cfg,
                           Cmp cmp) {
  const int w = ctx.lanes();
  const int e = cfg.e;
  const std::int64_t tile = cfg.tile();
  const gather::CascadePlan plan(w, e, seg_len);
  const std::int64_t cap = gather::CascadePlan::capacity(tile, w, e, cfg.k);
  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(2 * cap));

  // Level-0 load: pair p stages segments 2p (as A) and 2p+1 (as B) into its
  // rho(A ∪ pi(B)) region of buffer 0, sentinel tail included.  Each
  // segment's load is guarded at its real elements.
  {
    const T top = padding_sentinel<T>::value();
    const std::int64_t rb = gather::CascadePlan::read_buffer(0) * cap;
    const auto& prs = plan.pairs(0);
    const auto& leaves = plan.runs(0);
    for (std::size_t p = 0; p < prs.size(); ++p) {
      const gather::CascadePair& pr = prs[p];
      if (pr.layout.size() == 0) continue;
      const std::int64_t na = leaves[2 * p].len;
      const std::int64_t nbr = leaves[2 * p + 1].len;
      cfprims::exec_guarded_load(ctx, gin, shmem, na, seg_real[2 * p], top, /*cert=*/nullptr,
                                 cfprims::UnitStep{seg_src[2 * p]},
                                 [&](std::int64_t t) { return rb + pr.pos_a(t); });
      cfprims::exec_guarded_load(ctx, gin, shmem, nbr, seg_real[2 * p + 1], top,
                                 /*cert=*/nullptr, cfprims::UnitStep{seg_src[2 * p + 1]},
                                 [&](std::int64_t t) { return rb + pr.pos_b(t); });
      cfprims::exec_staged_copy(ctx, cfprims::Fill<T>{top}, shmem, pr.layout.lb() - nbr,
                                /*cert=*/nullptr, cfprims::UnitStep{},
                                [&](std::int64_t t) { return rb + pr.pos_b(nbr + t); });
    }
  }
  ctx.barrier();

  // The cascade: each level runs the 2-way CF merge for every pair, with
  // virtual warps (u_pair = pad/E simulated threads per pair) mapped
  // round-robin onto the block's physical warps for charging.  A pair's
  // registers are the first pad slots of one block-wide register file (a
  // pair never exceeds the buffer capacity).
  std::vector<T> regfile(static_cast<std::size_t>(cap));
  for (int level = 0; level < plan.levels(); ++level) {
    const bool root = level + 1 == plan.levels();
    const std::int64_t rb = gather::CascadePlan::read_buffer(level) * cap;
    const std::int64_t wb = gather::CascadePlan::write_buffer(level) * cap;
    const auto& prs = plan.pairs(level);
    std::int64_t vglobal = 0;
    for (std::size_t p = 0; p < prs.size(); ++p) {
      const gather::CascadePair& pr = prs[p];
      const std::int64_t pad = pr.layout.size();
      if (pad == 0) continue;
      const int vwarps = static_cast<int>(pad / e) / w;
      const auto pair_warp = [&](int vw) {
        return static_cast<int>((vglobal + vw) % ctx.warps());
      };

      // Per-virtual-thread merge-path splits within the pair.
      ctx.phase("merge.search");
      const std::vector<ThreadSplit> splits = pair_split_search(
          ctx, shmem, /*npairs=*/1, pr.layout.la(), pr.layout.lb(), vwarps, pair_warp,
          [&](std::int64_t, std::int64_t x) { return rb + pr.pos_a(x); },
          [&](std::int64_t, std::int64_t y) { return rb + pr.pos_b(y); }, cmp);

      // Dual subsequence gather + register network (the proven 2-way core).
      // Each pair is an instance of the proven 2-way schedule at a constant
      // buffer offset (a uniform shift preserves bank distinctness), so the
      // cf_gather certificate applies per pair.
      ctx.phase("merge.merge");
      const std::span<T> regs = std::span<T>(regfile).first(static_cast<std::size_t>(pad));
      cf_merge_pair(ctx, shmem, rb + pr.base, pr.layout.la(), pr.layout.lb(),
                    std::span<const ThreadSplit>(splits), cfg.certs.gather, pair_warp, regs,
                    cmp);
      if (root) {
        // The root (one pair, virtual warp i on warp i) writes back through
        // the 2-way store tail: its output map is the tile's output shift,
        // and only the first u threads' ranks are written — ranks
        // >= tile are sentinels — of which the store keeps the real ones.
        store_merged_tile<T>(ctx, shmem, wb, /*through_rho=*/true, cfg.certs, e,
                             std::span<const T>(regs).first(static_cast<std::size_t>(tile)),
                             gout, std::accumulate(seg_real.begin(), seg_real.end(),
                                                   std::int64_t{0}));
        return;
      }

      // Inter-stage rank scatter: rank r = iE + j of this pair lands at the
      // parent's pos_a/pos_b(r) — data independent, so each round is a
      // stride-E progression through rho' and conflict free.
      ctx.phase("merge.store");
      // The cf_rank_scatter primitive at gather cadence: the per-thread
      // setup computes the parent's pos_a/pos_b bounds.  The cascade proof
      // (verify/multiway.cpp) cites the cf_rank_scatter certificate for the
      // piecewise parent map, both scatter directions included.
      cfprims::exec_crs_scatter(
          ctx, shmem, w, e, vwarps, cfprims::kGatherCharge, cfg.certs.rank_scatter,
          pair_warp,
          [&](int vw, int lane, int j) {
            const std::int64_t r = static_cast<std::int64_t>(vw * w + lane) * e + j;
            return wb + plan.scatter_pos(level, static_cast<int>(p), r);
          },
          std::span<const T>(regs));
      vglobal += vwarps;
    }
    ctx.barrier();
  }
}

/// LoserTree search step: the co-rank vector of every thread's start
/// diagonal i*E in the block's tile, staged linearly in `shmem` (segment s
/// at seg_off[s], seg_len[s] long).  Each warp resolves its w threads in
/// groups of selections_per_warp(w, k); the probes are data-dependent
/// shared reads.  Returns the flat u x k table co[i*k + s].
template <typename T, typename Cmp>
std::vector<std::int64_t> multiway_thread_coranks(gpusim::BlockContext& ctx,
                                                  gpusim::SharedTile<T>& shmem,
                                                  std::span<const std::int64_t> seg_off,
                                                  std::span<const std::int64_t> seg_len, int e,
                                                  Cmp cmp) {
  const int w = ctx.lanes();
  const int k = static_cast<int>(seg_len.size());
  const int per_warp = selections_per_warp(w, k);
  std::vector<std::int64_t> co(static_cast<std::size_t>(ctx.threads() * k), 0);
  std::array<std::int64_t, gpusim::kMaxLanes> base, lens, diag;
  for (int f = 0; f < per_warp * k; ++f) {
    base[static_cast<std::size_t>(f)] = seg_off[static_cast<std::size_t>(f % k)];
    lens[static_cast<std::size_t>(f)] = seg_len[static_cast<std::size_t>(f % k)];
  }
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    for (int t0 = warp * w; t0 < (warp + 1) * w; t0 += per_warp) {
      const int queries = std::min(per_warp, (warp + 1) * w - t0);
      for (int q = 0; q < queries; ++q)
        diag[static_cast<std::size_t>(q)] = static_cast<std::int64_t>(t0 + q) * e;
      const auto slots = static_cast<std::size_t>(queries * k);
      detail::warp_multiseq_select<T>(
          ctx, warp, k, queries, std::span<const std::int64_t>(base.data(), slots),
          std::span<const std::int64_t>(lens.data(), slots),
          std::span<const std::int64_t>(diag.data(), static_cast<std::size_t>(queries)),
          [&](std::span<const std::int64_t> addrs, std::span<T> vals, bool dependent) {
            shmem.gather(warp, addrs, vals, dependent);
          },
          cmp, std::span<std::int64_t>(co).subspan(static_cast<std::size_t>(t0 * k), slots));
    }
  }
  return co;
}

/// LoserTree merge core: linear shared layout (each segment's load guarded
/// at its seg_real real elements), per-thread k-way replacement selection
/// through serial_merge_core.  The head reads and every replacement read
/// are data dependent across lanes — the merge phase is *not* conflict free
/// (that is the point of the variant; cfverify refutes it with a witness).
template <typename T, typename GIn, typename Cmp>
void multiway_losertree_core(gpusim::BlockContext& ctx, GIn& gin,
                             gpusim::GlobalView<T>& gout,
                             std::span<const std::int64_t> seg_src,
                             std::span<const std::int64_t> seg_len,
                             std::span<const std::int64_t> seg_real,
                             const MultiwayConfig& cfg, Cmp cmp) {
  const int u = ctx.threads();
  const int e = cfg.e;
  const int k = cfg.k;
  const std::int64_t tile = cfg.tile();
  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(tile));

  // Linear layout: segment s occupies [seg_off[s], seg_off[s] + len_s).
  std::array<std::int64_t, kMaxMultiwayK> seg_off{};
  for (int s = 1; s < k; ++s)
    seg_off[static_cast<std::size_t>(s)] =
        seg_off[static_cast<std::size_t>(s - 1)] + seg_len[static_cast<std::size_t>(s - 1)];
  for (int s = 0; s < k; ++s) {
    const auto at = static_cast<std::size_t>(s);
    cfprims::exec_guarded_load(ctx, gin, shmem, seg_len[at], seg_real[at],
                               padding_sentinel<T>::value(), /*cert=*/nullptr,
                               cfprims::UnitStep{seg_src[at]}, cfprims::UnitStep{seg_off[at]});
  }
  ctx.barrier();

  ctx.phase("merge.search");
  const std::vector<std::int64_t> co = multiway_thread_coranks<T>(
      ctx, shmem, std::span<const std::int64_t>(seg_off.data(), static_cast<std::size_t>(k)),
      seg_len, e, cmp);

  // Replacement selection: the sequential merge over k lists, charging per
  // warp the setup, a gather round per head row, and per output step a
  // selection (sel = floor(log2 k) merge steps) plus the replacement read's
  // gather round.
  ctx.phase("merge.merge");
  std::vector<T> regs(static_cast<std::size_t>(tile));
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
  ctx.barrier();

  // Stride-E write-back, as the 2-way baseline, but on the lane path: the
  // loser tree is the uncertified baseline.
  store_merged_tile<T>(ctx, shmem, /*base=*/0, /*through_rho=*/false, TileCerts{}, e,
                       std::span<const T>(regs), gout,
                       std::accumulate(seg_real.begin(), seg_real.end(), std::int64_t{0}));
}

/// The k-way merge core, the block body of the multiway_merge kernel: the
/// configured variant merges the block's k list windows into `gout`.
template <typename T, typename GIn, typename Cmp>
void merge_window_core(gpusim::BlockContext& ctx, GIn& gin, gpusim::GlobalView<T>& gout,
                       std::span<const std::int64_t> seg_src,
                       std::span<const std::int64_t> seg_len,
                       std::span<const std::int64_t> seg_real, const MultiwayConfig& cfg,
                       Cmp cmp) {
  if (cfg.variant == MultiwayVariant::CFCascade)
    multiway_cascade_core<T>(ctx, gin, gout, seg_src, seg_len, seg_real, cfg, cmp);
  else
    multiway_losertree_core<T>(ctx, gin, gout, seg_src, seg_len, seg_real, cfg, cmp);
}

}  // namespace cfmerge::sort
