// Extension of the CF gather to k shared-memory subsequences: the cascade
// schedule plan.
//
// A k-way tile merge cannot reuse the dual-gather residue invariant
// directly: with k > 2 data-dependent merge-path anchors, the per-thread
// windows cannot tile the residues mod E (two windows tile because pi makes
// B's window adjacent to A's; a third anchor breaks the adjacency).  The
// conflict-free k-way schedule is therefore a *cascade*: log2(k) in-shared
// pairwise stages, each an instance of the proven 2-way schedule, chained
// through a data-independent rank scatter.
//
//   level 0:   k segments, paired (0,1)(2,3)..., each pair's region padded
//              with +inf sentinels to a multiple of wE and stored in the
//              pair's rho(A ∪ pi(B)) layout (a CascadePair: the region
//              base plus the pair's PairLayout::cf)
//   level l:   pair outputs of level l-1 are the A/B lists of level l; the
//              merged ranks are scattered straight into the parent pair's
//              layout:  thread i writes rank r = iE + j to
//
//                 base' + rho'(r)                  (left child  -> A of parent)
//                 base' + rho'(la'+lb'-1-r)        (right child -> B of parent)
//
//              Both are +/-(iE + j) + C with C data-independent mod wE
//              (bases and la'+lb' are multiples of wE), so every scatter
//              round is a stride-E progression through rho' — conflict-free
//              by the same Corollary 3 CRS argument as the gather, which
//              src/verify lowers and proves per (w, E, k).
//   root:      the first u threads' ranks (the real tile) go through the
//              tile-wide output rho (the inverse dual subsequence scatter
//              of the 2-way store tail), then a coalesced global store.
//
// Sentinels only enter at level 0 (ceil-to-wE padding of each pair); they
// sort to the tail of every intermediate run and are dropped at the root.
// Storage is two ping-pong shared buffers of capacity(): levels alternate
// read/write buffers with a barrier in between.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "gather/permutation.hpp"

namespace cfmerge::gather {

/// One intermediate run of the cascade (a segment at level 0, a pair output
/// above).  pad_len includes the sentinel tail; it is 0 or a multiple of wE.
struct CascadeRun {
  std::int64_t len = 0;      ///< real (non-sentinel) elements
  std::int64_t pad_len = 0;  ///< storage length incl. sentinels
};

/// One pairwise merge of the cascade: region [base, base + size) of the
/// level's read buffer, in the pair's CF layout.  |A| is the left child's
/// real len (level 0) or pad_len; |B| includes the pair's sentinel pad.
struct CascadePair {
  std::int64_t base;
  PairLayout layout;

  /// Physical position (region base included) of A element x / B element y.
  [[nodiscard]] std::int64_t pos_a(std::int64_t x) const { return base + layout.pos_a(x); }
  [[nodiscard]] std::int64_t pos_b(std::int64_t y) const { return base + layout.pos_b(y); }
};

/// The full static cascade for one tile: runs and pair layouts per level,
/// plus the inter-stage scatter map.  Pure index logic — shared between the
/// multiway merge kernel and the verifier's lowering cross-checks.
class CascadePlan {
 public:
  /// `seg_lens` are the k per-segment window lengths of one output tile
  /// (entries may be zero).  k must be a power of two >= 2.
  CascadePlan(int w, int e, std::span<const std::int64_t> seg_lens);

  [[nodiscard]] int w() const { return w_; }
  [[nodiscard]] int e() const { return e_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int levels() const { return levels_; }
  /// Real output elements (the tile size); sentinel ranks come after.
  [[nodiscard]] std::int64_t total_len() const { return total_len_; }
  /// Storage length of every level >= 1 (ranks of the root run).
  [[nodiscard]] std::int64_t padded_len() const { return padded_len_; }

  /// Pairs merged at `level` (level in [0, levels)).
  [[nodiscard]] const std::vector<CascadePair>& pairs(int level) const {
    return pairs_[static_cast<std::size_t>(level)];
  }
  /// Runs entering `level` (level in [0, levels]); runs(levels) is the root.
  [[nodiscard]] const std::vector<CascadeRun>& runs(int level) const {
    return runs_[static_cast<std::size_t>(level)];
  }

  /// Ping-pong buffer indices: level l reads buffer l%2, writes 1-l%2.
  [[nodiscard]] static int read_buffer(int level) { return level % 2; }
  [[nodiscard]] static int write_buffer(int level) { return 1 - level % 2; }

  /// Write position (within the write buffer) of merged rank `r` of pair
  /// `p` at `level` below the root: the parent pair's layout position.  The
  /// root writes back through the tile's output shift instead
  /// (sort::store_merged_tile).
  [[nodiscard]] std::int64_t scatter_pos(int level, int p, std::int64_t r) const {
    assert(level + 1 < levels_);
    const CascadePair& parent = pairs_[static_cast<std::size_t>(level + 1)][static_cast<std::size_t>(p / 2)];
    return p % 2 == 0 ? parent.pos_a(r) : parent.pos_b(r);
  }

  /// Worst-case per-buffer capacity for a tile of `tile` elements — the
  /// static bound used for the LaunchShape: every level-0 pair may round up
  /// to the next wE multiple.
  [[nodiscard]] static std::int64_t capacity(std::int64_t tile, int w, int e, int k) {
    return tile + (static_cast<std::int64_t>(k) / 2) * w * e;
  }

 private:
  int w_;
  int e_;
  int k_;
  int levels_;
  std::int64_t total_len_ = 0;
  std::int64_t padded_len_ = 0;
  std::vector<std::vector<CascadeRun>> runs_;
  std::vector<std::vector<CascadePair>> pairs_;
};

}  // namespace cfmerge::gather
