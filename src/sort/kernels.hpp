// Building blocks shared by the simulated sort kernels.
//
//  * TileLayout          — where a block's A/B lists live in shared memory
//                          (linear for the baseline, rho(A ∪ pi(B)) for
//                          CF-Merge).
//  * FastDiv             — division by a loop-invariant divisor.
//  * warp_split_search   — one lockstep merge-path search per warp over the
//                          w thread start diagonals plus the next thread's,
//                          producing every thread's split (a_i, |A_i|, b_i,
//                          |B_i|); decided on uncharged reads, charged as
//                          the device's start and end probe rows (each
//                          round's pair costed in one pass).
//
// Tile staging (global <-> shared copies) is cfprims::exec_staged_copy.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "gather/permutation.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/cost_model.hpp"

namespace cfmerge::sort {

/// Shared-memory placement of a block's A and B lists.
class TileLayout {
 public:
  /// Linear layout: A at [0, la), B at [la, la+lb).
  static TileLayout linear(std::int64_t la, std::int64_t lb) {
    return TileLayout(false, la, lb, 1, 1);
  }
  /// CF layout: shmem = rho(A ∪ pi(B)) with parameters (w, E).
  static TileLayout cf(std::int64_t la, std::int64_t lb, int w, int e) {
    return TileLayout(true, la, lb, w, e);
  }
  /// CF layout with the circular shift disabled (ablation: pi only).
  static TileLayout cf_no_rho(std::int64_t la, std::int64_t lb) {
    return TileLayout(true, la, lb, 1, 1);
  }

  [[nodiscard]] bool is_cf() const { return cf_; }
  [[nodiscard]] std::int64_t la() const { return pi_.la(); }
  [[nodiscard]] std::int64_t lb() const { return pi_.lb(); }
  [[nodiscard]] const gather::BReversal& pi() const { return pi_; }
  [[nodiscard]] const gather::CircularShift& rho() const { return rho_; }

  /// Physical shared position of the A element at offset x.
  [[nodiscard]] std::int64_t pos_a(std::int64_t x) const {
    return cf_ ? rho_(pi_.raw_of_a(x)) : x;
  }
  /// Physical shared position of the B element at offset y.
  [[nodiscard]] std::int64_t pos_b(std::int64_t y) const {
    return cf_ ? rho_(pi_.raw_of_b(y)) : pi_.la() + y;
  }

 private:
  TileLayout(bool cf, std::int64_t la, std::int64_t lb, int w, int e)
      : cf_(cf), pi_(la, lb), rho_(w, e, la + lb) {}

  bool cf_;
  gather::BReversal pi_;
  gather::CircularShift rho_;
};

/// Exact division by a loop-invariant divisor via one 64-bit multiply and
/// shift (round-up reciprocal: M = ceil(2^64 / d), q = hi64(n * M)).  Exact
/// for every non-negative dividend and divisor below 2^32 — which covers
/// all in-tile indices — because the representation error n*(M*d - 2^64) is
/// below d * 2^-32 * 2^32 = d, too small to push n*M/2^64 past the next
/// integer.  The kernel bodies divide by the pair width once per element in
/// their splits/permute loops; hoisting one of these replaces the hardware
/// 64-bit divide (tens of cycles) with a multiply.
struct FastDiv {
  std::uint64_t mul = 0;
  std::uint64_t d = 1;
  FastDiv() = default;
  explicit FastDiv(std::int64_t divisor)
      : mul(~std::uint64_t{0} / static_cast<std::uint64_t>(divisor) + 1),
        d(static_cast<std::uint64_t>(divisor)) {
    assert(divisor > 0 && divisor < (std::int64_t{1} << 32));
  }
  [[nodiscard]] std::int64_t operator()(std::int64_t n) const {
    assert(n >= 0 && n < (std::int64_t{1} << 32));
    // d == 1 has mul == 0 (the reciprocal wraps); the select keeps the
    // operator total without a branch.
    const auto q = static_cast<std::int64_t>(
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(n)) * mul) >> 64);
    return d == 1 ? n : q;
  }
};

/// One thread's merge assignment within a block-local pair of lists.
struct ThreadSplit {
  std::int64_t a_off = 0;   ///< a_i: offset of A_i within the pair's A list
  std::int64_t a_size = 0;  ///< |A_i|
  std::int64_t b_off = 0;   ///< b_i
  std::int64_t b_size = 0;  ///< |B_i|
};

/// List geometry of one lane of the lockstep search: each lane may work on
/// its own pair of lists (block sort rounds have several pairs per warp).
/// The shared-position translators are passed to warp_split_search as
/// inlineable callables, not stored per lane.
struct LanePair {
  std::int64_t na = 0;    ///< size of the lane's A list
  std::int64_t nb = 0;    ///< size of the lane's B list
  std::int64_t diag = 0;  ///< the lane's start diagonal within its pair
};

/// Merge-path splits of one warp's threads, from one lockstep search.
///
/// `pairs` holds w + 1 lanes: the warp's w threads plus the thread after
/// them (the next warp's first thread, or one past the tile).  Merge-path
/// partitions are contiguous, so thread l's end diagonal is thread l+1's
/// start diagonal and its end co-rank is thread l+1's start co-rank — one
/// search over w + 1 start diagonals resolves both ends of every split.  A
/// lane whose successor starts a new list pair (diag 0) ends at its own
/// pair end instead (co-rank na); both of those searches are empty.
///
/// Accounting: the device runs two lockstep searches per warp, start
/// diagonals then end diagonals, each round one kSearchIterInstrs, an A
/// probe row and a B probe row.  The host decides every lane on uncharged
/// peek() reads, then reports those rows through the charged, audited
/// SharedTile::charge_row_costed: the start rows are lanes [0, w) of each
/// round, the end rows lanes [1, w].  The end search of lane l is lane
/// l+1's start search step for step (or empty on both sides), so the
/// shifted rows are exactly what a second search would issue — without
/// assuming the comparison is monotone over the data.  Both rows of a
/// round are costed in one gpusim::shared_access_cost_pair pass.
///
/// `pos_a(lane, x)` / `pos_b(lane, y)` translate list offsets of lane
/// 0..w to physical shared positions.  Writes splits[0, w).
template <typename T, typename PosA, typename PosB, typename Cmp>
void warp_split_search(gpusim::BlockContext& ctx, int warp, gpusim::SharedTile<T>& shmem,
                       std::span<const LanePair> pairs, PosA&& pos_a, PosB&& pos_b, Cmp cmp,
                       std::span<ThreadSplit> splits) {
  constexpr std::size_t kRow = gpusim::kMaxLanes + 1;
  // Longest search supported: list pairs below 2^32 elements per side, far
  // beyond any shared-memory tile.
  constexpr int kMaxSearchRounds = 32;
  assert(pairs.size() >= 2 && pairs.size() <= kRow);
  const std::size_t w = pairs.size() - 1;
  assert(splits.size() >= w);

  std::array<std::int64_t, kRow> lo;
  std::array<std::int64_t, kRow> hi;
  std::int64_t widest = 0;
  for (std::size_t j = 0; j <= w; ++j) {
    lo[j] = std::max<std::int64_t>(0, pairs[j].diag - pairs[j].nb);
    hi[j] = std::min(pairs[j].diag, pairs[j].na);
    widest = std::max(widest, hi[j] - lo[j]);
  }
  const int max_rounds = std::bit_width(static_cast<std::uint64_t>(widest));
  if (max_rounds > kMaxSearchRounds)
    throw std::length_error("warp_split_search: list pair exceeds 2^32 elements");

  // Round r's probe positions of lane j, kInactiveLane once it is done.
  std::array<std::int64_t, kMaxSearchRounds * kRow> rows_a;
  std::array<std::int64_t, kMaxSearchRounds * kRow> rows_b;
  int start_rounds = 0;  // rounds with a probing lane in [0, w)
  int end_rounds = 0;    // rounds with a probing lane in [1, w]
  for (int r = 0; r < max_rounds; ++r) {
    std::int64_t* ra = rows_a.data() + static_cast<std::size_t>(r) * kRow;
    std::int64_t* rb = rows_b.data() + static_cast<std::size_t>(r) * kRow;
    for (std::size_t j = 0; j <= w; ++j) {
      if (lo[j] >= hi[j]) {
        ra[j] = gpusim::kInactiveLane;
        rb[j] = gpusim::kInactiveLane;
        continue;
      }
      if (j < w) start_rounds = r + 1;
      if (j > 0) end_rounds = r + 1;
      const std::int64_t mid = lo[j] + (hi[j] - lo[j]) / 2;
      ra[j] = pos_a(static_cast<int>(j), mid);
      rb[j] = pos_b(static_cast<int>(j), pairs[j].diag - 1 - mid);
      // Take A[mid] into the prefix unless B[diag-1-mid] < A[mid].
      if (cmp(shmem.peek(rb[j]), shmem.peek(ra[j])))
        hi[j] = mid;
      else
        lo[j] = mid + 1;
    }
  }

  // Cost both rows of every round first, then charge in device order.
  std::array<gpusim::SharedAccessPairCost, kMaxSearchRounds> cost_a;
  std::array<gpusim::SharedAccessPairCost, kMaxSearchRounds> cost_b;
  const int banks = ctx.lanes();
  for (int r = 0; r < std::max(start_rounds, end_rounds); ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * kRow;
    const auto ri = static_cast<std::size_t>(r);
    cost_a[ri] = gpusim::shared_access_cost_pair(
        std::span<const std::int64_t>(rows_a.data() + row, w + 1), banks);
    cost_b[ri] = gpusim::shared_access_cost_pair(
        std::span<const std::int64_t>(rows_b.data() + row, w + 1), banks);
  }

  const auto report = [&](int rounds, std::size_t first_lane,
                          gpusim::SharedAccessCost gpusim::SharedAccessPairCost::*side) {
    for (int r = 0; r < rounds; ++r) {
      const std::size_t row = static_cast<std::size_t>(r) * kRow + first_lane;
      const auto ri = static_cast<std::size_t>(r);
      ctx.charge_compute(warp, cost::kSearchIterInstrs);
      shmem.charge_row_costed(warp, std::span<const std::int64_t>(rows_a.data() + row, w),
                              cost_a[ri].*side, /*is_write=*/false);
      shmem.charge_row_costed(warp, std::span<const std::int64_t>(rows_b.data() + row, w),
                              cost_b[ri].*side, /*is_write=*/false);
    }
  };
  report(start_rounds, 0, &gpusim::SharedAccessPairCost::first);
  report(end_rounds, 1, &gpusim::SharedAccessPairCost::shifted);

  for (std::size_t l = 0; l < w; ++l) {
    const LanePair& p = pairs[l];
    const bool pair_end = pairs[l + 1].diag == 0;
    assert(pair_end || (pairs[l + 1].na == p.na && pairs[l + 1].nb == p.nb &&
                        pairs[l + 1].diag > p.diag));
    const std::int64_t end_diag = pair_end ? p.na + p.nb : pairs[l + 1].diag;
    const std::int64_t end_co = pair_end ? p.na : lo[l + 1];
    ThreadSplit& s = splits[l];
    s.a_off = lo[l];
    s.a_size = end_co - lo[l];
    s.b_off = p.diag - lo[l];
    s.b_size = end_diag - p.diag - s.a_size;
  }
}

}  // namespace cfmerge::sort
