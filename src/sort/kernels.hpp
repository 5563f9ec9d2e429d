// Building blocks shared by the simulated sort kernels.
//
// A block's A/B lists live in shared memory in a gather::PairLayout
// (linear for the baseline, rho(A ∪ pi(B)) for CF-Merge).  Two tile bodies
// build on them (merge_pass.hpp): the CF cascade and the sequential merge.
//
//  * FastDiv             — division by a loop-invariant divisor.
//  * read_block_record   — a block's lane-0 read of its own per-block
//                          record (tile descriptor, tile length).
//  * gather_probe_row    — a probe-row gather of a data-dependent search,
//                          costed without the conflict-free screen (the
//                          k-way thread search).
//  * warp_split_search   — Thrust's split search, one merge-path search per
//                          thread: a lockstep search over the warp's w
//                          start diagonals, a shuffle handing each lane its
//                          successor's co-rank as its end, and one lone
//                          bracketed search for the last lane's end;
//                          produces every thread's split (a_i, |A_i|, b_i,
//                          |B_i|), decided on uncharged reads and charged
//                          as the device's probe rows.  Its rows conflict.
//  * lattice_split_search — the CF cascade levels' split search over one pair
//                          in a CF layout: a w-ary and a lockstep search on
//                          the stride-E sample lattice bracket each co-rank
//                          to E candidates, a lockstep scan resolves it,
//                          then the same shuffle and lone search.  Every
//                          row is bank conflict free for every input.
//  * pair_split_search   — either warp search over every warp of P equal
//                          list pairs laid out back to back, thread i
//                          starting at offset i*E (a cascade stage and the
//                          baseline's merge window: P = 1; a serial
//                          block-sort round: P = tile / 2·run).
//  * warp_network_sort   — the register-network step: the odd-even network
//                          on each thread's E registers, charged per warp.
//  * cf_merge_pair       — the CF merge of one list pair (paper §5): the
//                          dual subsequence gather of the pair's threads
//                          into registers, then warp_network_sort.
//  * cf_cascade_levels   — the one in-shared CF merge: the levels of a
//                          CF cascade, each the lattice search and
//                          cf_merge_pair of every pair, then a rank
//                          scatter into the parents (the CF tile merge at
//                          any k, the no-rho ablation, the CF block-sort
//                          rounds).
//  * serial_merge_core   — the per-thread sequential merge out of shared
//                          memory over k sorted lists (Thrust's for k = 2;
//                          the routine whose bank conflicts the paper
//                          eliminates); decided lane by lane on uncharged
//                          reads, charged as the device's head and
//                          per-step fetch rows.
//  * serial_merge_pairs  — Thrust's merge of P equal linear list pairs:
//                          pair_split_search with Thrust's search, then
//                          serial_merge_core at k = 2 (the baseline's
//                          merge window, the serial block-sort rounds).
//  * multiway_thread_coranks — the k-way thread search of the sequential
//                          tile merge at k > 2 (before serial_merge_core's
//                          replacement selection), by the stride-halving
//                          multisequence selection detail::warp_multiseq_select
//                          that the k-way partition kernel also runs.
//
// Tile staging (global <-> shared copies) is cfprims::exec_staged_copy.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/multiway_schedule.hpp"
#include "gather/permutation.hpp"
#include "gather/schedule.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/certs.hpp"
#include "sort/cost_model.hpp"
#include "sort/key_value.hpp"
#include "sort/odd_even.hpp"
#include "verify/certificate.hpp"

namespace cfmerge::sort {

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

/// Charges a block's read of its own record of `bytes` bytes, entry `index`
/// of a device array (a tile descriptor, a tile's real length), on lane 0
/// of warp 0.  It is addressed by the block id alone, so it issues
/// non-dependent and adds no latency of its own.
inline void read_block_record(gpusim::BlockContext& ctx, std::int64_t index, int bytes) {
  std::array<std::int64_t, gpusim::kMaxLanes> addr;
  addr.fill(gpusim::kInactiveLane);
  addr[0] = index * bytes;
  ctx.charge_gmem(0,
                  std::span<const std::int64_t>(addr.data(), static_cast<std::size_t>(ctx.lanes())),
                  bytes, /*dependent=*/false);
}

/// A warp-wide probe read of a data-dependent search: SharedTile::gather,
/// costed by gpusim::shared_access_cost_dedup (probe rows usually conflict,
/// so the conflict-free screen would be wasted work).  The loser tree's
/// k-way thread search reads through it.
template <typename T>
void gather_probe_row(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem, int warp,
                      std::span<const std::int64_t> addrs, std::span<T> out, bool dependent) {
  assert(out.size() >= addrs.size());
  shmem.charge_row_costed(warp, addrs, gpusim::shared_access_cost_dedup(addrs, ctx.lanes()),
                          /*is_write=*/false, dependent);
  for (std::size_t l = 0; l < addrs.size(); ++l)
    if (addrs[l] != gpusim::kInactiveLane) out[l] = shmem.peek(addrs[l]);
}

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

namespace detail {
/// The conflict-free screen of one probe row, accumulated as its lanes are
/// placed: each bank remembers the first word an active lane reads in it,
/// and a later lane reading another word there marks a conflict (one
/// reading the same word is a broadcast).  cost() is
/// gpusim::shared_access_cost of the row: one cycle when no bank holds two
/// words, else the full costing.  Each cost() starts the next row.
class RowScreen {
 public:
  explicit RowScreen(int banks)
      : banks_(static_cast<std::uint64_t>(banks)),
        mask_(std::has_single_bit(banks_) ? banks_ - 1 : 0) {}
  /// Notes active lane address `a`; returns it.
  std::int64_t add(std::int64_t a) {
    const auto u = static_cast<std::uint64_t>(a);
    std::uint64_t bank;
    if (mask_ != 0) [[likely]]
      bank = u & mask_;
    else
      bank = u % banks_;
    const bool taken = (seen_ >> bank) & 1u;
    conflict_ |= taken & (word_[bank] != a);
    word_[bank] = taken ? word_[bank] : a;
    seen_ |= std::uint64_t{1} << bank;
    ++active_;
    return a;
  }
  gpusim::SharedAccessCost cost(std::span<const std::int64_t> row) {
    const gpusim::SharedAccessCost c =
        conflict_ ? gpusim::shared_access_cost(row, static_cast<int>(banks_))
                  : gpusim::SharedAccessCost{1, 0, active_};
    seen_ = 0;
    conflict_ = false;
    active_ = 0;
    return c;
  }

 private:
  std::uint64_t banks_;
  std::uint64_t mask_;
  std::uint64_t seen_ = 0;
  bool conflict_ = false;
  int active_ = 0;
  std::array<std::int64_t, gpusim::kMaxLanes> word_;
};

/// The tail of both warp searches, once lanes [0, w) hold their start
/// co-ranks `start`: one warp shuffle (kShuffleInstrs) hands lane l < w-1
/// lane l+1's start co-rank as its end co-rank; lane w-1 alone searches
/// lane w's diagonal, bracketed to [a, a + E] (a its own start co-rank, E
/// the diagonal distance) intersected with the diagonal's valid range: at
/// most bit_width(E) rounds, each one kSearchIterInstrs and two one-lane
/// rows (1 cycle, 0 conflicts).  A lane whose successor starts a new list
/// pair (diag 0) ends at its own pair end (co-rank na) and searches
/// nothing.  For a strict weak order the bracket holds lane w's co-rank.
/// Writes splits[0, w).
template <typename T, typename PosA, typename PosB, typename Cmp>
void finish_warp_splits(gpusim::BlockContext& ctx, int warp, gpusim::SharedTile<T>& shmem,
                        std::span<const LanePair> pairs, std::span<const std::int64_t> start,
                        PosA&& pos_a, PosB&& pos_b, Cmp cmp, std::span<ThreadSplit> splits) {
  const std::size_t w = pairs.size() - 1;
  ctx.charge_compute(warp, cost::kShuffleInstrs);

  // Lane w-1's end co-rank: its own pair end, or the lone bracketed search
  // over lane w's diagonal.
  const std::size_t last = w - 1;
  const LanePair& next = pairs[w];
  std::int64_t end_lo = pairs[last].na;
  if (next.diag != 0) {
    const std::int64_t e = next.diag - pairs[last].diag;
    std::int64_t end_hi = std::min({start[last] + e, next.diag, next.na});
    end_lo = std::max(start[last], next.diag - next.nb);
    std::array<std::int64_t, gpusim::kMaxLanes> lone;
    lone.fill(gpusim::kInactiveLane);
    const std::span<const std::int64_t> row(lone.data(), w);
    constexpr gpusim::SharedAccessCost kOneLane{1, 0, 1};
    while (end_lo < end_hi) {
      const std::int64_t mid = end_lo + (end_hi - end_lo) / 2;
      const std::int64_t pa = pos_a(static_cast<int>(w), mid);
      const std::int64_t pb = pos_b(static_cast<int>(w), next.diag - 1 - mid);
      ctx.charge_compute(warp, cost::kSearchIterInstrs);
      lone[last] = pa;
      shmem.charge_row_costed(warp, row, kOneLane, /*is_write=*/false);
      lone[last] = pb;
      shmem.charge_row_costed(warp, row, kOneLane, /*is_write=*/false);
      if (cmp(shmem.peek(pb), shmem.peek(pa)))
        end_hi = mid;
      else
        end_lo = mid + 1;
    }
  }

  for (std::size_t l = 0; l < w; ++l) {
    const LanePair& p = pairs[l];
    const bool pair_end = pairs[l + 1].diag == 0;
    assert(pair_end || (pairs[l + 1].na == p.na && pairs[l + 1].nb == p.nb &&
                        pairs[l + 1].diag > p.diag));
    const std::int64_t end_diag = pair_end ? p.na + p.nb : pairs[l + 1].diag;
    const std::int64_t end_co = l == last ? end_lo : pair_end ? p.na : start[l + 1];
    ThreadSplit& s = splits[l];
    s.a_off = start[l];
    s.a_size = end_co - start[l];
    s.b_off = p.diag - start[l];
    s.b_size = end_diag - p.diag - s.a_size;
  }
}
}  // namespace detail

/// Merge-path splits of one warp's threads: one lockstep search over the
/// start diagonals, a shuffle, and one lone search for the last lane.
///
/// `pairs` holds w + 1 lanes: the warp's w threads plus the thread after
/// them (the next warp's first thread, or one past the tile).  Merge-path
/// partitions are contiguous, so thread l's end co-rank is thread l+1's
/// start co-rank.  The device runs one search per thread:
///  * lanes [0, w) search their start diagonals in lockstep, each round one
///    kSearchIterInstrs, an A probe row and a B probe row;
///  * one warp shuffle hands lane l < w-1 lane l+1's start co-rank as its
///    end co-rank, and lane w-1 alone searches lane w's diagonal, bracketed
///    to [a, a + E] (detail::finish_warp_splits).
/// For a strict weak order every split equals the full search's.
///
/// The host decides every lane on uncharged peek() reads and reports each
/// round's rows, as they are decided, through the charged, audited
/// SharedTile::charge_row_costed: a start row costed by
/// gpusim::shared_access_cost_dedup, a one-lane row at its known cost.
///
/// `pos_a(lane, x)` / `pos_b(lane, y)` translate list offsets of lane
/// 0..w to physical shared positions.  Writes splits[0, w).
template <typename T, typename PosA, typename PosB, typename Cmp>
void warp_split_search(gpusim::BlockContext& ctx, int warp, gpusim::SharedTile<T>& shmem,
                       std::span<const LanePair> pairs, PosA&& pos_a, PosB&& pos_b, Cmp cmp,
                       std::span<ThreadSplit> splits) {
  // Longest search supported: list pairs below 2^32 elements per side, far
  // beyond any shared-memory tile.
  constexpr int kMaxSearchRounds = 32;
  assert(pairs.size() >= 2 && pairs.size() <= gpusim::kMaxLanes + 1);
  const std::size_t w = pairs.size() - 1;
  assert(splits.size() >= w);

  std::array<std::int64_t, gpusim::kMaxLanes> lo;
  std::array<std::int64_t, gpusim::kMaxLanes> hi;
  std::int64_t widest = 0;
  for (std::size_t j = 0; j < w; ++j) {
    lo[j] = std::max<std::int64_t>(0, pairs[j].diag - pairs[j].nb);
    hi[j] = std::min(pairs[j].diag, pairs[j].na);
    widest = std::max(widest, hi[j] - lo[j]);
  }
  if (std::bit_width(static_cast<std::uint64_t>(widest)) > kMaxSearchRounds)
    throw std::length_error("warp_split_search: list pair exceeds 2^32 elements");

  // Each round's probe positions, kInactiveLane for a lane that is done.
  std::array<std::int64_t, gpusim::kMaxLanes> ra;
  std::array<std::int64_t, gpusim::kMaxLanes> rb;
  const std::span<const std::int64_t> row_a(ra.data(), w);
  const std::span<const std::int64_t> row_b(rb.data(), w);
  for (;;) {
    bool probing = false;
    for (std::size_t j = 0; j < w; ++j) {
      if (lo[j] >= hi[j]) {
        ra[j] = gpusim::kInactiveLane;
        rb[j] = gpusim::kInactiveLane;
        continue;
      }
      probing = true;
      const std::int64_t mid = lo[j] + (hi[j] - lo[j]) / 2;
      ra[j] = pos_a(static_cast<int>(j), mid);
      rb[j] = pos_b(static_cast<int>(j), pairs[j].diag - 1 - mid);
      // Take A[mid] into the prefix unless B[diag-1-mid] < A[mid].
      if (cmp(shmem.peek(rb[j]), shmem.peek(ra[j])))
        hi[j] = mid;
      else
        lo[j] = mid + 1;
    }
    if (!probing) break;
    // Probe rows usually conflict: cost them without the conflict-free screen.
    ctx.charge_compute(warp, cost::kSearchIterInstrs);
    shmem.charge_row_costed(warp, row_a, gpusim::shared_access_cost_dedup(row_a, ctx.lanes()),
                            /*is_write=*/false);
    shmem.charge_row_costed(warp, row_b, gpusim::shared_access_cost_dedup(row_b, ctx.lanes()),
                            /*is_write=*/false);
  }

  detail::finish_warp_splits(ctx, warp, shmem, pairs,
                             std::span<const std::int64_t>(lo.data(), w), pos_a, pos_b, cmp,
                             splits);
}

/// Merge-path splits of one warp's threads over one list pair in a CF
/// layout rho(A ∪ pi(B)) at a wE-aligned base, bank conflict free for every
/// input: the split search of every CF cascade level (cf_cascade_levels).
///
/// `pairs` is as for warp_split_search, with lanes [0, w) in one pair and
/// lane l on diagonal d_l = d_0 + l·E (lane w: the next thread, or a new
/// pair).  T_l(x) — "B[d_l − 1 − x] < A[x]" — holds iff lane l's co-rank is
/// at most x, for x in the diagonal's valid range [lo_l, hi_l).  Let J_l be
/// the first sample index j with jE in that range and T_l(jE), or
/// ⌈hi_l / E⌉ if none: the co-rank lies in the window
/// [max(lo_l, (J_l − 1)E + 1), min(hi_l, J_l·E)], at most E co-ranks.  The
/// device runs, each round one kSearchIterInstrs, an A probe row and a B
/// probe row:
///  1. J_0 by a warp-cooperative w-ary search: with J_0 in [a, b], lane q
///     probes sample a + s(q + 1) − 1 < b, s the least stride at least
///     ⌈(b − a) / w⌉ coprime to w; the first lane whose test holds leaves
///     its stride's s samples, none leaves the tail (about 2 rounds);
///  2. J_l for l ≥ 1 by one lockstep binary search: co-ranks grow by at
///     most E per lane, so J_l lies in [J_0, J_0 + l] (at most
///     bit_width(w − 1) rounds);
///  3. the co-rank by a lockstep scan of offsets c = 1 … E − 1: lane l
///     probes x = (J_l − 1)E + c within its window until its test holds,
///     and its co-rank is that x, else the window's top;
///  4. the shuffle and lone end search of warp_split_search
///     (detail::finish_warp_splits).
/// In rounds 1 and 2 the A row waits for the previous decision (dependent)
/// and the B row issues with it; the scan's addresses are known when it
/// starts, so only its first A row is dependent.
///
/// Conflict freedom: x and B's raw offset la + lb − d_l + x are both c + jE
/// for one c per row (la + lb and d_l are multiples of E), and the distinct
/// j of a row are an arithmetic progression with a stride coprime to w
/// (round 1) or lie in w consecutive integers (rounds 2 and 3).  The gcd
/// law (Fig. 1, Corollary 3) puts such offsets in distinct banks when
/// gcd(w, E) = 1, and rho does so otherwise; lanes reading one word
/// broadcast.  Each row is screened as its lanes are placed
/// (detail::RowScreen), costed in full only if a bank holds two words.
///
/// The host decides every lane on uncharged peek() reads and charges each
/// round's rows as they are decided.  Writes splits[0, w).
template <typename T, typename PosA, typename PosB, typename Cmp>
void lattice_split_search(gpusim::BlockContext& ctx, int warp, gpusim::SharedTile<T>& shmem,
                          std::span<const LanePair> pairs, PosA&& pos_a, PosB&& pos_b, Cmp cmp,
                          std::span<ThreadSplit> splits) {
  assert(pairs.size() >= 3 && pairs.size() <= gpusim::kMaxLanes + 1);
  const std::size_t w = pairs.size() - 1;
  const auto lw = static_cast<std::int64_t>(w);
  assert(splits.size() >= w);
  const std::int64_t na = pairs[0].na;
  const std::int64_t nb = pairs[0].nb;
  const std::int64_t e = pairs[1].diag - pairs[0].diag;
  const auto ceil_e = [e](std::int64_t x) { return (x + e - 1) / e; };

  // Each round's probe positions, kInactiveLane for an idle lane.
  std::array<std::int64_t, gpusim::kMaxLanes> ra;
  std::array<std::int64_t, gpusim::kMaxLanes> rb;
  const std::span<const std::int64_t> row_a(ra.data(), w);
  const std::span<const std::int64_t> row_b(rb.data(), w);
  const auto idle = [&](std::size_t l) {
    ra[l] = gpusim::kInactiveLane;
    rb[l] = gpusim::kInactiveLane;
  };
  detail::RowScreen screen_a(ctx.lanes());
  detail::RowScreen screen_b(ctx.lanes());
  // Lane l's probe at co-rank x on diagonal d, screened as it is placed;
  // the test reads the words.
  const auto place = [&](std::size_t l, std::int64_t d, std::int64_t x) {
    ra[l] = screen_a.add(pos_a(0, x));
    rb[l] = screen_b.add(pos_b(0, d - 1 - x));
  };
  const auto test = [&](std::size_t l) { return cmp(shmem.peek(rb[l]), shmem.peek(ra[l])); };
  const auto charge_round = [&](bool dependent) {
    ctx.charge_compute(warp, cost::kSearchIterInstrs);
    shmem.charge_row_costed(warp, row_a, screen_a.cost(row_a), /*is_write=*/false, dependent);
    shmem.charge_row_costed(warp, row_b, screen_b.cost(row_b), /*is_write=*/false,
                            /*dependent=*/false);
  };

  // 1. Lane 0's sample co-rank J_0, in [ja, jb].
  const std::int64_t d0 = pairs[0].diag;
  std::int64_t ja = ceil_e(std::max<std::int64_t>(0, d0 - nb));
  std::int64_t jb = ceil_e(std::min(d0, na));
  while (ja < jb) {
    std::int64_t s = (jb - ja + lw - 1) / lw;
    while (std::gcd(s, lw) != 1) ++s;
    std::int64_t hit = -1;
    std::int64_t top = ja - 1;
    for (std::size_t q = 0; q < w; ++q) {
      const std::int64_t j = ja + s * static_cast<std::int64_t>(q + 1) - 1;
      if (j >= jb) {
        idle(q);
        continue;
      }
      top = j;
      place(q, d0, j * e);
      if (hit < 0 && test(q)) hit = j;
    }
    charge_round(/*dependent=*/true);
    if (hit >= 0) {
      ja = hit - s + 1;
      jb = hit;
    } else {
      ja = top + 1;
    }
  }

  // 2. J_l in [max(J_0, first sample), min(J_0 + l, last sample + 1)]:
  // diagonal d_l is d_0 + l·E, so lane l's first sample is lane 0's plus l
  // (0 at the least) and its last sample + 1 is min(d_l / E, ⌈na / E⌉).
  const std::int64_t under = d0 - nb;  // d_0 − nb, maybe negative
  const std::int64_t first0 = under > 0 ? ceil_e(under) : -(-under / e);
  const std::int64_t sample0 = d0 / e;
  const std::int64_t samples_a = ceil_e(na);
  std::array<std::int64_t, gpusim::kMaxLanes> jlo;
  std::array<std::int64_t, gpusim::kMaxLanes> jhi;
  for (std::size_t l = 0; l < w; ++l) {
    const auto il = static_cast<std::int64_t>(l);
    jlo[l] = std::max({ja, first0 + il, std::int64_t{0}});
    jhi[l] = std::max(jlo[l], std::min({ja + il, sample0 + il, samples_a}));
  }
  for (;;) {
    bool probing = false;
    for (std::size_t l = 0; l < w; ++l) {
      if (jlo[l] >= jhi[l]) {
        idle(l);
        continue;
      }
      probing = true;
      const std::int64_t mid = jlo[l] + (jhi[l] - jlo[l]) / 2;
      place(l, pairs[l].diag, mid * e);
      if (test(l))
        jhi[l] = mid;
      else
        jlo[l] = mid + 1;
    }
    if (!probing) break;
    charge_round(/*dependent=*/true);
  }

  // 3. The scan of each lane's window [first, top]: lane l probes x from
  // first on until its test holds (start = x, its co-rank) or x reaches
  // start = top.
  std::array<std::int64_t, gpusim::kMaxLanes> first;
  std::array<std::int64_t, gpusim::kMaxLanes> start;
  for (std::size_t l = 0; l < w; ++l) {
    const std::int64_t d = pairs[l].diag;
    first[l] = std::max(std::max<std::int64_t>(0, d - nb), (jlo[l] - 1) * e + 1);
    start[l] = std::min(std::min(d, na), jlo[l] * e);
  }
  bool dependent = true;
  for (std::int64_t c = 1; c < e; ++c) {
    bool probing = false;
    for (std::size_t l = 0; l < w; ++l) {
      const std::int64_t x = (jlo[l] - 1) * e + c;
      if (x < first[l] || x >= start[l]) {
        idle(l);
        continue;
      }
      probing = true;
      place(l, pairs[l].diag, x);
      if (test(l)) start[l] = x;
    }
    if (!probing) continue;
    charge_round(dependent);
    dependent = false;
  }

  detail::finish_warp_splits(ctx, warp, shmem, pairs,
                             std::span<const std::int64_t>(start.data(), w), pos_a, pos_b, cmp,
                             splits);
}

/// The warp search pair_split_search runs: warp_split_search (Thrust's
/// merge-path search, any layout) or lattice_split_search (one pair in a CF
/// layout).
enum class SplitSearch { kMergePath, kLattice };

/// Merge-path splits of the vwarps*w threads of `npairs` equal list pairs
/// (na, nb) laid out back to back: thread i starts at offset i*E of the
/// concatenation, E = npairs*(na + nb) / (vwarps*w), and every pair starts
/// on a thread boundary.  Virtual warp vw searches on physical warp
/// warp_of(vw); pos_a(pair_base, x) / pos_b(pair_base, y) translate offsets
/// of the pair starting at offset pair_base to physical shared positions.
/// The merge window and a cascade stage are one pair; a serial block-sort
/// round at run length r is tile / 2r pairs of (r, r).  Each warp runs
/// kSearch (the lattice search needs one pair in a CF layout).
template <SplitSearch kSearch = SplitSearch::kMergePath, typename T, typename WarpOf,
          typename PosA, typename PosB, typename Cmp>
std::vector<ThreadSplit> pair_split_search(gpusim::BlockContext& ctx,
                                           gpusim::SharedTile<T>& shmem, std::int64_t npairs,
                                           std::int64_t na, std::int64_t nb, int vwarps,
                                           WarpOf&& warp_of, PosA&& pos_a, PosB&& pos_b,
                                           Cmp cmp) {
  const int w = ctx.lanes();
  const auto threads = static_cast<std::size_t>(vwarps) * static_cast<std::size_t>(w);
  const std::int64_t pair_len = na + nb;
  assert(kSearch == SplitSearch::kMergePath || npairs == 1);
  assert(threads > 0 && npairs > 0 &&
         npairs * pair_len % static_cast<std::int64_t>(threads) == 0);
  const std::int64_t e = npairs * pair_len / static_cast<std::int64_t>(threads);
  assert(pair_len % e == 0);
  const FastDiv div_pair(pair_len);
  // Lane w is the next warp's first thread (one past the last pair for the
  // last warp, where it starts a new pair: warp_split_search then ends lane
  // w-1 at its own pair end).
  std::array<std::int64_t, gpusim::kMaxLanes + 1> pbase;
  const auto lane_a = [&](int lane, std::int64_t x) {
    return pos_a(pbase[static_cast<std::size_t>(lane)], x);
  };
  const auto lane_b = [&](int lane, std::int64_t y) {
    return pos_b(pbase[static_cast<std::size_t>(lane)], y);
  };
  std::vector<ThreadSplit> splits(threads);
  std::array<LanePair, gpusim::kMaxLanes + 1> pairs;
  for (int vw = 0; vw < vwarps; ++vw) {
    for (int lane = 0; lane <= w; ++lane) {
      const std::int64_t out0 = static_cast<std::int64_t>(vw * w + lane) * e;
      const auto l = static_cast<std::size_t>(lane);
      pbase[l] = div_pair(out0) * pair_len;
      pairs[l] = {na, nb, out0 - pbase[l]};
    }
    const auto lanes =
        std::span<const LanePair>(pairs.data(), static_cast<std::size_t>(w) + 1);
    const auto out = std::span<ThreadSplit>(splits).subspan(static_cast<std::size_t>(vw * w),
                                                            static_cast<std::size_t>(w));
    if constexpr (kSearch == SplitSearch::kLattice)
      lattice_split_search(ctx, warp_of(vw), shmem, lanes, lane_a, lane_b, cmp, out);
    else
      warp_split_search(ctx, warp_of(vw), shmem, lanes, lane_a, lane_b, cmp, out);
  }
  return splits;
}

/// The Algorithm 1 round schedule of one list pair in `layout` from the
/// merge-path splits of its threads (layout.size() = splits.size() * E).
inline gather::RoundSchedule pair_schedule(int w, const gather::PairLayout& layout,
                                           std::span<const ThreadSplit> splits) {
  const std::size_t u = splits.size();
  std::vector<std::int64_t> a_off(u);
  std::vector<std::int64_t> a_size(u);
  for (std::size_t i = 0; i < u; ++i) {
    a_off[i] = splits[i].a_off;
    a_size[i] = splits[i].a_size;
  }
  const auto e = static_cast<int>(layout.size() / static_cast<std::int64_t>(u));
  const gather::GatherShape shape{w, e, static_cast<int>(u), layout.la(), layout.lb()};
  return gather::RoundSchedule(shape, layout, std::move(a_off), std::move(a_size));
}

/// The register-network step: sorts the E registers of every thread of
/// `vwarps` virtual warps (thread-major, regs[(vw*w + lane)*E + j], E =
/// regs.size() / (vwarps*w)) with the odd-even network, charging each
/// virtual warp's network to physical warp warp_of(vw).
template <typename T, typename WarpOf, typename Cmp>
void warp_network_sort(gpusim::BlockContext& ctx, int vwarps, WarpOf&& warp_of,
                       std::span<T> regs, Cmp cmp) {
  if (vwarps <= 0) return;
  const auto w = static_cast<std::size_t>(ctx.lanes());
  const std::size_t e = regs.size() / (static_cast<std::size_t>(vwarps) * w);
  assert(e * static_cast<std::size_t>(vwarps) * w == regs.size());
  const std::uint64_t instrs = static_cast<std::uint64_t>(odd_even_network_size(
                                   static_cast<std::int64_t>(e))) *
                               cost::kCompareExchangeInstrs;
  for (int vw = 0; vw < vwarps; ++vw) {
    for (std::size_t lane = 0; lane < w; ++lane)
      network_sort_result(regs.subspan((static_cast<std::size_t>(vw) * w + lane) * e, e), cmp);
    ctx.charge_compute(warp_of(vw), instrs);
  }
}

/// The CF merge of one list pair (paper §5): the pair's threads gather
/// their merge-path subsequences from its `layout` at shared offset `base`
/// (cfprims::exec_cf_gather), then run the register network, leaving
/// thread i's E merged outputs in regs[i*E, i*E + E).  The layout is
/// rho(A ∪ pi(B)), or PairLayout::cf_no_rho for the no-rho ablation.
/// `splits` holds one split per thread (a multiple of w threads;
/// layout.size() = splits.size() * E = regs.size()); virtual warp vw issues
/// on physical warp warp_of(vw).  `cert` is the cf_gather certificate
/// (null: lane path).
template <typename T, typename WarpOf, typename Cmp>
void cf_merge_pair(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem, std::int64_t base,
                   const gather::PairLayout& layout, std::span<const ThreadSplit> splits,
                   const verify::CfCertificate* cert, WarpOf&& warp_of, std::span<T> regs,
                   Cmp cmp) {
  const int w = ctx.lanes();
  cfprims::exec_cf_gather(ctx, shmem, pair_schedule(w, layout, splits), base, cert, warp_of,
                          regs);
  warp_network_sort(ctx, static_cast<int>(splits.size()) / w, warp_of, regs,
                    padding_last<T>(cmp));
}

/// The phases cf_cascade_levels charges its split search, its pair merges
/// and its rank scatters to.
struct CascadePhases {
  const char* search;
  const char* merge;
  const char* scatter;
};

/// The levels of a CF cascade (gather/multiway_schedule.hpp), in place in
/// `shmem`, whose level-0 pairs already hold their lists in their
/// rho(A ∪ pi(B)) regions: the one in-shared CF merge of the merge kernels
/// (cf_cascade_core) and the CF block-sort rounds.  A parent pair's region
/// is the union of its children's, so each level first runs the 2-way CF
/// merge of every non-empty pair into registers — its lattice split search,
/// then cf_merge_pair — passes a barrier, and only then rank-scatters every
/// pair into its parent's layout and passes another barrier.  A pair of pad
/// elements runs pad/E virtual threads on the block's physical warps
/// round-robin, the level's virtual warps from base/wE on, and holds its
/// registers in regfile[base, base + pad).  The root's merged ranks are
/// left in regfile[0, plan.padded_len()), thread-major, past the barrier
/// that closes its gathers; the caller writes them back.
template <typename T, typename Cmp>
void cf_cascade_levels(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                       const gather::CascadePlan& plan, std::span<T> regfile,
                       const TileCerts& certs, const CascadePhases& phases, Cmp cmp) {
  const int w = ctx.lanes();
  const std::int64_t we = static_cast<std::int64_t>(w) * plan.e();
  // Hands fn a non-empty pair's index, its virtual warps, their map onto
  // physical warps and its registers.
  const auto each_pair = [&](int level, auto&& fn) {
    const auto& prs = plan.pairs(level);
    for (std::size_t p = 0; p < prs.size(); ++p) {
      const std::int64_t pad = prs[p].layout.size();
      if (pad == 0) continue;
      fn(static_cast<int>(p), prs[p], static_cast<int>(pad / we),
         [&ctx, first = prs[p].base / we](int vw) {
           return static_cast<int>((first + vw) % ctx.warps());
         },
         regfile.subspan(static_cast<std::size_t>(prs[p].base),
                         static_cast<std::size_t>(pad)));
    }
  };
  for (int level = 0; level < plan.levels(); ++level) {
    each_pair(level, [&](int, const gather::CascadePair& pr, int vwarps, auto warp_of,
                         std::span<T> regs) {
      // Per-virtual-thread merge-path splits within the pair.
      ctx.phase(phases.search);
      const std::vector<ThreadSplit> splits = pair_split_search<SplitSearch::kLattice>(
          ctx, shmem, /*npairs=*/1, pr.layout.la(), pr.layout.lb(), vwarps, warp_of,
          [pr](std::int64_t, std::int64_t x) { return pr.pos_a(x); },
          [pr](std::int64_t, std::int64_t y) { return pr.pos_b(y); }, cmp);
      // Dual subsequence gather + register network (the proven 2-way core).
      // Each pair is an instance of the proven 2-way schedule at a constant
      // buffer offset (a uniform shift preserves bank distinctness), so the
      // cf_gather certificate applies per pair.
      ctx.phase(phases.merge);
      cf_merge_pair(ctx, shmem, pr.base, pr.layout, std::span<const ThreadSplit>(splits),
                    certs.gather, warp_of, regs, cmp);
    });
    // Every pair's gathers precede any scatter into the regions they read.
    ctx.barrier();
    if (level + 1 == plan.levels()) return;
    // Inter-stage rank scatter: rank r = iE + j of pair p lands at the
    // parent's pos_a/pos_b(r) — data independent, so each round is a
    // stride-E progression through rho' and conflict free.  The
    // cf_rank_scatter primitive at gather cadence: the per-thread setup
    // computes the parent's pos_a/pos_b bounds.  The cascade proof
    // (verify/multiway.cpp) cites the cf_rank_scatter certificate for the
    // piecewise parent map, both scatter directions included.
    ctx.phase(phases.scatter);
    each_pair(level, [&](int p, const gather::CascadePair&, int vwarps, auto warp_of,
                         std::span<T> regs) {
      cfprims::exec_crs_scatter(
          ctx, shmem, w, plan.e(), vwarps, cfprims::kGatherCharge, certs.rank_scatter, warp_of,
          [&](int vw, int lane, int j) {
            const std::int64_t r = static_cast<std::int64_t>(vw * w + lane) * plan.e() + j;
            return plan.scatter_pos(level, p, r);
          },
          std::span<const T>(regs));
    });
    ctx.barrier();
  }
}

/// Largest number of lists one sequential merge (and one k-way pass)
/// merges: bounds serial_merge_core's per-lane head and offset arrays.
inline constexpr int kMaxMultiwayK = 16;

/// One thread's window into one list of a sequential merge: list offsets
/// [begin, end).
struct ListWindow {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// The window of ThreadSplit `t` into list s of its pair (0 = A, 1 = B).
[[nodiscard]] inline ListWindow split_window(const ThreadSplit& t, int s) {
  return s == 0 ? ListWindow{t.a_off, t.a_off + t.a_size}
                : ListWindow{t.b_off, t.b_off + t.b_size};
}

/// Instructions a sequential merge charges per warp: `setup` once, `head`
/// before each head row and `step` before each fetch row.
struct SerialMergeCharge {
  std::uint64_t setup = 0;
  std::uint64_t head = 0;
  std::uint64_t step = 0;
};

/// The 2-way baseline's charges: the thread setup, then one merge step per
/// output (the head reads issue with the setup).
inline constexpr SerialMergeCharge kPairMergeCharge{cost::kThreadSetupInstrs, 0,
                                                     cost::kMergeStepInstrs};

/// The per-thread sequential merge out of shared memory, over k sorted
/// lists: every thread of the first regs.size() / (w*E) warps merges its
/// windows into its E outputs, regs[i*E, i*E + E).  `window(i, s)` is
/// thread i's ListWindow into list s, `pos(s, x)` the shared position of
/// list s's element at offset x.  The windows of a thread hold E elements
/// in all.  K > 0 fixes the list count
/// at compile time (the 2-way baseline); K = 0 takes it from `k` (at most
/// kMaxMultiwayK).  Each output is the smallest head, ties going to the
/// lowest list.
///
/// Accounting: per warp the device issues the k head rows, then one row per
/// output step fetching the successor of each lane's consumed head
/// (inactive once that list is exhausted; a step in which every lane is
/// exhausted charges nothing, but the auditor still sees it).  The fetch
/// addresses are data dependent, so a step's w fetches can collide in one
/// bank — up to w-fold serialization (the paper's Section 4 inputs force
/// exactly this).  The host decides first: lane by lane, it merges the
/// lane's E outputs with its k heads and offsets held in locals, peek()ing
/// only the successor it fetched, and fills the warp's (k + E) x w address
/// table.  Then it charges the rows in device order through
/// SharedTile::charge_row_costed, with the instructions of `charge`.  The
/// windows are disjoint merge-path partitions and the lists occupy disjoint
/// positions, so no two active lanes of a row share an address: each row is
/// costed by gpusim::shared_access_cost_distinct.
template <int K, typename T, typename Window, typename Pos, typename Cmp>
void serial_merge_core(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem, int k, int e,
                       Window&& window, Pos&& pos, const SerialMergeCharge& charge,
                       std::span<T> regs, Cmp cmp) {
  static_assert(K >= 0 && K <= kMaxMultiwayK);
  constexpr std::size_t kSlots = K > 0 ? K : kMaxMultiwayK;
  constexpr auto kIdle = gpusim::kInactiveLane;
  const int w = ctx.lanes();
  const auto lk = static_cast<std::size_t>(K > 0 ? K : k);
  const auto lw = static_cast<std::size_t>(w);
  const auto le = static_cast<std::size_t>(e);
  const auto warps = static_cast<int>(regs.size() / (lw * le));
  assert(lk >= 1 && lk <= kSlots && w <= gpusim::kMaxLanes);
  assert(static_cast<std::size_t>(warps) * lw * le == regs.size() && warps <= ctx.warps());

  // Row r at [r * w, r * w + w): rows [0, k) the list heads, row k + s the
  // fetches of step s.
  std::vector<std::int64_t> table((lk + le) * lw);
  for (int warp = 0; warp < warps; ++warp) {
    for (std::size_t l = 0; l < lw; ++l) {
      const int i = warp * w + static_cast<int>(l);
      std::array<std::int64_t, kSlots> ptr;
      std::array<std::int64_t, kSlots> end;
      std::array<T, kSlots> head;
      for (std::size_t s = 0; s < lk; ++s) {
        const ListWindow win = window(i, static_cast<int>(s));
        ptr[s] = win.begin;
        end[s] = win.end;
        const std::int64_t at = ptr[s] < end[s] ? pos(static_cast<int>(s), ptr[s]) : kIdle;
        table[s * lw + l] = at;
        // An empty list's head reads word 0 instead; the selection never
        // takes it.
        head[s] = shmem.peek(at == kIdle ? 0 : at);
      }
      T* o = regs.data() + static_cast<std::size_t>(i) * le;
      std::int64_t* fetch = table.data() + lk * lw + l;
      for (std::size_t step = 0; step < le; ++step, fetch += lw) {
        std::size_t best = 0;
        T min = head[0];
        bool found = false;
        for (std::size_t s = 0; s < lk; ++s) {
          const bool live = ptr[s] < end[s];
          const bool take = live & (!found | cmp(head[s], min));
          best = take ? s : best;
          min = take ? head[s] : min;
          found |= live;
        }
        assert(found);
        o[step] = min;
        // Advance the taken list: one select per list, so that with K fixed
        // the lane's offsets and heads stay in registers.
        std::int64_t off = 0;
        std::int64_t stop = 0;
        for (std::size_t s = 0; s < lk; ++s) {
          const bool hit = s == best;
          ptr[s] += hit;
          off = hit ? ptr[s] : off;
          stop = hit ? end[s] : stop;
        }
        const bool more = off < stop;
        const std::int64_t next = more ? pos(static_cast<int>(best), off) : kIdle;
        *fetch = next;
        // An exhausted list's head is never selected again.
        const T fetched = shmem.peek(more ? next : 0);
        for (std::size_t s = 0; s < lk; ++s) head[s] = s == best ? fetched : head[s];
      }
    }

    const auto charge_row = [&](std::size_t r) {
      const std::span<const std::int64_t> row(table.data() + r * lw, lw);
      shmem.charge_row_costed(warp, row, gpusim::shared_access_cost_distinct(row, w),
                              /*is_write=*/false);
    };
    ctx.charge_compute(warp, charge.setup);
    for (std::size_t s = 0; s < lk; ++s) {
      ctx.charge_compute(warp, charge.head);
      charge_row(s);
    }
    for (std::size_t step = 0; step < le; ++step) {
      ctx.charge_compute(warp, charge.step);
      charge_row(lk + step);
    }
  }
}

/// Thrust's merge of the P = regs.size() / (na + nb) equal list pairs
/// (na, nb) laid out linearly and back to back in `shmem` from offset 0:
/// pair p's A list at p(na + nb), its B list na further on.  Under phase
/// `search_phase`, pair_split_search with Thrust's search finds every
/// thread's split; under `merge_phase`, serial_merge_core<2> merges each
/// thread's windows into its E outputs, regs[iE, iE + E), charged as
/// kPairMergeCharge.  The threads are those of the first regs.size() / (wE)
/// warps, none when regs is empty.  The baseline's merge window (P = 1,
/// serial_window_core) and every serial block-sort round (P = tile / 2·run
/// pairs of (run, run)) run it.
template <typename T, typename Cmp>
void serial_merge_pairs(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                        std::int64_t na, std::int64_t nb, int e, std::span<T> regs,
                        const char* search_phase, const char* merge_phase, Cmp cmp) {
  const std::int64_t pair_len = na + nb;
  const auto elems = static_cast<std::int64_t>(regs.size());
  const auto warps = static_cast<int>(elems / (static_cast<std::int64_t>(ctx.lanes()) * e));
  ctx.phase(search_phase);
  std::vector<ThreadSplit> splits;
  if (warps > 0)
    splits = pair_split_search(
        ctx, shmem, elems / pair_len, na, nb, warps, cfprims::same_warp,
        [](std::int64_t pair_base, std::int64_t x) { return pair_base + x; },
        [na](std::int64_t pair_base, std::int64_t y) { return pair_base + na + y; }, cmp);
  ctx.phase(merge_phase);
  if (warps == 0) return;
  // Thread i's pair starts at the multiple of na + nb below iE: its A list
  // there, its B list na further on.
  const FastDiv div_pair(pair_len);
  serial_merge_core<2>(
      ctx, shmem, 2, e,
      [&](int i, int s) {
        const std::int64_t list0 =
            div_pair(static_cast<std::int64_t>(i) * e) * pair_len + s * na;
        const ListWindow win = split_window(splits[static_cast<std::size_t>(i)], s);
        return ListWindow{list0 + win.begin, list0 + win.end};
      },
      [](int, std::int64_t x) { return x; }, kPairMergeCharge, regs, cmp);
}

/// Boundaries one warp resolves at once in warp_multiseq_select: one lane
/// per (boundary, sequence), at least one boundary per warp.
[[nodiscard]] inline int selections_per_warp(int w, int k) { return std::max(1, w / k); }
static_assert(kMaxMultiwayK <= gpusim::kMaxLanes, "one selection's slots fit a lane array");

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

/// The k-way thread search of the sequential tile merge (serial_window_core
/// at k > 2, the LoserTree's): the co-rank vector of every thread's start
/// diagonal i*E in the block's tile, staged linearly in `shmem` (segment s
/// at seg_off[s], seg_len[s] long), by detail::warp_multiseq_select.  Each
/// warp resolves its w threads in groups of selections_per_warp(w, k); the
/// probes are data-dependent shared reads (gather_probe_row).  Returns the
/// flat u x k table co[i*k + s].
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
            gather_probe_row(ctx, shmem, warp, addrs, vals, dependent);
          },
          cmp, std::span<std::int64_t>(co).subspan(static_cast<std::size_t>(t0 * k), slots));
    }
  }
  return co;
}

}  // namespace cfmerge::sort
