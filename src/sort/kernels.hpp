// Building blocks shared by the simulated sort kernels.
//
// A block's A/B lists live in shared memory in a gather::PairLayout
// (linear for the baseline, rho(A ∪ pi(B)) for CF-Merge).
//
//  * FastDiv             — division by a loop-invariant divisor.
//  * read_block_record   — a block's lane-0 read of its own per-block
//                          record (tile descriptor, tile length).
//  * warp_split_search   — one lockstep merge-path search per warp over the
//                          w thread start diagonals plus the next thread's,
//                          producing every thread's split (a_i, |A_i|, b_i,
//                          |B_i|); decided on uncharged reads, charged as
//                          the device's start and end probe rows (each
//                          round's pair costed in one pass).
//  * pair_split_search   — warp_split_search over every warp of P equal
//                          list pairs laid out back to back, thread i
//                          starting at offset i*E (the merge window and a
//                          cascade stage: P = 1; a block-sort round: P =
//                          tile / 2·run).
//  * warp_network_sort   — the register-network step: the odd-even network
//                          on each thread's E registers, charged per warp.
//  * cf_merge_pair       — the CF merge of one list pair (paper §5): the
//                          dual subsequence gather of the pair's threads
//                          into registers, then warp_network_sort.
//  * serial_merge_core   — the per-thread sequential merge out of shared
//                          memory over k sorted lists (Thrust's for k = 2;
//                          the routine whose bank conflicts the paper
//                          eliminates); decided lane by lane on uncharged
//                          reads, charged as the device's head and
//                          per-step fetch rows.  The 2-way baseline (the
//                          merge window, the block-sort rounds, over
//                          ThreadSplit windows) and the LoserTree's
//                          replacement selection run through it.
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
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/permutation.hpp"
#include "gather/schedule.hpp"
#include "gpusim/memory_views.hpp"
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

/// Merge-path splits of the vwarps*w threads of `npairs` equal list pairs
/// (na, nb) laid out back to back: thread i starts at offset i*E of the
/// concatenation, E = npairs*(na + nb) / (vwarps*w), and every pair starts
/// on a thread boundary.  Virtual warp vw searches on physical warp
/// warp_of(vw); pos_a(pair_base, x) / pos_b(pair_base, y) translate offsets
/// of the pair starting at offset pair_base to physical shared positions.
/// The merge window and a cascade stage are one pair; a block-sort round at
/// run length r is tile / 2r pairs of (r, r).
template <typename T, typename WarpOf, typename PosA, typename PosB, typename Cmp>
std::vector<ThreadSplit> pair_split_search(gpusim::BlockContext& ctx,
                                           gpusim::SharedTile<T>& shmem, std::int64_t npairs,
                                           std::int64_t na, std::int64_t nb, int vwarps,
                                           WarpOf&& warp_of, PosA&& pos_a, PosB&& pos_b,
                                           Cmp cmp) {
  const int w = ctx.lanes();
  const auto threads = static_cast<std::size_t>(vwarps) * static_cast<std::size_t>(w);
  const std::int64_t pair_len = na + nb;
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
    warp_split_search(ctx, warp_of(vw), shmem,
                      std::span<const LanePair>(pairs.data(), static_cast<std::size_t>(w) + 1),
                      lane_a, lane_b, cmp,
                      std::span<ThreadSplit>(splits).subspan(
                          static_cast<std::size_t>(vw * w), static_cast<std::size_t>(w)));
  }
  return splits;
}

/// The Algorithm 1 round schedule of one list pair (na, nb) from the
/// merge-path splits of its threads (na + nb = splits.size() * E).
inline gather::RoundSchedule pair_schedule(int w, std::int64_t na, std::int64_t nb,
                                           std::span<const ThreadSplit> splits) {
  const std::size_t u = splits.size();
  std::vector<std::int64_t> a_off(u);
  std::vector<std::int64_t> a_size(u);
  for (std::size_t i = 0; i < u; ++i) {
    a_off[i] = splits[i].a_off;
    a_size[i] = splits[i].a_size;
  }
  const auto e = static_cast<int>((na + nb) / static_cast<std::int64_t>(u));
  const gather::GatherShape shape{w, e, static_cast<int>(u), na, nb};
  return gather::RoundSchedule(shape, std::move(a_off), std::move(a_size));
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
/// their merge-path subsequences from its rho(A ∪ pi(B)) layout at shared
/// offset `base` (cfprims::exec_cf_gather), then run the register network,
/// leaving thread i's E merged outputs in regs[i*E, i*E + E).  `splits`
/// holds one split per thread (a multiple of w threads; na + nb =
/// splits.size() * E = regs.size()); virtual warp vw issues on physical warp
/// warp_of(vw).  `cert` is the cf_gather certificate (null: lane path).
template <typename T, typename WarpOf, typename Cmp>
void cf_merge_pair(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem, std::int64_t base,
                   std::int64_t na, std::int64_t nb, std::span<const ThreadSplit> splits,
                   const verify::CfCertificate* cert, WarpOf&& warp_of, std::span<T> regs,
                   Cmp cmp) {
  const int w = ctx.lanes();
  cfprims::exec_cf_gather(ctx, shmem, pair_schedule(w, na, nb, splits), base, cert, warp_of,
                          regs);
  warp_network_sort(ctx, static_cast<int>(splits.size()) / w, warp_of, regs,
                    padding_last<T>(cmp));
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

}  // namespace cfmerge::sort
