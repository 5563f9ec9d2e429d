// Baseline per-thread sequential merge from shared memory — the routine
// whose bank conflicts the paper eliminates.
//
// Every thread of a warp merges its merge-path subsequences A_i and B_i
// directly from shared memory in lockstep: after preloading the two head
// elements, each of the E output steps consumes the smaller head and
// fetches its successor from shared memory.  The fetch addresses are data
// dependent, so the warp's w concurrent fetches can collide in the same
// bank — up to w-fold serialization per step (the paper's Section 4 inputs
// force exactly this).
#pragma once

#include <array>
#include <cassert>
#include <functional>
#include <span>

#include "gpusim/memory_views.hpp"
#include "sort/cost_model.hpp"

namespace cfmerge::sort {

/// Per-thread split description for a warp-synchronous merge step.
/// Addresses are *physical* shared memory positions; `a_pos(x)` maps offset
/// x within the thread's A_i to its position, and likewise `b_pos`.
struct MergeLaneDesc {
  std::int64_t a_begin = 0;  ///< first A offset (block-local)
  std::int64_t a_size = 0;
  std::int64_t b_begin = 0;
  std::int64_t b_size = 0;
};

/// Merges, for every thread of the block, A_i and B_i out of `shmem` into
/// the block register file `regs` (thread i's outputs at regs[i*E .. i*E+E)).
///
/// `a_pos(off)` / `b_pos(off)` translate *block-local list offsets* into
/// physical shared positions (identity + la-offset for the baseline linear
/// layout).  `lanes` holds one descriptor per thread.
///
/// Per warp the device issues the A-head row, the B-head row, then one row
/// per output step fetching the successor of each lane's consumed head
/// (inactive once that list is exhausted; a step in which every lane is
/// exhausted charges nothing).  The host keeps that step-major shape with a
/// branch-free lane step: heads are read uncharged through peek() and each
/// row is reported through SharedTile::charge_row.
template <typename T, typename APos, typename BPos, typename Cmp = std::less<T>>
void warp_serial_merge(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                       std::span<const MergeLaneDesc> lanes, int e, APos&& a_pos,
                       BPos&& b_pos, std::span<T> regs, Cmp cmp = Cmp{}) {
  const int w = ctx.lanes();
  const int warps = ctx.warps();
  assert(static_cast<int>(lanes.size()) == ctx.threads());
  assert(w <= gpusim::kMaxLanes);
  constexpr auto kIdle = gpusim::kInactiveLane;
  const auto lw = static_cast<std::size_t>(w);

  // Per lane: the next unread offset of A_i / B_i (its head) and the end.
  std::array<std::int64_t, gpusim::kMaxLanes> ia;
  std::array<std::int64_t, gpusim::kMaxLanes> ib;
  std::array<std::int64_t, gpusim::kMaxLanes> a_end;
  std::array<std::int64_t, gpusim::kMaxLanes> b_end;
  std::array<std::int64_t, gpusim::kMaxLanes> addr;
  const std::span<const std::int64_t> row(addr.data(), lw);

  for (int warp = 0; warp < warps; ++warp) {
    const MergeLaneDesc* d = lanes.data() + static_cast<std::size_t>(warp) * lw;
    ctx.charge_compute(warp, cost::kThreadSetupInstrs);
    for (std::size_t l = 0; l < lw; ++l) {
      ia[l] = d[l].a_begin;
      ib[l] = d[l].b_begin;
      a_end[l] = d[l].a_begin + d[l].a_size;
      b_end[l] = d[l].b_begin + d[l].b_size;
      addr[l] = d[l].a_size > 0 ? a_pos(d[l].a_begin) : kIdle;
    }
    shmem.charge_row(warp, row, /*is_write=*/false, /*dependent=*/true, /*scattered=*/true);
    for (std::size_t l = 0; l < lw; ++l)
      addr[l] = d[l].b_size > 0 ? b_pos(d[l].b_begin) : kIdle;
    shmem.charge_row(warp, row, /*is_write=*/false, /*dependent=*/true, /*scattered=*/true);

    T* out = regs.data() + static_cast<std::size_t>(warp) * lw * static_cast<std::size_t>(e);
    for (int step = 0; step < e; ++step) {
      for (std::size_t l = 0; l < lw; ++l) {
        const bool has_a = ia[l] < a_end[l];
        const bool has_b = ib[l] < b_end[l];
        assert(has_a || has_b);
        // An exhausted list's head reads word 0 instead; the select below
        // never takes it.
        const T& va = shmem.peek(has_a ? a_pos(ia[l]) : 0);
        const T& vb = shmem.peek(has_b ? b_pos(ib[l]) : 0);
        const bool take_a = has_a & (!has_b | !cmp(vb, va));
        out[l * static_cast<std::size_t>(e) + static_cast<std::size_t>(step)] =
            take_a ? va : vb;
        ia[l] += take_a;
        ib[l] += !take_a;
        const bool more = take_a ? ia[l] < a_end[l] : ib[l] < b_end[l];
        addr[l] = more ? (take_a ? a_pos(ia[l]) : b_pos(ib[l])) : kIdle;
      }
      ctx.charge_compute(warp, cost::kMergeStepInstrs);
      shmem.charge_row(warp, row, /*is_write=*/false, /*dependent=*/true, /*scattered=*/true);
    }
  }
}

}  // namespace cfmerge::sort
