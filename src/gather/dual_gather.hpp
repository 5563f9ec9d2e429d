// Simulated-kernel implementations of the load-balanced dual subsequence
// gather and its inverse scatter (paper footnote 5).
//
// These are the "device" routines: they run inside a simulated thread block,
// issue warp-wide shared memory accesses through the bank-conflict model,
// and move real data between a SharedTile and per-thread register files.
// For valid shapes every access is conflict-free (verified both by the
// schedule validator and by the counters in the sort kernels).  The lists'
// positions in shared memory are the schedule's PairLayout
// (RoundSchedule::layout().pos_a / pos_b).
#pragma once

#include <cassert>
#include <span>

#include "cfprims/exec.hpp"
#include "gather/schedule.hpp"
#include "gpusim/memory_views.hpp"

namespace cfmerge::gather {

/// Runs the dual subsequence gather for every warp of the block.
///
/// `shmem` must hold the block's lists in the CF layout; `regs` is the
/// block's register file, regs[i * E + j] = item j of thread i.  After the
/// call, thread i's registers hold A_i ∪ B_i arranged by round (see
/// RoundSchedule::register_slot_of_a/b).
///
/// Charges: E warp-wide shared reads per warp (each conflict-free) plus the
/// index arithmetic of Algorithm 1.  `cert` is the cf_gather certificate
/// (or null for the lane-accurate path).  The block-wide instance of
/// cfprims::exec_cf_gather.
template <typename T>
void dual_subsequence_gather(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                             const RoundSchedule& sched, std::span<T> regs,
                             const verify::CfCertificate* cert = nullptr) {
  assert(sched.shape().u <= ctx.threads());
  cfprims::exec_cf_gather(ctx, shmem, sched, /*base=*/0, cert, cfprims::same_warp, regs);
}

/// Inverse procedure: writes each thread's E register items into shared
/// memory in the CF layout, bank conflict free (the load-balanced dual
/// subsequence *scatter*).  regs must be arranged by round, exactly as
/// dual_subsequence_gather leaves them.
template <typename T>
void dual_subsequence_scatter(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                              const RoundSchedule& sched, std::span<const T> regs,
                              const verify::CfCertificate* cert = nullptr) {
  const GatherShape& s = sched.shape();
  assert(ctx.lanes() == s.w);
  assert(ctx.threads() == s.u);

  cfprims::exec_crs_scatter(
      ctx, shmem, s.w, s.e, ctx.warps(), cfprims::kGatherCharge, cert, cfprims::same_warp,
      [&](int vw, int lane, int j) { return sched.read(vw * s.w + lane, j).phys; }, regs);
}

}  // namespace cfmerge::gather
