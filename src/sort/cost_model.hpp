// Instruction cost constants shared by all simulated kernels.
//
// Charged per warp (one warp instruction = all lanes performing one
// operation).  The same constants are used by the baseline and CF-Merge
// kernels so that relative comparisons are fair; their absolute values are
// rough Turing estimates and only affect the compute roofline term.
#pragma once

#include <bit>

namespace cfmerge::sort::cost {

/// One step of the per-thread sequential merge: compare, select/emit,
/// advance pointer.
inline constexpr int kMergeStepInstrs = 3;
/// Index arithmetic of one gather round (the mod-E bookkeeping of
/// Algorithm 1; k is precomputed once per thread).
inline constexpr int kGatherRoundInstrs = 4;
/// One compare-exchange of the odd-even transposition network
/// (min, max, two register moves fused).
inline constexpr int kCompareExchangeInstrs = 3;
/// One iteration of the lockstep merge-path binary search
/// (mid computation, compare, bound update) — excludes the two probes.
inline constexpr int kSearchIterInstrs = 4;
/// One level of the k-way stride-halving selection, excluding its probe:
/// the window update plus two k-lane reductions (left maximum, left size).
inline constexpr int multiseq_level_instrs(int k) {
  return kSearchIterInstrs + 2 * std::bit_width(static_cast<unsigned>(k - 1));
}
/// One skew-correction pop of that selection: a k-lane argmin/argmax and
/// the window shift.
inline constexpr int multiseq_pop_instrs(int k) {
  return kSearchIterInstrs + std::bit_width(static_cast<unsigned>(k - 1));
}
/// Address computation per staged load/store chunk.
inline constexpr int kCopyChunkInstrs = 2;
/// Per-thread setup of a merge step (computing k, offsets, bounds).
inline constexpr int kThreadSetupInstrs = 8;

/// Register usage estimates per thread, feeding the occupancy model.
/// Both variants hold the E items plus bookkeeping; CF-Merge needs a few
/// extra registers for the permutation indices.
inline constexpr int baseline_regs_per_thread(int e) { return e + 10; }
inline constexpr int cfmerge_regs_per_thread(int e) { return e + 14; }
/// The partition kernels (one merge-path co-rank search per thread, no
/// shared memory).
inline constexpr int kPartitionRegsPerThread = 24;
/// The k-way merge kernel additionally tracks per-sequence pointers and
/// cached heads (LoserTree) or the cascade's pair bookkeeping (CFCascade).
inline constexpr int multiway_regs_per_thread(int e, int k) { return e + 14 + 2 * k; }

}  // namespace cfmerge::sort::cost
