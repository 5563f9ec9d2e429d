// PRAM-style analytic cost model for CF-Merge.
//
// The paper's selling point: without bank conflicts, shared-memory analysis
// reduces to PRAM analysis — the runtime of the gather and the data
// movement is a *closed form* in (w, E, u, la, lb), independent of the
// data.  This module provides those closed forms; tests assert that the
// simulator's counters match them exactly (the merge-path searches are the
// only data-dependent phase and are covered by upper bounds).
#pragma once

#include <cstdint>

namespace cfmerge::analysis {

struct PramMergeKernel {
  /// Warp-wide shared accesses to stage the two lists into shared memory.
  std::int64_t load_shared_accesses = 0;
  /// Warp-wide global requests for the same staging.
  std::int64_t load_gmem_requests = 0;
  /// Gather: exactly E accesses per warp (Algorithm 1's E rounds).
  std::int64_t gather_accesses = 0;
  /// Register -> shared output writes: E accesses per warp.
  std::int64_t output_scatter_accesses = 0;
  /// Shared -> global streaming store accesses.
  std::int64_t store_shared_accesses = 0;
  std::int64_t store_gmem_requests = 0;
  /// Upper bound on the block's split search iterations: per warp, the
  /// lattice search of the start co-ranks plus the last lane's lone end
  /// search.
  std::int64_t search_iterations_bound = 0;

  [[nodiscard]] std::int64_t deterministic_shared_accesses() const {
    return load_shared_accesses + gather_accesses + output_scatter_accesses +
           store_shared_accesses;
  }
};

/// Closed-form access counts for one CF-Merge merge-kernel block with lists
/// of sizes la and lb (la + lb == u*e), on a device with w lanes per warp.
[[nodiscard]] PramMergeKernel pram_merge_kernel(int w, int e, int u, std::int64_t la,
                                                std::int64_t lb);

/// PRAM time (conflict-free shared steps) of the gather for one warp: E.
[[nodiscard]] std::int64_t pram_gather_steps(int e);

/// Total deterministic shared accesses of a full CF-Merge pass over
/// `blocks` tiles (every block moves exactly one tile).
[[nodiscard]] std::int64_t pram_pass_shared_accesses(int w, int e, int u, int blocks);

}  // namespace cfmerge::analysis
