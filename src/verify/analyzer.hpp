// Pass 1 — the symbolic conflict analyzer.
//
// verify_cf_gather machine-checks the paper's conflict-freedom argument
// (Lemmas 1–4, Corollary 3) for a whole (w, E) family at once.  The proof
// object records, in order:
//
//   lowering-faithfulness   IR == RoundSchedule::read on sampled schedules
//   branch-totality         per-thread window lemmas, exhaustive over the
//                           finite quotient (a mod E, |A_i|, j)
//   residue-invariant       raw ≡ j (mod E) on both branches, symbolically
//   warp-window-coverage    a warp's round reads tile one full period mod wE
//                           (exact LinearForm interval algebra)
//   bank-periodicity        bank(rho(m)) has period wE in m
//   bank-crs                {bank(rho(j + kE))} is a complete residue system
//                           for every round j (Corollary 3)
//
// Together: the w reads of any warp in any round occupy w distinct banks,
// for every u that is a multiple of w and every merge-path split — without
// simulating anything.  Broken variants (no pi / no rho) fail a step and the
// analyzer produces a concrete counterexample lane pair, which the tests
// replay against the dynamic cost model.
//
// analyze_worstcase_warp statically walks the baseline serial merge over the
// Theorem 8 construction (decisions forced by the interleaving pattern) and
// reports the exact conflict count, which must match the simulator counters
// bit-for-bit, plus guaranteed min/max bounds that hold for *any* data.
#pragma once

#include <vector>

#include "sort/kernels.hpp"
#include "verify/lower.hpp"
#include "verify/proof.hpp"
#include "worstcase/sequence.hpp"

namespace cfmerge::verify {

/// Machine-checked conflict-freedom proof (or refutation) for the CF gather
/// schedule family at warp width w, E elements per thread.
[[nodiscard]] ProofObject verify_cf_gather(int w, int e,
                                           ScheduleVariant variant =
                                               ScheduleVariant::kFull);

/// Machine-checked conflict-freedom proof for the k-way cascade merge
/// (multiway_cascade_core): every cascade stage is an instance of the proven
/// 2-way schedule, the inter-stage rank scatter is a lane-invariant stride-E
/// stream under rho (a complete residue system per round), and the
/// CascadePlan's pair bases and padded lengths are wE-aligned so none of it
/// shifts banks.  `k` must be a power of two >= 2.  When the caller already
/// holds the (w, E) 2-way proof it can pass it via `stage_proof` to avoid
/// recomputing it (verify_all does).
[[nodiscard]] ProofObject verify_multiway_cascade(int w, int e, int k,
                                                  const ProofObject* stage_proof = nullptr);

/// Refutes the (false) claim that a *single-phase* k-ary gather over a linear
/// k-segment shared layout — the access pattern of the multiway_losertree
/// baseline's head fill — is conflict free for every merge-path split.  The
/// witness is constructive: a realizable split puts two lanes' sequence-0
/// heads at shared offsets 0 and w, the same bank.  Works for any k >= 2.
[[nodiscard]] ProofObject refute_multiway_direct(int w, int e, int k);

/// Static analysis of the bitonic compare-exchange kernel on one tile:
/// machine-checks the kernel's structural conflict profile — measured degree
/// equals the closed form (1 for j >= w; 1 for padded j = 1; otherwise 2)
/// for every substage stride.  `tile` and `w` must be powers of two with
/// tile >= 2w.  Proved means the profile is exactly as predicted.
[[nodiscard]] ProofObject verify_bitonic_exchange(std::int64_t tile, int w, bool padded);

/// Refutes the (false) claim that the *unpadded* exchange is conflict free:
/// the proof object carries a concrete lane pair of the first structurally
/// conflicted substage.
[[nodiscard]] ProofObject refute_bitonic_unpadded(std::int64_t tile, int w);

/// Exact static conflict count of the baseline warp_serial_merge on the
/// Theorem 8 worst-case warp, plus data-independent degree bounds.
[[nodiscard]] WorstCaseAnalysis analyze_worstcase_warp(const worstcase::Params& p);

/// Guaranteed conflict bounds of warp_serial_merge for arbitrary data under
/// the given lane splits: min counts only forced (data-independent)
/// collisions, max assumes every reachable collision happens.
struct SerialMergeBounds {
  std::int64_t min_conflicts = 0;
  std::int64_t max_conflicts = 0;
};
[[nodiscard]] SerialMergeBounds serial_merge_conflict_bounds(
    const std::vector<sort::MergeLaneDesc>& lanes, int w, int e, std::int64_t la);

/// Full sweep used by cfverify and the CI job: CF gather proofs for every
/// w in `widths` × 1 < E <= w, broken-variant refutations, Theorem 8
/// analyses and bitonic profiles.
struct VerifyOptions {
  std::vector<int> widths = {4, 8, 16, 32, 64};
  bool broken = true;     ///< include no-pi / no-rho refutations
  bool worstcase = true;  ///< include Theorem 8 analyses
  bool bitonic = true;    ///< include bitonic exchange profiles
  bool multiway = true;   ///< include k-way cascade proofs + direct refutations
  /// Sweep every registered CFPrimitive through the generic lowering path
  /// (verify_primitive); when false, only the legacy cf_gather proof runs.
  bool primitives = true;
  /// Pass 3 — static memory safety (verify/safety): bounds,
  /// init-before-read and race-freedom for every registered primitive plus
  /// the merge/multiway/blocksort composites, and witness-backed refutation
  /// of the cfprims::safety_ablations().
  bool safety = true;
  std::vector<int> ks = {2, 4, 8};  ///< merge arities for the multiway sweep
};
[[nodiscard]] VerifyReport verify_all(const VerifyOptions& opts = {});

}  // namespace cfmerge::verify
