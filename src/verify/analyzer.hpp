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
//   periodicity:crs         bank(sigma(iE + j)) has period w in the thread
//   banks:crs               {bank(sigma(iE + j))} over a warp is a complete
//                           residue system for every round j (Corollary 3)
//
// The last two are the generic stream checks of verify/primitive.hpp run on
// cfprims::crs_stream (sigma = rho; the identity without rho): the residue
// invariant and the window coverage make a warp's round-j reads exactly that
// stream.  Together: the w reads of any warp in any round occupy w distinct banks,
// for every u that is a multiple of w and every merge-path split — without
// simulating anything.  Broken variants (no pi / no rho) fail a step and the
// analyzer produces a concrete counterexample lane pair, which the tests
// replay against the dynamic cost model.
//
// analyze_worstcase_warp statically walks the baseline serial merge over the
// Theorem 8 construction (decisions forced by the interleaving pattern) and
// reports the exact conflict count, which must match the simulator counters
// (measure_worstcase_warp) bit-for-bit, plus guaranteed min/max bounds that
// hold for *any* data.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/audit.hpp"
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
/// (sort::cf_cascade_core, which is also the 2-way CF merge at k = 2):
/// every cascade stage is an instance of the proven 2-way schedule, every
/// inter-stage rank scatter is a round of the proven stride-E rank scatter,
/// and the CascadePlan's pair bases and padded lengths are wE-aligned so
/// none of it shifts banks.  The stage and scatter steps cite the memoized
/// cf_gather and cf_rank_scatter certificates (verify::certify).  `k` must
/// be a power of two in [2, sort::kMaxMultiwayK].
[[nodiscard]] ProofObject verify_multiway_cascade(int w, int e, int k);

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

/// Exact static conflict count of the baseline sequential merge on the
/// Theorem 8 worst-case warp, plus data-independent degree bounds.
[[nodiscard]] WorstCaseAnalysis analyze_worstcase_warp(const worstcase::Params& p);

/// The bank conflicts the simulator counts when one warp on
/// DeviceSpec::tiny(w) runs the baseline sequential merge
/// (sort::serial_merge_core over the linear layout) on the Theorem 8
/// worst-case warp; `audit`, when set, checks every access.  The one
/// dynamic harness of the construction: the Theorem 8 bench, cfverify's
/// shadow run and the tests measure through it.
std::uint64_t measure_worstcase_warp(const worstcase::Params& p,
                                     gpusim::MemoryAuditor* audit = nullptr);

/// Guaranteed conflict bounds of the baseline sequential merge for arbitrary
/// data under the given lane splits (one per lane of a warp, linear layout
/// with B at offset la): min counts only forced (data-independent)
/// collisions, max assumes every reachable collision happens.
struct SerialMergeBounds {
  std::int64_t min_conflicts = 0;
  std::int64_t max_conflicts = 0;
};
[[nodiscard]] SerialMergeBounds serial_merge_conflict_bounds(
    std::span<const sort::ThreadSplit> lanes, int w, int e, std::int64_t la);

/// What a verifier sweep covers (cfverify and the CI job).
struct VerifyOptions {
  std::vector<int> widths = {4, 8, 16, 32, 64};
  bool broken = true;     ///< include the broken-primitive and direct k-ary refutations
  bool worstcase = true;  ///< include Theorem 8 analyses
  bool bitonic = true;    ///< include bitonic exchange profiles
  bool multiway = true;   ///< include k-way cascade proofs + direct refutations
  /// Pass 3 — static memory safety (verify/safety): bounds,
  /// init-before-read and race-freedom for every registered primitive plus
  /// the composite kernels, and witness-backed refutation of the
  /// cfprims::safety_ablations().
  bool safety = true;
  std::vector<int> ks = {2, 4, 8};  ///< merge arities for the multiway sweep
};

/// Appends the (w, e) family to `rep`: every registered CFPrimitive through
/// verify_primitive (broken ones as refutations), the k-way cascades, Pass 3
/// (primitives, composite kernels, safety ablations) and the Theorem 8
/// analysis.  Throws std::invalid_argument for a (w, e) outside 1 < E <= w
/// or a w past the simulator's 64 lanes.
void verify_family(VerifyReport& rep, const VerifyOptions& opts, int w, int e);

/// Appends the per-width entries to `rep`: the direct k-ary refutations at
/// (w, direct_e) and the bitonic profiles of a 4w tile.
void verify_width(VerifyReport& rep, const VerifyOptions& opts, int w, int direct_e);

/// Full sweep: verify_family for every w in `widths` x 1 < E <= w, then
/// verify_width at E = max(2, w/2).
[[nodiscard]] VerifyReport verify_all(const VerifyOptions& opts = {});

}  // namespace cfmerge::verify
