// Proof objects and reports of the static bank-conflict verifier.
//
// A ProofObject is a machine-checked derivation: a list of named steps, each
// of which either passed (with the evidence recorded in `detail`) or failed.
// A schedule is *proved* conflict-free only when every step passed; a failed
// derivation carries a concrete Counterexample — a lane pair, round and
// address pair that collide in a bank — which the tests replay dynamically
// against shared_access_cost.
//
// VerifyReport aggregates Pass 1 proofs and the Pass 2 shadow-checker
// results for one cfverify run; analysis::write_json knows how to emit it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cfmerge::verify {

enum class StepStatus { kPassed, kFailed, kSkipped };

struct ProofStep {
  std::string name;    ///< e.g. "residue-invariant"
  StepStatus status = StepStatus::kPassed;
  std::string detail;  ///< evidence (derivation, table summary) or failure reason
};

/// Marks `step` failed with the failure reason.
void fail(ProofStep& step, std::string detail);

/// Makes `step` a citation of the memoized `cert` certificate at (w, E): it
/// passes with "cites the memoized <cert> certificate at (w=W, E=E)" and
/// `argument` when `held` (the certify / certify_safety lookup succeeded),
/// and fails naming the missing certificate otherwise.
void cite(ProofStep& step, bool held, std::string_view cert, int w, int e,
          std::string_view argument = {});

/// Throws std::invalid_argument "<entry>: w must be <= 64" for a warp wider
/// than the simulator's lane limit (gpusim::kMaxLanes).
void validate_width(std::string_view entry, int w);

/// validate_width, after throwing "<entry>: need w > 0 and 1 < E <= w" for a
/// family outside the verifier's range.
void validate_family(std::string_view entry, int w, int e);

/// Deterministic split sampler (64-bit LCG, Knuth's MMIX constants): every
/// prover samples from a fixed seed, so proofs are reproducible.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
  /// Uniform in [0, n].
  std::int64_t below_eq(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n + 1));
  }
};

/// One merge-path split of a u-thread block: per-thread |A_i| in [0, E],
/// their prefix sums a_i and the block's |A|.  Every prefix-sum split is the
/// merge path of some input, so a sampled split is a real schedule.
struct Split {
  std::vector<std::int64_t> a_size;
  std::vector<std::int64_t> a_off;
  std::int64_t la = 0;
};

/// The split with per-thread sizes `a_size`.
[[nodiscard]] Split make_split(std::vector<std::int64_t> a_size);

/// The verifier's split sampler: the structured extremes (all-A, all-B,
/// alternating E/0, the ramp i mod (E+1), all-A with one partial thread,
/// uniform E/2) followed by `random_trials` seeded-random splits.
[[nodiscard]] std::vector<Split> sample_splits(int u, int e, int random_trials,
                                               std::uint64_t seed);

/// A concrete bank collision: two lanes of one warp whose round-j reads land
/// in the same bank, together with the schedule instance that produces it.
/// The static safety pass (Pass 3) reuses the same carrier for its
/// lane/epoch witnesses, with `kind` naming the violated property:
///  * "out-of-bounds"       — lane1 touches addr1; the valid range is
///                            [0, addr2) (addr2 carries tile_words);
///  * "uninitialized-read"  — lane1 reads addr1 in `epoch` with no covering
///                            write in any earlier epoch;
///  * "write-write-race"    — lane1 and lane2 both write addr1 == addr2
///                            within one epoch.
/// An empty `kind` is the legacy Pass 1 bank-collision witness.
struct Counterexample {
  int w = 0;
  int e = 0;
  int u = 0;                           ///< threads per block of the witness
  std::int64_t la = 0;                 ///< witness |A|
  std::vector<std::int64_t> a_sizes;   ///< witness per-thread |A_i|
  int round = 0;                       ///< round j of the collision
  int lane1 = 0;
  int lane2 = 0;
  std::int64_t addr1 = 0;              ///< physical shared positions
  std::int64_t addr2 = 0;
  int bank = 0;
  int epoch = 0;                       ///< barrier epoch (safety witnesses)
  std::string kind;                    ///< safety property violated; "" = bank

  [[nodiscard]] std::string str() const;
};

enum class Verdict {
  kProved,          ///< conflict-free for the whole (w, E) family
  kCounterexample,  ///< refuted, concrete witness attached
  kRefutedNoWitness ///< a proof step failed but bounded search found no witness
};

struct ProofObject {
  std::string schedule;  ///< "cf_gather", "cf_gather_no_pi", "bitonic_padded", ...
  /// Registered CFPrimitive this proof certifies/refutes (empty for the
  /// legacy non-primitive objects: multiway cascades, bitonic, worst-case).
  /// The JSON "primitives" rollup groups by this.
  std::string family;
  int w = 0;
  int e = 0;
  int k = 0;             ///< merge arity (0 for the pairwise schedules)
  std::int64_t d = 0;    ///< gcd(w, E)
  Verdict verdict = Verdict::kProved;
  std::vector<ProofStep> steps;
  Counterexample counterexample;  ///< meaningful iff verdict == kCounterexample
  /// What the proof quantifies over, e.g. "all u = k*w, all merge-path splits".
  std::string scope;

  [[nodiscard]] bool proved() const { return verdict == Verdict::kProved; }
  ProofStep& add_step(std::string name);
  [[nodiscard]] bool any_step_failed() const;
  /// Settles the verdict from the steps: kProved iff no step failed.  A
  /// failed derivation keeps a witness a step already attached, else takes
  /// `witness`, else becomes kRefutedNoWitness.
  void settle_verdict(std::optional<Counterexample> witness = std::nullopt);
  /// settle_verdict for Pass 3, whose witnesses name their violated
  /// property in `kind`: a refuted safety proof whose counterexample has
  /// none becomes kRefutedNoWitness.
  void settle_safety_verdict();
};

/// Static analysis of the baseline serial merge on a Theorem 8 worst-case
/// warp: the exact conflict count derived from the access-pattern walk, the
/// paper's closed form, and data-independent degree bounds.
struct WorstCaseAnalysis {
  int w = 0;
  int e = 0;
  std::int64_t exact_conflicts = 0;   ///< static walk over the forced decisions
  std::int64_t closed_form = 0;       ///< predicted_warp_conflicts (Theorem 8)
  std::int64_t min_bound = 0;         ///< guaranteed lower bound, any data
  std::int64_t max_bound = 0;         ///< guaranteed upper bound, any data
  std::int64_t accesses = 0;          ///< warp-wide shared accesses walked
};

/// One shadow-checker violation (Pass 2).
struct ShadowViolation {
  std::string kind;   ///< "uninitialized-read", "write-write-race",
                      ///< "out-of-bounds", "conflict-mismatch"
  int block = 0;
  int warp = 0;
  std::string phase;
  std::int64_t addr = 0;
  std::string detail;
};

struct ShadowSummary {
  bool enabled = false;
  std::uint64_t shared_accesses = 0;
  std::uint64_t checked_words = 0;
  /// Warp-wide accesses elided under audit=certified-skip (the Pass 3 safety
  /// certificate stood in for per-lane replay).
  std::uint64_t skipped_accesses = 0;
  std::vector<ShadowViolation> violations;  ///< capped; see dropped_violations
  std::uint64_t dropped_violations = 0;

  [[nodiscard]] bool clean() const {
    return violations.empty() && dropped_violations == 0;
  }
};

/// Aggregate result of one cfverify run.
struct VerifyReport {
  /// Schedules that must be conflict-free: every entry must be kProved.
  std::vector<ProofObject> proofs;
  /// Deliberately broken / known-conflicted schedules: every entry must be
  /// refuted (non-proved); the analyzer aims for a concrete witness.
  std::vector<ProofObject> refutations;
  /// Pass 3 — static safety (bounds, init-before-read, race-freedom).
  /// Every registered primitive and composite schedule must be kProved here.
  std::vector<ProofObject> safety_proofs;
  /// Safety ablations (cfprims::safety_ablations()): every entry must be
  /// refuted with a concrete lane/epoch witness.
  std::vector<ProofObject> safety_refutations;
  std::vector<WorstCaseAnalysis> worstcase;
  ShadowSummary shadow;

  [[nodiscard]] bool all_proved() const {
    for (const auto& p : proofs)
      if (!p.proved()) return false;
    for (const auto& p : safety_proofs)
      if (!p.proved()) return false;
    return true;
  }
  [[nodiscard]] bool all_refuted() const {
    for (const auto& p : refutations)
      if (p.proved()) return false;
    for (const auto& p : safety_refutations)
      if (p.proved()) return false;
    return true;
  }
  [[nodiscard]] bool ok() const {
    return all_proved() && all_refuted() && shadow.clean();
  }
};

}  // namespace cfmerge::verify
