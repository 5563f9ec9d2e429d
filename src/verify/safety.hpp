// Pass 3 of cfverify: the static memory-safety analyzer.
//
// Pass 1 (analyzer/primitive) proves the paper's *bank* properties; this
// pass proves the other half of what makes a schedule correct — that it is
// memory-safe — from the same affine lowering, extended with each stream's
// write side and barrier-epoch structure (cfprims::AccessStream::{is_write,
// epoch, tile}).  Three properties are certified per (w, E) family:
//
//  * bounds           — every address lands in [0, tile_words).  Proved
//                       symbolically for all block sizes u = w·M via
//                       interval_hull (exact LinearForm endpoint algebra,
//                       the machinery of the warp-window-coverage lemma),
//                       with an exhaustive cross-check at u ∈ {2w, 3w}.
//  * init-before-read — an epoch-ordered dataflow fixpoint: every word a
//                       stream reads in epoch T is covered by the union of
//                       write-sets of epochs < T (extern-filled tiles seed
//                       the frontier), exhaustively at u ∈ {2w, 3w}.
//  * race-freedom     — within one epoch, no two unordered lanes write the
//                       same word.  The CRS scatters are injective
//                       symbolically (iE + j is a division-algorithm pairing
//                       and σ is a bijection); the duplicate scan confirms
//                       it exhaustively and materializes witnesses.
//
// Deliberately safety-broken ablations (cfprims::safety_ablations()) must be
// *refuted* with a concrete lane/epoch witness — a Counterexample with
// `kind` set — that tests replay dynamically against the ShadowChecker.
//
// Proofs thread into verify::certify_safety (certificate.hpp) so the
// executors can elide per-access shadow audits for statically-certified
// phases (Launcher audit=certified-skip mode).  The composite kernels use
// the same memo: each component step of verify_composite_safety cites
// certify_safety for its primitive instead of re-running that proof.
#pragma once

#include <string_view>
#include <vector>

#include "cfprims/primitive.hpp"
#include "verify/proof.hpp"

namespace cfmerge::verify {

/// Proves (or refutes, with a lane/epoch witness) bounds, init-before-read
/// and race-freedom for one primitive family at (w, e).  Gather-family
/// primitives (delegate_cf_gather) are modelled compositely: the π∘ρ fill
/// bijection plus the RoundSchedule read sweep over sampled merge-path
/// splits.
[[nodiscard]] ProofObject verify_primitive_safety(const cfprims::CFPrimitive& prim,
                                                  int w, int e);

/// verify_primitive_safety by registry/ablation name; throws
/// std::invalid_argument for an unknown primitive.
[[nodiscard]] ProofObject verify_primitive_safety(std::string_view name, int w,
                                                  int e);

/// One step of a composite kernel's safety proof: the registered primitive
/// whose memoized safety certificate (certify_safety) it cites, or, when
/// `primitive` is empty, the block sort's stride-phase bijection, checked by
/// hand because cf_stride registers only for gcd(w, E) = 1.
struct CompositeStep {
  std::string_view name;       ///< proof step name, e.g. "fill-component:cf_stage"
  std::string_view primitive;  ///< cited registry primitive; empty = hand step
};

/// A sort kernel composed from registered primitives, its components in
/// kernel order plus the barrier argument ("glue") that chains them.
struct CompositeKernel {
  std::string_view name;   ///< proof schedule and family: "merge", ...
  std::string_view scope;
  std::vector<CompositeStep> steps;
  std::string_view glue_step;  ///< name of the barrier-order step
  std::string_view glue;       ///< its evidence
  bool per_arity = false;      ///< proved once per merge arity k (multiway)
};

/// The composite kernels in sweep order: the pairwise merge pass
/// (sort/merge_pass.hpp), the block sort (sort/block_sort.hpp) and the k-way
/// cascade (sort/multiway_pass.hpp).
[[nodiscard]] const std::vector<CompositeKernel>& composite_kernels();

/// Safety proof of one composite kernel at (w, e): every component step
/// cites its primitive's memoized safety certificate, then the
/// data-dependent probe note and the glue step.  `k` is the merge arity of
/// a per_arity kernel and 0 otherwise (std::invalid_argument if not).
[[nodiscard]] ProofObject verify_composite_safety(const CompositeKernel& kernel,
                                                  int w, int e, int k = 0);

}  // namespace cfmerge::verify
