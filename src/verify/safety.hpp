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
// phases (Launcher audit=certified-skip mode).
#pragma once

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

/// Safety proof for the pairwise CF merge pass (staged tile fill, merge-path
/// probes, CF gather, stride/rank output scatter) as composed in
/// sort/merge_pass.hpp.
[[nodiscard]] ProofObject verify_merge_safety(int w, int e);

/// Safety proof for the k-way multiway cascade (fill, per-level CF gather +
/// rank scatter ping-pong) as composed in sort/multiway_pass.hpp.
[[nodiscard]] ProofObject verify_multiway_safety(int w, int e, int k);

/// Safety proof for the block sort (staged load, stride-E thread phases,
/// CF merge rounds with the staging copy) as composed in sort/block_sort.hpp.
[[nodiscard]] ProofObject verify_blocksort_safety(int w, int e);

}  // namespace cfmerge::verify
