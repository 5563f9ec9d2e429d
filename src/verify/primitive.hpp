// Generic CFPrimitive verification: one prover for every registered
// primitive (cfprims/primitive.hpp) instead of per-family special cases.
//
// A primitive that lowers to concrete access streams is checked per stream:
//
//   lower:<stream>        the affine IR reproduces the primitive's actual
//                         address computation on every (thread, round)
//   residue:<stream>      raw ≡ j (mod E) derived symbolically (streams
//                         that claim the paper's residue invariant)
//   periodicity:<stream>  bank(phys) is periodic in the thread index, so
//                         the exhaustive window check below covers every
//                         u ≡ 0 (mod w), not just the verified shape
//   banks:<stream>        every w-aligned warp window of every round hits
//                         w distinct banks (simulator cost model), else a
//                         concrete lane-pair witness is extracted
//
// Gather-family primitives whose pattern depends on merge-path splits
// delegate to verify_cf_gather (the full RoundSchedule machinery) and only
// contribute their family tag.
#pragma once

#include "cfprims/check.hpp"
#include "cfprims/primitive.hpp"
#include "verify/proof.hpp"

namespace cfmerge::verify {

/// Appends periodicity:<stream>: bank(phys(i + period, j)) == bank(phys(i, j))
/// for the stream's bank period (default w), so the exhaustive window check
/// extends to every u ≡ 0 (mod w).
void check_stream_periodicity(ProofObject& po, const cfprims::AccessStream& st,
                              int w);

/// Appends banks:<stream>: every w-aligned warp window of every round is
/// conflict-free under the simulator's own cost model.  A conflicting
/// stream attaches its first lane pair as po's witness (kCounterexample).
void check_stream_banks(ProofObject& po, const cfprims::AccessStream& st, int w,
                        int e, int u);

/// The first conflicting lane pair of `scan` as a witness of a u-thread
/// block, lanes block-relative.
[[nodiscard]] Counterexample bank_witness(const cfprims::ConflictScan& scan, int w,
                                          int e, int u);

/// Proves or refutes one registered primitive for the (w, E) family.
/// Throws std::invalid_argument when the primitive does not support (w, E).
[[nodiscard]] ProofObject verify_primitive(const cfprims::CFPrimitive& prim, int w,
                                           int e);

}  // namespace cfmerge::verify
