// Lowering of the kernels' shared-memory access patterns into the AffineExpr
// IR — the bridge between the real indexing code (src/gather, src/sort) and
// the symbolic analyzer.
//
// Each lowering mirrors, term by term, the index arithmetic of one kernel:
//
//  * lower_cf_gather — RoundSchedule::read (Algorithm 1): branch guard
//    m = (j - a) mod E, A raw index a + m, B raw index through pi, physical
//    position through rho.  Variants drop pi or rho to model the paper's
//    ablations (and deliberately broken schedules).
//  * lower_bitonic_pair — the compare-exchange pair addresses of a bitonic
//    substage of stride j, with or without the one-slot-per-w padding.
//
// The analyzer cross-checks every lowering against the runtime indexing
// (same addresses on sampled concrete schedules) before trusting any
// symbolic conclusion drawn from it; see verify_cf_gather step
// "lowering-faithfulness".
#pragma once

#include <cstdint>

#include "verify/affine.hpp"

namespace cfmerge::verify {

// Fixed symbol ids shared by all lowerings.
inline constexpr SymId kSymThread = 0;  ///< i — block-local thread id (gather)
                                        ///< or pair id p (bitonic)
inline constexpr SymId kSymRound = 1;   ///< j — gather round
inline constexpr SymId kSymAOff = 2;    ///< a — thread's merge-path A offset a_i
inline constexpr SymId kSymASize = 3;   ///< asz — |A_i|
inline constexpr SymId kSymU = 4;       ///< u — threads per block
inline constexpr SymId kSymLa = 5;      ///< la — block's |A|

/// Which schedule the lowering models.
enum class ScheduleVariant {
  kFull,         ///< pi and rho applied — the paper's schedule
  kNoBReversal,  ///< pi dropped: B stored in ascending order (broken)
  kNoRhoShift,   ///< rho dropped: raw layout is physical (broken for d > 1)
};

[[nodiscard]] const char* variant_name(ScheduleVariant v);

/// The CF gather read of thread i in round j, as IR over the symbols above.
struct CfGatherLowering {
  int w = 0;
  int e = 0;
  ScheduleVariant variant = ScheduleVariant::kFull;
  AffineExpr m;      ///< (j - a) mod E — A element index and branch guard
  AffineExpr e_idx;  ///< (a - j - 1) mod E — B element index
  AffineExpr raw_a;  ///< a + m
  AffineExpr raw_b;  ///< through pi (or not, for kNoBReversal)
  AffineExpr raw;    ///< select(m < asz, raw_a, raw_b)
  AffineExpr phys;   ///< rho(raw) (== raw for kNoRhoShift or d == 1)
  SymbolFacts facts; ///< u declared a multiple of w
};

[[nodiscard]] CfGatherLowering lower_cf_gather(int w, int e,
                                               ScheduleVariant variant =
                                                   ScheduleVariant::kFull);

/// Binds lower_cf_gather's symbols for thread i in round j of a u-thread
/// block with |A| = la, whose merge-path split gives the thread A offset a
/// and |A_i| = asz.
[[nodiscard]] Env cf_gather_env(std::int64_t i, std::int64_t j, std::int64_t a,
                                std::int64_t asz, std::int64_t u, std::int64_t la);

/// rho (CircularShift) applied to `raw`: partitions of P = wE/d elements,
/// partition l circularly shifted forward by l mod d.  Identity when d == 1.
[[nodiscard]] AffineExpr lower_rho(const AffineExpr& raw, int w, int e);

/// rho^-1 applied to `raw`: partition l shifted *backward* by l mod d, i.e.
/// rho^-1(m) = l·P + (m mod P - l mod d mod P).  Identity when d == 1.
/// Used by the inverse cf_permute primitive (gather::CircularShift::inverse).
[[nodiscard]] AffineExpr lower_rho_inverse(const AffineExpr& raw, int w, int e);

/// The one-slot-per-w bitonic padding: x + x div w (identity when !padded).
[[nodiscard]] AffineExpr lower_bitonic_pad(const AffineExpr& x, int w, bool padded);

/// Compare-exchange addresses of the p-th pair of a bitonic substage with
/// stride j (kSymThread plays the role of p): lo = pad((p div j)·2j + p mod j),
/// hi = pad(lo_unpadded + j).
struct BitonicPairLowering {
  std::int64_t j = 0;
  bool padded = false;
  AffineExpr lo;
  AffineExpr hi;
};

[[nodiscard]] BitonicPairLowering lower_bitonic_pair(std::int64_t j, int w, bool padded);

}  // namespace cfmerge::verify
