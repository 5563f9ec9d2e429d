// The CF-primitives layer: a uniform abstraction over every conflict-free
// shared-memory access pattern in the codebase.
//
// Afshani–Sitchinava ("Sorting and Permuting without Bank Conflicts on
// GPUs") frames conflict-free *permutation* as the first-class primitive of
// which CF merging is one instance; Sitchinava–Weichert builds a whole
// sorting framework from such reusable CF building blocks.  A CFPrimitive
// names one such pattern — its shape parameters (w, E, u, k), its
// shared-memory footprint, and a lower() hook that produces the verify
// layer's affine IR — so that
//
//   * the sort kernels execute it through the shared executors
//     (cfprims/exec.hpp) instead of open-coded loops,
//   * cfverify proves or refutes *every registered primitive* through one
//     generic path (verify/primitive.cpp) instead of per-family special
//     cases, and
//   * a new access pattern is added by registering one object, not by
//     re-implementing scheduling, accounting and verification glue.
//
// See docs/cfprims.md for the catalog and the contract in prose.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "verify/affine.hpp"
#include "verify/lower.hpp"

namespace cfmerge::cfprims {

/// Shape parameters of one primitive instance, following the paper's
/// Table 1 naming: warp width w, elements per thread E, block threads u,
/// and (for the multiway cascade) merge arity k (0 when not applicable).
struct PrimShape {
  int w = 0;
  int e = 0;
  int u = 0;
  int k = 0;
  /// Elements handled by one block: the tile.
  [[nodiscard]] std::int64_t tile() const {
    return static_cast<std::int64_t>(u) * e;
  }
};

/// One warp-synchronous access stream of a lowered primitive: `rounds`
/// rounds in which every thread i < `domain` touches physical shared slot
/// `phys(i, j)`.  Streams with `residue_modulus > 0` additionally carry the
/// pre-permutation `raw` index and promise the paper's residue invariant
/// raw ≡ j (mod residue_modulus).  `concrete` is the primitive's actual
/// address computation (the one the executors run); the generic verifier
/// checks the affine IR against it exhaustively before trusting the IR.
struct AccessStream {
  std::string name;
  bool is_write = false;
  int rounds = 1;
  std::int64_t domain = 0;          ///< i ranges over [0, domain)
  std::int64_t residue_modulus = 0; ///< 0: no residue invariant claimed
  /// bank(phys(i)) repeats with this period in i (0 = the default w): the
  /// periodicity step checks it, extending the exhaustive window check to
  /// every block size.  Streams over sigma-permuted slots use wE.
  std::int64_t bank_period = 0;
  /// Barrier-epoch structure for the static safety pass (verify/safety):
  /// streams in the same epoch run between the same pair of barriers, so
  /// intra-epoch writes must be pairwise disjoint and reads may only depend
  /// on writes from strictly earlier epochs.
  int epoch = 0;
  /// Which shared tile of PrimitiveLowering::tiles the stream touches.
  int tile = 0;
  /// True when the round index enumerates *alternative instances* of the
  /// stream (e.g. cf_stage checks every base offset class mod w) rather
  /// than successive rounds of one execution: the race check must then
  /// compare lanes within one round only, since two rounds never coexist.
  bool rounds_are_instances = false;
  verify::AffineExpr raw;           ///< valid iff residue_modulus > 0
  verify::AffineExpr phys;
  std::function<std::int64_t(std::int64_t, std::int64_t)> concrete;
};

/// One shared tile of a lowered primitive, as seen by the safety pass.
struct TileSpec {
  std::int64_t words = 0;   ///< tile extent; every address must land in [0, words)
  /// True when the tile is filled from global memory before the lowered
  /// streams run (the working tile of permute/transpose/stride): its words
  /// count as initialized at epoch -1 for the init-before-read dataflow.
  bool extern_init = false;
};

/// Result of lowering a primitive at one concrete shape.
struct PrimitiveLowering {
  PrimShape shape;
  std::vector<AccessStream> streams;
  /// Shared tiles referenced by AccessStream::tile; when empty the safety
  /// pass assumes one extern-initialized tile of `shape.tile()` words.
  std::vector<TileSpec> tiles;
  verify::SymbolFacts facts;
  /// True for the gather-family primitives whose access pattern depends on
  /// the merge-path splits: verification must run through the full
  /// RoundSchedule machinery (verify_cf_gather) rather than the per-stream
  /// checks, with `gather_variant` selecting the (possibly broken) variant.
  bool delegate_cf_gather = false;
  verify::ScheduleVariant gather_variant = verify::ScheduleVariant::kFull;
};

/// A named conflict-free (or deliberately broken) access pattern.
class CFPrimitive {
 public:
  CFPrimitive() = default;
  CFPrimitive(const CFPrimitive&) = delete;
  CFPrimitive& operator=(const CFPrimitive&) = delete;
  virtual ~CFPrimitive() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// One-line catalog entry (docs/cfprims.md, cfverify text output).
  [[nodiscard]] virtual std::string_view description() const = 0;
  /// Whether the (w, E) family is in the primitive's domain.  The default
  /// is the paper's parameter range: 1 < E <= w.
  [[nodiscard]] virtual bool supports(int w, int e) const {
    return w > 0 && e > 1 && e <= w;
  }
  /// False for the registered broken variants: cfverify must refute these
  /// with a concrete lane-pair witness instead of proving them.
  [[nodiscard]] virtual bool expected_conflict_free(int w, int e) const {
    (void)w;
    (void)e;
    return true;
  }
  /// False for the safety ablations (safety_ablations()): the static safety
  /// pass must refute these with a concrete lane/epoch witness instead of
  /// proving bounds / init-before-read / race-freedom.
  [[nodiscard]] virtual bool expected_safe(int w, int e) const {
    (void)w;
    (void)e;
    return true;
  }
  /// Shared-memory footprint in elements for a block of shape `s`.
  [[nodiscard]] virtual std::int64_t shared_footprint(const PrimShape& s) const = 0;
  /// Lowers the primitive's access streams at shape `s` to the verify IR.
  [[nodiscard]] virtual PrimitiveLowering lower(const PrimShape& s) const = 0;
};

/// The stride-E CRS stream: thread i < u touches sigma(iE + j) in round j,
/// sigma = rho, rho^-1 (`inverse`) or the identity (`!with_rho`).  The CRS
/// primitives are built from it, and verify_cf_gather checks the gather's
/// per-round banks (Corollary 3) through it.
[[nodiscard]] AccessStream crs_stream(std::string name, bool is_write,
                                      const PrimShape& s, bool inverse,
                                      bool with_rho);

/// All registered primitives in a stable order (conflict-free ones first,
/// then the deliberately broken ablation variants).
[[nodiscard]] const std::vector<const CFPrimitive*>& registry();

/// Deliberately safety-broken ablation variants (off-by-wE scatter base,
/// read-before-scatter): kept OUT of registry() — they are bank-CRS clean
/// but memory-unsafe, and exist only so the static safety pass
/// (verify/safety) can demonstrate refutation with concrete lane/epoch
/// witnesses that the dynamic ShadowChecker replays.
[[nodiscard]] const std::vector<const CFPrimitive*>& safety_ablations();

/// Registry lookup by name; nullptr when unknown.  Searches registry()
/// first, then safety_ablations().
[[nodiscard]] const CFPrimitive* find_primitive(std::string_view name);

}  // namespace cfmerge::cfprims
