// The registered CF primitives: each names one shared-memory access
// pattern, knows its footprint, and lowers its access streams to the verify
// affine IR so the generic prover (verify/primitive.cpp) can certify or
// refute it.  The conflict-free ones are listed first, then the
// deliberately broken ablation variants that cfverify must refute with a
// concrete lane-pair witness.
#include "cfprims/primitive.hpp"

#include "gather/permutation.hpp"
#include "numtheory/numtheory.hpp"

namespace cfmerge::cfprims {

namespace {

using verify::AffineExpr;

AffineExpr thread_expr() { return AffineExpr::sym(verify::kSymThread, "i"); }
AffineExpr round_expr() { return AffineExpr::sym(verify::kSymRound, "j"); }

/// The stride-E rank index iE + j shared by every CRS stream.
AffineExpr rank_expr(int e) {
  return thread_expr().times(e) + round_expr();
}

/// Stamps the barrier-epoch / tile coordinates the safety pass consumes.
AccessStream at(AccessStream st, int epoch, int tile) {
  st.epoch = epoch;
  st.tile = tile;
  return st;
}

/// A contiguous slot-indexed read/write: phys = i over [0, domain).
AccessStream linear_stream(std::string name, bool is_write, std::int64_t domain) {
  AccessStream st;
  st.name = std::move(name);
  st.is_write = is_write;
  st.rounds = 1;
  st.domain = domain;
  st.phys = thread_expr();
  st.concrete = [](std::int64_t i, std::int64_t) { return i; };
  return st;
}

/// sigma applied to the contiguous slot index (the staging copy's write or
/// un-staging read): conflict-free because bank(sigma) has period wE.
AccessStream staged_stream(std::string name, bool is_write, const PrimShape& s,
                           bool inverse) {
  AccessStream st;
  st.name = std::move(name);
  st.is_write = is_write;
  st.rounds = 1;
  st.domain = s.tile();
  st.bank_period = static_cast<std::int64_t>(s.w) * s.e;
  st.phys = inverse ? verify::lower_rho_inverse(thread_expr(), s.w, s.e)
                    : verify::lower_rho(thread_expr(), s.w, s.e);
  const gather::CircularShift rho(s.w, s.e, s.tile());
  st.concrete = [rho, inverse](std::int64_t i, std::int64_t) {
    return inverse ? rho.inverse(i) : rho(i);
  };
  return st;
}

/// The CRS stream: thread i touches sigma(iE + j) in round j (sigma = rho,
/// rho^-1, or the identity for the broken variant).
AccessStream crs_stream(std::string name, bool is_write, const PrimShape& s,
                        bool inverse, bool with_rho) {
  AccessStream st;
  st.name = std::move(name);
  st.is_write = is_write;
  st.rounds = s.e;
  st.domain = s.u;
  st.residue_modulus = s.e;
  st.raw = rank_expr(s.e);
  st.phys = !with_rho ? st.raw
            : inverse ? verify::lower_rho_inverse(st.raw, s.w, s.e)
                      : verify::lower_rho(st.raw, s.w, s.e);
  const gather::CircularShift rho(s.w, s.e, s.tile());
  const std::int64_t e = s.e;
  st.concrete = [rho, inverse, with_rho, e](std::int64_t i, std::int64_t j) {
    const std::int64_t raw = i * e + j;
    if (!with_rho) return raw;
    return inverse ? rho.inverse(raw) : rho(raw);
  };
  return st;
}

/// The transposed-layout stream: thread i touches j*u + i in round j —
/// lanes cover w consecutive slots, conflict-free for any u.
AccessStream transposed_stream(std::string name, bool is_write, const PrimShape& s) {
  AccessStream st;
  st.name = std::move(name);
  st.is_write = is_write;
  st.rounds = s.e;
  st.domain = s.u;
  st.phys = round_expr().times(s.u) + thread_expr();
  const std::int64_t u = s.u;
  st.concrete = [u](std::int64_t i, std::int64_t j) { return j * u + i; };
  return st;
}

/// cf_gather and its broken ablation variants: the access pattern depends
/// on the merge-path splits, so verification delegates to the full
/// RoundSchedule machinery (verify_cf_gather).
class CfGatherPrim final : public CFPrimitive {
 public:
  explicit CfGatherPrim(verify::ScheduleVariant variant) : variant_(variant) {}

  [[nodiscard]] std::string_view name() const override {
    return verify::variant_name(variant_);
  }
  [[nodiscard]] std::string_view description() const override {
    switch (variant_) {
      case verify::ScheduleVariant::kFull:
        return "Algorithm 1 dual subsequence gather: rho(pi(A U B)) layout, "
               "stride-E CRS reads (the CF merge's core)";
      case verify::ScheduleVariant::kNoBReversal:
        return "broken ablation: [A|B] layout without the B reversal pi";
      case verify::ScheduleVariant::kNoRhoShift:
        return "broken ablation: pi without the circular shift rho (fails "
               "when gcd(w,E) > 1)";
    }
    return "?";
  }
  [[nodiscard]] bool supports(int w, int e) const override {
    if (!CFPrimitive::supports(w, e)) return false;
    // Without rho the schedule is still CF for coprime (w, E); only d > 1
    // families are refutable.
    return variant_ != verify::ScheduleVariant::kNoRhoShift ||
           numtheory::gcd(w, e) > 1;
  }
  [[nodiscard]] bool expected_conflict_free(int w, int e) const override {
    (void)w;
    (void)e;
    return variant_ == verify::ScheduleVariant::kFull;
  }
  [[nodiscard]] std::int64_t shared_footprint(const PrimShape& s) const override {
    return s.tile();
  }
  [[nodiscard]] PrimitiveLowering lower(const PrimShape& s) const override {
    PrimitiveLowering lo;
    lo.shape = s;
    // The merge tile is staged from global by exec_staged_copy before the
    // gather rounds read it — extern-initialized for the safety dataflow.
    lo.tiles = {{s.tile(), /*extern_init=*/true}};
    lo.facts = {{verify::kSymU, s.w}};
    lo.delegate_cf_gather = true;
    lo.gather_variant = variant_;
    return lo;
  }

 private:
  verify::ScheduleVariant variant_;
};

/// The multiway cascade's stride-E output scatter (CascadePlan::scatter_pos
/// final level / out_pos): merged rank iE + j written through rho — the
/// same Corollary 3 CRS argument as the gather, as a write.
class CfRankScatterPrim final : public CFPrimitive {
 public:
  [[nodiscard]] std::string_view name() const override { return "cf_rank_scatter"; }
  [[nodiscard]] std::string_view description() const override {
    return "stride-E rank scatter through rho (the multiway cascade's "
           "inter-level output scatter, Corollary 3 as a write)";
  }
  [[nodiscard]] std::int64_t shared_footprint(const PrimShape& s) const override {
    return s.tile();
  }
  [[nodiscard]] PrimitiveLowering lower(const PrimShape& s) const override {
    PrimitiveLowering lo;
    lo.shape = s;
    // Pure output scatter: the tile is written, never read, by this stream.
    lo.tiles = {{s.tile(), /*extern_init=*/false}};
    lo.facts = {{verify::kSymU, s.w}};
    lo.streams.push_back(
        at(crs_stream("scatter", /*is_write=*/true, s, /*inverse=*/false,
                      /*with_rho=*/true),
           /*epoch=*/0, /*tile=*/0));
    return lo;
  }
};

/// Standalone CF permutation through sigma = rho (forward) or rho^-1
/// (inverse) — see cfprims/permute.hpp for the executed kernel.
class CfPermutePrim final : public CFPrimitive {
 public:
  CfPermutePrim(bool inverse, bool with_rho) : inverse_(inverse), with_rho_(with_rho) {}

  [[nodiscard]] std::string_view name() const override {
    if (!with_rho_) return "cf_permute_no_rho";
    return inverse_ ? "cf_permute_inverse" : "cf_permute";
  }
  [[nodiscard]] std::string_view description() const override {
    if (!with_rho_)
      return "broken ablation: permute staged without rho (raw stride-E "
             "accesses collide when gcd(w,E) > 1)";
    return inverse_ ? "standalone CF permutation, sigma = rho^-1 (undoes "
                      "cf_permute; Afshani-Sitchinava permute primitive)"
                    : "standalone CF permutation, sigma = rho: stage, CRS "
                      "register gather, CRS scatter (Afshani-Sitchinava)";
  }
  [[nodiscard]] bool supports(int w, int e) const override {
    if (!CFPrimitive::supports(w, e)) return false;
    return with_rho_ || numtheory::gcd(w, e) > 1;
  }
  [[nodiscard]] bool expected_conflict_free(int w, int e) const override {
    (void)w;
    (void)e;
    return with_rho_;
  }
  [[nodiscard]] std::int64_t shared_footprint(const PrimShape& s) const override {
    return 2 * s.tile();  // working tile + staging tile
  }
  [[nodiscard]] PrimitiveLowering lower(const PrimShape& s) const override {
    PrimitiveLowering lo;
    lo.shape = s;
    // Tile 0: working tile, filled from global before the streams run.
    // Tile 1: staging tile, written by "stage" under a barrier before the
    // CRS gather reads it.
    lo.tiles = {{s.tile(), /*extern_init=*/true}, {s.tile(), /*extern_init=*/false}};
    lo.facts = {{verify::kSymU, s.w}};
    lo.streams.push_back(
        at(linear_stream("load", /*is_write=*/false, s.tile()), /*epoch=*/0, /*tile=*/0));
    if (with_rho_) {
      lo.streams.push_back(
          at(staged_stream("stage", /*is_write=*/true, s, inverse_), /*epoch=*/0,
             /*tile=*/1));
      lo.streams.push_back(
          at(crs_stream("gather", /*is_write=*/false, s, inverse_, with_rho_),
             /*epoch=*/1, /*tile=*/1));
    } else {
      // No staging without rho: the CRS gather reads the working tile.
      lo.streams.push_back(
          at(crs_stream("gather", /*is_write=*/false, s, inverse_, with_rho_),
             /*epoch=*/0, /*tile=*/0));
    }
    lo.streams.push_back(
        at(crs_stream("scatter", /*is_write=*/true, s, inverse_, with_rho_),
           /*epoch=*/1, /*tile=*/0));
    return lo;
  }

 private:
  bool inverse_;
  bool with_rho_;
};

/// Standalone CF transposition of the u x E tile (row-major -> E x u):
/// rho-staged CRS on the stride-E side, contiguous on the transposed side.
class CfTransposePrim final : public CFPrimitive {
 public:
  explicit CfTransposePrim(bool inverse) : inverse_(inverse) {}

  [[nodiscard]] std::string_view name() const override {
    return inverse_ ? "cf_transpose_inverse" : "cf_transpose";
  }
  [[nodiscard]] std::string_view description() const override {
    return inverse_ ? "CF transposition E x u -> u x E (undoes cf_transpose "
                      "via the forward-rho staging tile)"
                    : "CF transposition u x E -> E x u: rho-staged CRS "
                      "gather, contiguous transposed scatter";
  }
  [[nodiscard]] std::int64_t shared_footprint(const PrimShape& s) const override {
    return 2 * s.tile();
  }
  [[nodiscard]] PrimitiveLowering lower(const PrimShape& s) const override {
    PrimitiveLowering lo;
    lo.shape = s;
    // Tile 0: working tile (extern-filled); tile 1: rho staging tile.
    lo.tiles = {{s.tile(), /*extern_init=*/true}, {s.tile(), /*extern_init=*/false}};
    lo.facts = {{verify::kSymU, s.w}};
    lo.streams.push_back(
        at(linear_stream("load", /*is_write=*/false, s.tile()), /*epoch=*/0, /*tile=*/0));
    if (!inverse_) {
      lo.streams.push_back(
          at(staged_stream("stage", /*is_write=*/true, s, /*inverse=*/false),
             /*epoch=*/0, /*tile=*/1));
      lo.streams.push_back(
          at(crs_stream("gather", /*is_write=*/false, s, /*inverse=*/false,
                        /*with_rho=*/true),
             /*epoch=*/1, /*tile=*/1));
      lo.streams.push_back(
          at(transposed_stream("scatter", /*is_write=*/true, s), /*epoch=*/1,
             /*tile=*/0));
    } else {
      lo.streams.push_back(
          at(transposed_stream("gather", /*is_write=*/false, s), /*epoch=*/0,
             /*tile=*/0));
      lo.streams.push_back(
          at(crs_stream("scatter", /*is_write=*/true, s, /*inverse=*/false,
                        /*with_rho=*/true),
             /*epoch=*/0, /*tile=*/1));
      lo.streams.push_back(
          at(staged_stream("unstage", /*is_write=*/false, s, /*inverse=*/false),
             /*epoch=*/1, /*tile=*/1));
    }
    return lo;
  }

 private:
  bool inverse_;
};

/// The raw stride-E CRS without rho: thread i touches iE + j in round j.
/// Conflict-free exactly when gcd(w, E) = 1 (iE mod w then walks all
/// residues over a warp); the primitive only registers for that family, so
/// a certificate exists iff the pattern is provably CF.  This is the block
/// sort's thread-local gather/scatter and the baseline merge's output
/// scatter.
class CfStridePrim final : public CFPrimitive {
 public:
  [[nodiscard]] std::string_view name() const override { return "cf_stride"; }
  [[nodiscard]] std::string_view description() const override {
    return "raw stride-E CRS (no rho): iE + j over a warp, conflict-free "
           "for gcd(w,E) = 1 (block-sort thread phases, baseline scatter)";
  }
  [[nodiscard]] bool supports(int w, int e) const override {
    return CFPrimitive::supports(w, e) && numtheory::gcd(w, e) == 1;
  }
  [[nodiscard]] std::int64_t shared_footprint(const PrimShape& s) const override {
    return s.tile();
  }
  [[nodiscard]] PrimitiveLowering lower(const PrimShape& s) const override {
    PrimitiveLowering lo;
    lo.shape = s;
    // One extern-filled tile: thread i reads, sorts, and rewrites its own
    // stride-E slots across a barrier.
    lo.tiles = {{s.tile(), /*extern_init=*/true}};
    lo.facts = {{verify::kSymU, s.w}};
    lo.streams.push_back(
        at(crs_stream("gather", /*is_write=*/false, s, /*inverse=*/false,
                      /*with_rho=*/false),
           /*epoch=*/0, /*tile=*/0));
    lo.streams.push_back(
        at(crs_stream("scatter", /*is_write=*/true, s, /*inverse=*/false,
                      /*with_rho=*/false),
           /*epoch=*/1, /*tile=*/0));
    return lo;
  }
};

/// The unit-stride staging family: every warp-wide access of a tile
/// stage/unstage copy touches w *consecutive* slots, ascending (loads,
/// identity staging) or descending (the reversed B run), from an arbitrary
/// base offset.  Consecutive addresses hit w distinct banks for any base,
/// which the round index j = 0..w-1 makes exhaustive: round j checks every
/// w-aligned window shifted by j, i.e. every base class mod w.
class CfStagePrim final : public CFPrimitive {
 public:
  [[nodiscard]] std::string_view name() const override { return "cf_stage"; }
  [[nodiscard]] std::string_view description() const override {
    return "unit-stride staging runs at any base offset, ascending or "
           "descending (tile load/store copies), conflict-free per warp";
  }
  [[nodiscard]] std::int64_t shared_footprint(const PrimShape& s) const override {
    return s.tile() + s.w;  // round offsets shift windows past the tile end
  }
  [[nodiscard]] PrimitiveLowering lower(const PrimShape& s) const override {
    PrimitiveLowering lo;
    lo.shape = s;
    lo.tiles = {{s.tile() + s.w, /*extern_init=*/false}};
    lo.facts = {{verify::kSymU, s.w}};
    const std::int64_t tile = s.tile();
    AccessStream up;
    up.name = "ascending";
    up.is_write = true;
    up.rounds = s.w;
    up.domain = tile;
    // The round index enumerates alternative base-offset classes (one copy
    // call uses one), not coexisting rounds: race checks stay intra-round,
    // and the two directions are alternative instances too (distinct epochs).
    up.rounds_are_instances = true;
    up.phys = thread_expr() + round_expr();
    up.concrete = [](std::int64_t i, std::int64_t j) { return i + j; };
    lo.streams.push_back(at(std::move(up), /*epoch=*/0, /*tile=*/0));
    AccessStream down;
    down.name = "descending";
    down.is_write = true;
    down.rounds = s.w;
    down.domain = tile;
    down.rounds_are_instances = true;
    down.phys = AffineExpr::constant(tile - 1) + round_expr() - thread_expr();
    down.concrete = [tile](std::int64_t i, std::int64_t j) {
      return tile - 1 + j - i;
    };
    lo.streams.push_back(at(std::move(down), /*epoch=*/1, /*tile=*/0));
    return lo;
  }
};

/// Safety ablation #1: the rank scatter with its base off by one warp
/// window (+wE).  Bank-wise indistinguishable from cf_rank_scatter (the
/// shift is 0 mod w), but the top warp window of every tile lands past
/// tile_words — a bounds violation the static pass must refute with a
/// concrete out-of-range lane.
class CfRankScatterOffByWePrim final : public CFPrimitive {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "cf_rank_scatter_off_by_we";
  }
  [[nodiscard]] std::string_view description() const override {
    return "safety ablation: rank scatter with the base off by +wE — "
           "bank-clean but out of bounds for the last warp window";
  }
  [[nodiscard]] bool expected_safe(int w, int e) const override {
    (void)w;
    (void)e;
    return false;
  }
  [[nodiscard]] std::int64_t shared_footprint(const PrimShape& s) const override {
    return s.tile();
  }
  [[nodiscard]] PrimitiveLowering lower(const PrimShape& s) const override {
    PrimitiveLowering lo;
    lo.shape = s;
    lo.tiles = {{s.tile(), /*extern_init=*/false}};
    lo.facts = {{verify::kSymU, s.w}};
    const std::int64_t we = static_cast<std::int64_t>(s.w) * s.e;
    AccessStream st =
        crs_stream("scatter", /*is_write=*/true, s, /*inverse=*/false,
                   /*with_rho=*/true);
    st.phys = st.phys + AffineExpr::constant(we);
    const auto base = st.concrete;
    st.concrete = [base, we](std::int64_t i, std::int64_t j) {
      return base(i, j) + we;
    };
    lo.streams.push_back(at(std::move(st), /*epoch=*/0, /*tile=*/0));
    return lo;
  }
};

/// Safety ablation #2: cf_permute with the barrier between the staging
/// write and the CRS gather elided — the gather reads the staging tile in
/// the same epoch the stage writes it, so no prior epoch covers the read
/// set.  The static pass must refute init-before-read with a concrete
/// uninitialized-word witness the ShadowChecker reproduces.
class CfPermuteReadBeforeScatterPrim final : public CFPrimitive {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "cf_permute_read_before_scatter";
  }
  [[nodiscard]] std::string_view description() const override {
    return "safety ablation: permute gather reads the staging tile in the "
           "stage write's own epoch (missing barrier) — uninitialized reads";
  }
  [[nodiscard]] bool expected_safe(int w, int e) const override {
    (void)w;
    (void)e;
    return false;
  }
  [[nodiscard]] std::int64_t shared_footprint(const PrimShape& s) const override {
    return 2 * s.tile();
  }
  [[nodiscard]] PrimitiveLowering lower(const PrimShape& s) const override {
    PrimitiveLowering lo;
    lo.shape = s;
    lo.tiles = {{s.tile(), /*extern_init=*/true}, {s.tile(), /*extern_init=*/false}};
    lo.facts = {{verify::kSymU, s.w}};
    lo.streams.push_back(
        at(linear_stream("load", /*is_write=*/false, s.tile()), /*epoch=*/0, /*tile=*/0));
    lo.streams.push_back(
        at(staged_stream("stage", /*is_write=*/true, s, /*inverse=*/false),
           /*epoch=*/0, /*tile=*/1));
    // The broken bit: epoch 0 instead of 1 — same epoch as the stage write.
    lo.streams.push_back(
        at(crs_stream("gather", /*is_write=*/false, s, /*inverse=*/false,
                      /*with_rho=*/true),
           /*epoch=*/0, /*tile=*/1));
    lo.streams.push_back(
        at(crs_stream("scatter", /*is_write=*/true, s, /*inverse=*/false,
                      /*with_rho=*/true),
           /*epoch=*/1, /*tile=*/0));
    return lo;
  }
};

}  // namespace

const std::vector<const CFPrimitive*>& registry() {
  static const CfGatherPrim gather_full(verify::ScheduleVariant::kFull);
  static const CfGatherPrim gather_no_pi(verify::ScheduleVariant::kNoBReversal);
  static const CfGatherPrim gather_no_rho(verify::ScheduleVariant::kNoRhoShift);
  static const CfRankScatterPrim rank_scatter;
  static const CfPermutePrim permute(/*inverse=*/false, /*with_rho=*/true);
  static const CfPermutePrim permute_inverse(/*inverse=*/true, /*with_rho=*/true);
  static const CfPermutePrim permute_no_rho(/*inverse=*/false, /*with_rho=*/false);
  static const CfTransposePrim transpose(/*inverse=*/false);
  static const CfTransposePrim transpose_inverse(/*inverse=*/true);
  static const CfStridePrim stride;
  static const CfStagePrim stage;
  static const std::vector<const CFPrimitive*> all = {
      &gather_full,      &rank_scatter,      &permute,
      &permute_inverse,  &transpose,         &transpose_inverse,
      &stride,           &stage,
      &gather_no_pi,     &gather_no_rho,     &permute_no_rho,
  };
  return all;
}

const std::vector<const CFPrimitive*>& safety_ablations() {
  static const CfRankScatterOffByWePrim off_by_we;
  static const CfPermuteReadBeforeScatterPrim read_before_scatter;
  static const std::vector<const CFPrimitive*> all = {&off_by_we,
                                                      &read_before_scatter};
  return all;
}

const CFPrimitive* find_primitive(std::string_view name) {
  for (const CFPrimitive* p : registry())
    if (p->name() == name) return p;
  for (const CFPrimitive* p : safety_ablations())
    if (p->name() == name) return p;
  return nullptr;
}

}  // namespace cfmerge::cfprims
