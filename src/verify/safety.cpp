// Pass 3: static memory-safety certification (see safety.hpp for the
// property definitions and proof strategy).
#include "verify/safety.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gather/permutation.hpp"
#include "numtheory/numtheory.hpp"
#include "verify/affine.hpp"
#include "verify/certificate.hpp"
#include "verify/lower.hpp"

namespace cfmerge::verify {

namespace {

using cfprims::AccessStream;
using cfprims::CFPrimitive;
using cfprims::PrimitiveLowering;
using cfprims::PrimShape;

/// Free block-size multiplier of the symbolic family step: u = w·M, M ≥ 1.
/// Chosen outside the lowering symbol space (lower.hpp uses 0..6, the
/// coverage lemma uses 100..102).
constexpr SymId kSymM = 103;

std::int64_t tile_words(const PrimitiveLowering& lo, int tile_idx) {
  if (lo.tiles.empty()) return lo.shape.tile();
  return lo.tiles[static_cast<std::size_t>(tile_idx)].words;
}

/// Marks the proof refuted on the first witness; later failures only mark
/// their own step.
void fail_step(ProofObject& po, ProofStep& step, std::string detail,
               Counterexample cex) {
  fail(step, std::move(detail));
  if (po.verdict == Verdict::kProved) {
    po.verdict = Verdict::kCounterexample;
    po.counterexample = std::move(cex);
  }
}

Counterexample make_cex(const PrimShape& s, std::string kind, int epoch, int round,
                        int lane1, int lane2, std::int64_t addr1,
                        std::int64_t addr2) {
  Counterexample cex;
  cex.w = s.w;
  cex.e = s.e;
  cex.u = s.u;
  cex.kind = std::move(kind);
  cex.epoch = epoch;
  cex.round = round;
  cex.lane1 = lane1;
  cex.lane2 = lane2;
  cex.addr1 = addr1;
  cex.addr2 = addr2;
  return cex;
}

// ---- bounds ------------------------------------------------------------

/// Symbolic family bounds: 0 ≤ phys ≤ words − 1 for every u = w·M.  Only
/// valid when the stream's expression is u-independent, which the caller
/// establishes by comparing the u = 2w and u = 3w lowerings structurally.
/// Returns the derivation rendered for the step detail, or nullopt when the
/// interval algebra cannot close the claim.
std::optional<std::string> symbolic_bounds(const PrimitiveLowering& lo,
                                           const AccessStream& st) {
  const PrimShape& s = lo.shape;
  const std::int64_t we = static_cast<std::int64_t>(s.w) * s.e;
  SymRanges ranges;
  LinearForm i_hi;
  if (st.domain == s.u) {
    i_hi = LinearForm{-1, {{kSymM, s.w}}};  // i ≤ u − 1 = w·M − 1
  } else if (st.domain == s.tile()) {
    i_hi = LinearForm{-1, {{kSymM, we}}};   // i ≤ uE − 1 = wE·M − 1
  } else {
    return std::nullopt;
  }
  ranges[kSymThread] = SymInterval{LinearForm::constant(0), i_hi};
  ranges[kSymRound] =
      SymInterval{LinearForm::constant(0), LinearForm::constant(st.rounds - 1)};

  const std::int64_t extra = tile_words(lo, st.tile) - s.tile();
  if (extra < 0) return std::nullopt;
  // words − 1 = wE·M + extra − 1 for the scaled tile.
  const LinearForm words_hi{extra - 1, {{kSymM, we}}};

  const auto iv = interval_hull(st.phys, ranges);
  if (!iv) return std::nullopt;
  if (!definitely_le(LinearForm::constant(0), iv->lo)) return std::nullopt;
  if (!definitely_le(iv->hi, words_hi)) return std::nullopt;
  std::ostringstream os;
  os << "for all u = w*M: phys in [" << iv->lo.str() << ", " << iv->hi.str()
     << "] within [0, " << words_hi.str() << "] (M = u/w)";
  std::string out = os.str();
  // Render the free multiplier symbol by its name.
  for (std::size_t at = out.find("sym103"); at != std::string::npos;
       at = out.find("sym103", at))
    out.replace(at, 6, 1, 'M');
  return out;
}

/// Exhaustive bounds scan of one stream at one concrete lowering.
std::optional<Counterexample> bounds_concrete(const PrimitiveLowering& lo,
                                              const AccessStream& st) {
  const std::int64_t words = tile_words(lo, st.tile);
  for (int j = 0; j < st.rounds; ++j)
    for (std::int64_t i = 0; i < st.domain; ++i) {
      const std::int64_t addr = st.concrete(i, j);
      if (addr < 0 || addr >= words) {
        const int lane = static_cast<int>(i % lo.shape.u);
        return make_cex(lo.shape, "out-of-bounds", st.epoch, j, lane, lane, addr,
                        words);
      }
    }
  return std::nullopt;
}

// ---- init-before-read --------------------------------------------------

/// Epoch-ordered dataflow at one concrete lowering: reads of epoch T must be
/// covered by the union of write-sets of epochs < T (plus extern-filled
/// tiles).  Out-of-range addresses are the bounds step's to report.
std::optional<Counterexample> init_concrete(const PrimitiveLowering& lo) {
  const std::size_t ntiles = std::max<std::size_t>(lo.tiles.size(), 1);
  std::vector<std::vector<char>> written(ntiles);
  for (std::size_t t = 0; t < ntiles; ++t) {
    const bool ext = !lo.tiles.empty() && lo.tiles[t].extern_init;
    written[t].assign(
        static_cast<std::size_t>(tile_words(lo, static_cast<int>(t))),
        ext ? 1 : 0);
  }

  std::vector<int> epochs;
  for (const AccessStream& st : lo.streams) epochs.push_back(st.epoch);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());

  for (const int t : epochs) {
    // Reads first, against the state *before* this epoch's writes land: a
    // same-epoch write does not order before a same-epoch read.
    for (const AccessStream& st : lo.streams) {
      if (st.epoch != t || st.is_write) continue;
      auto& cover = written[static_cast<std::size_t>(st.tile)];
      for (int j = 0; j < st.rounds; ++j)
        for (std::int64_t i = 0; i < st.domain; ++i) {
          const std::int64_t addr = st.concrete(i, j);
          if (addr < 0 || addr >= static_cast<std::int64_t>(cover.size())) continue;
          if (cover[static_cast<std::size_t>(addr)] == 0) {
            const int lane = static_cast<int>(i % lo.shape.u);
            return make_cex(lo.shape, "uninitialized-read", t, j, lane, lane, addr,
                            addr);
          }
        }
    }
    for (const AccessStream& st : lo.streams) {
      if (st.epoch != t || !st.is_write) continue;
      auto& cover = written[static_cast<std::size_t>(st.tile)];
      for (int j = 0; j < st.rounds; ++j)
        for (std::int64_t i = 0; i < st.domain; ++i) {
          const std::int64_t addr = st.concrete(i, j);
          if (addr >= 0 && addr < static_cast<std::int64_t>(cover.size()))
            cover[static_cast<std::size_t>(addr)] = 1;
        }
    }
  }
  return std::nullopt;
}

// ---- race-freedom ------------------------------------------------------

/// One write event during the duplicate scan.
struct WriteEvent {
  int stream = 0;
  int round = 0;
  std::int64_t i = 0;
};

/// Whether two same-address writes of one epoch are unordered (a race).
/// The execution model matches the executors' chunking: slot i is handled
/// by thread i mod u in chunk i div u; a warp runs its chunks and streams
/// in lockstep program order, distinct warps are unsynchronized within an
/// epoch.
bool is_race(const PrimitiveLowering& lo, const WriteEvent& a, const WriteEvent& b) {
  const std::int64_t u = lo.shape.u;
  const int w = lo.shape.w;
  const std::int64_t t1 = a.i % u;
  const std::int64_t t2 = b.i % u;
  if (t1 == t2) return false;  // same thread: program order
  const bool same_stream = a.stream == b.stream;
  if (same_stream &&
      lo.streams[static_cast<std::size_t>(a.stream)].rounds_are_instances &&
      a.round != b.round)
    return false;  // alternative instances never coexist
  if (t1 / w != t2 / w) return true;  // cross-warp: no sync inside an epoch
  // Same warp: lockstep, so only simultaneous lanes (same stream, round and
  // chunk) conflict.
  return same_stream && a.round == b.round && a.i / u == b.i / u;
}

std::optional<Counterexample> race_concrete(const PrimitiveLowering& lo) {
  std::vector<int> epochs;
  for (const AccessStream& st : lo.streams)
    if (st.is_write) epochs.push_back(st.epoch);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());

  for (const int t : epochs) {
    // addr -> first writer, per tile.
    std::vector<std::vector<WriteEvent>> first(std::max<std::size_t>(lo.tiles.size(), 1));
    std::vector<std::vector<char>> seen(first.size());
    for (std::size_t tl = 0; tl < first.size(); ++tl) {
      const auto words =
          static_cast<std::size_t>(tile_words(lo, static_cast<int>(tl)));
      first[tl].resize(words);
      seen[tl].assign(words, 0);
    }
    for (std::size_t si = 0; si < lo.streams.size(); ++si) {
      const AccessStream& st = lo.streams[si];
      if (st.epoch != t || !st.is_write) continue;
      auto& fw = first[static_cast<std::size_t>(st.tile)];
      auto& sw = seen[static_cast<std::size_t>(st.tile)];
      for (int j = 0; j < st.rounds; ++j)
        for (std::int64_t i = 0; i < st.domain; ++i) {
          const std::int64_t addr = st.concrete(i, j);
          if (addr < 0 || addr >= static_cast<std::int64_t>(fw.size())) continue;
          const WriteEvent ev{static_cast<int>(si), j, i};
          const auto ai = static_cast<std::size_t>(addr);
          if (sw[ai] != 0) {
            if (is_race(lo, fw[ai], ev)) {
              const auto& prev = fw[ai];
              return make_cex(lo.shape, "write-write-race", t, j,
                              static_cast<int>(prev.i % lo.shape.u),
                              static_cast<int>(i % lo.shape.u), addr, addr);
            }
          } else {
            sw[ai] = 1;
            fw[ai] = ev;
          }
        }
    }
  }
  return std::nullopt;
}

/// Symbolic injectivity evidence for the race step detail: the CRS raw form
/// iE + j is a division-algorithm pairing and σ is a bijection, so the
/// scatter image has no duplicates for *any* block size.
std::string injectivity_note(const PrimitiveLowering& lo) {
  std::ostringstream os;
  bool any = false;
  for (const AccessStream& st : lo.streams) {
    if (!st.is_write || st.residue_modulus == 0) continue;
    if (any) os << "; ";
    os << st.name << ": raw = i*E + j injective on [0,u)x[0,E) "
       << "(division algorithm), sigma bijective => phys injective for all u";
    any = true;
  }
  if (!any) os << "no CRS write streams; exhaustive duplicate scan only";
  return os.str();
}

// ---- per-primitive driver (non-delegated) ------------------------------

/// Whether the u = 2w and u = 3w lowerings produce structurally identical
/// stream expressions — the u-uniformity premise of the symbolic family
/// bounds claim.
bool stream_u_uniform(const AccessStream& a, const AccessStream& b) {
  return a.phys.str() == b.phys.str();
}

ProofObject stream_safety(const CFPrimitive& prim, int w, int e) {
  const PrimShape s2{w, e, 2 * w, 0};
  const PrimShape s3{w, e, 3 * w, 0};
  const PrimitiveLowering lo2 = prim.lower(s2);
  const PrimitiveLowering lo3 = prim.lower(s3);

  ProofObject po;
  po.schedule = std::string(prim.name());
  po.family = po.schedule;
  po.w = w;
  po.e = e;
  po.d = numtheory::gcd(w, e);
  po.scope =
      "bounds, init-before-read and race-freedom exhaustively at u = 2w and "
      "u = 3w; u-uniform streams additionally bounded symbolically for every "
      "u = w*M";

  for (std::size_t si = 0; si < lo2.streams.size(); ++si) {
    const AccessStream& st = lo2.streams[si];
    ProofStep& step = po.add_step("bounds:" + st.name);
    std::optional<std::string> sym;
    if (si < lo3.streams.size() && stream_u_uniform(st, lo3.streams[si]))
      sym = symbolic_bounds(lo2, st);
    auto cex = bounds_concrete(lo2, st);
    if (!cex && si < lo3.streams.size()) cex = bounds_concrete(lo3, lo3.streams[si]);
    if (cex) {
      fail_step(po, step, "address escapes [0, tile_words): " + cex->str(), *cex);
      continue;
    }
    step.detail = sym ? *sym
                      : "exhaustive at u = 2w and u = 3w (interval algebra "
                        "inexact for this u-dependent form)";
  }

  {
    ProofStep& step = po.add_step("init-before-read");
    auto cex = init_concrete(lo2);
    if (!cex) cex = init_concrete(lo3);
    if (cex) {
      fail_step(po, step, "read precedes any covering write: " + cex->str(), *cex);
    } else {
      step.detail =
          "every epoch-T read covered by extern fill + writes of epochs < T "
          "(exhaustive dataflow at u = 2w and u = 3w)";
    }
  }

  {
    ProofStep& step = po.add_step("race-freedom");
    auto cex = race_concrete(lo2);
    if (!cex) cex = race_concrete(lo3);
    if (cex) {
      fail_step(po, step, "unordered same-epoch writes collide: " + cex->str(),
                *cex);
    } else {
      step.detail = injectivity_note(lo2) +
                    "; duplicate scan clean at u = 2w and u = 3w";
    }
  }

  po.settle_safety_verdict();
  return po;
}

// ---- gather-family composite model -------------------------------------

/// The fill map of the staged tile load's gather::PairLayout for the
/// variant, modelled independently of it: where A element x and B element y
/// land in shared memory.
std::int64_t fill_pos_a(ScheduleVariant variant, const gather::CircularShift& rho,
                        std::int64_t x) {
  return variant == ScheduleVariant::kNoRhoShift ? x : rho(x);
}
std::int64_t fill_pos_b(ScheduleVariant variant, const gather::CircularShift& rho,
                        std::int64_t la, std::int64_t lb, std::int64_t y) {
  const std::int64_t raw =
      variant == ScheduleVariant::kNoBReversal ? la + y : la + lb - 1 - y;
  return variant == ScheduleVariant::kNoRhoShift ? raw : rho(raw);
}

/// The fill bijection and the gather read sweep over sampled (u, split):
/// the reads evaluate lower_cf_gather's IR, which lowering-faithfulness
/// proves equal to RoundSchedule::read.
ProofObject gather_family_safety(const CFPrimitive& prim, ScheduleVariant variant,
                                 int w, int e) {
  ProofObject po;
  po.schedule = std::string(prim.name());
  po.family = po.schedule;
  po.w = w;
  po.e = e;
  po.d = numtheory::gcd(w, e);
  po.scope =
      "fill bijection exhaustive over sampled |A| and the gather read sweep "
      "over structured + seeded-random merge-path splits, u in {w, 2w}; "
      "reads are covered because the epoch-0 fill is a bijection of the tile";

  // add_step may reallocate po.steps, so take the references only after the
  // last insertion (fail_step below never adds steps).
  po.add_step("fill-covers-tile");
  po.add_step("bounds:gather");
  po.add_step("init-before-read");
  po.add_step("race-freedom");
  ProofStep& fill = po.steps[po.steps.size() - 4];
  ProofStep& bounds = po.steps[po.steps.size() - 3];
  ProofStep& init = po.steps[po.steps.size() - 2];
  ProofStep& race = po.steps[po.steps.size() - 1];

  const FlatExpr read_phys(lower_cf_gather(w, e, variant).phys);
  std::int64_t checked_fills = 0;
  std::int64_t checked_reads = 0;
  for (const int u : {w, 2 * w}) {
    const std::int64_t tile = static_cast<std::int64_t>(u) * e;
    const gather::CircularShift rho(w, e, tile);
    const PrimShape shape{w, e, u, 0};
    for (const Split& sp : sample_splits(u, e, 6,
                                         0x5AFE7Eu + static_cast<std::uint64_t>(u) * 131 +
                                             static_cast<std::uint64_t>(e))) {
      const std::int64_t la = sp.la;
      const std::int64_t lb = tile - la;
      // Fill: pos_a over [0, la) and pos_b over [0, lb) must tile [0, tile)
      // exactly once — bounds, race-freedom and full coverage of the fill
      // epoch in one exhaustive pass.
      std::vector<char> cover(static_cast<std::size_t>(tile), 0);
      bool fill_ok = true;
      for (std::int64_t x = 0; x < tile && fill_ok; ++x) {
        const std::int64_t pos = x < la
                                     ? fill_pos_a(variant, rho, x)
                                     : fill_pos_b(variant, rho, la, lb, x - la);
        const int lane = static_cast<int>(x % u);
        if (pos < 0 || pos >= tile) {
          fail_step(po, fill, "fill writes outside the tile",
                    make_cex(shape, "out-of-bounds", 0, 0, lane, lane, pos, tile));
          fill_ok = false;
        } else if (cover[static_cast<std::size_t>(pos)] != 0) {
          fail_step(po, fill, "fill writes one shared word twice",
                    make_cex(shape, "write-write-race", 0, 0, lane, lane, pos, pos));
          fill_ok = false;
        } else {
          cover[static_cast<std::size_t>(pos)] = 1;
        }
      }
      if (fill_ok) ++checked_fills;

      // Gather rounds: every read lands in [0, tile) — and the fill epoch
      // covered the whole tile, so in-bounds ⇒ initialized.
      for (int j = 0; j < e; ++j)
        for (std::int64_t i = 0; i < u; ++i) {
          const auto ui = static_cast<std::size_t>(i);
          const std::int64_t pos =
              read_phys.eval(cf_gather_env(i, j, sp.a_off[ui], sp.a_size[ui], u, la));
          ++checked_reads;
          if (pos < 0 || pos >= tile)
            fail_step(po, bounds, "gather read escapes the tile",
                      make_cex(shape, "out-of-bounds", 1, j, static_cast<int>(i),
                               static_cast<int>(i), pos, tile));
        }
    }
  }

  std::ostringstream fs;
  fs << checked_fills << " (u, |A|) fill instances: bijection onto [0, tile)";
  if (fill.status == StepStatus::kPassed) fill.detail = fs.str();
  std::ostringstream bs;
  bs << checked_reads
     << " (u, split, round, lane) reads of the checked cf_gather IR within [0, tile)";
  if (bounds.status == StepStatus::kPassed) bounds.detail = bs.str();
  if (fill.status == StepStatus::kPassed && bounds.status == StepStatus::kPassed) {
    init.detail =
        "the epoch-0 fill is a bijection of the tile (fill-covers-tile), a "
        "barrier separates it from the gather, and every gather read is "
        "in-bounds — so every read word is initialized";
    race.detail =
        "the fill's bijectivity is the no-duplicate property (one write per "
        "word); the gather epoch only reads";
  } else {
    if (fill.status != StepStatus::kPassed) {
      init.status = StepStatus::kSkipped;
      init.detail = "fill bijection refuted; init-before-read not derivable";
      race.status = StepStatus::kSkipped;
      race.detail = "fill bijection refuted";
    } else {
      init.status = StepStatus::kSkipped;
      init.detail = "gather bounds refuted; coverage argument not applicable";
      race.detail = "fill bijection holds; the gather epoch only reads";
    }
  }

  po.settle_safety_verdict();
  return po;
}

// ---- composite kernels ---------------------------------------------------

/// The block sort's thread-sort phases read and rewrite slots i*E + j across
/// a barrier; the map tiles [0, uE) exactly once for any gcd(w, E), which is
/// the bounds + race + coverage argument in one scan.  cf_stride, the
/// registered form of this map, only exists for gcd(w, E) = 1.
void stride_phase_bijection(ProofObject& po, ProofStep& step, int w, int e) {
  for (const int u : {2 * w, 3 * w}) {
    const std::int64_t tile = static_cast<std::int64_t>(u) * e;
    std::vector<char> cover(static_cast<std::size_t>(tile), 0);
    for (std::int64_t i = 0; i < u; ++i)
      for (int j = 0; j < e; ++j) {
        const std::int64_t r = i * e + j;
        if (r < 0 || r >= tile || cover[static_cast<std::size_t>(r)] != 0) {
          fail_step(po, step, "stride phase not a bijection",
                    make_cex(PrimShape{w, e, u, 0}, "write-write-race", 1, j,
                             static_cast<int>(i), static_cast<int>(i), r, r));
          return;
        }
        cover[static_cast<std::size_t>(r)] = 1;
      }
  }
  step.detail =
      "slots i*E + j tile [0, uE) exactly once at u = 2w and u = 3w "
      "(division algorithm, gcd-independent)";
}

}  // namespace

ProofObject verify_primitive_safety(const CFPrimitive& prim, int w, int e) {
  if (!prim.supports(w, e))
    throw std::invalid_argument("verify_primitive_safety: unsupported (w, E) for " +
                                std::string(prim.name()));
  validate_width("verify_primitive_safety", w);
  const PrimitiveLowering probe = prim.lower(PrimShape{w, e, 2 * w, 0});
  if (probe.delegate_cf_gather)
    return gather_family_safety(prim, probe.gather_variant, w, e);
  return stream_safety(prim, w, e);
}

ProofObject verify_primitive_safety(std::string_view name, int w, int e) {
  const CFPrimitive* prim = cfprims::find_primitive(name);
  if (prim == nullptr)
    throw std::invalid_argument("verify_primitive_safety: unknown primitive " +
                                std::string(name));
  return verify_primitive_safety(*prim, w, e);
}

const std::vector<CompositeKernel>& composite_kernels() {
  static const std::vector<CompositeKernel> kernels = {
      {"merge",
       "sort/merge_pass.hpp composition: staged fill, merge-path search, CF "
       "gather, rank-scatter store — each barrier-separated; every component "
       "cites its memoized safety certificate",
       {{"fill-component:cf_stage", "cf_stage"},
        {"gather-component:cf_gather", "cf_gather"},
        {"store-component:cf_rank_scatter", "cf_rank_scatter"}},
       "epoch-order",
       "barriers separate fill -> search/merge -> store (merge_pass.hpp); "
       "each epoch reads only tiles fully written by earlier epochs",
       false},
      {"blocksort",
       "sort/block_sort.hpp composition: staged load, stride-E thread phases, "
       "one in-place re-layout, then the CF rounds as cascade levels (CF "
       "gather, rank scatter), staged store — each barrier-separated; every "
       "component cites its memoized safety certificate, the stride phase is "
       "scanned by hand",
       {{"load-component:cf_stage", "cf_stage"},
        {"thread-sort-stride-bijective", ""},
        {"merge-gather-component:cf_gather", "cf_gather"},
        {"relayout-component:cf_stage", "cf_stage"},
        {"level-scatter-component:cf_rank_scatter", "cf_rank_scatter"}},
       "epoch-order",
       "barriers separate load -> thread sort -> each serial round -> (CF: "
       "one re-layout, row reads -> pi/rho writes; then per level gather -> "
       "rank scatter into the parent's region; the root's write-back) -> "
       "store; every read is written first",
       false},
      {"multiway",
       "sort/multiway_pass.hpp cascade in one buffer: fill, then per level a "
       "CF gather of every pair, then a rho rank scatter into the regions "
       "just read, barrier-separated; every component cites its certificate",
       {{"fill-component:cf_stage", "cf_stage"},
        {"gather-component:cf_gather", "cf_gather"},
        {"scatter-component:cf_rank_scatter", "cf_rank_scatter"}},
       "level-in-place",
       "level L gathers what level L-1 (or the fill) wrote, then, past a "
       "barrier, rank-scatters rho(i*E + j) onto its children's union (the "
       "parent's region); a barrier closes each level and the root's gathers",
       true},
  };
  return kernels;
}

ProofObject verify_composite_safety(const CompositeKernel& kernel, int w, int e,
                                    int k) {
  if (kernel.per_arity != (k > 0))
    throw std::invalid_argument("verify_composite_safety: " +
                                std::string(kernel.name) +
                                (kernel.per_arity ? " needs" : " takes no") +
                                " merge arity k");
  validate_width("verify_composite_safety", w);
  ProofObject po;
  po.schedule = std::string(kernel.name);
  po.family = po.schedule;
  po.w = w;
  po.e = e;
  po.k = k;
  po.d = numtheory::gcd(w, e);
  po.scope = std::string(kernel.scope);

  for (const CompositeStep& c : kernel.steps) {
    ProofStep& step = po.add_step(std::string(c.name));
    if (c.primitive.empty())
      stride_phase_bijection(po, step, w, e);
    else
      cite(step, certify_safety(c.primitive, w, e) != nullptr,
           std::string(c.primitive) + " safety", w, e);
  }

  ProofStep& probes = po.add_step("data-dependent-probes");
  probes.status = StepStatus::kSkipped;
  probes.detail =
      "merge-path probe reads are value-dependent and outside the affine "
      "IR; they stay on the audited lane path (never certified-skip) and "
      "are covered by the fill-initialization argument plus the dynamic "
      "ShadowChecker";

  ProofStep& glue = po.add_step(std::string(kernel.glue_step));
  glue.detail = std::string(kernel.glue);
  if (kernel.per_arity)
    glue.detail = std::to_string(std::bit_width(static_cast<unsigned>(k - 1))) +
                  " cascade level(s): " + glue.detail;

  po.settle_safety_verdict();
  return po;
}

}  // namespace cfmerge::verify
