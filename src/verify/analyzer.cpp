#include "verify/analyzer.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cfprims/primitive.hpp"
#include "gather/schedule.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/shared_memory.hpp"
#include "numtheory/numtheory.hpp"
#include "verify/primitive.hpp"
#include "verify/safety.hpp"
#include "worstcase/builder.hpp"
#include "worstcase/predict.hpp"

namespace cfmerge::verify {

namespace {

using numtheory::mod;

// ---------------------------------------------------------------------------
// verify_cf_gather steps
// ---------------------------------------------------------------------------

/// The lowering must reproduce RoundSchedule::read exactly on concrete
/// schedules before any symbolic conclusion about it means anything.
void check_lowering_faithfulness(ProofStep& st, const CfGatherLowering& lo) {
  if (lo.variant == ScheduleVariant::kNoBReversal) {
    st.status = StepStatus::kSkipped;
    st.detail = "deliberately broken layout; no runtime schedule to compare against";
    return;
  }
  const int w = lo.w;
  const int e = lo.e;
  const FlatExpr ir_raw(lo.raw);
  const FlatExpr ir_phys(lo.phys);
  std::int64_t checked = 0;
  for (const int u : {w, 2 * w}) {
    for (const Split& sp : sample_splits(u, e, 4, 0x5eedULL)) {
      const gather::GatherShape shape{w, e, u, sp.la,
                                      static_cast<std::int64_t>(u) * e - sp.la};
      const gather::RoundSchedule sched(shape, sp.a_off, sp.a_size);
      for (int i = 0; i < u; ++i) {
        for (int j = 0; j < e; ++j) {
          const auto ui = static_cast<std::size_t>(i);
          const Env env = cf_gather_env(i, j, sp.a_off[ui], sp.a_size[ui], u, sp.la);
          const gather::GatherRead r = sched.read(i, j);
          const std::int64_t raw = ir_raw.eval(env);
          const std::int64_t phys = ir_phys.eval(env);
          const std::int64_t want_phys =
              lo.variant == ScheduleVariant::kNoRhoShift ? r.raw : r.phys;
          if (raw != r.raw || phys != want_phys ||
              ir_raw.select_takes_then(env) != r.from_a) {
            std::ostringstream os;
            os << "IR disagrees with RoundSchedule::read at u=" << u << " i=" << i
               << " j=" << j << ": IR raw=" << raw << " phys=" << phys
               << ", runtime raw=" << r.raw << " phys=" << want_phys;
            fail(st, os.str());
            return;
          }
          ++checked;
        }
      }
    }
  }
  std::ostringstream os;
  os << "IR == RoundSchedule::read on " << checked
     << " (schedule, thread, round) samples; raw = " << lo.raw.str();
  st.detail = os.str();
}

/// Per-thread window lemmas, exhaustive over the finite quotient the
/// expressions factor through: m and e_idx depend on a only via a mod E, so
/// checking a in [0, 2E) x asz in [0, E] x j in [0, E) covers every thread
/// of every schedule.
void check_branch_totality(ProofStep& st, const CfGatherLowering& lo) {
  const int e = lo.e;
  const FlatExpr ir_m(lo.m);
  const FlatExpr ir_eidx(lo.e_idx);
  std::int64_t checked = 0;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> first_period(
      static_cast<std::size_t>(e));
  for (std::int64_t a = 0; a < 2 * e; ++a) {
    std::vector<std::pair<std::int64_t, std::int64_t>> row;
    for (int j = 0; j < e; ++j) {
      const Env env = cf_gather_env(0, j, a, 0, lo.w, 0);
      const std::int64_t m = ir_m.eval(env);
      const std::int64_t eidx = ir_eidx.eval(env);
      if (m < 0 || m >= e || eidx < 0 || eidx >= e || m + eidx != e - 1) {
        std::ostringstream os;
        os << "m + e_idx != E-1 at a=" << a << " j=" << j << " (m=" << m
           << ", e_idx=" << eidx << ")";
        fail(st, os.str());
        return;
      }
      row.emplace_back(m, eidx);
      ++checked;
    }
    if (a < e) {
      first_period[static_cast<std::size_t>(a)] = row;
    } else if (row != first_period[static_cast<std::size_t>(a - e)]) {
      fail(st, "m/e_idx not periodic in a with period E at a=" + std::to_string(a));
      return;
    }
    // For every split size: branch A fires iff m < asz, the branch indices
    // stay inside the windows, and over the E rounds each element of A_i and
    // B_i is read exactly once (the round<->element bijection of Lemma 2).
    for (std::int64_t asz = 0; asz <= e; ++asz) {
      std::vector<int> seen_a(static_cast<std::size_t>(asz), 0);
      std::vector<int> seen_b(static_cast<std::size_t>(e - asz), 0);
      for (int j = 0; j < e; ++j) {
        const auto [m, eidx] = row[static_cast<std::size_t>(j)];
        if (m < asz) {
          ++seen_a[static_cast<std::size_t>(m)];
        } else {
          if (eidx >= e - asz) {
            fail(st, "B index out of window at a=" + std::to_string(a) +
                         " asz=" + std::to_string(asz) + " j=" + std::to_string(j));
            return;
          }
          ++seen_b[static_cast<std::size_t>(eidx)];
        }
        ++checked;
      }
      for (const int c : seen_a)
        if (c != 1) {
          fail(st, "A element not read exactly once (a=" + std::to_string(a) +
                       " asz=" + std::to_string(asz) + ")");
          return;
        }
      for (const int c : seen_b)
        if (c != 1) {
          fail(st, "B element not read exactly once (a=" + std::to_string(a) +
                       " asz=" + std::to_string(asz) + ")");
          return;
        }
    }
  }
  std::ostringstream os;
  os << "m + e_idx = E-1, window containment and per-thread round<->element "
        "bijection hold on all "
     << checked << " points of the (a mod E, |A_i|, j) quotient";
  st.detail = os.str();
}

/// raw ≡ j (mod E) on both branches, derived symbolically — Lemma 2's
/// residue invariant for every thread, split and u at once.
void check_residue_invariant(ProofStep& st, const CfGatherLowering& lo) {
  const LinearResidue want{0, {{kSymRound, 1}}};
  const auto got = residue_mod(lo.raw, lo.e, lo.facts);
  if (got && *got == want) {
    std::ostringstream os;
    os << "raw ≡ " << want.str(lo.e) << " derived for both gather branches";
    st.detail = os.str();
    return;
  }
  const auto ra = residue_mod(lo.raw_a, lo.e, lo.facts);
  const auto rb = residue_mod(lo.raw_b, lo.e, lo.facts);
  std::ostringstream os;
  os << "residue invariant raw ≡ j (mod E) underivable: A branch "
     << (ra ? ra->str(lo.e) : "<irreducible>") << ", B branch "
     << (rb ? rb->str(lo.e) : "<irreducible>");
  fail(st, os.str());
}

/// Warp t's round reads tile exactly one period [α, α+wE) mod wE: the A
/// window [α, β) plus the pi-reflected B window, whose endpoints are linear
/// forms in (α, β, t, u).  Exact interval algebra — no sampling.
void check_warp_window_coverage(ProofStep& st, const CfGatherLowering& lo) {
  constexpr SymId kAlpha = 100;
  constexpr SymId kBeta = 101;
  constexpr SymId kT = 102;
  const std::int64_t we = static_cast<std::int64_t>(lo.w) * lo.e;
  const LinearForm alpha = LinearForm::sym(kAlpha);
  const LinearForm beta = LinearForm::sym(kBeta);
  const LinearForm t = LinearForm::sym(kT);
  const LinearForm u = LinearForm::sym(kSymU);

  // A window I1 = [alpha, beta).  B offsets of the warp are
  // [t·wE - alpha, (t+1)·wE - beta); pi (y -> uE - 1 - y) reflects them to
  // raw interval I2 = [uE - (t+1)wE + beta, uE - t·wE + alpha).
  const LinearForm i1_len = beta - alpha;
  const LinearForm i2_start =
      u.times(lo.e) - t.times(we) - LinearForm::constant(we) + beta;
  const LinearForm i2_end = u.times(lo.e) - t.times(we) + alpha;

  const LinearForm len_sum = i1_len + (i2_end - i2_start);
  if (!(len_sum == LinearForm::constant(we))) {
    fail(st, "|I1| + |I2| != wE: got " + len_sum.str());
    return;
  }
  const auto gap = (i2_start - beta).residue(we, lo.facts);
  if (!gap || *gap != 0) {
    fail(st, "I2 does not start at beta (mod wE): gap " + (i2_start - beta).str());
    return;
  }
  // Counting: any window of length wE contains exactly w positions ≡ j
  // (mod E) — checked over one full period of window alignments.
  for (std::int64_t a0 = 0; a0 < 2 * lo.e; ++a0) {
    for (int j = 0; j < lo.e; ++j) {
      int count = 0;
      for (std::int64_t x = a0; x < a0 + we; ++x)
        if (mod(x, lo.e) == j) ++count;
      if (count != lo.w) {
        fail(st, "residue-slot count != w in window at alpha=" + std::to_string(a0));
        return;
      }
    }
  }
  std::ostringstream os;
  os << "I1 ⊔ I2 ≡ [α, α+wE) (mod wE): |I1|+|I2| = " << we << " exactly and "
     << "I2.start - β = " << (i2_start - beta).str() << " ≡ 0 (mod " << we
     << ") given u ≡ 0 (mod " << lo.w << "); each round owns exactly w slots "
     << "of the period, one per thread (disjoint windows + residue invariant)";
  st.detail = os.str();
}

/// Bounded concrete search for a no-pi witness: evaluate the broken lowering
/// over structured and seeded-random splits and scan each warp round for a
/// same-bank pair of distinct physical addresses.
std::optional<Counterexample> search_no_pi_witness(const CfGatherLowering& lo) {
  const FlatExpr phys(lo.phys);
  for (const int u : {lo.w, 2 * lo.w}) {
    for (const Split& sp : sample_splits(u, lo.e, 64, 0xbadb1ULL)) {
      const cfprims::ConflictScan scan = cfprims::scan_conflicts(
          lo.w, lo.e, u, [&](std::int64_t i, std::int64_t j) {
            const auto ui = static_cast<std::size_t>(i);
            return phys.eval(cf_gather_env(i, j, sp.a_off[ui], sp.a_size[ui], u, sp.la));
          });
      if (!scan.found) continue;
      Counterexample ce = bank_witness(scan, lo.w, lo.e, u);
      ce.la = sp.la;
      ce.a_sizes = sp.a_size;
      return ce;
    }
  }
  return std::nullopt;
}

}  // namespace

ProofObject verify_cf_gather(int w, int e, ScheduleVariant variant) {
  const CfGatherLowering lo = lower_cf_gather(w, e, variant);
  ProofObject po;
  po.schedule = variant_name(variant);
  po.family = po.schedule;  // the gather variants are registered primitives
  po.w = w;
  po.e = e;
  po.d = numtheory::gcd(w, e);
  po.scope = "all u = k*w (k >= 1), all merge-path splits, all rounds j in [0, E)";

  check_lowering_faithfulness(po.add_step("lowering-faithfulness"), lo);
  check_branch_totality(po.add_step("branch-totality"), lo);
  check_residue_invariant(po.add_step("residue-invariant"), lo);
  check_warp_window_coverage(po.add_step("warp-window-coverage"), lo);

  // Corollary 3 through the generic stream checks: by the residue invariant
  // and the window coverage, a warp's round-j reads are sigma(iE + j) over
  // its lanes, sigma = rho (the identity without rho).
  const cfprims::PrimShape shape{w, e, 2 * w, 0};
  const cfprims::AccessStream crs =
      cfprims::crs_stream("crs", /*is_write=*/false, shape, /*inverse=*/false,
                          variant != ScheduleVariant::kNoRhoShift);
  check_stream_periodicity(po, crs, w);
  check_stream_banks(po, crs, w, e, shape.u);
  if (po.verdict == Verdict::kCounterexample) {
    // The all-A split makes thread i read raw index iE + j in round j, so
    // the banks witness is a lane pair of that real schedule.
    Counterexample& ce = po.counterexample;
    ce.u = (ce.lane2 / w + 1) * w;
    ce.la = static_cast<std::int64_t>(ce.u) * e;
    ce.a_sizes.assign(static_cast<std::size_t>(ce.u), e);
  }

  std::optional<Counterexample> no_pi;
  if (variant == ScheduleVariant::kNoBReversal && po.any_step_failed())
    no_pi = search_no_pi_witness(lo);
  po.settle_verdict(std::move(no_pi));
  return po;
}

// ---------------------------------------------------------------------------
// Bitonic exchange
// ---------------------------------------------------------------------------

namespace {

/// Measured conflict profile of the bitonic exchange on one tile, derived by
/// evaluating the lowered address expressions through the cost model.
struct BitonicProfile {
  int linear_degree = 1;  ///< worst load/store row degree (must be 1)
  struct StrideDegree {
    std::int64_t j = 0;
    int degree = 1;
  };
  std::vector<StrideDegree> strides;            ///< j = tile/2 .. 1
  std::optional<Counterexample> first_witness;  ///< first colliding lane pair
};

void bitonic_profile_validate(std::int64_t tile, int w) {
  if (w <= 0 || w > gpusim::kMaxLanes ||
      !std::has_single_bit(static_cast<std::uint64_t>(w)))
    throw std::invalid_argument("verify_bitonic: warp width must be a power of two");
  if (tile < 2 * w || !std::has_single_bit(static_cast<std::uint64_t>(tile)))
    throw std::invalid_argument("verify_bitonic: tile must be a power of two >= 2w");
}

BitonicProfile profile_bitonic(std::int64_t tile, int w, bool padded) {
  BitonicProfile prof;
  // Worst row degree of `addr` over the w-aligned rows of [0, domain); the
  // first colliding lane pair becomes the profile's witness.
  const auto degree = [&](const AffineExpr& addr, std::int64_t domain, std::int64_t j) {
    const FlatExpr ir(addr);
    const cfprims::ConflictScan scan =
        cfprims::scan_conflicts(w, 1, domain, [&](std::int64_t t, std::int64_t) {
          Env env;
          env.set(kSymThread, t);
          return ir.eval(env);
        });
    if (scan.found && !prof.first_witness) {
      prof.first_witness = bank_witness(scan, w, static_cast<int>(tile), 0);
      prof.first_witness->round = static_cast<int>(j);
    }
    return scan.max_conflicts + 1;
  };

  // Load/store phases address pad(t) for t in a w-aligned row.
  prof.linear_degree =
      degree(lower_bitonic_pad(AffineExpr::sym(kSymThread, "t"), w, padded), tile, 0);
  for (std::int64_t j = tile / 2; j >= 1; j /= 2) {
    const BitonicPairLowering pl = lower_bitonic_pair(j, w, padded);
    const int lo_degree = degree(pl.lo, tile / 2, j);  // lo first: witness order
    prof.strides.push_back({j, std::max(lo_degree, degree(pl.hi, tile / 2, j))});
  }
  return prof;
}

/// Structural closed form for the exchange degree at stride j.  j >= w keeps
/// a warp inside one run of consecutive addresses: conflict free either way.
/// For j < w a warp spans w/j runs that alias pairwise mod w (degree 2); the
/// one-slot-per-w padding shifts only the tile's upper half by one, which
/// separates the halves exactly when the runs are single elements (j = 1) and
/// still overlaps them on j - 1 of every 2j banks otherwise.
int predicted_bitonic_degree(std::int64_t j, int w, bool padded) {
  if (j >= w) return 1;
  if (padded && j == 1) return 1;
  return 2;
}

}  // namespace

ProofObject verify_bitonic_exchange(std::int64_t tile, int w, bool padded) {
  bitonic_profile_validate(tile, w);
  ProofObject po;
  po.schedule = padded ? "bitonic_profile_padded" : "bitonic_profile_unpadded";
  po.w = w;
  po.e = static_cast<int>(tile);
  po.d = 1;
  po.scope =
      "exchange degree == structural closed form for every substage stride "
      "j = tile/2 .. 1, every warp of one tile";

  const BitonicProfile prof = profile_bitonic(tile, w, padded);

  {
    auto& st = po.add_step("linear-load-store");
    if (prof.linear_degree == 1)
      st.detail = "pad(t) over every w-aligned row hits w distinct banks";
    else
      fail(st, "load/store row has degree " + std::to_string(prof.linear_degree));
  }
  for (const auto& sd : prof.strides) {
    auto& st = po.add_step("stride-" + std::to_string(sd.j));
    const int want = predicted_bitonic_degree(sd.j, w, padded);
    if (sd.degree == want) {
      st.detail = want == 1 ? "conflict free: every warp access hits distinct banks"
                            : "structural degree " + std::to_string(want) +
                                  " confirmed (j < w aliases runs pairwise mod w)";
    } else {
      fail(st, "measured degree " + std::to_string(sd.degree) +
                   " != structural prediction " + std::to_string(want));
    }
  }

  po.settle_verdict(prof.first_witness);
  return po;
}

ProofObject refute_bitonic_unpadded(std::int64_t tile, int w) {
  bitonic_profile_validate(tile, w);
  ProofObject po;
  po.schedule = "bitonic_exchange_unpadded_cf_claim";
  po.w = w;
  po.e = static_cast<int>(tile);
  po.d = 1;
  po.scope = "claim: every substage of the unpadded exchange is conflict free";

  const BitonicProfile prof = profile_bitonic(tile, w, /*padded=*/false);
  for (const auto& sd : prof.strides) {
    auto& st = po.add_step("stride-" + std::to_string(sd.j));
    if (sd.degree == 1) {
      st.detail = "every warp access hits distinct banks";
    } else {
      fail(st, "stride " + std::to_string(sd.j) + " serializes with degree " +
                   std::to_string(sd.degree) +
                   " (structural: j < w leaves banks idle)");
    }
  }
  po.settle_verdict(prof.first_witness);
  return po;
}

// ---------------------------------------------------------------------------
// Theorem 8 static walk
// ---------------------------------------------------------------------------

namespace {

/// The Theorem 8 worst-case warp: the first warp's window of the
/// constructed merge input and each lane's merge-path split, A at [0, la)
/// and B after it.
struct WorstCaseWarp {
  worstcase::MergeInput in;
  std::vector<sort::ThreadSplit> splits;
  std::int64_t la = 0;
};

WorstCaseWarp worstcase_warp(const worstcase::Params& p) {
  p.validate();
  const std::int64_t we = static_cast<std::int64_t>(p.w) * p.e;
  WorstCaseWarp warp{worstcase::worst_case_merge_input(p, 2 * we), {}, 0};
  std::int64_t bo = 0;
  for (const worstcase::Tuple& t : worstcase::warp_tuples(p, false)) {
    warp.splits.push_back({warp.la, t.a, bo, t.b});
    warp.la += t.a;
    bo += t.b;
  }
  return warp;
}

}  // namespace

SerialMergeBounds serial_merge_conflict_bounds(std::span<const sort::ThreadSplit> lanes, int w,
                                                int e, std::int64_t la) {
  if (static_cast<int>(lanes.size()) != w)
    throw std::invalid_argument("serial_merge_conflict_bounds: one warp expected");
  SerialMergeBounds out;
  std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));

  // The two preload accesses are data independent (list heads), so their
  // conflicts are forced: they count toward the minimum as well.
  for (int lane = 0; lane < w; ++lane) {
    const auto& d = lanes[static_cast<std::size_t>(lane)];
    addrs[static_cast<std::size_t>(lane)] =
        d.a_size > 0 ? d.a_off : gpusim::kInactiveLane;
  }
  std::int64_t forced = gpusim::shared_access_cost(addrs, w).conflicts;
  for (int lane = 0; lane < w; ++lane) {
    const auto& d = lanes[static_cast<std::size_t>(lane)];
    addrs[static_cast<std::size_t>(lane)] =
        d.b_size > 0 ? la + d.b_off : gpusim::kInactiveLane;
  }
  forced += gpusim::shared_access_cost(addrs, w).conflicts;
  out.min_conflicts = forced;
  out.max_conflicts = forced;

  // Step s fetch: the lane has consumed s+1 elements, ca of them from A.
  // If the winner was A, the fetch address is a_off + ca with
  // ca in [max(1, s+1-bsz), min(s+1, asz-1)]; symmetrically for B.  A sound
  // per-access upper bound caps each bank's degree by both the lanes that
  // can reach it and the distinct candidate addresses in it.
  for (int s = 0; s < e; ++s) {
    std::vector<int> bank_lanes(static_cast<std::size_t>(w), 0);
    std::vector<std::set<std::int64_t>> bank_addrs(static_cast<std::size_t>(w));
    for (int lane = 0; lane < w; ++lane) {
      const auto& d = lanes[static_cast<std::size_t>(lane)];
      std::set<std::int64_t> cand;
      const std::int64_t taken = s + 1;
      const std::int64_t ca_lo = std::max<std::int64_t>(1, taken - d.b_size);
      const std::int64_t ca_hi = std::min<std::int64_t>(taken, d.a_size - 1);
      for (std::int64_t ca = ca_lo; ca <= ca_hi; ++ca) cand.insert(d.a_off + ca);
      const std::int64_t cb_lo = std::max<std::int64_t>(1, taken - d.a_size);
      const std::int64_t cb_hi = std::min<std::int64_t>(taken, d.b_size - 1);
      for (std::int64_t cb = cb_lo; cb <= cb_hi; ++cb)
        cand.insert(la + d.b_off + cb);
      std::uint64_t banks_hit = 0;
      for (const std::int64_t a : cand) {
        const auto b = static_cast<std::size_t>(mod(a, w));
        bank_addrs[b].insert(a);
        banks_hit |= std::uint64_t{1} << b;
      }
      for (int b = 0; b < w; ++b)
        if ((banks_hit >> static_cast<unsigned>(b)) & 1U)
          ++bank_lanes[static_cast<std::size_t>(b)];
    }
    int worst = 1;
    for (int b = 0; b < w; ++b) {
      const int degree =
          std::min(bank_lanes[static_cast<std::size_t>(b)],
                   static_cast<int>(bank_addrs[static_cast<std::size_t>(b)].size()));
      worst = std::max(worst, degree);
    }
    out.max_conflicts += worst - 1;
  }
  return out;
}

WorstCaseAnalysis analyze_worstcase_warp(const worstcase::Params& p) {
  const WorstCaseWarp warp = worstcase_warp(p);
  const worstcase::MergeInput& in = warp.in;
  const std::vector<sort::ThreadSplit>& lanes = warp.splits;
  const std::int64_t la = warp.la;
  WorstCaseAnalysis an;
  an.w = p.w;
  an.e = p.e;

  // Static replay of the baseline sequential merge's access cadence.  The
  // construction uses strictly increasing distinct values, so every
  // comparison outcome is forced by the interleaving pattern — no
  // simulation, just the trace.
  struct LaneState {
    std::int64_t next_a = 0;
    std::int64_t next_b = 0;
    std::int32_t head_a = 0;
    std::int32_t head_b = 0;
    bool has_a = false;
    bool has_b = false;
  };
  std::vector<LaneState> st(static_cast<std::size_t>(p.w));
  std::vector<std::int64_t> addrs(static_cast<std::size_t>(p.w));
  std::int64_t conflicts = 0;
  const auto charge = [&] {
    conflicts += gpusim::shared_access_cost(addrs, p.w).conflicts;
    ++an.accesses;
  };

  for (int lane = 0; lane < p.w; ++lane) {
    const auto& d = lanes[static_cast<std::size_t>(lane)];
    auto& s = st[static_cast<std::size_t>(lane)];
    s = LaneState{d.a_off + 1, d.b_off + 1, 0, 0, d.a_size > 0, d.b_size > 0};
    addrs[static_cast<std::size_t>(lane)] =
        s.has_a ? d.a_off : gpusim::kInactiveLane;
    if (s.has_a) s.head_a = in.a[static_cast<std::size_t>(d.a_off)];
  }
  charge();
  for (int lane = 0; lane < p.w; ++lane) {
    const auto& d = lanes[static_cast<std::size_t>(lane)];
    auto& s = st[static_cast<std::size_t>(lane)];
    addrs[static_cast<std::size_t>(lane)] =
        s.has_b ? la + d.b_off : gpusim::kInactiveLane;
    if (s.has_b) s.head_b = in.b[static_cast<std::size_t>(d.b_off)];
  }
  charge();

  for (int step = 0; step < p.e; ++step) {
    for (int lane = 0; lane < p.w; ++lane) {
      const auto& d = lanes[static_cast<std::size_t>(lane)];
      auto& s = st[static_cast<std::size_t>(lane)];
      assert(s.has_a || s.has_b);
      const bool take_a = s.has_a && (!s.has_b || !(s.head_b < s.head_a));
      if (take_a) {
        if (s.next_a < d.a_off + d.a_size) {
          addrs[static_cast<std::size_t>(lane)] = s.next_a;
          s.head_a = in.a[static_cast<std::size_t>(s.next_a)];
          ++s.next_a;
        } else {
          s.has_a = false;
          addrs[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
        }
      } else {
        if (s.next_b < d.b_off + d.b_size) {
          addrs[static_cast<std::size_t>(lane)] = la + s.next_b;
          s.head_b = in.b[static_cast<std::size_t>(s.next_b)];
          ++s.next_b;
        } else {
          s.has_b = false;
          addrs[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
        }
      }
    }
    charge();
  }

  an.exact_conflicts = conflicts;
  an.closed_form = worstcase::predicted_warp_conflicts(p);
  const SerialMergeBounds bounds = serial_merge_conflict_bounds(lanes, p.w, p.e, la);
  an.min_bound = bounds.min_conflicts;
  an.max_bound = bounds.max_conflicts;
  return an;
}

std::uint64_t measure_worstcase_warp(const worstcase::Params& p, gpusim::MemoryAuditor* audit) {
  const WorstCaseWarp warp = worstcase_warp(p);
  const std::int64_t we = static_cast<std::int64_t>(p.w) * p.e;
  const auto layout = gather::PairLayout::linear(warp.la, we - warp.la);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(p.w));
  launcher.set_audit(audit);
  std::uint64_t conflicts = 0;
  launcher.launch("warp_merge", gpusim::LaunchShape{1, p.w, 0, 32},
                  [&](gpusim::BlockContext& ctx) {
                    // Uncharged staging of the input: only the merge is measured.
                    gpusim::SharedTile<int> tile(ctx, static_cast<std::size_t>(we));
                    const auto lists = tile.raw().begin();
                    std::copy_n(warp.in.a.begin(), layout.la(), lists + layout.pos_a(0));
                    std::copy_n(warp.in.b.begin(), layout.lb(), lists + layout.pos_b(0));
                    std::vector<int> regs(static_cast<std::size_t>(we));
                    sort::serial_merge_core<2>(
                        ctx, tile, 2, p.e,
                        [&](int i, int s) {
                          return sort::split_window(warp.splits[static_cast<std::size_t>(i)], s);
                        },
                        [&](int s, std::int64_t x) {
                          return s == 0 ? layout.pos_a(x) : layout.pos_b(x);
                        },
                        sort::kPairMergeCharge, std::span<int>(regs), std::less<int>{});
                    conflicts = ctx.counters().total().bank_conflicts;
                  });
  return conflicts;
}

// ---------------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------------

void verify_family(VerifyReport& rep, const VerifyOptions& opts, int w, int e) {
  validate_family("verify_family", w, e);
  for (const cfprims::CFPrimitive* prim : cfprims::registry()) {
    if (!prim->supports(w, e)) continue;
    const bool broken = !prim->expected_conflict_free(w, e);
    if (broken && !opts.broken) continue;
    (broken ? rep.refutations : rep.proofs).push_back(verify_primitive(*prim, w, e));
  }
  if (opts.multiway)
    for (const int k : opts.ks) rep.proofs.push_back(verify_multiway_cascade(w, e, k));
  if (opts.safety) {
    // Pass 3: memory safety of every registered primitive at (w, E), the
    // composite kernels built from them, and witness-backed refutation of
    // the deliberately unsafe ablations.
    for (const cfprims::CFPrimitive* prim : cfprims::registry())
      if (prim->supports(w, e))
        rep.safety_proofs.push_back(verify_primitive_safety(*prim, w, e));
    for (const CompositeKernel& kernel : composite_kernels()) {
      if (!kernel.per_arity) {
        rep.safety_proofs.push_back(verify_composite_safety(kernel, w, e));
      } else if (opts.multiway) {
        for (const int k : opts.ks)
          rep.safety_proofs.push_back(verify_composite_safety(kernel, w, e, k));
      }
    }
    for (const cfprims::CFPrimitive* prim : cfprims::safety_ablations())
      if (prim->supports(w, e))
        rep.safety_refutations.push_back(verify_primitive_safety(*prim, w, e));
  }
  if (opts.worstcase) rep.worstcase.push_back(analyze_worstcase_warp({w, e}));
}

void verify_width(VerifyReport& rep, const VerifyOptions& opts, int w, int direct_e) {
  if (opts.multiway && opts.broken)
    for (const int k : opts.ks)
      rep.refutations.push_back(refute_multiway_direct(w, direct_e, k));
  if (opts.bitonic) {
    const std::int64_t tile = 4 * static_cast<std::int64_t>(w);
    rep.proofs.push_back(verify_bitonic_exchange(tile, w, /*padded=*/true));
    rep.proofs.push_back(verify_bitonic_exchange(tile, w, /*padded=*/false));
    rep.refutations.push_back(refute_bitonic_unpadded(tile, w));
  }
}

VerifyReport verify_all(const VerifyOptions& opts) {
  VerifyReport rep;
  for (const int w : opts.widths) {
    for (int e = 2; e <= w; ++e) verify_family(rep, opts, w, e);
    verify_width(rep, opts, w, std::max(2, w / 2));
  }
  return rep;
}

}  // namespace cfmerge::verify
