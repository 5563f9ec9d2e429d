#include "verify/analyzer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cfprims/primitive.hpp"
#include "gather/permutation.hpp"
#include "gather/schedule.hpp"
#include "gpusim/shared_memory.hpp"
#include "numtheory/numtheory.hpp"
#include "verify/primitive.hpp"
#include "verify/safety.hpp"
#include "worstcase/builder.hpp"
#include "worstcase/predict.hpp"

namespace cfmerge::verify {

namespace {

using numtheory::mod;

/// Structured + seeded-random per-thread |A_i| vectors, all in [0, E].
std::vector<std::vector<std::int64_t>> sample_asizes(int u, int e, int random_trials,
                                                     std::uint64_t seed) {
  const auto un = static_cast<std::size_t>(u);
  std::vector<std::vector<std::int64_t>> out;
  out.emplace_back(un, static_cast<std::int64_t>(e));  // all-A
  out.emplace_back(un, std::int64_t{0});               // all-B
  std::vector<std::int64_t> alt(un);
  for (int i = 0; i < u; ++i) alt[static_cast<std::size_t>(i)] = i % 2 == 0 ? e : 0;
  out.push_back(std::move(alt));
  std::vector<std::int64_t> ramp(un);
  for (int i = 0; i < u; ++i) ramp[static_cast<std::size_t>(i)] = i % (e + 1);
  out.push_back(std::move(ramp));
  std::vector<std::int64_t> partial(un, static_cast<std::int64_t>(e));
  partial[0] = e / 2;  // one partial thread among all-A
  out.push_back(std::move(partial));
  Lcg rng(seed);
  for (int t = 0; t < random_trials; ++t) {
    std::vector<std::int64_t> v(un);
    for (int i = 0; i < u; ++i) v[static_cast<std::size_t>(i)] = rng.below_eq(e);
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<std::int64_t> prefix_offsets(const std::vector<std::int64_t>& sizes) {
  std::vector<std::int64_t> off(sizes.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    off[i] = acc;
    acc += sizes[i];
  }
  return off;
}

Env make_env(int i, int j, std::int64_t a, std::int64_t asz, int u, std::int64_t la) {
  Env env;
  env.set(kSymThread, i);
  env.set(kSymRound, j);
  env.set(kSymAOff, a);
  env.set(kSymASize, asz);
  env.set(kSymU, u);
  env.set(kSymLa, la);
  return env;
}

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
  std::int64_t checked = 0;
  for (const int u : {w, 2 * w}) {
    for (const auto& asz : sample_asizes(u, e, 4, 0x5eedULL)) {
      const auto aoff = prefix_offsets(asz);
      std::int64_t la = 0;
      for (const auto s : asz) la += s;
      const gather::GatherShape shape{w, e, u, la, static_cast<std::int64_t>(u) * e - la};
      const gather::RoundSchedule sched(shape, aoff, asz);
      for (int i = 0; i < u; ++i) {
        for (int j = 0; j < e; ++j) {
          const Env env = make_env(i, j, aoff[static_cast<std::size_t>(i)],
                                   asz[static_cast<std::size_t>(i)], u, la);
          const gather::GatherRead r = sched.read(i, j);
          const std::int64_t raw = lo.raw.eval(env);
          const std::int64_t phys = lo.phys.eval(env);
          const std::int64_t want_phys =
              lo.variant == ScheduleVariant::kNoRhoShift ? r.raw : r.phys;
          if (raw != r.raw || phys != want_phys ||
              lo.raw.select_takes_then(env) != r.from_a) {
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
  std::int64_t checked = 0;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> first_period(
      static_cast<std::size_t>(e));
  for (std::int64_t a = 0; a < 2 * e; ++a) {
    std::vector<std::pair<std::int64_t, std::int64_t>> row;
    for (int j = 0; j < e; ++j) {
      const Env env = make_env(0, j, a, 0, lo.w, 0);
      const std::int64_t m = lo.m.eval(env);
      const std::int64_t eidx = lo.e_idx.eval(env);
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

/// bank(rho(m)) is periodic in m with period wE — so the per-period CRS
/// table below covers every raw index of every schedule.
void check_bank_periodicity(ProofStep& st, const CfGatherLowering& lo,
                            const gather::CircularShift& rho) {
  const std::int64_t we = static_cast<std::int64_t>(lo.w) * lo.e;
  const bool identity = lo.variant == ScheduleVariant::kNoRhoShift;
  for (std::int64_t m = 0; m < we; ++m) {
    const std::int64_t b1 = mod(identity ? m : rho(m), lo.w);
    const std::int64_t b2 = mod(identity ? m + we : rho(m + we), lo.w);
    if (b1 != b2) {
      fail(st, "bank(rho(m)) not wE-periodic at m=" + std::to_string(m));
      return;
    }
  }
  st.detail = "bank(rho(m + wE)) == bank(rho(m)) for all m in [0, wE)";
}

/// Corollary 3: for every round j, the banks of {rho(j + kE) : k in [0, w)}
/// form a complete residue system mod w.  Returns the first collision.
struct CrsFailure {
  int j;
  int k1;
  int k2;
};
std::optional<CrsFailure> check_bank_crs(ProofStep& st, const CfGatherLowering& lo,
                                         const gather::CircularShift& rho) {
  const bool identity = lo.variant == ScheduleVariant::kNoRhoShift;
  for (int j = 0; j < lo.e; ++j) {
    std::array<int, gpusim::kMaxLanes> owner{};
    owner.fill(-1);
    for (int k = 0; k < lo.w; ++k) {
      const std::int64_t raw = static_cast<std::int64_t>(k) * lo.e + j;
      const auto bank = static_cast<std::size_t>(mod(identity ? raw : rho(raw), lo.w));
      if (owner[bank] >= 0) {
        std::ostringstream os;
        os << "round " << j << ": slots k=" << owner[bank] << " and k=" << k
           << " map to bank " << bank << " — {bank(rho(j + kE))} is not a "
           << "complete residue system";
        fail(st, os.str());
        return CrsFailure{j, owner[bank], k};
      }
      owner[bank] = k;
    }
  }
  std::ostringstream os;
  os << "per-round bank tables are permutations of [0, " << lo.w << ") for all "
     << lo.e << " rounds (d = " << numtheory::gcd(lo.w, lo.e) << ")";
  st.detail = os.str();
  return std::nullopt;
}

/// Constructive witness for the no-rho refutation: the all-A split makes
/// thread k read raw index kE + j in round j, so a CRS failure (j, k1, k2)
/// is immediately a concrete lane pair.
Counterexample no_rho_witness(int w, int e, const CrsFailure& f) {
  Counterexample ce;
  ce.w = w;
  ce.e = e;
  ce.u = w;
  ce.la = static_cast<std::int64_t>(w) * e;
  ce.a_sizes.assign(static_cast<std::size_t>(w), e);
  ce.round = f.j;
  ce.lane1 = f.k1;
  ce.lane2 = f.k2;
  ce.addr1 = static_cast<std::int64_t>(f.k1) * e + f.j;
  ce.addr2 = static_cast<std::int64_t>(f.k2) * e + f.j;
  ce.bank = static_cast<int>(mod(ce.addr1, w));
  return ce;
}

/// Bounded concrete search for a no-pi witness: evaluate the broken lowering
/// over structured and seeded-random splits and scan each warp round for a
/// same-bank pair of distinct physical addresses.
std::optional<Counterexample> search_no_pi_witness(const CfGatherLowering& lo) {
  const int w = lo.w;
  const int e = lo.e;
  for (const int u : {w, 2 * w}) {
    for (const auto& asz : sample_asizes(u, e, 64, 0xbadb1Ull)) {
      const auto aoff = prefix_offsets(asz);
      std::int64_t la = 0;
      for (const auto s : asz) la += s;
      std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
      for (int j = 0; j < e; ++j) {
        for (int warp = 0; warp < u / w; ++warp) {
          for (int lane = 0; lane < w; ++lane) {
            const int i = warp * w + lane;
            const Env env = make_env(i, j, aoff[static_cast<std::size_t>(i)],
                                     asz[static_cast<std::size_t>(i)], u, la);
            addrs[static_cast<std::size_t>(lane)] = lo.phys.eval(env);
          }
          for (int l1 = 0; l1 < w; ++l1) {
            for (int l2 = l1 + 1; l2 < w; ++l2) {
              const std::int64_t a1 = addrs[static_cast<std::size_t>(l1)];
              const std::int64_t a2 = addrs[static_cast<std::size_t>(l2)];
              if (a1 != a2 && mod(a1, w) == mod(a2, w)) {
                Counterexample ce;
                ce.w = w;
                ce.e = e;
                ce.u = u;
                ce.la = la;
                ce.a_sizes = asz;
                ce.round = j;
                ce.lane1 = warp * w + l1;
                ce.lane2 = warp * w + l2;
                ce.addr1 = a1;
                ce.addr2 = a2;
                ce.bank = static_cast<int>(mod(a1, w));
                return ce;
              }
            }
          }
        }
      }
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

  const gather::CircularShift rho(w, e, 2 * static_cast<std::int64_t>(w) * e);
  check_bank_periodicity(po.add_step("bank-periodicity"), lo, rho);
  const auto crs_failure = check_bank_crs(po.add_step("bank-crs"), lo, rho);

  bool any_failed = false;
  for (const auto& st : po.steps) any_failed |= st.status == StepStatus::kFailed;
  if (!any_failed) {
    po.verdict = Verdict::kProved;
    return po;
  }

  po.verdict = Verdict::kRefutedNoWitness;
  if (variant == ScheduleVariant::kNoRhoShift && crs_failure) {
    po.counterexample = no_rho_witness(w, e, *crs_failure);
    po.verdict = Verdict::kCounterexample;
  } else if (variant == ScheduleVariant::kNoBReversal) {
    if (auto ce = search_no_pi_witness(lo)) {
      po.counterexample = *std::move(ce);
      po.verdict = Verdict::kCounterexample;
    }
  }
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

  // Load/store phases address pad(t) for t in a w-aligned row.
  {
    std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
    const AffineExpr t = AffineExpr::sym(kSymThread, "t");
    const AffineExpr pad_t = lower_bitonic_pad(t, w, padded);
    for (std::int64_t b0 = 0; b0 < tile; b0 += w) {
      for (int lane = 0; lane < w; ++lane) {
        Env env;
        env.set(kSymThread, b0 + lane);
        addrs[static_cast<std::size_t>(lane)] = pad_t.eval(env);
      }
      prof.linear_degree =
          std::max(prof.linear_degree, gpusim::shared_access_cost(addrs, w).cycles);
    }
  }

  const std::int64_t pairs = tile / 2;
  for (std::int64_t j = pairs; j >= 1; j /= 2) {
    const BitonicPairLowering pl = lower_bitonic_pair(j, w, padded);
    std::vector<std::int64_t> lo_addr(static_cast<std::size_t>(w));
    std::vector<std::int64_t> hi_addr(static_cast<std::size_t>(w));
    int max_degree = 1;
    for (std::int64_t p0 = 0; p0 < pairs; p0 += w) {
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t p = p0 + lane;
        if (p >= pairs) {
          lo_addr[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
          hi_addr[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
          continue;
        }
        Env env;
        env.set(kSymThread, p);
        lo_addr[static_cast<std::size_t>(lane)] = pl.lo.eval(env);
        hi_addr[static_cast<std::size_t>(lane)] = pl.hi.eval(env);
      }
      for (const auto* addrs : {&lo_addr, &hi_addr}) {
        const auto cost = gpusim::shared_access_cost(*addrs, w);
        max_degree = std::max(max_degree, cost.cycles);
        if (cost.cycles > 1 && !prof.first_witness) {
          // Record the first colliding lane pair as the concrete witness.
          for (int l1 = 0; l1 < w && !prof.first_witness; ++l1) {
            for (int l2 = l1 + 1; l2 < w && !prof.first_witness; ++l2) {
              const std::int64_t a1 = (*addrs)[static_cast<std::size_t>(l1)];
              const std::int64_t a2 = (*addrs)[static_cast<std::size_t>(l2)];
              if (a1 == gpusim::kInactiveLane || a2 == gpusim::kInactiveLane ||
                  a1 == a2 || mod(a1, w) != mod(a2, w))
                continue;
              prof.first_witness =
                  Counterexample{w,
                                 static_cast<int>(tile),
                                 0,
                                 0,
                                 {},
                                 static_cast<int>(j),
                                 static_cast<int>(p0) + l1,
                                 static_cast<int>(p0) + l2,
                                 a1,
                                 a2,
                                 static_cast<int>(mod(a1, w)),
                                 0,
                                 {}};
            }
          }
        }
      }
    }
    prof.strides.push_back({j, max_degree});
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

  bool any_failed = false;
  for (const auto& st : po.steps) any_failed |= st.status == StepStatus::kFailed;
  po.verdict = !any_failed ? Verdict::kProved
               : prof.first_witness ? Verdict::kCounterexample
                                    : Verdict::kRefutedNoWitness;
  if (any_failed && prof.first_witness) po.counterexample = *prof.first_witness;
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
  bool refuted = false;
  for (const auto& sd : prof.strides) {
    auto& st = po.add_step("stride-" + std::to_string(sd.j));
    if (sd.degree == 1) {
      st.detail = "every warp access hits distinct banks";
    } else {
      fail(st, "stride " + std::to_string(sd.j) + " serializes with degree " +
                   std::to_string(sd.degree) +
                   " (structural: j < w leaves banks idle)");
      refuted = true;
    }
  }
  po.verdict = !refuted              ? Verdict::kProved
               : prof.first_witness ? Verdict::kCounterexample
                                    : Verdict::kRefutedNoWitness;
  if (refuted && prof.first_witness) po.counterexample = *prof.first_witness;
  return po;
}

// ---------------------------------------------------------------------------
// Theorem 8 static walk
// ---------------------------------------------------------------------------

SerialMergeBounds serial_merge_conflict_bounds(
    const std::vector<sort::MergeLaneDesc>& lanes, int w, int e, std::int64_t la) {
  if (static_cast<int>(lanes.size()) != w)
    throw std::invalid_argument("serial_merge_conflict_bounds: one warp expected");
  SerialMergeBounds out;
  std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));

  // The two preload accesses are data independent (list heads), so their
  // conflicts are forced: they count toward the minimum as well.
  for (int lane = 0; lane < w; ++lane) {
    const auto& d = lanes[static_cast<std::size_t>(lane)];
    addrs[static_cast<std::size_t>(lane)] =
        d.a_size > 0 ? d.a_begin : gpusim::kInactiveLane;
  }
  std::int64_t forced = gpusim::shared_access_cost(addrs, w, true).conflicts;
  for (int lane = 0; lane < w; ++lane) {
    const auto& d = lanes[static_cast<std::size_t>(lane)];
    addrs[static_cast<std::size_t>(lane)] =
        d.b_size > 0 ? la + d.b_begin : gpusim::kInactiveLane;
  }
  forced += gpusim::shared_access_cost(addrs, w, true).conflicts;
  out.min_conflicts = forced;
  out.max_conflicts = forced;

  // Step s fetch: the lane has consumed s+1 elements, ca of them from A.
  // If the winner was A, the fetch address is a_begin + ca with
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
      for (std::int64_t ca = ca_lo; ca <= ca_hi; ++ca) cand.insert(d.a_begin + ca);
      const std::int64_t cb_lo = std::max<std::int64_t>(1, taken - d.a_size);
      const std::int64_t cb_hi = std::min<std::int64_t>(taken, d.b_size - 1);
      for (std::int64_t cb = cb_lo; cb <= cb_hi; ++cb)
        cand.insert(la + d.b_begin + cb);
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
  p.validate();
  WorstCaseAnalysis an;
  an.w = p.w;
  an.e = p.e;
  const std::int64_t we = static_cast<std::int64_t>(p.w) * p.e;
  const worstcase::MergeInput in = worstcase::worst_case_merge_input(p, 2 * we);
  const auto tuples = worstcase::warp_tuples(p, false);
  const std::int64_t la = worstcase::a_total(tuples);

  std::vector<sort::MergeLaneDesc> lanes(static_cast<std::size_t>(p.w));
  std::int64_t ao = 0;
  std::int64_t bo = 0;
  for (int i = 0; i < p.w; ++i) {
    const worstcase::Tuple& t = tuples[static_cast<std::size_t>(i)];
    lanes[static_cast<std::size_t>(i)] = {ao, t.a, bo, t.b};
    ao += t.a;
    bo += t.b;
  }

  // Static replay of warp_serial_merge's access cadence.  The construction
  // uses strictly increasing distinct values, so every comparison outcome is
  // forced by the interleaving pattern — no simulation, just the trace.
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
    conflicts += gpusim::shared_access_cost(addrs, p.w, true).conflicts;
    ++an.accesses;
  };

  for (int lane = 0; lane < p.w; ++lane) {
    const auto& d = lanes[static_cast<std::size_t>(lane)];
    auto& s = st[static_cast<std::size_t>(lane)];
    s = LaneState{d.a_begin + 1, d.b_begin + 1, 0, 0, d.a_size > 0, d.b_size > 0};
    addrs[static_cast<std::size_t>(lane)] =
        s.has_a ? d.a_begin : gpusim::kInactiveLane;
    if (s.has_a) s.head_a = in.a[static_cast<std::size_t>(d.a_begin)];
  }
  charge();
  for (int lane = 0; lane < p.w; ++lane) {
    const auto& d = lanes[static_cast<std::size_t>(lane)];
    auto& s = st[static_cast<std::size_t>(lane)];
    addrs[static_cast<std::size_t>(lane)] =
        s.has_b ? la + d.b_begin : gpusim::kInactiveLane;
    if (s.has_b) s.head_b = in.b[static_cast<std::size_t>(d.b_begin)];
  }
  charge();

  for (int step = 0; step < p.e; ++step) {
    for (int lane = 0; lane < p.w; ++lane) {
      const auto& d = lanes[static_cast<std::size_t>(lane)];
      auto& s = st[static_cast<std::size_t>(lane)];
      assert(s.has_a || s.has_b);
      const bool take_a = s.has_a && (!s.has_b || !(s.head_b < s.head_a));
      if (take_a) {
        if (s.next_a < d.a_begin + d.a_size) {
          addrs[static_cast<std::size_t>(lane)] = s.next_a;
          s.head_a = in.a[static_cast<std::size_t>(s.next_a)];
          ++s.next_a;
        } else {
          s.has_a = false;
          addrs[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
        }
      } else {
        if (s.next_b < d.b_begin + d.b_size) {
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

// ---------------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------------

void verify_family(VerifyReport& rep, const VerifyOptions& opts, int w, int e) {
  if (w <= 0 || e <= 1 || e > w)
    throw std::invalid_argument("verify_family: need w > 0 and 1 < E <= w");
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
