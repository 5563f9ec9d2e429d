// Tests of the Pass 1 symbolic verifier: the full proof sweep, bit-exact
// agreement between the static analyses and the dynamic cost model, and the
// counterexample machinery of the deliberately broken schedules.
#include "verify/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/json.hpp"
#include "gather/schedule.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/shared_memory.hpp"
#include "numtheory/numtheory.hpp"
#include "sort/bitonic.hpp"
#include "worstcase/predict.hpp"

using namespace cfmerge;
using namespace cfmerge::verify;

namespace {

constexpr int kWidths[] = {4, 8, 16, 32, 64};

/// Structured split-size vectors (|A_i| per thread) used to cross-check the
/// static verdict against the dynamic cost model.
std::vector<std::vector<std::int64_t>> dynamic_splits(int u, int e) {
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
  return out;
}

gather::RoundSchedule make_schedule(int w, int e, int u,
                                    const std::vector<std::int64_t>& sizes) {
  std::vector<std::int64_t> off(sizes.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    off[i] = acc;
    acc += sizes[i];
  }
  const gather::GatherShape shape{w, e, u, acc,
                                  static_cast<std::int64_t>(u) * e - acc};
  return {shape, std::move(off), sizes};
}

}  // namespace

TEST(CfVerify, SweepAllFamiliesProved) {
  for (const int w : kWidths) {
    for (int e = 2; e <= w; ++e) {
      const ProofObject po = verify_cf_gather(w, e);
      ASSERT_EQ(po.verdict, Verdict::kProved) << "w=" << w << " E=" << e;
      ASSERT_FALSE(po.steps.empty());
      for (const ProofStep& st : po.steps)
        EXPECT_EQ(st.status, StepStatus::kPassed)
            << "w=" << w << " E=" << e << " step " << st.name << ": " << st.detail;
    }
  }
}

TEST(CfVerify, ProvedFamiliesHaveZeroDynamicConflicts) {
  // The static verdict must agree bit-exactly with the dynamic cost model:
  // a proved family shows conflicts == 0 on every sampled schedule instance.
  for (const int w : kWidths) {
    for (int e = 2; e <= w; ++e) {
      ASSERT_TRUE(verify_cf_gather(w, e).proved());
      const int u = 2 * w;
      for (const auto& sizes : dynamic_splits(u, e)) {
        const gather::RoundSchedule sched = make_schedule(w, e, u, sizes);
        std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
        for (int j = 0; j < e; ++j) {
          for (int warp = 0; warp < u / w; ++warp) {
            for (int lane = 0; lane < w; ++lane)
              addrs[static_cast<std::size_t>(lane)] =
                  sched.read(warp * w + lane, j).phys;
            const auto cost = gpusim::shared_access_cost(addrs, w);
            ASSERT_EQ(cost.conflicts, 0)
                << "w=" << w << " E=" << e << " warp=" << warp << " round=" << j;
          }
        }
      }
    }
  }
}

TEST(CfVerify, Theorem8StaticWalkMatchesSimulatorBitExactly) {
  for (const int w : kWidths) {
    for (int e = 2; e <= w; ++e) {
      const worstcase::Params p{w, e};
      const WorstCaseAnalysis an = analyze_worstcase_warp(p);
      const std::uint64_t measured = measure_worstcase_warp(p);
      EXPECT_EQ(static_cast<std::uint64_t>(an.exact_conflicts), measured)
          << "w=" << w << " E=" << e;
      EXPECT_EQ(an.closed_form, worstcase::predicted_warp_conflicts(p));
      EXPECT_LE(an.min_bound, an.exact_conflicts) << "w=" << w << " E=" << e;
      EXPECT_GE(an.max_bound, an.exact_conflicts) << "w=" << w << " E=" << e;
      EXPECT_EQ(an.accesses, e + 2);  // two preloads + E step fetches
    }
  }
}

TEST(CfVerify, NoPiRefutationsCarryConcreteWitnesses) {
  for (const int w : kWidths) {
    for (int e = 2; e <= w; ++e) {
      const ProofObject po = verify_cf_gather(w, e, ScheduleVariant::kNoBReversal);
      ASSERT_EQ(po.verdict, Verdict::kCounterexample) << "w=" << w << " E=" << e;
      const Counterexample& ce = po.counterexample;
      // Replay the witness through the dynamic cost model: the two lanes
      // read distinct shared positions in one bank, so the access pays at
      // least one replay cycle.
      ASSERT_NE(ce.addr1, ce.addr2);
      ASSERT_EQ(numtheory::mod(ce.addr1, w), static_cast<std::int64_t>(ce.bank));
      ASSERT_EQ(numtheory::mod(ce.addr2, w), static_cast<std::int64_t>(ce.bank));
      const std::vector<std::int64_t> pair{ce.addr1, ce.addr2};
      EXPECT_GE(gpusim::shared_access_cost(pair, w).conflicts, 1)
          << "w=" << w << " E=" << e;
    }
  }
}

TEST(CfVerify, NoRhoRefutationsReplayAgainstTheRealSchedule) {
  for (const int w : kWidths) {
    for (int e = 2; e <= w; ++e) {
      if (numtheory::gcd(w, e) <= 1) continue;
      const ProofObject po = verify_cf_gather(w, e, ScheduleVariant::kNoRhoShift);
      ASSERT_EQ(po.verdict, Verdict::kCounterexample) << "w=" << w << " E=" << e;
      const Counterexample& ce = po.counterexample;

      // The witness is an actual schedule instance: rebuild it and check the
      // two lanes really read the claimed raw positions in that round.
      const gather::RoundSchedule sched = make_schedule(w, e, ce.u, ce.a_sizes);
      EXPECT_EQ(sched.read(ce.lane1, ce.round).raw, ce.addr1);
      EXPECT_EQ(sched.read(ce.lane2, ce.round).raw, ce.addr2);
      ASSERT_NE(ce.addr1, ce.addr2);
      EXPECT_EQ(numtheory::mod(ce.addr1, w), numtheory::mod(ce.addr2, w));

      // Without rho the raw positions collide in a bank; with rho the same
      // warp round is conflict free — exactly the paper's Section 3.2 story.
      std::vector<std::int64_t> raw(static_cast<std::size_t>(w));
      std::vector<std::int64_t> phys(static_cast<std::size_t>(w));
      const int warp = ce.lane1 / w;
      for (int lane = 0; lane < w; ++lane) {
        const gather::GatherRead r = sched.read(warp * w + lane, ce.round);
        raw[static_cast<std::size_t>(lane)] = r.raw;
        phys[static_cast<std::size_t>(lane)] = r.phys;
      }
      EXPECT_GE(gpusim::shared_access_cost(raw, w).conflicts, 1)
          << "w=" << w << " E=" << e;
      EXPECT_EQ(gpusim::shared_access_cost(phys, w).conflicts, 0)
          << "w=" << w << " E=" << e;
    }
  }
}

TEST(CfVerify, BitonicProfileMatchesSimulatorBitExactly) {
  // One shared-memory bitonic sort of exactly one tile: every bank conflict
  // the simulator charges comes from the exchange substages, so the static
  // profile (degree - 1 per access) must reproduce the counter bit-exactly.
  for (const bool padded : {false, true}) {
    const int w = 8;
    sort::BitonicConfig cfg;
    cfg.u = 16;
    cfg.elems_per_thread = 4;
    cfg.padded = padded;
    const std::int64_t tile = cfg.tile();  // 64

    const ProofObject po =
        verify_bitonic_exchange(tile, w, padded);
    EXPECT_EQ(po.verdict, Verdict::kProved) << "padded=" << padded;

    auto degree = [&](std::int64_t j) {
      if (j >= w) return 1;
      if (padded && j == 1) return 1;
      return 2;
    };
    const std::int64_t rows = tile / 2 / w;  // rows per substage per sweep
    std::int64_t predicted = 0;
    for (std::int64_t k = 2; k <= tile; k *= 2)
      for (std::int64_t j = k / 2; j >= 1; j /= 2)
        predicted += 4 * rows * (degree(j) - 1);  // 2 gathers + 2 scatters

    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
    std::vector<int> data(static_cast<std::size_t>(tile));
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<int>((i * 37) % 101);
    const sort::BitonicReport report = sort::bitonic_sort(launcher, data, cfg);
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
    EXPECT_EQ(static_cast<std::int64_t>(report.totals.bank_conflicts), predicted)
        << "padded=" << padded;
  }
}

TEST(CfVerify, BitonicUnpaddedWitnessReplays) {
  for (const int w : {4, 8, 16, 32}) {
    const ProofObject po = refute_bitonic_unpadded(4 * w, w);
    ASSERT_EQ(po.verdict, Verdict::kCounterexample) << "w=" << w;
    const Counterexample& ce = po.counterexample;
    ASSERT_NE(ce.addr1, ce.addr2);
    EXPECT_EQ(numtheory::mod(ce.addr1, w), static_cast<std::int64_t>(ce.bank));
    EXPECT_EQ(numtheory::mod(ce.addr2, w), static_cast<std::int64_t>(ce.bank));
    const std::vector<std::int64_t> pair{ce.addr1, ce.addr2};
    EXPECT_GE(gpusim::shared_access_cost(pair, w).conflicts, 1);
  }
}

TEST(CfVerify, MultiwayCascadeSweepProved) {
  // Representative E values keep the full w x k sweep affordable; the
  // VerifyAll test below covers every E for the small widths.
  for (const int w : kWidths) {
    for (const int k : {2, 4, 8}) {
      for (const int e : {2, 3, w / 2, w}) {
        if (e < 2 || e > w) continue;
        const ProofObject po = verify_multiway_cascade(w, e, k);
        ASSERT_EQ(po.verdict, Verdict::kProved)
            << "w=" << w << " E=" << e << " k=" << k;
        EXPECT_EQ(po.k, k);
        ASSERT_FALSE(po.steps.empty());
        for (const ProofStep& st : po.steps)
          EXPECT_EQ(st.status, StepStatus::kPassed)
              << "w=" << w << " E=" << e << " k=" << k << " step " << st.name
              << ": " << st.detail;
      }
    }
  }
}

TEST(CfVerify, MultiwayCascadeCitesRankScatter) {
  // The inter-stage scatter is not re-derived: the cascade cites the
  // registered cf_rank_scatter certificate, and the right child's reflected
  // stream reduces to round E-1-j of it.
  const std::vector<std::string> want = {"stage-gather-reduction", "pad-alignment",
                                         "scatter-component:cf_rank_scatter",
                                         "plan-faithfulness"};
  for (const auto& [w, e, k] : {std::tuple{4, 2, 2}, std::tuple{8, 4, 4},
                                std::tuple{16, 6, 8}, std::tuple{32, 15, 16}}) {
    const ProofObject po = verify_multiway_cascade(w, e, k);
    ASSERT_TRUE(po.proved()) << "w=" << w << " E=" << e << " k=" << k;
    std::vector<std::string> names;
    for (const ProofStep& st : po.steps) names.push_back(st.name);
    EXPECT_EQ(names, want) << "w=" << w << " E=" << e << " k=" << k;
    const std::string& detail = po.steps[2].detail;
    EXPECT_NE(detail.find("cites the memoized cf_rank_scatter certificate"),
              std::string::npos)
        << detail;
    EXPECT_NE(detail.find("round E-1-j"), std::string::npos) << detail;
  }
}

TEST(CfVerify, MultiwayDirectRefutationWitnessReplays) {
  for (const int w : kWidths) {
    const int e = std::max(2, w / 2);
    for (const int k : {2, 3, 4, 8}) {
      const ProofObject po = refute_multiway_direct(w, e, k);
      ASSERT_EQ(po.verdict, Verdict::kCounterexample)
          << "w=" << w << " E=" << e << " k=" << k;
      const Counterexample& ce = po.counterexample;
      // Lane 0 and lane ceil(w/E) read sequence-0 heads at offsets 0 and w.
      EXPECT_EQ(ce.lane1, 0);
      EXPECT_EQ(ce.lane2, (w + e - 1) / e);
      ASSERT_NE(ce.addr1, ce.addr2);
      EXPECT_EQ(numtheory::mod(ce.addr1, w), static_cast<std::int64_t>(ce.bank));
      EXPECT_EQ(numtheory::mod(ce.addr2, w), static_cast<std::int64_t>(ce.bank));
      const std::vector<std::int64_t> pair{ce.addr1, ce.addr2};
      EXPECT_GE(gpusim::shared_access_cost(pair, w).conflicts, 1)
          << "w=" << w << " k=" << k;
    }
  }
}

TEST(CfVerify, VerifyAllReportIsOkAndSerializes) {
  VerifyOptions opts;
  opts.widths = {4, 8};
  const VerifyReport report = verify_all(opts);
  EXPECT_TRUE(report.all_proved());
  EXPECT_TRUE(report.all_refuted());
  EXPECT_TRUE(report.ok());
  // Every (w, E) family proves the seven CF primitives (cf_gather,
  // cf_rank_scatter, cf_permute{,_inverse}, cf_transpose{,_inverse},
  // cf_stage) plus cf_stride when gcd(w, E) = 1 and a multiway cascade per
  // arity, and refutes cf_gather_no_pi always and cf_gather_no_rho +
  // cf_permute_no_rho when gcd(w, E) > 1; every width additionally carries
  // the bitonic profiles and the per-k direct claims.
  //
  // Pass 3 safety-proves every registry primitive the family supports
  // (CF and broken alike), the merge and blocksort composites and one
  // multiway composite per arity, and refutes both safety ablations.
  constexpr std::size_t kCfPrimitives = 7;
  constexpr std::size_t kBrokenCoprime = 1;   // cf_gather_no_pi
  constexpr std::size_t kBrokenSharedD = 2;   // *_no_rho variants
  constexpr std::size_t kSafetyAblations = 2;  // off-by-wE, read-before-scatter
  std::size_t want_refutations = 0;
  std::size_t want_proofs = 0;
  std::size_t want_safety_proofs = 0;
  std::size_t want_safety_refutations = 0;
  for (const int w : opts.widths) {
    ++want_refutations;  // bitonic cf claim
    want_refutations += opts.ks.size();  // direct k-ary claims
    want_proofs += 2;  // bitonic padded + unpadded profile
    for (int e = 2; e <= w; ++e) {
      const bool coprime = numtheory::gcd(w, e) == 1;
      const std::size_t supported =  // registry primitives supported at (w, E)
          kCfPrimitives + kBrokenCoprime + (coprime ? 1 : kBrokenSharedD);
      want_proofs += kCfPrimitives + opts.ks.size();
      if (coprime) ++want_proofs;  // cf_stride
      want_refutations += kBrokenCoprime;
      if (!coprime) want_refutations += kBrokenSharedD;
      want_safety_proofs += supported + 2 + opts.ks.size();  // + merge, blocksort
      want_safety_refutations += kSafetyAblations;
    }
  }
  EXPECT_EQ(report.proofs.size(), want_proofs);
  EXPECT_EQ(report.refutations.size(), want_refutations);
  EXPECT_EQ(report.safety_proofs.size(), want_safety_proofs);
  EXPECT_EQ(report.safety_refutations.size(), want_safety_refutations);

  std::ostringstream os;
  analysis::write_json(os, report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"kind\":\"verify\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"counterexample\""), std::string::npos);
}

TEST(CfVerify, InvalidParametersThrow) {
  EXPECT_THROW((void)verify_cf_gather(8, 1), std::invalid_argument);
  EXPECT_THROW((void)verify_cf_gather(8, 9), std::invalid_argument);
  EXPECT_THROW((void)verify_cf_gather(0, 2), std::invalid_argument);
  EXPECT_THROW((void)verify_bitonic_exchange(24, 8, true), std::invalid_argument);
  EXPECT_THROW((void)verify_bitonic_exchange(8, 8, true), std::invalid_argument);
  EXPECT_THROW((void)verify_multiway_cascade(8, 4, 3), std::invalid_argument);
  EXPECT_THROW((void)verify_multiway_cascade(8, 4, 1), std::invalid_argument);
  EXPECT_THROW((void)verify_multiway_cascade(8, 1, 4), std::invalid_argument);
  EXPECT_THROW((void)verify_multiway_cascade(8, 4, 32), std::invalid_argument);
  EXPECT_THROW((void)verify_multiway_cascade(128, 4, 2), std::invalid_argument);
  EXPECT_THROW((void)verify_cf_gather(128, 4), std::invalid_argument);
  EXPECT_THROW((void)refute_multiway_direct(8, 1, 4), std::invalid_argument);
  EXPECT_THROW((void)refute_multiway_direct(8, 4, 1), std::invalid_argument);
}
