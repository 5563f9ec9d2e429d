// Tests of the CF-primitives layer: registry/catalog sanity, the generic
// verifier over every registered primitive (proofs for the CF ones,
// concrete replayed witnesses for the broken ablations), and the executed
// cf_permute / cf_transpose kernels — randomized round-trip oracle
// (forward then inverse is the identity), zero bank conflicts in every
// permute/transpose phase for w in {4, 8, 16, 32, 64}, and bit-identical
// reports across worker counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "cfprims/check.hpp"
#include "cfprims/permute.hpp"
#include "cfprims/primitive.hpp"
#include "gather/permutation.hpp"
#include "gpusim/launcher.hpp"
#include "numtheory/numtheory.hpp"
#include "sort/engine.hpp"
#include "verify/primitive.hpp"

using namespace cfmerge;

namespace {

std::vector<std::int32_t> random_vec(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int32_t>(rng());
  return v;
}

/// Runs one permute/transpose kernel over `in`, returning the output and
/// the kernel report.
struct RunResult {
  std::vector<std::int32_t> out;
  gpusim::KernelReport report;
};

RunResult run_op(gpusim::Launcher& launcher, const std::vector<std::int32_t>& in,
                 const cfprims::PermuteConfig& cfg) {
  cfprims::validate_permute_config(launcher.device(), cfg);
  const auto n = static_cast<std::int64_t>(in.size());
  EXPECT_EQ(n % cfg.tile(), 0);
  std::vector<std::int32_t> buf = in;
  std::vector<std::int32_t> out(in.size());
  gpusim::KernelGraph graph;
  cfprims::enqueue_permute_pipeline(graph, buf, out, n, cfg);
  const gpusim::GraphReport g = launcher.run(graph);
  EXPECT_EQ(g.kernels.size(), 1u);
  return RunResult{std::move(out), g.kernels.front()};
}

/// Total conflicts across the op's own phases (load/store included — the
/// whole kernel must be conflict-free).
std::uint64_t kernel_conflicts(const gpusim::KernelReport& r) {
  return r.total().bank_conflicts;
}

}  // namespace

TEST(CfprimsRegistry, CatalogNamesAndLookup) {
  const auto& all = cfprims::registry();
  ASSERT_GE(all.size(), 11u);
  const char* expected[] = {"cf_gather",         "cf_rank_scatter",
                            "cf_permute",        "cf_permute_inverse",
                            "cf_transpose",      "cf_transpose_inverse",
                            "cf_stride",         "cf_stage",
                            "cf_gather_no_pi",   "cf_gather_no_rho",
                            "cf_permute_no_rho"};
  for (const char* name : expected) {
    const cfprims::CFPrimitive* p = cfprims::find_primitive(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->name(), name);
    EXPECT_FALSE(p->description().empty());
  }
  EXPECT_EQ(cfprims::find_primitive("not_a_primitive"), nullptr);
}

TEST(CfprimsRegistry, FootprintsAndSupport) {
  const cfprims::PrimShape s{8, 4, 64, 0};
  EXPECT_EQ(cfprims::find_primitive("cf_gather")->shared_footprint(s), s.tile());
  EXPECT_EQ(cfprims::find_primitive("cf_permute")->shared_footprint(s), 2 * s.tile());
  EXPECT_EQ(cfprims::find_primitive("cf_transpose")->shared_footprint(s), 2 * s.tile());
  // Broken rho ablations only exist where rho matters: gcd(w, E) > 1.
  EXPECT_TRUE(cfprims::find_primitive("cf_permute_no_rho")->supports(8, 4));
  EXPECT_FALSE(cfprims::find_primitive("cf_permute_no_rho")->supports(8, 3));
  EXPECT_FALSE(cfprims::find_primitive("cf_permute")->supports(8, 1));
  EXPECT_FALSE(cfprims::find_primitive("cf_permute")->supports(8, 9));
  // The raw stride-E CRS is only CF when E is coprime with w; the staging
  // runs are CF for every supported shape and need w extra base slots.
  EXPECT_TRUE(cfprims::find_primitive("cf_stride")->supports(8, 3));
  EXPECT_FALSE(cfprims::find_primitive("cf_stride")->supports(8, 4));
  EXPECT_TRUE(cfprims::find_primitive("cf_stage")->supports(8, 4));
  EXPECT_EQ(cfprims::find_primitive("cf_stage")->shared_footprint(s), s.tile() + 8);
}

TEST(CfprimsVerify, GenericPathProvesEveryCFPrimitive) {
  for (int w : {4, 8, 16, 32}) {
    for (int e : {2, 3, 4, w / 2 + 1, w}) {
      if (e <= 1 || e > w) continue;
      for (const cfprims::CFPrimitive* prim : cfprims::registry()) {
        if (!prim->supports(w, e) || !prim->expected_conflict_free(w, e)) continue;
        const verify::ProofObject po = verify::verify_primitive(*prim, w, e);
        EXPECT_EQ(po.verdict, verify::Verdict::kProved)
            << prim->name() << " w=" << w << " E=" << e;
        EXPECT_EQ(po.family, prim->name());
      }
    }
  }
}

TEST(CfprimsVerify, BrokenVariantsRefutedWithReplayableWitness) {
  for (int w : {4, 8, 16, 32}) {
    for (int e : {2, 4, w}) {
      if (e <= 1 || e > w) continue;
      for (const cfprims::CFPrimitive* prim : cfprims::registry()) {
        if (!prim->supports(w, e) || prim->expected_conflict_free(w, e)) continue;
        const verify::ProofObject po = verify::verify_primitive(*prim, w, e);
        EXPECT_EQ(po.verdict, verify::Verdict::kCounterexample)
            << prim->name() << " w=" << w << " E=" << e;
        const verify::Counterexample& cx = po.counterexample;
        // The witness must name two same-warp lanes hitting one bank at
        // distinct addresses.
        EXPECT_EQ(cx.lane1 / w, cx.lane2 / w);
        EXPECT_NE(cx.addr1, cx.addr2);
        EXPECT_EQ(numtheory::mod(cx.addr1, w), cx.bank);
        EXPECT_EQ(numtheory::mod(cx.addr2, w), cx.bank);
      }
    }
  }
}

TEST(CfprimsVerify, UnsupportedShapeThrows) {
  const cfprims::CFPrimitive* p = cfprims::find_primitive("cf_permute");
  ASSERT_NE(p, nullptr);
  EXPECT_THROW((void)verify::verify_primitive(*p, 8, 1), std::invalid_argument);
  EXPECT_THROW((void)verify::verify_primitive(*p, 8, 9), std::invalid_argument);
}

TEST(CfprimsScan, CountsAndLocatesConflicts) {
  // Stride-2 addressing on w=4: lanes {0,2} and {1,3} pair up per window.
  const cfprims::ConflictScan scan = cfprims::scan_conflicts(
      4, 1, 8, [](std::int64_t i, std::int64_t) { return 2 * i; });
  EXPECT_GT(scan.total_conflicts, 0);
  EXPECT_TRUE(scan.found);
  EXPECT_NE(scan.addr1, scan.addr2);
  EXPECT_EQ(numtheory::mod(scan.addr1, 4), scan.bank);
  EXPECT_EQ(numtheory::mod(scan.addr2, 4), scan.bank);
  const cfprims::ConflictScan clean = cfprims::scan_conflicts(
      4, 1, 8, [](std::int64_t i, std::int64_t) { return i; });
  EXPECT_EQ(clean.total_conflicts, 0);
  EXPECT_FALSE(clean.found);
}

TEST(CfprimsPermute, ForwardAppliesRhoAndRoundTripsConflictFree) {
  for (int w : {4, 8, 16, 32, 64}) {
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w, 2));
    for (int e : {2, 3, w / 2, w}) {
      if (e <= 1 || e > w) continue;
      cfprims::PermuteConfig cfg;
      cfg.op = cfprims::PermuteOp::kPermute;
      cfg.e = e;
      cfg.u = 2 * w;
      const std::int64_t tile = cfg.tile();
      // Two shared tiles per block; skip shapes the tiny device can't host.
      if (2 * tile * static_cast<std::int64_t>(sizeof(std::int32_t)) >
          static_cast<std::int64_t>(launcher.device().shared_bytes_per_sm))
        continue;
      const auto in = random_vec(3 * tile, 7 * static_cast<std::uint64_t>(w) + e);

      const RunResult fwd = run_op(launcher, in, cfg);
      EXPECT_EQ(kernel_conflicts(fwd.report), 0u)
          << "forward w=" << w << " E=" << e;
      // out[rho(x)] = in[x] within each tile.
      const gather::CircularShift rho(w, e, tile);
      for (std::int64_t b = 0; b < 3; ++b)
        for (std::int64_t x = 0; x < tile; ++x)
          ASSERT_EQ(fwd.out[static_cast<std::size_t>(b * tile + rho(x))],
                    in[static_cast<std::size_t>(b * tile + x)])
              << "w=" << w << " E=" << e << " x=" << x;

      cfg.inverse = true;
      const RunResult inv = run_op(launcher, fwd.out, cfg);
      EXPECT_EQ(kernel_conflicts(inv.report), 0u)
          << "inverse w=" << w << " E=" << e;
      EXPECT_EQ(inv.out, in) << "round trip w=" << w << " E=" << e;
    }
  }
}

TEST(CfprimsTranspose, TransposesAndRoundTripsConflictFree) {
  for (int w : {4, 8, 16, 32, 64}) {
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w, 2));
    for (int e : {2, 3, w / 2, w}) {
      if (e <= 1 || e > w) continue;
      cfprims::PermuteConfig cfg;
      cfg.op = cfprims::PermuteOp::kTranspose;
      cfg.e = e;
      cfg.u = 2 * w;
      const std::int64_t tile = cfg.tile();
      if (2 * tile * static_cast<std::int64_t>(sizeof(std::int32_t)) >
          static_cast<std::int64_t>(launcher.device().shared_bytes_per_sm))
        continue;
      const auto in = random_vec(2 * tile, 11 * static_cast<std::uint64_t>(w) + e);

      const RunResult fwd = run_op(launcher, in, cfg);
      EXPECT_EQ(kernel_conflicts(fwd.report), 0u)
          << "forward w=" << w << " E=" << e;
      // out[j*u + i] = in[i*E + j] within each tile.
      for (std::int64_t b = 0; b < 2; ++b)
        for (std::int64_t i = 0; i < cfg.u; ++i)
          for (std::int64_t j = 0; j < e; ++j)
            ASSERT_EQ(fwd.out[static_cast<std::size_t>(b * tile + j * cfg.u + i)],
                      in[static_cast<std::size_t>(b * tile + i * e + j)])
                << "w=" << w << " E=" << e;

      cfprims::PermuteConfig icfg = cfg;
      icfg.inverse = true;
      const RunResult inv = run_op(launcher, fwd.out, icfg);
      EXPECT_EQ(kernel_conflicts(inv.report), 0u)
          << "inverse w=" << w << " E=" << e;
      EXPECT_EQ(inv.out, in) << "round trip w=" << w << " E=" << e;
    }
  }
}

TEST(CfprimsEngine, PermutePlansAreCachedAndRoundTrip) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8, 2));
  sort::SortEngine engine(launcher);
  cfprims::PermuteConfig fwd;
  fwd.e = 4;
  fwd.u = 16;
  cfprims::PermuteConfig inv = fwd;
  inv.inverse = true;

  const auto original = random_vec(5 * fwd.tile() + 7, 123);  // ragged tail
  for (int call = 0; call < 2; ++call) {
    auto data = original;
    const cfprims::PermuteReport f = engine.permute(data, fwd);
    EXPECT_EQ(f.n, static_cast<std::int64_t>(original.size()));
    EXPECT_EQ(f.n_padded, 6 * fwd.tile());
    EXPECT_EQ(static_cast<std::int64_t>(data.size()), f.n_padded);
    EXPECT_EQ(f.totals.bank_conflicts, 0u);
    EXPECT_GT(f.microseconds, 0.0);
    const cfprims::PermuteReport i = engine.permute(data, inv);
    EXPECT_EQ(i.totals.bank_conflicts, 0u);
    data.resize(original.size());
    EXPECT_EQ(data, original);
  }
  // Forward and inverse each built one plan on the first call and hit on
  // the second.
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.plan_misses, 2u);
  EXPECT_EQ(es.plan_hits, 2u);
}

TEST(CfprimsEngine, TransposeKeyedSeparatelyFromPermute) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8, 2));
  sort::SortEngine engine(launcher);
  cfprims::PermuteConfig p;
  p.e = 4;
  p.u = 16;
  auto data = random_vec(p.tile(), 5);
  engine.permute(data, p);
  p.op = cfprims::PermuteOp::kTranspose;
  auto data2 = random_vec(p.tile(), 6);
  const cfprims::PermuteReport t = engine.permute(data2, p);
  EXPECT_STREQ(t.op_name(), "cf_transpose");
  EXPECT_EQ(t.kernels.front().name, "cf_transpose");
  EXPECT_EQ(engine.stats().plan_misses, 2u);  // distinct kinds, distinct plans
}

TEST(CfprimsPermute, ReportsBitIdenticalAcrossThreads) {
  for (const cfprims::PermuteOp op :
       {cfprims::PermuteOp::kPermute, cfprims::PermuteOp::kTranspose}) {
    cfprims::PermuteConfig cfg;
    cfg.op = op;
    cfg.e = 6;
    cfg.u = 16;
    const auto in = random_vec(4 * cfg.tile(), 99);

    gpusim::Launcher ref_launcher(gpusim::DeviceSpec::tiny(8, 2));
    const RunResult ref = run_op(ref_launcher, in, cfg);
    for (int threads : {1, 2, 4}) {
      gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8, 2));
      launcher.set_threads(threads);
      const RunResult got = run_op(launcher, in, cfg);
      EXPECT_EQ(got.out, ref.out);
      EXPECT_EQ(got.report.counters.phases(), ref.report.counters.phases());
      EXPECT_EQ(got.report.timing.microseconds, ref.report.timing.microseconds);
    }
  }
}
