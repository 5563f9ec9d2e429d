// Tests that the closed-form PRAM model matches the simulator exactly for
// CF-Merge's deterministic phases — the paper's "bank conflict free =>
// PRAM analysis" claim made executable.
#include "analysis/pram_model.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "gpusim/launcher.hpp"
#include "sort/batched_merge.hpp"

using namespace cfmerge;
using namespace cfmerge::analysis;

namespace {

struct PhaseTotals {
  std::uint64_t load_shared = 0, load_gmem = 0;
  std::uint64_t merge_shared = 0;
  std::uint64_t store_shared = 0, store_gmem = 0;
  std::uint64_t search_shared = 0;
};

PhaseTotals phase_totals(const gpusim::PhaseCounters& phases) {
  PhaseTotals t;
  for (const auto& [name, c] : phases.phases()) {
    if (name == "merge.load") {
      t.load_shared = c.shared_accesses;
      t.load_gmem = c.gmem_requests;
    } else if (name == "merge.merge") {
      t.merge_shared = c.shared_accesses;
    } else if (name == "merge.store") {
      t.store_shared = c.shared_accesses;
      t.store_gmem = c.gmem_requests;
    } else if (name == "merge.search") {
      t.search_shared = c.shared_accesses;
    }
  }
  return t;
}

}  // namespace

TEST(PramModel, Validation) {
  EXPECT_THROW((void)pram_merge_kernel(8, 5, 12, 20, 40), std::invalid_argument);
  EXPECT_THROW((void)pram_merge_kernel(8, 5, 16, 10, 10), std::invalid_argument);
  EXPECT_NO_THROW((void)pram_merge_kernel(8, 5, 16, 40, 40));
}

TEST(PramModel, GatherStepsIsE) {
  EXPECT_EQ(pram_gather_steps(15), 15);
  EXPECT_EQ(pram_gather_steps(1), 1);
}

TEST(PramModel, ClosedFormCounts) {
  const auto k = pram_merge_kernel(32, 15, 512, 512LL * 15 / 2 + 3, 512LL * 15 / 2 - 3);
  // load: ceil(la/32) + ceil(lb/32).
  EXPECT_EQ(k.load_shared_accesses, (3843 + 31) / 32 + (3837 + 31) / 32);
  EXPECT_EQ(k.load_gmem_requests, k.load_shared_accesses + 2);
  EXPECT_EQ(k.gather_accesses, 15 * 16);
  EXPECT_EQ(k.output_scatter_accesses, 15 * 16);
  EXPECT_EQ(k.store_shared_accesses, 512 * 15 / 32);
  EXPECT_GT(k.search_iterations_bound, 0);
}

TEST(PramModel, SimulatorMatchesClosedFormExactly) {
  // Run one CF merge kernel through the simulator for several random splits
  // and shapes; every deterministic phase counter must equal the model.
  std::mt19937_64 rng(5);
  for (const auto& [w, e, u] :
       std::vector<std::tuple<int, int, int>>{{8, 5, 16}, {8, 6, 16}, {32, 15, 64},
                                              {32, 16, 64}, {16, 7, 32}}) {
    const std::int64_t tile = static_cast<std::int64_t>(u) * e;
    for (int trial = 0; trial < 3; ++trial) {
      const std::int64_t la = static_cast<std::int64_t>(rng() % (tile + 1));
      // One-tile merge: a one-pair batched_merge of |A| + |B| = tile, so
      // one merge block sees exactly la and tile - la.
      std::vector<int> a(static_cast<std::size_t>(la));
      std::vector<int> b(static_cast<std::size_t>(tile - la));
      for (auto& x : a) x = static_cast<int>(rng() % 10000);
      for (auto& x : b) x = static_cast<int>(rng() % 10000);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());

      gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
      sort::MergeConfig cfg;
      cfg.e = e;
      cfg.u = u;
      cfg.variant = sort::Variant::CFMerge;
      std::vector<std::vector<int>> outs;
      const auto report = sort::batched_merge(launcher, {a}, {b}, outs, cfg);
      EXPECT_TRUE(std::is_sorted(outs.at(0).begin(), outs.at(0).end()));

      // The pair is exactly one tile, so one merge block sees the split
      // (la, tile - la) and every deterministic phase counter equals the
      // closed form for it.
      const auto t = phase_totals(report.phases);
      const auto k = pram_merge_kernel(w, e, u, la, tile - la);
      SCOPED_TRACE("w=" + std::to_string(w) + " e=" + std::to_string(e) +
                   " la=" + std::to_string(la));
      EXPECT_EQ(t.load_shared, static_cast<std::uint64_t>(k.load_shared_accesses));
      EXPECT_EQ(t.load_gmem, static_cast<std::uint64_t>(k.load_gmem_requests));
      EXPECT_EQ(t.merge_shared, static_cast<std::uint64_t>(k.gather_accesses));
      EXPECT_EQ(t.store_shared, static_cast<std::uint64_t>(k.output_scatter_accesses +
                                                           k.store_shared_accesses));
      EXPECT_EQ(t.store_gmem, static_cast<std::uint64_t>(k.store_gmem_requests));
      // Search: two probe rows per iteration, within one lattice search per
      // warp plus the last lane's bracketed end search.
      EXPECT_EQ(t.search_shared % 2, 0u);
      EXPECT_LE(t.search_shared, static_cast<std::uint64_t>(2 * k.search_iterations_bound));
    }
  }
}

TEST(PramModel, PassAggregateFormula) {
  const int w = 32, e = 15, u = 512;
  const std::int64_t per_block =
      (static_cast<std::int64_t>(u) * e) / w * 2 + 2LL * e * (u / w);
  EXPECT_EQ(pram_pass_shared_accesses(w, e, u, 7), per_block * 7);
}
