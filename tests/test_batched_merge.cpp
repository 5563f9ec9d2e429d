// Tests of the batched pairwise merge API: outputs against std::merge,
// the flat launch shape (two kernels per batch, one merge block per output
// tile), zero CF merge conflicts, and bit-identical reports across worker
// counts, including empty lists and pairs.
#include "sort/batched_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>

using namespace cfmerge;
using namespace cfmerge::sort;

namespace {
std::vector<int> sorted_random(std::mt19937_64& rng, std::size_t n, int hi = 100000) {
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(rng() % static_cast<std::uint64_t>(hi));
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<int> reference_merge(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}
}  // namespace

class BatchedBothVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(BatchedBothVariants, ManyUnevenPairs) {
  std::mt19937_64 rng(1);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = GetParam();

  std::vector<std::vector<int>> as, bs;
  for (const auto& [na, nb] : std::vector<std::pair<std::size_t, std::size_t>>{
           {80, 80}, {0, 50}, {200, 3}, {1, 1}, {333, 77}, {0, 0}, {160, 159}}) {
    as.push_back(sorted_random(rng, na));
    bs.push_back(sorted_random(rng, nb));
  }
  std::vector<std::vector<int>> outs;
  const auto report = batched_merge(launcher, as, bs, outs, cfg);
  ASSERT_EQ(outs.size(), as.size());
  for (std::size_t p = 0; p < as.size(); ++p)
    EXPECT_EQ(outs[p], reference_merge(as[p], bs[p])) << "pair " << p;
  EXPECT_EQ(report.pairs, static_cast<int>(as.size()));
  std::int64_t total = 0;
  for (std::size_t p = 0; p < as.size(); ++p)
    total += static_cast<std::int64_t>(as[p].size() + bs[p].size());
  EXPECT_EQ(report.elements, total);
}

TEST_P(BatchedBothVariants, SinglePairMatchesStdMerge) {
  std::mt19937_64 rng(2);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 6;  // non-coprime with w = 8
  cfg.u = 16;
  cfg.variant = GetParam();
  const auto a = sorted_random(rng, 150);
  const auto b = sorted_random(rng, 90);
  std::vector<std::vector<int>> outs;
  const auto report = batched_merge(launcher, {a}, {b}, outs, cfg);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], reference_merge(a, b));
  // 240 elements at tile 96: three merge blocks (the old standalone merge
  // padded both lists to 192 and ran four).
  ASSERT_EQ(report.kernels.size(), 2u);
  EXPECT_EQ(report.kernels[1].shape.blocks, 3);
}

INSTANTIATE_TEST_SUITE_P(Variants, BatchedBothVariants,
                         ::testing::Values(Variant::Baseline, Variant::CFMerge),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return info.param == Variant::Baseline ? "Baseline" : "CFMerge";
                         });

TEST(BatchedMerge, EmptyBatch) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  std::vector<std::vector<int>> outs;
  const auto report = batched_merge<int>(launcher, {}, {}, outs, cfg);
  EXPECT_EQ(report.pairs, 0);
  EXPECT_TRUE(outs.empty());
}

TEST(BatchedMerge, MismatchedBatchRejected) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  std::vector<std::vector<int>> outs;
  EXPECT_THROW(batched_merge<int>(launcher, {{1}}, {}, outs, cfg), std::invalid_argument);
}

TEST(BatchedMerge, CFMergeConflictFreeAcrossWholeBatch) {
  std::mt19937_64 rng(3);
  gpusim::Launcher launcher(gpusim::DeviceSpec::rtx2080ti());
  MergeConfig cfg;
  cfg.e = 16;  // non-coprime with w = 32: the hard case
  cfg.u = 64;
  cfg.variant = Variant::CFMerge;
  std::vector<std::vector<int>> as, bs;
  for (int p = 0; p < 5; ++p) {
    as.push_back(sorted_random(rng, 1000 + static_cast<std::size_t>(rng() % 2000)));
    bs.push_back(sorted_random(rng, 500 + static_cast<std::size_t>(rng() % 2500)));
  }
  std::vector<std::vector<int>> outs;
  const auto report = batched_merge(launcher, as, bs, outs, cfg);
  EXPECT_EQ(report.merge_conflicts(), 0u);
  for (std::size_t p = 0; p < as.size(); ++p)
    EXPECT_EQ(outs[p], reference_merge(as[p], bs[p]));
}

TEST(BatchedMerge, LaunchesTwoKernelsPerBatch) {
  std::mt19937_64 rng(4);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  std::vector<std::vector<int>> as{sorted_random(rng, 100), sorted_random(rng, 300),
                                   {}, sorted_random(rng, 7)};
  std::vector<std::vector<int>> bs{sorted_random(rng, 120), sorted_random(rng, 10),
                                   {}, {}};
  std::vector<std::vector<int>> outs;
  const auto report = batched_merge(launcher, as, bs, outs, cfg);
  // One flat pass for the whole batch: one partition, one merge.
  ASSERT_EQ(launcher.history().size(), 2u);
  EXPECT_EQ(launcher.history()[0].name, "merge_partition");
  EXPECT_EQ(launcher.history()[1].name, "merge_pass");
  ASSERT_EQ(report.kernels.size(), 2u);
  EXPECT_EQ(report.graph_levels, 2);
  // One merge block per output tile: sum over pairs of ceil((|A|+|B|)/tile).
  int tiles = 0;
  for (std::size_t p = 0; p < as.size(); ++p)
    tiles += static_cast<int>((as[p].size() + bs[p].size() + cfg.tile() - 1) / cfg.tile());
  EXPECT_EQ(tiles, 3 + 4 + 0 + 1);
  EXPECT_EQ(report.kernels[1].shape.blocks, tiles);
  EXPECT_EQ(report.kernels[0].shape.blocks, 1);  // 8 co-ranks on 16 threads
  // One chain: the makespan is the serial sum.
  EXPECT_GT(report.microseconds, 0.0);
  EXPECT_DOUBLE_EQ(report.makespan_microseconds, report.microseconds);
  double serial = 0.0;
  for (const auto& k : report.kernels) serial += k.timing.microseconds;
  EXPECT_DOUBLE_EQ(serial, report.microseconds);
  for (std::size_t p = 0; p < as.size(); ++p)
    EXPECT_EQ(outs[p], reference_merge(as[p], bs[p])) << "pair " << p;
}

TEST(BatchedMerge, AllEmptyPairsLaunchNothing) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  std::vector<std::vector<int>> outs{{9}};
  const auto report = batched_merge<int>(launcher, {{}, {}, {}}, {{}, {}, {}}, outs, cfg);
  EXPECT_EQ(report.pairs, 3);
  EXPECT_EQ(report.elements, 0);
  EXPECT_TRUE(report.kernels.empty());
  EXPECT_TRUE(launcher.history().empty());
  EXPECT_EQ(outs, std::vector<std::vector<int>>(3));
}

using BatchedParam = std::tuple<int, Variant>;

class BatchedEdgeCases : public ::testing::TestWithParam<BatchedParam> {};

TEST_P(BatchedEdgeCases, EmptyListsMatchStdMergeAndReportsAreIdentical) {
  const auto [threads, variant] = GetParam();
  MergeConfig cfg;
  cfg.e = 6;  // non-coprime with w = 8
  cfg.u = 16;
  cfg.variant = variant;
  std::mt19937_64 rng(5);
  // |A| = 0, |B| = 0, both 0, exact tile multiples, one short of a tile
  // and one giant pair among tiny ones.
  std::vector<std::vector<int>> as, bs;
  for (const auto& [na, nb] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 50}, {70, 0}, {0, 0}, {96, 96}, {95, 0}, {1, 0}, {1500, 700}, {3, 2}, {0, 1}}) {
    as.push_back(sorted_random(rng, na, 50));  // heavy duplicates
    bs.push_back(sorted_random(rng, nb, 50));
  }

  const auto run = [&](int t, std::vector<std::vector<int>>& outs) {
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
    launcher.set_threads(t);
    SortEngine engine(launcher);
    return engine.batched_merge(as, bs, outs, cfg);
  };
  std::vector<std::vector<int>> ref_outs;
  const auto ref = run(1, ref_outs);
  std::vector<std::vector<int>> outs;
  const auto got = run(threads, outs);

  ASSERT_EQ(outs.size(), as.size());
  for (std::size_t p = 0; p < as.size(); ++p)
    EXPECT_EQ(outs[p], reference_merge(as[p], bs[p])) << "pair " << p;
  if (variant == Variant::CFMerge) {
    EXPECT_EQ(got.merge_conflicts(), 0u);
  }
  ASSERT_EQ(got.kernels.size(), 2u);
  EXPECT_EQ(got.totals, ref.totals);
  EXPECT_EQ(got.phases, ref.phases);
  EXPECT_DOUBLE_EQ(got.microseconds, ref.microseconds);
  EXPECT_DOUBLE_EQ(got.makespan_microseconds, ref.makespan_microseconds);
  for (std::size_t k = 0; k < ref.kernels.size(); ++k) {
    EXPECT_EQ(got.kernels[k].counters, ref.kernels[k].counters);
    EXPECT_EQ(got.kernels[k].max_block_chain, ref.kernels[k].max_block_chain);
    EXPECT_EQ(got.kernels[k].timing.cycles, ref.kernels[k].timing.cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsVariants, BatchedEdgeCases,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Variant::Baseline, Variant::CFMerge)),
    [](const ::testing::TestParamInfo<BatchedParam>& info) {
      return std::string(std::get<1>(info.param) == Variant::Baseline ? "base" : "cf") +
             "_t" + std::to_string(std::get<0>(info.param));
    });
