// Tests of the standalone pairwise merge: a one-pair sort::batched_merge,
// the primitive the paper studies.
#include "sort/batched_merge.hpp"
#include "worstcase/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

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

/// Merges sorted `a` and `b` into `out` as a one-pair batch.
BatchedMergeReport merge_one_pair(gpusim::Launcher& launcher, const std::vector<int>& a,
                                  const std::vector<int>& b, std::vector<int>& out,
                                  const MergeConfig& cfg) {
  std::vector<std::vector<int>> outs;
  BatchedMergeReport report = batched_merge(launcher, {a}, {b}, outs, cfg);
  out = std::move(outs.at(0));
  return report;
}
}  // namespace

class MergeArraysBothVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(MergeArraysBothVariants, MergesArbitrarySizes) {
  std::mt19937_64 rng(1);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = GetParam();
  for (const auto& [na, nb] : std::vector<std::pair<std::size_t, std::size_t>>{
           {80, 80}, {80, 0}, {0, 80}, {1, 1}, {37, 203}, {500, 11}, {160, 160}}) {
    const auto a = sorted_random(rng, na);
    const auto b = sorted_random(rng, nb);
    std::vector<int> out;
    const auto report = merge_one_pair(launcher, a, b, out, cfg);
    EXPECT_EQ(out, reference_merge(a, b)) << "na=" << na << " nb=" << nb;
    EXPECT_EQ(report.elements, static_cast<std::int64_t>(na + nb));
    // One merge block per output tile of the pair: no list is padded.
    ASSERT_EQ(report.kernels.size(), 2u);
    EXPECT_EQ(report.kernels[1].shape.blocks,
              static_cast<int>((na + nb + cfg.tile() - 1) / cfg.tile()));
  }
}

TEST_P(MergeArraysBothVariants, EmptyInputs) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = GetParam();
  std::vector<int> out{1, 2, 3};
  const auto report = merge_one_pair(launcher, {}, {}, out, cfg);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(report.microseconds, 0.0);
  EXPECT_TRUE(report.kernels.empty());
}

TEST_P(MergeArraysBothVariants, HeavyDuplicates) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 6;  // non-coprime with 8
  cfg.u = 16;
  cfg.variant = GetParam();
  std::mt19937_64 rng(2);
  const auto a = sorted_random(rng, 100, 3);
  const auto b = sorted_random(rng, 150, 3);
  std::vector<int> out;
  merge_one_pair(launcher, a, b, out, cfg);
  EXPECT_EQ(out, reference_merge(a, b));
}

INSTANTIATE_TEST_SUITE_P(Variants, MergeArraysBothVariants,
                         ::testing::Values(Variant::Baseline, Variant::CFMerge),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return info.param == Variant::Baseline ? "Baseline" : "CFMerge";
                         });

TEST(MergeArrays, CFMergeConflictFreeOnWorstCaseSingleMerge) {
  // The Theorem 8 construction applied to one standalone merge.
  const worstcase::Params p{32, 15};
  const std::int64_t len = 2LL * 32 * 15 * 16;
  const worstcase::MergeInput in = worstcase::worst_case_merge_input(p, len);
  std::vector<int> a(in.a.begin(), in.a.end());
  std::vector<int> b(in.b.begin(), in.b.end());

  gpusim::Launcher launcher(gpusim::DeviceSpec::rtx2080ti());
  MergeConfig cfg;
  cfg.e = 15;
  cfg.u = 64;

  cfg.variant = Variant::Baseline;
  std::vector<int> out_base;
  const auto base = merge_one_pair(launcher, a, b, out_base, cfg);
  cfg.variant = Variant::CFMerge;
  std::vector<int> out_cf;
  const auto cf = merge_one_pair(launcher, a, b, out_cf, cfg);

  EXPECT_EQ(out_base, out_cf);
  EXPECT_TRUE(std::is_sorted(out_cf.begin(), out_cf.end()));
  EXPECT_EQ(cf.merge_conflicts(), 0u);
  EXPECT_GT(base.merge_conflicts(), 0u);
}

TEST(MergeArrays, ThroughputAndCountersPopulated) {
  std::mt19937_64 rng(3);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  const auto a = sorted_random(rng, 400);
  const auto b = sorted_random(rng, 400);
  std::vector<int> out;
  const auto report = merge_one_pair(launcher, a, b, out, cfg);
  EXPECT_GT(report.throughput(), 0.0);
  EXPECT_GT(report.totals.shared_accesses, 0u);
  EXPECT_EQ(report.kernels.size(), 2u);  // partition + merge
}

TEST(MergeArrays, RejectsBadConfig) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 0;
  std::vector<int> out;
  EXPECT_THROW(merge_one_pair(launcher, {1}, {2}, out, cfg), std::invalid_argument);
}

TEST(MergeArrays, VeryUnbalancedLists) {
  std::mt19937_64 rng(4);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  const auto a = sorted_random(rng, 1000);
  const auto b = sorted_random(rng, 3);
  std::vector<int> out;
  merge_one_pair(launcher, a, b, out, cfg);
  EXPECT_EQ(out, reference_merge(a, b));
}
