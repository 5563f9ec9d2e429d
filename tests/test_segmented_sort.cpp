// Tests of sort::segmented_sort: edge-case segment shapes, the flat launch
// shape (1 + 2 * (max segment passes) kernels for the whole batch, one
// chain), outputs against std::stable_sort with zero CF merge conflicts,
// and bit-identical reports across worker counts.
#include "sort/segmented_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>

using namespace cfmerge;
using namespace cfmerge::sort;

namespace {

std::vector<int> random_ints(std::mt19937_64& rng, std::size_t n) {
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(rng() % 2000000) - 1000000;
  return v;
}

MergeConfig small_cfg(Variant v = Variant::CFMerge) {
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = v;
  return cfg;
}

void expect_report_eq(const gpusim::KernelReport& a, const gpusim::KernelReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.mean_block_chain, b.mean_block_chain);
  EXPECT_EQ(a.max_block_chain, b.max_block_chain);
  EXPECT_EQ(a.timing.cycles, b.timing.cycles);
  EXPECT_EQ(a.timing.microseconds, b.timing.microseconds);
}

}  // namespace

TEST(SegmentedSort, EmptySegmentList) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  std::vector<std::vector<int>> segments;
  const auto report = segmented_sort(launcher, segments, small_cfg());
  EXPECT_EQ(report.segments, 0);
  EXPECT_EQ(report.elements, 0);
  EXPECT_TRUE(report.kernels.empty());
  EXPECT_TRUE(report.per_segment.empty());
  EXPECT_EQ(report.serial_microseconds, 0.0);
  EXPECT_EQ(report.makespan_microseconds, 0.0);
  EXPECT_TRUE(launcher.history().empty());
}

TEST(SegmentedSort, ZeroLengthAndSingleElementSegments) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  std::vector<std::vector<int>> segments{{}, {42}, {}, {7, 3}, {}};
  const auto report = segmented_sort(launcher, segments, small_cfg());
  EXPECT_EQ(report.segments, 5);
  EXPECT_EQ(report.elements, 3);
  EXPECT_TRUE(segments[0].empty());
  EXPECT_EQ(segments[1], std::vector<int>{42});
  EXPECT_TRUE(segments[2].empty());
  EXPECT_EQ(segments[3], (std::vector<int>{3, 7}));
  EXPECT_TRUE(segments[4].empty());
  ASSERT_EQ(report.per_segment.size(), 5u);
  for (const auto& info : report.per_segment) EXPECT_EQ(info.passes, 0);
  // Empty segments take no tile; both tiny segments fit in one tile each,
  // so the batch is one block_sort of two blocks and no merge pass.
  ASSERT_EQ(report.kernels.size(), 1u);
  EXPECT_EQ(report.kernels[0].name, "block_sort");
  EXPECT_EQ(report.kernels[0].shape.blocks, 2);
  EXPECT_EQ(report.graph_levels, 1);
}

TEST(SegmentedSort, OneGiantManyTiny) {
  std::mt19937_64 rng(11);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  const MergeConfig cfg = small_cfg();
  std::vector<std::vector<int>> segments;
  segments.push_back(random_ints(rng, 4000));  // spans several merge passes
  for (int i = 0; i < 12; ++i)
    segments.push_back(random_ints(rng, 1 + static_cast<std::size_t>(rng() % 8)));

  std::vector<std::vector<int>> expected = segments;
  const auto report = segmented_sort(launcher, segments, cfg);

  for (std::size_t s = 0; s < segments.size(); ++s) {
    std::sort(expected[s].begin(), expected[s].end());
    EXPECT_EQ(segments[s], expected[s]) << "segment " << s;
  }
  // The tiny segments sort inside the one block_sort; every merge pass
  // is the giant's alone.  One chain: makespan = serial sum.
  const int passes = report.per_segment[0].passes;
  EXPECT_GT(passes, 2);
  for (std::size_t s = 1; s < segments.size(); ++s)
    EXPECT_EQ(report.per_segment[s].passes, 0);
  EXPECT_EQ(report.graph_levels, 1 + 2 * passes);
  ASSERT_EQ(report.kernels.size(), static_cast<std::size_t>(1 + 2 * passes));
  EXPECT_EQ(report.kernels[0].shape.blocks, 50 + 12);  // 4000 / 80 + one per tiny
  EXPECT_DOUBLE_EQ(report.makespan_microseconds, report.serial_microseconds);
  EXPECT_EQ(report.merge_conflicts(), 0u);
}

TEST(SegmentedSort, EightSegmentsRunAsOneFlatChain) {
  // Eight independent segments: one block_sort, then one partition + merge
  // pair per round for all of them.  The kernels form one chain, so the
  // makespan equals the serial sum.
  std::mt19937_64 rng(12);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  std::vector<std::vector<int>> segments;
  for (int s = 0; s < 8; ++s)
    segments.push_back(random_ints(rng, 200 + static_cast<std::size_t>(rng() % 600)));
  const auto report = segmented_sort(launcher, segments, small_cfg());
  int max_passes = 0;
  for (const auto& info : report.per_segment) max_passes = std::max(max_passes, info.passes);
  EXPECT_GT(max_passes, 0);
  ASSERT_EQ(report.kernels.size(), static_cast<std::size_t>(1 + 2 * max_passes));
  EXPECT_EQ(report.kernels[0].name, "block_sort");
  for (int p = 0; p < max_passes; ++p) {
    EXPECT_EQ(report.kernels[static_cast<std::size_t>(1 + 2 * p)].name, "batched_partition");
    EXPECT_EQ(report.kernels[static_cast<std::size_t>(2 + 2 * p)].name, "batched_merge");
  }
  EXPECT_EQ(report.graph_levels, 1 + 2 * max_passes);
  EXPECT_GT(report.makespan_microseconds, 0.0);
  EXPECT_DOUBLE_EQ(report.makespan_microseconds, report.serial_microseconds);
  EXPECT_DOUBLE_EQ(report.overlap_speedup(), 1.0);
  // Serial sum is what the launcher's history adds up to.
  EXPECT_DOUBLE_EQ(report.serial_microseconds, launcher.total_microseconds());
}

using SegmentedParam = std::tuple<int, Variant>;

std::string segmented_param_name(const ::testing::TestParamInfo<SegmentedParam>& info) {
  const int threads = std::get<0>(info.param);
  const Variant variant = std::get<1>(info.param);
  return std::string(variant == Variant::Baseline ? "base" : "cf") + "_t" +
         std::to_string(threads);
}

class SegmentedSortBitIdentity : public ::testing::TestWithParam<SegmentedParam> {};

/// Zero-length, one-element and tile-multiple segments, one giant segment
/// among many tiny ones, and segments of every pass count up to five.
std::vector<std::vector<int>> edge_segments() {
  std::mt19937_64 rng(13);
  std::vector<std::vector<int>> segments;
  for (const std::size_t n : {std::size_t{900}, std::size_t{0}, std::size_t{1},
                              std::size_t{2500}, std::size_t{83}, std::size_t{0},
                              std::size_t{1200}, std::size_t{80}, std::size_t{160}})
    segments.push_back(random_ints(rng, n));
  for (int s = 0; s < 10; ++s)
    segments.push_back(random_ints(rng, static_cast<std::size_t>(rng() % 5)));
  return segments;
}

TEST_P(SegmentedSortBitIdentity, EverySegmentMatchesStableSort) {
  const auto [threads, variant] = GetParam();
  const MergeConfig cfg = small_cfg(variant);
  std::vector<std::vector<int>> segments = edge_segments();
  const std::vector<std::vector<int>> input = segments;

  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  launcher.set_threads(threads);
  const auto report = segmented_sort(launcher, segments, cfg);

  int max_passes = 0;
  for (std::size_t s = 0; s < input.size(); ++s) {
    SCOPED_TRACE("segment " + std::to_string(s));
    std::vector<int> expect = input[s];
    std::stable_sort(expect.begin(), expect.end());
    EXPECT_EQ(segments[s], expect);
    const auto& info = report.per_segment[s];
    EXPECT_EQ(info.n, static_cast<std::int64_t>(input[s].size()));
    EXPECT_EQ(info.passes, merge_pass_count(info.n, cfg.tile()));
    max_passes = std::max(max_passes, info.passes);
  }
  EXPECT_EQ(max_passes, 5);  // 2500 elements = 32 tiles of 80
  ASSERT_EQ(report.kernels.size(), static_cast<std::size_t>(1 + 2 * max_passes));

  // The report is bit-identical to a one-worker run.
  gpusim::Launcher ref_launcher(gpusim::DeviceSpec::tiny(8));
  std::vector<std::vector<int>> ref_segments = input;
  const auto ref = segmented_sort(ref_launcher, ref_segments, cfg);
  EXPECT_EQ(report.totals, ref.totals);
  EXPECT_EQ(report.phases, ref.phases);
  ASSERT_EQ(report.kernels.size(), ref.kernels.size());
  for (std::size_t k = 0; k < ref.kernels.size(); ++k)
    expect_report_eq(report.kernels[k], ref.kernels[k]);
}

TEST_P(SegmentedSortBitIdentity, CFMergeHasNoMergeConflicts) {
  const auto [threads, variant] = GetParam();
  std::vector<std::vector<int>> segments = edge_segments();
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  launcher.set_threads(threads);
  const auto report = segmented_sort(launcher, segments, small_cfg(variant));
  if (variant == Variant::CFMerge) {
    EXPECT_EQ(report.merge_conflicts(), 0u);
  } else {
    EXPECT_GT(report.merge_conflicts(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsVariants, SegmentedSortBitIdentity,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Variant::Baseline, Variant::CFMerge)),
    segmented_param_name);

TEST(SegmentedSort, ReportsIdenticalAcrossThreads) {
  // The full report (not just outputs) is bit-identical for any worker
  // count; only host wall-clock may differ.
  std::mt19937_64 rng(14);
  std::vector<std::vector<int>> base;
  for (int s = 0; s < 5; ++s)
    base.push_back(random_ints(rng, 150 + static_cast<std::size_t>(rng() % 400)));

  auto run = [&](int threads) {
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    std::vector<std::vector<int>> segments = base;
    return segmented_sort(launcher, segments, small_cfg());
  };
  const auto ref = run(1);
  for (const int threads : {1, 2, 4}) {
    const auto got = run(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(got.totals, ref.totals);
    EXPECT_EQ(got.phases, ref.phases);
    EXPECT_DOUBLE_EQ(got.serial_microseconds, ref.serial_microseconds);
    EXPECT_DOUBLE_EQ(got.makespan_microseconds, ref.makespan_microseconds);
    ASSERT_EQ(got.kernels.size(), ref.kernels.size());
    for (std::size_t k = 0; k < ref.kernels.size(); ++k)
      expect_report_eq(got.kernels[k], ref.kernels[k]);
  }
}

TEST(SegmentedSort, RejectsInvalidConfig) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  std::vector<std::vector<int>> segments{{3, 1, 2}};
  MergeConfig cfg = small_cfg();
  cfg.u = 12;  // not a multiple of the warp size (8)
  EXPECT_THROW(segmented_sort(launcher, segments, cfg), std::invalid_argument);
}
