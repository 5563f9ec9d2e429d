// Golden-counter pins for the sort pipelines that execute through the
// cfprims layer.  These six rows were captured from the pre-refactor
// open-coded kernels (commit 9241575, DeviceSpec::tiny(8,2), uniform
// workload, seed 42); re-pointing merge_pass / multiway_pass / block_sort /
// dual_gather onto cfprims::exec_* must keep every counter bit-identical.
// The three Multiway rows' instruction and global-memory counters were
// re-captured when the k-way partition kernel moved to the stride-halving
// selection; their shared-memory, barrier and conflict counters are the
// original capture.  The three Pairwise rows' global-memory counters were
// re-captured when merge_sort moved onto the one 2-way merge pass, whose
// partition warps fetch their tile descriptors (one dependent 8-byte read
// per warp); every other counter is the original capture.  The Multiway
// rows' instruction and shared counters were re-captured again when the
// cascade root moved onto the 2-way store tail (copy cadence, the first u
// threads' ranks only), and every row's global-memory counters when a
// group's last tile stopped reading the boundary row it never uses.  The
// two LoserTree rows (k = 3, not a power of two, and k = 8) were captured
// before the loser tree's replacement selection moved onto the shared
// sequential merge (sort::serial_merge_core), which must keep them.
//
// Timing (microseconds) is deliberately NOT pinned — it derives from the
// counters, and pinning integers keeps the test immune to float printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gpusim/launcher.hpp"
#include "sort/engine.hpp"
#include "workloads/generators.hpp"

using namespace cfmerge;

namespace {

/// One pinned pipeline run: the counter totals of the full report plus the
/// merge-phase conflict count (zero for every CF configuration).
struct Golden {
  std::uint64_t warp_instructions;
  std::uint64_t shared_accesses;
  std::uint64_t shared_cycles;
  std::uint64_t bank_conflicts;
  std::uint64_t gmem_requests;
  std::uint64_t gmem_transactions;
  std::uint64_t gmem_bytes;
  std::uint64_t barriers;
  std::uint64_t merge_conflicts;
};

std::vector<std::int32_t> uniform_input(std::int64_t n) {
  workloads::WorkloadSpec spec;
  spec.dist = workloads::Distribution::UniformRandom;
  spec.n = n;
  spec.seed = 42;
  spec.w = 8;
  spec.e = 4;
  spec.u = 64;
  return workloads::generate(spec);
}

void expect_golden(const sort::SortReport& report, const Golden& want) {
  EXPECT_EQ(report.totals.warp_instructions, want.warp_instructions);
  EXPECT_EQ(report.totals.shared_accesses, want.shared_accesses);
  EXPECT_EQ(report.totals.shared_cycles, want.shared_cycles);
  EXPECT_EQ(report.totals.bank_conflicts, want.bank_conflicts);
  EXPECT_EQ(report.totals.gmem_requests, want.gmem_requests);
  EXPECT_EQ(report.totals.gmem_transactions, want.gmem_transactions);
  EXPECT_EQ(report.totals.gmem_bytes, want.gmem_bytes);
  EXPECT_EQ(report.totals.barriers, want.barriers);
  EXPECT_EQ(report.merge_conflicts(), want.merge_conflicts);
}

sort::SortReport run_pairwise(sort::Variant variant, bool cf_blocksort,
                              std::int64_t n) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8, 2));
  sort::SortEngine engine(launcher);
  sort::MergeConfig cfg;
  cfg.e = 4;
  cfg.u = 64;
  cfg.variant = variant;
  cfg.cf_blocksort = cf_blocksort;
  auto data = uniform_input(n);
  const sort::SortReport report = engine.sort(data, cfg);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  return report;
}

sort::SortReport run_multiway(int k, bool cf_blocksort, std::int64_t n,
                              sort::MultiwayVariant variant = sort::MultiwayVariant::CFCascade) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8, 2));
  sort::SortEngine engine(launcher);
  sort::MultiwayConfig cfg;
  cfg.e = 4;
  cfg.u = 64;
  cfg.k = k;
  cfg.variant = variant;
  cfg.cf_blocksort = cf_blocksort;
  auto data = uniform_input(n);
  const sort::SortReport report = engine.sort_multiway(data, cfg);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  return report;
}

}  // namespace

TEST(CfprimsGolden, PairwiseCfMerge) {
  expect_golden(run_pairwise(sort::Variant::CFMerge, false, 8192),
                {259068, 97381, 422169, 81197, 13162, 16137, 416800, 928, 0});
}

TEST(CfprimsGolden, PairwiseCfMergeCfBlocksort) {
  expect_golden(run_pairwise(sort::Variant::CFMerge, true, 8192),
                {289788, 104554, 409866, 76328, 13162, 16137, 416800, 1056, 0});
}

TEST(CfprimsGolden, PairwiseBaseline) {
  expect_golden(run_pairwise(sort::Variant::Baseline, false, 8192),
                {230908, 98655, 500379, 100431, 13162, 16137, 416800, 928, 6159});
}

TEST(CfprimsGolden, MultiwayK4) {
  expect_golden(run_multiway(4, false, 8192),
                {293696, 98028, 416356, 79582, 9655, 12274, 289024, 736, 0});
}

TEST(CfprimsGolden, MultiwayK4CfBlocksort) {
  expect_golden(run_multiway(4, true, 8192),
                {324416, 105201, 404053, 74713, 9655, 12274, 289024, 864, 0});
}

TEST(CfprimsGolden, MultiwayK8) {
  expect_golden(run_multiway(8, false, 16384),
                {685530, 216502, 880826, 166081, 17939, 26802, 469148, 1408, 0});
}

TEST(CfprimsGolden, LoserTreeK3) {
  expect_golden(run_multiway(3, false, 8192, sort::MultiwayVariant::LoserTree),
                {601086, 113481, 435053, 80393, 12065, 14850, 357848, 832, 4578});
}

TEST(CfprimsGolden, LoserTreeK8) {
  expect_golden(run_multiway(8, false, 16384, sort::MultiwayVariant::LoserTree),
                {1896695, 265810, 999318, 183377, 17939, 26802, 469148, 1280, 568});
}
