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
// barrier counts of the CfBlocksort and CFCascade rows were re-captured
// when the cascade started merging each level in place (a barrier between
// a level's gathers and its scatters, and one before the root's store
// tail) and the CF block-sort rounds re-laid the tile in place (a barrier
// between the re-layout's reads and writes); every other counter is the
// earlier capture.  The
// two LoserTree rows (k = 3, not a power of two, and k = 8) were captured
// before the loser tree's replacement selection moved onto the shared
// sequential merge (sort::serial_merge_core), which must keep them.  Every
// row's instruction, shared-access, shared-cycle and conflict counters were
// re-captured when the merge-path split search moved to one search per
// thread (start co-ranks, a shuffle for the end co-ranks, a lone bracketed
// search for each warp's last lane); global-memory, barrier and merge-phase
// conflict counters are the earlier capture.  The five CF rows'
// (PairwiseCfMerge*, MultiwayK4*, MultiwayK8) instruction, shared-access,
// shared-cycle and conflict counters were re-captured when the CF tile
// merge moved to its conflict-free lattice split search; the baseline and
// LoserTree rows did not move.  The two CfBlocksort rows' instruction,
// shared-access, shared-cycle, conflict and barrier counters were
// re-captured when the CF block-sort rounds became the levels of one CF
// cascade (one re-layout per tile, the lattice search, a rank scatter per
// level); their global-memory counters did not move.
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
                {224148, 78513, 254009, 43874, 13162, 16137, 416800, 928, 0});
}

TEST(CfprimsGolden, PairwiseCfMergeCfBlocksort) {
  expect_golden(run_pairwise(sort::Variant::CFMerge, true, 8192),
                {265568, 81820, 173728, 22977, 13162, 16137, 416800, 992, 0});
}

TEST(CfprimsGolden, PairwiseBaseline) {
  expect_golden(run_pairwise(sort::Variant::Baseline, false, 8192),
                {190104, 76845, 386913, 77517, 13162, 16137, 416800, 928, 6159});
}

TEST(CfprimsGolden, MultiwayK4) {
  expect_golden(run_multiway(4, false, 8192),
                {258028, 78598, 254790, 44048, 9655, 12274, 289024, 928, 0});
}

TEST(CfprimsGolden, MultiwayK4CfBlocksort) {
  expect_golden(run_multiway(4, true, 8192),
                {299448, 81905, 174509, 23151, 9655, 12274, 289024, 992, 0});
}

TEST(CfprimsGolden, MultiwayK8) {
  expect_golden(run_multiway(8, false, 16384),
                {601116, 170848, 525084, 88559, 17939, 26802, 469148, 1792, 0});
}

TEST(CfprimsGolden, LoserTreeK3) {
  expect_golden(run_multiway(3, false, 8192, sort::MultiwayVariant::LoserTree),
                {580678, 102509, 380733, 69556, 12065, 14850, 357848, 832, 4578});
}

TEST(CfprimsGolden, LoserTreeK8) {
  expect_golden(run_multiway(8, false, 16384, sort::MultiwayVariant::LoserTree),
                {1855867, 243860, 890892, 161758, 17939, 26802, 469148, 1280, 568});
}
