// End-to-end tests of the full mergesort driver for both variants.
#include "sort/merge_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "gpusim/trace.hpp"
#include "workloads/generators.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;

namespace {
std::vector<int> rand_vec(std::mt19937_64& rng, std::int64_t n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<int>(rng() % 1000000) - 500000;
  return v;
}
}  // namespace

struct SortCase {
  int w, e, u;
  std::int64_t n;
  Variant variant;
};

class MergeSortCases : public ::testing::TestWithParam<SortCase> {};

TEST_P(MergeSortCases, SortsCorrectly) {
  const SortCase c = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(c.n) * 31 + c.e);
  std::vector<int> data = rand_vec(rng, c.n);
  std::vector<int> expect = data;
  std::sort(expect.begin(), expect.end());

  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(c.w));
  MergeConfig cfg;
  cfg.e = c.e;
  cfg.u = c.u;
  cfg.variant = c.variant;
  const SortReport report = merge_sort(launcher, data, cfg);
  EXPECT_EQ(data, expect);
  EXPECT_EQ(report.n, c.n);
  EXPECT_GT(report.microseconds, 0.0);
}

namespace {
std::vector<SortCase> sort_cases() {
  std::vector<SortCase> cases;
  for (const Variant v : {Variant::Baseline, Variant::CFMerge}) {
    // Exact tile multiple, power-of-two tiles.
    cases.push_back({8, 5, 16, 16 * 5 * 8, v});
    // Non-coprime E.
    cases.push_back({8, 6, 16, 16 * 6 * 4, v});
    // Single tile (no merge pass at all).
    cases.push_back({8, 5, 16, 16 * 5, v});
    // Ragged n (padding path) and non-power-of-two tile counts.
    cases.push_back({8, 5, 16, 16 * 5 * 3 + 7, v});
    cases.push_back({8, 7, 16, 1000, v});
    // Tiny n (smaller than one tile).
    cases.push_back({8, 5, 16, 3, v});
    // w = 32 with the paper's E values (scaled-down u).
    cases.push_back({32, 15, 64, 64 * 15 * 4, v});
    cases.push_back({32, 17, 64, 64 * 17 * 2 + 11, v});
  }
  return cases;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Shapes, MergeSortCases, ::testing::ValuesIn(sort_cases()),
                         [](const ::testing::TestParamInfo<SortCase>& info) {
                           const auto& c = info.param;
                           return std::string(c.variant == Variant::Baseline ? "base" : "cf") +
                                  "_w" + std::to_string(c.w) + "_E" + std::to_string(c.e) +
                                  "_u" + std::to_string(c.u) + "_n" + std::to_string(c.n);
                         });

TEST(MergeSort, EmptyAndSingleton) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  std::vector<int> empty;
  const auto r0 = merge_sort(launcher, empty, cfg);
  EXPECT_EQ(r0.n, 0);
  std::vector<int> one{42};
  merge_sort(launcher, one, cfg);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(MergeSort, AllDistributionsSortCorrectly) {
  std::mt19937_64 rng(11);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  const std::int64_t n = 16 * 5 * 8;
  std::vector<std::vector<int>> inputs;
  std::vector<int> sorted(static_cast<std::size_t>(n));
  std::iota(sorted.begin(), sorted.end(), 0);
  inputs.push_back(sorted);
  auto rev = sorted;
  std::reverse(rev.begin(), rev.end());
  inputs.push_back(rev);
  inputs.push_back(std::vector<int>(static_cast<std::size_t>(n), 7));
  inputs.push_back(rand_vec(rng, n));
  for (const Variant v : {Variant::Baseline, Variant::CFMerge}) {
    cfg.variant = v;
    for (auto input : inputs) {
      auto expect = input;
      std::sort(expect.begin(), expect.end());
      merge_sort(launcher, input, cfg);
      EXPECT_EQ(input, expect);
    }
  }
}

TEST(MergeSort, CFMergeHasZeroMergeConflictsEndToEnd) {
  std::mt19937_64 rng(12);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  for (const int e : {5, 6, 8}) {  // coprime and non-coprime with w=8
    MergeConfig cfg;
    cfg.e = e;
    cfg.u = 16;
    cfg.variant = Variant::CFMerge;
    std::vector<int> data = rand_vec(rng, 16LL * e * 8);
    const SortReport report = merge_sort(launcher, data, cfg);
    std::uint64_t cf_gather_conflicts = 0;
    for (const auto& [name, c] : report.phases.phases())
      if (name == "merge.merge") cf_gather_conflicts += c.bank_conflicts;
    EXPECT_EQ(cf_gather_conflicts, 0u) << "E=" << e;
  }
}

TEST(MergeSort, BaselineMergeConflictsNonzeroOnRandom) {
  std::mt19937_64 rng(13);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = Variant::Baseline;
  std::vector<int> data = rand_vec(rng, 16LL * 5 * 16);
  const SortReport report = merge_sort(launcher, data, cfg);
  EXPECT_GT(report.merge_conflicts(), 0u);
}

TEST(MergeSort, ReportAccountsAllKernels) {
  std::mt19937_64 rng(14);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  std::vector<int> data = rand_vec(rng, 16LL * 5 * 8);  // 8 tiles -> 3 passes
  const SortReport report = merge_sort(launcher, data, cfg);
  EXPECT_EQ(report.passes, 3);
  // 1 block_sort + passes * (partition + merge).
  EXPECT_EQ(report.kernels.size(), 1u + 3u * 2u);
  double total_us = 0.0;
  for (const auto& k : report.kernels) total_us += k.timing.microseconds;
  EXPECT_DOUBLE_EQ(total_us, report.microseconds);
  EXPECT_GT(report.throughput(), 0.0);
}

TEST(MergeSort, DeterministicAcrossRuns) {
  std::mt19937_64 rng(15);
  const std::vector<int> data = rand_vec(rng, 16LL * 5 * 4);
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  auto d1 = data;
  const auto r1 = merge_sort(launcher, d1, cfg);
  auto d2 = data;
  const auto r2 = merge_sort(launcher, d2, cfg);
  EXPECT_EQ(d1, d2);
  EXPECT_DOUBLE_EQ(r1.microseconds, r2.microseconds);
  EXPECT_EQ(r1.totals.bank_conflicts, r2.totals.bank_conflicts);
}

TEST(MergeSort, RejectsInvalidConfig) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  std::vector<int> data(100);
  MergeConfig cfg;
  cfg.e = 0;
  EXPECT_THROW(merge_sort(launcher, data, cfg), std::invalid_argument);
  cfg.e = 5;
  cfg.u = 12;  // not a multiple of w=8
  EXPECT_THROW(merge_sort(launcher, data, cfg), std::invalid_argument);
}

TEST(MergeSort, CfBlocksortExtensionSortsAndCutsConflicts) {
  // Extension: the dual gather applied inside the block-sort rounds whose
  // pairs span full warps.  Must still sort, and must reduce the (shared)
  // block-sort merge conflicts.
  std::mt19937_64 rng(21);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  for (const int e : {5, 6}) {
    MergeConfig cfg;
    cfg.e = e;
    cfg.u = 64;  // pairs reach >= w = 8 threads from round 2 on
    cfg.variant = Variant::CFMerge;
    std::vector<int> data = rand_vec(rng, 64LL * e * 4);
    std::vector<int> expect = data;
    std::sort(expect.begin(), expect.end());

    cfg.cf_blocksort = false;
    auto plain_in = data;
    const auto plain = merge_sort(launcher, plain_in, cfg);
    cfg.cf_blocksort = true;
    auto cf_in = data;
    const auto cf = merge_sort(launcher, cf_in, cfg);

    EXPECT_EQ(plain_in, expect);
    EXPECT_EQ(cf_in, expect);
    std::uint64_t plain_bsort = 0, cf_bsort = 0;
    for (const auto& [name, c] : plain.phases.phases())
      if (name == "bsort.merge") plain_bsort = c.bank_conflicts;
    for (const auto& [name, c] : cf.phases.phases())
      if (name == "bsort.merge") cf_bsort = c.bank_conflicts;
    EXPECT_LT(cf_bsort, plain_bsort) << "E=" << e;
  }
}

TEST(MergeSort, CfBlocksortSearchIsConflictFreeOnceTheTileIsReLaid) {
  // With cf_blocksort, the block sort's rounds whose pairs span a warp run
  // as CF cascade levels, after one re-layout per tile: every bsort.search
  // row a block issues after its first bsort.cf_permute row is a lattice
  // search row, bank conflict free on every input (the serial rounds before
  // it keep Thrust's conflicting search).
  struct Shape {
    int w, e, u;
  };
  for (const Shape sh :
       {Shape{32, 15, 128}, Shape{32, 16, 128}, Shape{8, 5, 64}, Shape{8, 6, 64}}) {
    gpusim::Launcher launcher(sh.w == 32 ? gpusim::DeviceSpec::scaled_turing(2)
                                         : gpusim::DeviceSpec::tiny(8));
    SortEngine engine(launcher);
    gpusim::TraceSink sink;
    launcher.set_trace(&sink);
    const std::int64_t full = 4LL * sh.u * sh.e;
    for (const std::int64_t n : {full, full - sh.u * sh.e / 3 - 7}) {
      for (const auto dist : {workloads::Distribution::UniformRandom,
                              workloads::Distribution::WorstCase,
                              workloads::Distribution::FewDistinct}) {
        workloads::WorkloadSpec spec{dist, full, 91, sh.w, sh.e, sh.u};
        std::vector<std::int32_t> input = workloads::generate(spec);
        input.resize(static_cast<std::size_t>(n));
        std::vector<std::int32_t> expect = input;
        std::sort(expect.begin(), expect.end());
        for (const int k : {2, 4}) {
          SCOPED_TRACE("w=" + std::to_string(sh.w) + " E=" + std::to_string(sh.e) +
                       " n=" + std::to_string(n) + " dist=" +
                       workloads::distribution_name(dist) + " k=" + std::to_string(k));
          std::vector<std::int32_t> data = input;
          sink.clear();
          if (k == 2) {
            MergeConfig cfg;
            cfg.e = sh.e;
            cfg.u = sh.u;
            cfg.cf_blocksort = true;
            engine.sort(data, cfg);
          } else {
            MultiwayConfig cfg;
            cfg.e = sh.e;
            cfg.u = sh.u;
            cfg.k = k;
            cfg.cf_blocksort = true;
            engine.sort_multiway(data, cfg);
          }
          EXPECT_EQ(data, expect);
          // The bsort.* phases run in the block_sort kernel alone.
          const auto& names = sink.phase_names();
          std::set<std::int32_t> relaid;
          std::int64_t after = 0;
          for (const gpusim::TraceEvent& ev : sink.events()) {
            const std::string& phase = names[static_cast<std::size_t>(ev.phase_id)];
            if (phase == "bsort.cf_permute") relaid.insert(ev.block);
            if (phase != "bsort.search" || relaid.count(ev.block) == 0) continue;
            ++after;
            EXPECT_EQ(ev.cost, 0) << "block " << ev.block << " warp " << ev.warp;
          }
          const std::int64_t tiles = (n + sh.u * sh.e - 1) / (sh.u * sh.e);
          EXPECT_EQ(static_cast<std::int64_t>(relaid.size()), tiles);
          EXPECT_GT(after, 0);
        }
      }
    }
  }
}

TEST(MergeSort, CfBlocksortKeepsOneTileAndItsOccupancy) {
  std::mt19937_64 rng(22);
  gpusim::Launcher launcher(gpusim::DeviceSpec::rtx2080ti());
  MergeConfig cfg;
  cfg.e = 15;
  cfg.u = 512;
  cfg.variant = Variant::CFMerge;
  cfg.cf_blocksort = true;
  std::vector<int> data = rand_vec(rng, 512LL * 15 * 2);
  const auto report = merge_sort(launcher, data, cfg);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  for (const auto& k : report.kernels)
    if (k.name == "block_sort") {
      // The CF rounds re-lay the tile in place: the footprint and the two
      // resident blocks of the plain block sort.
      EXPECT_EQ(k.timing.occupancy.blocks_per_sm, 2);
      EXPECT_EQ(k.shape.shared_bytes_per_block, 512ull * 15 * sizeof(int));
    }
}

TEST(MergeSort, SortsOtherKeyTypes) {
  std::mt19937_64 rng(16);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  std::vector<float> f(16 * 5 * 4);
  for (auto& x : f) x = static_cast<float>(rng() % 10000) / 7.0f;
  auto fe = f;
  std::sort(fe.begin(), fe.end());
  merge_sort(launcher, f, cfg);
  EXPECT_EQ(f, fe);

  std::vector<std::int64_t> l(16 * 5 * 4);
  for (auto& x : l) x = static_cast<std::int64_t>(rng()) % 1000000;
  auto le = l;
  std::sort(le.begin(), le.end());
  merge_sort(launcher, l, cfg);
  EXPECT_EQ(l, le);

  std::vector<std::uint32_t> usd(16 * 5 * 4);
  for (auto& x : usd) x = static_cast<std::uint32_t>(rng());
  auto ue = usd;
  std::sort(ue.begin(), ue.end());
  merge_sort(launcher, usd, cfg);
  EXPECT_EQ(usd, ue);
}

// ---------------------------------------------------------------------------
// Parallel block executor: every sort shape/variant must produce a report
// bit-identical to the sequential executor (counters, per-phase breakdown,
// simulated time) and the same sorted output.
// ---------------------------------------------------------------------------

class MergeSortParallelCases : public ::testing::TestWithParam<SortCase> {};

TEST_P(MergeSortParallelCases, ParallelReportBitIdenticalToSequential) {
  const SortCase c = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(c.n) * 31 + c.e);
  const std::vector<int> input = rand_vec(rng, c.n);
  MergeConfig cfg;
  cfg.e = c.e;
  cfg.u = c.u;
  cfg.variant = c.variant;

  gpusim::Launcher seq(gpusim::DeviceSpec::tiny(c.w));
  seq.set_threads(1);
  std::vector<int> seq_data = input;
  const SortReport ref = merge_sort(seq, seq_data, cfg);

  for (const int threads : {2, 4}) {
    gpusim::Launcher par(gpusim::DeviceSpec::tiny(c.w));
    par.set_threads(threads);
    std::vector<int> par_data = input;
    const SortReport r = merge_sort(par, par_data, cfg);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(par_data, seq_data);
    EXPECT_EQ(r.totals, ref.totals);
    EXPECT_EQ(r.phases, ref.phases);
    EXPECT_EQ(r.passes, ref.passes);
    EXPECT_EQ(r.microseconds, ref.microseconds);  // exact
    ASSERT_EQ(r.kernels.size(), ref.kernels.size());
    for (std::size_t k = 0; k < r.kernels.size(); ++k) {
      EXPECT_EQ(r.kernels[k].counters, ref.kernels[k].counters);
      EXPECT_EQ(r.kernels[k].mean_block_chain, ref.kernels[k].mean_block_chain);
      EXPECT_EQ(r.kernels[k].timing.cycles, ref.kernels[k].timing.cycles);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MergeSortParallelCases,
                         ::testing::ValuesIn(sort_cases()),
                         [](const ::testing::TestParamInfo<SortCase>& info) {
                           const auto& c = info.param;
                           return std::string(c.variant == Variant::Baseline ? "base" : "cf") +
                                  "_w" + std::to_string(c.w) + "_E" + std::to_string(c.e) +
                                  "_u" + std::to_string(c.u) + "_n" + std::to_string(c.n);
                         });
