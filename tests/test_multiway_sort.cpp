// End-to-end tests of the k-way multiway mergesort: std::sort oracle over
// both merge variants, pass-count arithmetic, key-value payloads, and
// bit-identical replay across host worker counts.
// The k-way selection (partition kernel, LoserTree thread co-ranks) is
// checked against the mergepath::multiway_path host oracle, and its
// simulated cost against the 2-way partition.
#include "sort/multiway_pass.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "mergepath/multiway_path.hpp"
#include "sort/engine.hpp"
#include "sort/merge_sort.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;
using gpusim::BlockContext;
using gpusim::DeviceSpec;
using gpusim::Launcher;

namespace {

std::vector<int> rand_vec(std::mt19937_64& rng, std::int64_t n, int range = 1000000) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (auto& x : v)
    x = static_cast<int>(rng() % static_cast<std::uint64_t>(range)) - range / 2;
  return v;
}

int expected_passes(std::int64_t n, std::int64_t tile, int k) {
  const std::int64_t n_padded = (n + tile - 1) / tile * tile;
  int passes = 0;
  for (std::int64_t run = tile; run < n_padded; run *= k) ++passes;
  return passes;
}

}  // namespace

struct MultiwayCase {
  int w, e, u, k;
  std::int64_t n;
  MultiwayVariant variant;
};

class MultiwaySortCases : public ::testing::TestWithParam<MultiwayCase> {};

TEST_P(MultiwaySortCases, SortsCorrectly) {
  const MultiwayCase c = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(c.n) * 131 + c.e * 7 + c.k);
  std::vector<int> data = rand_vec(rng, c.n);
  std::vector<int> expect = data;
  std::sort(expect.begin(), expect.end());

  Launcher launcher(DeviceSpec::tiny(c.w));
  MultiwayConfig cfg;
  cfg.e = c.e;
  cfg.u = c.u;
  cfg.k = c.k;
  cfg.variant = c.variant;
  const SortReport report = merge_sort_multiway(launcher, data, cfg);
  ASSERT_EQ(data, expect);
  EXPECT_EQ(report.n, c.n);
  EXPECT_EQ(report.passes, expected_passes(c.n, cfg.tile(), c.k));
  EXPECT_GT(report.microseconds, 0.0);
}

namespace {
std::vector<MultiwayCase> multiway_cases() {
  std::vector<MultiwayCase> cases;
  for (const MultiwayVariant v :
       {MultiwayVariant::CFCascade, MultiwayVariant::LoserTree}) {
    for (const int k : {2, 4, 8}) {
      // Multiple of one tile; enough tiles for >= 2 global passes at k = 8.
      cases.push_back({8, 5, 16, k, 16 * 5 * 64, v});
      // Ragged n (padding path), non-coprime E.
      cases.push_back({8, 6, 16, k, 16 * 6 * 9 + 13, v});
      // Single tile: no merge pass at all.
      cases.push_back({8, 5, 16, k, 16 * 5, v});
      // Tiny n (one partial tile).
      cases.push_back({8, 5, 16, k, 7, v});
    }
    // w = 32 with a paper-like E, scaled down.
    cases.push_back({32, 15, 64, 4, 64 * 15 * 16, v});
  }
  // Non-power-of-two arity is LoserTree-only.
  cases.push_back({8, 5, 16, 3, 16 * 5 * 27 + 5, MultiwayVariant::LoserTree});
  return cases;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiwaySortCases, ::testing::ValuesIn(multiway_cases()),
    [](const ::testing::TestParamInfo<MultiwayCase>& info) {
      const auto& c = info.param;
      return std::string(c.variant == MultiwayVariant::CFCascade ? "cascade" : "loser") +
             "_w" + std::to_string(c.w) + "_E" + std::to_string(c.e) + "_k" +
             std::to_string(c.k) + "_n" + std::to_string(c.n);
    });

TEST(MultiwaySort, HeavyDuplicatesSortCorrectly) {
  std::mt19937_64 rng(77);
  for (const MultiwayVariant v :
       {MultiwayVariant::CFCascade, MultiwayVariant::LoserTree}) {
    std::vector<int> data = rand_vec(rng, 16 * 5 * 32 + 9, /*range=*/7);
    std::vector<int> expect = data;
    std::sort(expect.begin(), expect.end());
    Launcher launcher(DeviceSpec::tiny(8));
    MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = 4;
    cfg.variant = v;
    merge_sort_multiway(launcher, data, cfg);
    EXPECT_EQ(data, expect);
  }
}

TEST(MultiwaySort, CascadeMergePhaseIsConflictFreeLoserTreeIsNot) {
  std::mt19937_64 rng(99);
  std::vector<int> input = rand_vec(rng, 16 * 5 * 64);

  auto run = [&](MultiwayVariant v) {
    std::vector<int> data = input;
    Launcher launcher(DeviceSpec::tiny(8));
    MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = 4;
    cfg.variant = v;
    return merge_sort_multiway(launcher, data, cfg);
  };
  const SortReport cascade = run(MultiwayVariant::CFCascade);
  const SortReport loser = run(MultiwayVariant::LoserTree);

  // The cascade's loads, gather rounds and rank scatters are the proven CF
  // schedule: zero conflicts outside the (data-dependent, both-variant)
  // merge.search co-rank probes.  The loser tree's data-dependent head
  // replacement gathers conflict — that is the point of the baseline.
  auto phase_conflicts = [](const SortReport& r, const char* name) {
    std::uint64_t sum = 0;
    for (const auto& [phase, counters] : r.phases.phases())
      if (phase == name) sum += counters.bank_conflicts;
    return sum;
  };
  EXPECT_EQ(phase_conflicts(cascade, "merge.load"), 0u);
  EXPECT_EQ(phase_conflicts(cascade, "merge.merge"), 0u);
  EXPECT_EQ(phase_conflicts(cascade, "merge.store"), 0u);
  EXPECT_GT(phase_conflicts(loser, "merge.merge"), 0u);
}

TEST(MultiwaySort, MatchesPairwiseSortOutputBitIdentically) {
  std::mt19937_64 rng(123);
  std::vector<int> input = rand_vec(rng, 16 * 5 * 32 + 3);

  std::vector<int> pairwise = input;
  {
    Launcher launcher(DeviceSpec::tiny(8));
    MergeConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.variant = Variant::CFMerge;
    merge_sort(launcher, pairwise, cfg);
  }
  for (const int k : {2, 4, 8}) {
    std::vector<int> data = input;
    Launcher launcher(DeviceSpec::tiny(8));
    MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = k;
    merge_sort_multiway(launcher, data, cfg);
    EXPECT_EQ(data, pairwise) << "k=" << k;
  }
}

TEST(MultiwaySort, KeyValuePayloadsFollowTheirKeys) {
  std::mt19937_64 rng(31);
  const std::int64_t n = 16 * 5 * 24 + 11;
  // Distinct keys give a unique sorted order for the payload check (and stay
  // clear of the numeric-limits padding sentinel).
  std::vector<int> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), -1000);
  std::shuffle(keys.begin(), keys.end(), rng);
  std::vector<long long> values(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    values[i] = static_cast<long long>(keys[i]) * 3 + 1;

  for (const MultiwayVariant v :
       {MultiwayVariant::CFCascade, MultiwayVariant::LoserTree}) {
    auto k2 = keys;
    auto v2 = values;
    Launcher launcher(DeviceSpec::tiny(8));
    MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = 4;
    cfg.variant = v;
    merge_sort_multiway_by_key(launcher, k2, v2, cfg);
    EXPECT_TRUE(std::is_sorted(k2.begin(), k2.end()));
    for (std::size_t i = 0; i < k2.size(); ++i)
      ASSERT_EQ(v2[i], static_cast<long long>(k2[i]) * 3 + 1) << "i=" << i;
  }
}

TEST(MultiwaySort, BitIdenticalAcrossThreadCounts) {
  std::mt19937_64 rng(55);
  const std::vector<int> input = rand_vec(rng, 16 * 5 * 16 + 7);

  Launcher ref_launcher(DeviceSpec::tiny(8));
  ref_launcher.set_threads(1);
  SortEngine ref_engine(ref_launcher);
  MultiwayConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.k = 4;
  auto ref_data = input;
  const SortReport ref = ref_engine.sort_multiway(ref_data, cfg);
  EXPECT_TRUE(std::is_sorted(ref_data.begin(), ref_data.end()));

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    SortEngine engine(launcher);
    auto cold = input;
    const SortReport cold_rep = engine.sort_multiway(cold, cfg);
    auto warm = input;
    const SortReport warm_rep = engine.sort_multiway(warm, cfg);  // replay
    EXPECT_EQ(engine.stats().plan_hits, 1u);
    EXPECT_EQ(cold, ref_data);
    EXPECT_EQ(warm, ref_data);
    for (const SortReport* rep : {&cold_rep, &warm_rep}) {
      EXPECT_EQ(rep->passes, ref.passes);
      EXPECT_EQ(rep->totals.bank_conflicts, ref.totals.bank_conflicts);
      EXPECT_EQ(rep->totals.shared_accesses, ref.totals.shared_accesses);
      EXPECT_EQ(rep->totals.warp_instructions, ref.totals.warp_instructions);
      EXPECT_DOUBLE_EQ(rep->microseconds, ref.microseconds);
    }
  }
}

TEST(MultiwaySort, PlanCacheKeysDistinguishArityAndVariant) {
  std::mt19937_64 rng(88);
  const std::vector<int> input = rand_vec(rng, 16 * 5 * 8);
  Launcher launcher(DeviceSpec::tiny(8));
  SortEngine engine(launcher);
  MultiwayConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  for (const int k : {2, 4}) {
    for (const MultiwayVariant v :
         {MultiwayVariant::CFCascade, MultiwayVariant::LoserTree}) {
      cfg.k = k;
      cfg.variant = v;
      auto data = input;
      engine.sort_multiway(data, cfg);
      EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
    }
  }
  // Four distinct (k, variant) digests: all cold builds, no false hits.
  EXPECT_EQ(engine.stats().plan_hits, 0u);
  EXPECT_EQ(engine.stats().plan_misses, 4u);
}

TEST(MultiwaySort, EmptySingletonAndInvalidConfigs) {
  Launcher launcher(DeviceSpec::tiny(8));
  MultiwayConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.k = 4;
  std::vector<int> empty;
  EXPECT_EQ(merge_sort_multiway(launcher, empty, cfg).n, 0);
  std::vector<int> one{42};
  merge_sort_multiway(launcher, one, cfg);
  EXPECT_EQ(one, std::vector<int>{42});

  std::vector<int> data{3, 1, 2};
  MultiwayConfig bad = cfg;
  bad.k = 3;  // CFCascade needs a power of two
  EXPECT_THROW((void)merge_sort_multiway(launcher, data, bad), std::invalid_argument);
  bad = cfg;
  bad.k = 1;
  EXPECT_THROW((void)merge_sort_multiway(launcher, data, bad), std::invalid_argument);
  bad = cfg;
  bad.k = 32;  // > kMaxMultiwayK
  EXPECT_THROW((void)merge_sort_multiway(launcher, data, bad), std::invalid_argument);
  bad = cfg;
  bad.u = 12;  // not a warp multiple
  EXPECT_THROW((void)merge_sort_multiway(launcher, data, bad), std::invalid_argument);
}

namespace {

enum class Fill { AllEqual, ThreeValue, Sorted, Reversed };
constexpr Fill kFills[] = {Fill::AllEqual, Fill::ThreeValue, Fill::Sorted, Fill::Reversed};

/// n keys whose runs of `run` elements are each sorted.
std::vector<int> sorted_runs(std::mt19937_64& rng, std::int64_t n, std::int64_t run,
                             Fill fill) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    int& x = v[static_cast<std::size_t>(i)];
    switch (fill) {
      case Fill::AllEqual: x = 7; break;
      case Fill::ThreeValue: x = static_cast<int>(rng() % 3); break;
      case Fill::Sorted: x = static_cast<int>(i); break;
      case Fill::Reversed: x = static_cast<int>(n - i); break;
    }
  }
  for (std::int64_t b = 0; b < n; b += run)
    std::sort(v.begin() + b, v.begin() + std::min(b + run, n));
  return v;
}

/// Host oracle for one co-rank vector of a pass over `n` elements in
/// sorted runs of `run`: output position `pos` lies in the group of k runs
/// at base = ⌊pos / (k·run)⌋·k·run, whose sequence s starts at base + s·run
/// and holds clamp(n − base − s·run, 0, run) elements.
std::vector<std::int64_t> oracle_row(std::span<const int> input, std::int64_t n,
                                     std::int64_t run, int k, std::int64_t pos) {
  const std::int64_t base = pos / (k * run) * (k * run);
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s)
    sizes[static_cast<std::size_t>(s)] = std::clamp<std::int64_t>(n - base - s * run, 0, run);
  return mergepath::multiway_path<int>(
      pos - base, std::span<const std::int64_t>(sizes),
      [&](int s, std::int64_t i) { return input[static_cast<std::size_t>(base + s * run + i)]; },
      std::less<int>{});
}

}  // namespace

TEST(MultiwayPartition, KernelBoundariesMatchMultiwayPathOracle) {
  std::mt19937_64 rng(2024);
  for (const DeviceSpec& dev :
       {DeviceSpec::tiny(4), DeviceSpec::tiny(8), DeviceSpec::scaled_turing(4)}) {
    const int w = dev.warp_size;
    for (const int k : {2, 3, 4, 5, 8, 16}) {
      for (const auto& [tile, run] : {std::pair<std::int64_t, std::int64_t>{4, 12}, {8, 64}}) {
        // Two full groups, then a ragged one: a full segment, a one-tile
        // segment and k - 2 empty ones.
        const std::int64_t n = 2 * k * run + run + tile;
        std::vector<detail::BatchTile> tiles;
        detail::add_run_group_tiles(tiles, 0, n, run, k, tile);
        const auto nb = static_cast<std::int64_t>(tiles.size());
        ASSERT_EQ(nb, n / tile);
        for (const Fill fill : kFills) {
          SCOPED_TRACE("w=" + std::to_string(w) + " k=" + std::to_string(k) +
                       " run=" + std::to_string(run) + " fill=" +
                       std::to_string(static_cast<int>(fill)));
          const std::vector<int> input = sorted_runs(rng, n, run, fill);
          std::vector<std::int64_t> boundaries(static_cast<std::size_t>(nb * k), -1);
          const int u = 2 * w;
          const std::int64_t rows_per_block = 2 * selections_per_warp(w, k);
          MultiwayConfig mcfg;
          mcfg.k = k;
          Launcher launcher(dev);
          launcher.launch("multiway_partition",
                          gpusim::LaunchShape{static_cast<int>((nb + rows_per_block - 1) /
                                                               rows_per_block),
                                              u, 0, cost::kPartitionRegsPerThread},
                          [&](BlockContext& ctx) {
                            gpusim::GlobalView<const int> g(ctx, std::span<const int>(input), 0);
                            partition_search<int>(
                                ctx, g, std::span<const detail::BatchTile>(tiles), 0,
                                std::span<std::int64_t>(boundaries), mcfg, std::less<int>{});
                          });
          for (std::int64_t t = 0; t < nb; ++t) {
            const auto want = oracle_row(input, n, run, k, t * tile);
            const std::vector<std::int64_t> got(boundaries.begin() + t * k,
                                                boundaries.begin() + (t + 1) * k);
            ASSERT_EQ(got, want) << "row " << t;
          }
        }
      }
    }
  }
}

TEST(MultiwayPartition, SelectionHandlesEmptySequencesAndBothEndDiagonals) {
  // Queries straight through the warp selection: ragged and empty
  // sequences, diagonals 0 and total among random ones, k > w included.
  std::mt19937_64 rng(7);
  for (const DeviceSpec& dev : {DeviceSpec::tiny(4), DeviceSpec::tiny(8)}) {
    const int w = dev.warp_size;
    for (const int k : {2, 3, 5, 8, 16}) {
      for (int trial = 0; trial < 40; ++trial) {
        const int queries = selections_per_warp(w, k);
        std::vector<int> data;
        std::vector<std::int64_t> len(static_cast<std::size_t>(queries * k));
        std::vector<std::int64_t> start(len.size()), diag(static_cast<std::size_t>(queries));
        for (int q = 0; q < queries; ++q) {
          std::int64_t total = 0;
          for (int s = 0; s < k; ++s) {
            const auto f = static_cast<std::size_t>(q * k + s);
            len[f] = rng() % 4 == 0 ? 0 : static_cast<std::int64_t>(rng() % 40);
            start[f] = static_cast<std::int64_t>(data.size());
            for (std::int64_t i = 0; i < len[f]; ++i)
              data.push_back(static_cast<int>(rng() % (trial % 2 == 0 ? 3 : 1000)));
            std::sort(data.begin() + start[f], data.end());
            total += len[f];
          }
          const int pick = (trial + q) % 3;
          diag[static_cast<std::size_t>(q)] =
              pick == 0 ? 0
                        : pick == 1 ? total
                                    : static_cast<std::int64_t>(
                                          rng() % static_cast<std::uint64_t>(total + 1));
        }
        std::vector<std::int64_t> co(len.size(), -1);
        Launcher launcher(dev);
        launcher.launch("select", gpusim::LaunchShape{1, w, 0, cost::kPartitionRegsPerThread},
                        [&](BlockContext& ctx) {
                          gpusim::GlobalView<const int> g(ctx, std::span<const int>(data), 0);
                          detail::warp_multiseq_select<int>(
                              ctx, 0, k, queries, std::span<const std::int64_t>(start),
                              std::span<const std::int64_t>(len),
                              std::span<const std::int64_t>(diag),
                              [&](std::span<const std::int64_t> addrs, std::span<int> vals,
                                  bool dependent) { g.gather(0, addrs, vals, dependent); },
                              std::less<int>{}, std::span<std::int64_t>(co));
                        });
        for (int q = 0; q < queries; ++q) {
          const auto first = static_cast<std::ptrdiff_t>(q * k);
          const std::vector<std::int64_t> want = mergepath::multiway_path<int>(
              diag[static_cast<std::size_t>(q)],
              std::span<const std::int64_t>(len).subspan(static_cast<std::size_t>(first),
                                                         static_cast<std::size_t>(k)),
              [&](int s, std::int64_t i) {
                const std::int64_t at = start[static_cast<std::size_t>(first + s)] + i;
                return data[static_cast<std::size_t>(at)];
              },
              std::less<int>{});
          const std::vector<std::int64_t> got(co.begin() + first, co.begin() + first + k);
          ASSERT_EQ(got, want) << "w=" << w << " k=" << k << " trial=" << trial << " q=" << q;
        }
      }
    }
  }
}

TEST(MultiwayPartition, LoserTreeThreadCoranksMatchOracle) {
  std::mt19937_64 rng(11);
  for (const DeviceSpec& dev : {DeviceSpec::tiny(4), DeviceSpec::tiny(8)}) {
    const int w = dev.warp_size;
    const int u = 4 * w;
    const int e = 3;
    const std::int64_t tile = static_cast<std::int64_t>(u) * e;
    for (const int k : {2, 3, 4, 5, 8, 16}) {
      for (const Fill fill : kFills) {
        // Random cut of the tile into k windows, some of them empty.
        std::vector<std::int64_t> cuts{0, tile};
        for (int s = 0; s + 1 < k; ++s)
          cuts.push_back(
              static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(tile + 1)));
        std::sort(cuts.begin(), cuts.end());
        std::vector<std::int64_t> off(static_cast<std::size_t>(k)), len(off.size());
        for (int s = 0; s < k; ++s) {
          off[static_cast<std::size_t>(s)] = cuts[static_cast<std::size_t>(s)];
          len[static_cast<std::size_t>(s)] =
              cuts[static_cast<std::size_t>(s + 1)] - cuts[static_cast<std::size_t>(s)];
        }
        std::vector<int> data = sorted_runs(rng, tile, tile, fill);
        if (fill != Fill::AllEqual) std::shuffle(data.begin(), data.end(), rng);
        for (std::size_t s = 0; s < off.size(); ++s)
          std::sort(data.begin() + off[s], data.begin() + off[s] + len[s]);
        std::vector<std::int64_t> co;
        Launcher launcher(dev);
        launcher.launch("losertree_search", gpusim::LaunchShape{1, u, 0, 32},
                        [&](BlockContext& ctx) {
                          gpusim::SharedTile<int> sh(ctx, static_cast<std::size_t>(tile));
                          std::copy(data.begin(), data.end(), sh.raw().begin());
                          co = multiway_thread_coranks<int>(
                              ctx, sh, std::span<const std::int64_t>(off),
                              std::span<const std::int64_t>(len), e, std::less<int>{});
                        });
        ASSERT_EQ(co.size(), static_cast<std::size_t>(u * k));
        for (int i = 0; i < u; ++i) {
          const std::vector<std::int64_t> want = mergepath::multiway_path<int>(
              static_cast<std::int64_t>(i) * e, std::span<const std::int64_t>(len),
              [&](int s, std::int64_t x) {
                return data[static_cast<std::size_t>(off[static_cast<std::size_t>(s)] + x)];
              },
              std::less<int>{});
          const std::vector<std::int64_t> got(co.begin() + i * k, co.begin() + (i + 1) * k);
          ASSERT_EQ(got, want) << "w=" << w << " k=" << k << " thread " << i;
        }
      }
    }
  }
}

TEST(MultiwayPartition, CostsAtMostThreeTimesTheTwoWayPartition) {
  // The perfbench mixed_small multiway shape: k = 4 cascade, E = 15,
  // u = 256, n = 50000 on the 4-SM Turing preset.  Simulated time is
  // deterministic, so the bound cannot flake.
  std::mt19937_64 rng(5);
  const std::vector<int> input = rand_vec(rng, 50000);
  const auto kernel_us = [](const SortReport& r, const std::string& name) {
    double us = 0.0;
    for (const gpusim::KernelReport& kr : r.kernels)
      if (kr.name == name) us += kr.timing.microseconds;
    return us;
  };

  Launcher launcher(DeviceSpec::scaled_turing(4));
  MultiwayConfig mcfg;
  mcfg.e = 15;
  mcfg.u = 256;
  mcfg.k = 4;
  auto kway = input;
  const double multiway_us =
      kernel_us(merge_sort_multiway(launcher, kway, mcfg), "multiway_partition");
  MergeConfig cfg;
  cfg.e = 15;
  cfg.u = 256;
  cfg.variant = Variant::CFMerge;
  auto pairwise = input;
  const double pairwise_us = kernel_us(merge_sort(launcher, pairwise, cfg), "merge_partition");
  EXPECT_EQ(kway, pairwise);
  ASSERT_GT(pairwise_us, 0.0);
  EXPECT_LE(multiway_us, 3.0 * pairwise_us)
      << "multiway_partition " << multiway_us << " us vs merge_partition " << pairwise_us;
}

namespace {

const gpusim::Counters& phase_of(const SortReport& r, const std::string& name) {
  for (const auto& [n, c] : r.phases.phases())
    if (n == name) return c;
  ADD_FAILURE() << "no phase " << name;
  static const gpusim::Counters none{};
  return none;
}

}  // namespace

TEST(MultiwayCascade, AtKEqualsTwoDoesTheTwoWayCfMerge) {
  // One cascade level is the 2-way dual-subsequence-gather schedule: the
  // k = 2 cascade stages, searches, merges and stores every tile as
  // merge_pass does (its root writes back through the 2-way store tail).
  // E = 16 on 32 lanes is the gcd(w, E) > 1 case.
  struct Shape {
    DeviceSpec dev;
    int e, u;
  };
  const Shape shapes[] = {{DeviceSpec::scaled_turing(4), 15, 256},
                          {DeviceSpec::scaled_turing(4), 16, 256},
                          {DeviceSpec::scaled_turing(4), 17, 256},
                          {DeviceSpec::scaled_turing(4), 15, 512},
                          {DeviceSpec::tiny(8, 2), 6, 16}};
  std::mt19937_64 rng(26);
  for (const Shape& s : shapes) {
    SCOPED_TRACE("w=" + std::to_string(s.dev.warp_size) + " E=" + std::to_string(s.e) +
                 " u=" + std::to_string(s.u));
    const std::int64_t tile = static_cast<std::int64_t>(s.e) * s.u;
    const std::vector<int> input = rand_vec(rng, 5 * tile + 77);
    Launcher launcher(s.dev);
    MergeConfig cfg;
    cfg.e = s.e;
    cfg.u = s.u;
    auto two_way = input;
    const SortReport cf = merge_sort(launcher, two_way, cfg);
    MultiwayConfig mcfg;
    mcfg.e = s.e;
    mcfg.u = s.u;
    mcfg.k = 2;
    auto cascade = input;
    const SortReport kw = merge_sort_multiway(launcher, cascade, mcfg);
    ASSERT_EQ(two_way, cascade);
    ASSERT_EQ(cf.passes, kw.passes);

    const gpusim::Counters& load_cf = phase_of(cf, "merge.load");
    const gpusim::Counters& load_kw = phase_of(kw, "merge.load");
    EXPECT_EQ(load_cf.shared_accesses, load_kw.shared_accesses);
    EXPECT_EQ(load_cf.bank_conflicts, load_kw.bank_conflicts);
    EXPECT_EQ(phase_of(cf, "merge.search"), phase_of(kw, "merge.search"));
    // The 2-way kernel counts its pre-store barrier in merge.merge, so the
    // barriers are left out.
    const gpusim::Counters& merge_cf = phase_of(cf, "merge.merge");
    const gpusim::Counters& merge_kw = phase_of(kw, "merge.merge");
    EXPECT_EQ(merge_cf.shared_accesses, merge_kw.shared_accesses);
    EXPECT_EQ(merge_cf.bank_conflicts, merge_kw.bank_conflicts);
    EXPECT_EQ(merge_cf.warp_instructions, merge_kw.warp_instructions);
    EXPECT_EQ(phase_of(cf, "merge.store"), phase_of(kw, "merge.store"));
  }
}
