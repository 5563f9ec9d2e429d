// Dual-path accounting oracle for the proof-guided bulk charging fast path.
//
// Every sort is simulated twice — once with DeviceSpec::bulk_charge enabled
// (the default: certified warp accesses are charged in closed form) and once
// with it disabled (every access walks the per-lane reference path) — and
// every observable must be bit-identical: the sorted output, every phase's
// Counters (operator== compares all fields), the simulated kernel timings,
// and the per-kernel dependency chains.  The sweep crosses warp widths
// 4..64, coprime and non-coprime E, the pairwise and k-way pipelines, both
// merge variants, ablations, and host worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "sort/engine.hpp"
#include "sort/merge_arrays.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;
using gpusim::DeviceSpec;
using gpusim::Launcher;

namespace {

std::vector<int> rand_vec(std::uint64_t seed, std::int64_t n) {
  std::mt19937_64 rng(seed);
  std::vector<int> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<int>(rng() % 2000003) - 1000001;
  return v;
}

/// Everything the simulator reports about one sort, bit-exact.
struct Observed {
  std::vector<int> data;
  gpusim::PhaseCounters phases;
  gpusim::Counters totals;
  double microseconds = 0.0;
  std::vector<double> mean_chains;
  std::vector<double> max_chains;
  std::uint64_t bulk_charges = 0;
  std::uint64_t lane_charges = 0;
};

/// The entry point a case drives.
enum class Entry { kSort, kPermute, kTranspose, kBatched, kMergeArrays };

struct BulkCase {
  int w = 8;
  int e = 5;
  int u = 16;
  int k = 0;  ///< 0 = pairwise pipeline, >= 2 = multiway
  std::int64_t n = 0;
  Variant variant = Variant::CFMerge;                       // pairwise only
  MultiwayVariant mvariant = MultiwayVariant::CFCascade;    // multiway only
  bool cf_blocksort = false;
  bool disable_rho = false;
  Entry entry = Entry::kSort;
  bool inverse = false;  ///< permute / transpose only
  std::string tag{};
};

MergeConfig merge_config(const BulkCase& c) {
  MergeConfig cfg;
  cfg.e = c.e;
  cfg.u = c.u;
  cfg.variant = c.variant;
  cfg.cf_blocksort = c.cf_blocksort;
  cfg.disable_rho = c.disable_rho;
  return cfg;
}

/// Splits `data` into `pairs` sorted list pairs of ragged lengths (A and B
/// take 1/3 and 2/3 of each share).
void split_pairs(const std::vector<int>& data, int pairs, std::vector<std::vector<int>>& as,
                 std::vector<std::vector<int>>& bs) {
  const auto share = static_cast<std::ptrdiff_t>(data.size()) / pairs;
  for (int p = 0; p < pairs; ++p) {
    const auto first = data.begin() + share * p;
    const auto last = p + 1 == pairs ? data.end() : first + share;
    const auto mid = first + (last - first) / 3;
    as.emplace_back(first, mid);
    bs.emplace_back(mid, last);
    std::sort(as.back().begin(), as.back().end());
    std::sort(bs.back().begin(), bs.back().end());
  }
}

Observed run_sort(const BulkCase& c, bool bulk, int threads, std::vector<int> data) {
  DeviceSpec dev = DeviceSpec::tiny(c.w);
  dev.bulk_charge = bulk;
  Launcher launcher(dev);
  launcher.set_threads(threads);
  SortEngine engine(launcher);

  Observed obs;
  const auto observe = [&obs](const auto& report) {
    obs.phases = report.phases;
    obs.totals = report.totals;
    obs.microseconds = report.microseconds;
    for (const gpusim::KernelReport& k : report.kernels) {
      obs.mean_chains.push_back(k.mean_block_chain);
      obs.max_chains.push_back(k.max_block_chain);
    }
  };
  switch (c.entry) {
    case Entry::kSort:
      if (c.k == 0) {
        observe(engine.sort(data, merge_config(c)));
      } else {
        MultiwayConfig cfg;
        cfg.e = c.e;
        cfg.u = c.u;
        cfg.k = c.k;
        cfg.variant = c.mvariant;
        cfg.cf_blocksort = c.cf_blocksort;
        observe(engine.sort_multiway(data, cfg));
      }
      break;
    case Entry::kPermute:
    case Entry::kTranspose: {
      cfprims::PermuteConfig cfg;
      cfg.op = c.entry == Entry::kPermute ? cfprims::PermuteOp::kPermute
                                          : cfprims::PermuteOp::kTranspose;
      cfg.e = c.e;
      cfg.u = c.u;
      cfg.inverse = c.inverse;
      observe(engine.permute(data, cfg));
      break;
    }
    case Entry::kBatched: {
      std::vector<std::vector<int>> as;
      std::vector<std::vector<int>> bs;
      std::vector<std::vector<int>> outs;
      split_pairs(data, 3, as, bs);
      observe(engine.batched_merge(as, bs, outs, merge_config(c)));
      data.clear();
      for (const auto& o : outs) data.insert(data.end(), o.begin(), o.end());
      break;
    }
    case Entry::kMergeArrays: {
      std::vector<std::vector<int>> as;
      std::vector<std::vector<int>> bs;
      split_pairs(data, 1, as, bs);
      MergeConfig cfg = merge_config(c);
      cfg.certs = resolve_tile_certs(c.w, c.e);
      observe(merge_arrays(launcher, as[0], bs[0], data, cfg));
      break;
    }
  }
  obs.data = std::move(data);
  obs.bulk_charges = launcher.bulk_charges();
  obs.lane_charges = launcher.lane_charges();
  return obs;
}

/// Asserts that everything except the bulk/lane split is bit-identical.
void expect_identical(const Observed& a, const Observed& b, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_EQ(a.microseconds, b.microseconds);  // exact: same doubles
  EXPECT_EQ(a.mean_chains, b.mean_chains);
  EXPECT_EQ(a.max_chains, b.max_chains);
}

std::vector<BulkCase> bulk_cases() {
  std::vector<BulkCase> cases;
  auto add = [&](BulkCase c, std::string tag) {
    c.tag = std::move(tag);
    cases.push_back(c);
  };
  // Pairwise CF across widths, coprime and non-coprime E, ragged n.
  add({4, 3, 8, 0, 8 * 3 * 8 + 5}, "w4_E3_coprime");
  add({8, 5, 16, 0, 16 * 5 * 8 + 7}, "w8_E5_coprime");
  add({8, 6, 16, 0, 16 * 6 * 8 + 3}, "w8_E6_noncoprime");
  add({16, 15, 32, 0, 32 * 15 * 4 + 11}, "w16_E15_coprime");
  add({32, 12, 32, 0, 32 * 12 * 4 + 1}, "w32_E12_noncoprime");
  add({64, 9, 64, 0, 64 * 9 * 4 + 17}, "w64_E9_coprime");
  // The uncertified fallthrough paths must also agree: baseline serial
  // merge, the disable_rho ablation, and the CF block-sort extension.
  {
    BulkCase c{8, 5, 16, 0, 16 * 5 * 8 + 7};
    c.variant = Variant::Baseline;
    add(c, "w8_E5_baseline");
  }
  {
    BulkCase c{8, 6, 16, 0, 16 * 6 * 8 + 3};
    c.disable_rho = true;
    add(c, "w8_E6_disable_rho");
  }
  {
    BulkCase c{8, 5, 16, 0, 16 * 5 * 8 + 7};
    c.cf_blocksort = true;
    add(c, "w8_E5_cf_blocksort");
  }
  // Multiway: cascade at k in {2, 4, 8} plus the LoserTree fallthrough.
  for (const int k : {2, 4, 8}) {
    BulkCase c{8, 5, 16, k, 16 * 5 * 64 + 9};
    add(c, "w8_E5_cascade_k" + std::to_string(k));
  }
  {
    BulkCase c{8, 6, 16, 4, 16 * 6 * 16 + 5};
    add(c, "w8_E6_cascade_k4_noncoprime");
  }
  {
    BulkCase c{8, 5, 16, 4, 16 * 5 * 16 + 5};
    c.mvariant = MultiwayVariant::LoserTree;
    add(c, "w8_E5_losertree_k4");
  }
  const auto shape_tag = [](int w, int e, const std::string& what) {
    std::string tag = "w";
    tag += std::to_string(w);
    tag += "_E";
    tag += std::to_string(e);
    tag += "_";
    return tag + what;
  };
  // Standalone permute / transpose, both directions, coprime (rho is the
  // identity) and non-coprime E.
  for (const bool inverse : {false, true}) {
    const std::string dir = inverse ? "_inverse" : "";
    for (const Entry entry : {Entry::kPermute, Entry::kTranspose}) {
      const std::string op = entry == Entry::kPermute ? "permute" : "transpose";
      for (const auto& [w, e] : {std::pair{8, 6}, std::pair{8, 5}, std::pair{32, 8}}) {
        BulkCase c{w, e, 2 * w, 0, 2 * w * e * 3 + 5};
        c.entry = entry;
        c.inverse = inverse;
        add(c, shape_tag(w, e, op + dir));
      }
    }
  }
  // batched_merge and merge_arrays: the merge window on ragged lists.
  for (const auto& [e, variant, name] :
       {std::tuple{5, Variant::CFMerge, "cf"}, std::tuple{6, Variant::CFMerge, "cf"},
        std::tuple{5, Variant::Baseline, "baseline"}}) {
    for (const Entry entry : {Entry::kBatched, Entry::kMergeArrays}) {
      BulkCase c{8, e, 16, 0, 16 * e * 6 + 7};
      c.variant = variant;
      c.entry = entry;
      add(c, shape_tag(8, e, name + std::string(entry == Entry::kBatched
                                                    ? "_batched"
                                                    : "_merge_arrays")));
    }
  }
  return cases;
}

}  // namespace

class BulkChargeCases : public ::testing::TestWithParam<BulkCase> {};

TEST_P(BulkChargeCases, CountersBitIdenticalAcrossAccountingPaths) {
  const BulkCase c = GetParam();
  const std::vector<int> input =
      rand_vec(static_cast<std::uint64_t>(c.n) * 31 + c.e, c.n);
  const Observed lane = run_sort(c, /*bulk=*/false, /*threads=*/1, input);
  const Observed bulk = run_sort(c, /*bulk=*/true, /*threads=*/1, input);
  if (c.entry == Entry::kSort) {
    std::vector<int> expect = input;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(lane.data, expect);
  }
  expect_identical(lane, bulk, "bulk vs lane, sequential");

  // The bulk path must actually fire when enabled, and never when disabled.
  EXPECT_EQ(lane.bulk_charges, 0u);
  EXPECT_GT(lane.lane_charges, 0u);
  EXPECT_GT(bulk.bulk_charges, 0u) << "no certified site took the bulk path";
  // Bulk charging strictly reduces per-lane walks: every warp access is
  // charged exactly once, by exactly one of the two paths.
  EXPECT_LT(bulk.lane_charges, lane.lane_charges);
}

TEST_P(BulkChargeCases, HostWorkerCountDoesNotPerturbEitherPath) {
  const BulkCase c = GetParam();
  const std::vector<int> input =
      rand_vec(static_cast<std::uint64_t>(c.n) * 57 + c.e, c.n);

  const Observed ref = run_sort(c, /*bulk=*/true, /*threads=*/1, input);
  for (const int threads : {2, 4}) {
    for (const bool bulk : {false, true}) {
      const Observed got = run_sort(c, bulk, threads, input);
      expect_identical(ref, got,
                       "threads=" + std::to_string(threads) +
                           " bulk=" + std::to_string(bulk));
      // The bulk/lane split itself is also deterministic per mode.
      if (bulk) {
        EXPECT_EQ(got.bulk_charges, ref.bulk_charges);
        EXPECT_EQ(got.lane_charges, ref.lane_charges);
      } else {
        EXPECT_EQ(got.bulk_charges, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BulkChargeCases, ::testing::ValuesIn(bulk_cases()),
                         [](const ::testing::TestParamInfo<BulkCase>& info) {
                           return info.param.tag;
                         });

// The trace and shadow/audit instrumentation must force the lane path (the
// bulk path skips per-access events), and tracing must observe the same
// access stream with bulk charging globally enabled as with it disabled.
TEST(BulkCharge, TracingForcesLanePathAndSeesIdenticalEvents) {
  const BulkCase c{8, 5, 16, 0, 16 * 5 * 8 + 7};
  const std::vector<int> input = rand_vec(99, c.n);

  auto traced = [&](bool bulk) {
    DeviceSpec dev = DeviceSpec::tiny(c.w);
    dev.bulk_charge = bulk;
    Launcher launcher(dev);
    gpusim::TraceSink sink;
    launcher.set_trace(&sink);
    SortEngine engine(launcher);
    std::vector<int> data = input;
    MergeConfig cfg;
    cfg.e = c.e;
    cfg.u = c.u;
    engine.sort(data, cfg);
    EXPECT_EQ(launcher.bulk_charges(), 0u)
        << "bulk path must not fire while a trace sink is attached";
    return sink.size();
  };
  EXPECT_EQ(traced(true), traced(false));
}
