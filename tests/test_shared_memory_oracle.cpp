// Randomized equivalence tests for the bank conflict model.
//
// The hot-path implementations in shared_memory.hpp (bucketed counters with
// a conflict-free screening pass, per-bank chain scan for the general case)
// replaced a straightforward sort-based formulation.  These tests keep a
// local copy of the sort-based oracle and check the shipped implementations
// against it on randomized warps covering every width the simulator
// supports, idle lanes, duplicated (broadcast) addresses and the degenerate
// all-same-address warp — for both values of the scattered_hint, which must
// never change the result.  The pair form (shared_access_cost_pair) is
// checked against two oracle calls on its overlapping rows, and addresses at
// or above the bitmap dedup's 2^16 domain exercise the chain fallback.
#include "gpusim/shared_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <utility>
#include <vector>

using cfmerge::gpusim::kInactiveLane;
using cfmerge::gpusim::kMaxLanes;
using cfmerge::gpusim::shared_access_cost;
using cfmerge::gpusim::shared_access_cost_pair;
using cfmerge::gpusim::shared_access_degrees;
using cfmerge::gpusim::SharedAccessCost;

namespace {

/// Sort-based oracle: sort the active (bank, address) pairs, drop duplicate
/// addresses (broadcast) and count the run length per bank.
SharedAccessCost oracle_cost(std::span<const std::int64_t> addrs, int banks) {
  SharedAccessCost c;
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;  // (bank, addr)
  for (const std::int64_t a : addrs) {
    if (a == kInactiveLane) continue;
    ++c.active_lanes;
    pairs.emplace_back(a % banks, a);
  }
  if (c.active_lanes == 0) return c;
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  int max_degree = 0;
  for (std::size_t i = 0; i < pairs.size();) {
    std::size_t j = i;
    while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
    max_degree = std::max(max_degree, static_cast<int>(j - i));
    i = j;
  }
  c.cycles = max_degree;
  c.conflicts = max_degree - 1;
  return c;
}

/// Sort-based oracle for the per-bank degree histogram.
std::vector<int> oracle_degrees(std::span<const std::int64_t> addrs, int banks) {
  std::vector<std::int64_t> distinct;
  for (const std::int64_t a : addrs)
    if (a != kInactiveLane) distinct.push_back(a);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<int> deg(static_cast<std::size_t>(banks), 0);
  for (const std::int64_t a : distinct) ++deg[static_cast<std::size_t>(a % banks)];
  return deg;
}

void expect_matches_oracle(std::span<const std::int64_t> addrs, int banks) {
  const SharedAccessCost want = oracle_cost(addrs, banks);
  for (const bool hint : {false, true}) {
    const SharedAccessCost got = shared_access_cost(addrs, banks, hint);
    ASSERT_EQ(got.cycles, want.cycles) << "banks=" << banks << " hint=" << hint;
    ASSERT_EQ(got.conflicts, want.conflicts) << "banks=" << banks << " hint=" << hint;
    ASSERT_EQ(got.active_lanes, want.active_lanes)
        << "banks=" << banks << " hint=" << hint;
  }
  std::vector<int> scratch(static_cast<std::size_t>(banks));
  const auto got_deg = shared_access_degrees(addrs, banks, scratch);
  const auto want_deg = oracle_degrees(addrs, banks);
  ASSERT_EQ(std::vector<int>(got_deg.begin(), got_deg.end()), want_deg)
      << "banks=" << banks;
}

void expect_same(const SharedAccessCost& got, const SharedAccessCost& want,
                 const char* row, int banks) {
  EXPECT_EQ(got.cycles, want.cycles) << row << " banks=" << banks;
  EXPECT_EQ(got.conflicts, want.conflicts) << row << " banks=" << banks;
  EXPECT_EQ(got.active_lanes, want.active_lanes) << row << " banks=" << banks;
}

/// `row` holds n + 1 lanes: the pair's rows are lanes [0, n) and [1, n].
void expect_pair_matches_oracle(std::span<const std::int64_t> row, int banks) {
  const std::size_t n = row.size() - 1;
  const auto got = shared_access_cost_pair(row, banks);
  expect_same(got.first, oracle_cost(row.first(n), banks), "first", banks);
  expect_same(got.shifted, oracle_cost(row.last(n), banks), "shifted", banks);
}

constexpr int kWidths[] = {4, 8, 16, 32, 64};
constexpr std::int64_t kDedupDomain = std::int64_t{1} << 16;

}  // namespace

TEST(SharedAccessOracle, RandomizedUniformAddresses) {
  std::mt19937_64 rng(20260805);
  for (const int w : kWidths) {
    for (int trial = 0; trial < 400; ++trial) {
      std::uniform_int_distribution<std::int64_t> addr(0, 4 * w - 1);
      std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
      for (auto& a : addrs) a = addr(rng);
      expect_matches_oracle(addrs, w);
    }
  }
}

TEST(SharedAccessOracle, RandomizedWithInactiveLanes) {
  std::mt19937_64 rng(99);
  for (const int w : kWidths) {
    for (int trial = 0; trial < 400; ++trial) {
      std::uniform_int_distribution<std::int64_t> addr(0, 8 * w - 1);
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      const double p_idle = coin(rng);  // from almost-full to almost-empty warps
      std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
      for (auto& a : addrs) a = coin(rng) < p_idle ? kInactiveLane : addr(rng);
      expect_matches_oracle(addrs, w);
    }
  }
}

TEST(SharedAccessOracle, RandomizedHeavyDuplicates) {
  // Draw from a tiny address pool so broadcasts and conflicts are dense.
  std::mt19937_64 rng(7);
  for (const int w : kWidths) {
    for (int trial = 0; trial < 400; ++trial) {
      std::uniform_int_distribution<std::int64_t> addr(0, 2);
      std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
      for (auto& a : addrs) a = addr(rng) == 0 ? kInactiveLane : addr(rng) * w + 5;
      expect_matches_oracle(addrs, w);
    }
  }
}

TEST(SharedAccessOracle, AllLanesSameAddress) {
  for (const int w : kWidths) {
    const std::vector<std::int64_t> addrs(static_cast<std::size_t>(w), 1234567);
    expect_matches_oracle(addrs, w);
  }
}

TEST(SharedAccessOracle, AllLanesInactive) {
  for (const int w : kWidths) {
    const std::vector<std::int64_t> addrs(static_cast<std::size_t>(w), kInactiveLane);
    expect_matches_oracle(addrs, w);
  }
}

TEST(SharedAccessOracle, WorstCaseStrides) {
  // Stride-w (full serialization), stride-1 (conflict free) and every stride
  // in between, with and without a masked tail.
  for (const int w : kWidths) {
    for (std::int64_t stride = 1; stride <= w; ++stride) {
      std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
      for (int l = 0; l < w; ++l) addrs[static_cast<std::size_t>(l)] = l * stride;
      expect_matches_oracle(addrs, w);
      for (int l = w / 2; l < w; ++l) addrs[static_cast<std::size_t>(l)] = kInactiveLane;
      expect_matches_oracle(addrs, w);
    }
  }
}

TEST(SharedAccessOracle, PartialWarpsAndOddBankCounts) {
  // Fewer address slots than banks, plus a non-power-of-two bank count
  // (exercises the modulo path instead of the mask).
  std::mt19937_64 rng(4242);
  for (const int banks : {4, 24, 32, 48, 64}) {
    for (int n = 0; n <= banks; n += 3) {
      std::uniform_int_distribution<std::int64_t> addr(0, 5 * banks);
      std::vector<std::int64_t> addrs(static_cast<std::size_t>(n));
      for (auto& a : addrs) a = addr(rng);
      expect_matches_oracle(addrs, banks);
    }
  }
}

TEST(SharedAccessPairOracle, RandomizedShiftedRows) {
  // Each trial draws one w + 1 lane row, then shapes its edge lanes (lane 0,
  // only in the first row, and lane w, only in the shifted row) and its
  // shared core (lanes [1, w)).
  enum Shape { kPlain, kIdleEdge, kEdgeBroadcast, kIdleCore, kBothEdgesIdle, kShapes };
  std::mt19937_64 rng(20261017);
  for (const int w : kWidths) {
    const auto lanes = static_cast<std::size_t>(w);
    std::uniform_int_distribution<std::int64_t> addr(0, 4 * w - 1);
    std::uniform_int_distribution<std::size_t> core_lane(1, lanes - 1);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (int trial = 0; trial < 500; ++trial) {
      const double p_idle = coin(rng) * 0.5;
      std::vector<std::int64_t> row(lanes + 1);
      for (auto& a : row) a = coin(rng) < p_idle ? kInactiveLane : addr(rng);
      switch (static_cast<Shape>(trial % kShapes)) {
        case kPlain:
          break;
        case kIdleEdge:
          row[coin(rng) < 0.5 ? 0 : lanes] = kInactiveLane;
          break;
        case kEdgeBroadcast:  // edges repeat a core address (may be idle)
          row[0] = row[core_lane(rng)];
          row[lanes] = row[core_lane(rng)];
          break;
        case kIdleCore:
          std::fill(row.begin() + 1, row.end() - 1, kInactiveLane);
          break;
        case kBothEdgesIdle:
          row.front() = kInactiveLane;
          row.back() = kInactiveLane;
          break;
        case kShapes:
          break;
      }
      expect_pair_matches_oracle(row, w);
      if (HasFailure()) return;
    }
  }
}

TEST(SharedAccessPairOracle, DegenerateRows) {
  for (const int w : kWidths) {
    const auto lanes = static_cast<std::size_t>(w);
    // Everything idle; everything one broadcast address; one-lane rows.
    expect_pair_matches_oracle(std::vector<std::int64_t>(lanes + 1, kInactiveLane), w);
    expect_pair_matches_oracle(std::vector<std::int64_t>(lanes + 1, 3 * w + 1), w);
    expect_pair_matches_oracle(std::vector<std::int64_t>{5, 5 + w}, w);
    expect_pair_matches_oracle(std::vector<std::int64_t>{kInactiveLane, 7}, w);
    // Stride-w core: each edge either joins the serialized bank or not.
    std::vector<std::int64_t> row(lanes + 1);
    for (std::size_t l = 0; l <= lanes; ++l) row[l] = static_cast<std::int64_t>(l) * w;
    expect_pair_matches_oracle(row, w);
    row.front() = 1;
    expect_pair_matches_oracle(row, w);
    row.back() = row[1];
    expect_pair_matches_oracle(row, w);
  }
}

TEST(SharedAccessOracle, AddressesAtAndAboveTheDedupDomain) {
  // Rows wholly above 2^16 and rows straddling it: single-row costs take
  // the per-bank chain walk, the pair form its two-call fallback.  Both
  // must still agree with the oracle, idle lanes and broadcasts included.
  std::mt19937_64 rng(65536);
  for (const int w : kWidths) {
    const auto lanes = static_cast<std::size_t>(w);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (const std::int64_t base : {kDedupDomain - 2 * w, kDedupDomain, std::int64_t{1} << 40}) {
      std::uniform_int_distribution<std::int64_t> addr(base, base + 4 * w - 1);
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::int64_t> row(lanes + 1);
        for (auto& a : row) a = coin(rng) < 0.2 ? kInactiveLane : addr(rng);
        expect_matches_oracle(std::span<const std::int64_t>(row).first(lanes), w);
        expect_pair_matches_oracle(row, w);
        if (HasFailure()) return;
      }
    }
    // Only one edge leaves the domain: the core alone would fit the bitmap.
    std::uniform_int_distribution<std::int64_t> low(0, 4 * w - 1);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<std::int64_t> row(lanes + 1);
      for (auto& a : row) a = low(rng);
      (trial % 2 == 0 ? row.front() : row.back()) = kDedupDomain + low(rng);
      expect_pair_matches_oracle(row, w);
      if (HasFailure()) return;
    }
    // The domain boundary itself: a core broadcasting 2^16 - 1 (the last
    // indexable address), a lead edge one row below it and a tail edge one
    // row above the domain, all in bank w - 1 (w divides 2^16).
    std::vector<std::int64_t> edge_row(lanes + 1, kDedupDomain - 1);
    edge_row[0] = kDedupDomain - 1 - w;
    edge_row[lanes] = kDedupDomain - 1 + w;
    expect_matches_oracle(std::span<const std::int64_t>(edge_row).first(lanes), w);
    expect_matches_oracle(std::span<const std::int64_t>(edge_row).last(lanes), w);
    expect_pair_matches_oracle(edge_row, w);
  }
}
