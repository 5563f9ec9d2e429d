// Tests of the bank conflict model, including the paper's Figure 1 cases.
#include "gpusim/shared_memory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "numtheory/numtheory.hpp"

using cfmerge::gpusim::kInactiveLane;
using cfmerge::gpusim::shared_access_cost;
using cfmerge::gpusim::shared_access_cost_dedup;
using cfmerge::gpusim::shared_access_degrees;

namespace {
std::vector<std::int64_t> strided(int w, std::int64_t stride, std::int64_t base = 0) {
  std::vector<std::int64_t> a(static_cast<std::size_t>(w));
  for (int l = 0; l < w; ++l) a[static_cast<std::size_t>(l)] = base + l * stride;
  return a;
}
}  // namespace

TEST(SharedAccess, ContiguousIsConflictFree) {
  const auto addrs = strided(32, 1);
  const auto c = shared_access_cost(addrs, 32);
  EXPECT_EQ(c.cycles, 1);
  EXPECT_EQ(c.conflicts, 0);
  EXPECT_EQ(c.active_lanes, 32);
}

TEST(SharedAccess, SameBankFullySerializes) {
  const auto addrs = strided(32, 32);  // all in bank 0, distinct addresses
  const auto c = shared_access_cost(addrs, 32);
  EXPECT_EQ(c.cycles, 32);
  EXPECT_EQ(c.conflicts, 31);
}

TEST(SharedAccess, BroadcastIsFree) {
  // Footnote 4: multiple lanes reading the *same* address do not conflict.
  std::vector<std::int64_t> addrs(32, 7);
  const auto c = shared_access_cost(addrs, 32);
  EXPECT_EQ(c.cycles, 1);
  EXPECT_EQ(c.conflicts, 0);
}

TEST(SharedAccess, MixedBroadcastAndDistinct) {
  // 16 lanes read address 0, 16 lanes read addresses 32, 64, ... (bank 0):
  // distinct addresses in bank 0 = 1 (broadcast) + 16.
  std::vector<std::int64_t> addrs;
  for (int l = 0; l < 16; ++l) addrs.push_back(0);
  for (int l = 0; l < 16; ++l) addrs.push_back(32 * (l + 1));
  const auto c = shared_access_cost(addrs, 32);
  EXPECT_EQ(c.cycles, 17);
  EXPECT_EQ(c.conflicts, 16);
}

TEST(SharedAccess, InactiveLanesIgnored) {
  std::vector<std::int64_t> addrs(32, kInactiveLane);
  addrs[3] = 5;
  const auto c = shared_access_cost(addrs, 32);
  EXPECT_EQ(c.cycles, 1);
  EXPECT_EQ(c.conflicts, 0);
  EXPECT_EQ(c.active_lanes, 1);
}

TEST(SharedAccess, AllInactive) {
  std::vector<std::int64_t> addrs(32, kInactiveLane);
  const auto c = shared_access_cost(addrs, 32);
  EXPECT_EQ(c.cycles, 0);
  EXPECT_EQ(c.conflicts, 0);
  EXPECT_EQ(c.active_lanes, 0);
}

// Figure 1 of the paper: w = 12, stride 5 (coprime) is conflict free; stride
// 6 (gcd 6) serializes 6-fold (12/gcd = 2 banks, 6 addresses each).
TEST(Figure1, StrideCoprimeVsNonCoprime) {
  const auto free = shared_access_cost(strided(12, 5), 12);
  EXPECT_EQ(free.conflicts, 0);
  const auto bad = shared_access_cost(strided(12, 6), 12);
  EXPECT_EQ(bad.cycles, 6);
  EXPECT_EQ(bad.conflicts, 5);
}

// Property: for stride s, the serialization degree equals gcd(w, s) when s>0
// (each touched bank receives gcd(w,s) distinct addresses).
TEST(SharedAccess, StrideDegreeEqualsGcd) {
  for (int w : {4, 6, 8, 12, 16, 32}) {
    for (std::int64_t s = 1; s <= w; ++s) {
      const auto c = shared_access_cost(strided(w, s), w);
      EXPECT_EQ(c.cycles, cfmerge::numtheory::gcd(w, s)) << "w=" << w << " s=" << s;
    }
  }
}

TEST(SharedAccess, BaseOffsetDoesNotChangeDegree) {
  for (std::int64_t base : {0, 1, 7, 31, 100}) {
    const auto c = shared_access_cost(strided(32, 15, base), 32);
    EXPECT_EQ(c.conflicts, 0) << "base=" << base;
  }
}

TEST(SharedAccessDegrees, PerBankBreakdown) {
  std::vector<int> scratch(12);
  const auto deg = shared_access_degrees(strided(12, 6), 12, scratch);
  ASSERT_EQ(deg.size(), 12u);
  EXPECT_EQ(deg[0], 6);
  EXPECT_EQ(deg[6], 6);
  for (int b : {1, 2, 3, 4, 5, 7, 8, 9, 10, 11}) EXPECT_EQ(deg[static_cast<std::size_t>(b)], 0);
}

TEST(SharedAccess, RejectsBadArguments) {
  std::vector<std::int64_t> addrs(4, 0);
  EXPECT_THROW((void)shared_access_cost(addrs, 0), std::invalid_argument);
  EXPECT_THROW((void)shared_access_cost(addrs, 100), std::invalid_argument);
  EXPECT_THROW((void)shared_access_cost_dedup(addrs, 0), std::invalid_argument);
  const std::vector<std::int64_t> wide(65, 0);
  EXPECT_THROW((void)shared_access_cost_dedup(wide, 32), std::invalid_argument);
  std::vector<int> small(3);
  EXPECT_THROW((void)shared_access_degrees(addrs, 12, small), std::invalid_argument);
}

TEST(SharedAccess, RejectsNegativeAddresses) {
  // -1 is the idle sentinel; any other negative address is a caller bug.
  // It must throw on every path — the conflict-free screen, the bitmap
  // dedup (whose map it would otherwise index out of bounds) and the chain
  // walk — in release builds too.
  for (const std::int64_t bad : {std::int64_t{-2}, std::int64_t{-65}, INT64_MIN}) {
    const std::vector<std::int64_t> distinct_banks{0, 1, bad, 3};
    const std::vector<std::int64_t> conflicted{0, 4, bad, 8};
    const std::vector<std::int64_t> large{0, 4, bad, std::int64_t{1} << 20};
    const std::vector<std::int64_t> alone{kInactiveLane, bad, kInactiveLane, kInactiveLane};
    for (const auto* addrs : {&distinct_banks, &conflicted, &large, &alone}) {
      EXPECT_THROW((void)shared_access_cost(*addrs, 4), std::invalid_argument) << bad;
      EXPECT_THROW((void)shared_access_cost_dedup(*addrs, 4), std::invalid_argument) << bad;
      std::vector<int> scratch(4);
      EXPECT_THROW((void)shared_access_degrees(*addrs, 4, scratch), std::invalid_argument);
    }
  }
}
