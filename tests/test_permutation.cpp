// Tests of the pi (B-reversal) and rho (circular shift) permutations and
// of the PairLayout built on them.
#include "gather/permutation.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "gather/schedule.hpp"
#include "numtheory/numtheory.hpp"

using cfmerge::gather::BReversal;
using cfmerge::gather::CircularShift;
using cfmerge::gather::PairLayout;

TEST(BReversalTest, MapsAIdentity) {
  const BReversal pi = PairLayout::cf_no_rho(10, 6).pi();
  for (std::int64_t x = 0; x < 10; ++x) {
    EXPECT_EQ(pi.raw_of_a(x), x);
    EXPECT_TRUE(pi.is_a(x));
    EXPECT_EQ(pi.a_of_raw(x), x);
  }
}

TEST(BReversalTest, ReversesB) {
  const BReversal pi = PairLayout::cf_no_rho(10, 6).pi();
  EXPECT_EQ(pi.raw_of_b(0), 15);  // first B element goes last
  EXPECT_EQ(pi.raw_of_b(5), 10);  // last B element right after A
  for (std::int64_t y = 0; y < 6; ++y) {
    const std::int64_t m = pi.raw_of_b(y);
    EXPECT_FALSE(pi.is_a(m));
    EXPECT_EQ(pi.b_of_raw(m), y);
  }
}

TEST(BReversalTest, EmptyLists) {
  const BReversal no_b = PairLayout::cf_no_rho(8, 0).pi();
  EXPECT_TRUE(no_b.is_a(7));
  const BReversal no_a = PairLayout::cf_no_rho(0, 8).pi();
  EXPECT_EQ(no_a.raw_of_b(0), 7);
  EXPECT_EQ(no_a.raw_of_b(7), 0);
}

TEST(CircularShiftTest, IdentityWhenCoprime) {
  const CircularShift rho(32, 15, 32 * 15);
  EXPECT_TRUE(rho.identity());
  for (std::int64_t m = 0; m < 32 * 15; m += 37) EXPECT_EQ(rho(m), m);
}

TEST(CircularShiftTest, IsAPermutationAndInverseWorks) {
  for (const auto& [w, e] : std::vector<std::pair<int, int>>{
           {12, 9}, {9, 6}, {32, 16}, {32, 24}, {6, 4}, {8, 8}}) {
    const std::int64_t d = cfmerge::numtheory::gcd(w, e);
    ASSERT_GT(d, 1);
    const std::int64_t total = 3 * static_cast<std::int64_t>(w) * e / d;
    const CircularShift rho(w, e, total);
    EXPECT_FALSE(rho.identity());
    std::set<std::int64_t> image;
    for (std::int64_t m = 0; m < total; ++m) {
      const std::int64_t p = rho(m);
      EXPECT_GE(p, 0);
      EXPECT_LT(p, total);
      EXPECT_EQ(rho.inverse(p), m);
      image.insert(p);
    }
    EXPECT_EQ(static_cast<std::int64_t>(image.size()), total);
  }
}

TEST(CircularShiftTest, ShiftsStayWithinPartition) {
  const CircularShift rho(9, 6, 9 * 6);  // d = 3, P = 18
  EXPECT_EQ(rho.partition_size(), 18);
  for (std::int64_t m = 0; m < 54; ++m) EXPECT_EQ(rho(m) / 18, m / 18);
}

TEST(CircularShiftTest, PartitionZeroUnshifted) {
  const CircularShift rho(9, 6, 9 * 6);
  for (std::int64_t m = 0; m < 18; ++m) EXPECT_EQ(rho(m), m);
  // Partition 1 shifted by 1, partition 2 by 2.
  EXPECT_EQ(rho(18), 19);
  EXPECT_EQ(rho(35), 18);  // wraps within partition 1
  EXPECT_EQ(rho(36), 38);
}

TEST(CircularShiftTest, AlignmentProperty) {
  // The property Section 3.2 needs: after the shift, the element with raw
  // index m is read in round m mod E, i.e. rho realigns each partition's
  // schedule.  Equivalently: rho(m) is read in round (offset-in-partition
  // minus shift) ... check the bank identity rho(m) ≡ m + (l mod d) (mod w).
  for (const auto& [w, e] : std::vector<std::pair<int, int>>{{12, 9}, {9, 6}, {32, 24}}) {
    const std::int64_t d = cfmerge::numtheory::gcd(w, e);
    const std::int64_t p = static_cast<std::int64_t>(w) * e / d;
    const CircularShift rho(w, e, 2 * d * p);
    for (std::int64_t m = 0; m < 2 * d * p; ++m) {
      const std::int64_t l = m / p;
      EXPECT_EQ(cfmerge::numtheory::mod(rho(m), w),
                cfmerge::numtheory::mod(m + l % d, w))
          << "w=" << w << " e=" << e << " m=" << m;
    }
  }
}

TEST(CircularShiftTest, RejectsBadShapes) {
  EXPECT_THROW(CircularShift(0, 5, 10), std::invalid_argument);
  EXPECT_THROW(CircularShift(8, 0, 8), std::invalid_argument);
  EXPECT_THROW(CircularShift(8, 6, 25), std::invalid_argument);  // not multiple of P=24
  EXPECT_NO_THROW(CircularShift(8, 6, 48));
}

namespace {

/// Checks that `layout` maps A's la and B's lb offsets one-to-one onto
/// [0, la + lb).
void expect_bijective(const PairLayout& layout, std::int64_t la, std::int64_t lb) {
  ASSERT_EQ(layout.la(), la);
  ASSERT_EQ(layout.lb(), lb);
  ASSERT_EQ(layout.size(), la + lb);
  std::vector<int> hits(static_cast<std::size_t>(la + lb), 0);
  const auto hit = [&](std::int64_t pos) {
    ASSERT_GE(pos, 0);
    ASSERT_LT(pos, la + lb);
    ++hits[static_cast<std::size_t>(pos)];
  };
  for (std::int64_t x = 0; x < la; ++x) hit(layout.pos_a(x));
  for (std::int64_t y = 0; y < lb; ++y) hit(layout.pos_b(y));
  for (const int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace

TEST(PairLayoutTest, EveryFactoryIsABijectionOntoItsRegion) {
  // d = 1 and d > 1 shapes, with |A| in {0, 1, half, all} of two periods.
  for (const auto& [w, e] :
       std::vector<std::pair<int, int>>{{4, 3}, {8, 5}, {4, 2}, {8, 6}, {6, 4}, {8, 8}}) {
    const std::int64_t total = 2 * static_cast<std::int64_t>(w) * e;
    for (const std::int64_t la : {std::int64_t{0}, std::int64_t{1}, total / 2, total}) {
      SCOPED_TRACE("w=" + std::to_string(w) + " E=" + std::to_string(e) +
                   " la=" + std::to_string(la));
      const std::int64_t lb = total - la;
      expect_bijective(PairLayout::linear(la, lb), la, lb);
      expect_bijective(PairLayout::cf(la, lb, w, e), la, lb);
      expect_bijective(PairLayout::cf_no_rho(la, lb), la, lb);
    }
  }
}

TEST(PairLayoutTest, FactoriesPlaceListsAsDocumented) {
  const PairLayout lin = PairLayout::linear(5, 3);
  EXPECT_FALSE(lin.is_cf());
  EXPECT_EQ(lin.b_step(), 1);
  EXPECT_EQ(lin.pos_a(4), 4);
  EXPECT_EQ(lin.pos_b(0), 5);
  EXPECT_EQ(lin.pos_b(2), 7);
  // pi only: B reversed after A.
  const PairLayout no_rho = PairLayout::cf_no_rho(5, 3);
  EXPECT_TRUE(no_rho.is_cf());
  EXPECT_TRUE(no_rho.rho().identity());
  EXPECT_EQ(no_rho.b_step(), -1);
  EXPECT_EQ(no_rho.pos_b(0), 7);
  EXPECT_EQ(no_rho.pos_b(2), 5);
  // rho(pi(.)) with d = gcd(8, 6) = 2: the second partition is shifted.
  const PairLayout cf = PairLayout::cf(30, 18, 8, 6);
  const CircularShift rho(8, 6, 48);
  EXPECT_FALSE(cf.rho().identity());
  for (std::int64_t x = 0; x < 30; ++x) EXPECT_EQ(cf.pos_a(x), rho(x));
  for (std::int64_t y = 0; y < 18; ++y) EXPECT_EQ(cf.pos_b(y), rho(47 - y));
}

TEST(PairLayoutTest, CfAgreesWithRoundScheduleReads) {
  // Every read of a sampled schedule lands where PairLayout::cf places the
  // element it reads.
  std::mt19937_64 rng(7);
  for (const auto& [w, e] : std::vector<std::pair<int, int>>{{4, 3}, {8, 6}, {8, 8}, {6, 4}}) {
    const int u = 2 * w;
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::int64_t> off(static_cast<std::size_t>(u));
      std::vector<std::int64_t> size(static_cast<std::size_t>(u));
      std::int64_t la = 0;
      for (int i = 0; i < u; ++i) {
        off[static_cast<std::size_t>(i)] = la;
        size[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(rng() % (e + 1));
        la += size[static_cast<std::size_t>(i)];
      }
      const std::int64_t lb = static_cast<std::int64_t>(u) * e - la;
      const cfmerge::gather::RoundSchedule sched({w, e, u, la, lb}, off, size);
      const PairLayout cf = PairLayout::cf(la, lb, w, e);
      for (int i = 0; i < u; ++i) {
        for (int j = 0; j < e; ++j) {
          const cfmerge::gather::GatherRead r = sched.read(i, j);
          EXPECT_EQ(r.phys, r.from_a ? cf.pos_a(r.offset) : cf.pos_b(r.offset))
              << "w=" << w << " E=" << e << " thread " << i << " round " << j;
        }
      }
    }
  }
}
