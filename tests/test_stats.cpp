// Tests of the counter algebra and miscellaneous small utilities that the
// bigger suites exercise only indirectly.
#include "gpusim/stats.hpp"

#include <gtest/gtest.h>

#include "sort/odd_even.hpp"

using namespace cfmerge::gpusim;

namespace {
Counters make(std::uint64_t instrs, std::uint64_t acc, std::uint64_t cyc,
              std::uint64_t conf) {
  Counters c;
  c.warp_instructions = instrs;
  c.shared_accesses = acc;
  c.shared_cycles = cyc;
  c.bank_conflicts = conf;
  return c;
}
}  // namespace

TEST(Counters, AdditionIsFieldwise) {
  Counters a = make(1, 2, 3, 4);
  a.gmem_requests = 5;
  a.gmem_transactions = 6;
  a.gmem_bytes = 7;
  a.barriers = 10;
  const Counters b = a;
  const Counters s = a + b;
  EXPECT_EQ(s.warp_instructions, 2u);
  EXPECT_EQ(s.shared_accesses, 4u);
  EXPECT_EQ(s.shared_cycles, 6u);
  EXPECT_EQ(s.bank_conflicts, 8u);
  EXPECT_EQ(s.gmem_requests, 10u);
  EXPECT_EQ(s.gmem_transactions, 12u);
  EXPECT_EQ(s.gmem_bytes, 14u);
  EXPECT_EQ(s.barriers, 20u);
}

TEST(Counters, EqualityAndDefault) {
  EXPECT_EQ(Counters{}, Counters{});
  Counters a;
  a.bank_conflicts = 1;
  EXPECT_NE(a, Counters{});
}

TEST(Counters, ConflictsPerAccess) {
  EXPECT_DOUBLE_EQ(Counters{}.conflicts_per_access(), 0.0);
  const Counters c = make(0, 4, 12, 8);
  EXPECT_DOUBLE_EQ(c.conflicts_per_access(), 2.0);
}

TEST(PhaseCountersTest, PreservesFirstUseOrder) {
  PhaseCounters p;
  p.phase("load").shared_accesses = 1;
  p.phase("merge").shared_accesses = 2;
  p.phase("load").bank_conflicts = 3;  // same phase again: no new entry
  ASSERT_EQ(p.phases().size(), 2u);
  EXPECT_EQ(p.phases()[0].first, "load");
  EXPECT_EQ(p.phases()[0].second.shared_accesses, 1u);
  EXPECT_EQ(p.phases()[0].second.bank_conflicts, 3u);
  EXPECT_EQ(p.phases()[1].first, "merge");
}

TEST(PhaseCountersTest, TotalSumsAllPhases) {
  PhaseCounters p;
  p.phase("a").warp_instructions = 10;
  p.phase("b").warp_instructions = 32;
  EXPECT_EQ(p.total().warp_instructions, 42u);
}

TEST(PhaseCountersTest, MergeCombinesByName) {
  PhaseCounters p, q;
  p.phase("x").shared_accesses = 1;
  q.phase("x").shared_accesses = 2;
  q.phase("y").shared_accesses = 3;
  p.merge(q);
  ASSERT_EQ(p.phases().size(), 2u);
  EXPECT_EQ(p.phases()[0].second.shared_accesses, 3u);
  EXPECT_EQ(p.phases()[1].second.shared_accesses, 3u);
}

TEST(OddEvenAux, SequentialCesMatchesNetworkSize) {
  for (int n = 0; n <= 20; ++n)
    EXPECT_EQ(cfmerge::sort::odd_even_sequential_ces(n),
              cfmerge::sort::odd_even_network_size(n));
}
