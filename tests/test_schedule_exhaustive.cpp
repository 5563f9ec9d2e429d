// Exhaustive and adversarial property tests of the gather schedule:
//  * every possible split vector for small shapes (not just random samples),
//  * fault injection: corrupted permutations must be caught by the
//    validator (guards against silently-weakened invariants),
//  * algebraic identities of the permutations.
#include <gtest/gtest.h>

#include <vector>

#include "gather/permutation.hpp"
#include "gather/schedule.hpp"
#include "gather/validator.hpp"
#include "gpusim/shared_memory.hpp"
#include "numtheory/numtheory.hpp"

using namespace cfmerge;
using namespace cfmerge::gather;

namespace {

/// Enumerates every split vector (a_size[i] in [0, E]) for u threads via an
/// odometer; calls fn for each.  (E+1)^u combinations — keep u*log(E) small.
template <typename Fn>
void for_all_splits(int u, int e, Fn&& fn) {
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(u), 0);
  while (true) {
    fn(sizes);
    int i = 0;
    while (i < u && sizes[static_cast<std::size_t>(i)] == e) {
      sizes[static_cast<std::size_t>(i)] = 0;
      ++i;
    }
    if (i == u) break;
    ++sizes[static_cast<std::size_t>(i)];
  }
}

}  // namespace

TEST(ScheduleExhaustive, EverySplitConflictFreeCoprime) {
  // w = 4, E = 3 (coprime), one warp: 4^4 = 256 split vectors.
  int count = 0;
  for_all_splits(4, 3, [&](const std::vector<std::int64_t>& sizes) {
    const auto res = validate_sizes(4, 3, 4, sizes);
    ASSERT_TRUE(res.ok) << res.error;
    ++count;
  });
  EXPECT_EQ(count, 256);
}

TEST(ScheduleExhaustive, EverySplitConflictFreeNonCoprime) {
  // w = 4, E = 2 (d = 2): 3^4 = 81 split vectors.
  for_all_splits(4, 2, [&](const std::vector<std::int64_t>& sizes) {
    const auto res = validate_sizes(4, 2, 4, sizes);
    ASSERT_TRUE(res.ok) << res.error;
  });
  // w = 6, E = 4 (d = 2): 5^6 = 15625 split vectors.
  for_all_splits(6, 4, [&](const std::vector<std::int64_t>& sizes) {
    const auto res = validate_sizes(6, 4, 6, sizes);
    ASSERT_TRUE(res.ok) << res.error;
  });
}

TEST(ScheduleExhaustive, EverySplitConflictFreeTwoWarps) {
  // w = 3, E = 2, u = 6 (two warps, d = 1): 3^6 = 729 split vectors.
  for_all_splits(6, 2, [&](const std::vector<std::int64_t>& sizes) {
    const auto res = validate_sizes(3, 2, 6, sizes);
    ASSERT_TRUE(res.ok) << res.error;
  });
  // w = 4, E = 4, u = 8 (d = 4): 5^8 = 390625 is too many; E = 4 with a
  // fixed alternating skeleton plus an exhaustive 4-thread suffix instead.
  std::vector<std::int64_t> base{4, 0, 4, 0};
  for_all_splits(4, 4, [&](const std::vector<std::int64_t>& suffix) {
    std::vector<std::int64_t> sizes = base;
    sizes.insert(sizes.end(), suffix.begin(), suffix.end());
    const auto res = validate_sizes(4, 4, 8, sizes);
    ASSERT_TRUE(res.ok) << res.error;
  });
}

TEST(FaultInjection, BackwardShiftIsAlsoConflictFree) {
  // A neat corollary discovered by this test: shifting partitions *backward*
  // (by -(l mod d)) also yields a complete residue system — any shift
  // sequence with pairwise-distinct values modulo d works, not just the
  // paper's +l.  The validator must agree.
  const int w = 9, e = 6, u = 9;  // d = 3
  const std::int64_t total = static_cast<std::int64_t>(u) * e;
  const CircularShift rho(w, e, total);
  const std::int64_t p = rho.partition_size();
  for_all_splits(3, 6, [&](const std::vector<std::int64_t>& head) {
    std::vector<std::int64_t> sizes = head;
    sizes.resize(static_cast<std::size_t>(u), 3);
    std::vector<std::int64_t> off(sizes.size());
    std::int64_t run = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      off[i] = run;
      run += sizes[i];
    }
    GatherShape shape{w, e, u, run, total - run};
    RoundSchedule sched(shape, off, sizes);
    std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
    for (int j = 0; j < e; ++j) {
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t raw = sched.read(lane, j).raw;
        const std::int64_t l = raw / p;
        const std::int64_t x = numtheory::mod(raw % p - l % 3, p);  // backward
        addrs[static_cast<std::size_t>(lane)] = l * p + x;
      }
      ASSERT_EQ(gpusim::shared_access_cost(addrs, w).conflicts, 0);
    }
  });
}

TEST(FaultInjection, CollidingShiftClassesAreCaught) {
  // A genuinely broken rho: partition 1 left unshifted (shift classes
  // {0, 0, 2} collide modulo d) must produce conflicts for some split.
  const int w = 9, e = 6, u = 9;  // d = 3
  const std::int64_t total = static_cast<std::int64_t>(u) * e;
  const CircularShift rho(w, e, total);
  const std::int64_t p = rho.partition_size();
  bool any_conflict = false;
  for_all_splits(3, 6, [&](const std::vector<std::int64_t>& head) {
    std::vector<std::int64_t> sizes = head;
    sizes.resize(static_cast<std::size_t>(u), 3);
    std::vector<std::int64_t> off(sizes.size());
    std::int64_t run = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      off[i] = run;
      run += sizes[i];
    }
    GatherShape shape{w, e, u, run, total - run};
    RoundSchedule sched(shape, off, sizes);
    std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
    for (int j = 0; j < e && !any_conflict; ++j) {
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t raw = sched.read(lane, j).raw;
        const std::int64_t l = raw / p;
        addrs[static_cast<std::size_t>(lane)] =
            l == 1 ? raw : rho(raw);  // partition 1 unshifted: broken
      }
      if (gpusim::shared_access_cost(addrs, w).conflicts > 0) any_conflict = true;
    }
  });
  EXPECT_TRUE(any_conflict)
      << "colliding shift classes should conflict somewhere; if not, the "
         "validator has no teeth";
}

TEST(FaultInjection, DroppingPiIsCaught) {
  // Reading B forward (no reversal) makes some thread read two elements in
  // one round — detected as a double-read (coverage violation) or conflict.
  const int w = 8, e = 5, u = 8;
  std::vector<std::int64_t> sizes{2, 3, 5, 0, 1, 4, 2, 3};
  std::vector<std::int64_t> off(sizes.size());
  std::int64_t la = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    off[i] = la;
    la += sizes[i];
  }
  const std::int64_t total = static_cast<std::int64_t>(u) * e;
  GatherShape shape{w, e, u, la, total - la};
  RoundSchedule sched(shape, off, sizes);
  // Count reads per (thread, round) under the UNreversed B placement:
  // element y of B_i sits at raw la + b_i + y and is read in its round
  // (la + b_i + y) mod E — collect per-thread-round multiplicities.
  std::vector<int> reads(static_cast<std::size_t>(u * e), 0);
  for (int i = 0; i < u; ++i) {
    for (std::int64_t x = 0; x < sched.a_size(i); ++x)
      ++reads[static_cast<std::size_t>(
          i * e + numtheory::mod(sched.a_offset(i) + x, e))];
    for (std::int64_t y = 0; y < sched.b_size(i); ++y)
      ++reads[static_cast<std::size_t>(
          i * e + numtheory::mod(la + sched.b_offset(i) + y, e))];
  }
  int max_reads = 0;
  for (const int r : reads) max_reads = std::max(max_reads, r);
  EXPECT_GE(max_reads, 2) << "without pi some thread needs 2 reads in a round "
                             "(Figure 7's stall)";
}

TEST(PermutationAlgebra, RhoIsShiftHomomorphism) {
  // rho restricted to one partition is addition by (l mod d) modulo P.
  const CircularShift rho(12, 9, 3 * 36);  // d = 3, P = 36
  for (std::int64_t l = 0; l < 3; ++l) {
    for (std::int64_t x = 0; x < 36; ++x) {
      const std::int64_t m = l * 36 + x;
      EXPECT_EQ(rho(m), l * 36 + numtheory::mod(x + l % 3, 36));
    }
  }
}

TEST(PermutationAlgebra, PiIsAnInvolutionOnB) {
  const BReversal pi = PairLayout::cf_no_rho(10, 7).pi();
  for (std::int64_t y = 0; y < 7; ++y) {
    const std::int64_t m = pi.raw_of_b(y);
    EXPECT_EQ(pi.b_of_raw(m), y);
    EXPECT_EQ(pi.raw_of_b(pi.b_of_raw(m)), m);
  }
}

TEST(ScheduleExhaustive, ValidatorRejectsDoubleCoverageByConstruction) {
  // Sanity check that validate_schedule actually detects a coverage bug:
  // feed it a schedule whose splits disagree with the shape (constructed by
  // by-passing RoundSchedule's own validation through a legal but
  // different shape is impossible — so instead assert the validation error
  // path of RoundSchedule itself).
  GatherShape shape{4, 3, 4, 6, 6};
  std::vector<std::int64_t> off{0, 2, 4, 5};
  std::vector<std::int64_t> sz{2, 2, 1, 2};  // sums to 7 != la = 6
  EXPECT_THROW(RoundSchedule(shape, off, sz), std::invalid_argument);
}
