// Property tests of the Algorithm 1 round schedule: for every shape the
// gather must (a) read each element exactly once, (b) read one element per
// thread per round, and (c) be bank conflict free — the paper's Lemmas 1-4
// and Corollary 3, verified exhaustively over parameter grids that include
// both coprime and non-coprime (w, E) and multi-warp blocks with arbitrary
// merge-path splits.
#include "gather/schedule.hpp"

#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "gather/validator.hpp"
#include "numtheory/numtheory.hpp"

using namespace cfmerge::gather;
namespace nt = cfmerge::numtheory;

namespace {
std::vector<std::int64_t> random_sizes(std::mt19937_64& rng, int u, int e) {
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(u));
  for (auto& s : sizes) s = static_cast<std::int64_t>(rng() % (e + 1));
  return sizes;
}
}  // namespace

TEST(RoundSchedule, PaperExampleCoprime) {
  // Figure 2: w = 12, E = 5, d = 1.
  std::mt19937_64 rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const auto res = validate_sizes(12, 5, 12, random_sizes(rng, 12, 5));
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.total_conflicts, 0);
  }
}

TEST(RoundSchedule, PaperExampleNonCoprime) {
  // Figure 3: w = 9, E = 6, d = 3.
  std::mt19937_64 rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const auto res = validate_sizes(9, 6, 9, random_sizes(rng, 9, 6));
    EXPECT_TRUE(res.ok) << res.error;
  }
}

TEST(RoundSchedule, PaperExampleThreadBlock) {
  // Figure 8: u = 18, w = 6, E = 4, d = 2.
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto res = validate_sizes(6, 4, 18, random_sizes(rng, 18, 4));
    EXPECT_TRUE(res.ok) << res.error;
  }
}

TEST(RoundSchedule, ThrustSoftwareParameters) {
  // (E=15, u=512) and (E=17, u=256) with w=32 — the paper's measured sets.
  std::mt19937_64 rng(4);
  for (const auto& [e, u] : std::vector<std::pair<int, int>>{{15, 512}, {17, 256}}) {
    for (int trial = 0; trial < 5; ++trial) {
      const auto res = validate_sizes(32, e, u, random_sizes(rng, u, e));
      EXPECT_TRUE(res.ok) << res.error;
    }
  }
}

TEST(RoundSchedule, ExtremeSplits) {
  // All elements from A, all from B, and strict alternation.
  for (const auto& [w, e, u] : std::vector<std::tuple<int, int, int>>{
           {8, 5, 16}, {8, 6, 16}, {12, 9, 24}, {32, 15, 64}, {32, 16, 64}}) {
    std::vector<std::int64_t> all_a(static_cast<std::size_t>(u), e);
    EXPECT_TRUE(validate_sizes(w, e, u, all_a).ok);
    std::vector<std::int64_t> all_b(static_cast<std::size_t>(u), 0);
    EXPECT_TRUE(validate_sizes(w, e, u, all_b).ok);
    std::vector<std::int64_t> alt(static_cast<std::size_t>(u));
    for (int i = 0; i < u; ++i) alt[static_cast<std::size_t>(i)] = (i % 2 == 0) ? e : 0;
    EXPECT_TRUE(validate_sizes(w, e, u, alt).ok);
  }
}

// Exhaustive grid property test: every (w, E <= w, warps) combination with
// randomized splits must be conflict free.
struct GridParam {
  int w;
  int e;
  int warps;
};

class ScheduleGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ScheduleGrid, ConflictFreeAndExactCoverage) {
  const auto [w, e, warps] = GetParam();
  const int u = w * warps;
  std::mt19937_64 rng(static_cast<std::uint64_t>(w * 1000003 + e * 1009 + warps));
  for (int trial = 0; trial < 30; ++trial) {
    const auto res = validate_sizes(w, e, u, random_sizes(rng, u, e));
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.max_conflicts, 0);
  }
}

namespace {
std::vector<GridParam> grid_params() {
  std::vector<GridParam> params;
  for (const int w : {2, 3, 4, 6, 8, 9, 12, 16, 32}) {
    for (int e = 1; e <= w; ++e) {
      for (const int warps : {1, 2, 4}) params.push_back({w, e, warps});
    }
  }
  return params;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(AllShapes, ScheduleGrid, ::testing::ValuesIn(grid_params()),
                         [](const ::testing::TestParamInfo<GridParam>& info) {
                           return "w" + std::to_string(info.param.w) + "_E" +
                                  std::to_string(info.param.e) + "_warps" +
                                  std::to_string(info.param.warps);
                         });

// E larger than w (the sort allows it even though the worst-case
// construction does not): the schedule must still be conflict free.
TEST(RoundSchedule, ElementsPerThreadLargerThanWarp) {
  std::mt19937_64 rng(5);
  for (const auto& [w, e] : std::vector<std::pair<int, int>>{{8, 12}, {8, 17}, {16, 24}}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto res = validate_sizes(w, e, 2 * w, random_sizes(rng, 2 * w, e));
      EXPECT_TRUE(res.ok) << "w=" << w << " E=" << e << ": " << res.error;
    }
  }
}

TEST(RoundSchedule, RegisterSlotsMatchReads) {
  // The register arrangement contract: thread i's x-th element of A_i lands
  // in slot (a_i + x) mod E and B_i's y-th in (a_i - 1 - y) mod E.
  std::mt19937_64 rng(6);
  const int w = 8, e = 6, u = 16;
  const auto sizes = random_sizes(rng, u, e);
  std::vector<std::int64_t> off(sizes.size());
  std::int64_t run = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    off[i] = run;
    run += sizes[i];
  }
  GatherShape shape{w, e, u, run, static_cast<std::int64_t>(u) * e - run};
  RoundSchedule sched(shape, off, sizes);
  for (int i = 0; i < u; ++i) {
    for (int j = 0; j < e; ++j) {
      const GatherRead r = sched.read(i, j);
      if (r.from_a) {
        const std::int64_t x = r.offset - sched.a_offset(i);
        EXPECT_EQ(sched.register_slot_of_a(i, x), j);
      } else {
        const std::int64_t y = r.offset - sched.b_offset(i);
        EXPECT_EQ(sched.register_slot_of_b(i, y), j);
      }
    }
  }
}

TEST(RoundSchedule, ReadsStayInThreadSubsequences) {
  std::mt19937_64 rng(7);
  const int w = 12, e = 9, u = 24;
  const auto sizes = random_sizes(rng, u, e);
  std::vector<std::int64_t> off(sizes.size());
  std::int64_t run = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    off[i] = run;
    run += sizes[i];
  }
  GatherShape shape{w, e, u, run, static_cast<std::int64_t>(u) * e - run};
  RoundSchedule sched(shape, off, sizes);
  for (int i = 0; i < u; ++i) {
    for (int j = 0; j < e; ++j) {
      const GatherRead r = sched.read(i, j);
      if (r.from_a) {
        EXPECT_GE(r.offset, sched.a_offset(i));
        EXPECT_LT(r.offset, sched.a_offset(i) + sched.a_size(i));
      } else {
        EXPECT_GE(r.offset, sched.b_offset(i));
        EXPECT_LT(r.offset, sched.b_offset(i) + sched.b_size(i));
      }
      EXPECT_GE(r.phys, 0);
      EXPECT_LT(r.phys, shape.total());
    }
  }
}

TEST(RoundSchedule, RoundOfRawIsModE) {
  // Section 3.2's invariant: element at raw index m is read in round m mod E.
  std::mt19937_64 rng(8);
  const int w = 9, e = 6, u = 18;
  const auto sizes = random_sizes(rng, u, e);
  std::vector<std::int64_t> off(sizes.size());
  std::int64_t run = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    off[i] = run;
    run += sizes[i];
  }
  GatherShape shape{w, e, u, run, static_cast<std::int64_t>(u) * e - run};
  RoundSchedule sched(shape, off, sizes);
  // The no-rho ablation's schedule reads the same raw indices, unshifted.
  RoundSchedule no_rho(shape, PairLayout::cf_no_rho(shape.la, shape.lb), off, sizes);
  for (int i = 0; i < u; ++i)
    for (int j = 0; j < e; ++j) {
      EXPECT_EQ(nt::mod(sched.read(i, j).raw, e), j);
      EXPECT_EQ(no_rho.read(i, j).raw, sched.read(i, j).raw);
      EXPECT_EQ(no_rho.read(i, j).phys, sched.read(i, j).raw);
    }
}

TEST(RoundSchedule, RejectsIllFormedShapes) {
  GatherShape bad{8, 5, 12, 20, 40};  // u not multiple of w
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  GatherShape bad2{8, 5, 16, 20, 40};  // la+lb != u*E
  EXPECT_THROW(bad2.validate(), std::invalid_argument);
  // Splits that do not prefix-sum.
  GatherShape shape{8, 5, 8, 20, 20};
  std::vector<std::int64_t> off(8, 0);
  std::vector<std::int64_t> sz(8, 5);
  EXPECT_THROW(RoundSchedule(shape, off, sz), std::invalid_argument);
  // A layout of other list lengths than the shape's.
  const std::vector<std::int64_t> sizes{5, 5, 5, 5, 0, 0, 0, 0};
  const std::vector<std::int64_t> offs{0, 5, 10, 15, 20, 20, 20, 20};
  EXPECT_NO_THROW(RoundSchedule(shape, PairLayout::cf_no_rho(20, 20), offs, sizes));
  EXPECT_THROW(RoundSchedule(shape, PairLayout::cf_no_rho(25, 15), offs, sizes),
               std::invalid_argument);
}
