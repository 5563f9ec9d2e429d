// Tests of merge path (co-rank) search and partitioning, including the
// fused per-warp split search of the sort kernels (sort/kernels.hpp).
#include "mergepath/merge_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "gather/permutation.hpp"
#include "gpusim/audit.hpp"
#include "gpusim/launcher.hpp"
#include "sort/key_value.hpp"
#include "sort/kernels.hpp"

namespace mp = cfmerge::mergepath;
namespace gpusim = cfmerge::gpusim;
namespace sort = cfmerge::sort;

namespace {
std::vector<int> sorted_random(std::mt19937_64& rng, std::size_t n, int lo = 0, int hi = 1000) {
  std::uniform_int_distribution<int> d(lo, hi);
  std::vector<int> v(n);
  for (auto& x : v) x = d(rng);
  std::sort(v.begin(), v.end());
  return v;
}

// Reference: stable merge positions — co-rank of diag is the number of
// A-elements among the first diag outputs of the stable merge.
std::vector<std::int64_t> reference_coranks(const std::vector<int>& a,
                                            const std::vector<int>& b) {
  std::vector<std::int64_t> co(a.size() + b.size() + 1);
  std::size_t i = 0, j = 0;
  co[0] = 0;
  for (std::size_t k = 0; k < a.size() + b.size(); ++k) {
    const bool take_a = i < a.size() && (j >= b.size() || a[i] <= b[j]);
    if (take_a)
      ++i;
    else
      ++j;
    co[k + 1] = static_cast<std::int64_t>(i);
  }
  return co;
}
}  // namespace

TEST(MergePath, MatchesStableMergeOnRandomInputs) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = sorted_random(rng, rng() % 64);
    const auto b = sorted_random(rng, rng() % 64);
    const auto ref = reference_coranks(a, b);
    for (std::int64_t diag = 0; diag <= static_cast<std::int64_t>(a.size() + b.size());
         ++diag) {
      EXPECT_EQ(mp::merge_path<int>(diag, a, b), ref[static_cast<std::size_t>(diag)])
          << "diag=" << diag;
    }
  }
}

TEST(MergePath, TiesPreferA) {
  // Stability: on equal keys, A's elements come first.
  const std::vector<int> a{5, 5, 5};
  const std::vector<int> b{5, 5};
  EXPECT_EQ(mp::merge_path<int>(1, a, b), 1);
  EXPECT_EQ(mp::merge_path<int>(3, a, b), 3);
  EXPECT_EQ(mp::merge_path<int>(4, a, b), 3);
}

TEST(MergePath, EmptySides) {
  const std::vector<int> a{1, 2, 3};
  const std::vector<int> empty;
  EXPECT_EQ(mp::merge_path<int>(2, a, empty), 2);
  EXPECT_EQ(mp::merge_path<int>(2, empty, a), 0);
  EXPECT_EQ(mp::merge_path<int>(0, a, a), 0);
}

TEST(MergePath, ExtremesConsumeEverything) {
  std::mt19937_64 rng(8);
  const auto a = sorted_random(rng, 40);
  const auto b = sorted_random(rng, 25);
  EXPECT_EQ(mp::merge_path<int>(65, a, b), 40);
  EXPECT_EQ(mp::merge_path<int>(0, a, b), 0);
}

TEST(Partition, ChunksCoverOutputExactly) {
  std::mt19937_64 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = sorted_random(rng, 64 + rng() % 64);
    const auto b = sorted_random(rng, 64 + rng() % 64);
    const std::int64_t chunk = 1 + static_cast<std::int64_t>(rng() % 32);
    const auto co = mp::partition<int>(a, b, chunk);
    EXPECT_EQ(co.front(), 0);
    EXPECT_EQ(co.back(), static_cast<std::int64_t>(a.size()));
    // Merging each chunk independently reproduces the full merge.
    std::vector<int> merged;
    for (std::size_t p = 0; p + 1 < co.size(); ++p) {
      const std::int64_t d0 = std::min<std::int64_t>(
          static_cast<std::int64_t>(p) * chunk, static_cast<std::int64_t>(a.size() + b.size()));
      const std::int64_t d1 = std::min<std::int64_t>(
          d0 + chunk, static_cast<std::int64_t>(a.size() + b.size()));
      std::vector<int> part;
      std::merge(a.begin() + co[p], a.begin() + co[p + 1],
                 b.begin() + (d0 - co[p]), b.begin() + (d1 - co[p + 1]),
                 std::back_inserter(part));
      merged.insert(merged.end(), part.begin(), part.end());
    }
    std::vector<int> expect;
    std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(expect));
    EXPECT_EQ(merged, expect);
  }
}

TEST(WarpCorankSearch, LockstepMatchesHostSearch) {
  std::mt19937_64 rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = sorted_random(rng, 50);
    const auto b = sorted_random(rng, 70);
    const int w = 8;
    std::vector<mp::LaneSearch> lanes(w);
    std::vector<std::int64_t> diags(w);
    for (int l = 0; l < w; ++l) {
      diags[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(rng() % 121);
      lanes[static_cast<std::size_t>(l)].init(diags[static_cast<std::size_t>(l)],
                                              static_cast<std::int64_t>(a.size()),
                                              static_cast<std::int64_t>(b.size()));
    }
    int probe_rounds = 0;
    auto probe = [&](std::span<const std::int64_t> a_addr, std::span<int> a_val,
                     std::span<const std::int64_t> b_addr, std::span<int> b_val) {
      ++probe_rounds;
      for (int l = 0; l < w; ++l) {
        const auto li = static_cast<std::size_t>(l);
        if (a_addr[li] != -1) a_val[li] = a[static_cast<std::size_t>(a_addr[li])];
        if (b_addr[li] != -1) b_val[li] = b[static_cast<std::size_t>(b_addr[li])];
      }
    };
    mp::warp_corank_search<int>(std::span<mp::LaneSearch>(lanes), probe, std::less<int>{});
    for (int l = 0; l < w; ++l) {
      EXPECT_EQ(lanes[static_cast<std::size_t>(l)].lo,
                mp::merge_path<int>(diags[static_cast<std::size_t>(l)], a, b));
    }
    // Lockstep rounds are bounded by the longest lane's binary search.
    EXPECT_LE(probe_rounds, 8);
  }
}

TEST(WarpCorankSearch, InactiveLanesStayUntouched) {
  const std::vector<int> a{1, 3, 5};
  const std::vector<int> b{2, 4, 6};
  std::vector<mp::LaneSearch> lanes(4);  // only lane 0 active
  lanes[0].init(3, 3, 3);
  auto probe = [&](std::span<const std::int64_t> a_addr, std::span<int> a_val,
                   std::span<const std::int64_t> b_addr, std::span<int> b_val) {
    for (int l = 1; l < 4; ++l) {
      EXPECT_EQ(a_addr[static_cast<std::size_t>(l)], -1);
      EXPECT_EQ(b_addr[static_cast<std::size_t>(l)], -1);
    }
    if (a_addr[0] != -1) a_val[0] = a[static_cast<std::size_t>(a_addr[0])];
    if (b_addr[0] != -1) b_val[0] = b[static_cast<std::size_t>(b_addr[0])];
  };
  mp::warp_corank_search<int>(std::span<mp::LaneSearch>(lanes), probe, std::less<int>{});
  EXPECT_EQ(lanes[0].lo, mp::merge_path<int>(3, a, b));
}

// ---------------------------------------------------------------------------
// Reference model: the device's one search per thread, written out with
// the host co-rank search.  The w start diagonals are searched in
// lockstep, each probe row fetched through SharedTile::gather; one shuffle
// hands lane l < w-1 lane l+1's start co-rank; lane w-1 alone searches the
// next thread's diagonal, bracketed to [a, a + E] (a its own start co-rank)
// within that diagonal's valid range, its rows fetched through gather with
// every other lane idle.  sort::warp_split_search must reproduce its
// splits, counters, chains and audited row stream exactly.

namespace {

/// One lockstep search of `lanes` (idle lanes: default LaneSearch) on
/// `warp`, each probe row fetched through SharedTile::gather (the B row
/// waiting for the previous round iff `b_dependent`).  Returns the number
/// of rounds.
template <typename T, typename PosA, typename PosB, typename Cmp>
int reference_search(gpusim::BlockContext& ctx, int warp, gpusim::SharedTile<T>& shmem,
                     std::span<mp::LaneSearch> lanes, PosA&& pos_a, PosB&& pos_b, Cmp cmp,
                     bool b_dependent = true) {
  const std::size_t w = lanes.size();
  std::array<std::int64_t, gpusim::kMaxLanes> pa;
  std::array<std::int64_t, gpusim::kMaxLanes> pb;
  int rounds = 0;
  auto probe = [&](std::span<const std::int64_t> a_addr, std::span<T> a_val,
                   std::span<const std::int64_t> b_addr, std::span<T> b_val) {
    ++rounds;
    for (std::size_t l = 0; l < w; ++l) {
      pa[l] = a_addr[l] == gpusim::kInactiveLane ? gpusim::kInactiveLane
                                                  : pos_a(static_cast<int>(l), a_addr[l]);
      pb[l] = b_addr[l] == gpusim::kInactiveLane ? gpusim::kInactiveLane
                                                  : pos_b(static_cast<int>(l), b_addr[l]);
    }
    ctx.charge_compute(warp, sort::cost::kSearchIterInstrs);
    shmem.gather(warp, std::span<const std::int64_t>(pa.data(), w), a_val, true);
    shmem.gather(warp, std::span<const std::int64_t>(pb.data(), w), b_val, b_dependent);
  };
  mp::warp_corank_search<T>(lanes, probe, cmp);
  return rounds;
}

/// The tail of both reference searches, given every lane's start co-rank:
/// the shuffle, then lane w-1's lone search of lane w's diagonal (its pair
/// is lane w's).  Writes out[0, w) and returns the lone search's rounds.
template <typename T, typename PosA, typename PosB, typename Cmp>
int reference_finish(gpusim::BlockContext& ctx, int warp, gpusim::SharedTile<T>& shmem,
                     std::span<const sort::LanePair> pairs,
                     std::span<const std::int64_t> start, PosA&& pos_a, PosB&& pos_b, Cmp cmp,
                     std::span<sort::ThreadSplit> out) {
  const std::size_t w = pairs.size() - 1;
  ctx.charge_compute(warp, sort::cost::kShuffleInstrs);

  // co[l]: lane l's end co-rank (pair end: na; else lane l+1's start).
  std::array<std::int64_t, gpusim::kMaxLanes> co;
  for (std::size_t l = 0; l + 1 < w; ++l) co[l] = start[l + 1];
  const sort::LanePair& next = pairs[w];
  const std::int64_t a = start[w - 1];
  int lone_rounds = 0;
  if (next.diag != 0) {
    std::array<mp::LaneSearch, gpusim::kMaxLanes> lone{};
    mp::LaneSearch& s = lone[w - 1];
    s.init(next.diag, next.na, next.nb);
    s.lo = std::max(s.lo, a);
    s.hi = std::min(s.hi, a + next.diag - pairs[w - 1].diag);
    lone_rounds = reference_search(ctx, warp, shmem, std::span<mp::LaneSearch>(lone.data(), w),
                                   pos_a, pos_b, cmp);
    co[w - 1] = s.lo;
  }
  for (std::size_t l = 0; l < w; ++l) {
    const sort::LanePair& p = pairs[l];
    const bool pair_end = pairs[l + 1].diag == 0;
    const std::int64_t end_diag = pair_end ? p.na + p.nb : pairs[l + 1].diag;
    const std::int64_t end = pair_end ? p.na : co[l];
    const std::int64_t a_size = end - start[l];
    out[l] = {start[l], a_size, p.diag - start[l], end_diag - p.diag - a_size};
  }
  return lone_rounds;
}

/// The reference model of one warp: writes out[0, w) and returns the lone
/// search's rounds.  Lane l translates with pos_a(l, .) / pos_b(l, .).
template <typename T, typename PosA, typename PosB, typename Cmp>
int reference_split_search(gpusim::BlockContext& ctx, int warp, gpusim::SharedTile<T>& shmem,
                           std::span<const sort::LanePair> pairs, PosA&& pos_a, PosB&& pos_b,
                           Cmp cmp, std::span<sort::ThreadSplit> out) {
  const std::size_t w = pairs.size() - 1;
  std::array<mp::LaneSearch, gpusim::kMaxLanes> lanes{};
  for (std::size_t l = 0; l < w; ++l) lanes[l].init(pairs[l].diag, pairs[l].na, pairs[l].nb);
  reference_search(ctx, warp, shmem, std::span<mp::LaneSearch>(lanes.data(), w), pos_a, pos_b,
                   cmp);
  std::array<std::int64_t, gpusim::kMaxLanes> start;
  for (std::size_t l = 0; l < w; ++l) start[l] = lanes[l].lo;
  return reference_finish(ctx, warp, shmem, pairs,
                          std::span<const std::int64_t>(start.data(), w), pos_a, pos_b, cmp,
                          out);
}

/// One warp-wide shared access as the auditor saw it.
struct Row {
  int warp;
  int conflicts;
  std::vector<std::int64_t> addrs;
  bool operator==(const Row&) const = default;
};

class RowRecorder final : public gpusim::MemoryAuditor {
 public:
  std::vector<Row> rows;
  void on_shared_alloc(int, std::uint64_t, std::size_t) override {}
  void on_shared_raw(int, std::uint64_t) override {}
  void on_shared_access(int, std::uint64_t, int warp, std::string_view,
                        std::span<const std::int64_t> addrs, bool, int,
                        int conflicts) override {
    rows.push_back({warp, conflicts, {addrs.begin(), addrs.end()}});
  }
  void on_global_access(int, int, std::string_view, std::span<const std::int64_t>,
                        std::int64_t, bool) override {}
  void on_barrier(int) override {}
};

/// A block of u threads, E outputs each, over a tile cut into list pairs of
/// `pair_len` elements: each pair holds A (its first `pair_la`) then B.
/// Thread i starts at output i*E of its pair — pair_len = u*E is one merge
/// window (the baseline's, serial_merge_pairs over one pair, or a stage of
/// the CF cascade, cf_cascade_core, with or without rho); pair_len =
/// 2*run < u*E is a block-sort round.
struct SearchShape {
  int w;
  int e;
  int u;
  std::int64_t pair_len;
  std::int64_t pair_la;
};

struct SearchRun {
  std::vector<sort::ThreadSplit> splits;
  gpusim::Counters counters;
  std::vector<double> chains;
  std::vector<Row> rows;
  int lone_rounds = 0;  ///< most rounds of one lone search (reference only)
};

template <typename T, typename Cmp = std::less<T>>
SearchRun run_search(bool reference, const SearchShape& sh, const std::vector<T>& tile,
                     Cmp cmp = Cmp{}) {
  const int w = sh.w;
  SearchRun run;
  run.splits.resize(static_cast<std::size_t>(sh.u));
  RowRecorder rec;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
  launcher.set_audit(&rec);
  launcher.launch(
      "split_search", gpusim::LaunchShape{1, sh.u, 0, 32}, [&](gpusim::BlockContext& ctx) {
        gpusim::SharedTile<T> shmem(ctx, tile.size());
        std::copy(tile.begin(), tile.end(), shmem.raw().begin());
        const std::int64_t na = sh.pair_la;
        const std::int64_t nb = sh.pair_len - sh.pair_la;
        std::array<sort::LanePair, gpusim::kMaxLanes + 1> pairs;
        std::array<std::int64_t, gpusim::kMaxLanes + 1> pbase;
        const auto pos_a = [&](int lane, std::int64_t x) {
          return pbase[static_cast<std::size_t>(lane)] + x;
        };
        const auto pos_b = [&](int lane, std::int64_t y) {
          return pbase[static_cast<std::size_t>(lane)] + na + y;
        };
        for (int warp = 0; warp < ctx.warps(); ++warp) {
          for (int lane = 0; lane <= w; ++lane) {
            const std::int64_t out0 = static_cast<std::int64_t>(warp * w + lane) * sh.e;
            pbase[static_cast<std::size_t>(lane)] = out0 / sh.pair_len * sh.pair_len;
            pairs[static_cast<std::size_t>(lane)] = {
                na, nb, out0 - pbase[static_cast<std::size_t>(lane)]};
          }
          const auto lanes = static_cast<std::size_t>(w);
          auto out = std::span<sort::ThreadSplit>(run.splits)
                         .subspan(static_cast<std::size_t>(warp * w), lanes);
          const auto lane_pairs = std::span<const sort::LanePair>(pairs.data(), lanes + 1);
          if (reference)
            run.lone_rounds = std::max(
                run.lone_rounds,
                reference_split_search(ctx, warp, shmem, lane_pairs, pos_a, pos_b, cmp, out));
          else
            sort::warp_split_search(ctx, warp, shmem, lane_pairs, pos_a, pos_b, cmp, out);
        }
        run.chains = ctx.warp_chains();
      });
  run.counters = launcher.total_counters();
  run.rows = std::move(rec.rows);
  return run;
}

void expect_same_splits(const std::vector<sort::ThreadSplit>& got,
                        const std::vector<sort::ThreadSplit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a_off, want[i].a_off) << "thread " << i;
    EXPECT_EQ(got[i].a_size, want[i].a_size) << "thread " << i;
    EXPECT_EQ(got[i].b_off, want[i].b_off) << "thread " << i;
    EXPECT_EQ(got[i].b_size, want[i].b_size) << "thread " << i;
  }
}

template <typename T, typename Cmp = std::less<T>>
SearchRun expect_matches_reference(const SearchShape& sh, const std::vector<T>& tile,
                                   Cmp cmp = Cmp{}) {
  SearchRun got = run_search(false, sh, tile, cmp);
  const SearchRun want = run_search(true, sh, tile, cmp);
  expect_same_splits(got.splits, want.splits);
  EXPECT_EQ(got.counters.warp_instructions, want.counters.warp_instructions);
  EXPECT_EQ(got.counters.shared_accesses, want.counters.shared_accesses);
  EXPECT_EQ(got.counters.shared_cycles, want.counters.shared_cycles);
  EXPECT_EQ(got.counters.bank_conflicts, want.counters.bank_conflicts);
  EXPECT_EQ(got.chains, want.chains);
  EXPECT_EQ(got.rows, want.rows);
  // Every probe row has an active lane, so every row is charged.
  EXPECT_EQ(got.counters.shared_accesses, got.rows.size());
  // The lone search is bracketed to E + 1 co-ranks.
  EXPECT_LE(want.lone_rounds, std::bit_width(static_cast<unsigned>(sh.e)));
  return got;
}

/// Sorted pairs of sorted lists with many duplicates.
std::vector<int> sorted_pairs(std::mt19937_64& rng, const SearchShape& sh) {
  std::vector<int> tile;
  const std::int64_t total = static_cast<std::int64_t>(sh.u) * sh.e;
  for (std::int64_t base = 0; base < total; base += sh.pair_len) {
    auto a = sorted_random(rng, static_cast<std::size_t>(sh.pair_la), 0, 20);
    auto b = sorted_random(rng, static_cast<std::size_t>(sh.pair_len - sh.pair_la), 0, 20);
    tile.insert(tile.end(), a.begin(), a.end());
    tile.insert(tile.end(), b.begin(), b.end());
  }
  return tile;
}

/// Host merge-path co-ranks of every thread's start and end, pair by pair.
void expect_host_coranks(const SearchShape& sh, const std::vector<int>& tile,
                         const std::vector<sort::ThreadSplit>& splits) {
  for (int i = 0; i < sh.u; ++i) {
    const std::int64_t out0 = static_cast<std::int64_t>(i) * sh.e;
    const std::int64_t base = out0 / sh.pair_len * sh.pair_len;
    const std::span<const int> pair(tile.data() + base, static_cast<std::size_t>(sh.pair_len));
    const auto a = pair.first(static_cast<std::size_t>(sh.pair_la));
    const auto b = pair.subspan(static_cast<std::size_t>(sh.pair_la));
    const sort::ThreadSplit& s = splits[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.a_off, mp::merge_path<int>(out0 - base, a, b)) << "thread " << i;
    EXPECT_EQ(s.a_off + s.a_size, mp::merge_path<int>(out0 - base + sh.e, a, b))
        << "thread " << i;
  }
}

}  // namespace

TEST(WarpSplitSearch, MatchesDeviceModelOnMergeWindows) {
  std::mt19937_64 rng(21);
  for (const auto& [w, e, warps] :
       std::vector<std::tuple<int, int, int>>{{4, 3, 2}, {8, 5, 2}, {64, 7, 1}, {64, 3, 2}}) {
    const int u = w * warps;
    const std::int64_t total = static_cast<std::int64_t>(u) * e;
    for (const std::int64_t la : {std::int64_t{0}, total, total / 3,
                                  static_cast<std::int64_t>(rng() % (total + 1))}) {
      SCOPED_TRACE("w=" + std::to_string(w) + " e=" + std::to_string(e) +
                   " la=" + std::to_string(la));
      const SearchShape sh{w, e, u, total, la};
      const auto tile = sorted_pairs(rng, sh);
      const SearchRun got = expect_matches_reference(sh, tile);
      expect_host_coranks(sh, tile, got.splits);
    }
  }
}

TEST(WarpSplitSearch, MatchesDeviceModelOnBlockSortRounds) {
  // Several list pairs per warp: a lane whose successor starts a new pair
  // ends at its own pair end and searches nothing.  With runs below w*E,
  // lane w starts a new pair and no lone search runs.
  std::mt19937_64 rng(22);
  for (const auto& [w, e, warps] :
       std::vector<std::tuple<int, int, int>>{{4, 3, 2}, {8, 5, 4}, {64, 3, 2}}) {
    const int u = w * warps;
    for (std::int64_t run = e; run < static_cast<std::int64_t>(u) * e; run *= 2) {
      SCOPED_TRACE("w=" + std::to_string(w) + " run=" + std::to_string(run));
      const SearchShape sh{w, e, u, 2 * run, run};
      const auto tile = sorted_pairs(rng, sh);
      const SearchRun got = expect_matches_reference(sh, tile);
      expect_host_coranks(sh, tile, got.splits);
    }
  }
}

TEST(WarpSplitSearch, EmptyListsIssueNoRows) {
  // |A| = 0 or |B| = 0: every search interval is empty, nothing is charged.
  const int w = 4, e = 3, u = 8;
  std::vector<int> tile(static_cast<std::size_t>(u * e));
  for (const std::int64_t la : {std::int64_t{0}, std::int64_t{u * e}}) {
    const SearchRun got = expect_matches_reference(SearchShape{w, e, u, u * e, la}, tile);
    EXPECT_TRUE(got.rows.empty());
    EXPECT_EQ(got.counters.shared_accesses, 0u);
    for (int i = 0; i < u; ++i)
      EXPECT_EQ(got.splits[static_cast<std::size_t>(i)].a_size, la == 0 ? 0 : e);
  }
}

TEST(WarpSplitSearch, KeyValueTiesTakeA) {
  // All keys equal: the first d outputs are A's, so co-rank(d) = min(d, |A|).
  using KV = sort::KeyValue<int, int>;
  const int w = 8, e = 5, u = 16;
  const std::int64_t total = u * e;
  for (const std::int64_t la : {std::int64_t{7}, total / 2, total - 3}) {
    std::vector<KV> tile(static_cast<std::size_t>(total));
    for (std::int64_t i = 0; i < total; ++i)
      tile[static_cast<std::size_t>(i)] = {42, static_cast<int>(i)};
    const SearchRun got = expect_matches_reference(SearchShape{w, e, u, total, la}, tile);
    for (int i = 0; i < u; ++i) {
      const std::int64_t d = static_cast<std::int64_t>(i) * e;
      EXPECT_EQ(got.splits[static_cast<std::size_t>(i)].a_off, std::min(d, la));
      EXPECT_EQ(got.splits[static_cast<std::size_t>(i)].a_size,
                std::min(d + e, la) - std::min(d, la));
    }
  }
}

TEST(WarpSplitSearch, LoneSearchBracketClippedAtListEnds) {
  // Disjoint key ranges put the co-ranks on the valid range's edges: with
  // A below B, co-rank(d) = min(d, na), so a warp whose last thread starts
  // just below na has its bracket [a, a + E] cut at na; with A above B,
  // co-rank(d) = max(0, d - nb), so the bracket starts at 0 and a warp
  // whose last thread starts just below nb has it raised to d - nb.
  // Ragged splits na != nb throughout.
  const int w = 4, e = 3, u = 16;
  const std::int64_t total = u * e;
  for (const bool a_first : {true, false}) {
    for (std::int64_t la = 0; la <= total; ++la) {
      SCOPED_TRACE(std::string(a_first ? "A below B" : "A above B") +
                   " la=" + std::to_string(la));
      const SearchShape sh{w, e, u, total, la};
      std::vector<int> tile(static_cast<std::size_t>(total));
      for (std::int64_t i = 0; i < total; ++i) {
        const bool in_a = i < la;
        tile[static_cast<std::size_t>(i)] =
            static_cast<int>(i) + (in_a == a_first ? 0 : 1000);
      }
      const SearchRun got = expect_matches_reference(sh, tile);
      expect_host_coranks(sh, tile, got.splits);
    }
  }
}

TEST(WarpSplitSearch, FewUniqueAndAllEqualKeys) {
  // Long runs of equal keys: every tie takes A, so each co-rank sits at
  // the end of a run of equals; the lone search must land there too.
  std::mt19937_64 rng(25);
  for (const auto& [w, e, warps] :
       std::vector<std::tuple<int, int, int>>{{4, 5, 3}, {8, 7, 2}, {32, 15, 2}}) {
    const int u = w * warps;
    const std::int64_t total = static_cast<std::int64_t>(u) * e;
    for (const int distinct : {1, 2, 3}) {
      for (const std::int64_t la : {total / 2, total / 3 + 1, total - e - 1}) {
        SCOPED_TRACE("w=" + std::to_string(w) + " distinct=" + std::to_string(distinct) +
                     " la=" + std::to_string(la));
        const SearchShape sh{w, e, u, total, la};
        auto a = sorted_random(rng, static_cast<std::size_t>(la), 0, distinct - 1);
        auto b = sorted_random(rng, static_cast<std::size_t>(total - la), 0, distinct - 1);
        std::vector<int> tile = a;
        tile.insert(tile.end(), b.begin(), b.end());
        const SearchRun got = expect_matches_reference(sh, tile);
        expect_host_coranks(sh, tile, got.splits);
      }
    }
  }
}

TEST(WarpSplitSearch, NeedsNoMonotonePredicate) {
  // NaN, +-inf and -0.0 in unsorted lists make the probe predicate
  // non-monotone along each diagonal.  The host search still issues and
  // decides exactly what the device model does, whatever the data.
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -0.0f,
                            0.0f,
                            1.0f,
                            -3.5f};
  std::mt19937_64 rng(23);
  for (const auto& [w, e, pairs_per_tile] :
       std::vector<std::tuple<int, int, int>>{{4, 5, 1}, {4, 3, 4}, {64, 3, 1}, {64, 7, 2}}) {
    const int u = 2 * w;
    const std::int64_t total = static_cast<std::int64_t>(u) * e;
    const std::int64_t pair_len = total / pairs_per_tile;
    std::vector<float> tile(static_cast<std::size_t>(total));
    for (auto& x : tile) x = specials[rng() % std::size(specials)];
    for (const std::int64_t la : {pair_len / 2, static_cast<std::int64_t>(rng() % pair_len)}) {
      SCOPED_TRACE("w=" + std::to_string(w) + " la=" + std::to_string(la));
      expect_matches_reference(SearchShape{w, e, u, pair_len, la}, tile);
    }
  }
}

namespace {

/// sort::pair_split_search over the sh.u threads of a tile cut into equal
/// list pairs of sh.pair_len (A first, then B), each pair at its own base.
SearchRun run_pair_split_search(const SearchShape& sh, const std::vector<int>& tile) {
  SearchRun run;
  RowRecorder rec;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(sh.w));
  launcher.set_audit(&rec);
  launcher.launch(
      "split_search", gpusim::LaunchShape{1, sh.u, 0, 32}, [&](gpusim::BlockContext& ctx) {
        gpusim::SharedTile<int> shmem(ctx, tile.size());
        std::copy(tile.begin(), tile.end(), shmem.raw().begin());
        const std::int64_t na = sh.pair_la;
        run.splits = sort::pair_split_search(
            ctx, shmem, static_cast<std::int64_t>(tile.size()) / sh.pair_len, na,
            sh.pair_len - na, ctx.warps(), cfmerge::cfprims::same_warp,
            [](std::int64_t base, std::int64_t x) { return base + x; },
            [na](std::int64_t base, std::int64_t y) { return base + na + y; }, std::less<int>{});
        run.chains = ctx.warp_chains();
      });
  run.counters = launcher.total_counters();
  run.rows = std::move(rec.rows);
  return run;
}

}  // namespace

TEST(PairSplitSearch, MultiPairSplitsMatchHostMergePath) {
  // P equal pairs back to back: one pair over the whole tile (the merge
  // window), two pairs (one pair across two warps, as in late block-sort
  // rounds), one pair per warp and several pairs per warp (early rounds),
  // on an 8- and a 32-lane device.  Every split matches the host merge path of its own pair, and
  // the search issues exactly the rows of the per-lane pair table.
  std::mt19937_64 rng(24);
  for (const int w : {8, 32}) {
    const int e = 5;
    const int warps = 4;
    const int u = w * warps;
    const std::int64_t total = static_cast<std::int64_t>(u) * e;
    for (const std::int64_t npairs :
         {std::int64_t{1}, std::int64_t{2}, std::int64_t{warps}, std::int64_t{4} * warps}) {
      const std::int64_t pair_len = total / npairs;
      for (const std::int64_t la : {pair_len / 2, pair_len / 3}) {
        SCOPED_TRACE("w=" + std::to_string(w) + " pairs=" + std::to_string(npairs) +
                     " la=" + std::to_string(la));
        const SearchShape sh{w, e, u, pair_len, la};
        const std::vector<int> tile = sorted_pairs(rng, sh);
        const SearchRun got = run_pair_split_search(sh, tile);
        ASSERT_EQ(got.splits.size(), static_cast<std::size_t>(u));
        for (int i = 0; i < u; ++i) {
          const std::int64_t out0 = static_cast<std::int64_t>(i) * e;
          const std::int64_t base = out0 / pair_len * pair_len;
          const std::span<const int> pair(tile.data() + base,
                                          static_cast<std::size_t>(pair_len));
          const auto a = pair.first(static_cast<std::size_t>(la));
          const auto b = pair.subspan(static_cast<std::size_t>(la));
          const std::int64_t start = mp::merge_path<int>(out0 - base, a, b);
          const std::int64_t end = mp::merge_path<int>(out0 - base + e, a, b);
          const sort::ThreadSplit& s = got.splits[static_cast<std::size_t>(i)];
          EXPECT_EQ(s.a_off, start) << "thread " << i;
          EXPECT_EQ(s.a_size, end - start) << "thread " << i;
          EXPECT_EQ(s.b_off, out0 - base - start) << "thread " << i;
          EXPECT_EQ(s.b_size, e - (end - start)) << "thread " << i;
        }
        const SearchRun table = run_search(false, sh, tile);
        expect_same_splits(got.splits, table.splits);
        EXPECT_EQ(got.counters.warp_instructions, table.counters.warp_instructions);
        EXPECT_EQ(got.counters.bank_conflicts, table.counters.bank_conflicts);
        EXPECT_EQ(got.chains, table.chains);
        EXPECT_EQ(got.rows, table.rows);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reference model of the lattice search (sort::lattice_split_search, the CF
// tile merge's split search): the w-ary search for lane 0's sample co-rank,
// the lockstep binary search of every other lane's sample co-rank run by
// mp::warp_corank_search over the sample lattice (sample x of A at offset
// xE, sample y of B at yE + E - 1, lane l on sample diagonal d_l / E), the
// scan of each lane's window, then the shuffle and lone search of the
// reference above.  Every probe row is fetched through SharedTile::gather.

namespace {

template <typename T, typename PosA, typename PosB, typename Cmp>
int reference_lattice_search(gpusim::BlockContext& ctx, int warp, gpusim::SharedTile<T>& shmem,
                             std::span<const sort::LanePair> pairs, PosA&& pos_a, PosB&& pos_b,
                             Cmp cmp, std::span<sort::ThreadSplit> out) {
  const std::size_t w = pairs.size() - 1;
  const auto lw = static_cast<std::int64_t>(w);
  const std::int64_t e = pairs[1].diag - pairs[0].diag;
  const auto ceil_e = [e](std::int64_t x) { return (x + e - 1) / e; };
  std::array<mp::LaneSearch, gpusim::kMaxLanes> lanes{};  // co-rank ranges
  for (std::size_t l = 0; l < w; ++l) lanes[l].init(pairs[l].diag, pairs[l].na, pairs[l].nb);

  std::array<std::int64_t, gpusim::kMaxLanes> pa;
  std::array<std::int64_t, gpusim::kMaxLanes> pb;
  std::array<T, gpusim::kMaxLanes> av;
  std::array<T, gpusim::kMaxLanes> bv;
  const auto fetch = [&](bool a_dependent) {
    ctx.charge_compute(warp, sort::cost::kSearchIterInstrs);
    shmem.gather(warp, std::span<const std::int64_t>(pa.data(), w),
                 std::span<T>(av.data(), w), a_dependent);
    shmem.gather(warp, std::span<const std::int64_t>(pb.data(), w),
                 std::span<T>(bv.data(), w), false);
  };

  // Lane 0's sample co-rank: each round lane q probes sample
  // a + s(q + 1) - 1, for the least stride s >= ceil((b - a) / w) coprime
  // to w.
  const std::int64_t d0 = pairs[0].diag;
  std::int64_t a = ceil_e(lanes[0].lo);
  std::int64_t b = ceil_e(lanes[0].hi);
  while (a < b) {
    std::int64_t s = (b - a + lw - 1) / lw;
    while (std::gcd(s, lw) != 1) ++s;
    for (std::size_t q = 0; q < w; ++q) {
      const std::int64_t j = a + s * static_cast<std::int64_t>(q + 1) - 1;
      pa[q] = j < b ? pos_a(0, j * e) : gpusim::kInactiveLane;
      pb[q] = j < b ? pos_b(0, d0 - 1 - j * e) : gpusim::kInactiveLane;
    }
    fetch(true);
    std::int64_t next_a = b;  // no hit: past the last probe
    std::int64_t next_b = b;
    for (std::size_t q = 0; q < w; ++q) {
      const std::int64_t j = a + s * static_cast<std::int64_t>(q + 1) - 1;
      if (j >= b) break;
      next_a = j + 1;
      if (cmp(bv[q], av[q])) {
        next_a = j - s + 1;
        next_b = j;
        break;
      }
    }
    a = next_a;
    b = next_b;
  }

  // The other lanes' sample co-ranks, in [max(a, ceil(lo/E)),
  // min(a + l, ceil(hi/E))].
  std::array<mp::LaneSearch, gpusim::kMaxLanes> samples{};
  for (std::size_t l = 0; l < w; ++l) {
    mp::LaneSearch& s = samples[l];
    s.diag = pairs[l].diag / e;
    s.active = true;
    s.lo = std::max(a, ceil_e(lanes[l].lo));
    s.hi = std::max(s.lo, std::min(a + static_cast<std::int64_t>(l), ceil_e(lanes[l].hi)));
  }
  reference_search(
      ctx, warp, shmem, std::span<mp::LaneSearch>(samples.data(), w),
      [&](int, std::int64_t x) { return pos_a(0, x * e); },
      [&](int, std::int64_t y) { return pos_b(0, y * e + e - 1); }, cmp,
      /*b_dependent=*/false);

  // The scan: lane l probes (J_l - 1)E + c in its window for c = 1 .. E-1
  // until a test holds; its co-rank is that probe, else the window's top.
  std::array<std::int64_t, gpusim::kMaxLanes> first;
  std::array<std::int64_t, gpusim::kMaxLanes> start;
  std::array<bool, gpusim::kMaxLanes> found{};
  for (std::size_t l = 0; l < w; ++l) {
    first[l] = std::max(lanes[l].lo, (samples[l].lo - 1) * e + 1);
    start[l] = std::min(lanes[l].hi, samples[l].lo * e);
  }
  const auto top = start;
  bool a_dependent = true;
  for (std::int64_t c = 1; c < e; ++c) {
    bool any = false;
    for (std::size_t l = 0; l < w; ++l) {
      const std::int64_t x = (samples[l].lo - 1) * e + c;
      const bool on = !found[l] && x >= first[l] && x < top[l];
      any |= on;
      pa[l] = on ? pos_a(0, x) : gpusim::kInactiveLane;
      pb[l] = on ? pos_b(0, pairs[l].diag - 1 - x) : gpusim::kInactiveLane;
    }
    if (!any) continue;
    fetch(a_dependent);
    a_dependent = false;
    for (std::size_t l = 0; l < w; ++l) {
      if (pa[l] == gpusim::kInactiveLane || !cmp(bv[l], av[l])) continue;
      found[l] = true;
      start[l] = (samples[l].lo - 1) * e + c;
    }
  }
  return reference_finish(ctx, warp, shmem, pairs,
                          std::span<const std::int64_t>(start.data(), w), pos_a, pos_b, cmp,
                          out);
}

/// One merge window of u threads, E outputs each, over lists a and b laid
/// out in the CF layout rho(A ∪ pi(B)) of a w-lane device: the reference
/// model warp by warp, or sort::pair_split_search with the lattice search.
template <typename T, typename Cmp = std::less<T>>
SearchRun run_lattice_search(bool reference, int w, int e, const std::vector<T>& a,
                             const std::vector<T>& b, Cmp cmp = Cmp{}) {
  const auto na = static_cast<std::int64_t>(a.size());
  const auto nb = static_cast<std::int64_t>(b.size());
  const std::int64_t total = na + nb;
  const int u = static_cast<int>(total / e);
  const auto layout = cfmerge::gather::PairLayout::cf(na, nb, w, e);
  SearchRun run;
  run.splits.resize(static_cast<std::size_t>(u));
  RowRecorder rec;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
  launcher.set_audit(&rec);
  launcher.launch(
      "split_search", gpusim::LaunchShape{1, u, 0, 32}, [&](gpusim::BlockContext& ctx) {
        gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(total));
        const std::span<T> raw = shmem.raw();
        for (std::int64_t x = 0; x < na; ++x)
          raw[static_cast<std::size_t>(layout.pos_a(x))] = a[static_cast<std::size_t>(x)];
        for (std::int64_t y = 0; y < nb; ++y)
          raw[static_cast<std::size_t>(layout.pos_b(y))] = b[static_cast<std::size_t>(y)];
        const auto pos_a = [&](auto, std::int64_t x) { return layout.pos_a(x); };
        const auto pos_b = [&](auto, std::int64_t y) { return layout.pos_b(y); };
        if (!reference) {
          run.splits = sort::pair_split_search<sort::SplitSearch::kLattice>(
              ctx, shmem, /*npairs=*/1, na, nb, ctx.warps(), cfmerge::cfprims::same_warp,
              pos_a, pos_b, cmp);
        } else {
          std::array<sort::LanePair, gpusim::kMaxLanes + 1> pairs;
          for (int warp = 0; warp < ctx.warps(); ++warp) {
            for (int lane = 0; lane <= w; ++lane) {
              const std::int64_t out0 = static_cast<std::int64_t>(warp * w + lane) * e;
              pairs[static_cast<std::size_t>(lane)] = {na, nb, out0 == total ? 0 : out0};
            }
            const auto lanes = static_cast<std::size_t>(w);
            run.lone_rounds = std::max(
                run.lone_rounds,
                reference_lattice_search(
                    ctx, warp, shmem, std::span<const sort::LanePair>(pairs.data(), lanes + 1),
                    pos_a, pos_b, cmp,
                    std::span<sort::ThreadSplit>(run.splits)
                        .subspan(static_cast<std::size_t>(warp * w), lanes)));
          }
        }
        run.chains = ctx.warp_chains();
      });
  run.counters = launcher.total_counters();
  run.rows = std::move(rec.rows);
  return run;
}

/// The lattice search against its reference model and the host merge path
/// (co-ranks by `cmp`, ties to A); every probe row is conflict free.
template <typename T, typename Cmp = std::less<T>>
SearchRun expect_lattice_matches(int w, int e, const std::vector<T>& a,
                                 const std::vector<T>& b, Cmp cmp = Cmp{}) {
  SearchRun got = run_lattice_search(false, w, e, a, b, cmp);
  const SearchRun want = run_lattice_search(true, w, e, a, b, cmp);
  expect_same_splits(got.splits, want.splits);
  EXPECT_EQ(got.counters.warp_instructions, want.counters.warp_instructions);
  EXPECT_EQ(got.counters.shared_accesses, want.counters.shared_accesses);
  EXPECT_EQ(got.counters.shared_cycles, want.counters.shared_cycles);
  EXPECT_EQ(got.counters.bank_conflicts, want.counters.bank_conflicts);
  EXPECT_EQ(got.chains, want.chains);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.counters.shared_accesses, got.rows.size());
  EXPECT_EQ(got.counters.bank_conflicts, 0u);
  EXPECT_EQ(got.counters.shared_cycles, got.counters.shared_accesses);
  EXPECT_LE(want.lone_rounds, std::bit_width(static_cast<unsigned>(e)));
  const auto co = [&](std::int64_t d) {
    return mp::merge_path(
        d, static_cast<std::int64_t>(a.size()), static_cast<std::int64_t>(b.size()),
        [&](std::int64_t i) { return a[static_cast<std::size_t>(i)]; },
        [&](std::int64_t i) { return b[static_cast<std::size_t>(i)]; }, cmp);
  };
  for (std::size_t i = 0; i < got.splits.size(); ++i) {
    const std::int64_t d = static_cast<std::int64_t>(i) * e;
    const sort::ThreadSplit& s = got.splits[i];
    EXPECT_EQ(s.a_off, co(d)) << "thread " << i;
    EXPECT_EQ(s.a_off + s.a_size, co(d + e)) << "thread " << i;
    EXPECT_EQ(s.b_off, d - s.a_off) << "thread " << i;
    EXPECT_EQ(s.a_size + s.b_size, e) << "thread " << i;
  }
  return got;
}

/// The (w, E, warps) shapes of the lattice tests: coprime and non-coprime
/// E, and windows wide enough (warps >= 4) that the w-ary search strides
/// by more than one sample.
const std::vector<std::tuple<int, int, int>>& lattice_shapes() {
  static const std::vector<std::tuple<int, int, int>> shapes{
      {4, 3, 4},   {8, 5, 4},   {8, 6, 6},   {8, 1, 4},
      {32, 15, 4}, {32, 16, 4}, {32, 17, 4}, {64, 7, 2}};
  return shapes;
}

}  // namespace

TEST(LatticeSplitSearch, MatchesDeviceModelAndHostMergePath) {
  // Random lists with many ties and with wide keys, ragged na != nb.
  std::mt19937_64 rng(31);
  for (const auto& [w, e, warps] : lattice_shapes()) {
    const std::int64_t total = static_cast<std::int64_t>(w) * warps * e;
    for (const std::int64_t la : {std::int64_t{0}, total, total / 2, total / 3 + 1,
                                  static_cast<std::int64_t>(rng() % (total + 1))}) {
      for (const int hi : {20, 1000000}) {
        SCOPED_TRACE("w=" + std::to_string(w) + " e=" + std::to_string(e) +
                     " la=" + std::to_string(la) + " hi=" + std::to_string(hi));
        const auto nb = static_cast<std::size_t>(total - la);
        expect_lattice_matches(w, e, sorted_random(rng, static_cast<std::size_t>(la), 0, hi),
                               sorted_random(rng, nb, 0, hi));
      }
    }
  }
}

TEST(LatticeSplitSearch, FewUniqueAndAllEqualKeys) {
  // Every tie takes A, so co-ranks sit at the ends of runs of equal keys.
  std::mt19937_64 rng(32);
  for (const auto& [w, e, warps] : lattice_shapes()) {
    const std::int64_t total = static_cast<std::int64_t>(w) * warps * e;
    for (const int distinct : {1, 2, 3}) {
      for (const std::int64_t la : {total / 2, total / 3 + 1, total - e - 1}) {
        SCOPED_TRACE("w=" + std::to_string(w) + " e=" + std::to_string(e) +
                     " distinct=" + std::to_string(distinct) + " la=" + std::to_string(la));
        expect_lattice_matches(
            w, e, sorted_random(rng, static_cast<std::size_t>(la), 0, distinct - 1),
            sorted_random(rng, static_cast<std::size_t>(total - la), 0, distinct - 1));
      }
    }
  }
}

TEST(LatticeSplitSearch, KeyValueTiesTakeA) {
  // All keys equal: co-rank(d) = min(d, |A|).
  using KV = sort::KeyValue<int, int>;
  const int w = 8, e = 5;
  const std::int64_t total = 4 * w * e;
  for (const std::int64_t la : {std::int64_t{7}, total / 2, total - 3}) {
    std::vector<KV> a(static_cast<std::size_t>(la));
    std::vector<KV> b(static_cast<std::size_t>(total - la));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = {42, static_cast<int>(i)};
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = {42, static_cast<int>(1000 + i)};
    const SearchRun got = expect_lattice_matches(w, e, a, b);
    for (std::size_t i = 0; i < got.splits.size(); ++i) {
      const std::int64_t d = static_cast<std::int64_t>(i) * e;
      EXPECT_EQ(got.splits[i].a_off, std::min(d, la));
    }
  }
}

TEST(LatticeSplitSearch, BracketsClippedAtListEnds) {
  // Disjoint key ranges put every co-rank on an edge of its diagonal's
  // valid range — min(d, na) with A below B, max(0, d - nb) with A above
  // B — so sample brackets and scan windows are cut at the list ends, for
  // every split na.
  for (const auto& [w, e] : std::vector<std::pair<int, int>>{{4, 3}, {8, 6}, {32, 15}}) {
    const std::int64_t total = static_cast<std::int64_t>(4) * w * e;
    for (const bool a_first : {true, false}) {
      for (std::int64_t la = 0; la <= total; la += (w == 32 ? 37 : 1)) {
        SCOPED_TRACE("w=" + std::to_string(w) + (a_first ? " A below B" : " A above B") +
                     " la=" + std::to_string(la));
        std::vector<int> a(static_cast<std::size_t>(la));
        std::vector<int> b(static_cast<std::size_t>(total - la));
        std::iota(a.begin(), a.end(), a_first ? 0 : 100000);
        std::iota(b.begin(), b.end(), a_first ? 100000 : 0);
        expect_lattice_matches(w, e, a, b);
      }
    }
  }
}
