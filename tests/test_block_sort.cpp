// Tests of the block sort kernel (the blocksort stage shared by both
// variants).
#include "sort/block_sort.hpp"
#include "sort/key_value.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <string>

using namespace cfmerge;
using namespace cfmerge::sort;

namespace {
std::vector<int> run_block_sort(int w, int e, int u, std::vector<int> data,
                                gpusim::Counters* out_counters = nullptr) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
  const std::int64_t tile = static_cast<std::int64_t>(u) * e;
  EXPECT_EQ(static_cast<std::int64_t>(data.size()) % tile, 0);
  const int blocks = static_cast<int>(static_cast<std::int64_t>(data.size()) / tile);
  launcher.launch("block_sort", gpusim::LaunchShape{blocks, u, 0, 32},
                  [&](gpusim::BlockContext& ctx) {
                    block_sort_body<int>(ctx, std::span<int>(data), e);
                  });
  if (out_counters) *out_counters = launcher.total_counters();
  return data;
}
}  // namespace

TEST(BlockSort, SortsSingleTile) {
  std::mt19937_64 rng(1);
  for (const auto& [w, e, u] :
       std::vector<std::tuple<int, int, int>>{{4, 3, 8}, {8, 5, 16}, {8, 6, 32}, {16, 7, 32}}) {
    std::vector<int> data(static_cast<std::size_t>(u) * static_cast<std::size_t>(e));
    for (auto& x : data) x = static_cast<int>(rng() % 1000);
    const std::vector<int> sorted_ref = [&] {
      auto v = data;
      std::sort(v.begin(), v.end());
      return v;
    }();
    const auto out = run_block_sort(w, e, u, data);
    EXPECT_EQ(out, sorted_ref) << "w=" << w << " e=" << e << " u=" << u;
  }
}

TEST(BlockSort, SortsEachTileIndependently) {
  std::mt19937_64 rng(2);
  const int w = 8, e = 5, u = 16, blocks = 4;
  const std::int64_t tile = static_cast<std::int64_t>(u) * e;
  std::vector<int> data(static_cast<std::size_t>(tile) * blocks);
  for (auto& x : data) x = static_cast<int>(rng() % 1000);
  const std::vector<int> orig = data;
  const auto out = run_block_sort(w, e, u, data);
  for (int b = 0; b < blocks; ++b) {
    std::vector<int> expect(orig.begin() + static_cast<std::ptrdiff_t>(b * tile),
                            orig.begin() + static_cast<std::ptrdiff_t>((b + 1) * tile));
    std::sort(expect.begin(), expect.end());
    const std::vector<int> got(out.begin() + static_cast<std::ptrdiff_t>(b * tile),
                               out.begin() + static_cast<std::ptrdiff_t>((b + 1) * tile));
    EXPECT_EQ(got, expect) << "tile " << b;
  }
}

TEST(BlockSort, AlreadySortedAndReverse) {
  const int w = 8, e = 4, u = 16;
  std::vector<int> data(static_cast<std::size_t>(u) * e);
  std::iota(data.begin(), data.end(), 0);
  const auto sorted_out = run_block_sort(w, e, u, data);
  EXPECT_TRUE(std::is_sorted(sorted_out.begin(), sorted_out.end()));
  std::reverse(data.begin(), data.end());
  const auto out = run_block_sort(w, e, u, data);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(BlockSort, DuplicateHeavyInput) {
  std::mt19937_64 rng(3);
  const int w = 8, e = 6, u = 16;
  std::vector<int> data(static_cast<std::size_t>(u) * e);
  for (auto& x : data) x = static_cast<int>(rng() % 4);
  const auto out = run_block_sort(w, e, u, data);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(BlockSort, RequiresPowerOfTwoThreads) {
  std::vector<int> data(12 * 4);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(4));
  EXPECT_THROW(
      launcher.launch("block_sort", gpusim::LaunchShape{1, 12, 0, 32},
                      [&](gpusim::BlockContext& ctx) {
                        block_sort_body<int>(ctx, std::span<int>(data), 4);
                      }),
      std::invalid_argument);
}

TEST(BlockSort, StrideECoprimalityGovernsThreadSortConflicts) {
  // With gcd(w, E) = 1 the stride-E register load/store is conflict free;
  // with gcd > 1 it conflicts — the classic heuristic the paper discusses.
  std::mt19937_64 rng(4);
  auto conflicts_in = [&](int e) {
    const int w = 8, u = 16;
    std::vector<int> data(static_cast<std::size_t>(u) * static_cast<std::size_t>(e));
    for (auto& x : data) x = static_cast<int>(rng() % 1000);
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
    launcher.launch("block_sort", gpusim::LaunchShape{1, u, 0, 32},
                    [&](gpusim::BlockContext& ctx) {
                      block_sort_body<int>(ctx, std::span<int>(data), e);
                    });
    std::uint64_t thread_sort_conflicts = 0;
    const gpusim::PhaseCounters phases = launcher.phase_counters();
    for (const auto& [name, c] : phases.phases())
      if (name == "bsort.thread_sort") thread_sort_conflicts = c.bank_conflicts;
    return thread_sort_conflicts;
  };
  EXPECT_EQ(conflicts_in(5), 0u);  // gcd(8,5)=1
  EXPECT_GT(conflicts_in(6), 0u);  // gcd(8,6)=2
  EXPECT_GT(conflicts_in(8), 0u);  // gcd(8,8)=8
}

TEST(BlockSort, CountsAllPhases) {
  const int w = 8, e = 5, u = 16;
  std::vector<int> data(static_cast<std::size_t>(u) * e, 1);
  gpusim::Counters c;
  run_block_sort(w, e, u, data, &c);
  EXPECT_GT(c.shared_accesses, 0u);
  EXPECT_GT(c.gmem_transactions, 0u);
  EXPECT_GT(c.warp_instructions, 0u);
  EXPECT_GT(c.barriers, 0u);
}

// ---------------------------------------------------------------------------
// Ragged tiles: only the first m elements are real.  The block sort reads
// and writes only those and skips the work over padding; the tile's real
// prefix must come out as std::stable_sort of it, and the rest of the tile
// as the caller left it.
// ---------------------------------------------------------------------------

namespace {

struct RaggedShape {
  gpusim::DeviceSpec dev;
  int e = 0;
  int u = 0;
};

/// tiny(8, 2) and a 32-lane device, each at gcd(w, E) = 1 and > 1.
std::vector<RaggedShape> ragged_shapes() {
  return {{gpusim::DeviceSpec::tiny(8, 2), 5, 16},
          {gpusim::DeviceSpec::tiny(8, 2), 6, 32},
          {gpusim::DeviceSpec::scaled_turing(4), 7, 64},
          {gpusim::DeviceSpec::scaled_turing(4), 8, 64}};
}

/// The real lengths under test: around a thread's E, a warp's wE and half
/// the tile, plus one element and the full tile.
std::vector<std::int64_t> ragged_lengths(int w, int e, std::int64_t tile) {
  const std::int64_t we = static_cast<std::int64_t>(w) * e;
  return {1, e - 1, e, we - 1, we, we + 1, tile / 2, tile / 2 + 1, tile - 1, tile};
}

/// Sorts one tile whose first m elements are real, with baseline or CF
/// rounds; returns the tile and the launch's counters.
template <typename T>
std::vector<T> sort_ragged_tile(const RaggedShape& s, bool cf_rounds, std::vector<T> tile,
                                std::int64_t m, gpusim::Counters* counters = nullptr) {
  gpusim::Launcher launcher(s.dev);
  const TileFill fill{m, {}};
  const std::size_t bytes = tile.size() * sizeof(T) * (cf_rounds ? 2 : 1);
  launcher.launch("block_sort", gpusim::LaunchShape{1, s.u, bytes, 32},
                  [&](gpusim::BlockContext& ctx) {
                    block_sort_body<T>(ctx, std::span<T>(tile), s.e, cf_rounds, std::less<T>{},
                                       {}, fill);
                  });
  if (counters) *counters = launcher.total_counters();
  return tile;
}

/// The bottom of a key order: a value that would sort first if a kernel
/// read it.
template <typename K>
K bottom() {
  if constexpr (std::numeric_limits<K>::has_infinity) return -std::numeric_limits<K>::infinity();
  return std::numeric_limits<K>::lowest();
}
template <typename T>
T poison() {
  if constexpr (requires { typename T::key_type; })
    return {bottom<typename T::key_type>(), -1};
  else
    return bottom<T>();
}

/// Writes `real` followed by poison (the bottom of the key order) into a
/// tile, sorts it as a ragged tile of m = real.size(), and checks that
/// [0, m) is std::stable_sort of `real` and [m, tile) still holds the
/// poison: the block neither reads nor writes global memory past m.  CF
/// rounds are stable only for distinct keys (sort/key_value.hpp), so there
/// the pairs whose key ties the sentinel's may come out in any order: they
/// are checked as a multiset, so none may be lost to the padding.
template <typename T>
void expect_ragged_sorts(const RaggedShape& s, bool cf_rounds, const std::vector<T>& real,
                         std::int64_t tile) {
  const auto m = static_cast<std::ptrdiff_t>(real.size());
  std::vector<T> input = real;
  input.resize(static_cast<std::size_t>(tile), poison<T>());
  std::vector<T> expect = real;
  std::stable_sort(expect.begin(), expect.end());
  std::vector<T> got =
      sort_ragged_tile(s, cf_rounds, input, static_cast<std::int64_t>(real.size()));
  ASSERT_EQ(got.size(), input.size());
  if constexpr (requires { got[0].value; }) {
    if (cf_rounds) {
      const auto top = padding_sentinel<T>::value().key;
      const auto tied = [top](const T& p) { return p.key == top; };
      const auto by_value = [](const T& a, const T& b) { return a.value < b.value; };
      std::sort(std::find_if(got.begin(), got.begin() + m, tied), got.begin() + m, by_value);
      std::sort(std::find_if(expect.begin(), expect.end(), tied), expect.end(), by_value);
    }
    for (std::ptrdiff_t i = 0; i < m; ++i) {
      EXPECT_EQ(got[i].key, expect[i].key) << "i=" << i;
      EXPECT_EQ(got[i].value, expect[i].value) << "i=" << i;
    }
    for (std::ptrdiff_t i = m; i < static_cast<std::ptrdiff_t>(got.size()); ++i) {
      EXPECT_EQ(got[i].key, input[i].key) << "i=" << i;
      EXPECT_EQ(got[i].value, input[i].value) << "i=" << i;
    }
  } else {
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), got.begin()));
    EXPECT_TRUE(std::equal(got.begin() + m, got.end(), input.begin() + m));
  }
}

}  // namespace

TEST(BlockSortRagged, SortsTheRealPrefixAndLeavesTheRestOfTheTile) {
  std::mt19937_64 rng(5);
  for (const RaggedShape& s : ragged_shapes()) {
    const std::int64_t tile = static_cast<std::int64_t>(s.u) * s.e;
    for (const bool cf_rounds : {false, true}) {
      for (const std::int64_t m : ragged_lengths(s.dev.warp_size, s.e, tile)) {
        SCOPED_TRACE("w=" + std::to_string(s.dev.warp_size) + " E=" + std::to_string(s.e) +
                     " m=" + std::to_string(m) + " cf_rounds=" + std::to_string(cf_rounds));
        const auto count = static_cast<std::size_t>(m);
        // Plain int32 keys.
        std::vector<std::int32_t> ints(count);
        for (auto& x : ints) x = static_cast<std::int32_t>(rng() % 100000) - 50000;
        expect_ragged_sorts(s, cf_rounds, ints, tile);
        // Float keys, some of them a real +inf equal to the padding.
        std::vector<float> floats(count);
        for (auto& x : floats)
          x = rng() % 5 == 0 ? std::numeric_limits<float>::infinity()
                             : static_cast<float>(static_cast<int>(rng() % 2001) - 1000) / 8;
        expect_ragged_sorts(s, cf_rounds, floats, tile);
        // by_key pairs: distinct keys below the top, and the largest real
        // keys equal to the sentinel's (values tell them from the padding).
        using KV = KeyValue<std::int32_t, std::int32_t>;
        std::vector<KV> pairs(count);
        for (std::size_t i = 0; i < count; ++i)
          pairs[i] = {static_cast<std::int32_t>(i), static_cast<std::int32_t>(i + 1)};
        std::shuffle(pairs.begin(), pairs.end(), rng);
        for (KV& p : pairs)
          if (p.key >= m - 3) p.key = std::numeric_limits<std::int32_t>::max();
        expect_ragged_sorts(s, cf_rounds, pairs, tile);
      }
    }
  }
}

TEST(BlockSortRagged, HalfATileOrLessCostsStrictlyFewerSharedAccesses) {
  std::mt19937_64 rng(6);
  for (const RaggedShape& s : ragged_shapes()) {
    const std::int64_t tile = static_cast<std::int64_t>(s.u) * s.e;
    for (const bool cf_rounds : {false, true}) {
      std::vector<std::int32_t> data(static_cast<std::size_t>(tile));
      for (auto& x : data) x = static_cast<std::int32_t>(rng() % 100000);
      gpusim::Counters full;
      sort_ragged_tile(s, cf_rounds, data, tile, &full);
      for (const std::int64_t m : ragged_lengths(s.dev.warp_size, s.e, tile)) {
        if (m > tile / 2) continue;
        std::vector<std::int32_t> ragged = data;
        std::fill(ragged.begin() + static_cast<std::ptrdiff_t>(m), ragged.end(),
                  padding_sentinel<std::int32_t>::value());
        gpusim::Counters c;
        sort_ragged_tile(s, cf_rounds, ragged, m, &c);
        EXPECT_LT(c.shared_accesses, full.shared_accesses)
            << "w=" << s.dev.warp_size << " E=" << s.e << " m=" << m
            << " cf_rounds=" << cf_rounds;
      }
    }
  }
}

TEST(BlockSortRagged, FullTileFillChargesExactlyTheUnclampedSort) {
  // A full tile given as a length argument is the unclamped sort, counter
  // for counter; one read from a per-tile device array adds one 4-byte
  // lane-0 read.
  std::mt19937_64 rng(7);
  const RaggedShape s{gpusim::DeviceSpec::tiny(8, 2), 5, 16};
  const std::int64_t tile = static_cast<std::int64_t>(s.u) * s.e;
  std::vector<std::int32_t> data(static_cast<std::size_t>(tile));
  for (auto& x : data) x = static_cast<std::int32_t>(rng() % 1000);
  const auto run = [&](const TileFill& fill) {
    gpusim::Launcher launcher(s.dev);
    std::vector<std::int32_t> tile_data = data;
    launcher.launch("block_sort", gpusim::LaunchShape{1, s.u, 0, 32},
                    [&](gpusim::BlockContext& ctx) {
                      block_sort_body<std::int32_t>(ctx, std::span<std::int32_t>(tile_data), s.e,
                                                    false, std::less<std::int32_t>{}, {}, fill);
                    });
    return launcher.total_counters();
  };
  // TileFill{} (every tile full) is block_sort_body's default: the
  // unclamped sort.
  const gpusim::Counters unclamped = run(TileFill{});
  EXPECT_EQ(run(TileFill{tile, {}}), unclamped);
  const gpusim::Counters read = run(TileFill{-1, {static_cast<std::int32_t>(tile)}});
  EXPECT_EQ(read.gmem_requests, unclamped.gmem_requests + 1);
  EXPECT_EQ(read.gmem_bytes, unclamped.gmem_bytes + sizeof(std::int32_t));
  EXPECT_EQ(read.shared_accesses, unclamped.shared_accesses);
}
