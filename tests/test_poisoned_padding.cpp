// No kernel reads global memory past the real elements.  Every buffer a
// sort or merge pipeline owns is first filled with poison — the bottom of
// the key order (INT_MIN, −inf), which would sort ahead of every real key if
// any kernel read it — and then a ragged input runs through it: through a
// cached engine plan that a full poison input left behind (so stale data
// sits in every tail), and through the pipelines directly with the tails of
// buf, tmp and the batched staging buffer poisoned.  Outputs must equal
// std::stable_sort / std::merge of the real elements, and at the pipeline
// level every tail must still hold its poison afterwards (no kernel writes
// past the real elements either).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sort/batched_merge.hpp"
#include "sort/engine.hpp"
#include "sort/segmented_sort.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;

namespace {

template <typename K>
K poison() {
  if constexpr (std::numeric_limits<K>::has_infinity) return -std::numeric_limits<K>::infinity();
  return std::numeric_limits<K>::lowest();
}

template <typename K>
std::vector<K> random_keys(std::mt19937_64& rng, std::int64_t n) {
  std::vector<K> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<K>(static_cast<int>(rng() % 2001) - 1000);
  return v;
}

struct Shape {
  gpusim::DeviceSpec dev;
  int e = 0;
  int u = 0;
  [[nodiscard]] std::int64_t tile() const { return static_cast<std::int64_t>(e) * u; }
  [[nodiscard]] std::string name() const {
    return "w=" + std::to_string(dev.warp_size) + " E=" + std::to_string(e) +
           " u=" + std::to_string(u);
  }
};

std::vector<Shape> shapes() {
  return {{gpusim::DeviceSpec::tiny(8, 2), 5, 16}, {gpusim::DeviceSpec::scaled_turing(4), 7, 64}};
}

template <typename Cfg>
Cfg config(const Shape& s, Cfg cfg) {
  cfg.e = s.e;
  cfg.u = s.u;
  return cfg;
}

MergeConfig merge_config(const Shape& s, Variant v) {
  MergeConfig cfg;
  cfg.variant = v;
  return config(s, cfg);
}

MultiwayConfig multiway_config(const Shape& s, int k, MultiwayVariant v) {
  MultiwayConfig cfg;
  cfg.k = k;
  cfg.variant = v;
  return config(s, cfg);
}

/// Five tiles: a 2-way pass pairs tiles (0, 1), (2, 3) and leaves tile 4 a
/// lone run; k = 3, 4 and 8 leave groups of 2, 1 and 5 runs.  The ragged
/// lengths share the padded length 5·tile, so each reuses the plan the
/// full poison input built.
std::vector<std::int64_t> ragged_lengths(std::int64_t tile) {
  return {4 * tile + 1, 4 * tile + tile / 2, 5 * tile - 1};
}

/// Runs `sort_fn` on a full poison input of 5·tile elements, then on each
/// ragged length through the cached plan; each output must equal
/// std::stable_sort of the input.
template <typename K, typename SortFn>
void expect_cached_plan_ignores_stale_tails(SortEngine& engine, std::int64_t tile,
                                            SortFn&& sort_fn) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(tile));
  std::vector<K> full(static_cast<std::size_t>(5 * tile), poison<K>());
  sort_fn(full);
  for (const std::int64_t n : ragged_lengths(tile)) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::uint64_t hits = engine.stats().plan_hits;
    std::vector<K> data = random_keys<K>(rng, n);
    std::vector<K> expect = data;
    std::stable_sort(expect.begin(), expect.end());
    sort_fn(data);
    EXPECT_EQ(data, expect);
    EXPECT_EQ(engine.stats().plan_hits, hits + 1);
  }
}

}  // namespace

TEST(PoisonedPadding, CachedSortPlansReadNoStaleTail) {
  for (const Shape& s : shapes()) {
    SCOPED_TRACE(s.name());
    gpusim::Launcher launcher(s.dev);
    SortEngine engine(launcher);
    for (const Variant v : {Variant::CFMerge, Variant::Baseline}) {
      const MergeConfig cfg = merge_config(s, v);
      expect_cached_plan_ignores_stale_tails<std::int32_t>(
          engine, s.tile(), [&](std::vector<std::int32_t>& d) { engine.sort(d, cfg); });
      expect_cached_plan_ignores_stale_tails<float>(
          engine, s.tile(), [&](std::vector<float>& d) { engine.sort(d, cfg); });
    }
    for (const auto& [k, v] : {std::pair{2, MultiwayVariant::CFCascade},
                               std::pair{4, MultiwayVariant::CFCascade},
                               std::pair{8, MultiwayVariant::CFCascade},
                               std::pair{3, MultiwayVariant::LoserTree}}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      const MultiwayConfig cfg = multiway_config(s, k, v);
      expect_cached_plan_ignores_stale_tails<std::int32_t>(
          engine, s.tile(),
          [&](std::vector<std::int32_t>& d) { engine.sort_multiway(d, cfg); });
    }
  }
}

TEST(PoisonedPadding, CachedSortByKeyPlanReadsNoStaleTail) {
  // Baseline only: CF-Merge is stable only for distinct keys (ROADMAP
  // item 8), so its by_key order among equal keys is not std::stable_sort's.
  for (const Shape& s : shapes()) {
    SCOPED_TRACE(s.name());
    gpusim::Launcher launcher(s.dev);
    SortEngine engine(launcher);
    const MergeConfig cfg = merge_config(s, Variant::Baseline);
    const std::int64_t tile = s.tile();
    std::vector<float> keys(static_cast<std::size_t>(5 * tile), poison<float>());
    std::vector<std::int32_t> values(keys.size(), -1);
    engine.sort_by_key(keys, values, cfg);
    std::mt19937_64 rng(3);
    for (const std::int64_t n : ragged_lengths(tile)) {
      SCOPED_TRACE("n=" + std::to_string(n));
      keys = random_keys<float>(rng, n);
      for (auto& key : keys) key = std::floor(key / 64);  // ~32 distinct keys: many ties
      values.resize(keys.size());
      for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<std::int32_t>(i);
      std::vector<std::size_t> order(keys.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
      const std::vector<float> in_keys = keys;
      engine.sort_by_key(keys, values, cfg);
      for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(keys[i], in_keys[order[i]]) << "i=" << i;
        EXPECT_EQ(values[i], static_cast<std::int32_t>(order[i])) << "i=" << i;
      }
    }
  }
}

TEST(PoisonedPadding, SortPipelinesReadAndWriteNoTail) {
  // The one-segment pipeline a sort plan holds (built for the padded
  // length; the real one is set per input) and a segmented batch, with the
  // tails of buf and tmp poisoned.
  for (const Shape& s : shapes()) {
    SCOPED_TRACE(s.name());
    const std::int64_t tile = s.tile();
    const std::vector<std::vector<std::int64_t>> batches = {
        {5 * tile}, {1, tile - 1, tile + 1, 3 * tile / 2}};
    for (const std::vector<std::int64_t>& lens : batches) {
      for (const Variant v : {Variant::CFMerge, Variant::Baseline}) {
        SCOPED_TRACE("segments=" + std::to_string(lens.size()) +
                     " variant=" + std::to_string(static_cast<int>(v)));
        gpusim::Launcher launcher(s.dev);
        gpusim::KernelGraph graph;
        std::vector<std::int32_t> buf, tmp;
        detail::BatchLayout layout;
        std::vector<std::int64_t> boundaries;
        int passes = 0;
        detail::enqueue_segmented_pipeline(graph, lens, buf, tmp, layout, boundaries,
                                           merge_config(s, v), s.dev.warp_size, passes);
        std::vector<std::int64_t> real = lens;
        if (lens.size() == 1) real[0] = layout.fill.n = lens[0] - tile / 2 - 1;
        std::mt19937_64 rng(5);
        std::fill(buf.begin(), buf.end(), poison<std::int32_t>());
        std::fill(tmp.begin(), tmp.end(), poison<std::int32_t>());
        std::vector<std::vector<std::int32_t>> segs;
        for (std::size_t i = 0; i < real.size(); ++i) {
          segs.push_back(random_keys<std::int32_t>(rng, real[i]));
          std::copy(segs[i].begin(), segs[i].end(), layout.at(buf, i));
        }
        launcher.run(graph);
        for (std::size_t i = 0; i < real.size(); ++i) {
          SCOPED_TRACE("segment " + std::to_string(i));
          std::stable_sort(segs[i].begin(), segs[i].end());
          const int seg_passes = merge_pass_count(lens[i], tile);
          const auto out = layout.at(seg_passes % 2 ? tmp : buf, i);
          EXPECT_TRUE(std::equal(segs[i].begin(), segs[i].end(), out));
          const std::int64_t padded = (lens[i] + tile - 1) / tile * tile;
          for (std::vector<std::int32_t>* b : {&buf, &tmp}) {
            const auto tail = layout.at(*b, i);
            EXPECT_TRUE(std::all_of(tail + real[i], tail + padded, [](std::int32_t x) {
              return x == poison<std::int32_t>();
            }));
          }
        }
      }
    }
  }
}

TEST(PoisonedPadding, BatchedPipelineReadsAndWritesNoTail) {
  for (const Shape& s : shapes()) {
    const std::int64_t tile = s.tile();
    for (const Variant v : {Variant::CFMerge, Variant::Baseline}) {
      SCOPED_TRACE(s.name() + " variant=" + std::to_string(static_cast<int>(v)));
      std::mt19937_64 rng(7);
      std::vector<std::vector<std::int32_t>> as, bs;
      for (const auto& [na, nb] : std::vector<std::pair<std::int64_t, std::int64_t>>{
               {tile, tile}, {0, tile / 2 + 1}, {2 * tile + 3, 1}, {1, 0}, {tile - 1, tile + 7}}) {
        as.push_back(random_keys<std::int32_t>(rng, na));
        bs.push_back(random_keys<std::int32_t>(rng, nb));
        std::sort(as.back().begin(), as.back().end());
        std::sort(bs.back().begin(), bs.back().end());
      }
      gpusim::Launcher launcher(s.dev);
      gpusim::KernelGraph graph;
      std::vector<std::int32_t> staging, packed;
      detail::BatchLayout layout;
      std::vector<std::int64_t> boundaries;
      detail::enqueue_batched_pipeline(graph, as, bs, staging, packed, layout, boundaries,
                                       merge_config(s, v), s.dev.warp_size);
      std::fill(staging.begin(), staging.end(), poison<std::int32_t>());
      std::fill(packed.begin(), packed.end(), poison<std::int32_t>());
      for (std::size_t p = 0; p < as.size(); ++p)
        std::copy(bs[p].begin(), bs[p].end(),
                  std::copy(as[p].begin(), as[p].end(), layout.at(staging, p)));
      launcher.run(graph);
      for (std::size_t p = 0; p < as.size(); ++p) {
        SCOPED_TRACE("pair " + std::to_string(p));
        std::vector<std::int32_t> expect;
        std::merge(as[p].begin(), as[p].end(), bs[p].begin(), bs[p].end(),
                   std::back_inserter(expect));
        const auto out = layout.at(packed, p);
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), out));
        const auto len = static_cast<std::int64_t>(expect.size());
        const std::int64_t padded = (len + tile - 1) / tile * tile;
        EXPECT_TRUE(std::all_of(out + len, out + padded,
                                [](std::int32_t x) { return x == poison<std::int32_t>(); }));
      }
    }
  }
}

TEST(PoisonedPadding, CachedSegmentedAndBatchedPlansReadNoStaleTail) {
  // Through the engine: a plan's second call reuses buffers whose tails
  // the first call's poison and intermediate data left behind.
  for (const Shape& s : shapes()) {
    SCOPED_TRACE(s.name());
    const std::int64_t tile = s.tile();
    gpusim::Launcher launcher(s.dev);
    SortEngine engine(launcher);
    const MergeConfig cfg = merge_config(s, Variant::CFMerge);
    const std::vector<std::int64_t> lens = {1, tile - 1, tile + 1, 3 * tile / 2};
    std::mt19937_64 rng(9);
    for (const bool poisoned : {true, false}) {
      std::vector<std::vector<std::int32_t>> segs;
      for (const std::int64_t n : lens)
        segs.push_back(poisoned ? std::vector<std::int32_t>(static_cast<std::size_t>(n),
                                                            poison<std::int32_t>())
                                : random_keys<std::int32_t>(rng, n));
      auto expect = segs;
      for (auto& seg : expect) std::stable_sort(seg.begin(), seg.end());
      engine.segmented_sort(segs, cfg);
      EXPECT_EQ(segs, expect);
    }
    for (const bool poisoned : {true, false}) {
      std::vector<std::vector<std::int32_t>> as, bs, outs;
      for (const auto& [na, nb] : std::vector<std::pair<std::int64_t, std::int64_t>>{
               {tile / 2, tile + 3}, {1, 0}, {2 * tile - 1, tile / 3}}) {
        as.push_back(poisoned ? std::vector<std::int32_t>(static_cast<std::size_t>(na),
                                                          poison<std::int32_t>())
                              : random_keys<std::int32_t>(rng, na));
        bs.push_back(random_keys<std::int32_t>(rng, nb));
        std::sort(as.back().begin(), as.back().end());
        std::sort(bs.back().begin(), bs.back().end());
      }
      engine.batched_merge(as, bs, outs, cfg);
      for (std::size_t p = 0; p < as.size(); ++p) {
        std::vector<std::int32_t> expect;
        std::merge(as[p].begin(), as[p].end(), bs[p].begin(), bs[p].end(),
                   std::back_inserter(expect));
        EXPECT_EQ(outs[p], expect) << "pair " << p;
      }
    }
    EXPECT_EQ(engine.stats().plan_hits, 2u);
  }
}
