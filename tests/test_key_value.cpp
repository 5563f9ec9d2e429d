// Tests of key-value sorting (sort_by_key) and the padding sentinel trait.
#include "sort/key_value.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "gpusim/launcher.hpp"
#include "sort/merge_sort.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;

TEST(KeyValueStruct, ComparesByKeyOnly) {
  const KeyValue<int, int> a{1, 99};
  const KeyValue<int, int> b{2, 0};
  const KeyValue<int, int> c{1, 0};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < c);
  EXPECT_TRUE(a == c);  // key equality
}

TEST(PaddingSentinel, TopOfOrderForScalarsAndPairs) {
  EXPECT_EQ(padding_sentinel<int>::value(), std::numeric_limits<int>::max());
  EXPECT_EQ(padding_sentinel<float>::value(), std::numeric_limits<float>::infinity());
  const auto kv = padding_sentinel<KeyValue<int, double>>::value();
  EXPECT_EQ(kv.key, std::numeric_limits<int>::max());
  const auto fkv = padding_sentinel<KeyValue<float, int>>::value();
  EXPECT_EQ(fkv.key, std::numeric_limits<float>::infinity());
}

namespace {

/// Ragged float data salted with both infinities and both finite extremes.
std::vector<float> extreme_floats(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest()};
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng() % 8 == 0 ? specials[rng() % 4]
                       : static_cast<float>(static_cast<int>(rng() % 20001) - 10000);
  }
  return v;
}

std::vector<float> stable_sorted(std::vector<float> v) {
  std::stable_sort(v.begin(), v.end());
  return v;
}

}  // namespace

TEST(PaddingSentinel, RaggedFloatExtremesSortLikeStableSort) {
  // Real +inf values must survive the tail truncation: padding that sorts
  // before +inf would come back in their place.
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  const auto input = extreme_floats(777, 11);
  const auto expect = stable_sorted(input);
  for (const Variant v : {Variant::Baseline, Variant::CFMerge}) {
    MergeConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.variant = v;
    auto data = input;
    merge_sort(launcher, data, cfg);
    EXPECT_EQ(data, expect) << "merge_sort variant " << static_cast<int>(v);

    std::vector<std::vector<float>> segments = {extreme_floats(37, 12), {},
                                                extreme_floats(203, 13)};
    segmented_sort(launcher, segments, cfg);
    EXPECT_EQ(segments[0], stable_sorted(extreme_floats(37, 12)));
    EXPECT_EQ(segments[2], stable_sorted(extreme_floats(203, 13)));

    std::vector<std::vector<float>> as = {stable_sorted(extreme_floats(61, 14)),
                                          stable_sorted(extreme_floats(5, 15))};
    std::vector<std::vector<float>> bs = {stable_sorted(extreme_floats(19, 16)),
                                          stable_sorted(extreme_floats(90, 17))};
    std::vector<std::vector<float>> outs;
    batched_merge(launcher, as, bs, outs, cfg);
    for (std::size_t p = 0; p < as.size(); ++p) {
      std::vector<float> merged = as[p];
      merged.insert(merged.end(), bs[p].begin(), bs[p].end());
      EXPECT_EQ(outs[p], stable_sorted(merged)) << "batched pair " << p;
    }
  }
  for (const MultiwayVariant v : {MultiwayVariant::CFCascade, MultiwayVariant::LoserTree}) {
    MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = 4;
    cfg.variant = v;
    auto data = input;
    merge_sort_multiway(launcher, data, cfg);
    EXPECT_EQ(data, expect) << "multiway k=4 variant " << static_cast<int>(v);
  }
}

namespace {

struct ByKeyCase {
  Variant variant;
  std::int64_t n;
};

void check_sort_by_key(Variant variant, std::int64_t n, int key_range,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> keys(static_cast<std::size_t>(n));
  std::vector<std::int64_t> values(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int>(rng() % static_cast<std::uint64_t>(key_range));
    values[i] = static_cast<std::int64_t>(i) * 1000 + keys[i];  // encodes its key
  }
  // Expected key multiset per key.
  std::map<int, std::multiset<std::int64_t>> expect;
  for (std::size_t i = 0; i < keys.size(); ++i)
    expect[keys[i]].insert(values[i]);

  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = variant;
  const auto report = merge_sort_by_key(launcher, keys, values, cfg);
  EXPECT_EQ(report.n, n);

  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // Every value still travels with its key, and multisets per key match.
  std::map<int, std::multiset<std::int64_t>> got;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(static_cast<int>(values[i] % 1000), keys[i]) << "value decoupled from key";
    got[keys[i]].insert(values[i]);
  }
  EXPECT_EQ(got, expect);
}

}  // namespace

TEST(SortByKey, BaselineVariant) {
  check_sort_by_key(Variant::Baseline, 16 * 5 * 8, 1000, 1);
  check_sort_by_key(Variant::Baseline, 777, 50, 2);  // ragged + duplicates
}

TEST(SortByKey, CFMergeVariant) {
  check_sort_by_key(Variant::CFMerge, 16 * 5 * 8, 1000, 3);
  check_sort_by_key(Variant::CFMerge, 777, 50, 4);
}

TEST(SortByKey, BaselineIsStable) {
  // The baseline path is a stable mergesort: equal keys keep input order.
  std::mt19937_64 rng(5);
  const std::int64_t n = 16 * 5 * 4;
  std::vector<int> keys(static_cast<std::size_t>(n));
  std::vector<std::int64_t> values(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int>(rng() % 7);  // heavy duplicates
    values[i] = static_cast<std::int64_t>(i);
  }
  std::vector<std::pair<int, std::int64_t>> expect(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) expect[i] = {keys[i], values[i]};
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = Variant::Baseline;
  merge_sort_by_key(launcher, keys, values, cfg);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], expect[i].first);
    EXPECT_EQ(values[i], expect[i].second) << "stability violated at " << i;
  }
}

TEST(SortByKey, CFMergeCorrectForDistinctKeys) {
  // With distinct keys the CF variant is trivially "stable" too.
  std::mt19937_64 rng(6);
  const std::int64_t n = 16 * 5 * 4;
  std::vector<int> keys(static_cast<std::size_t>(n));
  std::vector<std::int64_t> values(static_cast<std::size_t>(n));
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = perm[i];
    values[i] = -static_cast<std::int64_t>(perm[i]);
  }
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = Variant::CFMerge;
  merge_sort_by_key(launcher, keys, values, cfg);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], static_cast<int>(i));
    EXPECT_EQ(values[i], -static_cast<std::int64_t>(i));
  }
}

TEST(SortByKey, MismatchedSizesRejected) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  std::vector<int> keys(10);
  std::vector<int> values(9);
  EXPECT_THROW(merge_sort_by_key(launcher, keys, values, cfg), std::invalid_argument);
}

TEST(SortByKey, CFMergeStillConflictFreeWithPairs) {
  // 8-byte elements change the coalescing but not the bank schedule.
  std::mt19937_64 rng(7);
  std::vector<int> keys(16 * 6 * 8);
  std::vector<int> values(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int>(rng());
    values[i] = static_cast<int>(i);
  }
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  MergeConfig cfg;
  cfg.e = 6;  // non-coprime
  cfg.u = 16;
  cfg.variant = Variant::CFMerge;
  const auto report = merge_sort_by_key(launcher, keys, values, cfg);
  EXPECT_EQ(report.merge_conflicts(), 0u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}
