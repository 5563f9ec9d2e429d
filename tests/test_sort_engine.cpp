// Tests of the SortEngine plan/execute split: plan-cache hit/miss/eviction
// accounting, cache semantics (instances, not flyweights), scratch-arena
// reuse, and the core acceptance property — engine-routed sorts produce
// reports bit-identical to a cold run for every worker count, on the first
// call and on cached-plan replay.
#include "sort/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <vector>

#include "cache/store.hpp"
#include "gpusim/launcher.hpp"

using namespace cfmerge;
using namespace cfmerge::gpusim;

namespace {

std::vector<int> random_vec(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<int>(rng() % 1000000) - 500000;
  return v;
}

sort::MergeConfig tiny_cfg(sort::Variant v = sort::Variant::CFMerge) {
  sort::MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = v;
  return cfg;
}

void expect_kernels_eq(const std::vector<KernelReport>& a,
                       const std::vector<KernelReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].name, b[k].name);
    EXPECT_EQ(a[k].counters, b[k].counters);
    EXPECT_EQ(a[k].timing.microseconds, b[k].timing.microseconds);
  }
}

void expect_reports_eq(const sort::SortReport& a, const sort::SortReport& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.n_padded, b.n_padded);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.graph_levels, b.graph_levels);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_DOUBLE_EQ(a.microseconds, b.microseconds);
  EXPECT_DOUBLE_EQ(a.makespan_microseconds, b.makespan_microseconds);
  expect_kernels_eq(a.kernels, b.kernels);
}

void expect_reports_eq(const sort::SegmentedSortReport& a,
                       const sort::SegmentedSortReport& b) {
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.elements, b.elements);
  EXPECT_EQ(a.graph_levels, b.graph_levels);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_DOUBLE_EQ(a.serial_microseconds, b.serial_microseconds);
  EXPECT_DOUBLE_EQ(a.makespan_microseconds, b.makespan_microseconds);
  expect_kernels_eq(a.kernels, b.kernels);
}

void expect_reports_eq(const sort::BatchedMergeReport& a,
                       const sort::BatchedMergeReport& b) {
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.elements, b.elements);
  EXPECT_EQ(a.graph_levels, b.graph_levels);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_DOUBLE_EQ(a.microseconds, b.microseconds);
  EXPECT_DOUBLE_EQ(a.makespan_microseconds, b.makespan_microseconds);
  expect_kernels_eq(a.kernels, b.kernels);
}

void expect_reports_eq(const cfprims::PermuteReport& a, const cfprims::PermuteReport& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.inverse, b.inverse);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.n_padded, b.n_padded);
  EXPECT_EQ(a.graph_levels, b.graph_levels);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_DOUBLE_EQ(a.microseconds, b.microseconds);
  EXPECT_DOUBLE_EQ(a.makespan_microseconds, b.makespan_microseconds);
  expect_kernels_eq(a.kernels, b.kernels);
}

/// A batched_merge call's inputs and outputs.
struct Batch {
  std::vector<std::vector<int>> as, bs, outs;
  bool operator==(const Batch&) const = default;
};

/// Three sorted pairs of fixed lengths; `seed` picks the values only.
Batch sorted_batch(std::uint64_t seed) {
  Batch batch;
  for (int p = 0; p < 3; ++p) {
    auto a = random_vec(60 + p * 10, seed + static_cast<std::uint64_t>(p));
    auto b = random_vec(40, seed + 10 + static_cast<std::uint64_t>(p));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    batch.as.push_back(std::move(a));
    batch.bs.push_back(std::move(b));
  }
  return batch;
}

/// Replay contract of one plan kind.  `call(engine, io)` runs `io`
/// through the engine (leaving the output in it) and returns the report.
/// For every worker count, one engine runs `a` cold, replays `a`,
/// then replays `b` (same plan key); each result must equal a cold
/// single-threaded call on a fresh engine, output and report alike.
template <typename Input, typename Call>
void expect_replay_matches_cold(const Input& a, const Input& b, Call&& call) {
  auto fresh = [&](const Input& input) {
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(1);
    sort::SortEngine engine(launcher);
    Input io = input;
    auto report = call(engine, io);
    return std::make_pair(io, report);
  };
  const auto ref_a = fresh(a);
  const auto ref_b = fresh(b);

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    sort::SortEngine engine(launcher);
    for (const auto* ref : {&ref_a, &ref_a, &ref_b}) {
      Input io = ref == &ref_b ? b : a;
      const auto report = call(engine, io);
      EXPECT_EQ(io, ref->first);
      expect_reports_eq(report, ref->second);
    }
    EXPECT_EQ(engine.stats().plan_misses, 1u);
    EXPECT_EQ(engine.stats().plan_hits, 2u);
  }
}

}  // namespace

TEST(SortEngine, PlanCacheCountsHitsMissesAndBytes) {
  Launcher launcher(DeviceSpec::tiny(8));
  sort::SortEngine engine(launcher);
  const auto cfg = tiny_cfg();
  const auto input = random_vec(16 * 5 * 4, 1);

  for (int call = 0; call < 3; ++call) {
    auto data = input;
    engine.sort(data, cfg);
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  }
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.plan_misses, 1u);
  EXPECT_EQ(es.plan_hits, 2u);
  EXPECT_EQ(es.plan_evictions, 0u);
  EXPECT_EQ(es.plans_cached, 1u);
  EXPECT_GT(es.plan_bytes, 0u);
  EXPECT_DOUBLE_EQ(es.hit_rate(), 2.0 / 3.0);
}

TEST(SortEngine, DistinctConfigAndLengthEachBuildAPlan) {
  Launcher launcher(DeviceSpec::tiny(8));
  sort::SortEngine engine(launcher);
  auto a = random_vec(16 * 5 * 4, 2);
  auto b = random_vec(16 * 5 * 2, 3);  // different padded length
  engine.sort(a, tiny_cfg(sort::Variant::CFMerge));
  engine.sort(b, tiny_cfg(sort::Variant::CFMerge));
  a = random_vec(16 * 5 * 4, 4);
  engine.sort(a, tiny_cfg(sort::Variant::Baseline));  // different variant
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.plan_misses, 3u);
  EXPECT_EQ(es.plan_hits, 0u);
  EXPECT_EQ(es.plans_cached, 3u);
}

TEST(SortEngine, EvictsLeastRecentlyReleasedOverCapacity) {
  Launcher launcher(DeviceSpec::tiny(8));
  sort::SortEngine engine(launcher, /*plan_capacity=*/1);
  auto a = random_vec(16 * 5 * 4, 5);
  auto b = random_vec(16 * 5 * 2, 6);

  engine.sort(a, tiny_cfg());  // cache: [A]
  engine.sort(b, tiny_cfg());  // A evicted, cache: [B]
  {
    const sort::EngineStats es = engine.stats();
    EXPECT_EQ(es.plan_evictions, 1u);
    EXPECT_EQ(es.plans_cached, 1u);
  }
  auto a2 = random_vec(16 * 5 * 4, 7);
  engine.sort(a2, tiny_cfg());  // miss again: A's instance is gone
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.plan_misses, 3u);
  EXPECT_EQ(es.plan_hits, 0u);
  EXPECT_EQ(es.plan_evictions, 2u);

  // Shrinking the capacity evicts immediately.
  engine.set_plan_capacity(0);
  EXPECT_EQ(engine.stats().plans_cached, 0u);
}

TEST(SortEngine, ClearPlansAndDisabledCacheForceRebuilds) {
  Launcher launcher(DeviceSpec::tiny(8));
  sort::SortEngine engine(launcher);
  const auto cfg = tiny_cfg();
  auto data = random_vec(16 * 5 * 3, 8);

  engine.sort(data, cfg);
  engine.clear_plans();
  EXPECT_EQ(engine.stats().plans_cached, 0u);
  data = random_vec(16 * 5 * 3, 9);
  engine.sort(data, cfg);
  EXPECT_EQ(engine.stats().plan_misses, 2u);

  engine.set_plan_cache_enabled(false);
  EXPECT_FALSE(engine.plan_cache_enabled());
  EXPECT_EQ(engine.stats().plans_cached, 0u);
  for (int call = 0; call < 2; ++call) {
    data = random_vec(16 * 5 * 3, 10 + static_cast<std::uint64_t>(call));
    engine.sort(data, cfg);
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  }
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.plan_misses, 4u);
  EXPECT_EQ(es.plan_hits, 0u);
}

TEST(SortEngine, ReplayBitIdenticalToColdForEveryWorkerCount) {
  // Every plan kind replays its first input, then a different, shorter
  // input of the same padded length, whose tail the previous run left
  // holding stale intermediate data.  A batched key fixes every (|A|, |B|),
  // so its second input keeps the shape and changes the values.
  const auto a = random_vec(16 * 5 * 3 + 7, 11);
  const auto b = random_vec(16 * 5 * 3 + 1, 12);
  {
    SCOPED_TRACE("sort");
    expect_replay_matches_cold(
        a, b, [](sort::SortEngine& e, std::vector<int>& d) { return e.sort(d, tiny_cfg()); });
  }
  for (const sort::MultiwayVariant v :
       {sort::MultiwayVariant::CFCascade, sort::MultiwayVariant::LoserTree}) {
    SCOPED_TRACE("multiway k=4 variant " + std::to_string(static_cast<int>(v)));
    sort::MultiwayConfig cfg;
    cfg.e = 5;
    cfg.u = 16;
    cfg.k = 4;
    cfg.variant = v;
    expect_replay_matches_cold(
        a, b, [&](sort::SortEngine& e, std::vector<int>& d) { return e.sort_multiway(d, cfg); });
  }
  for (const cfprims::PermuteOp op : {cfprims::PermuteOp::kPermute, cfprims::PermuteOp::kTranspose}) {
    SCOPED_TRACE(op == cfprims::PermuteOp::kPermute ? "permute" : "transpose");
    cfprims::PermuteConfig cfg;
    cfg.op = op;
    cfg.e = 5;
    cfg.u = 16;
    expect_replay_matches_cold(
        a, b, [&](sort::SortEngine& e, std::vector<int>& d) { return e.permute(d, cfg); });
  }
  {
    SCOPED_TRACE("batched");
    expect_replay_matches_cold(sorted_batch(20), sorted_batch(60),
                               [](sort::SortEngine& e, Batch& batch) {
                                 return e.batched_merge(batch.as, batch.bs, batch.outs,
                                                        tiny_cfg());
                               });
  }
}

TEST(SortEngine, SegmentedReplayBitIdenticalAcrossThreads) {
  const auto cfg = tiny_cfg();
  std::vector<std::vector<int>> proto = {random_vec(16 * 5 * 2, 12),
                                         random_vec(37, 13),
                                         {},
                                         random_vec(16 * 5 * 2, 14),
                                         random_vec(16 * 5, 15)};

  Launcher ref_launcher(DeviceSpec::tiny(8));
  ref_launcher.set_threads(1);
  sort::SortEngine ref_engine(ref_launcher);
  auto ref_batch = proto;
  const sort::SegmentedSortReport ref = ref_engine.segmented_sort(ref_batch, cfg);

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    sort::SortEngine engine(launcher);
    auto cold = proto;
    const auto cold_rep = engine.segmented_sort(cold, cfg);
    auto warm = proto;
    const auto warm_rep = engine.segmented_sort(warm, cfg);
    EXPECT_EQ(cold, ref_batch);
    EXPECT_EQ(warm, ref_batch);
    expect_reports_eq(cold_rep, ref);
    expect_reports_eq(warm_rep, ref);
  }
}

TEST(SortEngine, SegmentedBatchIsOnePlanKeyedByEveryLength) {
  // A segmented batch is one plan: the first batch builds it, the next
  // batch with the same lengths hits, and changing one length misses.
  Launcher launcher(DeviceSpec::tiny(8));
  sort::SortEngine engine(launcher);
  const auto cfg = tiny_cfg();
  std::vector<std::vector<int>> proto = {random_vec(16 * 5 * 2, 16),
                                         random_vec(16 * 5 * 2, 17)};

  auto batch = proto;
  engine.segmented_sort(batch, cfg);
  {
    const sort::EngineStats es = engine.stats();
    EXPECT_EQ(es.plan_misses, 1u);
    EXPECT_EQ(es.plan_hits, 0u);
    EXPECT_EQ(es.plans_cached, 1u);
  }
  batch = proto;
  engine.segmented_sort(batch, cfg);
  for (const auto& seg : batch) EXPECT_TRUE(std::is_sorted(seg.begin(), seg.end()));
  {
    const sort::EngineStats es = engine.stats();
    EXPECT_EQ(es.plan_misses, 1u);
    EXPECT_EQ(es.plan_hits, 1u);
  }
  batch = proto;
  batch.back().pop_back();
  engine.segmented_sort(batch, cfg);
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.plan_misses, 2u);
  EXPECT_EQ(es.plan_hits, 1u);
}

TEST(SortEngine, SortByKeyPoolsPairBufferAndChecksSizes) {
  Launcher launcher(DeviceSpec::tiny(8));
  sort::SortEngine engine(launcher);
  const auto cfg = tiny_cfg();

  std::vector<int> keys = random_vec(16 * 5 * 2, 18);
  std::vector<int> values(keys.size());
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<int>(i);
  std::vector<int> short_values(keys.size() - 1);
  EXPECT_THROW(engine.sort_by_key(keys, short_values, cfg), std::invalid_argument);

  auto sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  for (int call = 0; call < 2; ++call) {
    auto k = keys;
    auto v = values;
    engine.sort_by_key(k, v, cfg);
    EXPECT_EQ(k, sorted_keys);
    for (std::size_t i = 0; i < k.size(); ++i)
      EXPECT_EQ(keys[static_cast<std::size_t>(v[i])], k[i]);
  }
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.arena_allocs, 1u);   // first call allocates the pair buffer
  EXPECT_EQ(es.arena_reuses, 1u);   // second call reuses it
  EXPECT_GT(es.arena_bytes, 0u);
}

TEST(SortEngine, BatchedReplayBitIdenticalAndShapeKeyed) {
  const auto cfg = tiny_cfg();
  std::vector<std::vector<int>> as, bs;
  for (int p = 0; p < 3; ++p) {
    auto a = random_vec(60 + p * 10, 20 + static_cast<std::uint64_t>(p));
    auto b = random_vec(40, 30 + static_cast<std::uint64_t>(p));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    as.push_back(std::move(a));
    bs.push_back(std::move(b));
  }

  Launcher ref_launcher(DeviceSpec::tiny(8));
  ref_launcher.set_threads(1);
  sort::SortEngine ref_engine(ref_launcher);
  std::vector<std::vector<int>> ref_outs;
  const auto ref = ref_engine.batched_merge(as, bs, ref_outs, cfg);
  for (std::size_t p = 0; p < as.size(); ++p) {
    std::vector<int> expect;
    std::merge(as[p].begin(), as[p].end(), bs[p].begin(), bs[p].end(),
               std::back_inserter(expect));
    EXPECT_EQ(ref_outs[p], expect);
  }

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    sort::SortEngine engine(launcher);
    std::vector<std::vector<int>> outs;
    const auto cold_rep = engine.batched_merge(as, bs, outs, cfg);
    EXPECT_EQ(outs, ref_outs);
    const auto warm_rep = engine.batched_merge(as, bs, outs, cfg);
    EXPECT_EQ(outs, ref_outs);
    EXPECT_EQ(engine.stats().plan_hits, 1u);
    expect_reports_eq(cold_rep, ref);
    expect_reports_eq(warm_rep, ref);
  }

  // A different batch shape is a different key: no false hit.
  Launcher launcher(DeviceSpec::tiny(8));
  sort::SortEngine engine(launcher);
  std::vector<std::vector<int>> outs;
  engine.batched_merge(as, bs, outs, cfg);
  auto bs2 = bs;
  bs2.back().push_back(1000001);  // |B| of the last pair changes
  engine.batched_merge(as, bs2, outs, cfg);
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.plan_misses, 2u);
  EXPECT_EQ(es.plan_hits, 0u);
}

TEST(SortEngine, EmptyAndMismatchedInputsShortCircuit) {
  Launcher launcher(DeviceSpec::tiny(8));
  sort::SortEngine engine(launcher);
  const auto cfg = tiny_cfg();

  std::vector<int> empty;
  const sort::SortReport r = engine.sort(empty, cfg);
  EXPECT_EQ(r.n, 0);
  EXPECT_TRUE(r.kernels.empty());

  std::vector<std::vector<int>> as(2), bs(3), outs;
  EXPECT_THROW(engine.batched_merge(as, bs, outs, cfg), std::invalid_argument);

  std::vector<std::vector<int>> none, none_outs;
  const auto br = engine.batched_merge(none, none, none_outs, cfg);
  EXPECT_EQ(br.pairs, 0);
  EXPECT_TRUE(none_outs.empty());

  // None of the above touched the plan cache.
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.plan_misses, 0u);
  EXPECT_EQ(es.plan_hits, 0u);
}

TEST(SortEngine, PersistentStoreWarmStartsAColdProcess) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "cfmerge_engine_store";
  std::filesystem::remove_all(dir);
  const auto cfg = tiny_cfg();
  const auto input = random_vec(16 * 5 * 3, 50);

  // First "process": a fresh engine + store; every plan is a disk miss and
  // gets written back.
  sort::SortReport first_rep;
  auto first_data = input;
  {
    Launcher launcher(DeviceSpec::tiny(8));
    sort::SortEngine engine(launcher);
    cache::PlanCacheStore store(dir);
    engine.set_store(&store);
    first_rep = engine.sort(first_data, cfg);
    const sort::EngineStats es = engine.stats();
    EXPECT_EQ(es.disk_hits, 0u);
    EXPECT_EQ(es.disk_misses, 1u);
    EXPECT_EQ(es.disk_writes, 1u);
    ASSERT_TRUE(store.save());
  }
  EXPECT_TRUE(std::is_sorted(first_data.begin(), first_data.end()));

  // Second "process": new engine, new store instance, same directory — the
  // plan key is found on disk and the report is bit-identical.
  {
    Launcher launcher(DeviceSpec::tiny(8));
    sort::SortEngine engine(launcher);
    cache::PlanCacheStore store(dir);
    engine.set_store(&store);
    auto data = input;
    const sort::SortReport second_rep = engine.sort(data, cfg);
    const sort::EngineStats es = engine.stats();
    EXPECT_GT(es.disk_hits, 0u);
    EXPECT_EQ(es.disk_misses, 0u);
    EXPECT_EQ(es.disk_writes, 0u);
    EXPECT_GT(es.disk_entries, 0u);
    EXPECT_EQ(data, first_data);
    expect_reports_eq(second_rep, first_rep);
  }

  // A different device spec is a different digest: nothing false-hits.
  {
    Launcher launcher(DeviceSpec::tiny(16));
    sort::SortEngine engine(launcher);
    cache::PlanCacheStore store(dir);
    engine.set_store(&store);
    auto data = input;
    engine.sort(data, cfg);
    const sort::EngineStats es = engine.stats();
    EXPECT_EQ(es.disk_hits, 0u);
    EXPECT_GT(es.disk_misses, 0u);
  }
}

TEST(SortEngine, StatsWithoutStoreReportZeroDiskTraffic) {
  Launcher launcher(DeviceSpec::tiny(8));
  sort::SortEngine engine(launcher);
  auto data = random_vec(16 * 5 * 2, 51);
  engine.sort(data, tiny_cfg());
  const sort::EngineStats es = engine.stats();
  EXPECT_EQ(es.disk_hits, 0u);
  EXPECT_EQ(es.disk_misses, 0u);
  EXPECT_EQ(es.disk_writes, 0u);
  EXPECT_EQ(es.disk_entries, 0u);
  EXPECT_EQ(es.disk_bytes, 0u);
}

TEST(SortEngine, FreeFunctionsMatchEngineRoutedCalls) {
  const auto cfg = tiny_cfg();
  const auto input = random_vec(16 * 5 * 3, 40);

  Launcher l1(DeviceSpec::tiny(8));
  auto d1 = input;
  const sort::SortReport free_rep = sort::merge_sort(l1, d1, cfg);

  Launcher l2(DeviceSpec::tiny(8));
  sort::SortEngine engine(l2);
  auto d2 = input;
  const sort::SortReport engine_rep = engine.sort(d2, cfg);

  EXPECT_EQ(d1, d2);
  expect_reports_eq(free_rep, engine_rep);
}
