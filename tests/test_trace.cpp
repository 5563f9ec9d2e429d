// Tests of the access tracer and the DMM trace replay.
#include "gpusim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <vector>

#include "analysis/trace_replay.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/engine.hpp"
#include "sort/merge_sort.hpp"

using namespace cfmerge;
using namespace cfmerge::gpusim;

TEST(TraceSink, RecordsEventsAndAddresses) {
  TraceSink sink;
  std::vector<std::int64_t> addrs{0, 1, 2, 3};
  sink.record(7, 2, AccessKind::SharedRead, "load", addrs, 0);
  sink.record(7, 2, AccessKind::SharedWrite, "store", addrs, 3);
  ASSERT_EQ(sink.size(), 2u);
  const TraceEvent& e0 = sink.events()[0];
  EXPECT_EQ(e0.block, 7);
  EXPECT_EQ(e0.warp, 2);
  EXPECT_EQ(e0.kind, AccessKind::SharedRead);
  EXPECT_EQ(sink.phase_names()[static_cast<std::size_t>(e0.phase_id)], "load");
  const auto a = sink.addresses(e0);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[3], 3);
  EXPECT_EQ(sink.shared_conflicts(), 3);
  EXPECT_EQ(sink.shared_conflicts("store"), 3);
  EXPECT_EQ(sink.shared_conflicts("load"), 0);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, CsvExport) {
  TraceSink sink;
  std::vector<std::int64_t> addrs{5, -1};
  sink.record(0, 0, AccessKind::GlobalRead, "main", addrs, 1);
  std::ostringstream os;
  sink.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("global_read"), std::string::npos);
  EXPECT_NE(csv.find("5 -1"), std::string::npos);
}

TEST(Tracing, LauncherAttachesSinkToEveryBlock) {
  Launcher launcher(DeviceSpec::tiny(8));
  TraceSink sink;
  launcher.set_trace(&sink);
  launcher.launch("k", LaunchShape{3, 8, 0, 8}, [](BlockContext& ctx) {
    SharedTile<int> tile(ctx, 8);
    std::vector<std::int64_t> addrs{0, 1, 2, 3, 4, 5, 6, 7};
    std::vector<int> vals(8, 1);
    ctx.phase("p1");
    tile.scatter(0, addrs, vals);
    tile.gather(0, addrs, vals);
  });
  EXPECT_EQ(sink.size(), 6u);  // 2 accesses x 3 blocks
  int reads = 0, writes = 0;
  for (const auto& e : sink.events()) {
    if (e.kind == AccessKind::SharedRead) ++reads;
    if (e.kind == AccessKind::SharedWrite) ++writes;
  }
  EXPECT_EQ(reads, 3);
  EXPECT_EQ(writes, 3);
  launcher.set_trace(nullptr);
  launcher.launch("k2", LaunchShape{1, 8, 0, 8}, [](BlockContext&) {});
  EXPECT_EQ(sink.size(), 6u);  // detached: no new events
}

TEST(Tracing, TraceConflictsMatchCounters) {
  // The trace's conflict totals must agree with the live counters for a
  // real kernel run.
  std::mt19937_64 rng(1);
  Launcher launcher(DeviceSpec::tiny(8));
  TraceSink sink;
  launcher.set_trace(&sink);
  sort::MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = sort::Variant::Baseline;
  std::vector<int> data(16 * 5 * 4);
  for (auto& x : data) x = static_cast<int>(rng() % 1000);
  const auto report = sort::merge_sort(launcher, data, cfg);
  EXPECT_EQ(static_cast<std::uint64_t>(sink.shared_conflicts()),
            report.totals.bank_conflicts);
  EXPECT_EQ(static_cast<std::uint64_t>(sink.shared_conflicts("merge.merge")),
            report.merge_conflicts());
}

namespace {

/// Checks the recorded conflicts against the DMM direct-map replay, an
/// independent cost implementation: in total, and for the merge-path search
/// phases, whose rows conflict in every variant.
void expect_direct_map_reproduces(const TraceSink& sink, int w, const char* what) {
  const auto direct = analysis::replay_shared(sink, dmm::DirectMap(w));
  EXPECT_EQ(direct.total_conflicts, sink.shared_conflicts()) << what;
  const auto shared_events =
      std::count_if(sink.events().begin(), sink.events().end(), [](const TraceEvent& e) {
        return e.kind == AccessKind::SharedRead || e.kind == AccessKind::SharedWrite;
      });
  EXPECT_EQ(direct.shared_accesses, shared_events) << what;
  for (const char* phase : {"bsort.search", "merge.search"}) {
    const auto search = analysis::replay_shared(sink, dmm::DirectMap(w), phase);
    EXPECT_GT(search.total_conflicts, 0) << what << " " << phase;
    EXPECT_EQ(search.total_conflicts, sink.shared_conflicts(phase)) << what << " " << phase;
  }
}

}  // namespace

TEST(TraceReplay, DirectMapReproducesRecordedConflicts) {
  std::mt19937_64 rng(2);
  const auto keys = [&rng](std::size_t n, int range) {
    std::vector<int> data(n);
    for (auto& x : data) x = static_cast<int>(rng() % static_cast<std::uint64_t>(range));
    return data;
  };
  {
    Launcher launcher(DeviceSpec::tiny(8));
    TraceSink sink;
    launcher.set_trace(&sink);
    sort::MergeConfig cfg;
    cfg.e = 6;
    cfg.u = 16;
    cfg.variant = sort::Variant::Baseline;
    std::vector<int> data = keys(16 * 6 * 4, 1000);
    sort::merge_sort(launcher, data, cfg);
    expect_direct_map_reproduces(sink, 8, "baseline w=8");
  }

  // The paper's 32-bank device with ragged sizes, one run per sort family:
  // this drives the specialized 32-bank costing end to end, including the
  // search's start/end row pairs costed in one pass.
  const DeviceSpec w32 = DeviceSpec::scaled_turing(4);
  for (const auto variant : {sort::Variant::Baseline, sort::Variant::CFMerge}) {
    Launcher launcher(w32);
    TraceSink sink;
    launcher.set_trace(&sink);
    sort::MergeConfig cfg;
    cfg.e = 7;
    cfg.u = 64;
    cfg.variant = variant;
    std::vector<int> data = keys(4 * 448 + 101, 100000);
    sort::merge_sort(launcher, data, cfg);
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
    expect_direct_map_reproduces(
        sink, 32, variant == sort::Variant::CFMerge ? "cf w=32" : "baseline w=32");
  }
  Launcher launcher(w32);
  TraceSink sink;
  launcher.set_trace(&sink);
  sort::MultiwayConfig cfg;
  cfg.e = 7;
  cfg.u = 64;
  cfg.k = 4;
  cfg.variant = sort::MultiwayVariant::CFCascade;
  std::vector<int> data = keys(9 * 448 + 37, 100000);
  sort::merge_sort_multiway(launcher, data, cfg);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  expect_direct_map_reproduces(sink, 32, "k=4 cascade w=32");
}

TEST(TraceReplay, AlternativeMappingsChangeThePicture) {
  // Replaying the baseline's conflicted merge phase under skewed / hashed
  // bank mappings: the conflict profile changes (usually improves for the
  // adversarial patterns, worsens for patterns tuned to the direct map).
  std::mt19937_64 rng(3);
  Launcher launcher(DeviceSpec::tiny(8, 1));
  TraceSink sink;
  launcher.set_trace(&sink);
  sort::MergeConfig cfg;
  cfg.e = 8;  // gcd(8,8)=8: stride-8 patterns serialize fully on direct map
  cfg.u = 16;
  cfg.variant = sort::Variant::Baseline;
  std::vector<int> data(16 * 8 * 2);
  for (auto& x : data) x = static_cast<int>(rng() % 1000);
  sort::merge_sort(launcher, data, cfg);

  const auto results = analysis::replay_standard_mappings(sink, 8, "bsort.thread_sort");
  ASSERT_EQ(results.size(), 3u);
  const auto& direct = results[0];
  const auto& skew = results[1];
  EXPECT_GT(direct.total_conflicts, 0);     // stride-8 serializes on mod-8 banks
  EXPECT_LT(skew.total_conflicts, direct.total_conflicts);  // skewing fixes strides
  EXPECT_EQ(direct.mapping_overhead_ops, 0);
  EXPECT_GT(skew.mapping_overhead_ops, 0);
}

TEST(TraceReplay, PhaseFilterWorks) {
  TraceSink sink;
  std::vector<std::int64_t> strided{0, 8, 16, 24, 32, 40, 48, 56};
  sink.record(0, 0, AccessKind::SharedRead, "hot", strided, 7);
  std::vector<std::int64_t> fine{0, 1, 2, 3, 4, 5, 6, 7};
  sink.record(0, 0, AccessKind::SharedRead, "cool", fine, 0);
  const auto hot = analysis::replay_shared(sink, dmm::DirectMap(8), "hot");
  EXPECT_EQ(hot.shared_accesses, 1);
  EXPECT_EQ(hot.total_conflicts, 7);
  const auto all = analysis::replay_shared(sink, dmm::DirectMap(8));
  EXPECT_EQ(all.shared_accesses, 2);
  EXPECT_EQ(all.total_conflicts, 7);
}
