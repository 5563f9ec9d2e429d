// Tests of the KernelGraph executor: graph construction rules, enqueue-order
// execution, the summed report time, the determinism contract (bit-identical
// history/trace/counters vs. launch-by-launch execution for every worker
// count), and exception safety.
#include "gpusim/kernel_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>

#include "gpusim/launcher.hpp"
#include "sort/merge_sort.hpp"
#include "verify/shadow.hpp"

using namespace cfmerge;
using namespace cfmerge::gpusim;

namespace {

/// A small kernel body that touches shared memory so reports are non-trivial.
KernelBody counting_body(std::vector<int>& data, int per_block) {
  return [&data, per_block](BlockContext& ctx) {
    ctx.phase("count");
    std::vector<std::int64_t> addr(static_cast<std::size_t>(ctx.lanes()));
    for (int i = 0; i < per_block; ++i) {
      for (int lane = 0; lane < ctx.lanes(); ++lane)
        addr[static_cast<std::size_t>(lane)] = lane;
      ctx.charge_shared(0, addr);
      ctx.charge_compute(0, 4);
    }
    data[static_cast<std::size_t>(ctx.block_id())] += 1;
  };
}

void expect_report_eq(const KernelReport& a, const KernelReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.mean_block_chain, b.mean_block_chain);
  EXPECT_EQ(a.max_block_chain, b.max_block_chain);
  EXPECT_EQ(a.timing.cycles, b.timing.cycles);
  EXPECT_EQ(a.timing.microseconds, b.timing.microseconds);
}

}  // namespace

TEST(KernelGraph, RejectsEmptyGridAndNullBody) {
  KernelGraph g;
  EXPECT_THROW(g.enqueue("empty", LaunchShape{0, 8, 0, 8}, [](BlockContext&) {}),
               std::invalid_argument);
  EXPECT_THROW(g.enqueue("null", LaunchShape{1, 8, 0, 8}, KernelBody{}),
               std::invalid_argument);
  EXPECT_TRUE(g.empty());
}

TEST(KernelGraph, EmptyGraphRunsToEmptyReport) {
  Launcher launcher(DeviceSpec::tiny(8));
  KernelGraph g;
  const GraphReport r = launcher.run(g);
  EXPECT_TRUE(r.kernels.empty());
  EXPECT_EQ(r.microseconds, 0.0);
  EXPECT_TRUE(launcher.history().empty());
}

TEST(KernelGraph, LaterKernelsObserveEarlierResults) {
  // writer fills a buffer, reader (enqueued after it) checks every slot —
  // with several workers this only holds if kernels run in enqueue order.
  for (const int threads : {1, 4}) {
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    std::vector<int> cells(64, 0);
    std::atomic<bool> reader_saw_all{true};
    KernelGraph g;
    g.enqueue("writer", LaunchShape{64, 8, 0, 8}, [&](BlockContext& ctx) {
      cells[static_cast<std::size_t>(ctx.block_id())] = ctx.block_id() + 1;
    });
    g.enqueue("reader", LaunchShape{64, 8, 0, 8}, [&](BlockContext& ctx) {
      if (cells[static_cast<std::size_t>(ctx.block_id())] != ctx.block_id() + 1)
        reader_saw_all = false;
    });
    launcher.run(g);
    EXPECT_TRUE(reader_saw_all.load()) << "threads=" << threads;
  }
}

TEST(KernelGraph, AuditedKernelsRunOneAtATime) {
  // An auditor keys its shadow state by block id, which repeats across
  // kernels: the kernels of a graph run one after another (each kernel's
  // blocks still share the pool), or the shadow state of two kernels'
  // block 0 would mix.
  Launcher launcher(DeviceSpec::tiny(8));
  launcher.set_threads(4);
  verify::ShadowChecker checker;
  launcher.set_audit(&checker);
  std::array<std::atomic<int>, 2> active{};
  std::atomic<bool> overlapped{false};
  KernelGraph g;
  for (const int k : {0, 1}) {
    g.enqueue("k" + std::to_string(k), LaunchShape{32, 8, 0, 8}, [&, k](BlockContext&) {
      ++active[static_cast<std::size_t>(k)];
      if (active[static_cast<std::size_t>(1 - k)] > 0) overlapped = true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (active[static_cast<std::size_t>(1 - k)] > 0) overlapped = true;
      --active[static_cast<std::size_t>(k)];
    });
  }
  launcher.run(g);
  EXPECT_FALSE(overlapped.load());
}

TEST(KernelGraph, HistoryMatchesLaunchByLaunchBitIdentically) {
  // The same three kernels through (a) launch calls and (b) a graph at
  // several worker counts: identical reports.
  auto build_and_run = [](Launcher& launcher, bool use_graph) {
    std::vector<int> d1(24, 0), d2(12, 0), d3(24, 0);
    const LaunchShape s1{24, 8, 64, 8}, s2{12, 8, 0, 8}, s3{24, 8, 128, 8};
    if (use_graph) {
      KernelGraph g;
      g.enqueue("k1", s1, counting_body(d1, 3));
      g.enqueue("k2", s2, counting_body(d2, 7));
      g.enqueue("k3", s3, counting_body(d3, 1));
      launcher.run(g);
    } else {
      launcher.launch("k1", s1, counting_body(d1, 3));
      launcher.launch("k2", s2, counting_body(d2, 7));
      launcher.launch("k3", s3, counting_body(d3, 1));
    }
  };

  Launcher ref(DeviceSpec::tiny(8));
  ref.set_threads(1);
  build_and_run(ref, /*use_graph=*/false);

  for (const int threads : {1, 2, 4}) {
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    build_and_run(launcher, /*use_graph=*/true);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(launcher.history().size(), ref.history().size());
    for (std::size_t i = 0; i < ref.history().size(); ++i)
      expect_report_eq(launcher.history()[i], ref.history()[i]);
  }
}

TEST(KernelGraph, TraceStreamIdenticalToLaunchByLaunch) {
  auto run = [](Launcher& launcher, TraceSink& sink, bool use_graph) {
    launcher.set_trace(&sink);
    std::vector<int> d1(8, 0), d2(8, 0);
    const LaunchShape s{8, 8, 0, 8};
    if (use_graph) {
      KernelGraph g;
      g.enqueue("a", s, counting_body(d1, 2));
      g.enqueue("b", s, counting_body(d2, 2));
      launcher.run(g);
    } else {
      launcher.launch("a", s, counting_body(d1, 2));
      launcher.launch("b", s, counting_body(d2, 2));
    }
  };
  Launcher seq(DeviceSpec::tiny(8));
  TraceSink ref;
  run(seq, ref, /*use_graph=*/false);

  Launcher par(DeviceSpec::tiny(8));
  par.set_threads(4);
  TraceSink sink;
  run(par, sink, /*use_graph=*/true);

  ASSERT_EQ(sink.size(), ref.size());
  for (std::size_t i = 0; i < ref.events().size(); ++i) {
    const TraceEvent& a = sink.events()[i];
    const TraceEvent& b = ref.events()[i];
    EXPECT_EQ(a.block, b.block);
    EXPECT_EQ(a.warp, b.warp);
    EXPECT_EQ(a.cost, b.cost);
    ASSERT_EQ(sink.addresses(a).size(), ref.addresses(b).size());
  }
}

TEST(KernelGraph, ReportTimeIsTheSumOfKernelTimes) {
  Launcher launcher(DeviceSpec::tiny(8));
  std::vector<int> d1(16, 0), d2(16, 0);
  const LaunchShape s{16, 8, 0, 8};
  KernelGraph g;
  g.enqueue("a", s, counting_body(d1, 2));
  g.enqueue("b", s, counting_body(d2, 9));
  const GraphReport r = launcher.run(g);
  ASSERT_EQ(r.kernels.size(), 2u);
  EXPECT_DOUBLE_EQ(r.microseconds,
                   r.kernels[0].timing.microseconds + r.kernels[1].timing.microseconds);
  EXPECT_DOUBLE_EQ(r.microseconds, launcher.total_microseconds());
}

TEST(KernelGraph, RunIsConstAndReplayable) {
  // Launcher::run never mutates the graph: running the same graph twice
  // re-invokes the bodies (side effects accumulate) and produces
  // bit-identical per-run reports — the contract SortEngine plans rely on.
  Launcher launcher(DeviceSpec::tiny(8));
  std::vector<int> d1(16, 0), d2(16, 0);
  KernelGraph g;
  g.enqueue("a", LaunchShape{16, 8, 64, 8}, counting_body(d1, 3));
  g.enqueue("b", LaunchShape{16, 8, 64, 8}, counting_body(d2, 2));

  launcher.clear_history();
  launcher.run(g);
  const std::vector<KernelReport> first = launcher.history();
  launcher.clear_history();
  launcher.run(g);
  ASSERT_EQ(launcher.history().size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    expect_report_eq(launcher.history()[i], first[i]);
  for (const int c : d1) EXPECT_EQ(c, 2);  // bodies really ran twice
  for (const int c : d2) EXPECT_EQ(c, 2);
}

TEST(KernelGraph, ThrowingNodeLeavesLauncherUntouched) {
  for (const int threads : {1, 4}) {
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    TraceSink sink;
    launcher.set_trace(&sink);
    std::vector<int> d1(8, 0);
    KernelGraph g;
    g.enqueue("ok", LaunchShape{8, 8, 0, 8}, counting_body(d1, 1));
    g.enqueue("faulty", LaunchShape{8, 8, 0, 8}, [](BlockContext& ctx) {
      if (ctx.block_id() == 3) throw std::runtime_error("injected fault");
    });
    EXPECT_THROW(launcher.run(g), std::runtime_error);
    EXPECT_TRUE(launcher.history().empty()) << "threads=" << threads;
    EXPECT_EQ(sink.size(), 0u) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// The acceptance check of the migration: every sort shape produces the same
// history through merge_sort's graph pipeline as the pre-refactor
// launch-by-launch cadence, reproduced here as the oracle.
// ---------------------------------------------------------------------------

namespace {

struct GraphSortCase {
  int w, e, u;
  std::int64_t n;
  sort::Variant variant;
};

/// The pre-refactor merge_sort: one Launcher::launch per kernel, identical
/// bodies and shapes.  Kept verbatim as the bit-identity oracle.
template <typename T>
void launch_by_launch_sort(Launcher& launcher, std::vector<T>& data,
                           const sort::MergeConfig& cfg) {
  using namespace cfmerge::sort;
  const std::int64_t n = static_cast<std::int64_t>(data.size());
  const std::int64_t tile = cfg.tile();
  const std::int64_t n_padded = (n + tile - 1) / tile * tile;
  std::vector<T> buf = data;
  buf.resize(static_cast<std::size_t>(n_padded), padding_sentinel<T>::value());
  std::vector<T> tmp(static_cast<std::size_t>(n_padded));

  launcher.clear_history();
  const int regs = cfg.variant == Variant::CFMerge ? cost::cfmerge_regs_per_thread(cfg.e)
                                                   : cost::baseline_regs_per_thread(cfg.e);
  const int num_tiles = static_cast<int>(n_padded / tile);
  {
    LaunchShape shape{num_tiles, cfg.u, static_cast<std::size_t>(tile) * sizeof(T), regs};
    const bool cf_rounds = cfg.variant == Variant::CFMerge && cfg.cf_blocksort;
    if (cf_rounds) shape.shared_bytes_per_block *= 2;
    launcher.launch("block_sort", shape, [&](BlockContext& ctx) {
      block_sort_body<T>(ctx, std::span<T>(buf), cfg.e, cf_rounds);
    });
  }
  std::vector<std::int64_t> boundaries(static_cast<std::size_t>(num_tiles) + 1, 0);
  std::vector<T>* src = &buf;
  std::vector<T>* dst = &tmp;
  for (std::int64_t run = tile; run < n_padded; run *= 2) {
    const PassGeometry geom{n_padded, run};
    const auto nb = static_cast<std::int64_t>(boundaries.size());
    const int pblocks = static_cast<int>((nb + cfg.u - 1) / cfg.u);
    launcher.launch("merge_partition", LaunchShape{pblocks, cfg.u, 0, 24},
                    [&](BlockContext& ctx) {
                      merge_partition_body<T>(ctx, std::span<const T>(*src), geom, tile,
                                              std::span<std::int64_t>(boundaries));
                    });
    launcher.launch("merge_pass",
                    LaunchShape{num_tiles, cfg.u,
                                static_cast<std::size_t>(tile) * sizeof(T), regs},
                    [&](BlockContext& ctx) {
                      merge_tile_body<T>(ctx, std::span<const T>(*src), std::span<T>(*dst),
                                         geom, cfg,
                                         std::span<const std::int64_t>(boundaries));
                    });
    std::swap(src, dst);
  }
  std::copy(src->begin(), src->begin() + n, data.begin());
}

}  // namespace

class GraphSortBitIdentity : public ::testing::TestWithParam<GraphSortCase> {};

TEST_P(GraphSortBitIdentity, GraphHistoryMatchesPreRefactorPath) {
  const GraphSortCase c = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(c.n) * 31 + c.e);
  std::vector<int> input(static_cast<std::size_t>(c.n));
  for (auto& x : input) x = static_cast<int>(rng() % 1000000) - 500000;

  sort::MergeConfig cfg;
  cfg.e = c.e;
  cfg.u = c.u;
  cfg.variant = c.variant;

  Launcher ref(DeviceSpec::tiny(c.w));
  std::vector<int> ref_data = input;
  launch_by_launch_sort(ref, ref_data, cfg);

  Launcher launcher(DeviceSpec::tiny(c.w));
  std::vector<int> data = input;
  const sort::SortReport r = sort::merge_sort(launcher, data, cfg);

  EXPECT_EQ(data, ref_data);
  ASSERT_EQ(launcher.history().size(), ref.history().size());
  for (std::size_t k = 0; k < ref.history().size(); ++k)
    expect_report_eq(launcher.history()[k], ref.history()[k]);
  // The sort is one chain, so the makespan field is the sum.
  EXPECT_DOUBLE_EQ(r.makespan_microseconds, r.microseconds);
  EXPECT_EQ(r.graph_levels, 1 + 2 * r.passes);
}

namespace {
std::vector<GraphSortCase> graph_sort_cases() {
  std::vector<GraphSortCase> cases;
  for (const sort::Variant v : {sort::Variant::Baseline, sort::Variant::CFMerge}) {
    cases.push_back({8, 5, 16, 16 * 5 * 8, v});
    cases.push_back({8, 6, 16, 16 * 6 * 4, v});
    cases.push_back({8, 5, 16, 16 * 5, v});
    cases.push_back({8, 5, 16, 16 * 5 * 3 + 7, v});
    cases.push_back({8, 7, 16, 1000, v});
    cases.push_back({8, 5, 16, 3, v});
    cases.push_back({32, 15, 64, 64 * 15 * 4, v});
    cases.push_back({32, 17, 64, 64 * 17 * 2 + 11, v});
  }
  return cases;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Shapes, GraphSortBitIdentity,
                         ::testing::ValuesIn(graph_sort_cases()),
                         [](const ::testing::TestParamInfo<GraphSortCase>& info) {
                           const auto& c = info.param;
                           return std::string(c.variant == sort::Variant::Baseline
                                                  ? "base"
                                                  : "cf") +
                                  "_w" + std::to_string(c.w) + "_E" + std::to_string(c.e) +
                                  "_u" + std::to_string(c.u) + "_n" + std::to_string(c.n);
                         });
