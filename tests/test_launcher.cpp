// Tests of the kernel launcher: grid execution, aggregation, history, and
// the parallel block executor's determinism contract (bit-identical reports
// for every worker-thread count).
#include "gpusim/launcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/memory_views.hpp"

using namespace cfmerge::gpusim;

TEST(Launcher, RunsEveryBlockOnce) {
  Launcher launcher(DeviceSpec::tiny(8));
  std::vector<int> visits(10, 0);
  const LaunchShape shape{10, 8, 0, 8};
  launcher.launch("visit", shape, [&](BlockContext& ctx) {
    ++visits[static_cast<std::size_t>(ctx.block_id())];
    EXPECT_EQ(ctx.num_blocks(), 10);
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Launcher, AggregatesCountersAcrossBlocks) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{4, 8, 0, 8};
  const auto report = launcher.launch("work", shape, [&](BlockContext& ctx) {
    ctx.charge_compute(0, 10);
    std::vector<std::int64_t> addrs{0, 1, 2, 3, 4, 5, 6, 7};
    ctx.charge_shared(0, addrs);
  });
  EXPECT_EQ(report.total().warp_instructions, 40u);
  EXPECT_EQ(report.total().shared_accesses, 4u);
  EXPECT_EQ(report.name, "work");
}

TEST(Launcher, MeanAndMaxBlockChain) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{2, 8, 0, 8};
  const auto report = launcher.launch("chains", shape, [&](BlockContext& ctx) {
    ctx.charge_compute(0, ctx.block_id() == 0 ? 100 : 300);
  });
  EXPECT_DOUBLE_EQ(report.mean_block_chain, 200.0);
  EXPECT_DOUBLE_EQ(report.max_block_chain, 300.0);
}

TEST(Launcher, SharedBytesDiscoveredFromKernel) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{1, 8, 0, 8};
  const auto report = launcher.launch("alloc", shape, [&](BlockContext& ctx) {
    SharedTile<int> tile(ctx, 256);
    (void)tile;
  });
  EXPECT_EQ(report.shape.shared_bytes_per_block, 256 * sizeof(int));
  EXPECT_GT(report.timing.occupancy.blocks_per_sm, 0);
}

TEST(Launcher, HistoryAccumulatesAndClears) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{1, 8, 0, 8};
  launcher.launch("a", shape, [](BlockContext& ctx) { ctx.charge_compute(0, 5); });
  launcher.launch("b", shape, [](BlockContext& ctx) { ctx.charge_compute(0, 7); });
  EXPECT_EQ(launcher.history().size(), 2u);
  EXPECT_EQ(launcher.total_counters().warp_instructions, 12u);
  EXPECT_GT(launcher.total_microseconds(), 0.0);
  launcher.clear_history();
  EXPECT_TRUE(launcher.history().empty());
}

TEST(Launcher, PhaseCountersMergedAcrossKernels) {
  Launcher launcher(DeviceSpec::tiny(8));
  const LaunchShape shape{2, 8, 0, 8};
  launcher.launch("k1", shape, [](BlockContext& ctx) {
    ctx.phase("load");
    ctx.charge_compute(0, 1);
  });
  launcher.launch("k2", shape, [](BlockContext& ctx) {
    ctx.phase("load");
    ctx.charge_compute(0, 2);
    ctx.phase("merge");
    ctx.charge_compute(0, 3);
  });
  const PhaseCounters merged = launcher.phase_counters();
  std::uint64_t load = 0, merge = 0;
  for (const auto& [name, c] : merged.phases()) {
    if (name == "load") load = c.warp_instructions;
    if (name == "merge") merge = c.warp_instructions;
  }
  EXPECT_EQ(load, 6u);   // 1*2 blocks + 2*2 blocks
  EXPECT_EQ(merge, 6u);  // 3*2 blocks
}

TEST(Launcher, EmptyGridRejected) {
  Launcher launcher(DeviceSpec::tiny(8));
  EXPECT_THROW(launcher.launch("x", LaunchShape{0, 8, 0, 8}, [](BlockContext&) {}),
               std::invalid_argument);
}

TEST(Launcher, DataActuallyMovesThroughViews) {
  // A miniature end-to-end kernel: each block reverses its own 16-element
  // tile, staging through shared memory.
  Launcher launcher(DeviceSpec::tiny(8));
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 0);
  const LaunchShape shape{4, 8, 0, 8};
  launcher.launch("tile_reverse", shape, [&](BlockContext& ctx) {
    GlobalView<int> view(ctx, std::span<int>(data), 0);
    const std::int64_t base = ctx.block_id() * 16;
    SharedTile<int> stage(ctx, 16);
    std::vector<std::int64_t> src(8), dst(8);
    std::vector<int> vals(8);
    for (int half = 0; half < 2; ++half) {
      for (int l = 0; l < 8; ++l) {
        const std::int64_t t = half * 8 + l;
        src[static_cast<std::size_t>(l)] = base + t;
        dst[static_cast<std::size_t>(l)] = 15 - t;
      }
      view.gather(0, src, vals);
      stage.scatter(0, dst, vals);
    }
    ctx.barrier();
    for (int half = 0; half < 2; ++half) {
      for (int l = 0; l < 8; ++l) {
        const std::int64_t t = half * 8 + l;
        src[static_cast<std::size_t>(l)] = t;
        dst[static_cast<std::size_t>(l)] = base + t;
      }
      stage.gather(0, src, vals);
      view.scatter(0, dst, vals);
    }
  });
  for (int b = 0; b < 4; ++b)
    for (int i = 0; i < 16; ++i)
      EXPECT_EQ(data[static_cast<std::size_t>(b * 16 + i)], b * 16 + 15 - i);
}

// ---------------------------------------------------------------------------
// Parallel block executor: bit-identical reports for every thread count.
// ---------------------------------------------------------------------------

namespace {

// A kernel with shared traffic (conflicting and conflict-free), global
// traffic (coalesced and strided), barriers, multiple phases and
// block-dependent costs — every counter and both chain statistics get
// non-trivial values.
void mixed_traffic_body(BlockContext& ctx) {
  const int w = ctx.lanes();
  std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));
  ctx.phase("load");
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    for (int l = 0; l < w; ++l)  // coalesced tile load
      addrs[static_cast<std::size_t>(l)] =
          (ctx.block_id() * ctx.threads() + warp * w + l) * 4;
    ctx.charge_gmem(warp, addrs, 4);
    for (int l = 0; l < w; ++l)  // conflict-free shared store
      addrs[static_cast<std::size_t>(l)] = warp * w + l;
    ctx.charge_shared(warp, addrs, true, true);
  }
  ctx.barrier();
  ctx.phase("search");
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    ctx.charge_compute(warp, 5 + static_cast<std::uint64_t>(ctx.block_id() % 3));
    for (int l = 0; l < w; ++l)  // strided: (block_id+2)-way conflicts vary
      addrs[static_cast<std::size_t>(l)] = l * (ctx.block_id() % w + 2);
    ctx.charge_shared(warp, addrs);
  }
  ctx.barrier();
  ctx.phase("merge");
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    for (int l = 0; l < w; ++l)  // same-bank: worst-case conflicts
      addrs[static_cast<std::size_t>(l)] = l * w;
    ctx.charge_shared(warp, addrs);
    for (int l = 0; l < w; ++l)  // strided global writes
      addrs[static_cast<std::size_t>(l)] = (ctx.block_id() + l * 64) * 4;
    ctx.charge_gmem(warp, addrs, 4, true, true);
    ctx.charge_compute(warp, 11);
  }
}

void expect_bit_identical(const KernelReport& a, const KernelReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.mean_block_chain, b.mean_block_chain);  // exact, not approximate
  EXPECT_EQ(a.max_block_chain, b.max_block_chain);
  EXPECT_EQ(a.timing.cycles, b.timing.cycles);
  EXPECT_EQ(a.timing.microseconds, b.timing.microseconds);
  EXPECT_EQ(a.timing.work_bound, b.timing.work_bound);
  EXPECT_EQ(a.timing.latency_bound, b.timing.latency_bound);
  EXPECT_STREQ(a.timing.limiter, b.timing.limiter);
}

}  // namespace

TEST(LauncherParallel, ReportBitIdenticalAcrossThreadCounts) {
  const LaunchShape shape{13, 16, 0, 16};
  Launcher seq(DeviceSpec::tiny(8));
  seq.set_threads(1);
  const KernelReport ref = seq.launch("mixed", shape, mixed_traffic_body);
  ASSERT_GT(ref.total().bank_conflicts, 0u);
  ASSERT_GT(ref.total().gmem_transactions, 0u);
  ASSERT_GT(ref.total().barriers, 0u);

  for (const int threads : {2, 4, 7}) {
    Launcher par(DeviceSpec::tiny(8));
    par.set_threads(threads);
    EXPECT_EQ(par.threads(), threads);
    const KernelReport r = par.launch("mixed", shape, mixed_traffic_body);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bit_identical(ref, r);
  }
}

TEST(LauncherParallel, ThreadCountFromDeviceSpec) {
  DeviceSpec dev = DeviceSpec::tiny(8);
  dev.sim_threads = 3;
  Launcher launcher(dev);
  EXPECT_EQ(launcher.threads(), 3);
  launcher.set_threads(0);  // env unset in tests -> sequential default
  EXPECT_GE(launcher.threads(), 1);
  EXPECT_THROW(launcher.set_threads(-1), std::invalid_argument);
}

TEST(LauncherParallel, TraceSinkIdenticalUnderParallelism) {
  const LaunchShape shape{9, 16, 0, 16};
  auto run = [&](int threads, TraceSink& sink) {
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    launcher.set_trace(&sink);
    launcher.launch("traced", shape, mixed_traffic_body);
  };
  TraceSink ref, par;
  run(1, ref);
  run(4, par);
  ASSERT_GT(ref.size(), 0u);
  ASSERT_EQ(ref.size(), par.size());
  EXPECT_EQ(ref.phase_names(), par.phase_names());
  EXPECT_EQ(ref.shared_conflicts(), par.shared_conflicts());
  // The full event streams (order, fields, per-lane addresses) must match;
  // the CSV serialization covers every field at once.
  std::ostringstream ref_csv, par_csv;
  ref.write_csv(ref_csv);
  par.write_csv(par_csv);
  EXPECT_EQ(ref_csv.str(), par_csv.str());
}

TEST(LauncherParallel, L2ForcesSequentialFallbackDeterministically) {
  DeviceSpec dev = DeviceSpec::tiny(8);
  dev.l2_bytes = 4096;  // enables the order-sensitive shared cache
  auto body = [](BlockContext& ctx) {
    std::vector<std::int64_t> addrs(static_cast<std::size_t>(ctx.lanes()));
    for (int rep = 0; rep < 3; ++rep)  // re-touch the same lines across blocks
      for (int warp = 0; warp < ctx.warps(); ++warp) {
        for (int l = 0; l < ctx.lanes(); ++l)
          addrs[static_cast<std::size_t>(l)] = (warp * ctx.lanes() + l) * 4;
        ctx.charge_gmem(warp, addrs, 4);
      }
  };
  const LaunchShape shape{6, 16, 0, 16};
  Launcher seq(dev);
  seq.set_threads(1);
  const KernelReport ref = seq.launch("l2", shape, body);
  ASSERT_GT(ref.total().l2_hits, 0u);

  Launcher par(dev);
  par.set_threads(4);  // must fall back to sequential while L2 is enabled
  const KernelReport r = par.launch("l2", shape, body);
  expect_bit_identical(ref, r);
  EXPECT_EQ(par.l2()->hits(), seq.l2()->hits());
  EXPECT_EQ(par.l2()->misses(), seq.l2()->misses());
}

TEST(LauncherParallel, ThrowingKernelLeavesLauncherIntact) {
  Launcher launcher(DeviceSpec::tiny(8));
  launcher.set_threads(4);
  TraceSink sink;
  launcher.set_trace(&sink);
  const LaunchShape shape{32, 8, 0, 8};
  auto faulty = [](BlockContext& ctx) {
    std::vector<std::int64_t> addrs{0, 1, 2, 3, 4, 5, 6, 7};
    ctx.charge_shared(0, addrs);
    if (ctx.block_id() % 5 == 2) throw std::runtime_error("injected fault");
  };
  EXPECT_THROW(launcher.launch("faulty", shape, faulty), std::runtime_error);
  // No partial report, no partial trace, no leaked threads (TSan-checked).
  EXPECT_TRUE(launcher.history().empty());
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(launcher.total_counters().shared_accesses, 0u);

  // The launcher stays usable after the failure.
  const auto report = launcher.launch("ok", shape, [](BlockContext& ctx) {
    ctx.charge_compute(0, 2);
  });
  EXPECT_EQ(report.total().warp_instructions, 64u);
  EXPECT_EQ(launcher.history().size(), 1u);
  EXPECT_EQ(sink.size(), 0u);
}

TEST(LauncherParallel, StressManyBlocksEveryBlockExactlyOnce) {
  constexpr int kBlocks = 768;
  Launcher launcher(DeviceSpec::tiny(8));
  launcher.set_threads(7);
  std::vector<std::atomic<int>> visits(kBlocks);
  const LaunchShape shape{kBlocks, 8, 0, 8};
  const KernelReport report = launcher.launch("stress", shape, [&](BlockContext& ctx) {
    visits[static_cast<std::size_t>(ctx.block_id())].fetch_add(1,
                                                              std::memory_order_relaxed);
    std::vector<std::int64_t> addrs(8);
    for (int l = 0; l < 8; ++l) addrs[static_cast<std::size_t>(l)] = l * 8;  // same bank
    ctx.charge_shared(0, addrs);
    ctx.barrier();
    ctx.charge_compute(0, static_cast<std::uint64_t>(ctx.block_id()) % 17);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_EQ(report.total().shared_accesses, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(report.total().barriers, static_cast<std::uint64_t>(kBlocks));

  Launcher seq(DeviceSpec::tiny(8));
  seq.set_threads(1);
  const KernelReport ref = seq.launch("stress", shape, [&](BlockContext& ctx) {
    visits[static_cast<std::size_t>(ctx.block_id())].fetch_add(1,
                                                              std::memory_order_relaxed);
    std::vector<std::int64_t> addrs(8);
    for (int l = 0; l < 8; ++l) addrs[static_cast<std::size_t>(l)] = l * 8;
    ctx.charge_shared(0, addrs);
    ctx.barrier();
    ctx.charge_compute(0, static_cast<std::uint64_t>(ctx.block_id()) % 17);
  });
  expect_bit_identical(ref, report);
}

TEST(LauncherParallel, DataParallelKernelStillMovesData) {
  // The tile-reverse kernel from above, now with a worker pool: blocks write
  // disjoint tiles, so the data outcome must be unchanged.
  Launcher launcher(DeviceSpec::tiny(8));
  launcher.set_threads(4);
  std::vector<int> data(256);
  std::iota(data.begin(), data.end(), 0);
  const LaunchShape shape{16, 8, 0, 8};
  launcher.launch("tile_reverse_par", shape, [&](BlockContext& ctx) {
    GlobalView<int> view(ctx, std::span<int>(data), 0);
    const std::int64_t base = ctx.block_id() * 16;
    SharedTile<int> stage(ctx, 16);
    std::vector<std::int64_t> src(8), dst(8);
    std::vector<int> vals(8);
    for (int half = 0; half < 2; ++half) {
      for (int l = 0; l < 8; ++l) {
        const std::int64_t t = half * 8 + l;
        src[static_cast<std::size_t>(l)] = base + t;
        dst[static_cast<std::size_t>(l)] = 15 - t;
      }
      view.gather(0, src, vals);
      stage.scatter(0, dst, vals);
    }
    ctx.barrier();
    for (int half = 0; half < 2; ++half) {
      for (int l = 0; l < 8; ++l) {
        const std::int64_t t = half * 8 + l;
        src[static_cast<std::size_t>(l)] = t;
        dst[static_cast<std::size_t>(l)] = base + t;
      }
      stage.gather(0, src, vals);
      view.scatter(0, dst, vals);
    }
  });
  for (int b = 0; b < 16; ++b)
    for (int i = 0; i < 16; ++i)
      EXPECT_EQ(data[static_cast<std::size_t>(b * 16 + i)], b * 16 + 15 - i);
}

TEST(LauncherParallel, SimThreadsEnvironmentIsParsedStrictly) {
  // Sets CFMERGE_SIM_THREADS for the scope and restores the caller's value.
  struct EnvGuard {
    std::optional<std::string> saved;
    EnvGuard() {
      if (const char* v = std::getenv("CFMERGE_SIM_THREADS")) saved = v;
    }
    ~EnvGuard() {
      if (saved)
        setenv("CFMERGE_SIM_THREADS", saved->c_str(), 1);
      else
        unsetenv("CFMERGE_SIM_THREADS");
    }
  } guard;
  Launcher launcher(DeviceSpec::tiny(8));

  setenv("CFMERGE_SIM_THREADS", "3", 1);
  launcher.set_threads(0);
  EXPECT_EQ(launcher.threads(), 3);
  EXPECT_EQ(Launcher(DeviceSpec::tiny(8)).threads(), 3);  // sim_threads = 0 reads it too
  setenv("CFMERGE_SIM_THREADS", "0", 1);  // 0 = hardware concurrency
  launcher.set_threads(0);
  EXPECT_GE(launcher.threads(), 1);
  setenv("CFMERGE_SIM_THREADS", "", 1);  // empty = unset
  launcher.set_threads(0);
  EXPECT_EQ(launcher.threads(), 1);
  unsetenv("CFMERGE_SIM_THREADS");
  launcher.set_threads(0);
  EXPECT_EQ(launcher.threads(), 1);

  for (const char* bad : {"abc", "-3", "4x", " 4", "+4", "99999999999"}) {
    SCOPED_TRACE(std::string("CFMERGE_SIM_THREADS=") + bad);
    setenv("CFMERGE_SIM_THREADS", bad, 1);
    EXPECT_THROW(launcher.set_threads(0), std::invalid_argument);
    EXPECT_THROW(Launcher{DeviceSpec::tiny(8)}, std::invalid_argument);
    try {
      launcher.set_threads(0);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("CFMERGE_SIM_THREADS"), std::string::npos);
    }
    EXPECT_EQ(launcher.threads(), 1);  // a rejected value changes nothing
    launcher.set_threads(2);           // an explicit count ignores the variable
    EXPECT_EQ(launcher.threads(), 2);
    launcher.set_threads(1);
  }
}

// ---------------------------------------------------------------------------
// The persistent worker pool: one set of helper threads per launcher, reused
// by every parallel wavefront, with the calling thread draining items too.
// No test here starts more than 7 threads.
// ---------------------------------------------------------------------------

namespace {

/// A three-node graph: two independent kernels in one wavefront, then a
/// kernel depending on both.
KernelGraph mixed_graph() {
  KernelGraph g;
  const NodeId a = g.add("a", LaunchShape{9, 16, 0, 16}, mixed_traffic_body);
  const NodeId b = g.add("b", LaunchShape{5, 16, 0, 16}, mixed_traffic_body);
  g.add("c", LaunchShape{13, 16, 0, 16}, mixed_traffic_body, {a, b});
  return g;
}

void expect_graph_bit_identical(const GraphReport& a, const GraphReport& b) {
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (std::size_t i = 0; i < a.kernels.size(); ++i)
    expect_bit_identical(a.kernels[i], b.kernels[i]);
  EXPECT_EQ(a.finish_microseconds, b.finish_microseconds);
  EXPECT_EQ(a.serial_microseconds, b.serial_microseconds);
  EXPECT_EQ(a.makespan_microseconds, b.makespan_microseconds);
  EXPECT_EQ(a.levels, b.levels);
}

/// Records which host threads ran blocks.
struct ThreadLog {
  std::mutex mu;
  std::set<std::thread::id> ids;
  void record() {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  }
};

/// A block body that waits until `parties` blocks have arrived, so the run
/// completes promptly only when that many workers run blocks at once.  It
/// gives up after a timeout, so a launcher with too few workers fails the
/// test's thread-count check instead of hanging.
struct Rendezvous {
  explicit Rendezvous(int n) : parties(n) {}
  int parties;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  void arrive() {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return arrived >= parties; });
  }
};

/// Runs `parties` blocks on `launcher`, each waiting for all the others;
/// returns the distinct thread ids that ran them.
std::set<std::thread::id> run_rendezvous(Launcher& launcher, int parties) {
  Rendezvous meet(parties);
  ThreadLog log;
  launcher.launch("rendezvous", LaunchShape{parties, 8, 0, 8}, [&](BlockContext&) {
    log.record();
    meet.arrive();
  });
  return log.ids;
}

}  // namespace

TEST(LauncherPool, OneLauncherReusedAcrossThreadCountsIsBitIdentical) {
  Launcher seq(DeviceSpec::tiny(8));
  seq.set_threads(1);
  const LaunchShape shape{13, 16, 0, 16};
  const KernelReport ref_launch = seq.launch("mixed", shape, mixed_traffic_body);
  const KernelGraph graph = mixed_graph();
  const GraphReport ref_graph = seq.run(graph);

  Launcher pooled(DeviceSpec::tiny(8));
  const int cycle[] = {1, 4, 2, 7, 1};
  for (int round = 0; round < 24; ++round) {
    const int threads = cycle[round % 5];
    pooled.set_threads(threads);
    SCOPED_TRACE("round " + std::to_string(round) + ", threads=" + std::to_string(threads));
    expect_bit_identical(ref_launch, pooled.launch("mixed", shape, mixed_traffic_body));
    const GraphExec mode = round % 2 == 0 ? GraphExec::Overlap : GraphExec::Serial;
    expect_graph_bit_identical(ref_graph, pooled.run(graph, mode));
  }
  EXPECT_EQ(pooled.history().size(), 24u * 4u);
}

TEST(LauncherPool, ThrowingRunThenCleanRunsOnTheSamePool) {
  Launcher seq(DeviceSpec::tiny(8));
  const GraphReport ref = seq.run(mixed_graph());

  Launcher launcher(DeviceSpec::tiny(8));
  launcher.set_threads(4);
  TraceSink sink;
  launcher.set_trace(&sink);
  EXPECT_EQ(launcher.run(mixed_graph()).kernels.size(), 3u);  // the pool is live
  const std::size_t events = sink.size();
  launcher.clear_history();

  KernelGraph faulty;
  faulty.add("ok", LaunchShape{6, 8, 0, 8},
             [](BlockContext& ctx) { ctx.charge_compute(0, 1); });
  faulty.add("bad", LaunchShape{16, 8, 0, 8}, [](BlockContext& ctx) {
    ctx.charge_compute(0, 1);
    if (ctx.block_id() % 4 == 3)
      throw std::runtime_error("block " + std::to_string(ctx.block_id()));
  });
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      launcher.run(faulty);
      ADD_FAILURE() << "the faulty graph did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "block 3");  // earliest failing (enqueue id, block id)
    }
    EXPECT_TRUE(launcher.history().empty());
    EXPECT_EQ(launcher.total_counters().warp_instructions, 0u);
    EXPECT_EQ(sink.size(), events);
  }

  launcher.set_trace(nullptr);
  for (int round = 0; round < 3; ++round)
    expect_graph_bit_identical(ref, launcher.run(mixed_graph()));
  EXPECT_EQ(launcher.history().size(), 9u);
}

TEST(LauncherPool, MovedLauncherKeepsRunningInParallel) {
  Launcher a(DeviceSpec::tiny(8));
  a.set_threads(4);
  EXPECT_EQ(run_rendezvous(a, 4).size(), 4u);  // three live helpers

  Launcher b(std::move(a));
  EXPECT_EQ(b.threads(), 4);
  EXPECT_EQ(run_rendezvous(b, 4).size(), 4u);

  Launcher c(DeviceSpec::tiny(8));
  c.set_threads(2);
  EXPECT_EQ(run_rendezvous(c, 2).size(), 2u);  // c's own helper, joined by the assignment
  c = std::move(b);
  EXPECT_EQ(c.threads(), 4);
  EXPECT_EQ(run_rendezvous(c, 4).size(), 4u);

  Launcher seq(DeviceSpec::tiny(8));
  expect_graph_bit_identical(seq.run(mixed_graph()), c.run(mixed_graph()));
  // a and b are moved-from; they are destroyed at scope exit.
}

TEST(LauncherPool, BlocksRunOnTheCallerAndAtMostThreadsWorkers) {
  Launcher launcher(DeviceSpec::tiny(8));
  for (const int threads : {1, 2, 3, 7}) {
    launcher.set_threads(threads);
    for (const int blocks : {1, 2, 5, 40}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " blocks=" + std::to_string(blocks));
      ThreadLog log;
      launcher.launch("ids", LaunchShape{blocks, 8, 0, 8}, [&](BlockContext& ctx) {
        log.record();
        ctx.charge_compute(0, 1);
      });
      EXPECT_GE(log.ids.size(), 1u);
      EXPECT_LE(log.ids.size(), static_cast<std::size_t>(std::min(threads, blocks)));
      if (std::min(threads, blocks) == 1) {
        EXPECT_EQ(log.ids.count(std::this_thread::get_id()), 1u);  // the inline path
      }
    }
  }
  // When every worker must hold a block at once, all min(threads, blocks)
  // workers run, and the calling thread is one of them.
  for (const int threads : {2, 4, 7}) {
    launcher.set_threads(threads);
    const std::set<std::thread::id> ids = run_rendezvous(launcher, threads);
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(threads));
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
  }
}

TEST(LauncherPool, KernelBodyRunningItsOwnLauncherIsRejected) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Launcher launcher(DeviceSpec::tiny(8));
    launcher.set_threads(threads);
    const LaunchShape shape{8, 8, 0, 8};
    KernelGraph inner;
    inner.add("inner", shape, [](BlockContext&) {});

    // Every block, on the caller or on a helper, gets the error.
    std::atomic<int> rejected{0};
    const KernelReport r = launcher.launch("outer", shape, [&](BlockContext& ctx) {
      try {
        launcher.run(inner);
      } catch (const std::logic_error&) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
      ctx.charge_compute(0, 1);
    });
    EXPECT_EQ(rejected.load(), 8);
    EXPECT_EQ(r.total().warp_instructions, 8u);
    EXPECT_EQ(launcher.history().size(), 1u);

    // Uncaught, it fails the outer run, which commits nothing.
    EXPECT_THROW(launcher.launch("outer", shape, [&](BlockContext&) { launcher.run(inner); }),
                 std::logic_error);
    EXPECT_EQ(launcher.history().size(), 1u);

    // The launcher stays usable, and a body may run a different launcher.
    Launcher other(DeviceSpec::tiny(8));
    launcher.launch("outer", shape, [&](BlockContext& ctx) {
      if (ctx.block_id() == 0) other.run(inner);
    });
    EXPECT_EQ(launcher.history().size(), 2u);
    EXPECT_EQ(other.history().size(), 1u);
  }
}
