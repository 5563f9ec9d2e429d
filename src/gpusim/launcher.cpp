#include "gpusim/launcher.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <thread>

namespace cfmerge::gpusim {

namespace {

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Resolves a requested worker count (0 = environment / default) to the
/// concrete count used by launches.  See Launcher::set_threads.
int resolve_threads(int requested) {
  if (requested < 0)
    throw std::invalid_argument("Launcher: thread count must be non-negative");
  if (requested > 0) return requested;
  if (const char* env = std::getenv("CFMERGE_SIM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
    if (n == 0 && env[0] == '0') return hardware_threads();
  }
  return 1;
}

/// What one simulated block produces, reduced into the report in block
/// order after all blocks finish.
struct BlockOutcome {
  PhaseCounters counters;
  double chain = 0.0;
  std::size_t shared_bytes = 0;
  std::uint64_t bulk_charges = 0;
  std::uint64_t lane_charges = 0;
  std::uint64_t audit_skipped = 0;
  std::unique_ptr<TraceSink> trace;  // only when a sink is attached
  std::exception_ptr error;
};

/// One unit of work for the pool: block `block` of graph node `node`.
struct WorkItem {
  int node = 0;
  int block = 0;
};

/// Joins the pool on scope exit so a throw never leaks running threads.
struct PoolJoiner {
  std::vector<std::thread>& pool;
  ~PoolJoiner() {
    for (std::thread& t : pool)
      if (t.joinable()) t.join();
  }
};

/// Simulates one block of one kernel into its private outcome slot.
void simulate_block(const DeviceSpec& dev, L2Cache* l2, MemoryAuditor* audit,
                    bool audit_skip, bool tracing, const LaunchShape& shape,
                    const KernelBody& body, int block, BlockOutcome& out) {
  if (tracing) out.trace = std::make_unique<TraceSink>();
  BlockContext ctx(dev, block, shape.blocks, shape.threads_per_block);
  ctx.set_trace(out.trace.get());
  ctx.set_l2(l2);
  ctx.set_audit(audit);
  ctx.set_audit_skip(audit_skip);
  body(ctx);
  out.counters = ctx.counters();
  out.chain = ctx.block_chain();
  out.shared_bytes = ctx.shared_bytes();
  out.bulk_charges = ctx.bulk_charges();
  out.lane_charges = ctx.lane_charges();
  out.audit_skipped = ctx.audit_skipped();
}

/// Deterministic reduction of one node's block outcomes in block order:
/// bit-identical to sequential execution for every worker count.  Does NOT
/// touch the trace sink or the history — committing is the caller's job.
KernelReport reduce_node(const DeviceSpec& dev, const std::string& name,
                         const LaunchShape& shape, const std::vector<BlockOutcome>& outcomes) {
  KernelReport report;
  report.name = name;
  report.shape = shape;
  double chain_sum = 0.0;
  std::size_t shared_bytes = shape.shared_bytes_per_block;
  for (const BlockOutcome& out : outcomes) {
    report.counters.merge(out.counters);
    chain_sum += out.chain;
    report.max_block_chain = std::max(report.max_block_chain, out.chain);
    shared_bytes = std::max(shared_bytes, out.shared_bytes);
  }
  report.mean_block_chain = chain_sum / static_cast<double>(outcomes.size());

  LaunchShape final_shape = shape;
  final_shape.shared_bytes_per_block = shared_bytes;
  report.shape = final_shape;
  report.timing = simulate_timing(dev, final_shape, report.total(), report.mean_block_chain);
  return report;
}

}  // namespace

Launcher::Launcher(DeviceSpec dev) : dev_(std::move(dev)) {
  dev_.validate();
  if (dev_.l2_bytes > 0)
    l2_ = std::make_unique<L2Cache>(dev_.l2_bytes, dev_.transaction_bytes, dev_.l2_ways);
  threads_ = resolve_threads(dev_.sim_threads);
}

void Launcher::set_threads(int n) { threads_ = resolve_threads(n); }

KernelReport Launcher::launch(const std::string& name, const LaunchShape& shape,
                              const std::function<void(BlockContext&)>& body) {
  if (shape.blocks <= 0) throw std::invalid_argument("Launcher::launch: empty grid");
  KernelGraph graph;
  graph.add(name, shape, body);
  return run(graph, GraphExec::Serial).kernels.front();
}

GraphReport Launcher::run(const KernelGraph& graph, GraphExec mode) {
  GraphReport out;
  if (graph.empty()) return out;
  const std::vector<KernelNode>& nodes = graph.nodes();
  const std::vector<int> level = graph.levels();
  out.levels = 1 + *std::max_element(level.begin(), level.end());

  // Private per-node, per-block outcomes; nothing is committed to the
  // launcher (history, trace sink, stats) until every node finished.
  std::vector<std::vector<BlockOutcome>> outcomes(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    outcomes[i].resize(static_cast<std::size_t>(nodes[i].shape.blocks));

  const bool tracing = trace_ != nullptr;
  auto simulate = [&](const WorkItem& it) {
    const auto i = static_cast<std::size_t>(it.node);
    simulate_block(dev_, l2_.get(), audit_, audit_skip_, tracing, nodes[i].shape,
                   nodes[i].body, it.block,
                   outcomes[i][static_cast<std::size_t>(it.block)]);
  };

  // The L2 is one order-sensitive LRU shared by all blocks: its hits depend
  // on the interleaving, so the documented fallback is sequential execution.
  const int pool_size = l2_ != nullptr ? 1 : threads_;

  // Runs a list of mutually independent work items.  Sequentially the first
  // exception propagates directly; on the pool all items are drained and the
  // earliest (enqueue id, block id) failure is rethrown after the join.
  // Either way the launcher commits nothing on a throw.
  auto run_items = [&](const std::vector<WorkItem>& items) {
    const int workers = std::min<int>(pool_size, static_cast<int>(items.size()));
    if (workers <= 1) {
      for (const WorkItem& it : items) simulate(it);
      return;
    }
    std::atomic<std::size_t> next{0};
    auto drain = [&]() {
      for (;;) {
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= items.size()) return;
        try {
          simulate(items[k]);
        } catch (...) {
          outcomes[static_cast<std::size_t>(items[k].node)]
                  [static_cast<std::size_t>(items[k].block)]
                      .error = std::current_exception();
        }
      }
    };
    {
      std::vector<std::thread> pool;
      PoolJoiner joiner{pool};
      pool.reserve(static_cast<std::size_t>(workers));
      for (int t = 0; t < workers; ++t) pool.emplace_back(drain);
    }
    for (const WorkItem& it : items) {
      const std::exception_ptr& err = outcomes[static_cast<std::size_t>(it.node)]
                                              [static_cast<std::size_t>(it.block)]
                                                  .error;
      if (err) std::rethrow_exception(err);
    }
  };

  // An auditor keys its shadow state by block id, which is unique only
  // within one kernel, so audited graphs also run one kernel at a time.
  if (mode == GraphExec::Serial || pool_size <= 1 || audit_ != nullptr) {
    // One kernel at a time in enqueue order — the pre-graph launch cadence
    // (each node's blocks still use the pool).
    for (int i = 0; i < graph.size(); ++i) {
      std::vector<WorkItem> items;
      items.reserve(static_cast<std::size_t>(nodes[static_cast<std::size_t>(i)].shape.blocks));
      for (int b = 0; b < nodes[static_cast<std::size_t>(i)].shape.blocks; ++b)
        items.push_back({i, b});
      run_items(items);
    }
  } else {
    // Wavefront execution: all blocks of all kernels of one dependency level
    // form a single flat work list for the pool.
    for (int lvl = 0; lvl < out.levels; ++lvl) {
      std::vector<WorkItem> items;
      for (int i = 0; i < graph.size(); ++i) {
        if (level[static_cast<std::size_t>(i)] != lvl) continue;
        for (int b = 0; b < nodes[static_cast<std::size_t>(i)].shape.blocks; ++b)
          items.push_back({i, b});
      }
      run_items(items);
    }
  }

  // Reduce every node in enqueue order (may evaluate timing; still nothing
  // committed), then evaluate the overlap model.
  out.kernels.reserve(nodes.size());
  out.finish_microseconds.assign(nodes.size(), 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    KernelReport report = reduce_node(dev_, nodes[i].name, nodes[i].shape, outcomes[i]);
    out.serial_microseconds += report.timing.microseconds;
    double start = 0.0;
    for (const NodeId d : nodes[i].deps)
      start = std::max(start, out.finish_microseconds[static_cast<std::size_t>(d)]);
    out.finish_microseconds[i] = start + report.timing.microseconds;
    out.makespan_microseconds =
        std::max(out.makespan_microseconds, out.finish_microseconds[i]);
    out.kernels.push_back(std::move(report));
  }

  // Commit: merge traces and append history in enqueue order — the event
  // stream and history are identical to serial launch-by-launch execution.
  if (trace_ != nullptr)
    for (const std::vector<BlockOutcome>& node_outcomes : outcomes)
      for (const BlockOutcome& b : node_outcomes)
        if (b.trace != nullptr) trace_->merge_from(*b.trace);
  for (const std::vector<BlockOutcome>& node_outcomes : outcomes)
    for (const BlockOutcome& b : node_outcomes) {
      bulk_charges_ += b.bulk_charges;
      lane_charges_ += b.lane_charges;
      audit_skipped_accesses_ += b.audit_skipped;
    }
  history_.insert(history_.end(), out.kernels.begin(), out.kernels.end());
  return out;
}

double Launcher::total_microseconds() const {
  double us = 0.0;
  for (const auto& r : history_) us += r.timing.microseconds;
  return us;
}

Counters Launcher::total_counters() const {
  Counters c;
  for (const auto& r : history_) c += r.total();
  return c;
}

PhaseCounters Launcher::phase_counters() const {
  PhaseCounters p;
  for (const auto& r : history_) p.merge(r.counters);
  return p;
}

}  // namespace cfmerge::gpusim
