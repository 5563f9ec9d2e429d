#include "gpusim/launcher.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "gpusim/parse_int.hpp"

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
  const char* env = std::getenv("CFMERGE_SIM_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const int n = parse_int<int>(env, "CFMERGE_SIM_THREADS", 0);
  return n == 0 ? hardware_threads() : n;
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

/// Simulates one block of one kernel into its private outcome slot.
void simulate_block(const DeviceSpec& dev, MemoryAuditor* audit, bool audit_skip,
                    bool tracing, const LaunchShape& shape, const KernelBody& body,
                    int block, BlockOutcome& out) {
  if (tracing) out.trace = std::make_unique<TraceSink>();
  BlockContext ctx(dev, block, shape.blocks, shape.threads_per_block);
  ctx.set_trace(out.trace.get());
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

/// Deterministic reduction of one kernel's block outcomes in block order:
/// bit-identical to sequential execution for every worker count.  Does NOT
/// touch the trace sink or the history — committing is the caller's job.
KernelReport reduce_kernel(const DeviceSpec& dev, const KernelNode& node,
                           const std::vector<BlockOutcome>& outcomes) {
  const LaunchShape& shape = node.shape;
  KernelReport report;
  report.name = node.name;
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

namespace detail {

/// The launcher's persistent helper threads.  run() hands the `count`
/// blocks of one kernel to the calling thread plus `workers - 1` helpers,
/// which all claim blocks from one atomic cursor; between kernels the
/// helpers park on a condition variable.  Completion is signalled under
/// the mutex, so everything a helper wrote happens-before run() returns.
class WorkerPool {
 public:
  using Job = std::function<void(std::size_t)>;

  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : helpers_) t.join();
  }

  /// Runs job(k) for every k in [0, count) on the calling thread and
  /// `workers - 1` helpers (started on first need), and returns once every
  /// item is done.  `job` must not throw.
  void run(int workers, std::size_t count, const Job& job) {
    const int helpers = workers - 1;
    while (static_cast<int>(helpers_.size()) < helpers)
      helpers_.emplace_back(&WorkerPool::helper_loop, this, static_cast<int>(helpers_.size()));
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      active_ = helpers;
      pending_ = helpers;
      ++generation_;
    }
    wake_.notify_all();
    drain();
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return pending_ == 0; });
  }

 private:
  void drain() {
    for (;;) {
      const std::size_t k = next_.fetch_add(1, std::memory_order_relaxed);
      if (k >= count_) return;
      (*job_)(k);
    }
  }

  /// Helper `index` joins every kernel that asks for more than `index`
  /// helpers; a new helper's index is at least every earlier kernel's
  /// helper count, so it never joins a kernel that is already running.
  void helper_loop(int index) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || (generation_ != seen && index < active_); });
      if (stop_) return;
      seen = generation_;
      lock.unlock();
      drain();
      lock.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;  // helpers: a new kernel or stop
  std::condition_variable done_;  // caller: every helper of the kernel finished
  // Guarded by mu_.
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  int active_ = 0;   // helpers that join the current kernel
  int pending_ = 0;  // of those, the ones still draining
  const Job* job_ = nullptr;
  std::size_t count_ = 0;
  // The block cursor, shared by the caller and the active helpers.
  std::atomic<std::size_t> next_{0};
  std::vector<std::thread> helpers_;  // last: the threads use every member above
};

}  // namespace detail

Launcher::Launcher(DeviceSpec dev) : dev_(std::move(dev)) {
  dev_.validate();
  threads_ = resolve_threads(dev_.sim_threads);
}

Launcher::~Launcher() = default;
Launcher::Launcher(Launcher&&) noexcept = default;
Launcher& Launcher::operator=(Launcher&&) noexcept = default;

void Launcher::set_threads(int n) { threads_ = resolve_threads(n); }

KernelReport Launcher::launch(const std::string& name, const LaunchShape& shape,
                              const std::function<void(BlockContext&)>& body) {
  KernelGraph graph;
  graph.enqueue(name, shape, body);
  return run(graph).kernels.front();
}

GraphReport Launcher::run(const KernelGraph& graph) {
  if (running_)
    throw std::logic_error("Launcher::run: not re-entrant (a kernel body ran its launcher)");
  running_ = true;
  struct Running {
    bool& flag;
    ~Running() { flag = false; }
  } running{running_};

  // Private per-kernel, per-block outcomes; nothing is committed to the
  // launcher (history, trace sink, stats) until every kernel finished.
  const std::vector<KernelNode>& nodes = graph.nodes();
  std::vector<std::vector<BlockOutcome>> outcomes(nodes.size());
  const bool tracing = trace_ != nullptr;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const KernelNode& node = nodes[i];
    std::vector<BlockOutcome>& blocks = outcomes[i];
    blocks.resize(static_cast<std::size_t>(node.shape.blocks));
    auto simulate = [&](std::size_t b) {
      simulate_block(dev_, audit_, audit_skip_, tracing, node.shape, node.body,
                     static_cast<int>(b), blocks[b]);
    };
    // Sequentially the first exception propagates directly; on the pool
    // every block is drained and the lowest failing block's exception is
    // rethrown once every worker finished.
    const int workers = std::min(threads_, node.shape.blocks);
    if (workers <= 1) {
      for (std::size_t b = 0; b < blocks.size(); ++b) simulate(b);
    } else {
      if (pool_ == nullptr) pool_ = std::make_unique<detail::WorkerPool>();
      pool_->run(workers, blocks.size(), [&](std::size_t b) {
        try {
          simulate(b);
        } catch (...) {
          blocks[b].error = std::current_exception();
        }
      });
      for (const BlockOutcome& b : blocks)
        if (b.error) std::rethrow_exception(b.error);
    }
  }

  // Reduce every kernel in enqueue order once all have run, so the pool gets
  // each kernel right after the previous one: reducing in between cost ~2%
  // host CPU time on perfbench mixed_small (shared 4-core x86 host).
  GraphReport out;
  out.kernels.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out.kernels.push_back(reduce_kernel(dev_, nodes[i], outcomes[i]));
    out.microseconds += out.kernels.back().timing.microseconds;
  }

  // Commit: merge traces and append history in enqueue order — the event
  // stream and history are identical to launch-by-launch execution.
  for (const std::vector<BlockOutcome>& kernel_outcomes : outcomes)
    for (const BlockOutcome& b : kernel_outcomes) {
      if (b.trace != nullptr) trace_->merge_from(*b.trace);
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
