// Kernel launcher: runs a kernel body for every block of a grid, collects
// counters + dependency chains, and evaluates the timing model.
//
// A "kernel" is any callable void(BlockContext&).  The model is
// deterministic and blocks are independent, so the launcher may simulate
// them on several host threads (see set_threads / DeviceSpec::sim_threads):
// the calling thread plus helpers from a pool the launcher creates at its
// first parallel kernel and keeps, parked, until it is destroyed.
// Each block accumulates into private per-block state which is then reduced
// in block order, so the resulting KernelReport — counters, chains, timing —
// is bit-identical to the sequential execution no matter how many worker
// threads run it.
//
// Kernels can be launched one at a time (launch) or enqueued into a
// KernelGraph and executed as one ordered list (run): one kernel at a time
// in enqueue order, each kernel's blocks on the worker pool; see
// gpusim/kernel_graph.hpp for the graph semantics.
//
// Determinism contract per stateful component:
//  * PhaseCounters / dependency chains: always per-block, reduced in block
//    order (phase name order is first-use order across ascending block ids).
//  * TraceSink: blocks record into private per-block sinks that are merged
//    into the attached sink in block order after all blocks finish — the
//    event stream is identical to sequential recording, and a throwing
//    kernel leaves the attached sink untouched.
//
// Kernel bodies run concurrently and must therefore only write
// block-disjoint data (each simulated block owns its tiles/partition slots,
// as real GPU grids do).  Every kernel in this repository satisfies this.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/kernel_graph.hpp"
#include "gpusim/trace.hpp"
#include "gpusim/timing.hpp"

namespace cfmerge::gpusim {

namespace detail {
class WorkerPool;
}  // namespace detail

struct KernelReport {
  std::string name;
  LaunchShape shape;
  PhaseCounters counters;
  double mean_block_chain = 0.0;
  double max_block_chain = 0.0;
  KernelTiming timing;

  [[nodiscard]] Counters total() const { return counters.total(); }
};

/// Result of executing a KernelGraph.
struct GraphReport {
  /// One report per kernel, in enqueue order (also appended to the history).
  std::vector<KernelReport> kernels;
  /// Sum of the kernel times: the kernels run one after another.
  double microseconds = 0.0;
};

class Launcher {
 public:
  explicit Launcher(DeviceSpec dev);
  /// Stops and joins the worker pool's helper threads.
  ~Launcher();
  Launcher(Launcher&&) noexcept;
  Launcher& operator=(Launcher&&) noexcept;

  [[nodiscard]] const DeviceSpec& device() const { return dev_; }

  /// Attaches a trace sink recording every access of subsequent launches
  /// (nullptr detaches).  See gpusim/trace.hpp.
  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Attaches a memory auditor observing every access of subsequent launches
  /// (nullptr detaches).  Shared by all blocks — implementations must be
  /// internally synchronized.  See gpusim/audit.hpp.
  void set_audit(MemoryAuditor* audit) { audit_ = audit; }
  [[nodiscard]] MemoryAuditor* audit() const { return audit_; }

  /// Enables audit=certified-skip for subsequent launches: executions whose
  /// certificate carries a Pass 3 safety token take the bulk path even with
  /// an auditor attached, eliding per-lane shadow replay for those accesses
  /// (reported through MemoryAuditor::on_certified_skip instead).  Counters
  /// stay bit-identical to the fully-audited run.  No effect without an
  /// attached auditor.
  void set_audit_skip(bool on) { audit_skip_ = on; }
  [[nodiscard]] bool audit_skip() const { return audit_skip_; }

  /// Sets the number of host worker threads used to simulate blocks.
  ///   n >= 1  use exactly n workers (1 = sequential, the default);
  ///   n == 0  resolve from the CFMERGE_SIM_THREADS environment variable
  ///           (where 0 itself means std::thread::hardware_concurrency),
  ///           falling back to 1 when unset or empty.
  /// A kernel of m blocks runs on min(n, m) workers: the calling thread
  /// and min(n, m) - 1 pool helpers.  Throws std::invalid_argument for a
  /// negative n or a CFMERGE_SIM_THREADS that is not a whole non-negative
  /// integer.  Reports are bit-identical for every value; see the header
  /// comment.
  void set_threads(int n);
  /// The resolved worker-thread count used by subsequent launches.
  [[nodiscard]] int threads() const { return threads_; }

  /// Runs `body` for each of `shape.blocks` blocks and returns the report.
  /// The report is also appended to the launch history.  When the body
  /// throws for any block, the exception of the lowest-id failing block is
  /// rethrown after every worker finished, and neither the history, nor the
  /// attached trace sink, nor any launcher statistic is modified.
  KernelReport launch(const std::string& name, const LaunchShape& shape,
                      const std::function<void(BlockContext&)>& body);

  /// Executes the kernels of `graph` one at a time in enqueue order, each
  /// kernel's blocks on the worker pool, and returns the per-kernel reports
  /// and their summed time.  The reports are appended to the launch history
  /// in enqueue order.  When any kernel body throws, the exception of the
  /// lowest failing block of the first failing kernel is rethrown after
  /// every worker finished, and neither the history, nor the attached trace
  /// sink, nor any launcher statistic is modified.  Not re-entrant: a
  /// kernel body that calls run or launch on the launcher running it gets
  /// std::logic_error.
  GraphReport run(const KernelGraph& graph);

  [[nodiscard]] const std::vector<KernelReport>& history() const { return history_; }
  void clear_history() {
    history_.clear();
    bulk_charges_ = 0;
    lane_charges_ = 0;
    audit_skipped_accesses_ = 0;
  }

  /// Accounting-path statistics summed over the history: how many warp
  /// accesses were charged in closed form by the proof-guided bulk path
  /// versus the per-lane reference path.  See BlockContext::charge_shared_crs.
  [[nodiscard]] std::uint64_t bulk_charges() const { return bulk_charges_; }
  [[nodiscard]] std::uint64_t lane_charges() const { return lane_charges_; }
  /// Warp accesses elided from per-lane audit by certified-skip mode, summed
  /// over the history (0 unless set_audit_skip(true) and an auditor attached).
  [[nodiscard]] std::uint64_t audit_skipped_accesses() const {
    return audit_skipped_accesses_;
  }

  /// Sum of simulated kernel times in the history, microseconds.
  [[nodiscard]] double total_microseconds() const;
  /// Counters summed over the history.
  [[nodiscard]] Counters total_counters() const;
  /// Per-phase counters merged over the history.
  [[nodiscard]] PhaseCounters phase_counters() const;

 private:
  DeviceSpec dev_;
  TraceSink* trace_ = nullptr;
  MemoryAuditor* audit_ = nullptr;
  int threads_ = 1;
  std::vector<KernelReport> history_;
  bool audit_skip_ = false;
  std::uint64_t bulk_charges_ = 0;
  std::uint64_t lane_charges_ = 0;
  std::uint64_t audit_skipped_accesses_ = 0;
  bool running_ = false;  // inside run(); guards against re-entry
  std::unique_ptr<detail::WorkerPool> pool_;  // created at the first parallel kernel
};

}  // namespace cfmerge::gpusim
