// Kernel graphs and streams: deferred, dependency-aware kernel submission.
//
// Instead of calling Launcher::launch once per kernel (globally serializing
// every kernel of a pipeline), callers *enqueue* kernels into a KernelGraph
// — name, launch shape, body, explicit dependency edges — and execute the
// whole graph with Launcher::run.  The graph scheduler then
//
//  * runs dependency-free kernels concurrently on the launcher's parallel
//    block-executor worker pool (wavefront order: all kernels whose
//    dependencies completed form one flat block work-list), and
//  * evaluates a timing-overlap model: every node's simulated finish time is
//    its own kernel time plus the latest finish of its dependencies, so the
//    GraphReport carries both the serial sum (today's Launcher history
//    total) and the graph makespan (what a device with concurrent kernel
//    execution would take).
//
// Determinism contract: enqueue order is required to be a topological order
// (a node may only depend on already-enqueued nodes), every node's
// per-block results are reduced in block order, and history / trace /
// counters are committed in *enqueue* order after the whole graph ran.  The
// reports are therefore bit-identical for every worker-thread count and for
// both execution modes — GraphExec::Serial exists only to pin host
// wall-clock behaviour (one kernel at a time, the pre-graph cadence), not
// to change results.
//
// A Stream is a thin enqueue helper that chains its kernels: each kernel
// enqueued on a stream implicitly depends on the stream's previous kernel,
// which is exactly CUDA's in-stream ordering.  Independent pipelines (e.g.
// the segments of sort::segmented_sort) use one stream each and their
// kernels overlap in the makespan model; cross-stream edges are expressed
// through the explicit dependency list.
//
// Kernel bodies may run concurrently with any body they are not ordered
// against, and must therefore only write data disjoint from every
// concurrent kernel's reads and writes (the launcher's per-block rule,
// lifted to graph granularity).  All pipelines in this repository satisfy
// this: dependent kernels communicate through buffers, independent kernels
// touch disjoint buffers.
//
// Replay contract: Launcher::run never mutates the graph, so a built graph
// is a reusable *template* — it may be executed any number of times, and
// each execution re-invokes the same bodies against whatever data their
// captured buffers hold at that moment (CUDA-graph style "rebind by
// refilling the bound allocations").  The only requirement is on the
// caller: every buffer a body captures must stay alive and un-moved for as
// long as the graph may run.  sort::SortEngine builds on this — its plans
// own both the graph and the buffers the graph's bodies reference, so the
// two lifetimes cannot diverge.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/timing.hpp"

namespace cfmerge::gpusim {

using KernelBody = std::function<void(BlockContext&)>;

/// Index of a node within its KernelGraph (enqueue order, 0-based).
using NodeId = int;
inline constexpr NodeId kNoNode = -1;

struct KernelNode {
  std::string name;
  LaunchShape shape;
  KernelBody body;
  std::vector<NodeId> deps;  ///< all strictly smaller NodeIds
};

class Stream;

class KernelGraph {
 public:
  /// Enqueues a kernel.  Every dependency must name an already-enqueued
  /// node, so enqueue order is a topological order by construction.
  /// Throws std::invalid_argument on an empty grid or a bad dependency.
  NodeId add(std::string name, const LaunchShape& shape, KernelBody body,
             std::vector<NodeId> deps = {});

  /// A new stream whose kernels are enqueued into this graph.  The graph
  /// must outlive the stream.
  [[nodiscard]] Stream stream();

  [[nodiscard]] const std::vector<KernelNode>& nodes() const { return nodes_; }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  /// Wavefront level of every node: 0 for dependency-free nodes, otherwise
  /// 1 + max(level of deps).  Nodes of equal level are mutually independent
  /// (no path connects them) and may execute concurrently.
  [[nodiscard]] std::vector<int> levels() const;

 private:
  std::vector<KernelNode> nodes_;
};

/// In-order enqueue handle: kernel k on a stream depends on kernel k-1 of
/// the same stream plus any `extra_deps` (cross-stream edges).
class Stream {
 public:
  NodeId enqueue(std::string name, const LaunchShape& shape, KernelBody body,
                 std::vector<NodeId> extra_deps = {});

  /// The stream's most recently enqueued node (kNoNode when empty) — use as
  /// an extra dependency to order another stream after this one.
  [[nodiscard]] NodeId last() const { return last_; }

 private:
  friend class KernelGraph;
  explicit Stream(KernelGraph* graph) : graph_(graph) {}

  KernelGraph* graph_;
  NodeId last_ = kNoNode;
};

}  // namespace cfmerge::gpusim
