// Kernel graphs: deferred kernel submission as an ordered kernel list.
//
// Instead of calling Launcher::launch once per kernel, callers *enqueue*
// kernels into a KernelGraph — name, launch shape, body — and execute the
// whole list with Launcher::run.  Kernels run in enqueue order, exactly
// like the kernels of one CUDA stream: each kernel sees everything the
// kernels before it wrote.  Every pipeline in this repository (a block
// sort, then a partition and a merge launch per pass) is such a chain.
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
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/timing.hpp"

namespace cfmerge::gpusim {

using KernelBody = std::function<void(BlockContext&)>;

struct KernelNode {
  std::string name;
  LaunchShape shape;
  KernelBody body;
};

class KernelGraph {
 public:
  /// Appends a kernel; it runs after every kernel enqueued before it.
  /// Throws std::invalid_argument on an empty grid or a null body.
  void enqueue(std::string name, const LaunchShape& shape, KernelBody body) {
    if (shape.blocks <= 0)
      throw std::invalid_argument("KernelGraph::enqueue: empty grid for kernel '" + name + "'");
    if (!body)
      throw std::invalid_argument("KernelGraph::enqueue: null body for kernel '" + name + "'");
    nodes_.push_back({std::move(name), shape, std::move(body)});
  }

  [[nodiscard]] const std::vector<KernelNode>& nodes() const { return nodes_; }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

 private:
  std::vector<KernelNode> nodes_;
};

}  // namespace cfmerge::gpusim
