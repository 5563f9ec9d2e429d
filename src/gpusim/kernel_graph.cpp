#include "gpusim/kernel_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace cfmerge::gpusim {

NodeId KernelGraph::add(std::string name, const LaunchShape& shape, KernelBody body,
                        std::vector<NodeId> deps) {
  if (shape.blocks <= 0)
    throw std::invalid_argument("KernelGraph::add: empty grid for kernel '" + name + "'");
  if (!body)
    throw std::invalid_argument("KernelGraph::add: null body for kernel '" + name + "'");
  const auto id = static_cast<NodeId>(nodes_.size());
  for (const NodeId d : deps)
    if (d < 0 || d >= id)
      throw std::invalid_argument(
          "KernelGraph::add: kernel '" + name +
          "' depends on a node that is not enqueued yet (enqueue order must be "
          "topological)");
  // Dedup so diamond helpers can pass overlapping edge lists freely.
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  nodes_.push_back({std::move(name), shape, std::move(body), std::move(deps)});
  return id;
}

Stream KernelGraph::stream() { return Stream(this); }

std::vector<int> KernelGraph::levels() const {
  std::vector<int> level(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    for (const NodeId d : nodes_[i].deps)
      level[i] = std::max(level[i], level[static_cast<std::size_t>(d)] + 1);
  return level;
}

NodeId Stream::enqueue(std::string name, const LaunchShape& shape, KernelBody body,
                       std::vector<NodeId> extra_deps) {
  if (last_ != kNoNode) extra_deps.push_back(last_);
  last_ = graph_->add(std::move(name), shape, std::move(body), std::move(extra_deps));
  return last_;
}

}  // namespace cfmerge::gpusim
