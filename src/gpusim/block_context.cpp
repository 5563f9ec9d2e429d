#include "gpusim/block_context.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "gpusim/global_memory.hpp"
#include "gpusim/shared_memory.hpp"

namespace cfmerge::gpusim {

BlockContext::BlockContext(const DeviceSpec& dev, int block_id, int num_blocks, int threads)
    : dev_(&dev), block_id_(block_id), num_blocks_(num_blocks), threads_(threads) {
  if (threads <= 0 || threads % dev.warp_size != 0)
    throw std::invalid_argument("BlockContext: threads must be a positive multiple of warp_size");
  if (block_id < 0 || block_id >= num_blocks)
    throw std::invalid_argument("BlockContext: block_id out of range");
  current_idx_ = counters_.intern("main");
  current_ = &counters_.by_index(current_idx_);
  chains_.assign(static_cast<std::size_t>(warps()), 0.0);
}

void BlockContext::phase(std::string_view name) {
  if (name == current_phase_) return;
  current_idx_ = counters_.intern(name);
  current_ = &counters_.by_index(current_idx_);
  current_phase_.assign(name);
  trace_phase_ = -1;
}

void BlockContext::phase(PhaseRef& ref) {
  if (ref.idx < 0) {
    phase(ref.name);
    ref.idx = current_idx_;
    return;
  }
  assert(counters_.name_of(ref.idx) == ref.name && "PhaseRef reused across contexts");
  if (ref.idx == current_idx_) return;
  current_idx_ = ref.idx;
  current_ = &counters_.by_index(ref.idx);
  current_phase_.assign(ref.name);
  trace_phase_ = -1;
}

void BlockContext::barrier() {
  current_->barriers += 1;
  const double mx = block_chain();
  std::fill(chains_.begin(), chains_.end(), mx);
  if (audit_ != nullptr) audit_->on_barrier(block_id_);
}

double BlockContext::block_chain() const {
  return chains_.empty() ? 0.0 : *std::max_element(chains_.begin(), chains_.end());
}

}  // namespace cfmerge::gpusim
