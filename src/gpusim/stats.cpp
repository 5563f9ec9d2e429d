#include "gpusim/stats.hpp"

namespace cfmerge::gpusim {

Counters& Counters::operator+=(const Counters& o) {
  warp_instructions += o.warp_instructions;
  shared_accesses += o.shared_accesses;
  shared_cycles += o.shared_cycles;
  bank_conflicts += o.bank_conflicts;
  gmem_requests += o.gmem_requests;
  gmem_transactions += o.gmem_transactions;
  gmem_bytes += o.gmem_bytes;
  barriers += o.barriers;
  return *this;
}

Counters Counters::operator+(const Counters& o) const {
  Counters c = *this;
  c += o;
  return c;
}

Counters& PhaseCounters::phase(std::string_view name) {
  return by_index(intern(name));
}

int PhaseCounters::intern(std::string_view name) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].first == name) return static_cast<int>(i);
  }
  phases_.emplace_back(std::string(name), Counters{});
  return static_cast<int>(phases_.size() - 1);
}

Counters PhaseCounters::total() const {
  Counters t;
  for (const auto& [n, c] : phases_) t += c;
  return t;
}

void PhaseCounters::merge(const PhaseCounters& o) {
  for (const auto& [n, c] : o.phases_) phase(n) += c;
}

}  // namespace cfmerge::gpusim
