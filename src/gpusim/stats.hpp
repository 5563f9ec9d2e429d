// Event counters collected while simulating a kernel.
//
// Counters play the role of `nvprof` hardware counters in the paper's
// methodology: `bank_conflicts` corresponds to shared_ld/st_bank_conflict,
// `gmem_transactions` to gld/gst_transactions, and so on.  Counters are
// aggregated per named phase (e.g. "load", "search", "merge", "store") so
// experiments can attribute conflicts to pipeline stages.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cfmerge::gpusim {

struct Counters {
  /// Warp-wide ALU/control instructions issued.
  std::uint64_t warp_instructions = 0;
  /// Warp-wide shared memory accesses (each serves up to w lanes).
  std::uint64_t shared_accesses = 0;
  /// Cycles spent on the SM shared memory unit: one per access plus one per
  /// bank-conflict replay.
  std::uint64_t shared_cycles = 0;
  /// Total bank conflicts (= shared_cycles - shared_accesses).
  std::uint64_t bank_conflicts = 0;
  /// Warp-wide global memory requests.
  std::uint64_t gmem_requests = 0;
  /// Coalesced transactions those requests split into.
  std::uint64_t gmem_transactions = 0;
  /// Element bytes moved to/from global memory.
  std::uint64_t gmem_bytes = 0;
  /// Block-wide barriers executed.
  std::uint64_t barriers = 0;

  Counters& operator+=(const Counters& o);
  [[nodiscard]] Counters operator+(const Counters& o) const;
  bool operator==(const Counters&) const = default;

  /// Average bank conflicts per shared access (0 when there were none).
  [[nodiscard]] double conflicts_per_access() const {
    return shared_accesses == 0
               ? 0.0
               : static_cast<double>(bank_conflicts) / static_cast<double>(shared_accesses);
  }
};

/// Counters broken down by phase name, preserving first-use order.
class PhaseCounters {
 public:
  /// Counters for `name`, created zeroed on first use.
  Counters& phase(std::string_view name);
  /// Index of `name`'s slot, created zeroed on first use.  Intern once,
  /// then switch in O(1) with `by_index`.  Indices are stable (slots are
  /// only ever appended).
  int intern(std::string_view name);
  /// The counters at a previously interned index.
  [[nodiscard]] Counters& by_index(int idx) {
    return phases_[static_cast<std::size_t>(idx)].second;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, Counters>>& phases() const {
    return phases_;
  }
  [[nodiscard]] Counters total() const;
  void merge(const PhaseCounters& o);
  /// Equal iff the same phases appear in the same order with equal counters.
  bool operator==(const PhaseCounters&) const = default;

 private:
  std::vector<std::pair<std::string, Counters>> phases_;
};

}  // namespace cfmerge::gpusim
