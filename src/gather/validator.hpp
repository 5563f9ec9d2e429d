// Combinatorial validation of gather schedules.
//
// Used by the property tests and the figure harnesses: checks, without
// running the simulator, that a RoundSchedule (a) touches every element of
// A and B exactly once, and (b) never places two reads of the same warp and
// round into the same bank.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gather/schedule.hpp"

namespace cfmerge::gather {

struct ValidationResult {
  bool ok = true;
  /// Max (serialization degree - 1) over all (warp, round) accesses;
  /// 0 for a bank conflict free schedule.
  int max_conflicts = 0;
  /// Total conflicts summed over all accesses.
  std::int64_t total_conflicts = 0;
  /// Human-readable description of the first violation, empty when ok.
  std::string error;
};

/// Validates a complete schedule.
[[nodiscard]] ValidationResult validate_schedule(const RoundSchedule& sched);

/// Builds a schedule with the given per-thread |A_i| sizes (offsets are the
/// prefix sums) and validates it.  Convenience for sweeps.
[[nodiscard]] ValidationResult validate_sizes(int w, int e, int u,
                                              const std::vector<std::int64_t>& a_sizes);

}  // namespace cfmerge::gather
