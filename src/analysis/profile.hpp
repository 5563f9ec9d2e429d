// Conflict profiling helpers — the simulator-side replacement for the
// paper's use of nvprof.
#pragma once

#include <iosfwd>
#include <string>

#include "gpusim/stats.hpp"
#include "sort/merge_sort.hpp"
#include "sort/segmented_sort.hpp"

namespace cfmerge::analysis {

/// Per-phase conflict breakdown of a sort run, nvprof-style.
void print_phase_profile(std::ostream& os, const gpusim::PhaseCounters& phases,
                         std::int64_t n_elements);

/// Conflicts per element in the merge phases (the paper's "2 to 3 bank
/// conflicts per element on random inputs" metric is per element processed
/// per pass; this returns conflicts / (n * passes)).
[[nodiscard]] double merge_conflicts_per_element_pass(const sort::SortReport& report);

/// Average conflicts per warp-wide shared access in the merge phases
/// (Karsin et al.'s "conflicts per step").
[[nodiscard]] double merge_conflicts_per_access(const sort::SortReport& report);

/// One-line summary of a sort run.
[[nodiscard]] std::string summarize(const sort::SortReport& report, const std::string& label);

/// One-line summary of a segmented sort: serial sum, makespan and overlap
/// speedup (the kernels form one chain, so the makespan is the sum and the
/// speedup 1), throughput and merge conflicts.
[[nodiscard]] std::string summarize(const sort::SegmentedSortReport& report,
                                    const std::string& label);

}  // namespace cfmerge::analysis
