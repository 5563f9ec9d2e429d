// Experiment sweep configuration shared by the figure harnesses.
//
// The paper sweeps n = 2^i * E for i = 16..26 on real hardware; the
// cycle-exact simulator runs on one CPU core, so harnesses default to a
// smaller range and can be extended with --imin/--imax/--reps or
// CFMERGE_BENCH_FULL=1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/launcher.hpp"
#include "sort/merge_sort.hpp"
#include "workloads/generators.hpp"

namespace cfmerge::analysis {

struct SweepConfig {
  int imin = 8;
  int imax = 14;
  int reps = 3;
  std::uint64_t seed = 42;
  /// Host worker threads for block simulation (Launcher::set_threads
  /// semantics: 0 = CFMERGE_SIM_THREADS env or sequential).  Results are
  /// bit-identical for every value; only wall-clock changes.
  int threads = 0;

  /// Parses --imin=N --imax=N --reps=N --seed=N --threads=N, each value a
  /// whole integer (gpusim::parse_int: std::invalid_argument otherwise);
  /// CFMERGE_BENCH_FULL=1 raises the defaults (imax 17, reps 5).  Unknown
  /// arguments are ignored so the harnesses coexist with test runners.
  static SweepConfig from_args(int argc, char** argv);

  /// The n values of the sweep for a given E (n = 2^i * E).
  [[nodiscard]] std::vector<std::int64_t> sizes(int e) const;
};

/// One measured point of a sort experiment.
struct SortPoint {
  std::int64_t n = 0;
  double microseconds = 0.0;
  /// Graph-overlap simulated time (equals `microseconds` for the linear
  /// sort chain; diverges for graph workloads like segmented_sort).
  double makespan_microseconds = 0.0;
  double throughput = 0.0;  ///< elements per simulated microsecond
  std::uint64_t merge_conflicts = 0;
  double merge_conflicts_per_access = 0.0;
  int passes = 0;
};

/// Runs one sort (averaging `reps` repetitions with distinct seeds for
/// random inputs; worst-case inputs are deterministic so reps collapse to
/// one) and checks the output is sorted.  Throws on a sorting bug.
[[nodiscard]] SortPoint run_sort_point(gpusim::Launcher& launcher,
                                       const workloads::WorkloadSpec& workload,
                                       const sort::MergeConfig& cfg, int reps);

}  // namespace cfmerge::analysis
