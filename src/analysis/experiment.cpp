#include "analysis/experiment.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <stdexcept>

#include "analysis/profile.hpp"
#include "gpusim/parse_int.hpp"

namespace cfmerge::analysis {

SweepConfig SweepConfig::from_args(int argc, char** argv) {
  SweepConfig c;
  if (const char* full = std::getenv("CFMERGE_BENCH_FULL"); full && std::strcmp(full, "0") != 0) {
    c.imax = 17;
    c.reps = 5;
  }
  auto parse = [&](const char* arg, const char* key, auto& out) {
    const std::size_t klen = std::strlen(key);
    if (std::strncmp(arg, key, klen) == 0 && arg[klen] == '=')
      out = gpusim::parse_int<std::remove_reference_t<decltype(out)>>(arg + klen + 1, key);
  };
  for (int i = 1; i < argc; ++i) {
    parse(argv[i], "--imin", c.imin);
    parse(argv[i], "--imax", c.imax);
    parse(argv[i], "--reps", c.reps);
    parse(argv[i], "--seed", c.seed);
    parse(argv[i], "--threads", c.threads);
  }
  if (c.imin < 1 || c.imax < c.imin || c.reps < 1)
    throw std::invalid_argument("SweepConfig: invalid sweep bounds");
  if (c.threads < 0) throw std::invalid_argument("SweepConfig: invalid thread count");
  return c;
}

std::vector<std::int64_t> SweepConfig::sizes(int e) const {
  std::vector<std::int64_t> out;
  for (int i = imin; i <= imax; ++i) out.push_back((std::int64_t{1} << i) * e);
  return out;
}

SortPoint run_sort_point(gpusim::Launcher& launcher, const workloads::WorkloadSpec& workload,
                         const sort::MergeConfig& cfg, int reps) {
  // Worst-case inputs are deterministic; averaging repetitions is only
  // meaningful for randomized distributions.
  if (workload.dist == workloads::Distribution::WorstCase) reps = 1;

  SortPoint point;
  point.n = workload.n;
  double conflicts_per_access_sum = 0.0;
  std::uint64_t conflict_sum = 0;
  std::uint64_t search_sum = 0;
  for (int rep = 0; rep < reps; ++rep) {
    workloads::WorkloadSpec spec = workload;
    spec.seed = workload.seed + static_cast<std::uint64_t>(rep) * 7919;
    std::vector<std::int32_t> data = workloads::generate(spec);
    const sort::SortReport report = sort::merge_sort(launcher, data, cfg);
    if (!std::is_sorted(data.begin(), data.end()))
      throw std::runtime_error("run_sort_point: output not sorted");
    point.microseconds += report.microseconds;
    point.passes = report.passes;
    conflict_sum += report.merge_conflicts();
    conflicts_per_access_sum += merge_conflicts_per_access(report);
    for (const auto& [name, c] : report.phases.phases())
      if (name == "merge.search") search_sum += c.bank_conflicts;
  }
  point.microseconds /= reps;
  point.merge_conflicts = conflict_sum / static_cast<std::uint64_t>(reps);
  point.merge_conflicts_per_access = conflicts_per_access_sum / reps;
  point.search_conflicts = search_sum / static_cast<std::uint64_t>(reps);
  point.throughput =
      point.microseconds > 0 ? static_cast<double>(point.n) / point.microseconds : 0.0;
  return point;
}

}  // namespace cfmerge::analysis
