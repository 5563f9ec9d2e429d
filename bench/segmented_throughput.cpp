// Segmented-sort throughput harness: graph overlap vs. serial execution.
//
//   segmented_throughput [--segments=N] [--n=TOTAL] [--threads=T]
//
// Builds a request batch of --segments pseudo-random-sized segments
// (--n total elements), sorts it with sort::segmented_sort, and reports,
// per segment count:
//
//   * the serial kernel sum (sorting every segment back to back — the
//     pre-graph launch cadence),
//   * the graph makespan (independent segment chains overlap; the
//     critical path is the slowest segment),
//   * the overlap speedup and the aggregate throughput under both models,
//   * host wall-clock for GraphExec::Serial vs. GraphExec::Overlap, plus a
//     bit-identity check between the two modes' reports (the executor's
//     determinism contract).
//
// The simulated numbers are independent of --threads and of the host
// execution mode by construction; only wall-clock changes.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <random>
#include <vector>

#include "analysis/table.hpp"
#include "sort/segmented_sort.hpp"

using namespace cfmerge;

namespace {

std::vector<std::vector<int>> make_batch(int segments, std::int64_t total,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> weights(static_cast<std::size_t>(segments));
  double wsum = 0.0;
  for (auto& w : weights) {
    w = 1.0 + static_cast<double>(rng() % 1000);
    wsum += w;
  }
  std::vector<std::vector<int>> batch;
  batch.reserve(weights.size());
  std::int64_t used = 0;
  for (int s = 0; s < segments; ++s) {
    const std::int64_t len =
        s + 1 == segments
            ? total - used
            : std::min<std::int64_t>(
                  total - used,
                  static_cast<std::int64_t>(weights[static_cast<std::size_t>(s)] / wsum *
                                            static_cast<double>(total)));
    std::vector<int> seg(static_cast<std::size_t>(len));
    for (auto& x : seg) x = static_cast<int>(rng());
    batch.push_back(std::move(seg));
    used += len;
  }
  return batch;
}

struct Run {
  sort::SegmentedSortReport report;
  double wall_ms = 0.0;
};

Run run_once(std::vector<std::vector<int>> batch, const sort::MergeConfig& cfg,
             int threads, gpusim::GraphExec mode) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::scaled_turing(4));
  launcher.set_threads(threads);
  Run r;
  const auto t0 = std::chrono::steady_clock::now();
  r.report = sort::segmented_sort(launcher, batch, cfg, mode);
  const auto t1 = std::chrono::steady_clock::now();
  for (const auto& seg : batch)
    if (!std::is_sorted(seg.begin(), seg.end())) std::abort();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

bool reports_identical(const sort::SegmentedSortReport& a,
                       const sort::SegmentedSortReport& b) {
  if (!(a.totals == b.totals && a.phases == b.phases &&
        a.serial_microseconds == b.serial_microseconds &&
        a.makespan_microseconds == b.makespan_microseconds &&
        a.kernels.size() == b.kernels.size()))
    return false;
  for (std::size_t k = 0; k < a.kernels.size(); ++k)
    if (a.kernels[k].timing.microseconds != b.kernels[k].timing.microseconds) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int max_segments = 32;
  long long total = 512 * 15 * 64;  // %lld's type, not std::int64_t (long on LP64)
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    std::sscanf(argv[i], "--segments=%d", &max_segments);
    std::sscanf(argv[i], "--n=%lld", &total);
    std::sscanf(argv[i], "--threads=%d", &threads);
  }

  sort::MergeConfig cfg;
  cfg.e = 15;
  cfg.u = 512;
  cfg.variant = sort::Variant::CFMerge;

  std::printf("Segmented sort throughput: CF-Merge, %lld elements total,\n"
              "pseudo-random segment sizes (seed 7)\n\n",
              total);

  analysis::Table t("graph overlap vs serial launch cadence");
  t.set_header({"segments", "serial (us)", "makespan (us)", "overlap", "elem/us",
                "wall serial (ms)", "wall overlap (ms)", "bit-identical"});
  for (int segments = 1; segments <= max_segments; segments *= 2) {
    const auto batch = make_batch(segments, total, 7);
    const Run serial = run_once(batch, cfg, threads, gpusim::GraphExec::Serial);
    const Run overlap = run_once(batch, cfg, threads, gpusim::GraphExec::Overlap);
    const bool identical = reports_identical(serial.report, overlap.report);
    t.add_row({std::to_string(segments),
               analysis::Table::num(overlap.report.serial_microseconds, 1),
               analysis::Table::num(overlap.report.makespan_microseconds, 1),
               analysis::Table::num(overlap.report.overlap_speedup(), 2),
               analysis::Table::num(overlap.report.throughput(), 1),
               analysis::Table::num(serial.wall_ms, 1),
               analysis::Table::num(overlap.wall_ms, 1), identical ? "yes" : "NO (BUG)"});
    if (!identical) {
      std::fprintf(stderr,
                   "segmented_throughput: serial and overlap reports diverged at %d segments\n",
                   segments);
      return 1;
    }
  }
  t.print(std::cout);

  std::printf("\nThe makespan is the slowest segment's chain: more (smaller)\n"
              "segments -> shorter critical path -> higher overlap speedup, up\n"
              "to the skew of the pseudo-random segment sizes.  Simulated\n"
              "numbers are identical across modes and --threads by\n"
              "construction; see docs/architecture.md.\n");
  return 0;
}
