// Standalone pairwise merge — the primitive the paper studies.
//
// Merges two independently sorted arrays through the same two-stage
// partition + merge-kernel machinery the sort's passes use, without
// requiring them to be adjacent runs of one buffer.  Useful on its own
// (merge two sorted streams) and for merge-level experiments (Theorem 8
// at block scale).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gpusim/launcher.hpp"
#include "sort/key_value.hpp"
#include "sort/merge_pass.hpp"

namespace cfmerge::sort {

/// Result of a standalone merge: cost picture mirroring SortReport.
struct MergeReport {
  std::int64_t na = 0;
  std::int64_t nb = 0;
  double microseconds = 0.0;
  gpusim::Counters totals;
  gpusim::PhaseCounters phases;
  std::vector<gpusim::KernelReport> kernels;

  [[nodiscard]] double throughput() const {
    return microseconds > 0 ? static_cast<double>(na + nb) / microseconds : 0.0;
  }
  [[nodiscard]] std::uint64_t merge_conflicts() const;
};

/// Merges sorted `a` and sorted `b` into `out` (resized to |a| + |b|).
/// Arbitrary lengths are supported: the concatenated input is padded to a
/// tile multiple with +infinity sentinels, which join the merged tail and
/// are dropped.  `launcher.history()` holds the launched kernels.
template <typename T>
MergeReport merge_arrays(gpusim::Launcher& launcher, const std::vector<T>& a,
                         const std::vector<T>& b, std::vector<T>& out,
                         const MergeConfig& cfg) {
  validate_merge_config(launcher.device(), cfg, sizeof(T));

  MergeReport report;
  report.na = static_cast<std::int64_t>(a.size());
  report.nb = static_cast<std::int64_t>(b.size());
  const std::int64_t n = report.na + report.nb;
  out.resize(static_cast<std::size_t>(n));
  if (n == 0) return report;

  launcher.clear_history();

  // Stage the pair as [A | pad(A) | B | pad(B)] so each padded list is a
  // full "run": run = max padded list length, geometry n = 2 * run.
  const std::int64_t tile = cfg.tile();
  auto padded = [&](std::int64_t len) { return (len + tile - 1) / tile * tile; };
  const std::int64_t run = std::max<std::int64_t>(
      {padded(report.na), padded(report.nb), tile});
  std::vector<T> src(static_cast<std::size_t>(2 * run), padding_sentinel<T>::value());
  std::copy(a.begin(), a.end(), src.begin());
  std::copy(b.begin(), b.end(), src.begin() + static_cast<std::ptrdiff_t>(run));
  std::vector<T> dst(static_cast<std::size_t>(2 * run));

  const PassGeometry geom{2 * run, run};
  const int num_tiles = static_cast<int>(2 * run / tile);
  std::vector<std::int64_t> boundaries(static_cast<std::size_t>(num_tiles) + 1, 0);

  const int regs = cfg.regs_per_thread();
  const int pblocks =
      static_cast<int>((static_cast<std::int64_t>(boundaries.size()) + cfg.u - 1) / cfg.u);
  launcher.launch("merge_partition",
                  gpusim::LaunchShape{pblocks, cfg.u, 0, cost::kPartitionRegsPerThread},
                  [&](gpusim::BlockContext& ctx) {
                    merge_partition_body<T>(ctx, std::span<const T>(src), geom, tile,
                                            std::span<std::int64_t>(boundaries));
                  });
  launcher.launch("merge_pass",
                  gpusim::LaunchShape{num_tiles, cfg.u,
                                      static_cast<std::size_t>(tile) * sizeof(T), regs},
                  [&](gpusim::BlockContext& ctx) {
                    merge_tile_body<T>(ctx, std::span<const T>(src), std::span<T>(dst),
                                       geom, cfg, std::span<const std::int64_t>(boundaries));
                  });

  std::copy(dst.begin(), dst.begin() + static_cast<std::ptrdiff_t>(n), out.begin());
  report.kernels = launcher.history();
  report.microseconds = launcher.total_microseconds();
  report.totals = launcher.total_counters();
  report.phases = launcher.phase_counters();
  return report;
}

}  // namespace cfmerge::sort
