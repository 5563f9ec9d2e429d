// Theorem 8 validation: predicted worst-case bank conflicts per warp vs the
// conflicts the simulator measures when one warp runs the baseline
// sequential merge on the constructed input.
//
// The theorem counts analytical per-bank collisions in the last E banks; the
// simulator counts hardware replays (max per-bank degree - 1, per access).
// The two agree closely at the paper's w = 32 and within tens of percent for
// small warps (where the two preload accesses weigh relatively more).
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/table.hpp"
#include "gpusim/launcher.hpp"
#include "sort/kernels.hpp"
#include "worstcase/builder.hpp"
#include "worstcase/predict.hpp"

using namespace cfmerge;
using namespace cfmerge::worstcase;

namespace {

std::uint64_t measure_warp_conflicts(const Params& p) {
  const std::int64_t wE = static_cast<std::int64_t>(p.w) * p.e;
  const MergeInput in = worst_case_merge_input(p, 2 * wE);
  const auto tuples = warp_tuples(p, false);
  const std::int64_t la = a_total(tuples);
  const std::int64_t lb = wE - la;

  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(p.w));
  std::uint64_t conflicts = 0;
  launcher.launch("warp_merge", gpusim::LaunchShape{1, p.w, 0, 32},
                  [&](gpusim::BlockContext& ctx) {
                    gpusim::SharedTile<int> tile(ctx, static_cast<std::size_t>(wE));
                    for (std::int64_t x = 0; x < la; ++x)
                      tile.raw()[static_cast<std::size_t>(x)] =
                          in.a[static_cast<std::size_t>(x)];
                    for (std::int64_t y = 0; y < lb; ++y)
                      tile.raw()[static_cast<std::size_t>(la + y)] =
                          in.b[static_cast<std::size_t>(y)];
                    std::vector<sort::MergeLaneDesc> descs(static_cast<std::size_t>(p.w));
                    std::int64_t ao = 0, bo = 0;
                    for (int i = 0; i < p.w; ++i) {
                      const Tuple& t = tuples[static_cast<std::size_t>(i)];
                      descs[static_cast<std::size_t>(i)] = {ao, t.a, bo, t.b};
                      ao += t.a;
                      bo += t.b;
                    }
                    std::vector<int> regs(static_cast<std::size_t>(wE));
                    sort::warp_serial_merge(ctx, tile,
                                            std::span<const sort::MergeLaneDesc>(descs),
                                            p.e, [](std::int64_t x) { return x; },
                                            [la](std::int64_t y) { return la + y; },
                                            std::span<int>(regs));
                    conflicts = ctx.counters().total().bank_conflicts;
                  });
  return conflicts;
}

}  // namespace

int main() {
  std::printf("Theorem 8: predicted vs measured worst-case conflicts (one warp, one merge)\n");
  std::printf("predicted = E^2 for E <= w/2, else (E^2 + 2Er + Ed - r^2 - rd)/2\n\n");

  analysis::Table table("predicted vs measured");
  table.set_header({"w", "E", "d", "q", "r", "predicted", "measured", "measured/predicted",
                    "trivial bound E(w-1)"});
  for (const int w : {8, 12, 16, 32}) {
    for (int e = 2; e <= w; ++e) {
      const Params p{w, e};
      const std::int64_t predicted = predicted_warp_conflicts(p);
      const std::uint64_t measured = measure_warp_conflicts(p);
      table.add_row({std::to_string(w), std::to_string(e),
                     std::to_string(p.d()), std::to_string(p.q()), std::to_string(p.r()),
                     std::to_string(predicted), std::to_string(measured),
                     analysis::Table::num(predicted > 0 ? static_cast<double>(measured) /
                                                              static_cast<double>(predicted)
                                                        : 0.0,
                                          2),
                     std::to_string(trivial_warp_conflict_bound(p))});
    }
  }
  table.print(std::cout);

  std::printf("\npaper's measured software parameters:\n");
  for (const int e : {15, 17}) {
    const Params p{32, e};
    std::printf("  w=32 E=%d: predicted %lld, measured %llu\n", e,
                static_cast<long long>(predicted_warp_conflicts(p)),
                static_cast<unsigned long long>(measure_warp_conflicts(p)));
  }
  return 0;
}
