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

#include "analysis/table.hpp"
#include "verify/analyzer.hpp"
#include "worstcase/predict.hpp"

using namespace cfmerge;
using namespace cfmerge::worstcase;

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
      const std::uint64_t measured = verify::measure_worstcase_warp(p);
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
                static_cast<unsigned long long>(verify::measure_worstcase_warp(p)));
  }
  return 0;
}
