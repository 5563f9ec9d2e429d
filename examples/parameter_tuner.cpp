// Parameter tuner: automates the paper's Section 5 software-parameter
// discussion.  Thrust ships (E=17, u=256); the paper found (E=15, u=512)
// faster via occupancy.  This example enumerates candidates for a device,
// ranks them statically, measures the leaders, and prints the verdict.
//
//   $ ./parameter_tuner [sms] [threads]
//
// `threads` is the host worker-thread count for block simulation (0 =
// CFMERGE_SIM_THREADS env or sequential); the measured ranking is
// bit-identical for every value.
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "cfmerge.hpp"

using namespace cfmerge;

int main(int argc, char** argv) {
  int sms = 4;
  int threads = 0;
  try {
    if (argc > 1) sms = gpusim::parse_int<int>(argv[1], "sms", 1);
    if (argc > 2) threads = gpusim::parse_int<int>(argv[2], "threads", 0);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "parameter_tuner: %s\n", e.what());
    return 2;
  }
  gpusim::Launcher launcher(gpusim::DeviceSpec::scaled_turing(sms));
  launcher.set_threads(threads);
  std::printf("Tuning (E, u) for %s (CF-Merge variant)\n\n",
              launcher.device().name.c_str());

  analysis::TuneOptions opts;
  opts.e_min = 8;
  opts.e_max = 24;
  auto candidates = analysis::enumerate_candidates(launcher.device(), opts);
  std::printf("%zu candidates survive the occupancy filter; measuring the top 8...\n\n",
              candidates.size());
  analysis::measure_candidates(launcher, candidates, opts, /*top_k=*/8,
                               /*tiles_per_candidate=*/16);

  analysis::Table t("ranked candidates");
  t.set_header({"rank", "E", "u", "coprime(32,E)", "occupancy", "limiter",
                "measured elem/us"});
  const int shown = std::min<int>(8, static_cast<int>(candidates.size()));
  for (int i = 0; i < shown; ++i) {
    const auto& c = candidates[static_cast<std::size_t>(i)];
    t.add_row({std::to_string(i + 1), std::to_string(c.e), std::to_string(c.u),
               c.coprime ? "yes" : "no", analysis::Table::num(c.occupancy, 2), c.limiter,
               c.measured_throughput > 0 ? analysis::Table::num(c.measured_throughput, 1)
                                         : "-"});
  }
  t.print(std::cout);

  // Reference points the paper discusses.
  std::printf("\nreference points:\n");
  for (const auto& [e, u, who] :
       {std::tuple{15, 512, "paper's choice"}, std::tuple{17, 256, "Thrust default"}}) {
    const int regs = sort::cost::cfmerge_regs_per_thread(e);
    const auto occ = gpusim::compute_occupancy(
        launcher.device(), u, static_cast<std::size_t>(u) * e * 4, regs);
    std::printf("  E=%-2d u=%-4d (%s): occupancy %.2f (%s-limited)\n", e, u, who,
                occ.occupancy, occ.limiter.c_str());
  }
  if (!candidates.empty())
    std::printf("\nwinner: E=%d, u=%d at %.1f elements/us\n", candidates[0].e,
                candidates[0].u, candidates[0].measured_throughput);
  return 0;
}
