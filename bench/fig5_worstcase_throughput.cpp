// Figure 5 reproduction: throughput (elements per simulated microsecond) of
// Thrust-style baseline vs CF-Merge on the constructed worst-case inputs,
// for both software parameter sets (E=15, u=512) and (E=17, u=256),
// n = 2^i * E.
//
// The paper runs i = 16..26 on an RTX 2080 Ti; the cycle-level simulator
// cannot afford paper-scale n, so the default sweep is i = 8..14 on a
// scaled Turing device (4 SMs, identical per-SM architecture — small n then
// reaches the same throughput-bound regime as paper-scale n on 68 SMs).
// Extend with --imin/--imax/--reps/--sms or CFMERGE_BENCH_FULL=1;
// --threads=N simulates blocks on N host workers (results bit-identical).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "analysis/experiment.hpp"
#include "analysis/plot.hpp"
#include "analysis/table.hpp"
#include "gpusim/parse_int.hpp"
#include "worstcase/builder.hpp"

using namespace cfmerge;

namespace {

int parse_sms(int argc, char** argv, int def) {
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--sms=", 6) == 0)
      return gpusim::parse_int<int>(argv[i] + 6, "--sms", 1);
  return def;
}

struct ParamSet {
  int e;
  int u;
};

}  // namespace

int main(int argc, char** argv) {
  analysis::SweepConfig sweep;
  int sms = 4;
  try {
    sweep = analysis::SweepConfig::from_args(argc, argv);
    sms = parse_sms(argc, argv, sms);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fig5_worstcase_throughput: %s\n", e.what());
    return 2;
  }
  gpusim::Launcher launcher(gpusim::DeviceSpec::scaled_turing(sms));
  launcher.set_threads(sweep.threads);
  const int w = launcher.device().warp_size;

  std::printf("Figure 5: throughput on constructed worst-case inputs (%s)\n",
              launcher.device().name.c_str());
  std::printf("paper: CF-Merge speedups avg/mean/max 1.37/1.45/1.47 (E=15,u=512) "
              "and 1.17/1.23/1.25 (E=17,u=256)\n\n");

  analysis::AsciiPlot plot("Fig 5: worst-case throughput", "n", "elements/us");
  plot.set_log_x(true);
  analysis::Table table("Fig 5 data");
  table.set_header({"E", "u", "n", "thrust e/us", "cfmerge e/us", "speedup",
                    "thrust merge-conf/acc", "cf merge-conf"});

  for (const ParamSet ps : {ParamSet{15, 512}, ParamSet{17, 256}}) {
    analysis::Series thrust_s{"Thrust E=" + std::to_string(ps.e), ps.e == 15 ? 't' : 'T',
                              {}, {}};
    analysis::Series cf_s{"CF-Merge E=" + std::to_string(ps.e), ps.e == 15 ? 'c' : 'C',
                          {}, {}};
    double sum_speedup = 0.0, max_speedup = 0.0;
    int points = 0;
    std::int64_t last_shaped = -1;
    for (const std::int64_t n : sweep.sizes(ps.e)) {
      // The worst-case builder needs a power-of-two number of full tiles
      // (u is a multiple of 2w for both parameter sets, so each tile holds
      // whole warp-pair pattern periods).  Round n to the nearest shape.
      const std::int64_t shaped = worstcase::sort_input_length(n, ps.u, ps.e);
      if (shaped == last_shaped) continue;  // tiny sizes round to the same shape
      last_shaped = shaped;

      workloads::WorkloadSpec spec;
      spec.dist = workloads::Distribution::WorstCase;
      spec.n = shaped;
      spec.w = w;
      spec.e = ps.e;
      spec.u = ps.u;
      spec.seed = sweep.seed;

      sort::MergeConfig cfg;
      cfg.e = ps.e;
      cfg.u = ps.u;
      cfg.variant = sort::Variant::Baseline;
      const auto base = analysis::run_sort_point(launcher, spec, cfg, sweep.reps);
      cfg.variant = sort::Variant::CFMerge;
      const auto cf = analysis::run_sort_point(launcher, spec, cfg, sweep.reps);

      const double speedup = base.microseconds / cf.microseconds;
      sum_speedup += speedup;
      max_speedup = std::max(max_speedup, speedup);
      ++points;
      thrust_s.x.push_back(static_cast<double>(shaped));
      thrust_s.y.push_back(base.throughput);
      cf_s.x.push_back(static_cast<double>(shaped));
      cf_s.y.push_back(cf.throughput);
      table.add_row({std::to_string(ps.e), std::to_string(ps.u), std::to_string(shaped),
                     analysis::Table::num(base.throughput, 1),
                     analysis::Table::num(cf.throughput, 1),
                     analysis::Table::num(speedup, 3),
                     analysis::Table::num(base.merge_conflicts_per_access, 2),
                     std::to_string(cf.merge_conflicts)});
    }
    std::printf("E=%d u=%d: CF-Merge speedup on worst case: avg %.2f, max %.2f\n", ps.e,
                ps.u, sum_speedup / points, max_speedup);
    plot.add_series(std::move(thrust_s));
    plot.add_series(std::move(cf_s));
  }

  std::printf("\n");
  table.print(std::cout);
  std::printf("\n");
  plot.print(std::cout);

  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      std::ofstream f(argv[i] + 6);
      table.write_csv(f);
      std::printf("wrote %s\n", argv[i] + 6);
    }
  }
  return 0;
}
