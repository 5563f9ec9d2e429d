// Figure 6 reproduction: throughput of the baseline (Thrust) and CF-Merge on
// both uniform random and constructed worst-case inputs, one panel per
// software parameter set.
//
// The paper's story: the baseline's worst-case curve sits well below its
// random curve (up to ~50% slowdown per prior work), while CF-Merge's two
// curves coincide with each other and with the baseline's random curve.
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
}  // namespace

int main(int argc, char** argv) {
  analysis::SweepConfig sweep;
  int sms = 4;
  try {
    sweep = analysis::SweepConfig::from_args(argc, argv);
    sms = parse_sms(argc, argv, sms);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fig6_random_vs_worstcase: %s\n", e.what());
    return 2;
  }
  gpusim::Launcher launcher(gpusim::DeviceSpec::scaled_turing(sms));
  launcher.set_threads(sweep.threads);
  const int w = launcher.device().warp_size;

  std::printf("Figure 6: random vs worst-case inputs (%s)\n\n",
              launcher.device().name.c_str());

  for (const auto& [e, u] : {std::pair{15, 512}, std::pair{17, 256}}) {
    std::printf("== parameter set E=%d, u=%d ==\n", e, u);
    analysis::Table table("Fig 6 data (E=" + std::to_string(e) + ", u=" +
                          std::to_string(u) + ")");
    table.set_header({"n", "thrust-rand", "thrust-worst", "cf-rand", "cf-worst",
                      "thrust worst/rand", "cf worst/rand"});
    analysis::AsciiPlot plot("Fig 6 throughput (E=" + std::to_string(e) + ")", "n",
                             "elements/us");
    plot.set_log_x(true);
    analysis::Series tr{"thrust random", 'r', {}, {}};
    analysis::Series tw{"thrust worst", 'w', {}, {}};
    analysis::Series cr{"cf random", 'c', {}, {}};
    analysis::Series cw{"cf worst", 'C', {}, {}};

    std::int64_t last_shaped = -1;
    for (const std::int64_t n : sweep.sizes(e)) {
      const std::int64_t shaped = worstcase::sort_input_length(n, u, e);
      if (shaped == last_shaped) continue;  // tiny sizes round to the same shape
      last_shaped = shaped;

      workloads::WorkloadSpec spec;
      spec.n = shaped;
      spec.w = w;
      spec.e = e;
      spec.u = u;
      spec.seed = sweep.seed;
      sort::MergeConfig cfg;
      cfg.e = e;
      cfg.u = u;

      auto point = [&](sort::Variant v, workloads::Distribution d) {
        spec.dist = d;
        cfg.variant = v;
        return analysis::run_sort_point(launcher, spec, cfg, sweep.reps);
      };
      const auto trp = point(sort::Variant::Baseline, workloads::Distribution::UniformRandom);
      const auto twp = point(sort::Variant::Baseline, workloads::Distribution::WorstCase);
      const auto crp = point(sort::Variant::CFMerge, workloads::Distribution::UniformRandom);
      const auto cwp = point(sort::Variant::CFMerge, workloads::Distribution::WorstCase);

      tr.x.push_back(static_cast<double>(shaped));
      tr.y.push_back(trp.throughput);
      tw.x.push_back(static_cast<double>(shaped));
      tw.y.push_back(twp.throughput);
      cr.x.push_back(static_cast<double>(shaped));
      cr.y.push_back(crp.throughput);
      cw.x.push_back(static_cast<double>(shaped));
      cw.y.push_back(cwp.throughput);
      table.add_row({std::to_string(shaped), analysis::Table::num(trp.throughput, 1),
                     analysis::Table::num(twp.throughput, 1),
                     analysis::Table::num(crp.throughput, 1),
                     analysis::Table::num(cwp.throughput, 1),
                     analysis::Table::num(twp.throughput / trp.throughput, 3),
                     analysis::Table::num(cwp.throughput / crp.throughput, 3)});
    }
    table.print(std::cout);
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--csv-prefix=", 13) == 0) {
        const std::string path = std::string(argv[i] + 13) + "_E" + std::to_string(e) + ".csv";
        std::ofstream f(path);
        table.write_csv(f);
        std::printf("wrote %s\n", path.c_str());
      }
    }
    plot.add_series(std::move(tr));
    plot.add_series(std::move(tw));
    plot.add_series(std::move(cr));
    plot.add_series(std::move(cw));
    plot.print(std::cout);
    std::printf("\n");
  }
  return 0;
}
