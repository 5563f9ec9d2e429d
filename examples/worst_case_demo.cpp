// Adversarial-input demo: build the Section 4 worst-case permutation, sort
// it with both variants, and watch the baseline's merge conflicts explode
// while CF-Merge stays flat.
//
//   $ ./worst_case_demo [tiles]
//
// This is the end-to-end version of the paper's Figures 5/6 at one size.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <random>
#include <stdexcept>

#include "cfmerge.hpp"

using namespace cfmerge;

int main(int argc, char** argv) {
  std::int64_t tiles = 32;
  try {
    if (argc > 1) tiles = gpusim::parse_int<std::int64_t>(argv[1], "tiles", 1);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "worst_case_demo: %s\n", e.what());
    return 2;
  }

  const int e = 15, u = 512;
  gpusim::Launcher launcher(gpusim::DeviceSpec::scaled_turing(4));
  const int w = launcher.device().warp_size;
  // The builder needs a power-of-two tile count.
  const std::int64_t n = worstcase::sort_input_length(tiles * u * e, u, e);

  const worstcase::Params params{w, e};
  std::printf("worst-case construction for w=%d, E=%d: d=%lld, q=%lld, r=%lld\n", w, e,
              static_cast<long long>(params.d()), static_cast<long long>(params.q()),
              static_cast<long long>(params.r()));
  std::printf("Theorem 8 predicts %lld conflicts per warp per merge (trivial bound %lld)\n\n",
              static_cast<long long>(worstcase::predicted_warp_conflicts(params)),
              static_cast<long long>(worstcase::trivial_warp_conflict_bound(params)));

  // The adversarial permutation of 0..n-1 and a random control input.
  const std::vector<std::int32_t> worst = worstcase::worst_case_sort_input(params, u, n);
  std::vector<std::int32_t> random_input(static_cast<std::size_t>(n));
  std::mt19937_64 rng(7);
  for (auto& x : random_input) x = static_cast<std::int32_t>(rng());

  analysis::Table table("n = " + std::to_string(n));
  table.set_header({"variant", "input", "time (us)", "elements/us", "merge conflicts",
                    "conflicts/access"});
  double base_worst_us = 0, cf_worst_us = 0, base_rand_us = 0;
  for (const auto variant : {sort::Variant::Baseline, sort::Variant::CFMerge}) {
    for (const bool adversarial : {false, true}) {
      sort::MergeConfig cfg;
      cfg.e = e;
      cfg.u = u;
      cfg.variant = variant;
      std::vector<std::int32_t> data(adversarial ? worst : random_input);
      const auto report = sort::merge_sort(launcher, data, cfg);
      if (!std::is_sorted(data.begin(), data.end())) {
        std::fprintf(stderr, "sort failed!\n");
        return 1;
      }
      const bool is_base = variant == sort::Variant::Baseline;
      if (is_base && adversarial) base_worst_us = report.microseconds;
      if (is_base && !adversarial) base_rand_us = report.microseconds;
      if (!is_base && adversarial) cf_worst_us = report.microseconds;
      table.add_row({is_base ? "thrust-baseline" : "cf-merge",
                     adversarial ? "worst-case" : "uniform-random",
                     analysis::Table::num(report.microseconds, 1),
                     analysis::Table::num(report.throughput(), 1),
                     std::to_string(report.merge_conflicts()),
                     analysis::Table::num(analysis::merge_conflicts_per_access(report), 3)});
    }
  }
  table.print(std::cout);

  std::printf("\nbaseline worst-case slowdown: %.2fx\n", base_worst_us / base_rand_us);
  std::printf("CF-Merge speedup on the worst case: %.2fx\n", base_worst_us / cf_worst_us);
  std::printf("(paper, RTX 2080 Ti: avg 1.37x / max 1.47x for E=15, u=512)\n");
  return 0;
}
