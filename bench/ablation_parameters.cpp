// Ablation studies around the paper's design choices:
//
//  1. Non-coprime E: the paper notes Thrust is "much worse" when gcd(w,E)>1
//     (that is why Thrust picks E in {15, 17}); CF-Merge is insensitive.
//  2. rho on/off: disabling the circular shift (Section 3.2) brings merge
//     conflicts back for non-coprime E, and split-search conflicts too (the
//     ablation runs CF-Merge's lattice search, which rho keeps conflict
//     free).
//  3. CF output scatter: with gcd(w,E)>1 the stride-E register->shared
//     output write conflicts unless routed through rho (footnote 5).
//  4. Occupancy sweep over u for fixed E.
#include <cstdio>
#include <iostream>

#include "analysis/experiment.hpp"
#include "analysis/profile.hpp"
#include "analysis/table.hpp"

using namespace cfmerge;

namespace {

analysis::SortPoint run(gpusim::Launcher& launcher, int e, int u, sort::Variant v,
                        workloads::Distribution dist, bool disable_rho,
                        bool cf_output_scatter, std::int64_t tiles, int reps) {
  workloads::WorkloadSpec spec;
  spec.dist = dist;
  spec.n = tiles * u * e;
  spec.w = launcher.device().warp_size;
  spec.e = e;
  spec.u = u;
  sort::MergeConfig cfg;
  cfg.e = e;
  cfg.u = u;
  cfg.variant = v;
  cfg.disable_rho = disable_rho;
  cfg.cf_output_scatter = cf_output_scatter;
  return analysis::run_sort_point(launcher, spec, cfg, reps);
}

}  // namespace

int main(int argc, char** argv) {
  const auto sweep = analysis::SweepConfig::from_args(argc, argv);
  gpusim::Launcher launcher(gpusim::DeviceSpec::scaled_turing(4));
  const std::int64_t tiles = 32;

  std::printf("Ablation 1: E coprime vs non-coprime with w = 32 (u = 512, random)\n");
  {
    analysis::Table t("E sweep");
    t.set_header({"E", "gcd(32,E)", "thrust e/us", "thrust conf/acc", "cf e/us",
                  "cf merge conf"});
    for (const int e : {12, 14, 15, 16, 17, 18, 20, 24}) {
      const auto base = run(launcher, e, 512, sort::Variant::Baseline,
                            workloads::Distribution::UniformRandom, false, true, tiles,
                            sweep.reps);
      const auto cf = run(launcher, e, 512, sort::Variant::CFMerge,
                          workloads::Distribution::UniformRandom, false, true, tiles,
                          sweep.reps);
      t.add_row({std::to_string(e), std::to_string(numtheory::gcd(32, e)),
                 analysis::Table::num(base.throughput, 1),
                 analysis::Table::num(base.merge_conflicts_per_access, 2),
                 analysis::Table::num(cf.throughput, 1),
                 std::to_string(cf.merge_conflicts)});
    }
    t.print(std::cout);
  }

  std::printf("\nAblation 2: the circular shift rho (non-coprime E = 16)\n");
  {
    analysis::Table t("rho on/off");
    t.set_header({"config", "search conflicts", "merge conflicts", "conflicts/access", "e/us"});
    const auto off = run(launcher, 16, 512, sort::Variant::CFMerge,
                         workloads::Distribution::UniformRandom, true, true, tiles,
                         sweep.reps);
    const auto on = run(launcher, 16, 512, sort::Variant::CFMerge,
                        workloads::Distribution::UniformRandom, false, true, tiles,
                        sweep.reps);
    t.add_row({"pi only (rho disabled)", std::to_string(off.search_conflicts),
               std::to_string(off.merge_conflicts),
               analysis::Table::num(off.merge_conflicts_per_access, 2),
               analysis::Table::num(off.throughput, 1)});
    t.add_row({"pi + rho (full CF-Merge)", std::to_string(on.search_conflicts),
               std::to_string(on.merge_conflicts),
               analysis::Table::num(on.merge_conflicts_per_access, 2),
               analysis::Table::num(on.throughput, 1)});
    t.print(std::cout);
  }

  std::printf("\nAblation 3: CF output scatter through rho (E = 16)\n");
  {
    analysis::Table t("output scatter");
    t.set_header({"config", "store-phase conflicts", "e/us"});
    for (const bool scatter : {false, true}) {
      workloads::WorkloadSpec spec;
      spec.dist = workloads::Distribution::UniformRandom;
      spec.n = tiles * 512 * 16;
      spec.seed = sweep.seed;
      sort::MergeConfig cfg;
      cfg.e = 16;
      cfg.u = 512;
      cfg.variant = sort::Variant::CFMerge;
      cfg.cf_output_scatter = scatter;
      std::vector<std::int32_t> data = workloads::generate(spec);
      const auto report = sort::merge_sort(launcher, data, cfg);
      std::uint64_t store_conf = 0;
      for (const auto& [name, c] : report.phases.phases())
        if (name == "merge.store") store_conf = c.bank_conflicts;
      t.add_row({scatter ? "dual scatter (rho)" : "stride-E store",
                 std::to_string(store_conf),
                 analysis::Table::num(report.throughput(), 1)});
    }
    t.print(std::cout);
  }

  std::printf("\nAblation 5 (extension): CF gather inside the block-sort rounds\n");
  {
    analysis::Table t("cf_blocksort on/off (E = 15, u = 512, random inputs)");
    t.set_header({"config", "bsort search conflicts", "bsort merge conflicts",
                  "bsort occupancy", "e/us"});
    for (const bool on : {false, true}) {
      workloads::WorkloadSpec spec;
      spec.dist = workloads::Distribution::UniformRandom;
      spec.n = tiles * 512 * 15;
      spec.seed = sweep.seed;
      sort::MergeConfig cfg;
      cfg.e = 15;
      cfg.u = 512;
      cfg.variant = sort::Variant::CFMerge;
      cfg.cf_blocksort = on;
      std::vector<std::int32_t> data = workloads::generate(spec);
      const auto report = sort::merge_sort(launcher, data, cfg);
      std::uint64_t search_conf = 0;
      std::uint64_t bsort_conf = 0;
      for (const auto& [name, c] : report.phases.phases()) {
        if (name == "bsort.search") search_conf = c.bank_conflicts;
        if (name == "bsort.merge") bsort_conf = c.bank_conflicts;
      }
      double occ = 0.0;
      for (const auto& k : report.kernels)
        if (k.name == "block_sort") occ = k.timing.occupancy.occupancy;
      t.add_row({on ? "CF block-sort rounds (cascade levels)" : "serial block-sort rounds",
                 std::to_string(search_conf), std::to_string(bsort_conf),
                 analysis::Table::num(occ, 2),
                 analysis::Table::num(report.throughput(), 1)});
    }
    t.print(std::cout);
    std::printf("(the CF rounds re-lay the tile in place once and run as cascade\n"
                " levels, so occupancy holds; the re-layout and the rank scatters\n"
                " are the overhead traded against the saved conflicts — the\n"
                " overhead-vs-conflicts trade-off of Section 2; the paper leaves\n"
                " the block sort untouched)\n");
  }

  std::printf("\nAblation 4: thread-block size u (E = 15, random, occupancy effect)\n");
  {
    analysis::Table t("u sweep");
    t.set_header({"u", "merge-kernel occupancy", "thrust e/us", "cf e/us"});
    for (const int u : {128, 256, 512, 1024}) {
      workloads::WorkloadSpec spec;
      spec.dist = workloads::Distribution::UniformRandom;
      spec.n = tiles * 512 * 15;  // constant n across u
      spec.seed = sweep.seed;
      double occ = 0.0, base_tp = 0.0, cf_tp = 0.0;
      for (const auto variant : {sort::Variant::Baseline, sort::Variant::CFMerge}) {
        sort::MergeConfig cfg;
        cfg.e = 15;
        cfg.u = u;
        cfg.variant = variant;
        std::vector<std::int32_t> data = workloads::generate(spec);
        const auto report = sort::merge_sort(launcher, data, cfg);
        for (const auto& k : report.kernels)
          if (k.name == "merge_pass") occ = k.timing.occupancy.occupancy;
        (variant == sort::Variant::Baseline ? base_tp : cf_tp) = report.throughput();
      }
      t.add_row({std::to_string(u), analysis::Table::num(occ, 2),
                 analysis::Table::num(base_tp, 1), analysis::Table::num(cf_tp, 1)});
    }
    t.print(std::cout);
  }
  return 0;
}
