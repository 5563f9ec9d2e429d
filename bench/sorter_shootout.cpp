// Sorter shootout: the paper's framing is that merge-path mergesort is the
// fastest comparison sort on GPUs.  This harness compares, on the simulated
// device, the comparison sorters in the repository:
//   * Thrust-style baseline mergesort,
//   * CF-Merge (the 2-way conflict-free pipeline),
//   * k-way multiway CF-Merge (cascade variant, k = 4 and 8) and the
//     conflicted loser-tree baseline at k = 4,
//   * bitonic sort (plain and padded),
// on random and worst-case inputs, reporting throughput, global pass counts
// and conflicts.  The multiway head-to-head (passes, elem/us, speedup vs the
// 2-way pipeline) is also written to BENCH_multiway.json (see --out=).
//
//   sorter_shootout [--tiles=T] [--threads=T] [--out=FILE.json]
//
// Exit status is non-zero if any sorter produces unsorted output or a
// multiway sorter's output differs from the 2-way CF pipeline's.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>

#include "analysis/json.hpp"
#include "analysis/table.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/parse_int.hpp"
#include "sort/bitonic.hpp"
#include "sort/engine.hpp"
#include "sort/merge_sort.hpp"
#include "worstcase/builder.hpp"

using namespace cfmerge;

namespace {

/// One multiway head-to-head measurement destined for BENCH_multiway.json.
struct MultiwayRow {
  std::string variant;  // "cf-cascade" or "loser-tree"
  std::string input;    // distribution name
  int k = 0;
  std::int64_t passes = 0;
  std::int64_t passes_2way = 0;
  double microseconds = 0.0;
  double elem_per_us = 0.0;
  double elem_per_us_2way = 0.0;
  unsigned long long merge_conflicts = 0;
  bool output_matches_2way = false;

  [[nodiscard]] double speedup_vs_2way() const {
    return elem_per_us_2way > 0 ? elem_per_us / elem_per_us_2way : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  int tiles = 32;
  int threads = 0;  // 0 = CFMERGE_SIM_THREADS env or sequential
  std::string out_path = "BENCH_multiway.json";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view a = argv[i];
      if (a.starts_with("--tiles=")) tiles = gpusim::parse_int<int>(a.substr(8), "--tiles", 1);
      if (a.starts_with("--threads="))
        threads = gpusim::parse_int<int>(a.substr(10), "--threads", 0);
      if (a.starts_with("--out=")) out_path = a.substr(6);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sorter_shootout: %s\n", e.what());
    return 2;
  }

  const int e = 16, u = 512;  // shared tile geometry comparable across sorters
  gpusim::Launcher launcher(gpusim::DeviceSpec::scaled_turing(4));
  launcher.set_threads(threads);
  const int w = launcher.device().warp_size;
  const std::int64_t n = worstcase::sort_input_length(std::int64_t{tiles} * u * e, u, e);

  std::printf("Sorter shootout on %s, n = %lld (E=%d, u=%d)\n\n",
              launcher.device().name.c_str(), static_cast<long long>(n), e, u);

  std::mt19937_64 rng(123);
  std::vector<int> random_input(static_cast<std::size_t>(n));
  for (auto& x : random_input) x = static_cast<int>(rng());
  const auto worst32 = worstcase::worst_case_sort_input(worstcase::Params{w, e}, u, n);
  const std::vector<int> worst_input(worst32.begin(), worst32.end());

  bool ok = true;
  analysis::Table t("throughput and conflicts");
  t.set_header({"sorter", "input", "passes", "time (us)", "elements/us",
                "shared conflicts", "shared accesses"});

  // The 2-way CF run doubles as the multiway reference: its sorted output and
  // throughput, per input distribution.
  std::vector<int> cf_output;
  sort::SortReport cf_report;

  auto add_merge = [&](sort::Variant v, const char* name, const std::vector<int>& input,
                       const char* dist) {
    sort::MergeConfig cfg;
    cfg.e = e;
    cfg.u = u;
    cfg.variant = v;
    std::vector<int> data = input;
    const auto r = sort::merge_sort(launcher, data, cfg);
    if (!std::is_sorted(data.begin(), data.end())) {
      std::fprintf(stderr, "sorter_shootout: %s output NOT SORTED\n", name);
      ok = false;
    }
    t.add_row({name, dist, std::to_string(r.passes),
               analysis::Table::num(r.microseconds, 1),
               analysis::Table::num(r.throughput(), 1),
               std::to_string(r.totals.bank_conflicts),
               std::to_string(r.totals.shared_accesses)});
    if (v == sort::Variant::CFMerge) {
      cf_output = std::move(data);
      cf_report = r;
    }
  };
  auto add_bitonic = [&](bool padded, const std::vector<int>& input, const char* dist) {
    sort::BitonicConfig cfg;
    cfg.u = u;
    cfg.elems_per_thread = 16;  // tile matches the mergesort tile
    cfg.padded = padded;
    std::vector<int> data = input;
    const auto r = sort::bitonic_sort(launcher, data, cfg);
    if (!std::is_sorted(data.begin(), data.end())) {
      std::fprintf(stderr, "sorter_shootout: bitonic output NOT SORTED\n");
      ok = false;
    }
    t.add_row({padded ? "bitonic (padded)" : "bitonic", dist, "-",
               analysis::Table::num(r.microseconds, 1),
               analysis::Table::num(r.throughput(), 1),
               std::to_string(r.totals.bank_conflicts),
               std::to_string(r.totals.shared_accesses)});
  };

  // The cascade double-buffers k/2 extra warp tiles on top of the block tile,
  // so the largest block that fits the 64 KiB SM at k = 8 is u = 256; every
  // multiway row uses it so the k sweep is self-consistent.
  const int u_multiway = 256;
  std::vector<MultiwayRow> multiway_rows;
  auto add_multiway = [&](sort::MultiwayVariant v, int k, const std::vector<int>& input,
                          const char* dist) {
    sort::MultiwayConfig cfg;
    cfg.e = e;
    cfg.u = u_multiway;
    cfg.k = k;
    cfg.variant = v;
    std::vector<int> data = input;
    const auto r = sort::merge_sort_multiway(launcher, data, cfg);
    const char* vname =
        v == sort::MultiwayVariant::CFCascade ? "cf-cascade" : "loser-tree";
    const std::string name = std::string(vname) + " k=" + std::to_string(k);
    if (!std::is_sorted(data.begin(), data.end())) {
      std::fprintf(stderr, "sorter_shootout: %s output NOT SORTED\n", name.c_str());
      ok = false;
    }
    MultiwayRow row;
    row.variant = vname;
    row.input = dist;
    row.k = k;
    row.passes = r.passes;
    row.passes_2way = cf_report.passes;
    row.microseconds = r.microseconds;
    row.elem_per_us = r.throughput();
    row.elem_per_us_2way = cf_report.throughput();
    row.merge_conflicts = r.merge_conflicts();
    row.output_matches_2way = data == cf_output;
    if (!row.output_matches_2way) {
      std::fprintf(stderr, "sorter_shootout: %s output differs from 2-way CF\n",
                   name.c_str());
      ok = false;
    }
    multiway_rows.push_back(row);
    t.add_row({name, dist, std::to_string(r.passes),
               analysis::Table::num(r.microseconds, 1),
               analysis::Table::num(r.throughput(), 1),
               std::to_string(r.totals.bank_conflicts),
               std::to_string(r.totals.shared_accesses)});
  };

  const std::vector<std::pair<const std::vector<int>*, const char*>> inputs{
      {&random_input, "uniform-random"}, {&worst_input, "worst-case"}};
  for (const auto& [input, dist] : inputs) {
    add_merge(sort::Variant::Baseline, "thrust-baseline", *input, dist);
    add_merge(sort::Variant::CFMerge, "cf-merge", *input, dist);
    add_multiway(sort::MultiwayVariant::CFCascade, 4, *input, dist);
    add_multiway(sort::MultiwayVariant::CFCascade, 8, *input, dist);
    add_multiway(sort::MultiwayVariant::LoserTree, 4, *input, dist);
    add_bitonic(false, *input, dist);
    add_bitonic(true, *input, dist);
  }
  t.print(std::cout);

  std::ofstream f(out_path);
  if (!f) {
    std::fprintf(stderr, "sorter_shootout: cannot write %s\n", out_path.c_str());
    return 1;
  }
  f << "{\n  \"schema\": \"cfmerge.multiway_shootout.v1\",\n";
  f << "  \"device\": \"" << analysis::json_escape(launcher.device().name) << "\",\n";
  f << "  \"n\": " << n << ",\n  \"e\": " << e << ",\n  \"u\": " << u
    << ",\n  \"u_multiway\": " << u_multiway << ",\n";
  f << "  \"ok\": " << (ok ? "true" : "false") << ",\n";
  f << "  \"rows\": [\n";
  for (std::size_t i = 0; i < multiway_rows.size(); ++i) {
    const MultiwayRow& r = multiway_rows[i];
    f << "    {\"variant\": \"" << r.variant << "\", \"k\": " << r.k
      << ", \"input\": \"" << r.input << "\", \"passes\": " << r.passes
      << ", \"passes_2way\": " << r.passes_2way
      << ", \"microseconds\": " << r.microseconds
      << ", \"elem_per_us\": " << r.elem_per_us
      << ", \"elem_per_us_2way\": " << r.elem_per_us_2way
      << ", \"speedup_vs_2way\": " << r.speedup_vs_2way()
      << ", \"merge_conflicts\": " << r.merge_conflicts
      << ", \"output_matches_2way\": " << (r.output_matches_2way ? "true" : "false")
      << "}" << (i + 1 < multiway_rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  std::printf("\nNotes: the mergesort worst-case input is adversarial for the\n"
              "baseline's data-dependent merge only; bitonic's conflicts are\n"
              "structural and input-independent; CF-Merge and the multiway\n"
              "cascade are conflict free during merging on every input, while\n"
              "the loser-tree's data-dependent k-way gathers conflict.  Fewer\n"
              "global passes (log_k vs log_2 rounds) is the multiway payoff.\n");
  return ok ? 0 : 1;
}
