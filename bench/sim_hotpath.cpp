// Simulator hot-path macro-benchmark: the canonical throughput trajectory.
//
//   sim_hotpath [--quick] [--repeats=R] [--threads=T] [--out=FILE.json]
//
// Runs a fixed shape matrix over the sort entry points — merge_sort (cf
// and baseline), the k-way multiway cascade, batched_merge,
// segmented_sort — plus a traced merge_sort, measures host wall-clock per
// case, and reports
// *simulated elements per host second* (how fast the simulator chews
// through work; the number every accounting-hot-path change must move).
// Each case is repeated --repeats times (fresh input copy each run) and
// min/median wall times are reported so the metric is low-variance.
//
// Every case runs through one shared SortEngine, so repeat 0 is the
// *cold* row (plan build + execute) and later repeats are *warm* rows
// (cached-plan replay); both land in the JSON along with the engine's
// aggregate plan-cache hit rate.
//
// Bit-identity checks are built in and gate the exit code:
//   * every repeat of a case must produce a bit-identical report
//     (counters, phases, per-kernel timings) — since repeat 0 builds the
//     plan and later repeats replay it, this also proves replay identity,
//   * tracing on vs. off must not change any counter,
//   * a segmented run at --threads must agree with a fresh 1-thread run,
//   * a fully-audited run (shadow checker replaying every lane) and an
//     audit=certified-skip run (Pass 3 safety certificates eliding the
//     replay for proved access families) must agree bit for bit, with a
//     non-zero audit_skipped_accesses count on the skip side.
// CI runs `sim_hotpath --quick` and asserts only these checks (wall
// clock is never thresholded in CI); the committed BENCH_sim_hotpath.json
// is the perf trajectory seed for full Release runs.  A full run writes
// BENCH_sim_hotpath.json (or --out=FILE); a --quick run writes a file only
// when --out= names one, so it never overwrites the full-mode reference.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "cfprims/permute.hpp"
#include "gpusim/parse_int.hpp"
#include "sort/batched_merge.hpp"
#include "sort/engine.hpp"
#include "sort/merge_sort.hpp"
#include "sort/segmented_sort.hpp"
#include "verify/certificate.hpp"
#include "verify/shadow.hpp"

using namespace cfmerge;

namespace {

struct CaseResult {
  std::string name;
  std::string detail;
  std::int64_t elements = 0;
  double sim_microseconds = 0.0;
  double wall_ms_min = 0.0;
  double wall_ms_median = 0.0;
  double wall_ms_cold = 0.0;  ///< repeat 0: plan build + execute on a fresh engine
  double wall_ms_warm = 0.0;  ///< min over repeats 1..: cached-plan replay
  double warm_speedup = 0.0;  ///< wall_ms_cold / wall_ms_warm
  double elem_per_sec = 0.0;  ///< simulated elements / host second (min wall)
  bool identity_ok = true;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int32_t> random_vec(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int32_t>(rng());
  return v;
}

bool kernels_identical(const std::vector<gpusim::KernelReport>& a,
                       const std::vector<gpusim::KernelReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].name != b[k].name || a[k].counters != b[k].counters ||
        a[k].timing.microseconds != b[k].timing.microseconds)
      return false;
  }
  return true;
}

bool identical(const sort::SortReport& a, const sort::SortReport& b) {
  return a.totals == b.totals && a.phases == b.phases &&
         a.microseconds == b.microseconds &&
         a.makespan_microseconds == b.makespan_microseconds &&
         kernels_identical(a.kernels, b.kernels);
}

bool identical(const sort::BatchedMergeReport& a, const sort::BatchedMergeReport& b) {
  return a.totals == b.totals && a.phases == b.phases &&
         a.microseconds == b.microseconds &&
         a.makespan_microseconds == b.makespan_microseconds &&
         kernels_identical(a.kernels, b.kernels);
}

bool identical(const sort::SegmentedSortReport& a, const sort::SegmentedSortReport& b) {
  return a.totals == b.totals && a.phases == b.phases &&
         a.serial_microseconds == b.serial_microseconds &&
         a.makespan_microseconds == b.makespan_microseconds &&
         kernels_identical(a.kernels, b.kernels);
}

bool identical(const cfprims::PermuteReport& a, const cfprims::PermuteReport& b) {
  return a.totals == b.totals && a.phases == b.phases &&
         a.microseconds == b.microseconds &&
         a.makespan_microseconds == b.makespan_microseconds &&
         kernels_identical(a.kernels, b.kernels);
}

struct WallStats {
  double min_ms = 0.0;
  double median_ms = 0.0;
};

WallStats wall_stats(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  WallStats s;
  s.min_ms = times.front();
  s.median_ms = times[times.size() / 2];
  return s;
}

/// Runs `body` (which returns a report) `repeats` times, fills wall stats,
/// and checks the repeat reports are bit-identical to the first.
template <typename Body>
CaseResult run_case(const std::string& name, const std::string& detail, int repeats,
                    std::int64_t elements, Body&& body) {
  CaseResult r;
  r.name = name;
  r.detail = detail;
  r.elements = elements;
  auto first = body(&r);  // repeat 0 (also records wall via r-side channel)
  std::vector<double> walls{r.wall_ms_min};
  for (int i = 1; i < repeats; ++i) {
    CaseResult tmp = r;
    auto rep = body(&tmp);
    walls.push_back(tmp.wall_ms_min);
    if (!identical(first, rep)) r.identity_ok = false;
  }
  const WallStats s = wall_stats(walls);
  r.wall_ms_min = s.min_ms;
  r.wall_ms_median = s.median_ms;
  r.wall_ms_cold = walls.front();
  r.wall_ms_warm = *std::min_element(walls.begin() + 1, walls.end());
  r.warm_speedup = r.wall_ms_warm > 0 ? r.wall_ms_cold / r.wall_ms_warm : 0.0;
  r.elem_per_sec =
      s.min_ms > 0 ? static_cast<double>(elements) / (s.min_ms / 1000.0) : 0.0;
  std::printf(
      "  %-28s cold %8.1f ms  warm %8.1f ms (x%4.2f)  %12.0f elem/s  identity %s\n",
      name.c_str(), r.wall_ms_cold, r.wall_ms_warm, r.warm_speedup, r.elem_per_sec,
      r.identity_ok ? "ok" : "FAIL");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int repeats = 0;  // 0 = default per mode
  int threads = 1;
  std::string out_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--quick") quick = true;
      else if (a.rfind("--repeats=", 0) == 0)
        repeats = gpusim::parse_int<int>(a.substr(10), "--repeats", 0);
      else if (a.rfind("--threads=", 0) == 0)
        threads = gpusim::parse_int<int>(a.substr(10), "--threads", 0);
      else if (a.rfind("--out=", 0) == 0) out_path = a.substr(6);
      else {
        std::fprintf(stderr,
                     "usage: sim_hotpath [--quick] [--repeats=R] [--threads=T] "
                     "[--out=FILE.json]\n");
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sim_hotpath: %s\n", e.what());
    return 2;
  }
  if (out_path.empty() && !quick) out_path = "BENCH_sim_hotpath.json";
  if (repeats == 0) repeats = quick ? 2 : 3;
  if (repeats < 2) repeats = 2;  // identity checks need two runs

  const std::int64_t n_sort = quick ? (1 << 17) : (1 << 20);
  const int pairs = quick ? 8 : 32;
  const std::int64_t pair_len = quick ? 4096 : 16384;
  const int segments = quick ? 8 : 16;
  const std::int64_t n_segmented = quick ? (1 << 16) : (1 << 19);

  sort::MergeConfig cf_cfg;
  cf_cfg.e = 15;
  cf_cfg.u = 512;
  cf_cfg.variant = sort::Variant::CFMerge;
  sort::MergeConfig base_cfg = cf_cfg;
  base_cfg.variant = sort::Variant::Baseline;

  const auto dev = [] { return gpusim::DeviceSpec::scaled_turing(4); };

#ifdef CFMERGE_UNOPTIMIZED_BENCH
  std::fprintf(stderr,
               "sim_hotpath: WARNING — built without optimization "
               "(CMAKE_BUILD_TYPE is not Release); wall times are not "
               "comparable to BENCH_sim_hotpath.json\n");
#endif
  std::printf("sim_hotpath: %s mode, repeats=%d, threads=%d\n\n",
              quick ? "quick" : "full", repeats, threads);

  std::vector<CaseResult> results;

  // Plan-cache counters summed over every case's engine (each case gets its
  // own launcher + engine so cold rows really are cold).
  sort::EngineStats tally;
  auto accumulate = [&tally](const sort::EngineStats& es) {
    tally.plan_hits += es.plan_hits;
    tally.plan_misses += es.plan_misses;
    tally.plan_evictions += es.plan_evictions;
    tally.plans_cached += es.plans_cached;
    tally.plan_bytes += es.plan_bytes;
    tally.arena_bytes += es.arena_bytes;
    tally.arena_allocs += es.arena_allocs;
    tally.arena_reuses += es.arena_reuses;
    tally.bulk_charges += es.bulk_charges;
    tally.lane_charges += es.lane_charges;
    tally.audit_skipped_accesses += es.audit_skipped_accesses;
    // cert_* deliberately not summed: the certificate memo is process-wide,
    // so each engine snapshot reports the same cumulative numbers (taken
    // once from verify::certificate_stats() before the JSON is written).
  };

  // --- merge_sort, CF variant, random 2^20 (the trajectory's anchor case).
  const auto sort_input = random_vec(n_sort, 42);
  {
    gpusim::Launcher launcher(dev());
    launcher.set_threads(threads);
    sort::SortEngine engine(launcher);
    results.push_back(run_case(
        "merge_sort/cf/random", "n=" + std::to_string(n_sort), repeats, n_sort,
        [&](CaseResult* r) {
          auto data = sort_input;
          const double t0 = now_ms();
          auto rep = engine.sort(data, cf_cfg);
          r->wall_ms_min = now_ms() - t0;
          r->sim_microseconds = rep.microseconds;
          if (!std::is_sorted(data.begin(), data.end())) r->identity_ok = false;
          return rep;
        }));
    accumulate(engine.stats());
  }

  // --- merge_sort, baseline variant (exercises the conflicted shared path).
  {
    gpusim::Launcher launcher(dev());
    launcher.set_threads(threads);
    sort::SortEngine engine(launcher);
    results.push_back(run_case(
        "merge_sort/baseline/random", "n=" + std::to_string(n_sort), repeats, n_sort,
        [&](CaseResult* r) {
          auto data = sort_input;
          const double t0 = now_ms();
          auto rep = engine.sort(data, base_cfg);
          r->wall_ms_min = now_ms() - t0;
          r->sim_microseconds = rep.microseconds;
          if (!std::is_sorted(data.begin(), data.end())) r->identity_ok = false;
          return rep;
        }));
    accumulate(engine.stats());
  }

  // --- merge_sort, k-way multiway cascade: fewer global passes than the
  // 2-way pipeline at the same tile geometry, same plan-cache machinery.
  {
    sort::MultiwayConfig mw_cfg;
    mw_cfg.e = 15;
    mw_cfg.u = 256;  // cascade double-buffering needs 2(tile + (k/2)wE) words
    mw_cfg.k = 4;
    mw_cfg.variant = sort::MultiwayVariant::CFCascade;
    gpusim::Launcher launcher(dev());
    launcher.set_threads(threads);
    sort::SortEngine engine(launcher);
    results.push_back(run_case(
        "merge_sort/multiway-k4/random", "n=" + std::to_string(n_sort), repeats,
        n_sort, [&](CaseResult* r) {
          auto data = sort_input;
          const double t0 = now_ms();
          auto rep = engine.sort_multiway(data, mw_cfg);
          r->wall_ms_min = now_ms() - t0;
          r->sim_microseconds = rep.microseconds;
          if (!std::is_sorted(data.begin(), data.end())) r->identity_ok = false;
          return rep;
        }));
    accumulate(engine.stats());
  }

  // --- merge_sort with tracing attached: measures recording overhead, and
  // the counters must match the untraced run bit for bit.
  {
    const auto& untraced = results.front();
    gpusim::Launcher launcher(dev());
    launcher.set_threads(threads);
    sort::SortEngine engine(launcher);
    auto traced = run_case(
        "merge_sort/cf/random+trace", "n=" + std::to_string(n_sort), repeats, n_sort,
        [&](CaseResult* r) {
          gpusim::TraceSink sink;
          launcher.set_trace(&sink);
          auto data = sort_input;
          const double t0 = now_ms();
          auto rep = engine.sort(data, cf_cfg);
          r->wall_ms_min = now_ms() - t0;
          r->sim_microseconds = rep.microseconds;
          if (sink.size() == 0) r->identity_ok = false;
          launcher.set_trace(nullptr);
          return rep;
        });
    // Cross-check: tracing must not change the simulated outcome.
    if (traced.sim_microseconds != untraced.sim_microseconds) traced.identity_ok = false;
    results.push_back(traced);
    accumulate(engine.stats());
  }

  // --- batched_merge: many independent pairs, one graph.
  {
    std::vector<std::vector<std::int32_t>> as, bs;
    std::int64_t elements = 0;
    for (int p = 0; p < pairs; ++p) {
      auto a = random_vec(pair_len, 100 + static_cast<std::uint64_t>(p));
      auto b = random_vec(pair_len, 200 + static_cast<std::uint64_t>(p));
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      elements += 2 * pair_len;
      as.push_back(std::move(a));
      bs.push_back(std::move(b));
    }
    gpusim::Launcher launcher(dev());
    launcher.set_threads(threads);
    sort::SortEngine engine(launcher);
    results.push_back(run_case(
        "batched_merge/cf", std::to_string(pairs) + " pairs x " + std::to_string(pair_len),
        repeats, elements, [&](CaseResult* r) {
          std::vector<std::vector<std::int32_t>> outs;
          const double t0 = now_ms();
          auto rep = engine.batched_merge(as, bs, outs, cf_cfg);
          r->wall_ms_min = now_ms() - t0;
          r->sim_microseconds = rep.microseconds;
          for (const auto& o : outs)
            if (!std::is_sorted(o.begin(), o.end())) r->identity_ok = false;
          return rep;
        }));
    accumulate(engine.stats());
  }

  // --- segmented_sort: request batch as one graph; the --threads run must
  // agree bit for bit with a fresh 1-thread launcher.
  {
    std::mt19937_64 rng(7);
    std::vector<std::vector<std::int32_t>> proto(static_cast<std::size_t>(segments));
    std::int64_t used = 0;
    for (int s = 0; s < segments; ++s) {
      const std::int64_t len = s + 1 == segments
                                   ? n_segmented - used
                                   : std::min<std::int64_t>(n_segmented - used,
                                                            1 + static_cast<std::int64_t>(
                                                                    rng() %
                                                                    (2 * n_segmented /
                                                                     segments)));
      proto[static_cast<std::size_t>(s)] =
          random_vec(len, 300 + static_cast<std::uint64_t>(s));
      used += len;
    }
    sort::SegmentedSortReport threaded_rep;
    gpusim::Launcher seg_launcher(dev());
    seg_launcher.set_threads(threads);
    sort::SortEngine seg_engine(seg_launcher);
    auto seg = run_case(
        "segmented_sort/cf", std::to_string(segments) + " segments, n=" +
                                 std::to_string(n_segmented),
        repeats, n_segmented, [&](CaseResult* r) {
          auto batch = proto;
          const double t0 = now_ms();
          auto rep = seg_engine.segmented_sort(batch, cf_cfg);
          r->wall_ms_min = now_ms() - t0;
          r->sim_microseconds = rep.serial_microseconds;
          for (const auto& s2 : batch)
            if (!std::is_sorted(s2.begin(), s2.end())) r->identity_ok = false;
          threaded_rep = rep;
          return rep;
        });
    accumulate(seg_engine.stats());
    {
      gpusim::Launcher ref_launcher(dev());
      ref_launcher.set_threads(1);
      auto batch = proto;
      if (!identical(sort::segmented_sort(ref_launcher, batch, cf_cfg), threaded_rep))
        seg.identity_ok = false;
    }
    results.push_back(seg);
  }

  // --- cf-permute / cf-transpose: the standalone CF primitives through the
  // engine's plan cache, forward then inverse each repeat; the round trip
  // must be the identity and the kernels must stay conflict-free.
  for (const bool transpose : {false, true}) {
    cfprims::PermuteConfig pcfg;
    pcfg.op = transpose ? cfprims::PermuteOp::kTranspose : cfprims::PermuteOp::kPermute;
    pcfg.e = 15;
    pcfg.u = 512;
    gpusim::Launcher launcher(dev());
    launcher.set_threads(threads);
    sort::SortEngine engine(launcher);
    results.push_back(run_case(
        transpose ? "cf-transpose/roundtrip" : "cf-permute/roundtrip",
        "n=" + std::to_string(n_sort), repeats, n_sort, [&](CaseResult* r) {
          auto data = sort_input;
          const double t0 = now_ms();
          cfprims::PermuteConfig fwd = pcfg;
          fwd.inverse = false;
          auto rep = engine.permute(data, fwd);
          cfprims::PermuteConfig inv = pcfg;
          inv.inverse = true;
          engine.permute(data, inv);
          r->wall_ms_min = now_ms() - t0;
          r->sim_microseconds = rep.microseconds;
          data.resize(sort_input.size());
          if (data != sort_input) r->identity_ok = false;
          if (rep.totals.bank_conflicts != 0) r->identity_ok = false;
          return rep;
        }));
    accumulate(engine.stats());
  }

  // --- audited merge_sort: full per-lane shadow replay vs certified-skip.
  // The certificate-backed skip must not change a single counter, and must
  // actually elide work (audit_skipped_accesses > 0).
  {
    const std::int64_t n_audit = quick ? (1 << 15) : (1 << 17);
    const auto audit_input = random_vec(n_audit, 77);
    sort::SortReport full_rep, skip_rep;
    std::uint64_t skipped = 0;
    bool audit_ok = true;
    double full_ms = 0.0, skip_ms = 0.0;
    {
      verify::ShadowChecker shadow;
      gpusim::Launcher launcher(dev());
      launcher.set_threads(threads);
      launcher.set_audit(&shadow);
      sort::SortEngine engine(launcher);
      auto data = audit_input;
      const double t0 = now_ms();
      full_rep = engine.sort(data, cf_cfg);
      full_ms = now_ms() - t0;
      if (!std::is_sorted(data.begin(), data.end())) audit_ok = false;
      if (!shadow.summary().clean()) audit_ok = false;
      const sort::EngineStats es = engine.stats();
      if (es.audit_skipped_accesses != 0) audit_ok = false;  // skip mode is off
      accumulate(es);
    }
    {
      verify::ShadowChecker shadow;
      gpusim::Launcher launcher(dev());
      launcher.set_threads(threads);
      launcher.set_audit(&shadow);
      launcher.set_audit_skip(true);
      sort::SortEngine engine(launcher);
      auto data = audit_input;
      const double t0 = now_ms();
      skip_rep = engine.sort(data, cf_cfg);
      skip_ms = now_ms() - t0;
      if (!std::is_sorted(data.begin(), data.end())) audit_ok = false;
      const verify::ShadowSummary sum = shadow.summary();
      if (!sum.clean()) audit_ok = false;
      const sort::EngineStats es = engine.stats();
      skipped = es.audit_skipped_accesses;
      if (skipped == 0 || sum.skipped_accesses == 0) audit_ok = false;
      accumulate(es);
    }
    if (!identical(full_rep, skip_rep)) audit_ok = false;
    CaseResult r;
    r.name = "merge_sort/cf/audit-skip";
    r.detail = "n=" + std::to_string(n_audit) +
               ", audit_skipped_accesses=" + std::to_string(skipped);
    r.elements = n_audit;
    r.sim_microseconds = skip_rep.microseconds;
    r.wall_ms_min = std::min(full_ms, skip_ms);
    r.wall_ms_median = r.wall_ms_min;
    r.wall_ms_cold = full_ms;
    r.wall_ms_warm = skip_ms;
    r.warm_speedup = skip_ms > 0 ? full_ms / skip_ms : 0.0;
    r.elem_per_sec = skip_ms > 0
                         ? static_cast<double>(n_audit) / (skip_ms / 1000.0)
                         : 0.0;
    r.identity_ok = audit_ok;
    std::printf(
        "  %-28s full %8.1f ms  skip %8.1f ms (x%4.2f)  %12llu skipped  identity %s\n",
        r.name.c_str(), full_ms, skip_ms, r.warm_speedup,
        static_cast<unsigned long long>(skipped), audit_ok ? "ok" : "FAIL");
    results.push_back(r);
  }

  const bool all_ok =
      std::all_of(results.begin(), results.end(),
                  [](const CaseResult& r) { return r.identity_ok; });

  const verify::CertificateStats cert_stats = verify::certificate_stats();
  tally.cert_hits = cert_stats.hits;
  tally.cert_misses = cert_stats.misses;
  tally.certs_cached = cert_stats.cached;

  std::printf("\nplan cache: hits=%llu misses=%llu hit_rate=%.3f\n",
              static_cast<unsigned long long>(tally.plan_hits),
              static_cast<unsigned long long>(tally.plan_misses), tally.hit_rate());
  if (out_path.empty()) {
    std::printf("quick run without --out=: no JSON written\n");
  } else {
    std::ofstream f(out_path);
    if (!f) {
      std::fprintf(stderr, "sim_hotpath: cannot write %s\n", out_path.c_str());
      return 1;
    }
    f << "{\n  \"schema\": \"cfmerge.sim_hotpath.v2\",\n";
    f << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
    f << "  \"repeats\": " << repeats << ",\n";
    f << "  \"threads\": " << threads << ",\n";
    f << "  \"identity_ok\": " << (all_ok ? "true" : "false") << ",\n";
    f << "  \"engine\": ";
    analysis::write_json(f, tally);
    f << ",\n";
    f << "  \"cases\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      f << "    {\"name\": \"" << analysis::json_escape(r.name) << "\", "
        << "\"detail\": \"" << analysis::json_escape(r.detail) << "\", "
        << "\"elements\": " << r.elements << ", "
        << "\"sim_microseconds\": " << r.sim_microseconds << ", "
        << "\"wall_ms_min\": " << r.wall_ms_min << ", "
        << "\"wall_ms_median\": " << r.wall_ms_median << ", "
        << "\"wall_ms_cold\": " << r.wall_ms_cold << ", "
        << "\"wall_ms_warm\": " << r.wall_ms_warm << ", "
        << "\"warm_speedup\": " << r.warm_speedup << ", "
        << "\"elem_per_sec\": " << r.elem_per_sec << ", "
        << "\"identity_ok\": " << (r.identity_ok ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!all_ok) {
    std::fprintf(stderr, "sim_hotpath: BIT-IDENTITY CHECK FAILED\n");
    return 1;
  }
  return 0;
}
