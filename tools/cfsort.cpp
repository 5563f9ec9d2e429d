// cfsort — command-line driver for the simulated sorters.
//
//   cfsort [options]
//     --op=sort|permute|transpose                 (default sort; permute and
//                                                 transpose run the standalone
//                                                 cf_permute / cf_transpose
//                                                 primitive forward then
//                                                 inverse and verify the
//                                                 round-trip is the identity)
//     --algo=cf|baseline|bitonic|bitonic-padded   (default cf)
//     --dist=uniform-random|sorted|reverse|nearly-sorted|few-distinct|
//            sawtooth|worst-case                  (default uniform-random)
//     --n=<count>                                 (default 245760)
//     --e=<elements per thread>                   (default 15)
//     --u=<threads per block>                     (default 512)
//     --k=<merge arity>                           k-way multiway sort (requires
//                                                 --algo=cf; k=0, the default,
//                                                 keeps the pairwise pipeline)
//     --multiway=cascade|losertree                multiway variant (default
//                                                 cascade — the conflict-free
//                                                 in-shared cascade; losertree
//                                                 is the conflicted baseline)
//     --device=rtx2080ti | turing:<sms> | tiny:<w>,<sms>   (default turing:4)
//     --seed=<seed>                               (default 42)
//     --threads=<host worker threads>             (default 0 = CFMERGE_SIM_THREADS or 1)
//     --segments=<count>                          segmented sort: split the input into
//                                                 <count> pseudo-random-sized segments
//                                                 (deterministic in --seed) and sort
//                                                 them with flat launches (one block
//                                                 sort, one partition + merge per round)
//     --repeat=<count>                            run the sort <count> times on fresh
//                                                 copies of the input and print min and
//                                                 median host wall-clock to stderr
//                                                 (simulated reports are identical across
//                                                 repeats; this measures the simulator).
//                                                 Repeats share one SortEngine, so runs
//                                                 after the first replay a cached plan.
//     --no-plan-cache                             disable the engine's plan cache (every
//                                                 repeat rebuilds its kernel graph)
//     --plan-cache-dir=PATH                       persistent cross-process plan &
//                                                 autotune cache directory (default: the
//                                                 CFMERGE_PLAN_CACHE_DIR environment
//                                                 variable; unset = no persistence).
//                                                 A second process run warm-starts from
//                                                 it: disk hits land in the "engine"
//                                                 stats and --tune skips measurement.
//     --plan-cache-clear                          delete the persistent store file under
//                                                 the cache dir, then continue (requires
//                                                 a cache dir)
//     --tune[=K]                                  pick (E, u) with the autotuner before
//                                                 sorting: statically rank candidates,
//                                                 measure the top K (default 3) with
//                                                 calibration sorts, take the winner.
//                                                 Overrides --e/--u.  With a cache dir,
//                                                 the measured ranking persists and the
//                                                 next process skips the calibration
//                                                 sorts entirely.
//     --no-bulk-charge                            disable the proof-guided bulk
//                                                 accounting path (every warp access is
//                                                 charged per lane; all counters are
//                                                 bit-identical either way)
//     --audit[=full|certified-skip]               attach the shadow-state checker to the
//                                                 run (default full: every access
//                                                 replayed per lane).  certified-skip
//                                                 lets executions backed by a Pass 3
//                                                 safety certificate keep the bulk path,
//                                                 eliding their per-lane replay; the
//                                                 elided count lands on stderr as
//                                                 audit_skipped_accesses.  Exits 1 on
//                                                 any shadow violation.
//     --json                                      emit a JSON report (includes an
//                                                 "engine" field with plan-cache stats
//                                                 for cf/baseline runs)
//     --profile                                   print the phase profile
//     --trace=<file.csv>                          dump the access trace
//     --cf-blocksort                              enable the CF block-sort
//
// Exit status: 0 on success; 1 on a failed self-check (unsorted output,
// shadow violation, unwritable trace); 2 on a usage error — an unknown or
// malformed flag, or a configuration the sorters reject (E or u out of
// range, a block that does not fit on an SM, a negative --n, a --segments
// or --tune count below 1), reported as "cfsort: <message>".
//
// Examples:
//   cfsort --algo=baseline --dist=worst-case --n=491520 --profile
//   cfsort --algo=cf --json | jq .throughput_elem_per_us
//   cfsort --algo=cf --segments=16 --json | jq .graph_levels
//   cfsort --algo=cf --k=4 --json | jq .passes
//   cfsort --algo=cf --k=4 --multiway=losertree --profile
//   cfsort --op=permute --e=15 --u=512 --json | jq .totals.bank_conflicts
//   cfsort --op=transpose --n=122880 --profile
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

#include "cfmerge.hpp"

using namespace cfmerge;
using gpusim::parse_int;

namespace {

struct Options {
  std::string op = "sort";
  std::string algo = "cf";
  std::string dist = "uniform-random";
  std::int64_t n = 245760;
  int e = 15;
  int u = 512;
  int k = 0;  // 0 = pairwise pipeline; >= 2 = k-way multiway sort
  std::string multiway;  // empty = not given (the cascade with --k)
  std::string device = "turing:4";
  std::uint64_t seed = 42;
  int threads = 0;  // 0 = CFMERGE_SIM_THREADS env or sequential
  int segments = 0;  // 0 = plain sort; N >= 1 = segmented sort over N segments
  int repeat = 1;
  std::string plan_cache_dir;  // empty = CFMERGE_PLAN_CACHE_DIR env, else none
  bool plan_cache_clear = false;
  int tune = 0;  // 0 = off; K >= 1 = measure the top K candidates
  bool no_plan_cache = false;
  bool no_bulk_charge = false;
  std::string audit;  // "" = off, "full", "certified-skip"
  bool json = false;
  bool profile = false;
  bool cf_blocksort = false;
  std::string trace_path;
};

[[noreturn]] void usage(const char* msg) {
  if (msg) std::fprintf(stderr, "cfsort: %s\n", msg);
  std::fprintf(stderr,
               "usage: cfsort [--op=sort|permute|transpose]\n"
               "              [--algo=cf|baseline|bitonic|bitonic-padded]\n"
               "              [--dist=NAME] [--n=N] [--e=E] [--u=U]\n"
               "              [--k=K] [--multiway=cascade|losertree]\n"
               "              [--device=rtx2080ti|turing:SMS|tiny:W,SMS]\n"
               "              [--seed=S] [--threads=T] [--segments=N]\n"
               "              [--repeat=N] [--no-plan-cache] [--no-bulk-charge]\n"
               "              [--audit[=full|certified-skip]]\n"
               "              [--plan-cache-dir=PATH] [--plan-cache-clear] [--tune[=K]]\n"
               "              [--json] [--profile]\n"
               "              [--trace=FILE] [--cf-blocksort]\n");
  std::exit(msg ? 2 : 0);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* key) -> std::string {
      const std::size_t klen = std::strlen(key);
      if (a.rfind(key, 0) == 0 && a.size() > klen && a[klen] == '=')
        return a.substr(klen + 1);
      return {};
    };
    if (a == "--help" || a == "-h") usage(nullptr);
    else if (auto v = val("--op"); !v.empty()) o.op = v;
    else if (auto v = val("--algo"); !v.empty()) o.algo = v;
    else if (auto v = val("--dist"); !v.empty()) o.dist = v;
    else if (auto v = val("--n"); !v.empty()) o.n = parse_int<std::int64_t>(v, "--n");
    else if (auto v = val("--e"); !v.empty()) o.e = parse_int<int>(v, "--e");
    else if (auto v = val("--u"); !v.empty()) o.u = parse_int<int>(v, "--u");
    else if (auto v = val("--k"); !v.empty()) o.k = parse_int<int>(v, "--k");
    else if (auto v = val("--multiway"); !v.empty()) o.multiway = v;
    else if (auto v = val("--device"); !v.empty()) o.device = v;
    else if (auto v = val("--seed"); !v.empty())
      o.seed = parse_int<std::uint64_t>(v, "--seed");
    else if (auto v = val("--threads"); !v.empty()) o.threads = parse_int<int>(v, "--threads");
    else if (auto v = val("--segments"); !v.empty())
      o.segments = parse_int<int>(v, "--segments", 1);
    else if (auto v = val("--repeat"); !v.empty()) o.repeat = parse_int<int>(v, "--repeat");
    else if (auto v = val("--trace"); !v.empty()) o.trace_path = v;
    else if (auto v = val("--plan-cache-dir"); !v.empty()) o.plan_cache_dir = v;
    else if (a == "--plan-cache-clear") o.plan_cache_clear = true;
    else if (a == "--tune") o.tune = 3;
    else if (auto v = val("--tune"); !v.empty()) o.tune = parse_int<int>(v, "--tune", 1);
    else if (a == "--no-plan-cache") o.no_plan_cache = true;
    else if (a == "--no-bulk-charge") o.no_bulk_charge = true;
    else if (a == "--audit") o.audit = "full";
    else if (auto v = val("--audit"); !v.empty()) o.audit = v;
    else if (a == "--json") o.json = true;
    else if (a == "--profile") o.profile = true;
    else if (a == "--cf-blocksort") o.cf_blocksort = true;
    else usage(("unknown argument: " + a).c_str());
  }
  return o;
}

gpusim::DeviceSpec make_device(const std::string& name) {
  if (name == "rtx2080ti") return gpusim::DeviceSpec::rtx2080ti();
  if (name.rfind("turing:", 0) == 0)
    return gpusim::DeviceSpec::scaled_turing(parse_int<int>(name.substr(7), "--device"));
  if (name.rfind("tiny:", 0) == 0) {
    const std::string rest = name.substr(5);
    const auto comma = rest.find(',');
    const int w = parse_int<int>(rest.substr(0, comma), "--device");
    const int sms =
        comma == std::string::npos ? 2 : parse_int<int>(rest.substr(comma + 1), "--device");
    return gpusim::DeviceSpec::tiny(w, sms);
  }
  usage(("unknown device: " + name).c_str());
}

workloads::Distribution parse_dist(const std::string& name) {
  for (const auto d : workloads::all_distributions())
    if (name == workloads::distribution_name(d)) return d;
  usage(("unknown distribution: " + name).c_str());
}

/// Splits `data` into `count` segments with pseudo-random sizes drawn
/// deterministically from `seed` (a request-batch shape: uneven but
/// reproducible).  Every element of `data` lands in exactly one segment.
std::vector<std::vector<std::int32_t>> split_segments(const std::vector<std::int32_t>& data,
                                                      int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> weights(static_cast<std::size_t>(count));
  double total = 0.0;
  for (auto& w : weights) {
    w = 1.0 + static_cast<double>(rng() % 1000);  // spread ~1:1000
    total += w;
  }
  std::vector<std::vector<std::int32_t>> segments;
  segments.reserve(weights.size());
  std::size_t begin = 0;
  for (int s = 0; s < count; ++s) {
    std::size_t len = s + 1 == count
                          ? data.size() - begin
                          : static_cast<std::size_t>(weights[static_cast<std::size_t>(s)] /
                                                     total * static_cast<double>(data.size()));
    len = std::min(len, data.size() - begin);
    segments.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(begin),
                          data.begin() + static_cast<std::ptrdiff_t>(begin + len));
    begin += len;
  }
  return segments;
}

}  // namespace

int run(int argc, char** argv) {
  Options o = parse(argc, argv);  // mutable: --tune overrides o.e / o.u
  gpusim::DeviceSpec dev = make_device(o.device);
  dev.bulk_charge = !o.no_bulk_charge;
  gpusim::Launcher launcher(std::move(dev));
  launcher.set_threads(o.threads);
  gpusim::TraceSink sink;
  if (!o.trace_path.empty()) launcher.set_trace(&sink);

  if (!o.audit.empty() && o.audit != "full" && o.audit != "certified-skip")
    usage(("unknown audit mode: " + o.audit + " (valid: full, certified-skip)").c_str());
  verify::ShadowChecker shadow;
  if (!o.audit.empty()) {
    launcher.set_audit(&shadow);
    launcher.set_audit_skip(o.audit == "certified-skip");
  }

  // Persistent plan & autotune cache: --plan-cache-dir wins, the
  // CFMERGE_PLAN_CACHE_DIR environment variable is the fallback.
  std::string cache_dir = o.plan_cache_dir;
  if (cache_dir.empty()) {
    if (const char* env = std::getenv("CFMERGE_PLAN_CACHE_DIR"); env != nullptr)
      cache_dir = env;
  }
  if (o.plan_cache_clear && cache_dir.empty())
    usage("--plan-cache-clear requires --plan-cache-dir or CFMERGE_PLAN_CACHE_DIR");
  if (o.plan_cache_clear && !cache::PlanCacheStore::clear(cache_dir)) {
    std::fprintf(stderr, "cfsort: cannot clear plan cache under %s\n",
                 cache_dir.c_str());
    return 1;
  }
  std::unique_ptr<cache::PlanCacheStore> store;
  if (!cache_dir.empty()) store = std::make_unique<cache::PlanCacheStore>(cache_dir);

  // --tune picks (E, u) before the workload is generated: the worst-case
  // builder's tile rounding and the sort itself must agree on the choice.
  if (o.tune > 0) {
    if (o.op != "sort" || (o.algo != "cf" && o.algo != "baseline"))
      usage("--tune requires --op=sort with --algo=cf or --algo=baseline");
    analysis::TuneOptions topts;
    topts.variant = o.algo == "cf" ? sort::Variant::CFMerge : sort::Variant::Baseline;
    auto candidates = analysis::enumerate_candidates(launcher.device(), topts);
    if (candidates.empty()) usage("--tune found no (E, u) candidate for this device");
    analysis::measure_candidates(launcher, candidates, topts, o.tune,
                                 /*tiles_per_candidate=*/4, o.seed, store.get());
    o.e = candidates.front().e;
    o.u = candidates.front().u;
    std::fprintf(stderr,
                 "cfsort: tuned (E, u) = (%d, %d) from %zu candidates "
                 "(measured top %d, %.1f elements/us)\n",
                 o.e, o.u, candidates.size(),
                 std::min<int>(o.tune, static_cast<int>(candidates.size())),
                 candidates.front().measured_throughput);
  }

  workloads::WorkloadSpec spec;
  spec.dist = parse_dist(o.dist);
  spec.n = o.n;
  spec.seed = o.seed;
  spec.w = launcher.device().warp_size;
  spec.e = o.e;
  spec.u = o.u;

  // The worst-case builder needs exact tile shapes; round up for the user.
  if (spec.dist == workloads::Distribution::WorstCase) {
    spec.n = worstcase::sort_input_length(o.n, o.u, o.e);
    if (spec.n != o.n)
      std::fprintf(stderr, "cfsort: worst-case input rounded n to %lld\n",
                   static_cast<long long>(spec.n));
  }

  std::vector<std::int32_t> data = workloads::generate(spec);

  if (o.segments > 0 && o.algo != "cf" && o.algo != "baseline")
    usage("--segments requires --algo=cf or --algo=baseline");
  if (o.repeat < 1) usage("--repeat must be >= 1");
  if (o.k != 0 && o.k < 2) usage("--k must be 0 (pairwise) or an arity >= 2");
  if (o.k > 0 && o.algo != "cf") usage("--k requires --algo=cf");
  if (o.k > 0 && o.segments > 0) usage("--k and --segments are mutually exclusive");
  if (!o.multiway.empty() && o.multiway != "cascade" && o.multiway != "losertree")
    usage(("unknown multiway variant: " + o.multiway +
           " (valid: cascade, losertree)").c_str());
  if (!o.multiway.empty() && o.k == 0) usage("--multiway requires --k");
  if (o.op != "sort" && o.op != "permute" && o.op != "transpose")
    usage(("unknown op: " + o.op + " (valid: sort, permute, transpose)").c_str());
  if (o.algo != "cf" && o.algo != "baseline" && o.algo != "bitonic" &&
      o.algo != "bitonic-padded")
    usage(("unknown algorithm: " + o.algo +
           " (valid: cf, baseline, bitonic, bitonic-padded)").c_str());
  if (o.op != "sort" && o.algo != "cf")
    usage("--op=permute|transpose requires --algo=cf");
  if (o.op != "sort" && (o.k > 0 || o.segments > 0))
    usage("--op=permute|transpose is incompatible with --k and --segments");
  if (o.cf_blocksort && (o.op != "sort" || o.algo != "cf"))
    usage("--cf-blocksort requires --op=sort with --algo=cf");

  // Runs the sort `o.repeat` times, each on a fresh copy of the unsorted
  // input, and prints min/median host wall-clock to stderr (simulated
  // reports are deterministic, so repeats only measure the simulator
  // itself).  Leaves the last run's output in `data` and returns its report.
  auto repeat_wall = [&](auto&& run_once) {
    using Report = std::decay_t<decltype(run_once(data))>;
    std::optional<Report> report;
    std::vector<double> ms(static_cast<std::size_t>(o.repeat));
    for (int r = 0; r < o.repeat; ++r) {
      std::vector<std::int32_t> work = r + 1 == o.repeat ? std::move(data) : data;
      const auto t0 = std::chrono::steady_clock::now();
      report = run_once(work);
      const auto t1 = std::chrono::steady_clock::now();
      ms[static_cast<std::size_t>(r)] =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (r + 1 == o.repeat) data = std::move(work);
    }
    if (o.repeat > 1) {
      std::sort(ms.begin(), ms.end());
      std::fprintf(stderr, "cfsort: repeat=%d host wall min=%.3f ms median=%.3f ms\n",
                   o.repeat, ms.front(), ms[ms.size() / 2]);
    }
    return *report;
  };

  // One engine shared across all repeats: the first run builds (and caches)
  // the plan, later runs replay it.  The stats land on stderr and in the
  // JSON report's "engine" field.
  sort::SortEngine engine(launcher);
  engine.set_plan_cache_enabled(!o.no_plan_cache);
  if (store) engine.set_store(store.get());
  auto print_engine_stats = [&] {
    const sort::EngineStats es = engine.stats();
    if (store)
      std::fprintf(stderr,
                   "cfsort: plan store hits=%llu misses=%llu writes=%llu "
                   "evictions=%llu corrupt=%llu entries=%llu bytes=%llu\n",
                   static_cast<unsigned long long>(es.disk_hits),
                   static_cast<unsigned long long>(es.disk_misses),
                   static_cast<unsigned long long>(es.disk_writes),
                   static_cast<unsigned long long>(es.disk_evictions),
                   static_cast<unsigned long long>(es.disk_corrupt),
                   static_cast<unsigned long long>(es.disk_entries),
                   static_cast<unsigned long long>(es.disk_bytes));
    if (o.repeat > 1 || o.no_plan_cache)
      std::fprintf(stderr,
                   "cfsort: plan cache hits=%llu misses=%llu hit_rate=%.3f "
                   "arena=%llu B\n",
                   static_cast<unsigned long long>(es.plan_hits),
                   static_cast<unsigned long long>(es.plan_misses), es.hit_rate(),
                   static_cast<unsigned long long>(es.arena_bytes));
    std::fprintf(stderr,
                 "cfsort: accounting bulk=%llu lane=%llu bulk_rate=%.3f "
                 "cert hits=%llu misses=%llu cached=%llu\n",
                 static_cast<unsigned long long>(es.bulk_charges),
                 static_cast<unsigned long long>(es.lane_charges), es.bulk_rate(),
                 static_cast<unsigned long long>(es.cert_hits),
                 static_cast<unsigned long long>(es.cert_misses),
                 static_cast<unsigned long long>(es.certs_cached));
    if (!o.audit.empty())
      std::fprintf(stderr, "cfsort: audit mode=%s audit_skipped_accesses=%llu\n",
                   o.audit.c_str(),
                   static_cast<unsigned long long>(es.audit_skipped_accesses));
  };

  // Reports the shadow checker's verdict after the run; any violation is a
  // hard failure (the auditor saw something the static proofs rule out).
  auto check_shadow = [&]() -> int {
    if (o.audit.empty()) return 0;
    const verify::ShadowSummary sum = shadow.summary();
    std::fprintf(stderr,
                 "cfsort: shadow shared_accesses=%llu skipped_accesses=%llu "
                 "violations=%zu\n",
                 static_cast<unsigned long long>(sum.shared_accesses),
                 static_cast<unsigned long long>(sum.skipped_accesses),
                 sum.violations.size() + static_cast<std::size_t>(sum.dropped_violations));
    if (sum.clean()) return 0;
    for (const verify::ShadowViolation& v : sum.violations)
      std::fprintf(stderr, "cfsort: SHADOW VIOLATION [%s] block %d warp %d %s: %s\n",
                   v.kind.c_str(), v.block, v.warp, v.phase.c_str(),
                   v.detail.c_str());
    return 1;
  };

  if (o.op != "sort") {
    cfprims::PermuteConfig cfg;
    cfg.op = o.op == "transpose" ? cfprims::PermuteOp::kTranspose
                                 : cfprims::PermuteOp::kPermute;
    cfg.e = o.e;
    cfg.u = o.u;
    const std::vector<std::int32_t> original = data;
    const auto report = repeat_wall([&](std::vector<std::int32_t>& work) {
      work.resize(original.size());  // undo the previous repeat's padding
      cfprims::PermuteConfig fwd = cfg;
      fwd.inverse = false;
      return engine.permute(work, fwd);
    });
    // Round-trip: the inverse op must restore the original array exactly.
    cfprims::PermuteConfig inv = cfg;
    inv.inverse = true;
    engine.permute(data, inv);
    data.resize(original.size());
    if (data != original) {
      std::fprintf(stderr, "cfsort: ROUND-TRIP NOT IDENTITY (bug)\n");
      return 1;
    }
    print_engine_stats();
    if (o.json) {
      const sort::EngineStats es = engine.stats();
      analysis::write_json(std::cout, report, launcher.device().name, o.dist, &es);
    } else {
      std::printf("%s | %s | n=%lld | %.1f us | %.1f elements/us | "
                  "conflicts=%llu | roundtrip ok\n",
                  report.op_name(), o.dist.c_str(), static_cast<long long>(report.n),
                  report.microseconds, report.throughput(),
                  static_cast<unsigned long long>(report.totals.bank_conflicts));
      if (o.profile) analysis::print_phase_profile(std::cout, report.phases, report.n_padded);
    }
  } else if (o.algo == "bitonic" || o.algo == "bitonic-padded") {
    sort::BitonicConfig cfg;
    cfg.u = o.u;
    cfg.elems_per_thread = 2;
    cfg.padded = o.algo == "bitonic-padded";
    const auto report = repeat_wall([&](std::vector<std::int32_t>& work) {
      return sort::bitonic_sort(launcher, work, cfg);
    });
    if (!std::is_sorted(data.begin(), data.end())) {
      std::fprintf(stderr, "cfsort: OUTPUT NOT SORTED (bug)\n");
      return 1;
    }
    if (o.json) {
      analysis::write_json(std::cout, report, cfg, launcher.device().name, o.dist);
    } else {
      std::printf("%s | %s | n=%lld | %.1f us | %.1f elements/us | conflicts=%llu\n",
                  o.algo.c_str(), o.dist.c_str(), static_cast<long long>(report.n),
                  report.microseconds, report.throughput(),
                  static_cast<unsigned long long>(report.totals.bank_conflicts));
    }
  } else if ((o.algo == "cf" || o.algo == "baseline") && o.segments > 0) {
    sort::MergeConfig cfg;
    cfg.e = o.e;
    cfg.u = o.u;
    cfg.variant = o.algo == "cf" ? sort::Variant::CFMerge : sort::Variant::Baseline;
    cfg.cf_blocksort = o.cf_blocksort;
    std::vector<std::vector<std::int32_t>> segments;
    const auto report = repeat_wall([&](std::vector<std::int32_t>& work) {
      segments = split_segments(work, o.segments, o.seed);
      return engine.segmented_sort(segments, cfg);
    });
    print_engine_stats();
    for (const auto& seg : segments) {
      if (!std::is_sorted(seg.begin(), seg.end())) {
        std::fprintf(stderr, "cfsort: SEGMENT NOT SORTED (bug)\n");
        return 1;
      }
    }
    if (o.json) {
      const sort::EngineStats es = engine.stats();
      analysis::write_json(std::cout, report, cfg, launcher.device().name, o.dist, &es);
    } else {
      std::printf("%s\n", analysis::summarize(report, o.algo + "/segmented").c_str());
      if (o.profile) analysis::print_phase_profile(std::cout, report.phases, report.elements);
    }
  } else if (o.algo == "cf" && o.k > 0) {
    sort::MultiwayConfig cfg;
    cfg.e = o.e;
    cfg.u = o.u;
    cfg.k = o.k;
    cfg.variant = o.multiway == "losertree" ? sort::MultiwayVariant::LoserTree
                                            : sort::MultiwayVariant::CFCascade;
    cfg.cf_blocksort = o.cf_blocksort;
    const auto report = repeat_wall([&](std::vector<std::int32_t>& work) {
      return engine.sort_multiway(work, cfg);
    });
    print_engine_stats();
    if (!std::is_sorted(data.begin(), data.end())) {
      std::fprintf(stderr, "cfsort: OUTPUT NOT SORTED (bug)\n");
      return 1;
    }
    if (o.json) {
      const sort::EngineStats es = engine.stats();
      analysis::write_json(std::cout, report, cfg, launcher.device().name, o.dist, &es);
    } else {
      const std::string label = o.algo + "/" +
                                (o.multiway.empty() ? "cascade" : o.multiway) + "-k" +
                                std::to_string(o.k);
      std::printf("%s\n", analysis::summarize(report, label).c_str());
      if (o.profile) analysis::print_phase_profile(std::cout, report.phases, report.n_padded);
    }
  } else if (o.algo == "cf" || o.algo == "baseline") {
    sort::MergeConfig cfg;
    cfg.e = o.e;
    cfg.u = o.u;
    cfg.variant = o.algo == "cf" ? sort::Variant::CFMerge : sort::Variant::Baseline;
    cfg.cf_blocksort = o.cf_blocksort;
    const auto report = repeat_wall([&](std::vector<std::int32_t>& work) {
      return engine.sort(work, cfg);
    });
    print_engine_stats();
    if (!std::is_sorted(data.begin(), data.end())) {
      std::fprintf(stderr, "cfsort: OUTPUT NOT SORTED (bug)\n");
      return 1;
    }
    if (o.json) {
      const sort::EngineStats es = engine.stats();
      analysis::write_json(std::cout, report, cfg, launcher.device().name, o.dist, &es);
    } else {
      std::printf("%s\n", analysis::summarize(report, o.algo).c_str());
      if (o.profile) analysis::print_phase_profile(std::cout, report.phases, report.n_padded);
    }
  } else {
    usage(("unknown algorithm: " + o.algo).c_str());
  }

  if (const int rc = check_shadow(); rc != 0) return rc;

  if (!o.trace_path.empty()) {
    std::ofstream f(o.trace_path);
    if (!f) {
      std::fprintf(stderr, "cfsort: cannot write %s\n", o.trace_path.c_str());
      return 1;
    }
    sink.write_csv(f);
    std::fprintf(stderr, "cfsort: wrote %zu trace events to %s\n", sink.size(),
                 o.trace_path.c_str());
  }
  if (store && !store->save())
    std::fprintf(stderr, "cfsort: warning: could not persist plan cache to %s\n",
                 store->file_path().string().c_str());
  return 0;
}

int main(int argc, char** argv) {
  // Bad flag values and configs the sorters reject surface as
  // std::logic_error subtypes — std::invalid_argument, std::length_error,
  // std::out_of_range (gpusim::parse_int, validate_merge_config,
  // workloads::generate, ...): report them as usage errors instead of
  // aborting.
  try {
    return run(argc, argv);
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "cfsort: %s\n", e.what());
    return 2;
  }
}
