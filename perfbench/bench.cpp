// Repository benchmark harness: one workload, one process, measured only
// through the library's public calls.
//
//   perfbench --workload=cf_sort|baseline_sort|mixed_small --seed=S
//             --seconds=T [--trace=0|1] [--setup-only] [--spans=FILE]
//
// The process sets up (input generation, certificate proofs, one cold call
// per request shape), then drives a closed loop: one caller issues the next
// engine call when the previous one returns, in rounds that visit every
// request shape once in a seeded order.  Every call is checked against an
// oracle (std::stable_sort / std::merge of its input, bit-identical reports
// for repeated inputs, zero merge-phase conflicts for CF calls) and counted
// as failed when any check misses.
//
// stdout: a {"meta": ...} line, a {"detail": ...} line, then the result
// object {"correct", "attempted", "failed", "metrics"} as the last line.
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones
// (see METRICS.md) and writes the recorded spans as Chrome trace-event JSON
// to --spans.  --setup-only stops after set-up and prints {"setup_s": x}.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cfprims/permute.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/launcher.hpp"
#include "sort/certs.hpp"
#include "sort/engine.hpp"
#include "verify/certificate.hpp"
#include "workloads/generators.hpp"
#include "worstcase/builder.hpp"
#include "worstcase/predict.hpp"

using namespace cfmerge;

namespace {

using Clock = std::chrono::steady_clock;
using Key = std::int32_t;
using Vec = std::vector<Key>;

// Taken during static initialisation: the reference point of setup_s.
const Clock::time_point g_process_start = Clock::now();

constexpr int kE = 15;
constexpr int kU = 512;
constexpr int kMultiwayU = 256;
constexpr int kMultiwayK = 4;
constexpr std::int64_t kTile = static_cast<std::int64_t>(kE) * kU;
constexpr std::int64_t kBigN = (std::int64_t{1} << 16) * kE;  // 983,040
#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of `v` (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and request id, kept in memory and written
// once at the end.  Recording is a single branch when the tracer is off.

class Tracer {
 public:
  struct Record {
    const char* name;
    int parent;
    std::uint64_t request;
    double t0_us;
    double t1_us;
    std::string args;  ///< JSON object body: counts read at this boundary
  };

  class Span {
   public:
    Span(Tracer& t, const char* name) : t_(t.on ? &t : nullptr) {
      if (t_ != nullptr) idx_ = t_->open(name);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (t_ != nullptr) t_->close(idx_);
    }
    /// Attaches a count to the span (no-op when tracing is off).
    void count(const char* key, double value) {
      if (t_ == nullptr) return;
      std::string& a = t_->records_[static_cast<std::size_t>(idx_)].args;
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", a.empty() ? "" : ", ", key, value);
      a += buf;
    }

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  bool on = false;
  std::uint64_t request = 0;  ///< id shared by every span of one request

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool saw(const std::string& name) const {
    return std::any_of(records_.begin(), records_.end(),
                       [&](const Record& r) { return name == r.name; });
  }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      char head[256];
      std::snprintf(head, sizeof head,
                    "{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, ",
                    r.name, static_cast<int>(std::string(r.name).find('.')), r.name,
                    r.t0_us, r.t1_us - r.t0_us);
      f << head << "\"args\": {\"id\": " << i << ", \"parent\": " << r.parent
        << ", \"request\": " << r.request << (r.args.empty() ? "" : ", ") << r.args
        << "}}" << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back({name, parent, request, now_us(), 0.0, {}});
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    records_[static_cast<std::size_t>(idx)].t1_us = now_us();
    stack_.pop_back();
  }
  static double now_us() {
    return std::chrono::duration<double, std::micro>(Clock::now() - g_process_start).count();
  }

  std::vector<Record> records_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Requests.

enum class Kind { MergeSort, SortByKey, Multiway, Segmented, Batched, Permute };
constexpr std::size_t kKinds = 6;
constexpr std::array<const char*, kKinds> kKindNames = {
    "merge_sort", "sort_by_key", "multiway", "segmented", "batched", "permute"};
constexpr std::array<const char*, kKinds> kKindSpans = {
    "sort.sort", "sort.sort_by_key", "sort.sort_multiway", "sort.segmented_sort",
    "sort.batched_merge", "sort.permute"};

struct Input {
  Vec keys;                 ///< merge_sort / sort_by_key keys / multiway / permute
  Vec values;               ///< sort_by_key values (0..n-1, so stability is visible)
  std::vector<Vec> lists;   ///< segments, or the batched A lists
  std::vector<Vec> lists_b; ///< batched B lists
  bool worst_case = false;
};

/// One request shape: kind, variant and sizes are fixed; the two inputs
/// differ only in data (so repeats of either must report bit-identically).
struct Shape {
  std::string name;
  Kind kind = Kind::MergeSort;
  sort::Variant variant = sort::Variant::CFMerge;
  std::array<Input, 2> inputs;
  [[nodiscard]] bool cf() const { return variant == sort::Variant::CFMerge; }
};

/// What the oracle compares between calls: the report's totals, phases,
/// per-kernel counters and simulated µs, plus the accounting-path split.
struct KernelSig {
  std::string name;
  int blocks = 0;
  gpusim::Counters counters;
  double us = 0.0;
  bool operator==(const KernelSig&) const = default;
};

struct Outcome {
  std::int64_t elements = 0;
  gpusim::Counters totals;
  gpusim::PhaseCounters phases;
  double serial_us = 0.0;
  double makespan_us = 0.0;
  int levels = 0;
  std::vector<KernelSig> kernels;
  std::uint64_t bulk = 0;
  std::uint64_t lane = 0;
  bool operator==(const Outcome&) const = default;

  [[nodiscard]] std::uint64_t merge_conflicts() const {
    std::uint64_t c = 0;
    for (const auto& [name, counters] : phases.phases())
      if (name == "merge.merge") c += counters.bank_conflicts;
    return c;
  }
};

struct Output {
  Vec flat;                 ///< sorted keys, or the forward permutation
  Vec values;
  Vec roundtrip;            ///< permute: inverse(forward(input)), truncated to n
  std::vector<Vec> lists;
};

struct Call {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  Outcome outcome;
};

Vec gen(Tracer& tr, workloads::Distribution d, std::int64_t n, std::uint64_t seed) {
  Tracer::Span s(tr, "workloads.generate");
  s.count("n", static_cast<double>(n));
  workloads::WorkloadSpec spec;
  spec.dist = d;
  spec.n = n;
  spec.seed = seed;
  return workloads::generate(spec);
}

struct SetupTimes {
  double gen_ms = 0.0;
  double worstcase_ms = 0.0;
};

/// cf_sort / baseline_sort: one shape, a uniform-random and a Section 4
/// worst-case input, so consecutive calls alternate between the two.
std::vector<Shape> big_sort_shapes(sort::Variant variant, std::uint64_t seed, Tracer& tr,
                                   SetupTimes& st) {
  Shape s;
  s.name = "merge_sort/n=983040";
  s.variant = variant;
  auto t0 = Clock::now();
  s.inputs[0].keys = gen(tr, workloads::Distribution::UniformRandom, kBigN, mix_seed(seed, 0));
  st.gen_ms += ms_between(t0, Clock::now());
  t0 = Clock::now();
  {
    Tracer::Span span(tr, "worstcase.worst_case_sort_input");
    s.inputs[1].keys = worstcase::worst_case_sort_input(worstcase::Params{32, kE}, kU, kBigN,
                                                        mix_seed(seed, 1));
  }
  s.inputs[1].worst_case = true;
  st.worstcase_ms += ms_between(t0, Clock::now());
  return {std::move(s)};
}

/// mixed_small: about a dozen small, mostly ragged shapes covering every
/// entry point.  Sizes are fixed; only the data depends on the seed.
std::vector<Shape> mixed_shapes(std::uint64_t seed, Tracer& tr, SetupTimes& st) {
  using workloads::Distribution;
  std::vector<Shape> shapes;
  std::uint64_t salt = 100;
  const auto t0 = Clock::now();
  double wc_ms = 0.0;
  auto add = [&](std::string name, Kind kind, sort::Variant variant) -> Shape& {
    Shape s;
    s.name = std::move(name);
    s.kind = kind;
    s.variant = variant;
    shapes.push_back(std::move(s));
    return shapes.back();
  };
  auto random = [&](std::int64_t n) {
    return gen(tr, Distribution::UniformRandom, n, mix_seed(seed, salt++));
  };
  // Ragged lengths are a fixed function of the shape, not of the seed.
  auto lengths = [](int count, std::int64_t max_len, std::uint64_t shape_salt) {
    std::mt19937_64 rng(shape_salt);
    std::vector<std::int64_t> out(static_cast<std::size_t>(count));
    for (auto& l : out)
      l = 1 + static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(max_len));
    return out;
  };

  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{31}, kTile - 1, kTile + 1,
                               4 * kTile, std::int64_t{130000}}) {
    Shape& s =
        add("merge_sort/n=" + std::to_string(n), Kind::MergeSort, sort::Variant::CFMerge);
    s.inputs[0].keys = random(n);
    if (n == 4 * kTile) {
      const auto w0 = Clock::now();
      Tracer::Span span(tr, "worstcase.worst_case_sort_input");
      s.inputs[1].keys = worstcase::worst_case_sort_input(worstcase::Params{32, kE}, kU, n,
                                                          mix_seed(seed, salt++));
      s.inputs[1].worst_case = true;
      wc_ms += ms_between(w0, Clock::now());
    } else {
      s.inputs[1].keys = random(n);
    }
  }
  {
    // CF-Merge is stable only for distinct keys (sort/key_value.hpp), so the
    // duplicate-key stability check runs on the stable baseline variant.
    Shape& s =
        add("sort_by_key/n=20000/few-distinct", Kind::SortByKey, sort::Variant::Baseline);
    for (Input& in : s.inputs) {
      in.keys = gen(tr, Distribution::FewDistinct, 20000, mix_seed(seed, salt++));
      in.values.resize(in.keys.size());
      for (std::size_t i = 0; i < in.values.size(); ++i) in.values[i] = static_cast<Key>(i);
    }
  }
  for (const auto& [count, max_len] : {std::pair{16, 2 * kTile}, std::pair{48, kTile}}) {
    Shape& s = add("segmented/" + std::to_string(count) + "seg", Kind::Segmented,
                   sort::Variant::CFMerge);
    const auto lens = lengths(count, max_len, static_cast<std::uint64_t>(count));
    for (Input& in : s.inputs)
      for (const std::int64_t len : lens) in.lists.push_back(random(len));
  }
  for (const auto& [pairs, max_len] : {std::pair{8, 2 * kTile}, std::pair{32, kTile}}) {
    Shape& s = add("batched/" + std::to_string(pairs) + "pairs", Kind::Batched,
                   sort::Variant::CFMerge);
    const auto lens = lengths(2 * pairs, max_len, static_cast<std::uint64_t>(1000 + pairs));
    for (Input& in : s.inputs) {
      for (int p = 0; p < pairs; ++p) {
        Vec a = random(lens[static_cast<std::size_t>(2 * p)]);
        Vec b = random(lens[static_cast<std::size_t>(2 * p + 1)]);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        in.lists.push_back(std::move(a));
        in.lists_b.push_back(std::move(b));
      }
    }
  }
  {
    Shape& s = add("multiway/k=4/n=50000", Kind::Multiway, sort::Variant::CFMerge);
    for (Input& in : s.inputs) in.keys = random(50000);
  }
  {
    Shape& s = add("permute/roundtrip/n=30000", Kind::Permute, sort::Variant::CFMerge);
    for (Input& in : s.inputs) in.keys = random(30000);
  }
  st.gen_ms += ms_between(t0, Clock::now()) - wc_ms;
  st.worstcase_ms += wc_ms;
  return shapes;
}

// ---------------------------------------------------------------------------
// Execution and the oracle.

template <typename Report>
Outcome outcome_of(const Report& r, std::int64_t elements, gpusim::Launcher& launcher,
                   Tracer& tr) {
  Outcome o;
  o.elements = elements;
  o.totals = r.totals;
  o.phases = r.phases;
  if constexpr (requires { r.serial_microseconds; }) {
    o.serial_us = r.serial_microseconds;
  } else {
    o.serial_us = r.microseconds;
  }
  o.makespan_us = r.makespan_microseconds;
  o.levels = r.graph_levels;
  for (const gpusim::KernelReport& k : r.kernels)
    o.kernels.push_back({k.name, k.shape.blocks, k.counters.total(), k.timing.microseconds});
  Tracer::Span s(tr, "gpusim.accounting");
  o.bulk = launcher.bulk_charges();
  o.lane = launcher.lane_charges();
  s.count("bulk_charges", static_cast<double>(o.bulk));
  s.count("lane_charges", static_cast<double>(o.lane));
  s.count("kernels", static_cast<double>(launcher.history().size()));
  return o;
}

sort::MergeConfig merge_cfg(sort::Variant v) {
  sort::MergeConfig c;
  c.e = kE;
  c.u = kU;
  c.variant = v;
  return c;
}

/// Runs one request: one engine call, or two for the permute round trip.
/// Each call is timed (wall and process CPU) around the engine call only.
std::vector<Call> execute(sort::SortEngine& engine, const Shape& shape, int input, Output& out,
                          Tracer& tr) {
  const Input& in = shape.inputs[static_cast<std::size_t>(input)];
  gpusim::Launcher& launcher = engine.launcher();
  const char* span = kKindSpans[static_cast<std::size_t>(shape.kind)];
  std::vector<Call> calls;
  auto timed = [&](auto&& body, std::int64_t elements) {
    Call c;
    const double c0 = cpu_ms();
    const auto t0 = Clock::now();
    {
      Tracer::Span s(tr, span);
      s.count("elements", static_cast<double>(elements));
      auto report = body();
      c.wall_ms = ms_between(t0, Clock::now());
      c.cpu_ms = cpu_ms() - c0;
      c.outcome = outcome_of(report, elements, launcher, tr);
    }
    calls.push_back(std::move(c));
  };
  const sort::MergeConfig cfg = merge_cfg(shape.variant);
  switch (shape.kind) {
    case Kind::MergeSort:
      out.flat = in.keys;
      timed([&] { return engine.sort(out.flat, cfg); },
            static_cast<std::int64_t>(in.keys.size()));
      break;
    case Kind::SortByKey:
      out.flat = in.keys;
      out.values = in.values;
      timed([&] { return engine.sort_by_key(out.flat, out.values, cfg); },
            static_cast<std::int64_t>(in.keys.size()));
      break;
    case Kind::Multiway: {
      sort::MultiwayConfig m;
      m.e = kE;
      m.u = kMultiwayU;
      m.k = kMultiwayK;
      m.variant = sort::MultiwayVariant::CFCascade;
      out.flat = in.keys;
      timed([&] { return engine.sort_multiway(out.flat, m); },
            static_cast<std::int64_t>(in.keys.size()));
      break;
    }
    case Kind::Segmented: {
      out.lists = in.lists;
      std::int64_t elements = 0;
      for (const Vec& s : in.lists) elements += static_cast<std::int64_t>(s.size());
      timed([&] { return engine.segmented_sort(out.lists, cfg); }, elements);
      break;
    }
    case Kind::Batched: {
      std::int64_t elements = 0;
      for (std::size_t p = 0; p < in.lists.size(); ++p)
        elements += static_cast<std::int64_t>(in.lists[p].size() + in.lists_b[p].size());
      timed([&] { return engine.batched_merge(in.lists, in.lists_b, out.lists, cfg); },
            elements);
      break;
    }
    case Kind::Permute: {
      cfprims::PermuteConfig p;
      p.e = kE;
      p.u = kU;
      Vec data = in.keys;
      timed([&] { return engine.permute(data, p); }, static_cast<std::int64_t>(data.size()));
      out.flat = data;
      p.inverse = true;
      timed([&] { return engine.permute(data, p); }, static_cast<std::int64_t>(data.size()));
      data.resize(in.keys.size());
      out.roundtrip = std::move(data);
      break;
    }
  }
  return calls;
}

/// What a correct call returns, built from std::stable_sort / std::merge of
/// the input on first use.
Output expected_output(const Shape& shape, const Input& in) {
  Output e;
  switch (shape.kind) {
    case Kind::MergeSort:
    case Kind::Multiway:
      e.flat = in.keys;
      std::stable_sort(e.flat.begin(), e.flat.end());
      break;
    case Kind::SortByKey: {
      std::vector<std::pair<Key, Key>> pairs(in.keys.size());
      for (std::size_t i = 0; i < pairs.size(); ++i) pairs[i] = {in.keys[i], in.values[i]};
      std::stable_sort(pairs.begin(), pairs.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [k, v] : pairs) {
        e.flat.push_back(k);
        e.values.push_back(v);
      }
      break;
    }
    case Kind::Segmented:
      e.lists = in.lists;
      for (Vec& s : e.lists) std::stable_sort(s.begin(), s.end());
      break;
    case Kind::Batched:
      for (std::size_t p = 0; p < in.lists.size(); ++p) {
        Vec m;
        std::merge(in.lists[p].begin(), in.lists[p].end(), in.lists_b[p].begin(),
                   in.lists_b[p].end(), std::back_inserter(m));
        e.lists.push_back(std::move(m));
      }
      break;
    case Kind::Permute: {
      // The forward permutation must be a permutation of the padded input.
      const std::int64_t padded = (static_cast<std::int64_t>(in.keys.size()) + kTile - 1) /
                                  kTile * kTile;
      e.flat = in.keys;
      e.flat.resize(static_cast<std::size_t>(padded), sort::padding_sentinel<Key>::value());
      std::sort(e.flat.begin(), e.flat.end());
      e.roundtrip = in.keys;
      break;
    }
  }
  return e;
}

bool output_ok(const Shape& shape, const Output& got, const Output& want) {
  switch (shape.kind) {
    case Kind::MergeSort:
    case Kind::Multiway:
      return got.flat == want.flat;
    case Kind::SortByKey:
      return got.flat == want.flat && got.values == want.values;
    case Kind::Segmented:
    case Kind::Batched:
      return got.lists == want.lists;
    case Kind::Permute: {
      Vec fwd = got.flat;
      std::sort(fwd.begin(), fwd.end());
      return fwd == want.flat && got.roundtrip == want.roundtrip;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// The run: per-call records, reference outcomes and failure accounting.

struct CallRecord {
  int shape = 0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::int64_t elements = 0;
  std::uint64_t warp_accesses = 0;  ///< shared + global warp accesses simulated
  bool traced = false;
};

class Run {
 public:
  Run(std::vector<Shape> shapes, gpusim::Launcher& launcher, Tracer& tr)
      : shapes_(std::move(shapes)), engine_(launcher), tr_(tr),
        refs_(shapes_.size()), expected_(shapes_.size()) {}

  [[nodiscard]] const std::vector<Shape>& shapes() const { return shapes_; }
  [[nodiscard]] sort::SortEngine& engine() { return engine_; }

  /// Issues one request and checks it.  Returns the calls
  /// made (empty when the request threw).  A call fails when it throws, its
  /// output differs from the oracle, its outcome differs from the first
  /// call on the same input, or it is a CF call with a merge-phase conflict.
  std::vector<Call> issue(int shape, int input, bool defer_check) {
    const Shape& s = shapes_[static_cast<std::size_t>(shape)];
    const int expected_calls = s.kind == Kind::Permute ? 2 : 1;
    Output out;
    std::vector<Call> calls;
    attempted_ += expected_calls;
    try {
      calls = execute(engine_, s, input, out, tr_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s threw: %s\n", s.name.c_str(), e.what());
      failed_ += expected_calls;
      return {};
    }
    auto& ref = refs_[static_cast<std::size_t>(shape)][static_cast<std::size_t>(input)];
    bool ok = true;
    if (ref.empty()) {
      for (const Call& c : calls) ref.push_back(c.outcome);
    } else {
      for (std::size_t i = 0; i < calls.size(); ++i) ok = ok && calls[i].outcome == ref[i];
    }
    if (s.cf()) {
      for (const Call& c : calls) {
        ok = ok && c.outcome.merge_conflicts() == 0;
        if (s.kind == Kind::Permute) ok = ok && c.outcome.totals.bank_conflicts == 0;
      }
    }
    if (defer_check) {
      deferred_.push_back({shape, input, std::move(out), ok});
    } else {
      ok = ok && check(shape, input, out);
      if (!ok) fail(s, expected_calls);
    }
    return calls;
  }

  /// Checks outputs whose oracle comparison was deferred out of set-up.
  void check_deferred() {
    for (Deferred& d : deferred_) {
      const Shape& s = shapes_[static_cast<std::size_t>(d.shape)];
      if (!(d.ok && check(d.shape, d.input, d.out))) fail(s, s.kind == Kind::Permute ? 2 : 1);
    }
    deferred_.clear();
  }

  /// First outcome of every (shape, input) seen: the deterministic set the
  /// simulated metrics are computed over.
  [[nodiscard]] std::vector<std::pair<int, const Outcome*>> references() const {
    std::vector<std::pair<int, const Outcome*>> out;
    for (std::size_t s = 0; s < refs_.size(); ++s)
      for (std::size_t i = 0; i < refs_[s].size(); ++i)
        for (const Outcome& o : refs_[s][i])
          out.emplace_back(static_cast<int>(s) * 2 + static_cast<int>(i), &o);
    return out;
  }

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }

 private:
  struct Deferred {
    int shape;
    int input;
    Output out;
    bool ok;
  };

  bool check(int shape, int input, const Output& out) {
    const Shape& s = shapes_[static_cast<std::size_t>(shape)];
    auto& want = expected_[static_cast<std::size_t>(shape)][static_cast<std::size_t>(input)];
    if (!want) want = expected_output(s, s.inputs[static_cast<std::size_t>(input)]);
    return output_ok(s, out, *want);
  }
  void fail(const Shape& s, int calls) {
    std::fprintf(stderr, "perfbench: %s failed its correctness check\n", s.name.c_str());
    failed_ += calls;
  }

  std::vector<Shape> shapes_;
  sort::SortEngine engine_;
  Tracer& tr_;
  std::vector<std::array<std::vector<Outcome>, 2>> refs_;
  std::vector<std::array<std::optional<Output>, 2>> expected_;
  std::vector<Deferred> deferred_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// The seeded visiting order of round `r`: every shape once.
std::vector<int> round_order(std::size_t shapes, std::uint64_t seed, std::int64_t r) {
  std::vector<int> order(shapes);
  for (std::size_t i = 0; i < shapes; ++i) order[i] = static_cast<int>(i);
  std::mt19937_64 rng(mix_seed(seed, 1'000'000 + static_cast<std::uint64_t>(r)));
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Host-speed calibration: a fixed CPU task that does not touch the library
/// (sorting copies of slices of a constant pseudo-random array).  `threads`
/// workers take its chunks from a shared counter, the way the launcher's
/// workers take blocks, so its wall time responds to lost CPU time the way
/// the workloads do.  On a shared host the machine's speed drifts by tens of
/// percent over minutes; the host metrics are scaled by this task's time over
/// kCalibrationNominalMs (wall metrics by its wall time, CPU metrics by its
/// CPU time per worker), so a change in the library moves them and a change
/// in the machine's speed does not.  Raw values go to the detail line.
constexpr double kCalibrationNominalMs = 4.5;
constexpr double kCalibrationShare = 0.1;  ///< of each round's time
constexpr int kCalibrationChunks = 16;     ///< per worker
constexpr std::size_t kCalibrationSlice = 4096;
constexpr std::size_t kCalibrationSlices = 8;

struct Calibration {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< process CPU time per worker
};

Calibration calibrate(int threads) {
  static const Vec base = [] {
    Vec v(kCalibrationSlice * kCalibrationSlices);
    std::mt19937 rng(12345);
    for (Key& x : v) x = static_cast<Key>(rng());
    return v;
  }();
  const int chunks = kCalibrationChunks * threads;
  std::atomic<int> next{0};
  std::vector<Key> sums(static_cast<std::size_t>(threads), 0);
  auto worker = [&](std::size_t t) {
    Vec work(kCalibrationSlice);
    for (int c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      const auto from = base.begin() + static_cast<std::ptrdiff_t>(
                                            static_cast<std::size_t>(c) % kCalibrationSlices *
                                            kCalibrationSlice);
      std::copy(from, from + static_cast<std::ptrdiff_t>(kCalibrationSlice), work.begin());
      std::sort(work.begin(), work.end());
      sums[t] += work[static_cast<std::size_t>(c) % kCalibrationSlice];
    }
  };
  const double c0 = cpu_ms();
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, static_cast<std::size_t>(t));
  worker(0);
  for (std::thread& t : pool) t.join();
  const Calibration out{ms_between(t0, Clock::now()), (cpu_ms() - c0) / threads};
  static volatile Key sink = 0;  // keeps the sorts from being optimized away
  for (const Key v : sums) sink = sink + v;
  return out;
}

/// Speed factors from calibration samples: > 1 when the host runs slower
/// than nominal.
struct Speed {
  double wall = 1.0;
  double cpu = 1.0;
};

Speed speed_of(const std::vector<Calibration>& samples) {
  std::vector<double> wall, cpu;
  for (const Calibration& c : samples) {
    wall.push_back(c.wall_ms);
    cpu.push_back(c.cpu_ms);
  }
  return {median(wall) / kCalibrationNominalMs, median(cpu) / kCalibrationNominalMs};
}

// ---------------------------------------------------------------------------
// Output helpers.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans = "perfbench-spans.json";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> std::optional<std::string> {
      const std::string f = std::string(flag) + "=";
      if (a.rfind(f, 0) == 0) return a.substr(f.size());
      return std::nullopt;
    };
    if (auto v = value("--workload")) o.workload = *v;
    else if (auto v2 = value("--seed")) o.seed = std::stoull(*v2);
    else if (auto v3 = value("--seconds")) o.seconds = std::stod(*v3);
    else if (auto v4 = value("--trace")) o.trace = *v4 == "1";
    else if (auto v5 = value("--spans")) o.spans = *v5;
    else if (a == "--setup-only") o.setup_only = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload != "cf_sort" && o.workload != "baseline_sort" && o.workload != "mixed_small")
    throw std::invalid_argument("--workload must be cf_sort, baseline_sort or mixed_small");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

int run(const Options& opt) {
  const bool big = opt.workload != "mixed_small";
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int threads = big ? 1 : nproc;
  Tracer tr;
  tr.on = opt.trace;

  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::scaled_turing(4);

  // --- Set-up: inputs, certificate proofs, one cold call per shape.
  SetupTimes st;
  std::vector<Shape> shapes =
      !big ? mixed_shapes(opt.seed, tr, st)
           : big_sort_shapes(opt.workload == "cf_sort" ? sort::Variant::CFMerge
                                                       : sort::Variant::Baseline,
                             opt.seed, tr, st);
  std::string shape_list;
  for (const Shape& s : shapes)
    shape_list += (shape_list.empty() ? "\"" : ", \"") + s.name + "\"";
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"compiler\": \"%s\", \"optimized\": true, \"nproc\": %d, \"threads\": %d, "
      "\"device\": \"%s\", \"key\": \"int32\", \"E\": %d, \"u\": %d, \"multiway_k\": %d, "
      "\"multiway_u\": %d, \"shapes\": [%s], \"timing_model\": \"unvalidated\"}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, kCompiler, nproc, threads, dev.name.c_str(), kE, kU, kMultiwayK,
      kMultiwayU, shape_list.c_str());
  double certs_ms = 0.0;
  {
    Tracer::Span s(tr, "verify.resolve_tile_certs");
    const auto t0 = Clock::now();
    const sort::TileCerts certs = sort::resolve_tile_certs(dev.warp_size, kE);
    certs_ms = ms_between(t0, Clock::now());
    if (!certs.any()) throw std::runtime_error("no tile certificates for (32, 15)");
  }
  gpusim::Launcher launcher(dev);
  {
    Tracer::Span s(tr, "gpusim.set_threads");
    launcher.set_threads(threads);
  }
  Run bench(std::move(shapes), launcher, tr);
  const std::size_t nshapes = bench.shapes().size();
  std::vector<double> cold_ms(nshapes, 0.0);
  for (std::size_t s = 0; s < nshapes; ++s) {
    tr.request = s + 1;
    for (const Call& c : bench.issue(static_cast<int>(s), 0, true))
      cold_ms[s] += c.wall_ms;
  }
  const double raw_setup_s = ms_between(g_process_start, Clock::now()) / 1e3;
  std::vector<Calibration> setup_calib;
  for (int i = 0; i < 9; ++i) setup_calib.push_back(calibrate(threads));
  const double setup_s = raw_setup_s / speed_of(setup_calib).wall;
  if (opt.setup_only) {
    std::printf("{\"setup_s\": %.17g, \"raw_setup_s\": %.17g}\n", setup_s, raw_setup_s);
    return 0;
  }

  // --- The closed loop: whole rounds until the time budget is spent.
  // Round r uses input r % 2 of every shape.  In a traced run each shape
  // alternates in pairs of rounds (so on both inputs) between recording
  // spans and not, with neighbouring shapes out of phase, so the two halves
  // interleave finely and their difference is the tracing overhead.
  const double loop_s = opt.trace ? 0.5 * opt.seconds : opt.seconds;
  std::vector<CallRecord> records;
  std::uint64_t request = nshapes;
  const auto loop_start = Clock::now();
  std::int64_t rounds = 0;
  std::vector<Calibration> calib;
  for (std::int64_t r = 1; rounds == 0 || ms_between(loop_start, Clock::now()) < loop_s * 1e3;
       ++r, ++rounds) {
    const auto round_start = Clock::now();
    for (const int s : round_order(nshapes, opt.seed, r)) {
      const bool traced = opt.trace && ((r - 1) / 2 + s) % 2 == 1;
      tr.on = traced;
      tr.request = ++request;
      for (const Call& c : bench.issue(s, static_cast<int>(r % 2), false))
        records.push_back({s, c.wall_ms, c.cpu_ms, c.outcome.elements,
                           c.outcome.totals.shared_accesses + c.outcome.totals.gmem_requests,
                           traced});
    }
    // Calibrate for a tenth of the round's time, so the samples spread
    // evenly over the run and their median is a steady speed estimate.
    const double round_ms = ms_between(round_start, Clock::now());
    double spent = 0.0;
    do {
      calib.push_back(calibrate(threads));
      spent += calib.back().wall_ms;
    } while (spent < kCalibrationShare * round_ms);
  }
  tr.on = opt.trace;
  bench.check_deferred();

  auto elem_per_s = [&](auto pick) {
    double elems = 0.0, ms = 0.0;
    for (const CallRecord& c : records)
      if (pick(c)) {
        elems += static_cast<double>(c.elements);
        ms += c.wall_ms;
      }
    return ms > 0.0 ? elems / (ms / 1e3) : 0.0;
  };
  std::vector<double> walls;
  double cpu_total = 0.0, elems_total = 0.0;
  for (const CallRecord& c : records) {
    walls.push_back(c.wall_ms);
    cpu_total += c.cpu_ms;
    elems_total += static_cast<double>(c.elements);
  }

  // Deterministic simulated figures over the first outcome of every input.
  const auto refs = bench.references();
  double ref_elems = 0.0, ref_us = 0.0, ref_makespan = 0.0, ref_conflicts = 0.0;
  for (const auto& [key, o] : refs) {
    ref_elems += static_cast<double>(o->elements);
    ref_us += o->serial_us;
    ref_makespan += o->makespan_us;
    ref_conflicts += static_cast<double>(o->merge_conflicts());
  }
  const Speed speed = speed_of(calib);
  const double raw_elem_per_s = elem_per_s([](const CallRecord&) { return true; });
  const double raw_cpu_per_melem = elems_total > 0 ? cpu_total / (elems_total / 1e6) : 0.0;
  const double error_rate = static_cast<double>(bench.failed()) /
                            static_cast<double>(std::max<std::int64_t>(1, bench.attempted()));
  const bool p90_valid = walls.size() >= 100;
  const auto beyond_p90 = static_cast<std::size_t>(0.1 * static_cast<double>(walls.size()));
  std::printf(
      "{\"detail\": {\"seed\": %llu, \"rounds\": %lld, \"timed_calls\": %zu, "
      "\"call_ms_p90\": %s, \"call_ms_p90_samples_beyond\": %zu, \"error_rate\": %.17g, "
      "\"merge_conflicts_per_elem\": %.17g, \"calibration_wall_factor\": %.17g, "
      "\"calibration_cpu_factor\": %.17g, "
      "\"raw_host_elem_per_s\": %.17g, \"raw_call_ms_p50\": %.17g, "
      "\"raw_host_cpu_ms_per_melem\": %.17g, \"raw_setup_s\": %.17g}}\n",
      static_cast<unsigned long long>(opt.seed), static_cast<long long>(rounds), walls.size(),
      p90_valid ? std::to_string(percentile(walls, 0.9)).c_str() : "null",
      beyond_p90, error_rate, ref_elems > 0 ? ref_conflicts / ref_elems : 0.0, speed.wall,
      speed.cpu, raw_elem_per_s, median(walls), raw_cpu_per_melem, raw_setup_s);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"host_elem_per_s", raw_elem_per_s * speed.wall, "elem/s"},
        {"call_ms_p50", median(walls) / speed.wall, "ms"},
        {"host_cpu_ms_per_melem", raw_cpu_per_melem / speed.cpu, "ms/Melem"},
        {"sim_elem_per_us", ref_us > 0 ? ref_elems / ref_us : 0.0, "elem/sim_us"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    print_result(bench.failed() == 0, bench.attempted(), bench.failed(), metrics);
    return 0;
  }

  // --- Traced run only: thread scaling, then the kinds this workload does
  // not issue (on a separate engine), then the per-layer metrics.
  std::vector<double> walls_at[2];  // [0] = threads 1, [1] = threads nproc
  const auto scale_start = Clock::now();
  for (std::int64_t r = 1; walls_at[0].empty() ||
                           ms_between(scale_start, Clock::now()) < 0.3 * opt.seconds * 1e3;
       ++r) {
    for (const int s : round_order(nshapes, opt.seed, -r)) {
      tr.request = ++request;
      for (const int i : {0, 1}) {
        {
          Tracer::Span span(tr, "gpusim.set_threads");
          launcher.set_threads(i == 0 ? 1 : nproc);
        }
        for (const Call& c : bench.issue(s, static_cast<int>(r % 2), false))
          walls_at[i].push_back(c.wall_ms);
      }
    }
  }
  launcher.set_threads(threads);

  std::array<std::vector<double>, kKinds> kind_walls;
  std::array<double, kKinds> kind_cold{};
  std::array<bool, kKinds> present{};
  for (std::size_t s = 0; s < nshapes; ++s) {
    const auto k = static_cast<std::size_t>(bench.shapes()[s].kind);
    present[k] = true;
    kind_cold[k] += cold_ms[s];
  }
  std::map<int, std::vector<double>> shape_walls;
  for (const CallRecord& c : records) {
    const Kind kind = bench.shapes()[static_cast<std::size_t>(c.shape)].kind;
    kind_walls[static_cast<std::size_t>(kind)].push_back(c.wall_ms);
    shape_walls[c.shape].push_back(c.wall_ms);
  }
  double plan_build_ms = 0.0;
  for (const auto& [s, w] : shape_walls)
    plan_build_ms += cold_ms[static_cast<std::size_t>(s)] - median(w);

  std::int64_t sweep_attempted = 0, sweep_failed = 0;
  {
    // Kinds absent from this workload: the mixed_small request of that
    // kind, one cold and four warm calls, so every traced run reports all.
    SetupTimes unused;
    Tracer quiet;
    Run sweep(mixed_shapes(opt.seed, quiet, unused), launcher, tr);
    for (std::size_t s = 0; s < sweep.shapes().size(); ++s) {
      const auto k = static_cast<std::size_t>(sweep.shapes()[s].kind);
      if (present[k]) continue;
      for (int rep = 0; rep < 5; ++rep) {
        tr.request = ++request;
        for (const Call& c : sweep.issue(static_cast<int>(s), rep % 2, false)) {
          if (rep == 0) {
            kind_cold[k] += c.wall_ms;
          } else {
            kind_walls[k].push_back(c.wall_ms);
          }
        }
      }
    }
    sweep_attempted = sweep.attempted();
    sweep_failed = sweep.failed();
  }

  sort::EngineStats es;
  {
    Tracer::Span s(tr, "sort.stats");
    es = bench.engine().stats();
  }
  verify::CertificateStats cs;
  {
    Tracer::Span s(tr, "verify.certificate_stats");
    cs = verify::certificate_stats();
  }

  double kernels = 0.0, blocks = 0.0, levels = 0.0, bulk = 0.0, lane = 0.0;
  double wc_conflicts = 0.0, wc_warp_merges = 0.0;
  gpusim::PhaseCounters phases;
  std::map<std::string, double> kernel_us;
  for (const auto& [key, o] : refs) {
    kernels += static_cast<double>(o->kernels.size());
    levels += o->levels;
    bulk += static_cast<double>(o->bulk);
    lane += static_cast<double>(o->lane);
    phases.merge(o->phases);
    for (const KernelSig& k : o->kernels) {
      blocks += k.blocks;
      kernel_us[k.name] += k.us;
    }
    const Shape& s = bench.shapes()[static_cast<std::size_t>(key / 2)];
    if (s.inputs[static_cast<std::size_t>(key % 2)].worst_case) {
      wc_conflicts += static_cast<double>(o->merge_conflicts());
      for (const KernelSig& k : o->kernels)
        if (k.name == "merge_pass")
          wc_warp_merges += static_cast<double>(k.blocks) * (kU / dev.warp_size);
    }
  }
  const double nrefs = std::max<double>(1.0, static_cast<double>(refs.size()));
  const double predicted =
      static_cast<double>(worstcase::predicted_warp_conflicts(worstcase::Params{32, kE}));
  double accesses = 0.0, loop_ms = 0.0;
  for (const CallRecord& c : records) {
    accesses += static_cast<double>(c.warp_accesses);
    loop_ms += c.wall_ms;
  }
  const double untraced = elem_per_s([](const CallRecord& c) { return !c.traced; });
  const double traced = elem_per_s([](const CallRecord& c) { return c.traced; });

  metrics = {
      {"workloads.gen_ms", st.gen_ms, "ms"},
      {"worstcase.build_ms", st.worstcase_ms, "ms"},
      {"verify.certs_ms", certs_ms, "ms"},
      {"verify.cert_hits", static_cast<double>(cs.hits), "count"},
      {"verify.cert_misses", static_cast<double>(cs.misses), "count"},
  };
  for (std::size_t k = 0; k < kKinds; ++k)
    metrics.push_back({std::string("sort.cold_call_ms.") + kKindNames[k], kind_cold[k], "ms"});
  for (std::size_t k = 0; k < kKinds; ++k)
    metrics.push_back(
        {std::string("sort.call_ms_p50.") + kKindNames[k], median(kind_walls[k]), "ms"});
  const double lookups = static_cast<double>(es.plan_hits + es.plan_misses);
  std::vector<Metric> rest = {
      {"sort.plan_build_ms", plan_build_ms, "ms"},
      {"sort.plan_hit_rate", es.hit_rate(), "ratio"},
      {"sort.plan_lookups", lookups, "count"},
      {"sort.plan_evictions", static_cast<double>(es.plan_evictions), "count"},
      {"sort.plan_bytes", static_cast<double>(es.plan_bytes), "bytes"},
      {"gpusim.kernels_per_call", kernels / nrefs, "count"},
      {"gpusim.blocks_per_call", blocks / nrefs, "count"},
      {"gpusim.graph_levels", levels / nrefs, "count"},
      {"gpusim.thread_scaling", median(walls_at[0]) / median(walls_at[1]), "x"},
      {"gpusim.overlap_speedup", ref_makespan > 0 ? ref_us / ref_makespan : 1.0, "x"},
      {"gpusim.bulk_charges", bulk, "count"},
      {"gpusim.lane_charges", lane, "count"},
      {"gpusim.bulk_rate", bulk + lane > 0 ? bulk / (bulk + lane) : 0.0, "ratio"},
      {"gpusim.charges", bulk + lane, "count"},
      {"gpusim.host_ns_per_warp_access", accesses > 0 ? loop_ms * 1e6 / accesses : 0.0, "ns"},
      {"trace.overhead_pct", untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0.0, "%"},
      {"worstcase.thm8_ratio",
       wc_warp_merges > 0 ? wc_conflicts / wc_warp_merges / predicted : 0.0, "ratio"},
      {"error_rate", error_rate, "ratio"},
      {"merge_conflicts_per_elem", ref_elems > 0 ? ref_conflicts / ref_elems : 0.0,
       "count/elem"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  for (const char* ph : {"bsort.load", "bsort.thread_sort", "bsort.search", "bsort.merge",
                         "bsort.store", "partition.search", "merge.load", "merge.search",
                         "merge.merge", "merge.store"}) {
    const gpusim::Counters c = phases.phase(ph);
    const std::string p = std::string("phase.") + ph;
    for (const auto& [field, value] :
         {std::pair{".shared_accesses", c.shared_accesses},
          std::pair{".bank_conflicts", c.bank_conflicts},
          std::pair{".gmem_transactions", c.gmem_transactions},
          std::pair{".warp_instructions", c.warp_instructions}})
      metrics.push_back({p + field, static_cast<double>(value), "count"});
  }
  for (const char* k : {"block_sort", "merge_partition", "merge_pass", "multiway_partition",
                        "multiway_merge", "batched_partition", "batched_merge", "cf_permute"})
    metrics.push_back({std::string("kernel.") + k + ".sim_us", kernel_us[k], "sim_us"});

  // Every layer boundary the benchmark crosses must have left a span.
  bool spans_ok = true;
  for (const char* name :
       {"workloads.generate", "verify.resolve_tile_certs", "verify.certificate_stats",
        "sort.sort", "sort.sort_by_key", "sort.sort_multiway", "sort.segmented_sort",
        "sort.batched_merge", "sort.permute", "sort.stats", "gpusim.set_threads",
        "gpusim.accounting"})
    if (!tr.saw(name)) {
      std::fprintf(stderr, "perfbench: no span recorded for %s\n", name);
      spans_ok = false;
    }
  if (!tr.saw("worstcase.worst_case_sort_input")) spans_ok = false;
  if (!tr.write(opt.spans)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opt.spans.c_str());
    return 1;
  }
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", tr.size(), opt.spans.c_str());
  const std::int64_t failed = bench.failed() + sweep_failed;
  print_result(failed == 0 && spans_ok, bench.attempted() + sweep_attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: built without optimization; the run is invalid and reports "
               "nothing (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
