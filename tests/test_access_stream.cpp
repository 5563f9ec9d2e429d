// Golden access-stream pins: an FNV-1a digest of every event a traced run
// records (block, warp, kind, phase, cost and the lane addresses), plus a
// digest of the report's counters and simulated time, for fixed-seed runs of
// every kernel family — CF and baseline merge_sort, the CF block-sort
// rounds, a non-coprime CF layout and its two merge-window ablations (no
// rho; plain stride-E output scatter), the k=4 CF cascade and loser tree, a
// ragged sort_by_key, batched_merge, and cf_permute / cf_transpose round
// trips — on a 32-lane and an 8-lane device.
//
// Any rewrite of a kernel's host-side mechanics (how a search, merge or
// staging copy is computed) must leave these digests unchanged: the
// simulated device issues the same accesses in the same order, so counters,
// chains, trace and audit streams are bit-identical.  A full-audit
// ShadowChecker run of each case must be clean, observe the pinned number of
// accesses and words, and report the same counters as the traced run.  A
// certified-skip audit run must be clean too, elide the pinned number of
// warp accesses, and report the full-audit run's counters and chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "gpusim/launcher.hpp"
#include "gpusim/trace.hpp"
#include "numtheory/hash.hpp"
#include "sort/engine.hpp"
#include "verify/shadow.hpp"

using namespace cfmerge;

namespace {

/// Deterministic keys with plenty of duplicates (ties exercise the
/// A-before-B rule of every search and merge).
std::vector<std::int32_t> keys_for(std::int64_t n, std::uint64_t seed) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  for (auto& x : v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<std::int32_t>((s >> 33) % 997);
  }
  return v;
}

std::uint64_t trace_digest(const gpusim::TraceSink& sink) {
  std::uint64_t h = numtheory::kFnvOffset;
  for (const gpusim::TraceEvent& ev : sink.events()) {
    h = numtheory::fnv1a(h, static_cast<std::int64_t>(ev.block));
    h = numtheory::fnv1a(h, static_cast<std::int64_t>(ev.warp));
    h = numtheory::fnv1a(h, static_cast<std::uint64_t>(ev.kind));
    for (const char c : sink.phase_names()[static_cast<std::size_t>(ev.phase_id)])
      h = numtheory::fnv1a_byte(h, static_cast<std::uint8_t>(c));
    h = numtheory::fnv1a(h, static_cast<std::int64_t>(ev.cost));
    for (const std::int64_t a : sink.addresses(ev)) h = numtheory::fnv1a(h, a);
  }
  return h;
}

template <typename Report>
std::uint64_t report_digest(const Report& r) {
  const gpusim::Counters& c = r.totals;
  std::uint64_t h = numtheory::kFnvOffset;
  for (const std::uint64_t v :
       {c.warp_instructions, c.shared_accesses, c.shared_cycles, c.bank_conflicts,
        c.gmem_requests, c.gmem_transactions, c.gmem_bytes, c.barriers})
    h = numtheory::fnv1a(h, v);
  h = numtheory::fnv1a(h, r.microseconds);
  for (const gpusim::KernelReport& k : r.kernels) {
    h = numtheory::fnv1a(h, k.mean_block_chain);
    h = numtheory::fnv1a(h, k.max_block_chain);
  }
  return h;
}

/// What a run leaves behind: its counters and the digest of its report(s).
struct Outcome {
  gpusim::Counters totals;
  std::uint64_t digest = 0;

  template <typename Report>
  static Outcome of(const Report& r) {
    return {r.totals, report_digest(r)};
  }
  /// Chains a second report of the same run (round trips).
  Outcome& operator+=(const Outcome& o) {
    totals += o.totals;
    digest = numtheory::fnv1a(digest, o.digest);
    return *this;
  }
};

/// Runs one entry point on `launcher`, checks its output, and returns the
/// outcome.
using Runner = std::function<Outcome(gpusim::Launcher&)>;

sort::MergeConfig merge_config(sort::Variant variant, int e, int u) {
  sort::MergeConfig cfg;
  cfg.e = e;
  cfg.u = u;
  cfg.variant = variant;
  return cfg;
}

Outcome run_merge_sort(gpusim::Launcher& launcher, const sort::MergeConfig& cfg,
                       std::int64_t n, std::uint64_t seed) {
  auto data = keys_for(n, seed);
  auto expect = data;
  std::stable_sort(expect.begin(), expect.end());
  const sort::SortReport r = sort::merge_sort(launcher, data, cfg);
  EXPECT_EQ(data, expect);
  return Outcome::of(r);
}

Outcome run_merge_sort(gpusim::Launcher& launcher, sort::Variant variant, int e, int u,
                       std::int64_t n, std::uint64_t seed) {
  return run_merge_sort(launcher, merge_config(variant, e, u), n, seed);
}

Outcome run_multiway(gpusim::Launcher& launcher, int e, int u, std::int64_t n,
                     std::uint64_t seed,
                     sort::MultiwayVariant variant = sort::MultiwayVariant::CFCascade) {
  sort::MultiwayConfig cfg;
  cfg.e = e;
  cfg.u = u;
  cfg.k = 4;
  cfg.variant = variant;
  auto data = keys_for(n, seed);
  auto expect = data;
  std::stable_sort(expect.begin(), expect.end());
  const sort::SortReport r = sort::merge_sort_multiway(launcher, data, cfg);
  EXPECT_EQ(data, expect);
  return Outcome::of(r);
}

/// Values carry the original index, so every output pair must point back at
/// an input key equal to its own.  CF is stable only for distinct keys, so
/// the pairs' order among equal keys is pinned by the digest, not checked.
Outcome run_by_key(gpusim::Launcher& launcher, sort::Variant variant, int e, int u,
                   std::int64_t n, std::uint64_t seed) {
  const auto input = keys_for(n, seed);
  auto keys = input;
  std::vector<std::int32_t> values(keys.size());
  std::iota(values.begin(), values.end(), 0);
  const sort::SortReport r =
      sort::merge_sort_by_key(launcher, keys, values, merge_config(variant, e, u));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  auto seen = values;
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], static_cast<std::int32_t>(i));
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(input[static_cast<std::size_t>(values[i])], keys[i]) << "i=" << i;
  return Outcome::of(r);
}

/// Merges `pairs` sorted list pairs of ragged (and some empty) lengths.
Outcome run_batched(gpusim::Launcher& launcher, sort::Variant variant, int e, int u,
                    int pairs, std::uint64_t seed) {
  std::vector<std::vector<std::int32_t>> as;
  std::vector<std::vector<std::int32_t>> bs;
  for (int p = 0; p < pairs; ++p) {
    const std::uint64_t s = seed + 2 * static_cast<std::uint64_t>(p);
    auto a = keys_for(p == 1 ? 0 : 37 * p + 5 * u, s);
    auto b = keys_for(p == 2 ? 0 : 3 * u * e - 11 * p, s + 1);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    as.push_back(std::move(a));
    bs.push_back(std::move(b));
  }
  std::vector<std::vector<std::int32_t>> outs;
  const sort::BatchedMergeReport r =
      sort::batched_merge(launcher, as, bs, outs, merge_config(variant, e, u));
  for (std::size_t p = 0; p < as.size(); ++p) {
    std::vector<std::int32_t> expect;
    std::merge(as[p].begin(), as[p].end(), bs[p].begin(), bs[p].end(),
               std::back_inserter(expect));
    EXPECT_EQ(outs[p], expect) << "pair " << p;
  }
  return Outcome::of(r);
}

/// Forward then inverse permute (or transpose) of one ragged array: the
/// round trip must restore the input.
Outcome run_round_trip(gpusim::Launcher& launcher, cfprims::PermuteOp op, int e, int u,
                       std::int64_t n, std::uint64_t seed) {
  sort::SortEngine engine(launcher);
  cfprims::PermuteConfig cfg;
  cfg.op = op;
  cfg.e = e;
  cfg.u = u;
  const auto input = keys_for(n, seed);
  auto data = input;
  Outcome out = Outcome::of(engine.permute(data, cfg));
  cfg.inverse = true;
  out += Outcome::of(engine.permute(data, cfg));
  data.resize(input.size());
  EXPECT_EQ(data, input);
  return out;
}

struct StreamCase {
  const char* name;
  gpusim::DeviceSpec dev;
  Runner run;
  // Pinned digests and counts (see the header comment).
  std::uint64_t trace;
  std::uint64_t report;
  std::uint64_t events;
  std::uint64_t audit_accesses;
  std::uint64_t audit_words;
  std::uint64_t audit_skipped;  ///< warp accesses certified-skip audit elides
};

std::vector<StreamCase> cases() {
  const gpusim::DeviceSpec w32 = gpusim::DeviceSpec::scaled_turing(4);
  const gpusim::DeviceSpec w8 = gpusim::DeviceSpec::tiny(8);
  using sort::Variant;
  using L = gpusim::Launcher;
  return {
      {"cf_w32", w32,
       [](L& l) { return run_merge_sort(l, Variant::CFMerge, 7, 64, 4 * 448, 1); },
       0xc7f2d1e7f92589abull, 0x156c3ebf1a8afd41ull, 3368, 3016, 5376, 672},
      {"baseline_w32", w32,
       [](L& l) { return run_merge_sort(l, Variant::Baseline, 7, 64, 4 * 448, 2); },
       0xb50e24ff36dffca8ull, 0x32fa95b3e71aa1eaull, 3384, 3048, 5376, 560},
      {"multiway_k4_w32", w32, [](L& l) { return run_multiway(l, 7, 64, 16 * 448, 3); },
       0x20b8cc9f256888ccull, 0x223c29cb73b38e07ull, 18996, 17589, 64512, 4256},
      {"by_key_ragged_w32", w32,
       [](L& l) { return run_by_key(l, Variant::CFMerge, 7, 64, 3 * 448 + 101, 4); },
       0x7c5ab5f861c86014ull, 0x9a31ddd340babc08ull, 2910, 2612, 5376, 602},
      {"cf_w8", w8,
       [](L& l) { return run_merge_sort(l, Variant::CFMerge, 5, 16, 8 * 80, 5); },
       0x2104e508be5804efull, 0x5e636a72fd30f774ull, 4863, 4168, 2560, 960},
      {"baseline_w8", w8,
       [](L& l) { return run_merge_sort(l, Variant::Baseline, 5, 16, 8 * 80, 6); },
       0xed6122679ba0b834ull, 0x0ed1042726e95876ull, 4940, 4292, 2560, 720},
      {"multiway_k4_w8", w8, [](L& l) { return run_multiway(l, 5, 16, 16 * 80, 7); },
       0x770ca804df92b402ull, 0x37d76daf464afe44ull, 12021, 10737, 11520, 2705},
      {"by_key_ragged_w8", w8,
       [](L& l) { return run_by_key(l, Variant::Baseline, 5, 16, 5 * 80 + 37, 8); },
       0xf133208707d76d29ull, 0xf171ab29990beffaull, 3342, 2891, 1920, 505},
      {"cf_blocksort_w8", w8,
       [](L& l) {
         sort::MergeConfig cfg = merge_config(Variant::CFMerge, 5, 16);
         cfg.cf_blocksort = true;
         return run_merge_sort(l, cfg, 8 * 80 + 13, 9);
       },
       0xcbf1b6ff2b8eca25ull, 0xaf6d07d1f865339full, 6041, 5078, 4320, 1380},
      {"cf_noncoprime_w8", w8,
       [](L& l) { return run_merge_sort(l, Variant::CFMerge, 6, 16, 8 * 96 + 5, 10); },
       0xe299171af49d8590ull, 0xabde3a3058cd0779ull, 6356, 5276, 4320, 864},
      {"cf_no_rho_w8", w8,
       [](L& l) {
         sort::MergeConfig cfg = merge_config(Variant::CFMerge, 6, 16);
         cfg.disable_rho = true;
         return run_merge_sort(l, cfg, 8 * 96 + 5, 18);
       },
       0x8008016644cc9323ull, 0xc49a93c6a1c3bb4bull, 6349, 5272, 4320, 0},
      {"cf_plain_scatter_w8", w8,
       [](L& l) {
         sort::MergeConfig cfg = merge_config(Variant::CFMerge, 6, 16);
         cfg.cf_output_scatter = false;
         return run_merge_sort(l, cfg, 8 * 96 + 5, 19);
       },
       0x7ec4bd1b20ffee44ull, 0x29fcafe5de1e9bb7ull, 6384, 5305, 4320, 432},
      {"losertree_k4_w8", w8,
       [](L& l) {
         return run_multiway(l, 5, 16, 16 * 80, 11, sort::MultiwayVariant::LoserTree);
       },
       0x450c31c6b8b2cd28ull, 0x5897068dc93d57f0ull, 9640, 8432, 3840, 960},
      {"batched_cf_w32", w32,
       [](L& l) { return run_batched(l, Variant::CFMerge, 7, 64, 4, 12); },
       0x793455e029dabafeull, 0xa9bbd6b03a7e9401ull, 1528, 1154, 5376, 336},
      {"batched_baseline_w8", w8,
       [](L& l) { return run_batched(l, Variant::Baseline, 5, 16, 3, 13); },
       0x09dc3d3d72f0002cull, 0xcb963ccb8aa8074dull, 759, 572, 720, 90},
      {"permute_w32", w32,
       [](L& l) {
         return run_round_trip(l, cfprims::PermuteOp::kPermute, 8, 64, 3 * 512 + 45, 14);
       },
       0xcab892c101181145ull, 0x50564f0751c4b6f7ull, 1024, 768, 8192, 512},
      {"transpose_w32", w32,
       [](L& l) {
         return run_round_trip(l, cfprims::PermuteOp::kTranspose, 8, 64, 2 * 512 + 7, 15);
       },
       0x1afbbf225920c6d5ull, 0xd17fddcadc0c2687ull, 768, 576, 6144, 384},
      {"permute_w8", w8,
       [](L& l) {
         return run_round_trip(l, cfprims::PermuteOp::kPermute, 6, 16, 5 * 96 + 3, 16);
       },
       0x72a4053fe59e772dull, 0xfcbf7c8c627b4c5dull, 1152, 864, 2304, 576},
      {"transpose_w8", w8,
       [](L& l) {
         return run_round_trip(l, cfprims::PermuteOp::kTranspose, 6, 16, 4 * 96 + 1, 17);
       },
       0x90235fd0a992cb29ull, 0x663e5c0502b3cb9bull, 960, 720, 1920, 480},
  };
}

void expect_same_counters(const gpusim::Counters& a, const gpusim::Counters& b) {
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(a.shared_cycles, b.shared_cycles);
  EXPECT_EQ(a.bank_conflicts, b.bank_conflicts);
  EXPECT_EQ(a.gmem_requests, b.gmem_requests);
  EXPECT_EQ(a.gmem_transactions, b.gmem_transactions);
  EXPECT_EQ(a.gmem_bytes, b.gmem_bytes);
  EXPECT_EQ(a.barriers, b.barriers);
}

}  // namespace

TEST(AccessStream, TraceAndReportDigestsArePinned) {
  for (const StreamCase& c : cases()) {
    SCOPED_TRACE(c.name);
    gpusim::Launcher launcher(c.dev);
    gpusim::TraceSink sink;
    launcher.set_trace(&sink);
    const Outcome r = c.run(launcher);
    const std::uint64_t trace = trace_digest(sink);
    const std::uint64_t report = r.digest;
    EXPECT_EQ(trace, c.trace) << std::hex << "0x" << trace;
    EXPECT_EQ(report, c.report) << std::hex << "0x" << report;
    EXPECT_EQ(sink.size(), c.events);
  }
}

TEST(AccessStream, FullAuditIsCleanAndMatchesTheTracedRun) {
  for (const StreamCase& c : cases()) {
    SCOPED_TRACE(c.name);
    gpusim::Launcher traced(c.dev);
    gpusim::TraceSink sink;
    traced.set_trace(&sink);
    const Outcome want = c.run(traced);

    verify::ShadowChecker checker;
    gpusim::Launcher audited(c.dev);
    audited.set_audit(&checker);
    const Outcome got = c.run(audited);
    const verify::ShadowSummary s = checker.summary();
    EXPECT_TRUE(s.clean()) << (s.violations.empty() ? "" : s.violations.front().detail);
    EXPECT_EQ(s.skipped_accesses, 0u);
    EXPECT_EQ(s.shared_accesses, c.audit_accesses);
    EXPECT_EQ(s.checked_words, c.audit_words);
    expect_same_counters(got.totals, want.totals);
    EXPECT_EQ(got.digest, want.digest);
  }
}

TEST(AccessStream, CertifiedSkipAuditMatchesFullAudit) {
  for (const StreamCase& c : cases()) {
    SCOPED_TRACE(c.name);
    verify::ShadowChecker full_checker;
    gpusim::Launcher full(c.dev);
    full.set_audit(&full_checker);
    const Outcome want = c.run(full);

    verify::ShadowChecker checker;
    gpusim::Launcher skipping(c.dev);
    skipping.set_audit(&checker);
    skipping.set_audit_skip(true);
    const Outcome got = c.run(skipping);
    const verify::ShadowSummary s = checker.summary();
    EXPECT_TRUE(s.clean()) << (s.violations.empty() ? "" : s.violations.front().detail);
    EXPECT_EQ(s.skipped_accesses, c.audit_skipped);
    expect_same_counters(got.totals, want.totals);
    EXPECT_EQ(got.digest, want.digest);  // counters, time and block chains
  }
}
