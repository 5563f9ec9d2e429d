// Golden access-stream pins: an FNV-1a digest of every event a traced sort
// records (block, warp, kind, phase, cost and the lane addresses), plus a
// digest of the report's counters and simulated time, for fixed-seed runs of
// every lane-path kernel family — CF and baseline merge_sort, the k=4 CF
// cascade, and a ragged sort_by_key — on a 32-lane and an 8-lane device.
//
// Any rewrite of a kernel's host-side mechanics (how a search or merge is
// computed) must leave these digests unchanged: the simulated device issues
// the same accesses in the same order, so counters, chains, trace and audit
// streams are bit-identical.  A full-audit ShadowChecker run of each case
// must be clean, observe the pinned number of accesses and words, and
// report the same counters as the traced run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "gpusim/launcher.hpp"
#include "gpusim/trace.hpp"
#include "numtheory/hash.hpp"
#include "sort/merge_sort.hpp"
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

std::uint64_t report_digest(const sort::SortReport& r) {
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

/// Runs one entry point on `launcher`, checks its output, and returns the
/// report.
using Runner = std::function<sort::SortReport(gpusim::Launcher&)>;

sort::SortReport run_merge_sort(gpusim::Launcher& launcher, sort::Variant variant, int e,
                                int u, std::int64_t n, std::uint64_t seed) {
  sort::MergeConfig cfg;
  cfg.e = e;
  cfg.u = u;
  cfg.variant = variant;
  auto data = keys_for(n, seed);
  auto expect = data;
  std::stable_sort(expect.begin(), expect.end());
  const sort::SortReport r = sort::merge_sort(launcher, data, cfg);
  EXPECT_EQ(data, expect);
  return r;
}

sort::SortReport run_multiway(gpusim::Launcher& launcher, int e, int u, std::int64_t n,
                              std::uint64_t seed) {
  sort::MultiwayConfig cfg;
  cfg.e = e;
  cfg.u = u;
  cfg.k = 4;
  cfg.variant = sort::MultiwayVariant::CFCascade;
  auto data = keys_for(n, seed);
  auto expect = data;
  std::stable_sort(expect.begin(), expect.end());
  const sort::SortReport r = sort::merge_sort_multiway(launcher, data, cfg);
  EXPECT_EQ(data, expect);
  return r;
}

/// Values carry the original index, so every output pair must point back at
/// an input key equal to its own.  CF is stable only for distinct keys, so
/// the pairs' order among equal keys is pinned by the digest, not checked.
sort::SortReport run_by_key(gpusim::Launcher& launcher, sort::Variant variant, int e, int u,
                            std::int64_t n, std::uint64_t seed) {
  sort::MergeConfig cfg;
  cfg.e = e;
  cfg.u = u;
  cfg.variant = variant;
  const auto input = keys_for(n, seed);
  auto keys = input;
  std::vector<std::int32_t> values(keys.size());
  std::iota(values.begin(), values.end(), 0);
  const sort::SortReport r = sort::merge_sort_by_key(launcher, keys, values, cfg);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  auto seen = values;
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], static_cast<std::int32_t>(i));
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(input[static_cast<std::size_t>(values[i])], keys[i]) << "i=" << i;
  return r;
}

struct StreamCase {
  const char* name;
  gpusim::DeviceSpec dev;
  Runner run;
  // Captured from the kernels before the fused-search rewrite.
  std::uint64_t trace;
  std::uint64_t report;
  std::uint64_t events;
  std::uint64_t audit_accesses;
  std::uint64_t audit_words;
};

std::vector<StreamCase> cases() {
  const gpusim::DeviceSpec w32 = gpusim::DeviceSpec::scaled_turing(4);
  const gpusim::DeviceSpec w8 = gpusim::DeviceSpec::tiny(8);
  using sort::Variant;
  using L = gpusim::Launcher;
  return {
      {"cf_w32", w32,
       [](L& l) { return run_merge_sort(l, Variant::CFMerge, 7, 64, 4 * 448, 1); },
       0x83e56191e5dc1ee7ull, 0x7eeeba14838eba18ull, 3358, 3016, 5376},
      {"baseline_w32", w32,
       [](L& l) { return run_merge_sort(l, Variant::Baseline, 7, 64, 4 * 448, 2); },
       0xc5a96e8cb62df4e8ull, 0xf6c84a45a129f182ull, 3374, 3048, 5376},
      {"multiway_k4_w32", w32, [](L& l) { return run_multiway(l, 7, 64, 16 * 448, 3); },
       0x439261d9efe37085ull, 0xd8346733fa517679ull, 21560, 17813, 64512},
      {"by_key_ragged_w32", w32,
       [](L& l) { return run_by_key(l, Variant::CFMerge, 7, 64, 3 * 448 + 101, 4); },
       0xa40a428472ba1cceull, 0x489f2399e5f14562ull, 3288, 2948, 5376},
      {"cf_w8", w8,
       [](L& l) { return run_merge_sort(l, Variant::CFMerge, 5, 16, 8 * 80, 5); },
       0x96ad92842f9e157eull, 0x9bbefed6f646f385ull, 4836, 4168, 2560},
      {"baseline_w8", w8,
       [](L& l) { return run_merge_sort(l, Variant::Baseline, 5, 16, 8 * 80, 6); },
       0xfcea6046e7a9ff1full, 0x80f1e6a796a33a69ull, 4913, 4292, 2560},
      {"multiway_k4_w8", w8, [](L& l) { return run_multiway(l, 5, 16, 16 * 80, 7); },
       0x93d6b57d5faddfd5ull, 0x602c9452e5d68615ull, 14956, 10892, 11520},
      {"by_key_ragged_w8", w8,
       [](L& l) { return run_by_key(l, Variant::Baseline, 5, 16, 5 * 80 + 37, 8); },
       0xa94a7f0e86a5f0feull, 0x6d4f078d169ed2eeull, 3520, 3057, 1920},
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
    const sort::SortReport r = c.run(launcher);
    const std::uint64_t trace = trace_digest(sink);
    const std::uint64_t report = report_digest(r);
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
    const sort::SortReport want = c.run(traced);

    verify::ShadowChecker checker;
    gpusim::Launcher audited(c.dev);
    audited.set_audit(&checker);
    const sort::SortReport got = c.run(audited);
    const verify::ShadowSummary s = checker.summary();
    EXPECT_TRUE(s.clean()) << (s.violations.empty() ? "" : s.violations.front().detail);
    EXPECT_EQ(s.skipped_accesses, 0u);
    EXPECT_EQ(s.shared_accesses, c.audit_accesses);
    EXPECT_EQ(s.checked_words, c.audit_words);
    expect_same_counters(got.totals, want.totals);
    EXPECT_EQ(report_digest(got), report_digest(want));
  }
}
