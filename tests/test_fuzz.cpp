// Randomized stress test: sorts under randomly drawn devices,
// configurations and distributions (2-way and k-way), verifying output
// correctness and the CF-Merge / CF cascade zero-conflict invariant each
// time.  Default 30 iterations;
// set CFMERGE_FUZZ_ITERS for longer soaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <stdexcept>

#include "gpusim/launcher.hpp"
#include "sort/batched_merge.hpp"
#include "sort/merge_sort.hpp"
#include "sort/multiway_pass.hpp"

using namespace cfmerge;

namespace {

int fuzz_iters() {
  if (const char* s = std::getenv("CFMERGE_FUZZ_ITERS")) return std::atoi(s);
  return 30;
}

struct FuzzConfig {
  int w;
  int sms;
  sort::MergeConfig cfg;
  std::int64_t n;
};

FuzzConfig draw(std::mt19937_64& rng) {
  for (;;) {
    FuzzConfig f;
    const int ws[] = {4, 8, 16, 32};
    f.w = ws[rng() % 4];
    f.sms = 1 + static_cast<int>(rng() % 4);
    f.cfg.e = 2 + static_cast<int>(rng() % (f.w + 3));  // includes E > w
    int u = f.w;
    const int doublings = static_cast<int>(rng() % 4);
    for (int i = 0; i < doublings; ++i) u *= 2;
    f.cfg.u = u;
    f.cfg.variant = (rng() % 2 == 0) ? sort::Variant::Baseline : sort::Variant::CFMerge;
    f.cfg.cf_blocksort = rng() % 4 == 0;
    f.cfg.cf_output_scatter = rng() % 2 == 0;
    f.n = 1 + static_cast<std::int64_t>(rng() % (f.cfg.tile() * 6));
    // Reject configurations whose tile (plus the cf_blocksort staging
    // buffer) cannot fit on the tiny device.
    const gpusim::DeviceSpec dev = gpusim::DeviceSpec::tiny(f.w, f.sms);
    const bool staging = f.cfg.variant == sort::Variant::CFMerge && f.cfg.cf_blocksort;
    const std::size_t shared_need = static_cast<std::size_t>(f.cfg.tile()) * sizeof(int) *
                                    (staging ? 2 : 1);
    if (f.cfg.u > dev.max_threads_per_sm) continue;
    if (shared_need > dev.shared_bytes_per_sm) continue;
    return f;
  }
}

}  // namespace

TEST(Fuzz, RandomConfigurationsSortCorrectly) {
  std::mt19937_64 rng(0xF0220);
  const int iters = fuzz_iters();
  for (int it = 0; it < iters; ++it) {
    const FuzzConfig f = draw(rng);
    SCOPED_TRACE("iter " + std::to_string(it) + ": w=" + std::to_string(f.w) +
                 " E=" + std::to_string(f.cfg.e) + " u=" + std::to_string(f.cfg.u) +
                 " n=" + std::to_string(f.n) +
                 (f.cfg.variant == sort::Variant::CFMerge ? " cf" : " base") +
                 (f.cfg.cf_blocksort ? " cfbsort" : ""));
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(f.w, f.sms));

    std::vector<int> data(static_cast<std::size_t>(f.n));
    // Mixed value regimes: full range, tiny range (duplicates), sorted-ish.
    const int mode = static_cast<int>(rng() % 3);
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (mode == 0)
        data[i] = static_cast<int>(rng());
      else if (mode == 1)
        data[i] = static_cast<int>(rng() % 5);
      else
        data[i] = static_cast<int>(i) - static_cast<int>(rng() % 3);
    }
    std::vector<int> expect = data;
    std::sort(expect.begin(), expect.end());

    const auto report = sort::merge_sort(launcher, data, f.cfg);
    ASSERT_EQ(data, expect);
    if (f.cfg.variant == sort::Variant::CFMerge) {
      ASSERT_EQ(report.merge_conflicts(), 0u);
    }
    ASSERT_GT(report.microseconds, 0.0);
  }
}

TEST(Fuzz, RandomMergePairs) {
  std::mt19937_64 rng(0xF0221);
  const int iters = fuzz_iters();
  for (int it = 0; it < iters; ++it) {
    const FuzzConfig f = draw(rng);
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(f.w, f.sms));
    std::vector<int> a(static_cast<std::size_t>(rng() % (f.cfg.tile() * 2 + 1)));
    std::vector<int> b(static_cast<std::size_t>(rng() % (f.cfg.tile() * 2 + 1)));
    for (auto& x : a) x = static_cast<int>(rng() % 100000);
    for (auto& x : b) x = static_cast<int>(rng() % 100000);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<int> expect;
    std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(expect));
    std::vector<std::vector<int>> outs;
    const auto report = sort::batched_merge(launcher, {a}, {b}, outs, f.cfg);
    SCOPED_TRACE("iter " + std::to_string(it));
    ASSERT_EQ(outs.at(0), expect);
    if (f.cfg.variant == sort::Variant::CFMerge) {
      ASSERT_EQ(report.merge_conflicts(), 0u);
    }
  }
}

TEST(Fuzz, RandomBatches) {
  std::mt19937_64 rng(0xF0222);
  const int iters = std::max(1, fuzz_iters() / 3);
  for (int it = 0; it < iters; ++it) {
    const FuzzConfig f = draw(rng);
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(f.w, f.sms));
    const int pairs = 1 + static_cast<int>(rng() % 6);
    std::vector<std::vector<int>> as(static_cast<std::size_t>(pairs));
    std::vector<std::vector<int>> bs(static_cast<std::size_t>(pairs));
    for (int p = 0; p < pairs; ++p) {
      as[static_cast<std::size_t>(p)].resize(rng() % (static_cast<std::uint64_t>(f.cfg.tile()) + 1));
      bs[static_cast<std::size_t>(p)].resize(rng() % (static_cast<std::uint64_t>(f.cfg.tile()) + 1));
      for (auto& x : as[static_cast<std::size_t>(p)]) x = static_cast<int>(rng() % 9999);
      for (auto& x : bs[static_cast<std::size_t>(p)]) x = static_cast<int>(rng() % 9999);
      std::sort(as[static_cast<std::size_t>(p)].begin(), as[static_cast<std::size_t>(p)].end());
      std::sort(bs[static_cast<std::size_t>(p)].begin(), bs[static_cast<std::size_t>(p)].end());
    }
    std::vector<std::vector<int>> outs;
    sort::batched_merge(launcher, as, bs, outs, f.cfg);
    SCOPED_TRACE("iter " + std::to_string(it));
    for (int p = 0; p < pairs; ++p) {
      std::vector<int> expect;
      std::merge(as[static_cast<std::size_t>(p)].begin(), as[static_cast<std::size_t>(p)].end(),
                 bs[static_cast<std::size_t>(p)].begin(), bs[static_cast<std::size_t>(p)].end(),
                 std::back_inserter(expect));
      ASSERT_EQ(outs[static_cast<std::size_t>(p)], expect) << "pair " << p;
    }
  }
}

TEST(Fuzz, RandomMultiwaySorts) {
  std::mt19937_64 rng(0xF0223);
  const int iters = std::max(1, fuzz_iters() / 3);
  for (int it = 0; it < iters; ++it) {
    // Draw until the config fits the device; k in [2, 8] runs the cascade
    // when it is a power of two and the loser tree otherwise.
    const int ws[] = {4, 8, 16, 32};
    int w = 0;
    int sms = 0;
    sort::MultiwayConfig cfg;
    for (;;) {
      w = ws[rng() % 4];
      sms = 1 + static_cast<int>(rng() % 4);
      cfg.e = 2 + static_cast<int>(rng() % static_cast<std::uint64_t>(w + 3));
      cfg.u = w << (rng() % 4);
      cfg.k = 2 + static_cast<int>(rng() % 7);
      cfg.variant = (cfg.k & (cfg.k - 1)) == 0 ? sort::MultiwayVariant::CFCascade
                                               : sort::MultiwayVariant::LoserTree;
      try {
        sort::validate_multiway_config(gpusim::DeviceSpec::tiny(w, sms), cfg, sizeof(int));
        break;
      } catch (const std::invalid_argument&) {
      }
    }
    // More than k tiles, so the sort runs at least two k-way passes.
    const std::int64_t group = cfg.tile() * cfg.k;
    const std::int64_t n = group + 1 + static_cast<std::int64_t>(
                                           rng() % static_cast<std::uint64_t>(group));
    const bool cascade = cfg.variant == sort::MultiwayVariant::CFCascade;
    SCOPED_TRACE("iter " + std::to_string(it) + ": w=" + std::to_string(w) +
                 " E=" + std::to_string(cfg.e) + " u=" + std::to_string(cfg.u) +
                 " k=" + std::to_string(cfg.k) + " n=" + std::to_string(n) +
                 (cascade ? " cascade" : " losertree"));
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w, sms));

    std::vector<int> data(static_cast<std::size_t>(n));
    // The value regimes of RandomConfigurationsSortCorrectly.
    const int mode = static_cast<int>(rng() % 3);
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (mode == 0)
        data[i] = static_cast<int>(rng());
      else if (mode == 1)
        data[i] = static_cast<int>(rng() % 5);
      else
        data[i] = static_cast<int>(i) - static_cast<int>(rng() % 3);
    }
    std::vector<int> expect = data;
    std::sort(expect.begin(), expect.end());

    const auto report = sort::merge_sort_multiway(launcher, data, cfg);
    ASSERT_EQ(data, expect);
    ASSERT_GE(report.passes, 2);
    if (cascade) {
      ASSERT_EQ(report.merge_conflicts(), 0u);
    }
  }
}
