// Tests of the simulated dual subsequence gather/scatter device routines:
// they must move the right data, and the counters must show zero bank
// conflicts for every shape.
#include "gather/dual_gather.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "gpusim/launcher.hpp"
#include "verify/certificate.hpp"

using namespace cfmerge;
using namespace cfmerge::gather;

namespace {

struct Fixtureish {
  int w, e, u;
  std::vector<std::int64_t> a_off, a_size;
  GatherShape shape;
  std::vector<int> a_vals, b_vals;

  Fixtureish(int w_, int e_, int u_, std::uint64_t seed) : w(w_), e(e_), u(u_) {
    std::mt19937_64 rng(seed);
    std::int64_t la = 0;
    a_off.resize(static_cast<std::size_t>(u));
    a_size.resize(static_cast<std::size_t>(u));
    for (int i = 0; i < u; ++i) {
      a_off[static_cast<std::size_t>(i)] = la;
      a_size[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(rng() % (e + 1));
      la += a_size[static_cast<std::size_t>(i)];
    }
    shape = GatherShape{w, e, u, la, static_cast<std::int64_t>(u) * e - la};
    a_vals.resize(static_cast<std::size_t>(la));
    b_vals.resize(static_cast<std::size_t>(shape.lb));
    std::iota(a_vals.begin(), a_vals.end(), 0);
    std::iota(b_vals.begin(), b_vals.end(), 10000);
  }

  /// Fills a SharedTile with the CF layout rho(A ∪ pi(B)).
  void fill(gpusim::SharedTile<int>& tile, const RoundSchedule& sched) const {
    for (std::int64_t x = 0; x < shape.la; ++x)
      tile.raw()[static_cast<std::size_t>(sched.layout().pos_a(x))] =
          a_vals[static_cast<std::size_t>(x)];
    for (std::int64_t y = 0; y < shape.lb; ++y)
      tile.raw()[static_cast<std::size_t>(sched.layout().pos_b(y))] =
          b_vals[static_cast<std::size_t>(y)];
  }
};

}  // namespace

TEST(DualGather, GathersCorrectDataNoConflicts) {
  for (const auto& [w, e, warps] : std::vector<std::tuple<int, int, int>>{
           {8, 5, 1}, {8, 6, 2}, {9, 6, 1}, {12, 9, 2}, {32, 15, 2}, {32, 16, 1}, {6, 4, 3}}) {
    const int u = w * warps;
    Fixtureish fx(w, e, u, static_cast<std::uint64_t>(w * 131 + e));
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
    std::vector<int> regs(static_cast<std::size_t>(u) * static_cast<std::size_t>(e), -1);
    launcher.launch("gather", gpusim::LaunchShape{1, u, 0, 32},
                    [&](gpusim::BlockContext& ctx) {
                      gpusim::SharedTile<int> tile(ctx, static_cast<std::size_t>(u) * e);
                      RoundSchedule sched(fx.shape, fx.a_off, fx.a_size);
                      fx.fill(tile, sched);
                      dual_subsequence_gather(ctx, tile, sched, std::span<int>(regs));
                    });
    // Zero bank conflicts — the paper's core claim.
    EXPECT_EQ(launcher.total_counters().bank_conflicts, 0u)
        << "w=" << w << " e=" << e << " u=" << u;
    // Every thread's registers hold exactly A_i ∪ B_i.
    RoundSchedule sched(fx.shape, fx.a_off, fx.a_size);
    for (int i = 0; i < u; ++i) {
      std::vector<int> got(regs.begin() + static_cast<std::ptrdiff_t>(i) * e,
                           regs.begin() + static_cast<std::ptrdiff_t>(i + 1) * e);
      std::vector<int> expect;
      for (std::int64_t x = 0; x < sched.a_size(i); ++x)
        expect.push_back(fx.a_vals[static_cast<std::size_t>(sched.a_offset(i) + x)]);
      for (std::int64_t y = 0; y < sched.b_size(i); ++y)
        expect.push_back(fx.b_vals[static_cast<std::size_t>(sched.b_offset(i) + y)]);
      std::sort(got.begin(), got.end());
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(got, expect) << "thread " << i;
    }
  }
}

TEST(DualGather, RegisterArrangementByRound) {
  // items[j] holds the round-j element: A_i ascending from slot a_i mod E,
  // B_i descending from slot (a_i - 1) mod E.
  const int w = 8, e = 5, u = 8;
  Fixtureish fx(w, e, u, 99);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
  std::vector<int> regs(static_cast<std::size_t>(u) * e, -1);
  launcher.launch("gather", gpusim::LaunchShape{1, u, 0, 32},
                  [&](gpusim::BlockContext& ctx) {
                    gpusim::SharedTile<int> tile(ctx, static_cast<std::size_t>(u) * e);
                    RoundSchedule sched(fx.shape, fx.a_off, fx.a_size);
                    fx.fill(tile, sched);
                    dual_subsequence_gather(ctx, tile, sched, std::span<int>(regs));
                  });
  RoundSchedule sched(fx.shape, fx.a_off, fx.a_size);
  for (int i = 0; i < u; ++i) {
    for (std::int64_t x = 0; x < sched.a_size(i); ++x) {
      const int slot = sched.register_slot_of_a(i, x);
      EXPECT_EQ(regs[static_cast<std::size_t>(i) * e + static_cast<std::size_t>(slot)],
                fx.a_vals[static_cast<std::size_t>(sched.a_offset(i) + x)]);
    }
    for (std::int64_t y = 0; y < sched.b_size(i); ++y) {
      const int slot = sched.register_slot_of_b(i, y);
      EXPECT_EQ(regs[static_cast<std::size_t>(i) * e + static_cast<std::size_t>(slot)],
                fx.b_vals[static_cast<std::size_t>(sched.b_offset(i) + y)]);
    }
  }
}

TEST(DualScatter, InverseOfGatherAndConflictFree) {
  for (const auto& [w, e, warps] :
       std::vector<std::tuple<int, int, int>>{{8, 6, 1}, {9, 6, 2}, {32, 15, 1}, {12, 8, 2}}) {
    const int u = w * warps;
    Fixtureish fx(w, e, u, static_cast<std::uint64_t>(w * 7 + e));
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
    std::vector<int> regs(static_cast<std::size_t>(u) * e, -1);
    std::vector<int> shared_after(static_cast<std::size_t>(u) * e, -1);
    launcher.launch("roundtrip", gpusim::LaunchShape{1, u, 0, 32},
                    [&](gpusim::BlockContext& ctx) {
                      gpusim::SharedTile<int> tile(ctx, static_cast<std::size_t>(u) * e);
                      RoundSchedule sched(fx.shape, fx.a_off, fx.a_size);
                      fx.fill(tile, sched);
                      dual_subsequence_gather(ctx, tile, sched, std::span<int>(regs));
                      // Wipe, then scatter back: must reproduce the layout.
                      std::fill(tile.raw().begin(), tile.raw().end(), -7);
                      dual_subsequence_scatter(ctx, tile, sched, std::span<const int>(regs));
                      std::copy(tile.raw().begin(), tile.raw().end(), shared_after.begin());
                    });
    EXPECT_EQ(launcher.total_counters().bank_conflicts, 0u);
    // Rebuild the expected layout.
    RoundSchedule sched(fx.shape, fx.a_off, fx.a_size);
    std::vector<int> expect(static_cast<std::size_t>(u) * e, -7);
    for (std::int64_t x = 0; x < fx.shape.la; ++x)
      expect[static_cast<std::size_t>(sched.layout().pos_a(x))] =
          fx.a_vals[static_cast<std::size_t>(x)];
    for (std::int64_t y = 0; y < fx.shape.lb; ++y)
      expect[static_cast<std::size_t>(sched.layout().pos_b(y))] =
          fx.b_vals[static_cast<std::size_t>(y)];
    EXPECT_EQ(shared_after, expect) << "w=" << w << " e=" << e;
  }
}

TEST(DualGather, SharedAccessCountIsExactlyEPerWarp) {
  // E rounds, one warp-wide access each: shared_accesses == E * warps.
  const int w = 8, e = 7, u = 24;
  Fixtureish fx(w, e, u, 5);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
  std::vector<int> regs(static_cast<std::size_t>(u) * e);
  launcher.launch("gather", gpusim::LaunchShape{1, u, 0, 32},
                  [&](gpusim::BlockContext& ctx) {
                    gpusim::SharedTile<int> tile(ctx, static_cast<std::size_t>(u) * e);
                    RoundSchedule sched(fx.shape, fx.a_off, fx.a_size);
                    fx.fill(tile, sched);
                    dual_subsequence_gather(ctx, tile, sched, std::span<int>(regs));
                  });
  EXPECT_EQ(launcher.total_counters().shared_accesses,
            static_cast<std::uint64_t>(e) * (u / w));
}

TEST(DualGather, CertifiedRunCopiesMatchTheLanePath) {
  // exec_cf_gather's bulk path moves each thread's A_i and B_i as two raw
  // runs into rotating register slots.  The merge kernels sort registers
  // afterwards, which hides the slot order, so compare the registers of
  // the bulk and lane paths directly — at a nonzero tile offset and with
  // virtual warps issued out of order, as in the cascade.
  for (const auto& [w, e, warps] : std::vector<std::tuple<int, int, int>>{
           {8, 5, 2}, {8, 6, 3}, {32, 15, 2}, {32, 16, 1}, {4, 4, 2}}) {
    SCOPED_TRACE("w=" + std::to_string(w) + " e=" + std::to_string(e));
    const int u = w * warps;
    const std::int64_t base = 3 * w;  // keeps every bank residue
    const auto tile_words = static_cast<std::size_t>(u) * static_cast<std::size_t>(e);
    Fixtureish fx(w, e, u, static_cast<std::uint64_t>(w * 17 + e));
    const verify::CfCertificate* cert = verify::certify("cf_gather", w, e);
    ASSERT_NE(cert, nullptr);
    auto run = [&](bool bulk) {
      gpusim::DeviceSpec dev = gpusim::DeviceSpec::tiny(w);
      dev.bulk_charge = bulk;
      gpusim::Launcher launcher(dev);
      std::vector<int> regs(tile_words, -1);
      launcher.launch("gather", gpusim::LaunchShape{1, u, 0, 32},
                      [&](gpusim::BlockContext& ctx) {
                        gpusim::SharedTile<int> tile(
                            ctx, static_cast<std::size_t>(base) + tile_words);
                        gpusim::SharedTile<int> layout(ctx, tile_words);
                        RoundSchedule sched(fx.shape, fx.a_off, fx.a_size);
                        fx.fill(layout, sched);
                        std::copy(layout.raw().begin(), layout.raw().end(),
                                  tile.raw().begin() + base);
                        cfprims::exec_cf_gather(
                            ctx, tile, sched, base, cert,
                            [warps](int vw) { return warps - 1 - vw; }, std::span<int>(regs));
                      });
      EXPECT_EQ(launcher.bulk_charges() > 0, bulk);
      return std::pair{regs, launcher.history().front()};
    };
    const auto [lane_regs, lane_report] = run(false);
    const auto [bulk_regs, bulk_report] = run(true);
    EXPECT_EQ(bulk_regs, lane_regs);
    EXPECT_EQ(bulk_report.counters, lane_report.counters);
    EXPECT_EQ(bulk_report.mean_block_chain, lane_report.mean_block_chain);
    EXPECT_EQ(bulk_report.max_block_chain, lane_report.max_block_chain);
    EXPECT_EQ(lane_report.counters.total().bank_conflicts, 0u);
  }
}
