// Beyond mergesort: the paper's conclusion notes that the load-balanced dual
// subsequence gather converts ANY algorithm that scans a pair of arrays in
// parallel into a bank conflict free one — once a thread's two subsequences
// sit in registers, it can process them however it likes.
//
// This example computes the intersection size of two sorted sets (distinct
// keys within each set) that way.  In the merged order, a key present in
// both sets appears exactly twice, adjacently — so each thread merges its
// merge-path window and counts equal-adjacent pairs (plus one boundary
// comparison with the next thread, a register shuffle on a real GPU).
//
//   * CF kernel: dual subsequence gather (zero conflicts) + odd-even network
//   * baseline: per-thread sequential merge from shared memory (conflicts)
//
//   $ ./pair_scan_gather [half]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "cfmerge.hpp"

using namespace cfmerge;

namespace {

struct KernelResult {
  std::int64_t matches = 0;
  std::uint64_t merge_conflicts = 0;
  std::uint64_t merge_accesses = 0;
};

std::int64_t count_adjacent_equal(const std::vector<int>& merged) {
  std::int64_t m = 0;
  for (std::size_t k = 0; k + 1 < merged.size(); ++k)
    if (merged[k] == merged[k + 1]) ++m;
  return m;
}

KernelResult intersect(gpusim::Launcher& launcher, const std::vector<int>& a,
                       const std::vector<int>& b, int e, int u, bool use_cf_gather) {
  KernelResult result;
  launcher.launch(use_cf_gather ? "intersect_cf" : "intersect_base",
                  gpusim::LaunchShape{1, u, 0, 32}, [&](gpusim::BlockContext& ctx) {
    const int w = ctx.lanes();
    const std::int64_t la = static_cast<std::int64_t>(a.size());
    const std::int64_t lb = static_cast<std::int64_t>(b.size());
    gather::GatherShape shape{w, e, u, la, lb};
    auto [off, size] =
        gather::block_splits<int>(shape, std::span<const int>(a), std::span<const int>(b));

    gpusim::SharedTile<int> tile(ctx, static_cast<std::size_t>(u) * e);
    std::vector<int> regs(static_cast<std::size_t>(u) * e);

    if (use_cf_gather) {
      gather::RoundSchedule sched(shape, off, size);
      for (std::int64_t x = 0; x < la; ++x)
        tile.raw()[static_cast<std::size_t>(sched.layout().pos_a(x))] =
            a[static_cast<std::size_t>(x)];
      for (std::int64_t y = 0; y < lb; ++y)
        tile.raw()[static_cast<std::size_t>(sched.layout().pos_b(y))] =
            b[static_cast<std::size_t>(y)];
      ctx.phase("merge");
      gather::dual_subsequence_gather(ctx, tile, sched, std::span<int>(regs));
      for (int warp = 0; warp < ctx.warps(); ++warp) {
        for (int lane = 0; lane < w; ++lane) {
          std::span<int> r(regs.data() + static_cast<std::size_t>(warp * w + lane) *
                                             static_cast<std::size_t>(e),
                           static_cast<std::size_t>(e));
          sort::odd_even_transposition_sort(r);
        }
        ctx.charge_compute(warp, static_cast<std::uint64_t>(
                                     sort::odd_even_network_size(e) *
                                     sort::cost::kCompareExchangeInstrs));
      }
    } else {
      std::copy(a.begin(), a.end(), tile.raw().begin());
      std::copy(b.begin(), b.end(), tile.raw().begin() + static_cast<std::ptrdiff_t>(la));
      std::vector<sort::ThreadSplit> splits(static_cast<std::size_t>(u));
      for (int i = 0; i < u; ++i)
        splits[static_cast<std::size_t>(i)] = {
            off[static_cast<std::size_t>(i)], size[static_cast<std::size_t>(i)],
            static_cast<std::int64_t>(i) * e - off[static_cast<std::size_t>(i)],
            e - size[static_cast<std::size_t>(i)]};
      const auto layout = gather::PairLayout::linear(la, lb);
      ctx.phase("merge");
      sort::serial_merge_core<2>(
          ctx, tile, 2, e,
          [&](int i, int s) { return sort::split_window(splits[static_cast<std::size_t>(i)], s); },
          [&](int s, std::int64_t x) { return s == 0 ? layout.pos_a(x) : layout.pos_b(x); },
          sort::kPairMergeCharge, std::span<int>(regs), std::less<int>{});
    }

    // Count equal-adjacent pairs; the cross-thread boundary comparison is a
    // warp shuffle (one instruction) on real hardware.
    ctx.phase("count");
    result.matches = count_adjacent_equal(regs);
    for (int warp = 0; warp < ctx.warps(); ++warp)
      ctx.charge_compute(warp, static_cast<std::uint64_t>(e + 1));

    for (const auto& [name, c] : ctx.counters().phases())
      if (name == "merge") {
        result.merge_conflicts = c.bank_conflicts;
        result.merge_accesses = c.shared_accesses;
      }
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int e = 16;  // deliberately non-coprime with w = 32: rho earns its keep
  const int u = 512;
  const std::int64_t total = static_cast<std::int64_t>(u) * e;
  std::int64_t half = total / 2;
  try {
    if (argc > 1) half = gpusim::parse_int<std::int64_t>(argv[1], "half");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "pair_scan_gather: %s\n", e.what());
    return 2;
  }
  half = std::clamp<std::int64_t>(half, 0, total);

  // Distinct keys within each set (so the merged order has each shared key
  // exactly twice, adjacent), drawn from an overlapping universe.
  std::mt19937_64 rng(11);
  std::vector<int> universe(static_cast<std::size_t>(total) * 2);
  std::iota(universe.begin(), universe.end(), 0);
  std::shuffle(universe.begin(), universe.end(), rng);
  std::vector<int> a(universe.begin(), universe.begin() + static_cast<std::ptrdiff_t>(half));
  std::shuffle(universe.begin(), universe.end(), rng);
  std::vector<int> b(universe.begin(),
                     universe.begin() + static_cast<std::ptrdiff_t>(total - half));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());

  std::vector<int> ref;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(ref));

  gpusim::Launcher launcher(gpusim::DeviceSpec::rtx2080ti());
  const auto cf = intersect(launcher, a, b, e, u, /*use_cf_gather=*/true);
  const auto base = intersect(launcher, a, b, e, u, /*use_cf_gather=*/false);

  std::printf("set intersection of |A|=%zu and |B|=%zu sorted keys (E=%d, u=%d)\n\n",
              a.size(), b.size(), e, u);
  std::printf("reference matches:          %zu\n", ref.size());
  std::printf("CF gather kernel matches:   %lld   (merge conflicts: %llu over %llu accesses)\n",
              static_cast<long long>(cf.matches),
              static_cast<unsigned long long>(cf.merge_conflicts),
              static_cast<unsigned long long>(cf.merge_accesses));
  std::printf("baseline scan matches:      %lld   (merge conflicts: %llu over %llu accesses)\n",
              static_cast<long long>(base.matches),
              static_cast<unsigned long long>(base.merge_conflicts),
              static_cast<unsigned long long>(base.merge_accesses));
  if (cf.matches != static_cast<std::int64_t>(ref.size()) || base.matches != cf.matches) {
    std::fprintf(stderr, "MISMATCH!\n");
    return 1;
  }
  if (cf.merge_conflicts != 0) {
    std::fprintf(stderr, "CF kernel conflicted!\n");
    return 1;
  }
  std::printf("\nThe gather-based kernel scans both lists with zero bank conflicts —\n"
              "the paper's closing observation: any parallel pair-of-arrays scan can\n"
              "be made bank conflict free this way.\n");
  return 0;
}
