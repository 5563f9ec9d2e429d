// Bitonic sort on the simulated GPU — a second comparison-sort baseline.
//
// The paper's introduction positions merge-path mergesort as the fastest
// comparison sort on GPUs; bitonic sort is the classic alternative, with
// O(n log^2 n) work.  Its power-of-two compare-exchange strides interact
// with the power-of-two bank count: substages with stride j < w leave half
// the banks idle (every access is 2-way conflicted), a *structural* — not
// data-dependent — conflict pattern, contrasting with the mergesort's
// input-dependent conflicts.  The `padded` option applies the classic
// one-slot-per-w padding so the effect of layout changes can be measured.
// This gives the benchmark suite a third sorter and a second, independent
// instance of the bank-conflict phenomenon the paper studies.
//
// Structure (standard GPU bitonic):
//   for k = 2, 4, ..., n:        (bitonic stage)
//     for j = k/2, k/4, ..., 1:  (substage)
//       if j < tile: run all remaining substages of this k inside shared
//                    memory (one kernel, barriers between substages);
//       else:        one global compare-exchange kernel.
#pragma once

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/cost_model.hpp"
#include "sort/key_value.hpp"

namespace cfmerge::sort {

struct BitonicConfig {
  int u = 512;          ///< threads per block
  int elems_per_thread = 2;  ///< elements of the tile each thread owns
  bool padded = false;  ///< pad shared tiles to kill the stride conflicts

  [[nodiscard]] std::int64_t tile() const {
    return static_cast<std::int64_t>(u) * elems_per_thread;
  }
};

struct BitonicReport {
  std::int64_t n = 0;
  std::int64_t n_padded = 0;
  double microseconds = 0.0;
  gpusim::Counters totals;
  gpusim::PhaseCounters phases;

  [[nodiscard]] double throughput() const {
    return microseconds > 0 ? static_cast<double>(n) / microseconds : 0.0;
  }
};

namespace detail {

/// Padded shared index: insert one dummy slot per w elements.
inline std::int64_t bitonic_pad(std::int64_t i, int w, bool padded) {
  return padded ? i + i / w : i;
}

/// Shared-memory kernel body: runs stages k = k_lo .. k_hi, each with its
/// substages j = min(k/2, tile/2) .. 1, within one tile (real GPU bitonic
/// fuses all tile-local stages into one launch this way).
template <typename T, typename Cmp>
void bitonic_tile_body(gpusim::BlockContext& ctx, std::span<T> data,
                       const BitonicConfig& cfg, std::int64_t k_lo, std::int64_t k_hi,
                       Cmp cmp) {
  const int w = ctx.lanes();
  const int u = ctx.threads();
  const std::int64_t tile = cfg.tile();
  const std::int64_t base = static_cast<std::int64_t>(ctx.block_id()) * tile;
  const std::int64_t padded_size =
      bitonic_pad(tile - 1, w, cfg.padded) + 1;

  gpusim::GlobalView<T> global(ctx, data.subspan(static_cast<std::size_t>(base),
                                                 static_cast<std::size_t>(tile)),
                               base);
  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(padded_size));

  // The tile's staged copies: unit-step in global, padded in shared.
  const auto pad = [w, &cfg](std::int64_t t) { return bitonic_pad(t, w, cfg.padded); };
  ctx.phase("bitonic.load");
  cfprims::exec_staged_copy(ctx, global, shmem, tile, /*cert=*/nullptr, cfprims::UnitStep{},
                            pad);
  ctx.barrier();

  ctx.phase("bitonic.exchange");
  const std::int64_t pairs = tile / 2;
  std::vector<std::int64_t> addr_i(static_cast<std::size_t>(w));
  std::vector<std::int64_t> addr_j(static_cast<std::size_t>(w));
  std::vector<T> va(static_cast<std::size_t>(w)), vb(static_cast<std::size_t>(w));
  for (std::int64_t k = k_lo; k <= k_hi; k *= 2)
  for (std::int64_t j = std::min(k / 2, tile / 2); j >= 1; j /= 2) {
    for (int warp = 0; warp < ctx.warps(); ++warp) {
      for (std::int64_t p0 = static_cast<std::int64_t>(warp) * w; p0 < pairs; p0 += u) {
        for (int lane = 0; lane < w; ++lane) {
          const std::int64_t p = p0 + lane;
          if (p >= pairs) {
            addr_i[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
            addr_j[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
            continue;
          }
          // p-th pair of substage j: i = insert 0 bit at position log2(j).
          const std::int64_t i = (p / j) * 2 * j + p % j;
          addr_i[static_cast<std::size_t>(lane)] = bitonic_pad(i, w, cfg.padded);
          addr_j[static_cast<std::size_t>(lane)] = bitonic_pad(i + j, w, cfg.padded);
        }
        ctx.charge_compute(warp, cost::kMergeStepInstrs);
        shmem.gather(warp, addr_i, va);
        shmem.gather(warp, addr_j, vb);
        // Compare-exchange with direction from stage k.
        for (int lane = 0; lane < w; ++lane) {
          const std::int64_t p = p0 + lane;
          if (p >= pairs) continue;
          const std::int64_t i = (p / j) * 2 * j + p % j;
          const bool ascending = (((base + i) & k) == 0);
          auto& x = va[static_cast<std::size_t>(lane)];
          auto& y = vb[static_cast<std::size_t>(lane)];
          if (ascending ? cmp(y, x) : cmp(x, y)) std::swap(x, y);
        }
        ctx.charge_compute(warp, cost::kCompareExchangeInstrs);
        shmem.scatter(warp, addr_i, va);
        shmem.scatter(warp, addr_j, vb);
      }
    }
    ctx.barrier();
  }

  ctx.phase("bitonic.store");
  cfprims::exec_staged_copy(ctx, shmem, global, tile, /*cert=*/nullptr, pad,
                            cfprims::UnitStep{});
}

/// Global compare-exchange kernel for substage j >= tile.
template <typename T, typename Cmp>
void bitonic_global_body(gpusim::BlockContext& ctx, std::span<T> data,
                         const BitonicConfig& cfg, std::int64_t n, std::int64_t k,
                         std::int64_t j, Cmp cmp) {
  const int w = ctx.lanes();
  const int u = ctx.threads();
  const std::int64_t pairs_per_block = cfg.tile() / 2;
  const std::int64_t first_pair =
      static_cast<std::int64_t>(ctx.block_id()) * pairs_per_block;
  gpusim::GlobalView<T> view(ctx, data, 0);

  ctx.phase("bitonic.global");
  std::vector<std::int64_t> addr_i(static_cast<std::size_t>(w));
  std::vector<std::int64_t> addr_j(static_cast<std::size_t>(w));
  std::vector<T> va(static_cast<std::size_t>(w)), vb(static_cast<std::size_t>(w));
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    bool first = true;
    for (std::int64_t p0 = first_pair + static_cast<std::int64_t>(warp) * w;
         p0 < first_pair + pairs_per_block; p0 += u) {
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t p = p0 + lane;
        if (p >= n / 2) {
          addr_i[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
          addr_j[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
          continue;
        }
        const std::int64_t i = (p / j) * 2 * j + p % j;
        addr_i[static_cast<std::size_t>(lane)] = i;
        addr_j[static_cast<std::size_t>(lane)] = i + j;
      }
      ctx.charge_compute(warp, cost::kMergeStepInstrs);
      view.gather(warp, addr_i, va, first);
      view.gather(warp, addr_j, vb, false);
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t p = p0 + lane;
        if (p >= n / 2) continue;
        const std::int64_t i = (p / j) * 2 * j + p % j;
        const bool ascending = ((i & k) == 0);
        auto& x = va[static_cast<std::size_t>(lane)];
        auto& y = vb[static_cast<std::size_t>(lane)];
        if (ascending ? cmp(y, x) : cmp(x, y)) std::swap(x, y);
      }
      ctx.charge_compute(warp, cost::kCompareExchangeInstrs);
      view.scatter(warp, addr_i, va, false);
      view.scatter(warp, addr_j, vb, false);
      first = false;
    }
  }
}

}  // namespace detail

/// Sorts `data` with the bitonic network.  Pads to the next power of two
/// with +infinity sentinels.
template <typename T, typename Cmp = std::less<T>>
BitonicReport bitonic_sort(gpusim::Launcher& launcher, std::vector<T>& data,
                           const BitonicConfig& cfg, Cmp cmp = Cmp{}) {
  const gpusim::DeviceSpec& dev = launcher.device();
  if (cfg.u <= 0 || cfg.u % dev.warp_size != 0)
    throw std::invalid_argument("bitonic_sort: u must be a positive multiple of warp_size");
  if (cfg.elems_per_thread < 2 ||
      !std::has_single_bit(static_cast<unsigned>(cfg.elems_per_thread)))
    throw std::invalid_argument(
        "bitonic_sort: elems_per_thread must be a power of two >= 2");
  if (!std::has_single_bit(static_cast<unsigned>(cfg.u)))
    throw std::invalid_argument("bitonic_sort: u must be a power of two");

  BitonicReport report;
  report.n = static_cast<std::int64_t>(data.size());
  if (report.n == 0) return report;

  const std::int64_t tile = cfg.tile();
  const std::int64_t n = std::max<std::int64_t>(
      tile, static_cast<std::int64_t>(std::bit_ceil(static_cast<std::uint64_t>(report.n))));
  report.n_padded = n;
  std::vector<T> buf = data;
  buf.resize(static_cast<std::size_t>(n), padding_sentinel<T>::value());

  launcher.clear_history();
  const int blocks = static_cast<int>(n / tile);
  const gpusim::LaunchShape shape{blocks, cfg.u, 0, 24};

  // All tile-local stages fused into one launch.
  launcher.launch("bitonic_tile_sort", shape, [&](gpusim::BlockContext& ctx) {
    detail::bitonic_tile_body<T>(ctx, std::span<T>(buf), cfg, 2, tile, cmp);
  });
  // Larger stages: global substages down to tile scope, then a tile kernel.
  for (std::int64_t k = 2 * tile; k <= n; k *= 2) {
    for (std::int64_t j = k / 2; j >= tile; j /= 2) {
      launcher.launch("bitonic_global", shape, [&](gpusim::BlockContext& ctx) {
        detail::bitonic_global_body<T>(ctx, std::span<T>(buf), cfg, n, k, j, cmp);
      });
    }
    launcher.launch("bitonic_tile", shape, [&](gpusim::BlockContext& ctx) {
      detail::bitonic_tile_body<T>(ctx, std::span<T>(buf), cfg, k, k, cmp);
    });
  }

  std::copy(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(report.n), data.begin());
  report.microseconds = launcher.total_microseconds();
  report.totals = launcher.total_counters();
  report.phases = launcher.phase_counters();
  return report;
}

}  // namespace cfmerge::sort
