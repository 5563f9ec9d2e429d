// Block sort: sorts one tile of u*E elements per thread block.
//
// Mirrors Thrust's blocksort stage: load the tile coalesced into shared
// memory, sort E elements per thread in registers (odd-even transposition),
// then log2(u) rounds of intra-block pair merging via merge path + the
// per-thread sequential shared-memory merge.  The stage is *identical* for
// the baseline and CF-Merge (the paper's modification is confined to the
// pairwise-merge kernels, and for its software parameters E is coprime with
// w, so the stride-E register loads/stores here are conflict-free by the
// classic heuristic).
//
// Extension (not in the paper): `cf_rounds = true` applies the dual
// subsequence gather inside the later block-sort rounds too — those whose
// run pairs span at least a full warp.  Each such round stages the tile
// into a second shared buffer in the CF layout (conflict-free copy), then
// gathers.  The staging buffer doubles the block's shared memory, halving
// occupancy — bench/ablation_parameters quantifies the trade; this is the
// overhead-versus-conflicts tension the paper's Section 2 discusses.
#pragma once

#include <array>
#include <bit>
#include <functional>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/certs.hpp"
#include "sort/kernels.hpp"
#include "sort/odd_even.hpp"
#include <memory>

#include "gather/schedule.hpp"
#include "sort/serial_merge.hpp"

namespace cfmerge::sort {

/// Device body of the block sort for one block.  `data` is the full global
/// array (a multiple of u*E elements); block b sorts elements
/// [b*u*E, (b+1)*u*E).
template <typename T, typename Cmp = std::less<T>>
void block_sort_body(gpusim::BlockContext& ctx, std::span<T> data, int e,
                     bool cf_rounds = false, Cmp cmp = Cmp{},
                     const TileCerts& certs = {}) {
  const int u = ctx.threads();
  const int w = ctx.lanes();
  if (!std::has_single_bit(static_cast<unsigned>(u)))
    throw std::invalid_argument("block_sort: u must be a power of two");
  const std::int64_t tile = static_cast<std::int64_t>(u) * e;
  const std::int64_t base = static_cast<std::int64_t>(ctx.block_id()) * tile;

  gpusim::GlobalView<T> global(ctx, data.subspan(static_cast<std::size_t>(base),
                                                 static_cast<std::size_t>(tile)),
                               base);
  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(tile));
  // Staging buffer for the CF rounds (allocated only when used; costs
  // occupancy through the shared-memory budget).
  std::unique_ptr<gpusim::SharedTile<T>> staging;
  if (cf_rounds) staging = std::make_unique<gpusim::SharedTile<T>>(
      ctx, static_cast<std::size_t>(tile));
  std::vector<T> regs(static_cast<std::size_t>(tile));

  // --- load tile (coalesced reads, linear shared writes) ----------------
  ctx.phase("bsort.load");
  cfprims::exec_staged_copy(ctx, global, shmem, tile, certs.stage, cfprims::UnitStep{},
                            cfprims::UnitStep{});
  ctx.barrier();

  // --- per-thread register sort -----------------------------------------
  // Thread i reads shared[i*E + j] in round j: a stride-E access, the
  // pattern the coprime-E heuristic keeps conflict-free.
  ctx.phase("bsort.thread_sort");
  assert(w <= gpusim::kMaxLanes);
  cfprims::exec_stride_gather(ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge,
                              certs.stride, std::span<T>(regs));
  // Sort the E registers of each lane with the odd-even network.
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    for (int lane = 0; lane < w; ++lane) {
      std::span<T> r(regs.data() + static_cast<std::size_t>(warp * w + lane) *
                                       static_cast<std::size_t>(e),
                     static_cast<std::size_t>(e));
      network_sort_result(r, cmp);
    }
    ctx.charge_compute(warp, static_cast<std::uint64_t>(odd_even_network_size(e)) *
                                 cost::kCompareExchangeInstrs);
  }
  // Write the sorted runs back (same stride-E pattern).
  cfprims::exec_stride_scatter(ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge,
                               certs.stride, std::span<const T>(regs));
  ctx.barrier();

  // --- log2(u) intra-block merge rounds ----------------------------------
  for (std::int64_t run = e; run < tile; run *= 2) {
    ctx.phase("bsort.search");
    const FastDiv div_pair(2 * run);
    std::vector<ThreadSplit> splits(static_cast<std::size_t>(u));
    // Lane w is the next warp's first thread (one past the tile for the
    // last warp); warp_split_search reads its start as lane w-1's end.
    std::array<LanePair, gpusim::kMaxLanes + 1> pairs;
    std::array<std::int64_t, gpusim::kMaxLanes + 1> pbase;
    const auto pos_a = [&pbase](int lane, std::int64_t x) {
      return pbase[static_cast<std::size_t>(lane)] + x;
    };
    const auto pos_b = [&pbase, run](int lane, std::int64_t y) {
      return pbase[static_cast<std::size_t>(lane)] + run + y;
    };
    for (int warp = 0; warp < ctx.warps(); ++warp) {
      for (int lane = 0; lane <= w; ++lane) {
        const std::int64_t out0 = static_cast<std::int64_t>(warp * w + lane) * e;
        const std::int64_t pair_base = div_pair(out0) * (2 * run);
        pbase[static_cast<std::size_t>(lane)] = pair_base;
        pairs[static_cast<std::size_t>(lane)] = {run, run, out0 - pair_base};
      }
      warp_split_search(ctx, warp, shmem,
                        std::span<const LanePair>(pairs.data(), static_cast<std::size_t>(w) + 1),
                        pos_a, pos_b, cmp,
                        std::span<ThreadSplit>(splits).subspan(
                            static_cast<std::size_t>(warp * w), static_cast<std::size_t>(w)));
    }

    ctx.phase("bsort.merge");
    const std::int64_t threads_per_pair = 2 * run / e;
    if (cf_rounds && threads_per_pair >= w && threads_per_pair % w == 0) {
      // CF round: stage every pair into the CF layout, then gather.
      gather::BReversal pair_pi(run, run);
      gather::CircularShift pair_rho(w, e, 2 * run);
      ctx.phase("bsort.cf_permute");
      // Copy linear -> CF layout; reads are contiguous (conflict free),
      // writes are contiguous runs through pi/rho (also conflict free).
      cfprims::exec_staged_copy(
          ctx, shmem, *staging, tile, /*cert=*/nullptr, cfprims::UnitStep{},
          [&](std::int64_t pos) {
            const std::int64_t pair_base = div_pair(pos) * (2 * run);
            const std::int64_t local = pos - pair_base;
            const std::int64_t raw = local < run ? pair_pi.raw_of_a(local)
                                                 : pair_pi.raw_of_b(local - run);
            return pair_base + pair_rho(raw);
          });
      ctx.barrier();
      ctx.phase("bsort.merge");
      // One RoundSchedule per pair; gather every warp of the pair.
      const std::int64_t pairs_count = tile / (2 * run);
      for (std::int64_t pr = 0; pr < pairs_count; ++pr) {
        const std::int64_t pair_base = pr * 2 * run;
        const int u_pair = static_cast<int>(threads_per_pair);
        std::vector<std::int64_t> a_off(static_cast<std::size_t>(u_pair));
        std::vector<std::int64_t> a_size(static_cast<std::size_t>(u_pair));
        const int first_thread = static_cast<int>(pair_base / e);
        for (int t = 0; t < u_pair; ++t) {
          const auto& sp = splits[static_cast<std::size_t>(first_thread + t)];
          a_off[static_cast<std::size_t>(t)] = sp.a_off;
          a_size[static_cast<std::size_t>(t)] = sp.a_size;
        }
        gather::GatherShape shape{w, e, u_pair, run, run};
        gather::RoundSchedule sched(shape, std::move(a_off), std::move(a_size));
        // The pair base is a multiple of w (2*run = u_pair*E, w | u_pair),
        // so per-pair bank residues match the whole-tile cf_gather proof.
        const int first_warp = first_thread / w;
        cfprims::exec_cf_gather(
            ctx, *staging, sched, pair_base, certs.gather,
            [first_warp](int vw) { return first_warp + vw; },
            std::span<T>(regs).subspan(static_cast<std::size_t>(pair_base),
                                       static_cast<std::size_t>(2 * run)));
      }
      // Data-oblivious register merge per thread.
      for (int warp = 0; warp < ctx.warps(); ++warp) {
        for (int lane = 0; lane < w; ++lane) {
          std::span<T> r(regs.data() + static_cast<std::size_t>(warp * w + lane) *
                                           static_cast<std::size_t>(e),
                         static_cast<std::size_t>(e));
          network_sort_result(r, cmp);
        }
        ctx.charge_compute(warp, static_cast<std::uint64_t>(odd_even_network_size(e)) *
                                     cost::kCompareExchangeInstrs);
      }
    } else {
      std::vector<MergeLaneDesc> descs(static_cast<std::size_t>(u));
      for (int i = 0; i < u; ++i) {
        const std::int64_t out0 = static_cast<std::int64_t>(i) * e;
        const std::int64_t pair_base = div_pair(out0) * (2 * run);
        const auto& s = splits[static_cast<std::size_t>(i)];
        // Bake the pair bases into the offsets so the position translators
        // are the identity (linear layout).
        descs[static_cast<std::size_t>(i)] = {pair_base + s.a_off, s.a_size,
                                              pair_base + run + s.b_off, s.b_size};
      }
      warp_serial_merge(ctx, shmem, std::span<const MergeLaneDesc>(descs), e,
                        [](std::int64_t x) { return x; }, [](std::int64_t y) { return y; },
                        std::span<T>(regs), cmp);
    }
    ctx.barrier();

    // Write merged outputs back, stride-E.
    cfprims::exec_stride_scatter(ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge,
                                 certs.stride, std::span<const T>(regs));
    ctx.barrier();
  }

  // --- store tile --------------------------------------------------------
  ctx.phase("bsort.store");
  cfprims::exec_staged_copy(ctx, shmem, global, tile, certs.stage, cfprims::UnitStep{},
                            cfprims::UnitStep{});
}

}  // namespace cfmerge::sort
