// Block sort: sorts one tile of u*E elements per thread block.
//
// Mirrors Thrust's blocksort stage: load the tile coalesced into shared
// memory, sort E elements per thread in registers (odd-even transposition),
// then log2(u) rounds of intra-block pair merging via merge path + the
// per-thread sequential shared-memory merge.  A round at run length r is
// one pair_split_search over the tile's tile / 2r list pairs of (r, r), the
// same split search the merge window runs on its one pair.  The stage is
// *identical* for the baseline and CF-Merge (the paper's modification is
// confined to the pairwise-merge kernels, and for its software parameters
// E is coprime with w, so the stride-E register loads/stores here are
// conflict-free by the classic heuristic).
//
// Extension (not in the paper): `cf_rounds = true` applies the dual
// subsequence gather inside the later block-sort rounds too — those whose
// run pairs span at least a full warp.  Each such round stages the tile
// into a second shared buffer in the CF layout (conflict-free copy), then
// gathers.  The staging buffer doubles the block's shared memory, halving
// occupancy — bench/ablation_parameters quantifies the trade; this is the
// overhead-versus-conflicts tension the paper's Section 2 discusses.
#pragma once

#include <bit>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/permutation.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/certs.hpp"
#include "sort/kernels.hpp"

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
  warp_network_sort(ctx, ctx.warps(), cfprims::same_warp, std::span<T>(regs), cmp);
  // Write the sorted runs back (same stride-E pattern).
  cfprims::exec_stride_scatter(ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge,
                               certs.stride, std::span<const T>(regs));
  ctx.barrier();

  // --- log2(u) intra-block merge rounds ----------------------------------
  for (std::int64_t run = e; run < tile; run *= 2) {
    ctx.phase("bsort.search");
    const FastDiv div_pair(2 * run);
    const std::vector<ThreadSplit> splits = pair_split_search(
        ctx, shmem, tile / (2 * run), run, run, ctx.warps(), cfprims::same_warp,
        [](std::int64_t pair_base, std::int64_t x) { return pair_base + x; },
        [run](std::int64_t pair_base, std::int64_t y) { return pair_base + run + y; }, cmp);

    ctx.phase("bsort.merge");
    const std::int64_t threads_per_pair = 2 * run / e;
    if (cf_rounds && threads_per_pair >= w && threads_per_pair % w == 0) {
      // CF round: stage every pair into the CF layout, then gather.
      const auto pair = gather::PairLayout::cf(run, run, w, e);
      ctx.phase("bsort.cf_permute");
      // Copy linear -> CF layout; reads are contiguous (conflict free),
      // writes are contiguous runs through pi/rho (also conflict free).
      cfprims::exec_staged_copy(
          ctx, shmem, *staging, tile, /*cert=*/nullptr, cfprims::UnitStep{},
          [&](std::int64_t pos) {
            const std::int64_t pair_base = div_pair(pos) * (2 * run);
            const std::int64_t local = pos - pair_base;
            return pair_base + (local < run ? pair.pos_a(local) : pair.pos_b(local - run));
          });
      ctx.barrier();
      ctx.phase("bsort.merge");
      // Each pair's threads gather and merge on the pair's own warps.  The
      // pair base is a multiple of w (2*run = u_pair*E, w | u_pair), so
      // per-pair bank residues match the whole-tile cf_gather proof.
      const auto per_pair = static_cast<std::size_t>(threads_per_pair);
      for (std::int64_t pair_base = 0; pair_base < tile; pair_base += 2 * run) {
        const auto first_thread = static_cast<std::size_t>(pair_base / e);
        const int first_warp = static_cast<int>(first_thread) / w;
        cf_merge_pair(ctx, *staging, pair_base, run, run,
                      std::span<const ThreadSplit>(splits).subspan(first_thread, per_pair),
                      certs.gather, [first_warp](int vw) { return first_warp + vw; },
                      std::span<T>(regs).subspan(static_cast<std::size_t>(pair_base),
                                                 static_cast<std::size_t>(2 * run)),
                      cmp);
      }
    } else {
      // Thread i's pair starts at the multiple of 2*run below i*E; its A
      // list there, its B list run further on.
      serial_merge_core<2>(
          ctx, shmem, 2, e,
          [&](int i, int s) {
            const std::int64_t list0 = div_pair(static_cast<std::int64_t>(i) * e) * (2 * run) +
                                       s * run;
            const ListWindow win = split_window(splits[static_cast<std::size_t>(i)], s);
            return ListWindow{list0 + win.begin, list0 + win.end};
          },
          [](int, std::int64_t x) { return x; }, kPairMergeCharge, std::span<T>(regs), cmp);
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

/// Enqueues the block-sort stage of a sort pipeline into `graph`: one
/// block per tile of `buf`, `regs` registers per thread, and twice the
/// tile's shared memory when `cf_rounds` adds the staging buffer.
template <typename T>
void enqueue_block_sort(gpusim::KernelGraph& graph, std::vector<T>& buf, int num_tiles, int u,
                        int e, int regs, bool cf_rounds, const TileCerts& certs) {
  const std::size_t tile_bytes = static_cast<std::size_t>(u) * static_cast<std::size_t>(e) *
                                 sizeof(T) * (cf_rounds ? 2 : 1);
  graph.enqueue("block_sort", gpusim::LaunchShape{num_tiles, u, tile_bytes, regs},
                 [&buf, e, cf_rounds, certs](gpusim::BlockContext& ctx) {
                   block_sort_body<T>(ctx, std::span<T>(buf), e, cf_rounds, std::less<T>{},
                                      certs);
                 });
}

}  // namespace cfmerge::sort
