// Block sort: sorts one tile of u*E elements per thread block.
//
// Mirrors Thrust's blocksort stage: load the tile coalesced into shared
// memory, sort E elements per thread in registers (odd-even transposition),
// then log2(u) rounds of intra-block pair merging via merge path + the
// per-thread sequential shared-memory merge.  A round at run length r is
// one pair_split_search over the tile's list pairs of (r, r), the same
// split search the merge window runs on its one pair.  The stage is
// *identical* for the baseline and CF-Merge (the paper's modification is
// confined to the pairwise-merge kernels, and for its software parameters
// E is coprime with w, so the stride-E register loads/stores here are
// conflict-free by the classic heuristic).
//
// Ragged tiles: only the first m elements of a tile are real (a ragged
// input's last tile, the last tile of each segment).  As Thrust and CUB do
// with a partial tile, the block reads and writes only the real elements:
// the load is guarded (global [0, m) is copied, shared [m, u*E) is filled
// with the +inf sentinel in-kernel) and the store writes [0, m), so global
// memory past m is neither read nor written.  The block also works only
// where the real elements are: the thread sort runs over the warps that
// cover [0, m), and a round merges only the pairs whose B run starts below
// m — a pair whose B run is all padding is already merged (a stable
// A-first merge returns A then B).  The active pairs are a prefix, rounded
// up to whole warps; the skip depends on m alone, never on key values.
// The shared layout, the load's chunk rows and the barriers stay
// whole-tile, and a full tile (m = u*E) does exactly the work of the
// unclamped sort.
//
// Extension (not in the paper): `cf_rounds = true` applies the dual
// subsequence gather inside the later block-sort rounds too — those whose
// run pairs span at least a full warp.  Each such round stages the tile
// into a second shared buffer in the CF layout (conflict-free copy), then
// gathers.  The staging buffer doubles the block's shared memory, halving
// occupancy — bench/ablation_parameters quantifies the trade; this is the
// overhead-versus-conflicts tension the paper's Section 2 discusses.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
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
#include "sort/key_value.hpp"

namespace cfmerge::sort {

/// The real length m of each tile of a block-sort launch (no kernel reads
/// or writes global memory past m).  One segment (`lens` empty): the
/// array's first n elements are real, so tile b holds clamp(n - b*tile, 0,
/// tile); n is a kernel argument (CUB's merge sort takes num_items) and
/// charges nothing, and n < 0 means every tile is full.  The merge passes
/// of a one-segment plan clamp their descriptors with the same n
/// (detail::BatchTile::real).  Several segments: tile b holds lens[b], a
/// device array that each block reads.
struct TileFill {
  std::int64_t n = -1;
  std::vector<std::int32_t> lens;
};

/// Device body of the block sort for one block.  `data` is the full global
/// array (a multiple of u*E elements); block b sorts elements
/// [b*u*E, (b+1)*u*E), of which the first m are real (`fill`): it reads and
/// writes only those, and leaves the rest of its tile as it found it.
template <typename T, typename Cmp = std::less<T>>
void block_sort_body(gpusim::BlockContext& ctx, std::span<T> data, int e,
                     bool cf_rounds = false, Cmp cmp = Cmp{},
                     const TileCerts& certs = {}, const TileFill& fill = {}) {
  const int u = ctx.threads();
  const int w = ctx.lanes();
  if (!std::has_single_bit(static_cast<unsigned>(u)))
    throw std::invalid_argument("block_sort: u must be a power of two");
  const std::int64_t tile = static_cast<std::int64_t>(u) * e;
  const std::int64_t base = static_cast<std::int64_t>(ctx.block_id()) * tile;
  const std::int64_t m = !fill.lens.empty() ? fill.lens[static_cast<std::size_t>(ctx.block_id())]
                         : fill.n < 0       ? tile
                                            : std::clamp<std::int64_t>(fill.n - base, 0, tile);
  assert(m >= 0 && m <= tile);
  // Warps that hold the first `elems` elements of the tile, E per thread.
  const std::int64_t warp_elems = static_cast<std::int64_t>(w) * e;
  const auto warps_over = [warp_elems](std::int64_t elems) {
    return static_cast<int>((elems + warp_elems - 1) / warp_elems);
  };

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
  // Guarded: the slots past m take the sentinel in shared, reading nothing.
  ctx.phase("bsort.load");
  if (!fill.lens.empty())
    read_block_record(ctx, ctx.block_id(), static_cast<int>(sizeof(std::int32_t)));
  cfprims::exec_guarded_load(ctx, global, shmem, tile, m, padding_sentinel<T>::value(),
                             certs.stage, cfprims::UnitStep{}, cfprims::UnitStep{});
  ctx.barrier();

  // --- per-thread register sort -----------------------------------------
  // Thread i reads shared[i*E + j] in round j: a stride-E access, the
  // pattern the coprime-E heuristic keeps conflict-free.  Only the warps
  // over [0, m) sort: the padding past them is already in order.
  ctx.phase("bsort.thread_sort");
  assert(w <= gpusim::kMaxLanes);
  const int sort_warps = warps_over(m);
  const std::span<T> sort_regs =
      std::span<T>(regs).first(static_cast<std::size_t>(sort_warps * warp_elems));
  cfprims::exec_stride_gather(ctx, shmem, w, e, sort_warps, cfprims::kCopyCharge,
                              certs.stride, sort_regs);
  // Sort the E registers of each lane with the odd-even network.
  warp_network_sort(ctx, sort_warps, cfprims::same_warp, sort_regs, cmp);
  // Write the sorted runs back (same stride-E pattern).
  cfprims::exec_stride_scatter(ctx, shmem, w, e, sort_warps, cfprims::kCopyCharge,
                               certs.stride, std::span<const T>(sort_regs));
  ctx.barrier();

  // --- log2(u) intra-block merge rounds ----------------------------------
  for (std::int64_t run = e; run < tile; run *= 2) {
    // Pair p's B run starts at (2p + 1)*run: the pairs whose B run starts
    // below m are the active ones, a prefix.  Their threads round up to
    // whole warps, which w and u (powers of two) cut into whole pairs.
    const std::int64_t active_pairs = (m + run - 1) / (2 * run);
    const int warps = warps_over(active_pairs * 2 * run);
    const std::int64_t covered = warps * warp_elems;
    const std::int64_t pairs = covered / (2 * run);
    assert(covered % (2 * run) == 0 && covered <= tile);
    const std::span<T> round_regs = std::span<T>(regs).first(static_cast<std::size_t>(covered));

    ctx.phase("bsort.search");
    const FastDiv div_pair(2 * run);
    std::vector<ThreadSplit> splits;
    if (warps > 0)
      splits = pair_split_search(
          ctx, shmem, pairs, run, run, warps, cfprims::same_warp,
          [](std::int64_t pair_base, std::int64_t x) { return pair_base + x; },
          [run](std::int64_t pair_base, std::int64_t y) { return pair_base + run + y; }, cmp);

    ctx.phase("bsort.merge");
    const std::int64_t threads_per_pair = 2 * run / e;
    if (cf_rounds && threads_per_pair >= w && threads_per_pair % w == 0) {
      // CF round: stage every active pair into the CF layout, then gather.
      const auto pair = gather::PairLayout::cf(run, run, w, e);
      ctx.phase("bsort.cf_permute");
      // Copy linear -> CF layout; reads are contiguous (conflict free),
      // writes are contiguous runs through pi/rho (also conflict free).
      cfprims::exec_staged_copy(
          ctx, shmem, *staging, covered, /*cert=*/nullptr, cfprims::UnitStep{},
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
      for (std::int64_t pair_base = 0; pair_base < covered; pair_base += 2 * run) {
        const auto first_thread = static_cast<std::size_t>(pair_base / e);
        const int first_warp = static_cast<int>(first_thread) / w;
        cf_merge_pair(ctx, *staging, pair_base, run, run,
                      std::span<const ThreadSplit>(splits).subspan(first_thread, per_pair),
                      certs.gather, [first_warp](int vw) { return first_warp + vw; },
                      std::span<T>(regs).subspan(static_cast<std::size_t>(pair_base),
                                                 static_cast<std::size_t>(2 * run)),
                      cmp);
      }
    } else if (warps > 0) {
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
          [](int, std::int64_t x) { return x; }, kPairMergeCharge, round_regs, cmp);
    }
    ctx.barrier();

    // Write merged outputs back, stride-E.
    cfprims::exec_stride_scatter(ctx, shmem, w, e, warps, cfprims::kCopyCharge, certs.stride,
                                 std::span<const T>(round_regs));
    ctx.barrier();
  }

  // --- store the tile's real elements ----------------------------------
  ctx.phase("bsort.store");
  cfprims::exec_staged_copy(ctx, shmem, global, m, certs.stage, cfprims::UnitStep{},
                            cfprims::UnitStep{});
}

/// Enqueues the block-sort stage of a sort pipeline into `graph`: one
/// block per tile of `buf` (`num_tiles` of them), whose real lengths
/// `fill` gives when the graph runs (a plan may update them between runs),
/// `regs` registers per thread, and twice the tile's shared memory when
/// `cf_rounds` adds the staging buffer.
template <typename T>
void enqueue_block_sort(gpusim::KernelGraph& graph, std::vector<T>& buf, int num_tiles,
                        const TileFill& fill, int u, int e, int regs, bool cf_rounds,
                        const TileCerts& certs) {
  const std::size_t tile_bytes = static_cast<std::size_t>(u) * static_cast<std::size_t>(e) *
                                 sizeof(T) * (cf_rounds ? 2 : 1);
  graph.enqueue("block_sort", gpusim::LaunchShape{num_tiles, u, tile_bytes, regs},
                [&buf, &fill, e, cf_rounds, certs](gpusim::BlockContext& ctx) {
                  block_sort_body<T>(ctx, std::span<T>(buf), e, cf_rounds, std::less<T>{},
                                     certs, fill);
                });
}

}  // namespace cfmerge::sort
