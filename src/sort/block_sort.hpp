// Block sort: sorts one tile of u*E elements per thread block.
//
// Mirrors Thrust's blocksort stage: load the tile coalesced into shared
// memory, sort E elements per thread in registers (odd-even transposition),
// then log2(u) rounds of intra-block pair merging via merge path + the
// per-thread sequential shared-memory merge.  A round at run length r is
// one serial_merge_pairs over the tile's list pairs of (r, r), Thrust's
// merge, which the baseline merge window runs on its one pair.  The
// stage is *identical* for the baseline and CF-Merge (the paper's
// modification is confined to the pairwise-merge kernels, and for its
// software parameters E is coprime with w, so the stride-E register
// loads/stores here are conflict-free by the classic heuristic).
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
// Extension (not in the paper): `cf_rounds = true` runs the later
// block-sort rounds — those whose run pairs span at least a full warp — as
// the CF tile merge does, conflict free.  Once the serial rounds have
// sorted runs of wE/2, the block re-lays each real warp's pair of runs into
// its rho(A ∪ pi(B)) layout in place, once (it reads the rows into
// registers, at most E per thread, passes a barrier, and writes them
// through pi/rho), then runs the remaining rounds as the levels of one
// gather::CascadePlan over those runs (cf_cascade_levels: the lattice
// split search and the CF pair merge of every pair, then a rank scatter
// straight into the parent's layout), and writes the root back stride E.
// The block keeps one tile of shared memory; the re-layout's rows and
// barriers and the rank scatters are the overhead traded against the
// conflicts of the sequential rounds — bench/ablation_parameters quantifies
// it, the overhead-versus-conflicts tension the paper's Section 2
// discusses.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/multiway_schedule.hpp"
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
  const int real_warps = warps_over(m);
  const std::span<T> real_regs =
      std::span<T>(regs).first(static_cast<std::size_t>(real_warps * warp_elems));
  cfprims::exec_stride_gather(ctx, shmem, w, e, real_warps, cfprims::kCopyCharge,
                              certs.stride, real_regs);
  // Sort the E registers of each lane with the odd-even network.
  warp_network_sort(ctx, real_warps, cfprims::same_warp, real_regs, cmp);
  // Write the sorted runs back (same stride-E pattern).
  cfprims::exec_stride_scatter(ctx, shmem, w, e, real_warps, cfprims::kCopyCharge,
                               certs.stride, std::span<const T>(real_regs));
  ctx.barrier();

  // --- log2(u) intra-block merge rounds ----------------------------------
  // Serial rounds: all of them, or with cf_rounds those whose run pairs
  // span less than a warp (2*run < wE).
  const std::int64_t serial_end = cf_rounds ? warp_elems / 2 : tile;
  for (std::int64_t run = e; run < serial_end; run *= 2) {
    // Pair p's B run starts at (2p + 1)*run: the pairs whose B run starts
    // below m are the active ones, a prefix.  Their threads round up to
    // whole warps, which w and u (powers of two) cut into whole pairs.
    const std::int64_t active_pairs = (m + run - 1) / (2 * run);
    const int warps = warps_over(active_pairs * 2 * run);
    const std::int64_t covered = warps * warp_elems;
    assert(covered % (2 * run) == 0 && covered <= tile);
    const std::span<T> round_regs = std::span<T>(regs).first(static_cast<std::size_t>(covered));
    serial_merge_pairs(ctx, shmem, run, run, e, round_regs, "bsort.search", "bsort.merge", cmp);
    ctx.barrier();

    // Write merged outputs back, stride-E.
    cfprims::exec_stride_scatter(ctx, shmem, w, e, warps, cfprims::kCopyCharge, certs.stride,
                                 std::span<const T>(round_regs));
    ctx.barrier();
  }

  if (cf_rounds) {
    // The CF rounds are the levels of one cascade over the tile's runs of
    // wE/2: level-0 pair p is runs 2p and 2p+1, one warp's elements.  The
    // pairs over [0, m) take their runs, the rest are empty and skipped.
    const std::int64_t run = warp_elems / 2;
    std::vector<std::int64_t> seg_len(2 * static_cast<std::size_t>(ctx.warps()), 0);
    std::fill_n(seg_len.begin(), 2 * real_warps, run);
    const gather::CascadePlan plan(w, e, seg_len);
    const FastDiv div_pair(warp_elems);

    // Re-lay the real warps' pairs into their CF layout in place, once.
    // Row r = t / w of their real_warps*E rows is read by warp r mod (u/w),
    // lane t mod w — the rows of a block-wide staged copy, at most E per
    // thread — into regs[t]; after a barrier the same warp writes regs[t] to
    // its CF slot.  Reads are contiguous (conflict free), writes are contiguous
    // runs through pi/rho (also conflict free); one copy-chunk instruction
    // charge per row, as a staged copy.
    ctx.phase("bsort.cf_permute");
    const auto row_warp = [n = ctx.warps()](int row) { return row % n; };
    cfprims::exec_crs_gather(
        ctx, shmem, w, 1, real_warps * e, cfprims::kCopyCharge, /*cert=*/nullptr, row_warp,
        [w](int row, int lane, int) { return static_cast<std::int64_t>(row) * w + lane; },
        real_regs);
    ctx.barrier();
    cfprims::exec_crs_scatter(
        ctx, shmem, w, 1, real_warps * e, cfprims::CrsCharge{}, /*cert=*/nullptr, row_warp,
        [&](int row, int lane, int) {
          const std::int64_t pos = static_cast<std::int64_t>(row) * w + lane;
          const gather::CascadePair& pr =
              plan.pairs(0)[static_cast<std::size_t>(div_pair(pos))];
          const std::int64_t local = pos - pr.base;
          return local < run ? pr.pos_a(local) : pr.pos_b(local - run);
        },
        std::span<const T>(real_regs));
    ctx.barrier();

    cf_cascade_levels(ctx, shmem, plan, std::span<T>(regs), certs,
                      {"bsort.search", "bsort.merge", "bsort.cf_permute"}, cmp);
    // Write the root's merged ranks (the real warps') back, stride-E.
    assert(plan.padded_len() == static_cast<std::int64_t>(real_regs.size()));
    cfprims::exec_stride_scatter(ctx, shmem, w, e, real_warps, cfprims::kCopyCharge,
                                 certs.stride, std::span<const T>(real_regs));
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
/// `regs` registers per thread, and one tile of shared memory.
template <typename T>
void enqueue_block_sort(gpusim::KernelGraph& graph, std::vector<T>& buf, int num_tiles,
                        const TileFill& fill, int u, int e, int regs, bool cf_rounds,
                        const TileCerts& certs) {
  const std::size_t tile_bytes =
      static_cast<std::size_t>(u) * static_cast<std::size_t>(e) * sizeof(T);
  graph.enqueue("block_sort", gpusim::LaunchShape{num_tiles, u, tile_bytes, regs},
                [&buf, &fill, e, cf_rounds, certs](gpusim::BlockContext& ctx) {
                  block_sort_body<T>(ctx, std::span<T>(buf), e, cf_rounds, std::less<T>{},
                                     certs, fill);
                });
}

}  // namespace cfmerge::sort
