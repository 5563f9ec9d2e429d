// Building blocks shared by the simulated sort kernels.
//
//  * TileLayout          — where a block's A/B lists live in shared memory
//                          (linear for the baseline, rho(A ∪ pi(B)) for
//                          CF-Merge).
//  * load_tile/store_tile — staged, coalesced global <-> shared copies, and
//                          their certified closed-form twins
//                          load/store_tile_affine.
//  * warp_split_search   — one lockstep merge-path search per warp over the
//                          w thread start diagonals plus the next thread's,
//                          producing every thread's split (a_i, |A_i|, b_i,
//                          |B_i|); decided on uncharged reads, charged as
//                          the device's start and end probe rows.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gather/permutation.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/cost_model.hpp"

namespace cfmerge::verify {
struct CfCertificate;
}

namespace cfmerge::sort {

/// Shared-memory placement of a block's A and B lists.
class TileLayout {
 public:
  /// Linear layout: A at [0, la), B at [la, la+lb).
  static TileLayout linear(std::int64_t la, std::int64_t lb) {
    return TileLayout(false, la, lb, 1, 1);
  }
  /// CF layout: shmem = rho(A ∪ pi(B)) with parameters (w, E).
  static TileLayout cf(std::int64_t la, std::int64_t lb, int w, int e) {
    return TileLayout(true, la, lb, w, e);
  }
  /// CF layout with the circular shift disabled (ablation: pi only).
  static TileLayout cf_no_rho(std::int64_t la, std::int64_t lb) {
    return TileLayout(true, la, lb, 1, 1);
  }

  [[nodiscard]] bool is_cf() const { return cf_; }
  [[nodiscard]] std::int64_t la() const { return pi_.la(); }
  [[nodiscard]] std::int64_t lb() const { return pi_.lb(); }
  [[nodiscard]] const gather::BReversal& pi() const { return pi_; }
  [[nodiscard]] const gather::CircularShift& rho() const { return rho_; }

  /// Physical shared position of the A element at offset x.
  [[nodiscard]] std::int64_t pos_a(std::int64_t x) const {
    return cf_ ? rho_(pi_.raw_of_a(x)) : x;
  }
  /// Physical shared position of the B element at offset y.
  [[nodiscard]] std::int64_t pos_b(std::int64_t y) const {
    return cf_ ? rho_(pi_.raw_of_b(y)) : pi_.la() + y;
  }

 private:
  TileLayout(bool cf, std::int64_t la, std::int64_t lb, int w, int e)
      : cf_(cf), pi_(la, lb), rho_(w, e, la + lb) {}

  bool cf_;
  gather::BReversal pi_;
  gather::CircularShift rho_;
};

/// Copies `count` elements, with `src(t)` giving the global element index and
/// `dst(t)` the shared position of logical element t.  All warps participate;
/// warp k handles lanes [k*w, k*w + w) of each block-wide chunk of u
/// elements.  Global reads are coalesced when `src` is affine; only each
/// warp's first request pays the DRAM latency (streaming).
template <typename T, typename GV, typename Src, typename Dst>
void load_tile(gpusim::BlockContext& ctx, GV& global, gpusim::SharedTile<T>& shmem,
               std::int64_t count, Src&& src, Dst&& dst) {
  const int w = ctx.lanes();
  const int u = ctx.threads();
  assert(w <= gpusim::kMaxLanes);
  std::array<std::int64_t, gpusim::kMaxLanes> gaddr;
  std::array<std::int64_t, gpusim::kMaxLanes> saddr;
  std::array<T, gpusim::kMaxLanes> vals{};
  const std::span<T> vspan(vals.data(), static_cast<std::size_t>(w));
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    bool first = true;
    for (std::int64_t base = static_cast<std::int64_t>(warp) * w; base < count;
         base += u) {
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t t = base + lane;
        const bool active = t < count;
        gaddr[static_cast<std::size_t>(lane)] = active ? src(t) : gpusim::kInactiveLane;
        saddr[static_cast<std::size_t>(lane)] = active ? dst(t) : gpusim::kInactiveLane;
      }
      ctx.charge_compute(warp, cost::kCopyChunkInstrs);
      global.gather(warp, std::span<const std::int64_t>(gaddr.data(), vspan.size()),
                    vspan, /*dependent=*/first);
      shmem.scatter(warp, std::span<const std::int64_t>(saddr.data(), vspan.size()),
                    vspan, /*dependent=*/false);
      first = false;
    }
  }
}

/// Mirror image of load_tile: shared -> global.
template <typename T, typename GV, typename Src, typename Dst>
void store_tile(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem, GV& global,
                std::int64_t count, Src&& src, Dst&& dst) {
  const int w = ctx.lanes();
  const int u = ctx.threads();
  assert(w <= gpusim::kMaxLanes);
  std::array<std::int64_t, gpusim::kMaxLanes> gaddr;
  std::array<std::int64_t, gpusim::kMaxLanes> saddr;
  std::array<T, gpusim::kMaxLanes> vals{};
  const std::span<T> vspan(vals.data(), static_cast<std::size_t>(w));
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    bool first = true;
    for (std::int64_t base = static_cast<std::int64_t>(warp) * w; base < count;
         base += u) {
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t t = base + lane;
        const bool active = t < count;
        saddr[static_cast<std::size_t>(lane)] = active ? src(t) : gpusim::kInactiveLane;
        gaddr[static_cast<std::size_t>(lane)] = active ? dst(t) : gpusim::kInactiveLane;
      }
      ctx.charge_compute(warp, cost::kCopyChunkInstrs);
      shmem.gather(warp, std::span<const std::int64_t>(saddr.data(), vspan.size()),
                   vspan, /*dependent=*/first);
      global.scatter(warp, std::span<const std::int64_t>(gaddr.data(), vspan.size()),
                     vspan, /*dependent=*/false);
      first = false;
    }
  }
}

/// Exact division by a loop-invariant divisor via one 64-bit multiply and
/// shift (round-up reciprocal: M = ceil(2^64 / d), q = hi64(n * M)).  Exact
/// for every non-negative dividend and divisor below 2^32 — which covers
/// all in-tile indices — because the representation error n*(M*d - 2^64) is
/// below d * 2^-32 * 2^32 = d, too small to push n*M/2^64 past the next
/// integer.  The kernel bodies divide by the pair width once per element in
/// their splits/permute loops; hoisting one of these replaces the hardware
/// 64-bit divide (tens of cycles) with a multiply.
struct FastDiv {
  std::uint64_t mul = 0;
  std::uint64_t d = 1;
  FastDiv() = default;
  explicit FastDiv(std::int64_t divisor)
      : mul(~std::uint64_t{0} / static_cast<std::uint64_t>(divisor) + 1),
        d(static_cast<std::uint64_t>(divisor)) {
    assert(divisor > 0 && divisor < (std::int64_t{1} << 32));
  }
  [[nodiscard]] std::int64_t operator()(std::int64_t n) const {
    assert(n >= 0 && n < (std::int64_t{1} << 32));
    // d == 1 has mul == 0 (the reciprocal wraps); the select keeps the
    // operator total without a branch.
    const auto q = static_cast<std::int64_t>(
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(n)) * mul) >> 64);
    return d == 1 ? n : q;
  }
};

/// A unit-step affine address map t -> base + step*t (step in {+1, -1}):
/// the address families of every tile staging copy whose layout shift is
/// the identity.  Probed off a position lambda by affine_map_of.
struct AffineMap {
  std::int64_t base = 0;
  int step = 1;
};

/// Derives the AffineMap of `pos` over [0, count).  The caller guarantees
/// `pos` is affine with unit step on that domain (checked in debug builds);
/// gate on the layout's shift being the identity before calling.
template <typename Pos>
[[nodiscard]] AffineMap affine_map_of(Pos&& pos, std::int64_t count) {
  AffineMap m;
  if (count > 0) m.base = pos(0);
  if (count > 1) m.step = static_cast<int>(pos(1) - m.base);
  assert(count <= 1 || m.step == 1 || m.step == -1);
  assert(count <= 0 || pos(count - 1) == m.base + m.step * (count - 1));
  return m;
}

/// load_tile for a unit-step affine destination map and a contiguous
/// ascending global source starting at view element `gsrc0`.  With a
/// cf_stage certificate and no per-lane observers (bulk_global), the copy
/// charges each warp chunk in closed form — unit-stride warp windows hit
/// distinct banks at any base, which the certificate proves — and moves the
/// tile with one std::copy / reverse_copy.  Counters and chains are
/// bit-identical to load_tile (pinned by tests/test_bulk_charge.cpp).
template <typename T, typename GV>
void load_tile_affine(gpusim::BlockContext& ctx, GV& global,
                      gpusim::SharedTile<T>& shmem, std::int64_t count,
                      std::int64_t gsrc0, AffineMap dst,
                      const verify::CfCertificate* cert) {
  if (count <= 0) return;
  assert(dst.step == 1 || dst.step == -1);
  if (cert == nullptr || !ctx.bulk_global()) {
    load_tile(ctx, global, shmem, count,
              [gsrc0](std::int64_t t) { return gsrc0 + t; },
              [dst](std::int64_t t) { return dst.base + dst.step * t; });
    return;
  }
  const int w = ctx.lanes();
  const int u = ctx.threads();
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    const std::int64_t first_el = static_cast<std::int64_t>(warp) * w;
    if (first_el >= count) continue;
    int chunks = 0;
    bool first = true;
    for (std::int64_t base = first_el; base < count; base += u) {
      const std::int64_t active = std::min<std::int64_t>(w, count - base);
      global.charge_run(warp, gsrc0 + base, active, /*dependent=*/first,
                        /*is_write=*/false);
      first = false;
      ++chunks;
    }
    ctx.charge_compute(warp,
                       static_cast<std::uint64_t>(chunks) * cost::kCopyChunkInstrs);
    ctx.charge_shared_crs(warp, gpusim::CrsAccessDesc{.rounds = chunks,
                                                      .active_lanes = w,
                                                      .base = dst.base,
                                                      .stride = dst.step,
                                                      .is_write = true});
  }
  const auto g = global.raw();
  const std::span<T> tile = shmem.raw();
  assert(gsrc0 >= 0 && gsrc0 + count <= static_cast<std::int64_t>(g.size()));
  const auto src_begin = g.begin() + static_cast<std::ptrdiff_t>(gsrc0);
  const auto src_end = src_begin + static_cast<std::ptrdiff_t>(count);
  if (dst.step == 1) {
    assert(dst.base >= 0 &&
           dst.base + count <= static_cast<std::int64_t>(tile.size()));
    std::copy(src_begin, src_end, tile.begin() + static_cast<std::ptrdiff_t>(dst.base));
  } else {
    const std::int64_t lo = dst.base - count + 1;
    assert(lo >= 0 && dst.base < static_cast<std::int64_t>(tile.size()));
    std::reverse_copy(src_begin, src_end,
                      tile.begin() + static_cast<std::ptrdiff_t>(lo));
  }
}

/// Mirror image of load_tile_affine: shared (unit-step affine source map)
/// -> contiguous ascending global starting at view element `gdst0`.
template <typename T, typename GV>
void store_tile_affine(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                       GV& global, std::int64_t count, AffineMap src,
                       std::int64_t gdst0, const verify::CfCertificate* cert) {
  if (count <= 0) return;
  assert(src.step == 1 || src.step == -1);
  if (cert == nullptr || !ctx.bulk_global()) {
    store_tile(ctx, shmem, global, count,
               [src](std::int64_t t) { return src.base + src.step * t; },
               [gdst0](std::int64_t t) { return gdst0 + t; });
    return;
  }
  const int w = ctx.lanes();
  const int u = ctx.threads();
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    const std::int64_t first_el = static_cast<std::int64_t>(warp) * w;
    if (first_el >= count) continue;
    int chunks = 0;
    for (std::int64_t base = first_el; base < count; base += u) {
      const std::int64_t active = std::min<std::int64_t>(w, count - base);
      global.charge_run(warp, gdst0 + base, active, /*dependent=*/false,
                        /*is_write=*/true);
      ++chunks;
    }
    ctx.charge_compute(warp,
                       static_cast<std::uint64_t>(chunks) * cost::kCopyChunkInstrs);
    // The first chunk's shared gather is on the chain (dependent), the rest
    // pipeline — exactly store_tile's `first` flag.
    ctx.charge_shared_crs(warp, gpusim::CrsAccessDesc{.rounds = chunks,
                                                      .dependent_rounds = 1,
                                                      .active_lanes = w,
                                                      .base = src.base,
                                                      .stride = src.step,
                                                      .is_write = false});
  }
  const std::span<const T> tile = std::as_const(shmem).raw();
  const auto g = global.raw();
  assert(gdst0 >= 0 && gdst0 + count <= static_cast<std::int64_t>(g.size()));
  const auto dst_begin = g.begin() + static_cast<std::ptrdiff_t>(gdst0);
  if (src.step == 1) {
    assert(src.base >= 0 &&
           src.base + count <= static_cast<std::int64_t>(tile.size()));
    const auto src_begin = tile.begin() + static_cast<std::ptrdiff_t>(src.base);
    std::copy(src_begin, src_begin + static_cast<std::ptrdiff_t>(count), dst_begin);
  } else {
    const std::int64_t lo = src.base - count + 1;
    assert(lo >= 0 && src.base < static_cast<std::int64_t>(tile.size()));
    const auto src_begin = tile.begin() + static_cast<std::ptrdiff_t>(lo);
    std::reverse_copy(src_begin, src_begin + static_cast<std::ptrdiff_t>(count),
                      dst_begin);
  }
}

/// One thread's merge assignment within a block-local pair of lists.
struct ThreadSplit {
  std::int64_t a_off = 0;   ///< a_i: offset of A_i within the pair's A list
  std::int64_t a_size = 0;  ///< |A_i|
  std::int64_t b_off = 0;   ///< b_i
  std::int64_t b_size = 0;  ///< |B_i|
};

/// List geometry of one lane of the lockstep search: each lane may work on
/// its own pair of lists (block sort rounds have several pairs per warp).
/// The shared-position translators are passed to warp_split_search as
/// inlineable callables, not stored per lane.
struct LanePair {
  std::int64_t na = 0;    ///< size of the lane's A list
  std::int64_t nb = 0;    ///< size of the lane's B list
  std::int64_t diag = 0;  ///< the lane's start diagonal within its pair
};

/// Merge-path splits of one warp's threads, from one lockstep search.
///
/// `pairs` holds w + 1 lanes: the warp's w threads plus the thread after
/// them (the next warp's first thread, or one past the tile).  Merge-path
/// partitions are contiguous, so thread l's end diagonal is thread l+1's
/// start diagonal and its end co-rank is thread l+1's start co-rank — one
/// search over w + 1 start diagonals resolves both ends of every split.  A
/// lane whose successor starts a new list pair (diag 0) ends at its own
/// pair end instead (co-rank na); both of those searches are empty.
///
/// Accounting: the device runs two lockstep searches per warp, start
/// diagonals then end diagonals, each round one kSearchIterInstrs, an A
/// probe row and a B probe row.  The host decides every lane on uncharged
/// peek() reads, then reports those rows through the charged, audited
/// SharedTile::charge_row: the start rows are lanes [0, w) of each round,
/// the end rows lanes [1, w].  The end search of lane l is lane l+1's
/// start search step for step (or empty on both sides), so the shifted
/// rows are exactly what a second search would issue — without assuming
/// the comparison is monotone over the data.
///
/// `pos_a(lane, x)` / `pos_b(lane, y)` translate list offsets of lane
/// 0..w to physical shared positions.  Writes splits[0, w).
template <typename T, typename PosA, typename PosB, typename Cmp>
void warp_split_search(gpusim::BlockContext& ctx, int warp, gpusim::SharedTile<T>& shmem,
                       std::span<const LanePair> pairs, PosA&& pos_a, PosB&& pos_b, Cmp cmp,
                       std::span<ThreadSplit> splits) {
  constexpr std::size_t kRow = gpusim::kMaxLanes + 1;
  // Longest search supported: list pairs below 2^32 elements per side, far
  // beyond any shared-memory tile.
  constexpr int kMaxSearchRounds = 32;
  assert(pairs.size() >= 2 && pairs.size() <= kRow);
  const std::size_t w = pairs.size() - 1;
  assert(splits.size() >= w);

  std::array<std::int64_t, kRow> lo;
  std::array<std::int64_t, kRow> hi;
  std::int64_t widest = 0;
  for (std::size_t j = 0; j <= w; ++j) {
    lo[j] = std::max<std::int64_t>(0, pairs[j].diag - pairs[j].nb);
    hi[j] = std::min(pairs[j].diag, pairs[j].na);
    widest = std::max(widest, hi[j] - lo[j]);
  }
  const int max_rounds = std::bit_width(static_cast<std::uint64_t>(widest));
  if (max_rounds > kMaxSearchRounds)
    throw std::length_error("warp_split_search: list pair exceeds 2^32 elements");

  // Round r's probe positions of lane j, kInactiveLane once it is done.
  std::array<std::int64_t, kMaxSearchRounds * kRow> rows_a;
  std::array<std::int64_t, kMaxSearchRounds * kRow> rows_b;
  int start_rounds = 0;  // rounds with a probing lane in [0, w)
  int end_rounds = 0;    // rounds with a probing lane in [1, w]
  for (int r = 0; r < max_rounds; ++r) {
    std::int64_t* ra = rows_a.data() + static_cast<std::size_t>(r) * kRow;
    std::int64_t* rb = rows_b.data() + static_cast<std::size_t>(r) * kRow;
    for (std::size_t j = 0; j <= w; ++j) {
      if (lo[j] >= hi[j]) {
        ra[j] = gpusim::kInactiveLane;
        rb[j] = gpusim::kInactiveLane;
        continue;
      }
      if (j < w) start_rounds = r + 1;
      if (j > 0) end_rounds = r + 1;
      const std::int64_t mid = lo[j] + (hi[j] - lo[j]) / 2;
      ra[j] = pos_a(static_cast<int>(j), mid);
      rb[j] = pos_b(static_cast<int>(j), pairs[j].diag - 1 - mid);
      // Take A[mid] into the prefix unless B[diag-1-mid] < A[mid].
      if (cmp(shmem.peek(rb[j]), shmem.peek(ra[j])))
        hi[j] = mid;
      else
        lo[j] = mid + 1;
    }
  }

  const auto report = [&](int rounds, std::size_t first_lane) {
    for (int r = 0; r < rounds; ++r) {
      const std::size_t row = static_cast<std::size_t>(r) * kRow + first_lane;
      ctx.charge_compute(warp, cost::kSearchIterInstrs);
      shmem.charge_row(warp, std::span<const std::int64_t>(rows_a.data() + row, w),
                       /*is_write=*/false, /*dependent=*/true, /*scattered=*/true);
      shmem.charge_row(warp, std::span<const std::int64_t>(rows_b.data() + row, w),
                       /*is_write=*/false, /*dependent=*/true, /*scattered=*/true);
    }
  };
  report(start_rounds, 0);
  report(end_rounds, 1);

  for (std::size_t l = 0; l < w; ++l) {
    const LanePair& p = pairs[l];
    const bool pair_end = pairs[l + 1].diag == 0;
    assert(pair_end || (pairs[l + 1].na == p.na && pairs[l + 1].nb == p.nb &&
                        pairs[l + 1].diag > p.diag));
    const std::int64_t end_diag = pair_end ? p.na + p.nb : pairs[l + 1].diag;
    const std::int64_t end_co = pair_end ? p.na : lo[l + 1];
    ThreadSplit& s = splits[l];
    s.a_off = lo[l];
    s.a_size = end_co - lo[l];
    s.b_off = p.diag - lo[l];
    s.b_size = end_diag - p.diag - s.a_size;
  }
}

}  // namespace cfmerge::sort
