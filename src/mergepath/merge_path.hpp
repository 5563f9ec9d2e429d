// Merge path (co-rank) partitioning — Green et al.'s GPU Merge Path, the
// partitioning scheme used by Thrust's pairwise mergesort.
//
// For sorted sequences A (size na) and B (size nb) and an output diagonal
// `diag` in [0, na+nb], `merge_path(diag, ...)` returns the unique `a` such
// that the first `diag` elements of the (stable, A-before-B on ties) merge
// consist of exactly the first `a` of A and the first `diag - a` of B:
//
//    a = min { x in [lo, hi] :  A[x] > B[diag - 1 - x] fails ... }
//
// concretely the smallest a with  B[diag-1-a] >= A[a] boundary conditions —
// equivalently the binary search from CLRS Exercise 9.3-10 referenced by the
// paper.
//
// Two variants are provided:
//  * a host-side search over accessors (used to build partitions and by the
//    reference implementations), and
//  * a warp-synchronous lockstep search that issues simulated shared or
//    global accesses (used inside kernels); all lanes of a warp advance
//    together and idle lanes are masked, mirroring SIMT execution.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace cfmerge::mergepath {

/// Host-side co-rank search over arbitrary accessors.
/// `geta(i)`/`getb(i)` return the i-th element; `cmp` is strict less-than.
/// Ties are broken stably: equal elements of A precede elements of B.
template <typename GetA, typename GetB, typename Cmp>
[[nodiscard]] std::int64_t merge_path(std::int64_t diag, std::int64_t na, std::int64_t nb,
                                      GetA&& geta, GetB&& getb, Cmp&& cmp) {
  assert(diag >= 0 && diag <= na + nb);
  std::int64_t lo = std::max<std::int64_t>(0, diag - nb);
  std::int64_t hi = std::min(diag, na);
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    // Take A[mid] into the prefix unless B[diag-1-mid] < A[mid].
    if (cmp(getb(diag - 1 - mid), geta(mid)))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

/// Convenience overload over spans with operator<.
template <typename T>
[[nodiscard]] std::int64_t merge_path(std::int64_t diag, std::span<const T> a,
                                      std::span<const T> b) {
  return merge_path(
      diag, static_cast<std::int64_t>(a.size()), static_cast<std::int64_t>(b.size()),
      [&](std::int64_t i) { return a[static_cast<std::size_t>(i)]; },
      [&](std::int64_t i) { return b[static_cast<std::size_t>(i)]; }, std::less<T>{});
}

/// Splits the merge of A and B into `parts` contiguous output chunks of size
/// `chunk` (the last may be short).  Returns parts+1 co-ranks a_0..a_parts
/// with a_0 = 0 and a_parts = na; chunk p consumes A[a_p, a_{p+1}) and
/// B[diag_p - a_p, diag_{p+1} - a_{p+1}).
template <typename T>
[[nodiscard]] std::vector<std::int64_t> partition(std::span<const T> a, std::span<const T> b,
                                                  std::int64_t chunk) {
  assert(chunk > 0);
  const auto na = static_cast<std::int64_t>(a.size());
  const auto nb = static_cast<std::int64_t>(b.size());
  const std::int64_t total = na + nb;
  const std::int64_t parts = (total + chunk - 1) / chunk;
  std::vector<std::int64_t> co(static_cast<std::size_t>(parts) + 1);
  for (std::int64_t p = 0; p <= parts; ++p)
    co[static_cast<std::size_t>(p)] = merge_path(std::min(p * chunk, total), a, b);
  return co;
}

/// One lane's state in the lockstep warp search.
struct LaneSearch {
  std::int64_t diag = 0;  ///< output diagonal this lane resolves
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool active = false;

  void init(std::int64_t d, std::int64_t na, std::int64_t nb) {
    diag = d;
    lo = std::max<std::int64_t>(0, d - nb);
    hi = std::min(d, na);
    active = true;
  }
  [[nodiscard]] bool done() const { return !active || lo >= hi; }
};

/// Warp-synchronous lockstep co-rank search: all lanes run their binary
/// search in lockstep; each iteration issues two simulated accesses (one
/// probing A, one probing B) through `probe`, which receives lane-indexed
/// address arrays (kInactiveLane = idle) and must return the probed values
/// in the provided output spans.
///
/// `probe(a_addrs, a_vals, b_addrs, b_vals)` — addresses are *logical*
/// indices into A and B; the caller translates to physical layout and
/// charges the accesses.
template <typename T, typename Probe, typename Cmp>
void warp_corank_search(std::span<LaneSearch> lanes, Probe&& probe, Cmp&& cmp) {
  // Warps never exceed 64 lanes on any device this simulates; fixed stack
  // buffers keep the per-warp search allocation-free.
  constexpr std::size_t kMaxSearchLanes = 64;
  const std::size_t w = lanes.size();
  assert(w <= kMaxSearchLanes);
  std::array<std::int64_t, kMaxSearchLanes> a_addr_buf;
  std::array<std::int64_t, kMaxSearchLanes> b_addr_buf;
  std::array<std::int64_t, kMaxSearchLanes> mid_buf;
  std::array<T, kMaxSearchLanes> a_val_buf;
  std::array<T, kMaxSearchLanes> b_val_buf;
  const std::span<std::int64_t> a_addr(a_addr_buf.data(), w);
  const std::span<std::int64_t> b_addr(b_addr_buf.data(), w);
  const std::span<T> a_val(a_val_buf.data(), w);
  const std::span<T> b_val(b_val_buf.data(), w);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t l = 0; l < w; ++l) {
      if (lanes[l].done()) {
        a_addr[l] = -1;
        b_addr[l] = -1;
        continue;
      }
      any = true;
      const std::int64_t mid = lanes[l].lo + (lanes[l].hi - lanes[l].lo) / 2;
      mid_buf[l] = mid;
      a_addr[l] = mid;
      b_addr[l] = lanes[l].diag - 1 - mid;
    }
    if (!any) break;
    probe(std::span<const std::int64_t>(a_addr), std::span<T>(a_val),
          std::span<const std::int64_t>(b_addr), std::span<T>(b_val));
    for (std::size_t l = 0; l < w; ++l) {
      if (a_addr[l] < 0) continue;  // was done before the probe
      const std::int64_t mid = mid_buf[l];
      if (cmp(b_val[l], a_val[l]))
        lanes[l].hi = mid;
      else
        lanes[l].lo = mid + 1;
    }
  }
}

}  // namespace cfmerge::mergepath
