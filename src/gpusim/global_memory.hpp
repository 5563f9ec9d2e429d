// Coalescing model for global memory.
//
// A warp-wide global access is split into one transaction per distinct
// `transaction_bytes`-aligned segment touched by the active lanes (the
// standard CUDA coalescing rule).  Fully coalesced access to contiguous
// 4-byte elements by a 32-lane warp therefore costs one 128-byte
// transaction; a stride-32 access costs 32.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "gpusim/shared_memory.hpp"  // kInactiveLane, kMaxLanes

namespace cfmerge::gpusim {

struct GlobalAccessCost {
  int transactions = 0;
  std::int64_t bytes = 0;
  int active_lanes = 0;
};

/// Cost of one warp-wide global access.  `byte_addrs` holds one byte address
/// per lane (use gpusim::kInactiveLane from shared_memory.hpp for idle
/// lanes); `elem_bytes` is the size of each element actually transferred.
///
/// Defined inline: one call per warp-wide global access puts this on the
/// simulator's hot path next to shared_access_cost.
[[nodiscard]] inline GlobalAccessCost global_access_cost(
    std::span<const std::int64_t> byte_addrs, int elem_bytes, int transaction_bytes) {
  if (elem_bytes <= 0 || transaction_bytes <= 0)
    throw std::invalid_argument("global_access_cost: sizes must be positive");
  if (byte_addrs.size() > static_cast<std::size_t>(kMaxLanes))
    throw std::invalid_argument("global_access_cost: too many lanes");

  // Expand into a fixed stack array, tracking whether the segment stream
  // comes out already sorted — it does for every coalesced or
  // positive-strided access, which skips the sort entirely.  Transaction
  // sizes are powers of two on every real device, turning the per-lane
  // 64-bit divisions into shifts (addresses are non-negative).
  const int tshift = (transaction_bytes & (transaction_bytes - 1)) == 0
                         ? std::countr_zero(static_cast<unsigned>(transaction_bytes))
                         : -1;
  std::array<std::int64_t, 2 * kMaxLanes> segments;
  int n = 0;
  bool sorted = true;
  std::int64_t prev = std::numeric_limits<std::int64_t>::min();
  GlobalAccessCost cost;
  for (const std::int64_t a : byte_addrs) {
    if (a == kInactiveLane) continue;
    assert(a >= 0 && "global byte address must be non-negative");
    ++cost.active_lanes;
    cost.bytes += elem_bytes;
    // An element may straddle a segment boundary; count both segments.
    const std::int64_t first = tshift >= 0 ? a >> tshift : a / transaction_bytes;
    const std::int64_t last = tshift >= 0 ? (a + elem_bytes - 1) >> tshift
                                          : (a + elem_bytes - 1) / transaction_bytes;
    for (std::int64_t s = first; s <= last; ++s) {
      sorted &= s >= prev;
      prev = s;
      segments[static_cast<std::size_t>(n++)] = s;
    }
  }
  if (n == 0) return cost;
  if (!sorted) std::sort(segments.begin(), segments.begin() + n);
  int transactions = 1;
  for (int i = 1; i < n; ++i)
    transactions += segments[static_cast<std::size_t>(i)] !=
                    segments[static_cast<std::size_t>(i - 1)];
  cost.transactions = transactions;
  return cost;
}

}  // namespace cfmerge::gpusim
