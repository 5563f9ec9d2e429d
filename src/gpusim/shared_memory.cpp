#include "gpusim/shared_memory.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace cfmerge::gpusim {

std::span<const int> shared_access_degrees(std::span<const std::int64_t> addrs, int banks,
                                           std::span<int> scratch) {
  if (banks <= 0 || banks > kMaxLanes)
    throw std::invalid_argument("shared_access_degrees: bank count out of range");
  if (static_cast<int>(scratch.size()) < banks)
    throw std::invalid_argument("shared_access_degrees: scratch too small");
  std::fill(scratch.begin(), scratch.begin() + banks, 0);

  // Same per-bank chain machinery as shared_access_cost's general path: one
  // O(w) pass threading each bank's distinct addresses through the lane
  // indices, so a lane only walks its own bank's chain (length = the degree
  // being computed) instead of the old quadratic distinct-collect.
  std::array<int, kMaxLanes> head;  // lane index of each bank's chain head
  std::array<int, kMaxLanes> next;  // next lane in the same bank's chain
  std::uint64_t used = 0;
  const int n = static_cast<int>(addrs.size());
  int active = 0;
  for (int i = 0; i < n; ++i) {
    const std::int64_t a = addrs[static_cast<std::size_t>(i)];
    if (a == kInactiveLane) continue;
    if (a < 0) throw std::invalid_argument("shared_access_degrees: negative shared address");
    if (++active > kMaxLanes)
      throw std::invalid_argument("shared_access_degrees: too many lanes");
    const auto b = static_cast<std::size_t>(static_cast<std::uint64_t>(a) %
                                            static_cast<std::uint64_t>(banks));
    const std::uint64_t bbit = std::uint64_t{1} << b;
    if ((used & bbit) == 0) {
      used |= bbit;
      head[b] = i;
      next[static_cast<std::size_t>(i)] = -1;
      scratch[b] = 1;
      continue;
    }
    int j = head[b];
    while (j != -1 && addrs[static_cast<std::size_t>(j)] != a)
      j = next[static_cast<std::size_t>(j)];
    if (j == -1) {
      next[static_cast<std::size_t>(i)] = head[b];
      head[b] = i;
      ++scratch[b];
    }
  }
  return scratch.subspan(0, static_cast<std::size_t>(banks));
}

}  // namespace cfmerge::gpusim
