#include "worstcase/builder.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <random>
#include <stdexcept>

namespace cfmerge::worstcase {

MergeInput worst_case_merge_input(const Params& p, std::int64_t len) {
  std::vector<std::int32_t> sorted(static_cast<std::size_t>(len));
  std::iota(sorted.begin(), sorted.end(), 0);
  const std::vector<bool> pattern = tiled_pattern(p, len);
  auto [a, b] = split_by_pattern(sorted, pattern);
  return {std::move(a), std::move(b)};
}

void validate_sort_input_shape(const Params& p, int u, std::int64_t n) {
  p.validate();
  const std::int64_t tile = static_cast<std::int64_t>(u) * p.e;
  if (u <= 0 || u % p.w != 0)
    throw std::invalid_argument("worst_case_sort_input: u must be a multiple of w");
  if (n <= 0 || n % tile != 0)
    throw std::invalid_argument("worst_case_sort_input: n must be a multiple of u*E");
  const std::int64_t tiles = n / tile;
  if (!std::has_single_bit(static_cast<std::uint64_t>(tiles)))
    throw std::invalid_argument("worst_case_sort_input: n/(u*E) must be a power of two");
  const std::int64_t period = 2LL * p.w * p.e;
  if (tile % period != 0)
    throw std::invalid_argument(
        "worst_case_sort_input: u*E must be a multiple of 2wE (u a multiple of 2w)");
}

std::int64_t sort_input_length(std::int64_t n, int u, int e) {
  const std::int64_t tile = static_cast<std::int64_t>(u) * e;
  const std::int64_t tiles = std::max<std::int64_t>((n + tile - 1) / tile, 1);
  return static_cast<std::int64_t>(std::bit_ceil(static_cast<std::uint64_t>(tiles))) * tile;
}

namespace {

/// Recursively distributes the sorted values of a segment to its two child
/// runs according to the adversarial pattern, bottoming out at tile leaves.
void build_segment(const Params& p, const std::vector<bool>& period, std::int64_t tile,
                   std::vector<std::int32_t>&& values, std::int64_t base,
                   std::vector<std::int32_t>& out, std::mt19937_64& rng) {
  const auto len = static_cast<std::int64_t>(values.size());
  if (len == tile) {
    std::shuffle(values.begin(), values.end(), rng);
    std::copy(values.begin(), values.end(),
              out.begin() + static_cast<std::ptrdiff_t>(base));
    return;
  }
  const auto plen = static_cast<std::int64_t>(period.size());
  std::vector<std::int32_t> a, b;
  a.reserve(static_cast<std::size_t>(len / 2));
  b.reserve(static_cast<std::size_t>(len / 2));
  for (std::int64_t k = 0; k < len; ++k)
    (period[static_cast<std::size_t>(k % plen)] ? a : b)
        .push_back(values[static_cast<std::size_t>(k)]);
  build_segment(p, period, tile, std::move(a), base, out, rng);
  build_segment(p, period, tile, std::move(b), base + len / 2, out, rng);
}

}  // namespace

std::vector<std::int32_t> worst_case_sort_input(const Params& p, int u, std::int64_t n,
                                                std::uint64_t leaf_seed) {
  validate_sort_input_shape(p, u, n);
  const std::int64_t tile = static_cast<std::int64_t>(u) * p.e;
  std::vector<std::int32_t> sorted(static_cast<std::size_t>(n));
  std::iota(sorted.begin(), sorted.end(), 0);
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  std::mt19937_64 rng(leaf_seed);
  const std::vector<bool> period = warp_pair_pattern(p);
  build_segment(p, period, tile, std::move(sorted), 0, out, rng);
  return out;
}

}  // namespace cfmerge::worstcase
