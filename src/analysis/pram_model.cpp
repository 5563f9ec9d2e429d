#include "analysis/pram_model.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace cfmerge::analysis {

namespace {
std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Rounds of a binary search over x + 1 candidates: bit_width(x).
std::int64_t search_rounds(std::int64_t x) {
  return std::bit_width(static_cast<std::uint64_t>(x));
}

/// Rounds of the lattice search's w-ary search over x + 1 sample
/// candidates: each round strides by the least s >= ceil(x / w) coprime to
/// w and leaves s candidates.
std::int64_t wary_rounds(std::int64_t x, int w) {
  std::int64_t rounds = 0;
  while (x > 0) {
    std::int64_t s = (x + w - 1) / w;
    while (std::gcd(s, static_cast<std::int64_t>(w)) != 1) ++s;
    x = s - 1;
    ++rounds;
  }
  return rounds;
}
}  // namespace

PramMergeKernel pram_merge_kernel(int w, int e, int u, std::int64_t la, std::int64_t lb) {
  if (w <= 0 || e <= 0 || u <= 0 || u % w != 0)
    throw std::invalid_argument("pram_merge_kernel: bad shape");
  if (la < 0 || lb < 0 || la + lb != static_cast<std::int64_t>(u) * e)
    throw std::invalid_argument("pram_merge_kernel: la + lb must equal u*E");

  const std::int64_t warps = u / w;
  const std::int64_t tile = static_cast<std::int64_t>(u) * e;

  PramMergeKernel k;
  // Staged copies touch each element exactly once; every warp-wide chunk of
  // w elements is one access (the last chunk of each list may be ragged).
  k.load_shared_accesses = ceil_div(la, w) + ceil_div(lb, w);
  // Two extra requests read the block's partition boundaries and its tile
  // descriptor.
  k.load_gmem_requests = k.load_shared_accesses + 2;
  k.gather_accesses = static_cast<std::int64_t>(e) * warps;
  k.output_scatter_accesses = static_cast<std::int64_t>(e) * warps;
  k.store_shared_accesses = ceil_div(tile, w);
  k.store_gmem_requests = ceil_div(tile, w);
  // Per warp, the lattice search (sort::lattice_split_search): the w-ary
  // search of lane 0's sample co-rank over at most ceil(range / E) + 1
  // samples (range <= min(la, lb)), the lockstep binary search of the other
  // lanes' sample co-ranks over at most w candidates each, and the scan of
  // at most min(E - 1, range) offsets.  The end co-ranks come by shuffle,
  // except the last lane's: its lone search is bracketed to E + 1 co-ranks
  // within the same range, at most bit_width(min(E, la, lb)) iterations.
  const std::int64_t range = std::min(la, lb);
  k.search_iterations_bound =
      warps * (wary_rounds((range + e - 1) / e, w) +
               search_rounds(std::min<std::int64_t>(w - 1, range)) +
               std::min<std::int64_t>(e - 1, range) +
               search_rounds(std::min<std::int64_t>(e, range)));
  return k;
}

std::int64_t pram_gather_steps(int e) { return e; }

std::int64_t pram_pass_shared_accesses(int w, int e, int u, int blocks) {
  // Independent of the split: load covers la + lb = tile elements.
  const std::int64_t warps = u / w;
  const std::int64_t tile = static_cast<std::int64_t>(u) * e;
  // Loads can split one extra chunk when la is ragged against w; use the
  // la = lb = tile/2 canonical form for the aggregate (exact when w | la).
  const std::int64_t per_block = ceil_div(tile, w)             // load (both lists)
                                 + 2 * e * warps               // gather + output
                                 + ceil_div(tile, w);          // store
  return per_block * blocks;
}

}  // namespace cfmerge::analysis
