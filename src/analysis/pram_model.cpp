#include "analysis/pram_model.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cfmerge::analysis {

namespace {
std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

std::int64_t log2_ceil(std::int64_t x) {
  std::int64_t l = 0;
  while ((std::int64_t{1} << l) < x) ++l;
  return l;
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
  // Each lockstep search runs until the widest lane finishes: at most
  // ceil(log2(range + 1)) iterations with range <= min(la, lb, tile);
  // two searches (start and end diagonal) per warp.
  k.search_iterations_bound = 2 * warps * (log2_ceil(std::min({la, lb, tile}) + 1) + 1);
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
