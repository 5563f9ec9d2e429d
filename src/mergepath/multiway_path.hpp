// k-dimensional merge path — multisequence selection generalizing the
// pairwise co-rank search of merge_path.hpp to k sorted sequences.
//
// For sorted sequences S_0..S_{k-1} and an output diagonal `diag` in
// [0, Σ|S_s|], multiway_path returns the unique co-rank vector (r_0..r_{k-1})
// with Σ r_s = diag such that the first diag elements of the stable k-way
// merge are exactly the first r_s elements of every S_s.  Stability follows
// the (value, sequence, index) total order: equal values resolve by sequence
// id (lower id first), then by position — for k = 2 this is precisely the
// A-before-B tie-breaking of merge_path, so the co-ranks coincide.
//
// Algorithm: for each sequence s, the merged position of element (s, m) is
//
//   pos(s, m) = m + Σ_{s' < s} ub_{s'}(v)  +  Σ_{s' > s} lb_{s'}(v),
//
// with v = S_s[m], ub = upper_bound count (equal elements of lower-id
// sequences precede), lb = lower_bound count (only strictly smaller elements
// of higher-id sequences precede).  pos(s, ·) is strictly increasing, so
// r_s = first m with pos(s, m) >= diag is a binary search with k-1 inner
// bound searches per probe — O(k^2 log^2 n) total, the classical
// multisequence-selection cost.
//
// This header is the host-side reference used by plan construction, tests
// and the verifier.  The simulated kernels do not transcribe it: they run a
// different algorithm with the same answer, the stride-halving selection of
// Varman et al. (sort::detail::warp_multiseq_select in
// sort/multiway_pass.hpp), which needs O(log n) dependent probe rounds per
// co-rank vector instead of O(k^2 log^2 n).  tests/test_multiway_sort.cpp
// checks the two against each other.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace cfmerge::mergepath {

namespace detail {

/// First index x in [0, n) with !(get(x) < v) (lower bound) or with
/// v < get(x) (upper bound), as a count of preceding elements.
template <typename T, typename Get, typename Cmp>
[[nodiscard]] std::int64_t bound_count(std::int64_t n, const T& v, bool upper, Get&& get,
                                       Cmp&& cmp) {
  std::int64_t lo = 0, hi = n;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    const bool take = upper ? !cmp(v, get(mid)) : cmp(get(mid), v);
    if (take)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace detail

/// Merged position of element (s, m) under the stable (value, seq, index)
/// order.  `get(s', i)` returns element i of sequence s'.
template <typename T, typename Get, typename Cmp>
[[nodiscard]] std::int64_t multiway_rank(std::span<const std::int64_t> sizes, int s,
                                         std::int64_t m, Get&& get, Cmp&& cmp) {
  const int k = static_cast<int>(sizes.size());
  const T v = get(s, m);
  std::int64_t pos = m;
  for (int t = 0; t < k; ++t) {
    if (t == s) continue;
    pos += detail::bound_count<T>(
        sizes[static_cast<std::size_t>(t)], v, /*upper=*/t < s,
        [&](std::int64_t i) { return get(t, i); }, cmp);
  }
  return pos;
}

/// Co-rank vector of `diag` across k sequences (see file comment).
template <typename T, typename Get, typename Cmp>
[[nodiscard]] std::vector<std::int64_t> multiway_path(std::int64_t diag,
                                                      std::span<const std::int64_t> sizes,
                                                      Get&& get, Cmp&& cmp) {
  const int k = static_cast<int>(sizes.size());
  std::int64_t total = 0;
  for (const std::int64_t n : sizes) total += n;
  assert(diag >= 0 && diag <= total);
  std::vector<std::int64_t> co(static_cast<std::size_t>(k), 0);
  for (int s = 0; s < k; ++s) {
    const std::int64_t ns = sizes[static_cast<std::size_t>(s)];
    // r_s = first m with pos(s, m) >= diag; pos(s, ·) strictly increases.
    std::int64_t lo = std::max<std::int64_t>(0, diag - (total - ns));
    std::int64_t hi = std::min(diag, ns);
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (multiway_rank<T>(sizes, s, mid, get, cmp) < diag)
        lo = mid + 1;
      else
        hi = mid;
    }
    co[static_cast<std::size_t>(s)] = lo;
  }
  return co;
}

/// Convenience overload over a list of spans with operator<.
template <typename T>
[[nodiscard]] std::vector<std::int64_t> multiway_path(
    std::int64_t diag, std::span<const std::span<const T>> seqs) {
  std::vector<std::int64_t> sizes(seqs.size());
  for (std::size_t s = 0; s < seqs.size(); ++s)
    sizes[s] = static_cast<std::int64_t>(seqs[s].size());
  return multiway_path<T>(
      diag, std::span<const std::int64_t>(sizes),
      [&](int s, std::int64_t i) { return seqs[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]; },
      std::less<T>{});
}

/// Splits the k-way merge into `parts` chunks of `chunk` output elements
/// (the last may be short).  Returns a flat (parts+1) x k co-rank table,
/// co[p*k + s]; row 0 is all zeros and row `parts` is the size vector.
template <typename T>
[[nodiscard]] std::vector<std::int64_t> multiway_partition(
    std::span<const std::span<const T>> seqs, std::int64_t chunk) {
  assert(chunk > 0);
  const auto k = static_cast<std::int64_t>(seqs.size());
  std::int64_t total = 0;
  for (const auto& s : seqs) total += static_cast<std::int64_t>(s.size());
  const std::int64_t parts = (total + chunk - 1) / chunk;
  std::vector<std::int64_t> co(static_cast<std::size_t>((parts + 1) * k));
  for (std::int64_t p = 0; p <= parts; ++p) {
    const std::vector<std::int64_t> r = multiway_path<T>(std::min(p * chunk, total), seqs);
    std::copy(r.begin(), r.end(), co.begin() + static_cast<std::ptrdiff_t>(p * k));
  }
  return co;
}

}  // namespace cfmerge::mergepath
