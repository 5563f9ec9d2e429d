// Worst-case input builders.
//
//  * worst_case_merge_input — two sorted lists whose merge hits the
//    adversarial splits in every warp (one merge level; used by the
//    Theorem 8 predicted-vs-measured experiments).
//  * worst_case_sort_input  — a full permutation of 0..n-1 built top-down
//    through the mergesort pass tree so that *every* global merge pass of
//    the baseline sort sees the worst-case interleaving (the engineering
//    approach of Berney & Sitchinava IPDPS'20, with the generalized
//    Section 4 pattern).  Block-sort leaves are shuffled with a seeded RNG.
#pragma once

#include <cstdint>
#include <vector>

#include "worstcase/interleave.hpp"
#include "worstcase/sequence.hpp"

namespace cfmerge::worstcase {

struct MergeInput {
  std::vector<std::int32_t> a;
  std::vector<std::int32_t> b;
};

/// Inputs for one pairwise merge of total output length `len` (a multiple of
/// 2wE); values are 0..len-1.
[[nodiscard]] MergeInput worst_case_merge_input(const Params& p, std::int64_t len);

/// Full-sort adversarial permutation of 0..n-1.
/// Requirements: n = tiles * u * e with tiles a power of two (>= 1), u a
/// power-of-two multiple of both w and 2w/...; precisely: u*e must be a
/// multiple of 2wE so every pass's pattern tiles block windows exactly.
[[nodiscard]] std::vector<std::int32_t> worst_case_sort_input(const Params& p, int u,
                                                              std::int64_t n,
                                                              std::uint64_t leaf_seed = 0x5eed);

/// Checks the preconditions of worst_case_sort_input; throws on violation.
void validate_sort_input_shape(const Params& p, int u, std::int64_t n);

/// The length worst_case_sort_input takes for a request of `n` elements:
/// ⌈n / (u·E)⌉ full tiles, at least one, rounded up to a power of two.
[[nodiscard]] std::int64_t sort_input_length(std::int64_t n, int u, int e);

}  // namespace cfmerge::worstcase
