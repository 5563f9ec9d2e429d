// Round schedule of the load-balanced dual subsequence gather (Algorithm 1).
//
// A thread block of u threads (u a multiple of w) holds two sorted lists in
// shared memory: A of size la and B of size lb, la + lb = uE, stored in the
// permuted layout  shmem = rho(A ∪ pi(B)).  Thread i owns merge-path
// subsequences A_i (offset a_i, size asz_i) and B_i (offset b_i = iE - a_i,
// size E - asz_i).  The gather proceeds in E rounds; in round j thread i
// reads exactly one element:
//
//   k   = a_i mod E
//   m   = (j - k) mod E
//   if m <  asz_i : element m of A_i            (A read in ascending order)
//   else          : element e = (k - j - 1) mod E of B_i   (descending)
//
// The w physical positions read by a warp in one round occupy w distinct
// banks (Lemma 1 for d = 1; Corollary 3 with rho for d > 1) — zero bank
// conflicts, which tests/test_schedule.cpp verifies exhaustively.
#pragma once

#include <cstdint>
#include <vector>

#include <span>
#include <utility>

#include "gather/permutation.hpp"
#include "mergepath/merge_path.hpp"
#include "numtheory/numtheory.hpp"

namespace cfmerge::gather {

/// Static shape of a gather: device/block geometry plus list sizes.
struct GatherShape {
  int w;            ///< warp size == number of banks
  int e;            ///< elements per thread (paper's E)
  int u;            ///< threads per block (multiple of w)
  std::int64_t la;  ///< size of the block's A list
  std::int64_t lb;  ///< size of the block's B list (la + lb == u*e)

  void validate() const;
  [[nodiscard]] std::int64_t total() const { return la + lb; }
  [[nodiscard]] int d() const { return static_cast<int>(numtheory::gcd(w, e)); }
};

/// One thread's gather read, fully resolved.
struct GatherRead {
  bool from_a;         ///< which list the element comes from
  std::int64_t offset;  ///< offset within that list
  std::int64_t raw;     ///< raw index in [ A | pi(B) ]
  std::int64_t phys;    ///< physical shared memory position rho(raw)
};

/// The per-block round schedule.  Construction is O(1); lookups are O(1)
/// per (thread, round) pair, suitable for use inside simulated kernels.
class RoundSchedule {
 public:
  /// `a_off[i]` / `a_size[i]` describe thread i's A_i (block-local offsets);
  /// spans must live at least as long as the schedule uses them — the
  /// schedule copies them.
  RoundSchedule(const GatherShape& shape, std::vector<std::int64_t> a_off,
                std::vector<std::int64_t> a_size);
  /// The same schedule over a given layout of the pair (la, lb): the CF
  /// layout, or the no-rho ablation's PairLayout::cf_no_rho.
  RoundSchedule(const GatherShape& shape, const PairLayout& layout,
                std::vector<std::int64_t> a_off, std::vector<std::int64_t> a_size);

  [[nodiscard]] const GatherShape& shape() const { return shape_; }
  /// The pair's layout, which every read goes through: rho(A ∪ pi(B)), or
  /// pi alone for the no-rho ablation.
  [[nodiscard]] const PairLayout& layout() const { return layout_; }

  /// The element thread `i` reads in round `j` (0 <= j < E).
  ///
  /// Inline: called once per lane per gather round — one of the simulator's
  /// hottest loops.  The two inner mod-E reductions operate on values
  /// already within (-E, E), so a conditional add replaces the division.
  [[nodiscard]] GatherRead read(int i, int j) const {
    const auto idx = static_cast<std::size_t>(i);
    const std::int64_t e = shape_.e;
    const std::int64_t k = a_off_[idx] % e;  // a_off is non-negative
    const std::int64_t jk = j - k;           // in (-E, E)
    const std::int64_t m = jk < 0 ? jk + e : jk;
    GatherRead r;
    if (m < a_size_[idx]) {
      r.from_a = true;
      r.offset = a_off_[idx] + m;
      r.raw = layout_.pi().raw_of_a(r.offset);
    } else {
      const std::int64_t kj = k - j - 1;  // in [-E, E-2]
      const std::int64_t eidx = kj < 0 ? kj + e : kj;
      r.from_a = false;
      r.offset = b_offset(i) + eidx;
      r.raw = layout_.pi().raw_of_b(r.offset);
    }
    r.phys = layout_.rho()(r.raw);
    return r;
  }

  /// Where thread i's x-th element of A_i sits in its register file after
  /// the gather: slot (a_i + x) mod E.
  [[nodiscard]] int register_slot_of_a(int i, std::int64_t x) const;
  /// Where thread i's y-th element of B_i sits: slot (a_i - 1 - y) mod E.
  [[nodiscard]] int register_slot_of_b(int i, std::int64_t y) const;

  [[nodiscard]] std::int64_t a_offset(int i) const {
    return a_off_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::int64_t a_size(int i) const {
    return a_size_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::int64_t b_offset(int i) const {
    return static_cast<std::int64_t>(i) * shape_.e - a_off_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::int64_t b_size(int i) const {
    return shape_.e - a_size_[static_cast<std::size_t>(i)];
  }

 private:
  GatherShape shape_;
  PairLayout layout_;
  std::vector<std::int64_t> a_off_;
  std::vector<std::int64_t> a_size_;
};

/// Builds the merge-path splits (a_off, a_size) for a block from the block's
/// A and B lists, via host-side co-rank search.  Provided for tests and
/// standalone use of the gather; kernels compute splits with the simulated
/// warp search instead.
template <typename T>
std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>> block_splits(
    const GatherShape& shape, std::span<const T> a, std::span<const T> b) {
  std::vector<std::int64_t> off(static_cast<std::size_t>(shape.u));
  std::vector<std::int64_t> size(static_cast<std::size_t>(shape.u));
  std::int64_t prev = 0;
  for (int i = 0; i < shape.u; ++i) {
    off[static_cast<std::size_t>(i)] = prev;
    const std::int64_t next =
        mergepath::merge_path<T>(static_cast<std::int64_t>(i + 1) * shape.e, a, b);
    size[static_cast<std::size_t>(i)] = next - prev;
    prev = next;
  }
  return {std::move(off), std::move(size)};
}

}  // namespace cfmerge::gather
