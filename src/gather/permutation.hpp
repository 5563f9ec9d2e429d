// The two permutations of the load-balanced dual subsequence gather.
//
//  * pi  (Section 3.1): reverses the B list.  After reversal the elements of
//    each B_i are encountered in descending rounds, which resolves the
//    read conflicts between the A and B lists (Figure 7 shows the stalls
//    that occur without it).
//  * rho (Section 3.2): when d = gcd(w, E) > 1, the set R_j = {j + kE} is
//    not a complete residue system modulo w.  rho partitions the layout into
//    blocks of P = wE/d contiguous elements and circularly shifts partition
//    l forward by (l mod d) positions, realigning the access pattern so the
//    elements read in each round again occupy distinct banks (Corollary 3).
//    For d == 1, rho is the identity.
//
// PairLayout is the one place a list pair's shared-memory layout is
// decided: linear (A at [0, la), B after it) for the baseline, or
// rho(A ∪ pi(B)) for CF-Merge (pi only for the no-rho ablation).  The merge
// window, the CF block-sort staging copy, the cascade's pairs and the round
// schedule all take their positions from it.  These are pure index maps;
// see schedule.hpp for the full Algorithm 1 indexing.
#pragma once

#include <cstdint>

namespace cfmerge::gather {

/// pi: maps an offset within the B list to its "raw" index in the combined
/// layout [ A | reversed B ].  Raw index space is [0, la + lb).
class BReversal {
 public:
  BReversal(std::int64_t la, std::int64_t lb);

  [[nodiscard]] std::int64_t la() const { return la_; }
  [[nodiscard]] std::int64_t lb() const { return lb_; }

  /// Raw index of A element at offset `x` in [0, la).
  [[nodiscard]] std::int64_t raw_of_a(std::int64_t x) const { return x; }
  /// Raw index of B element at offset `y` in [0, lb).
  [[nodiscard]] std::int64_t raw_of_b(std::int64_t y) const { return la_ + (lb_ - 1 - y); }
  /// True when raw index `m` holds an A element.
  [[nodiscard]] bool is_a(std::int64_t m) const { return m < la_; }
  /// Inverse: offset within A (requires is_a(m)).
  [[nodiscard]] std::int64_t a_of_raw(std::int64_t m) const { return m; }
  /// Inverse: offset within B (requires !is_a(m)).
  [[nodiscard]] std::int64_t b_of_raw(std::int64_t m) const { return la_ + lb_ - 1 - m; }

 private:
  std::int64_t la_;
  std::int64_t lb_;
};

/// rho: the circular-shift permutation from raw indices to physical shared
/// memory positions.  Identity when gcd(w, E) == 1.
class CircularShift {
 public:
  /// `w` banks, `E` elements per thread, `total` elements in the layout
  /// (a multiple of w*E/gcd(w,E); for a thread block, total = u*E).
  CircularShift(int w, int e, std::int64_t total);

  [[nodiscard]] int w() const { return w_; }
  [[nodiscard]] int e() const { return e_; }
  [[nodiscard]] int d() const { return d_; }
  /// Partition size P = wE/d.
  [[nodiscard]] std::int64_t partition_size() const { return p_; }
  [[nodiscard]] std::int64_t total() const { return total_; }
  [[nodiscard]] bool identity() const { return d_ == 1; }

  /// Physical position of raw index `m`.  The map is evaluated once per
  /// lane in every simulated probe and staging loop, so the power-of-two
  /// case (every non-coprime (w, E) with both powers of two — the common
  /// non-identity configuration) replaces the three divisions with
  /// shifts/masks; both branches compute the same function.
  [[nodiscard]] std::int64_t operator()(std::int64_t m) const {
    if (d_ == 1) return m;
    if (pow2_) {
      const std::int64_t x = (m & p_mask_) + ((m >> p_shift_) & d_mask_);
      return (m & ~p_mask_) + (x >= p_ ? x - p_ : x);
    }
    const std::int64_t l = m / p_;
    const std::int64_t x = m % p_ + l % d_;
    return l * p_ + (x >= p_ ? x - p_ : x);
  }

  /// Inverse: raw index stored at physical position `pos`.
  [[nodiscard]] std::int64_t inverse(std::int64_t pos) const {
    if (d_ == 1) return pos;
    if (pow2_) {
      const std::int64_t x = (pos & p_mask_) - ((pos >> p_shift_) & d_mask_);
      return (pos & ~p_mask_) + (x < 0 ? x + p_ : x);
    }
    const std::int64_t l = pos / p_;
    const std::int64_t x = pos % p_ - l % d_;
    return l * p_ + (x < 0 ? x + p_ : x);
  }

 private:
  int w_;
  int e_;
  int d_;
  std::int64_t p_;
  std::int64_t total_;
  // Shift/mask fast path, valid when p_ and d_ are both powers of two.
  bool pow2_ = false;
  int p_shift_ = 0;
  std::int64_t p_mask_ = 0;
  std::int64_t d_mask_ = 0;
};

/// Shared-memory placement of one list pair (A, B): the linear layout, or
/// the CF layout rho(A ∪ pi(B)) with parameters (w, E).  A linear position
/// is one add; rho is evaluated only for a CF layout.
class PairLayout {
 public:
  /// Linear layout: A at [0, la), B at [la, la + lb).
  static PairLayout linear(std::int64_t la, std::int64_t lb) {
    return PairLayout(false, la, lb, 1, 1);
  }
  /// CF layout: shmem = rho(A ∪ pi(B)); la + lb a multiple of wE/gcd(w, E).
  static PairLayout cf(std::int64_t la, std::int64_t lb, int w, int e) {
    return PairLayout(true, la, lb, w, e);
  }
  /// CF layout with the circular shift disabled (ablation: pi only).
  static PairLayout cf_no_rho(std::int64_t la, std::int64_t lb) {
    return PairLayout(true, la, lb, 1, 1);
  }

  [[nodiscard]] bool is_cf() const { return cf_; }
  [[nodiscard]] std::int64_t la() const { return pi_.la(); }
  [[nodiscard]] std::int64_t lb() const { return pi_.lb(); }
  [[nodiscard]] std::int64_t size() const { return pi_.la() + pi_.lb(); }
  [[nodiscard]] const BReversal& pi() const { return pi_; }
  [[nodiscard]] const CircularShift& rho() const { return rho_; }
  /// Direction in which B's positions run when rho is the identity: +1
  /// linear, -1 reversed by pi (the staging copy's unit step).
  [[nodiscard]] int b_step() const { return cf_ ? -1 : 1; }

  /// Physical shared position of the A element at offset x.
  [[nodiscard]] std::int64_t pos_a(std::int64_t x) const {
    return cf_ ? rho_(pi_.raw_of_a(x)) : x;
  }
  /// Physical shared position of the B element at offset y.
  [[nodiscard]] std::int64_t pos_b(std::int64_t y) const {
    return cf_ ? rho_(pi_.raw_of_b(y)) : pi_.la() + y;
  }

 private:
  PairLayout(bool cf, std::int64_t la, std::int64_t lb, int w, int e)
      : cf_(cf), pi_(la, lb), rho_(w, e, la + lb) {}

  bool cf_;
  BReversal pi_;
  CircularShift rho_;
};

}  // namespace cfmerge::gather
