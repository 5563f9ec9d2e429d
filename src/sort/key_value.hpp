// Key-value sorting support (Thrust's sort_by_key counterpart).
//
// Pairs are sorted by key through the same kernels as plain keys; the
// padding sentinel generalizes through the padding_sentinel trait.
//
// Stability: the baseline variant is a stable mergesort (merge path breaks
// ties A-before-B and the per-thread sequential merge is stable).  CF-Merge
// sorts each thread's gathered E items with a transposition network over a
// *rotated* arrangement, so ties between a thread's A_i and B_i elements can
// flip — CF-Merge is stable only for distinct keys.  The paper sorts plain
// (indistinguishable) integers where the difference is unobservable.
//
// Padding: a ragged tile is padded to its full size with the top of the
// key order (+inf for floating keys, the maximum otherwise), so padding
// never sorts before a real key.  Padding exists only in shared memory: no
// kernel reads or writes global memory past the real elements (guarded
// loads fill the slots in-kernel, and stores write only the real ranks;
// sort/block_sort.hpp, sort/merge_pass.hpp).  The block sort merges only
// the run pairs that hold real elements, but the pair that straddles the
// real length and every merge window still merge the in-shared sentinels
// by value, so NaN keys have no specified position.  A sentinel pair ties
// with a real +inf pair, and CF-Merge's network is stable only for
// distinct keys, so it orders the pair equal to the sentinel last among
// its ties (padding_last) and the real pair is never pushed past the
// stored ranks.  The k-way cascade at k >= 4 can still lose one: its
// plan's level-0 sentinel tails sit ahead of a later list's real +inf
// pairs in the A-first order of the next level.
#pragma once

#include <limits>
#include <type_traits>

namespace cfmerge::sort {

/// A key-value pair ordered (and compared) by key only.
template <typename K, typename V>
struct KeyValue {
  using key_type = K;
  using value_type = V;

  K key;
  V value;

  friend bool operator<(const KeyValue& a, const KeyValue& b) { return a.key < b.key; }
  friend bool operator==(const KeyValue& a, const KeyValue& b) {
    return a.key == b.key;  // comparator semantics: equality of keys
  }
};

/// The element used to pad ragged inputs to full tiles: +infinity where the
/// type has one, so padding never sorts before a real +inf; else the maximum.
template <typename T>
struct padding_sentinel {
  static T value() {
    if constexpr (std::numeric_limits<T>::has_infinity) {
      return std::numeric_limits<T>::infinity();
    } else {
      return std::numeric_limits<T>::max();
    }
  }
};

template <typename K, typename V>
struct padding_sentinel<KeyValue<K, V>> {
  static KeyValue<K, V> value() { return {padding_sentinel<K>::value(), V{}}; }
};

/// `cmp` with ties broken against the padding: an element equal to the
/// sentinel in key and value sorts after every other element its key ties.
/// CF-Merge sorts a thread's gathered items over a rotated arrangement, so
/// without this a sentinel filled in shared could land ahead of a real pair
/// whose key is the sentinel's and push it past the stored ranks.  A real
/// pair equal to the sentinel is interchangeable with it, and plain keys
/// need no tie-break.
template <typename T, typename Cmp>
auto padding_last(Cmp cmp) {
  if constexpr (requires { typename T::key_type; typename T::value_type; }) {
    return [cmp](const T& a, const T& b) {
      if (cmp(a, b)) return true;
      if (cmp(b, a)) return false;
      const T top = padding_sentinel<T>::value();
      const auto padding = [&top](const T& x) {
        return x.key == top.key && x.value == top.value;
      };
      return padding(b) && !padding(a);
    };
  } else {
    return cmp;
  }
}

}  // namespace cfmerge::sort
