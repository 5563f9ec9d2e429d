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
// Padding: ragged inputs are padded with the top of the key order (+inf for
// floating keys, the maximum otherwise), so padding never sorts before a
// real key and the tail truncation drops only sentinels.  Two cases remain
// open: NaN keys have no specified position, and CF-Merge sort_by_key with
// real +inf keys can lose pairs — a sentinel pair ties with a real +inf
// pair, and CF-Merge is stable only for distinct keys, so a sentinel may
// land in front of it.  Clamping ragged tiles instead of padding by value
// would close both.
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

}  // namespace cfmerge::sort
