// Bank conflict model for shared memory.
//
// Shared memory is organized into `w` banks; element address `a` resides in
// bank `a mod w` (the paper's Section 2 layout: a w-row matrix in
// column-major order).  When the lanes of a warp access shared memory
// simultaneously, the access is replayed once per *distinct* address in the
// most contended bank; lanes reading the same address are served by a single
// broadcast (paper footnote 4).
//
//   cost(access)      = max over banks b of |distinct addresses in b|  (>= 1)
//   conflicts(access) = cost - 1
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>

namespace cfmerge::gpusim {

/// Sentinel for a lane that does not participate in an access.
inline constexpr std::int64_t kInactiveLane = -1;

/// Warps wider than this are not supported (all real GPUs use w <= 64);
/// the accounting hot path sizes its fixed scratch arrays off it.
inline constexpr int kMaxLanes = 64;

struct SharedAccessCost {
  /// Cycles the SM shared unit is busy (1 for a conflict-free access).
  int cycles = 0;
  /// Extra replays caused by bank conflicts (cycles - 1, or 0 if no lane
  /// was active).
  int conflicts = 0;
  /// Number of active lanes.
  int active_lanes = 0;
};

/// Costs of the two overlapping rows of one (n + 1)-lane row: `first` is
/// lanes [0, n), `shifted` is lanes [1, n] (see shared_access_cost_pair).
struct SharedAccessPairCost {
  SharedAccessCost first;
  SharedAccessCost shifted;
};

namespace detail {

/// Addresses the bitmap dedup can index: [0, 2^16).  Shared tiles that
/// large never occur in the shipped kernels; larger addresses take the
/// per-bank chain walk instead.
inline constexpr std::int64_t kDedupDomain = std::int64_t{1} << 16;

/// True for an idle lane or an address the bitmap dedup can index.  One
/// unsigned compare: the idle sentinel -1 wraps to 0, every other negative
/// address to at least 2^64 - 1, far above the domain.
[[nodiscard]] constexpr bool dedup_indexable(std::int64_t a) {
  return static_cast<std::uint64_t>(a) + 1 <= static_cast<std::uint64_t>(kDedupDomain);
}

/// The thread-local "address seen" bitmap of BankDedup, all zero between
/// dedups.
[[nodiscard]] inline std::uint64_t* dedup_bitmap() {
  static thread_local std::uint64_t seen[kDedupDomain / 64];  // zero-init
  return seen;
}

/// Branch-free per-bank distinct-address counts of one access.  Scattered
/// probe addresses (merge-path searches, sequential merges) are data
/// dependent, so a per-bank chain walk suffers an unpredictable branch per
/// lane; marking "address already seen" in a 64K-bit map makes the whole
/// per-lane loop straight-line selects (~2.5x faster per call on the
/// simulator's profile).  The constructor marks and counts the active lanes;
/// while the object lives, degree_with() prices one more lane against them;
/// the destructor wipes the marks again by re-walking the lanes, so the
/// map's all-zero invariant holds across calls.
template <int kBanks>
class BankDedup {
 public:
  /// `act[0, m)`: the active addresses, all in [0, kDedupDomain).
  BankDedup(const std::array<std::int32_t, kMaxLanes>& act, std::size_t m, int banks)
      : act_(act), m_(m), nb_(kBanks > 0 ? kBanks : banks) {
    cnt_.fill(0);
    for (std::size_t i = 0; i < m_; ++i) {
      const auto a = static_cast<std::uint32_t>(act_[i]);
      const std::uint64_t bit = std::uint64_t{1} << (a & 63u);
      const std::uint64_t word = map_[a >> 6];
      const int fresh = (word & bit) == 0;
      map_[a >> 6] = word | bit;
      const std::size_t b = bank_of(a);
      const int c = cnt_[b] + fresh;
      cnt_[b] = static_cast<std::int8_t>(c);
      max_degree_ = c > max_degree_ ? c : max_degree_;
    }
  }
  ~BankDedup() {
    for (std::size_t i = 0; i < m_; ++i) map_[static_cast<std::uint32_t>(act_[i]) >> 6] = 0;
  }
  BankDedup(const BankDedup&) = delete;
  BankDedup& operator=(const BankDedup&) = delete;

  /// Most distinct addresses in one bank (0 when no lane is active).
  [[nodiscard]] int max_degree() const { return max_degree_; }
  /// max_degree() of the access extended by one more lane reading `a`
  /// (in [0, kDedupDomain)); `a` is not marked.
  [[nodiscard]] int degree_with(std::int64_t a) const {
    const auto u = static_cast<std::uint32_t>(a);
    const int fresh = ((map_[u >> 6] >> (u & 63u)) & 1u) == 0;
    const int c = cnt_[bank_of(u)] + fresh;
    return c > max_degree_ ? c : max_degree_;
  }

 private:
  [[nodiscard]] std::size_t bank_of(std::uint32_t a) const {
    return static_cast<std::size_t>(a % static_cast<std::uint32_t>(kBanks > 0 ? kBanks : nb_));
  }

  const std::array<std::int32_t, kMaxLanes>& act_;
  std::size_t m_;
  int nb_;
  std::uint64_t* map_ = dedup_bitmap();
  std::array<std::int8_t, kMaxLanes> cnt_;
  int max_degree_ = 0;
};

/// Compacts the active lanes of `addrs` into `act` and returns their count;
/// clears `indexable` if some lane is neither idle nor in the dedup domain.
[[nodiscard]] inline std::size_t compact_active(std::span<const std::int64_t> addrs,
                                                std::array<std::int32_t, kMaxLanes>& act,
                                                bool& indexable) {
  std::size_t m = 0;
  for (const std::int64_t a : addrs) {
    act[m] = static_cast<std::int32_t>(a);
    m += static_cast<std::size_t>(a != kInactiveLane);
    indexable &= dedup_indexable(a);
  }
  return m;
}

/// The cost computation, templated on the bank count.  kBanks > 0 bakes the
/// count into the instruction stream: the bank modulo becomes a compile-time
/// mask (every real device is power-of-two) and the screening loop gets a
/// fixed trip count when the span covers exactly one warp, so the
/// associative reductions (add / min / max / or) autovectorize.  kBanks == 0
/// is the runtime fallback — the *same* code path with `banks` as a runtime
/// value, so the non-power-of-two case cannot drift from the masked one:
/// the unsigned modulo maps the -1 idle sentinel to well-defined garbage in
/// [0, banks) whose contribution `act == 0` zeroes out.
template <int kBanks>
[[nodiscard]] inline SharedAccessCost shared_access_cost_impl(
    std::span<const std::int64_t> addrs, int banks) {
  const int nb = kBanks > 0 ? kBanks : banks;
  const auto bank_of = [nb](std::int64_t a) {
    return static_cast<std::uint64_t>(a) % static_cast<std::uint64_t>(nb);
  };

  SharedAccessCost cost;
  const std::size_t n = addrs.size();
  // Pass 1 — O(w) screen over a 64-bit bank-occupancy bitmask
  // (banks <= kMaxLanes = 64).  "No bank collision" falls out afterwards
  // as popcount(seen) == active: every active lane sets exactly one bit,
  // so the counts match iff all active lanes landed in distinct banks.
  std::uint64_t seen = 0;
  // Addresses are >= 0 and the idle sentinel is -1: compared as unsigned,
  // idle lanes become huge and never win the min; compared as signed they
  // never win the max.  `bad` flags any other negative address, which
  // must not pass the screen.  All reductions run unconditionally on
  // every lane.
  std::uint64_t mn_u = std::numeric_limits<std::uint64_t>::max();
  std::int64_t mx = std::numeric_limits<std::int64_t>::min();
  std::uint64_t bad = 0;
  int active = 0;
  const auto screen = [&](auto count) {
    for (std::size_t l = 0; l < static_cast<std::size_t>(count); ++l) {
      const std::int64_t a = addrs[l];
      const std::uint64_t act = a != kInactiveLane;
      active += static_cast<int>(act);
      mn_u = std::min(mn_u, static_cast<std::uint64_t>(a));
      mx = std::max(mx, a);
      bad |= static_cast<std::uint64_t>(a < kInactiveLane);
      seen |= act << bank_of(a);
    }
  };
  if constexpr (kBanks > 0) {
    // One full warp (the hot shape): fixed trip count for the vectorizer.
    if (n == static_cast<std::size_t>(kBanks))
      screen(std::integral_constant<int, kBanks>{});
    else
      screen(n);
  } else {
    screen(n);
  }
  cost.active_lanes = active;
  if (active == 0) return cost;

  // Fast path (the common case for every conflict-free kernel): no bank
  // is hit by two lanes, or all lanes broadcast one address (min == max)
  // — one cycle.
  if (bad == 0 &&
      (std::popcount(seen) == active || static_cast<std::int64_t>(mn_u) == mx)) {
    cost.cycles = 1;
    return cost;
  }

  // General path, first attempt: the branch-free bitmap dedup.  Addresses
  // outside its domain (negative or at least 2^16) fall through to the
  // chains.
  {
    std::array<std::int32_t, kMaxLanes> act;
    bool indexable = true;
    const std::size_t m = compact_active(addrs, act, indexable);
    if (indexable) {
      const BankDedup<kBanks> dedup(act, m, banks);
      cost.cycles = dedup.max_degree();
      cost.conflicts = cost.cycles - 1;
      return cost;
    }
  }

  // General path, fallback: one pass with per-bank chains threaded through
  // the lane indices — no counting sort and no per-bank zero-init (`used`
  // gates the first touch of each bank).  Each lane walks its bank's chain
  // of previously seen *distinct* addresses (same-address lanes are served
  // by one broadcast); the walk is linear in the per-bank degree, which the
  // replay cost this function is computing already bounds.
  std::array<int, kMaxLanes> head;  // lane index of each bank's chain head
  std::array<int, kMaxLanes> next;  // next lane in the same bank's chain
  std::array<int, kMaxLanes> cnt;   // distinct addresses per bank
  std::uint64_t used = 0;
  int max_degree = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = addrs[i];
    if (a == kInactiveLane) continue;
    if (a < 0) throw std::invalid_argument("shared_access_cost: negative shared address");
    const auto b = static_cast<std::size_t>(bank_of(a));
    const std::uint64_t bbit = std::uint64_t{1} << b;
    if ((used & bbit) == 0) {
      used |= bbit;
      head[b] = static_cast<int>(i);
      next[i] = -1;
      cnt[b] = 1;
      continue;
    }
    int j = head[b];
    while (j != -1 && addrs[static_cast<std::size_t>(j)] != a)
      j = next[static_cast<std::size_t>(j)];
    if (j == -1) {
      next[i] = head[b];
      head[b] = static_cast<int>(i);
      max_degree = std::max(max_degree, ++cnt[b]);
    }
  }
  cost.cycles = max_degree;
  cost.conflicts = max_degree - 1;
  return cost;
}

/// The pair computation behind shared_access_cost_pair: dedups the shared
/// lanes [1, n) once, then prices lane 0 and lane n against them.  Rows
/// with an address outside the dedup domain take two single-row calls.
template <int kBanks>
[[nodiscard]] inline SharedAccessPairCost shared_access_cost_pair_impl(
    std::span<const std::int64_t> row, int banks) {
  const std::size_t n = row.size() - 1;
  const std::int64_t lead = row[0];
  const std::int64_t tail = row[n];
  std::array<std::int32_t, kMaxLanes> act;
  bool indexable = dedup_indexable(lead) && dedup_indexable(tail);
  const std::size_t m = compact_active(row.subspan(1, n - 1), act, indexable);
  if (!indexable)
    return {shared_access_cost_impl<kBanks>(row.first(n), banks),
            shared_access_cost_impl<kBanks>(row.last(n), banks)};

  const BankDedup<kBanks> dedup(act, m, banks);
  const auto with_edge = [&](std::int64_t a) {
    SharedAccessCost c;
    const bool edge = a != kInactiveLane;
    c.active_lanes = static_cast<int>(m) + static_cast<int>(edge);
    if (c.active_lanes == 0) return c;
    c.cycles = edge ? dedup.degree_with(a) : dedup.max_degree();
    c.conflicts = c.cycles - 1;
    return c;
  };
  return {with_edge(lead), with_edge(tail)};
}

/// The computation behind shared_access_cost_distinct: a per-bank lane
/// histogram with a running maximum.  With every active address distinct,
/// a bank's lane count is its distinct-address count, so there is nothing
/// to dedup and no address domain to respect.  Idle lanes land in the
/// well-defined garbage bank of the unsigned modulo and add zero to it.
template <int kBanks>
[[nodiscard]] inline SharedAccessCost shared_access_cost_distinct_impl(
    std::span<const std::int64_t> addrs, int banks) {
  const auto nb = static_cast<std::uint64_t>(kBanks > 0 ? kBanks : banks);
  std::array<std::int8_t, (kBanks > 0 ? kBanks : kMaxLanes)> cnt{};
  int active = 0;
  int max_degree = 0;
  std::uint64_t bad = 0;
  for (const std::int64_t a : addrs) {
    const int act = a != kInactiveLane;
    bad |= static_cast<std::uint64_t>(a < kInactiveLane);
    const auto b = static_cast<std::size_t>(static_cast<std::uint64_t>(a) % nb);
    const int c = cnt[b] + act;
    cnt[b] = static_cast<std::int8_t>(c);
    max_degree = c > max_degree ? c : max_degree;
    active += act;
  }
  if (bad != 0)
    throw std::invalid_argument("shared_access_cost_distinct: negative shared address");
  SharedAccessCost cost;
  cost.active_lanes = active;
  cost.cycles = max_degree;
  cost.conflicts = max_degree > 0 ? max_degree - 1 : 0;
  return cost;
}

/// True if no two active lanes of `addrs` share an address (O(n^2); the
/// debug-build precondition check of shared_access_cost_distinct).
[[nodiscard]] inline bool active_addresses_distinct(std::span<const std::int64_t> addrs) {
  for (std::size_t i = 0; i < addrs.size(); ++i)
    for (std::size_t j = i + 1; j < addrs.size(); ++j)
      if (addrs[i] != kInactiveLane && addrs[i] == addrs[j]) return false;
  return true;
}

/// Calls `f(std::integral_constant<int, kBanks>{})` with the compile-time
/// specialization for `banks`: the real-device bank counts (w = 32 is the
/// paper's device; 4..64 cover DeviceSpec::tiny in tests), 0 (runtime
/// count) otherwise.
template <typename F>
[[nodiscard]] decltype(auto) with_bank_count(int banks, F&& f) {
  switch (banks) {
    case 32: return f(std::integral_constant<int, 32>{});
    case 4: return f(std::integral_constant<int, 4>{});
    case 8: return f(std::integral_constant<int, 8>{});
    case 16: return f(std::integral_constant<int, 16>{});
    case 64: return f(std::integral_constant<int, 64>{});
    default: return f(std::integral_constant<int, 0>{});
  }
}

}  // namespace detail

/// Computes the cost of one warp-wide shared access.  `addrs` holds one
/// element address per lane (kInactiveLane for idle lanes); `banks` is the
/// number of banks (== warp size).  Addresses must be non-negative; any
/// other negative value throws std::invalid_argument.
///
/// Defined inline: this is the single hottest function of the simulator
/// (one call per warp-wide shared access), and inlining it into
/// BlockContext::charge_shared removes the call and span-passing overhead.
[[nodiscard]] inline SharedAccessCost shared_access_cost(
    std::span<const std::int64_t> addrs, int banks) {
  if (banks <= 0 || banks > kMaxLanes)
    throw std::invalid_argument("shared_access_cost: bank count out of range");
  if (addrs.size() > static_cast<std::size_t>(kMaxLanes))
    throw std::invalid_argument("shared_access_cost: too many lanes");
  return detail::with_bank_count(banks, [&](auto kb) {
    return detail::shared_access_cost_impl<decltype(kb)::value>(addrs, banks);
  });
}

/// Costs two overlapping warp-wide accesses in one pass: `row` holds n + 1
/// lane addresses, `first` is the cost of lanes [0, n) and `shifted` the
/// cost of lanes [1, n] — exactly shared_access_cost of each (with the same
/// address contract), for 1 <= n <= kMaxLanes.  The n - 1 shared lanes are
/// deduplicated once.  Made for merge-path searches, whose end rows are the
/// start rows shifted by one lane (sort::warp_split_search).
[[nodiscard]] inline SharedAccessPairCost shared_access_cost_pair(
    std::span<const std::int64_t> row, int banks) {
  if (banks <= 0 || banks > kMaxLanes)
    throw std::invalid_argument("shared_access_cost_pair: bank count out of range");
  if (row.size() < 2 || row.size() > static_cast<std::size_t>(kMaxLanes) + 1)
    throw std::invalid_argument("shared_access_cost_pair: lane count out of range");
  return detail::with_bank_count(banks, [&](auto kb) {
    return detail::shared_access_cost_pair_impl<decltype(kb)::value>(row, banks);
  });
}

/// Costs one warp-wide shared access whose active addresses are pairwise
/// distinct — exactly shared_access_cost(addrs, banks) under that
/// precondition, with the same argument checks and address contract.  With
/// no broadcast to fold, the cost is the largest per-bank lane count: one
/// histogram pass, no dedup bitmap and no lane compaction.  Made for the
/// serial merge's head and fetch rows (sort::serial_merge_core), whose lanes read
/// inside disjoint merge-path partitions.  Builds without NDEBUG assert the
/// precondition.
[[nodiscard]] inline SharedAccessCost shared_access_cost_distinct(
    std::span<const std::int64_t> addrs, int banks) {
  if (banks <= 0 || banks > kMaxLanes)
    throw std::invalid_argument("shared_access_cost_distinct: bank count out of range");
  if (addrs.size() > static_cast<std::size_t>(kMaxLanes))
    throw std::invalid_argument("shared_access_cost_distinct: too many lanes");
  assert(detail::active_addresses_distinct(addrs) &&
         "shared_access_cost_distinct: two active lanes share an address");
  return detail::with_bank_count(banks, [&](auto kb) {
    return detail::shared_access_cost_distinct_impl<decltype(kb)::value>(addrs, banks);
  });
}

/// Per-bank serialization degrees of one warp access: result[b] = number of
/// distinct addresses in bank b.  Shares the per-bank chain machinery of
/// shared_access_cost (banks <= kMaxLanes, like every charge path).  Used by
/// visualization harnesses and tests.
[[nodiscard]] std::span<const int> shared_access_degrees(std::span<const std::int64_t> addrs,
                                                         int banks,
                                                         std::span<int> scratch);

}  // namespace cfmerge::gpusim
