// Tests of the baseline warp-synchronous sequential merge — correctness and
// its bank-conflict behaviour (the phenomenon the paper eliminates).
#include "sort/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string_view>

#include "gpusim/audit.hpp"
#include "gpusim/launcher.hpp"
#include "mergepath/merge_path.hpp"
#include "sort/key_value.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;

namespace {

// Builds per-thread descriptors from merge path over the block's lists and
// runs the serial merge in a one-block launch.  Layout: A at [0, la),
// B at [la, la+lb).
struct Harness {
  int w, e, u;
  std::vector<int> a, b;
  std::vector<int> regs;
  gpusim::Counters counters;

  Harness(int w_, int e_, int u_, std::vector<int> a_, std::vector<int> b_)
      : w(w_), e(e_), u(u_), a(std::move(a_)), b(std::move(b_)) {
    const std::int64_t la = static_cast<std::int64_t>(a.size());
    const std::int64_t lb = static_cast<std::int64_t>(b.size());
    EXPECT_EQ(la + lb, static_cast<std::int64_t>(u) * e);
    std::vector<MergeLaneDesc> descs(static_cast<std::size_t>(u));
    std::int64_t prev = 0;
    for (int i = 0; i < u; ++i) {
      const std::int64_t next = mergepath::merge_path<int>(
          static_cast<std::int64_t>(i + 1) * e, std::span<const int>(a),
          std::span<const int>(b));
      descs[static_cast<std::size_t>(i)] = {prev, next - prev,
                                            static_cast<std::int64_t>(i) * e - prev,
                                            e - (next - prev)};
      prev = next;
    }
    regs.assign(static_cast<std::size_t>(u) * static_cast<std::size_t>(e), -1);
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
    launcher.launch("serial_merge", gpusim::LaunchShape{1, u, 0, 32},
                    [&](gpusim::BlockContext& ctx) {
                      gpusim::SharedTile<int> tile(ctx,
                                                   static_cast<std::size_t>(u) * e);
                      std::copy(a.begin(), a.end(), tile.raw().begin());
                      std::copy(b.begin(), b.end(),
                                tile.raw().begin() + static_cast<std::ptrdiff_t>(la));
                      warp_serial_merge(ctx, tile, std::span<const MergeLaneDesc>(descs), e,
                                        [](std::int64_t x) { return x; },
                                        [&](std::int64_t y) { return la + y; },
                                        std::span<int>(regs));
                    });
    counters = launcher.total_counters();
  }
};

std::vector<int> sorted_random(std::mt19937_64& rng, std::size_t n) {
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(rng() % 10000);
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

TEST(SerialMerge, ProducesTheMergedSequence) {
  std::mt19937_64 rng(1);
  for (const auto& [w, e, warps] :
       std::vector<std::tuple<int, int, int>>{{8, 5, 1}, {8, 4, 2}, {16, 7, 2}, {32, 15, 1}}) {
    const int u = w * warps;
    const std::int64_t total = static_cast<std::int64_t>(u) * e;
    const std::int64_t la = static_cast<std::int64_t>(rng() % (total + 1));
    Harness h(w, e, u, sorted_random(rng, static_cast<std::size_t>(la)),
              sorted_random(rng, static_cast<std::size_t>(total - la)));
    std::vector<int> expect;
    std::merge(h.a.begin(), h.a.end(), h.b.begin(), h.b.end(), std::back_inserter(expect));
    EXPECT_EQ(h.regs, expect) << "w=" << w << " e=" << e;
  }
}

TEST(SerialMerge, HandlesAllFromOneList) {
  const int w = 8, e = 4, u = 8;
  std::vector<int> a(32);
  std::iota(a.begin(), a.end(), 0);
  Harness h(w, e, u, a, {});
  EXPECT_EQ(h.regs, a);
  Harness h2(w, e, u, {}, a);
  EXPECT_EQ(h2.regs, a);
}

TEST(SerialMerge, DuplicateValuesMergeStably) {
  const int w = 4, e = 4, u = 4;
  const std::vector<int> a{5, 5, 5, 5, 5, 5, 5, 5};
  const std::vector<int> b{5, 5, 5, 5, 5, 5, 5, 5};
  Harness h(w, e, u, a, b);
  EXPECT_TRUE(std::is_sorted(h.regs.begin(), h.regs.end()));
  EXPECT_EQ(h.regs.size(), 16u);
}

TEST(SerialMerge, ReadsEachElementExactlyOnce) {
  // Total shared reads = elements (each element fetched once: preloads plus
  // per-step fetches).
  std::mt19937_64 rng(2);
  const int w = 8, e = 6, u = 16;
  const std::int64_t total = static_cast<std::int64_t>(u) * e;
  const std::int64_t la = total / 2;
  Harness h(w, e, u, sorted_random(rng, static_cast<std::size_t>(la)),
            sorted_random(rng, static_cast<std::size_t>(total - la)));
  // Accesses: per warp, 2 preloads plus up to E step-fetch accesses (a step
  // in which every lane consumed its final element issues no access).
  EXPECT_GE(h.counters.shared_accesses, static_cast<std::uint64_t>((u / w) * e));
  EXPECT_LE(h.counters.shared_accesses, static_cast<std::uint64_t>((u / w) * (2 + e)));
}

TEST(SerialMerge, InterleavedInputCausesNoExtraConflictsWhenStridesCoprime) {
  // A perfectly alternating merge: every thread consumes alternately; the
  // stride-E layout with gcd(w, E) = 1 keeps per-step addresses spread.
  const int w = 8, e = 5, u = 8;
  std::vector<int> a(20), b(20);
  for (int i = 0; i < 20; ++i) {
    a[static_cast<std::size_t>(i)] = 2 * i;      // evens
    b[static_cast<std::size_t>(i)] = 2 * i + 1;  // odds
  }
  Harness h(w, e, u, a, b);
  std::vector<int> expect(40);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(h.regs, expect);
}

TEST(SerialMerge, AlignedScansConflict) {
  // Hand-built adversarial case: every thread takes all E from A, and the
  // threads' A-subsequences start w apart => same bank every step => full
  // serialization (the mechanism of the paper's Section 4).
  const int w = 8, e = 8, u = 8;  // thread i's A_i = [8i, 8i+8): bank = 8i mod 8 = 0
  std::vector<int> a(64);
  std::iota(a.begin(), a.end(), 0);
  Harness h(w, e, u, a, {});
  // Preload A: addresses {0, 8, .., 56} all bank 0 -> 7 conflicts; each of
  // the E-1 remaining fetch steps repeats that (last step has no fetch).
  EXPECT_GE(h.counters.bank_conflicts, static_cast<std::uint64_t>((e - 1) * (w - 1)));
  EXPECT_EQ(h.regs.size(), 64u);
  EXPECT_TRUE(std::is_sorted(h.regs.begin(), h.regs.end()));
}

// ---------------------------------------------------------------------------
// Reference model: the lockstep loop warp_serial_merge replaced.  Branchy
// per-lane state, every head fetched through SharedTile::gather.  The
// kernel decides on uncharged reads and reports rows through
// charge_row_costed; it must reproduce this model's registers, counters,
// chains and audited row stream exactly.

namespace {

template <typename T, typename APos, typename BPos, typename Cmp = std::less<T>>
void reference_serial_merge(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                            std::span<const MergeLaneDesc> lanes, int e, APos&& a_pos,
                            BPos&& b_pos, std::span<T> regs, Cmp cmp = Cmp{}) {
  const int w = ctx.lanes();
  std::array<std::int64_t, gpusim::kMaxLanes> addr_buf;
  std::array<T, gpusim::kMaxLanes> fetched_buf{};
  const std::span<std::int64_t> addr(addr_buf.data(), static_cast<std::size_t>(w));
  const std::span<T> fetched(fetched_buf.data(), static_cast<std::size_t>(w));
  struct LaneState {
    std::int64_t next_a;
    std::int64_t next_b;
    T head_a;
    T head_b;
    bool has_a;
    bool has_b;
  };
  std::array<LaneState, gpusim::kMaxLanes> st{};
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    ctx.charge_compute(warp, cost::kThreadSetupInstrs);
    for (int lane = 0; lane < w; ++lane) {
      const auto& d = lanes[static_cast<std::size_t>(warp * w + lane)];
      st[static_cast<std::size_t>(lane)] = LaneState{d.a_begin + 1, d.b_begin + 1, T{}, T{},
                                                     d.a_size > 0, d.b_size > 0};
      addr[static_cast<std::size_t>(lane)] =
          d.a_size > 0 ? a_pos(d.a_begin) : gpusim::kInactiveLane;
    }
    shmem.gather(warp, addr, fetched, true, true);
    for (int lane = 0; lane < w; ++lane)
      if (st[static_cast<std::size_t>(lane)].has_a)
        st[static_cast<std::size_t>(lane)].head_a = fetched[static_cast<std::size_t>(lane)];
    for (int lane = 0; lane < w; ++lane) {
      const auto& d = lanes[static_cast<std::size_t>(warp * w + lane)];
      addr[static_cast<std::size_t>(lane)] =
          d.b_size > 0 ? b_pos(d.b_begin) : gpusim::kInactiveLane;
    }
    shmem.gather(warp, addr, fetched, true, true);
    for (int lane = 0; lane < w; ++lane)
      if (st[static_cast<std::size_t>(lane)].has_b)
        st[static_cast<std::size_t>(lane)].head_b = fetched[static_cast<std::size_t>(lane)];
    std::array<char, gpusim::kMaxLanes> consumed_a{};
    for (int step = 0; step < e; ++step) {
      for (int lane = 0; lane < w; ++lane) {
        const int i = warp * w + lane;
        const auto& d = lanes[static_cast<std::size_t>(i)];
        auto& s = st[static_cast<std::size_t>(lane)];
        const bool take_a = s.has_a && (!s.has_b || !cmp(s.head_b, s.head_a));
        consumed_a[static_cast<std::size_t>(lane)] = take_a;
        regs[static_cast<std::size_t>(i) * static_cast<std::size_t>(e) +
             static_cast<std::size_t>(step)] = take_a ? s.head_a : s.head_b;
        if (take_a) {
          if (s.next_a < d.a_begin + d.a_size) {
            addr[static_cast<std::size_t>(lane)] = a_pos(s.next_a++);
          } else {
            s.has_a = false;
            addr[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
          }
        } else {
          if (s.next_b < d.b_begin + d.b_size) {
            addr[static_cast<std::size_t>(lane)] = b_pos(s.next_b++);
          } else {
            s.has_b = false;
            addr[static_cast<std::size_t>(lane)] = gpusim::kInactiveLane;
          }
        }
      }
      ctx.charge_compute(warp, cost::kMergeStepInstrs);
      shmem.gather(warp, addr, fetched, true, true);
      for (int lane = 0; lane < w; ++lane) {
        auto& s = st[static_cast<std::size_t>(lane)];
        const bool act = addr[static_cast<std::size_t>(lane)] != gpusim::kInactiveLane;
        const bool ca = consumed_a[static_cast<std::size_t>(lane)] != 0;
        s.head_a = act && ca ? fetched[static_cast<std::size_t>(lane)] : s.head_a;
        s.head_b = act && !ca ? fetched[static_cast<std::size_t>(lane)] : s.head_b;
      }
    }
  }
}

/// One warp-wide shared access as the auditor saw it.
struct Row {
  int warp;
  bool is_write;
  int conflicts;
  std::vector<std::int64_t> addrs;
  bool operator==(const Row&) const = default;
};

/// Records every shared access row, including all-idle ones (which the
/// cost model charges nothing for but the auditor still sees).
class RowRecorder final : public gpusim::MemoryAuditor {
 public:
  std::vector<Row> rows;
  void on_shared_alloc(int, std::uint64_t, std::size_t) override {}
  void on_shared_raw(int, std::uint64_t) override {}
  void on_shared_access(int, std::uint64_t, int warp, std::string_view,
                        std::span<const std::int64_t> addrs, bool is_write, int,
                        int conflicts) override {
    rows.push_back({warp, is_write, conflicts, {addrs.begin(), addrs.end()}});
  }
  void on_global_access(int, int, std::string_view, std::span<const std::int64_t>,
                        std::int64_t, bool) override {}
  void on_barrier(int) override {}
};

template <typename T>
struct MergeRun {
  std::vector<T> regs;
  gpusim::Counters counters;
  std::vector<double> chains;
  std::vector<Row> rows;
};

/// Runs the kernel (or the reference) over `tile` = A ++ B with A of size
/// `la`, one block of u threads on DeviceSpec::tiny(w).
template <typename T, typename Cmp = std::less<T>>
MergeRun<T> run_merge(bool reference, int w, int e, int u, const std::vector<T>& tile,
                      std::int64_t la, const std::vector<MergeLaneDesc>& descs,
                      Cmp cmp = Cmp{}) {
  MergeRun<T> run;
  run.regs.assign(tile.size(), T{});
  RowRecorder rec;
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
  launcher.set_audit(&rec);
  launcher.launch("serial_merge", gpusim::LaunchShape{1, u, 0, 32},
                  [&](gpusim::BlockContext& ctx) {
                    gpusim::SharedTile<T> shmem(ctx, tile.size());
                    std::copy(tile.begin(), tile.end(), shmem.raw().begin());
                    const auto a_pos = [](std::int64_t x) { return x; };
                    const auto b_pos = [la](std::int64_t y) { return la + y; };
                    const std::span<const MergeLaneDesc> d(descs);
                    if (reference)
                      reference_serial_merge(ctx, shmem, d, e, a_pos, b_pos,
                                             std::span<T>(run.regs), cmp);
                    else
                      warp_serial_merge(ctx, shmem, d, e, a_pos, b_pos,
                                        std::span<T>(run.regs), cmp);
                    run.chains = ctx.warp_chains();
                  });
  run.counters = launcher.total_counters();
  run.rows = std::move(rec.rows);
  return run;
}

/// Contiguous splits with the given per-thread |A_i| (|B_i| = E - |A_i|).
std::vector<MergeLaneDesc> splits_from_sizes(const std::vector<std::int64_t>& a_sizes,
                                             int e) {
  std::vector<MergeLaneDesc> d(a_sizes.size());
  std::int64_t a = 0, b = 0;
  for (std::size_t i = 0; i < a_sizes.size(); ++i) {
    d[i] = {a, a_sizes[i], b, e - a_sizes[i]};
    a += a_sizes[i];
    b += e - a_sizes[i];
  }
  return d;
}

template <typename T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

/// Rows in which some lane is active: exactly the ones the cost model charges.
std::uint64_t active_rows(const std::vector<Row>& rows) {
  return static_cast<std::uint64_t>(std::count_if(rows.begin(), rows.end(), [](const Row& r) {
    return std::any_of(r.addrs.begin(), r.addrs.end(),
                       [](std::int64_t a) { return a != gpusim::kInactiveLane; });
  }));
}

template <typename T, typename Cmp = std::less<T>>
void expect_matches_reference(int w, int e, int u, const std::vector<T>& tile,
                              std::int64_t la, const std::vector<MergeLaneDesc>& descs,
                              Cmp cmp = Cmp{}) {
  const MergeRun<T> got = run_merge(false, w, e, u, tile, la, descs, cmp);
  const MergeRun<T> want = run_merge(true, w, e, u, tile, la, descs, cmp);
  EXPECT_TRUE(same_bits(got.regs, want.regs));
  EXPECT_EQ(got.counters.warp_instructions, want.counters.warp_instructions);
  EXPECT_EQ(got.counters.shared_accesses, want.counters.shared_accesses);
  EXPECT_EQ(got.counters.shared_cycles, want.counters.shared_cycles);
  EXPECT_EQ(got.counters.bank_conflicts, want.counters.bank_conflicts);
  EXPECT_EQ(got.chains, want.chains);
  EXPECT_EQ(got.rows, want.rows);
  // Per warp: two head rows plus one row per step, all-idle ones included;
  // only rows with an active lane are charged.
  EXPECT_EQ(got.rows.size(), static_cast<std::size_t>((u / w) * (2 + e)));
  EXPECT_EQ(got.counters.shared_accesses, active_rows(got.rows));
}

}  // namespace

TEST(SerialMergeReference, MatchesOnRandomSplitsWithEmptyLanes) {
  std::mt19937_64 rng(11);
  for (const auto& [w, e, warps] : std::vector<std::tuple<int, int, int>>{
           {4, 3, 2}, {4, 7, 1}, {8, 5, 2}, {64, 7, 1}, {64, 4, 2}}) {
    SCOPED_TRACE("w=" + std::to_string(w) + " e=" + std::to_string(e));
    const int u = w * warps;
    for (int trial = 0; trial < 4; ++trial) {
      // Every third lane takes all of A or all of B: empty B_i / A_i.
      std::vector<std::int64_t> a_sizes(static_cast<std::size_t>(u));
      for (auto& s : a_sizes) {
        const auto pick = rng() % 3;
        s = pick == 0 ? 0 : pick == 1 ? e : static_cast<std::int64_t>(rng() % (e + 1));
      }
      const auto descs = splits_from_sizes(a_sizes, e);
      const std::int64_t la = std::accumulate(a_sizes.begin(), a_sizes.end(), std::int64_t{0});
      std::vector<int> tile = sorted_random(rng, static_cast<std::size_t>(la));
      const auto b = sorted_random(rng, static_cast<std::size_t>(u * e - la));
      tile.insert(tile.end(), b.begin(), b.end());
      for (auto& x : tile) x /= 625;  // still sorted per list, many ties
      expect_matches_reference(w, e, u, tile, la, descs);
    }
  }
}

TEST(SerialMergeReference, ExhaustedStepsChargeNothing) {
  // Every lane takes its E elements from A: the B-head row and each warp's
  // final step have no active lane and must charge nothing.
  const int w = 4, e = 3, u = 8;
  std::vector<int> tile(static_cast<std::size_t>(u * e));
  std::iota(tile.begin(), tile.end(), 0);
  const auto descs = splits_from_sizes(std::vector<std::int64_t>(u, e), e);
  const MergeRun<int> got = run_merge(false, w, e, u, tile, u * e, descs);
  EXPECT_EQ(got.regs, tile);
  ASSERT_EQ(got.rows.size(), static_cast<std::size_t>((u / w) * (2 + e)));
  // Per warp: A heads, B heads (idle), steps 0..E-2 fetch, step E-1 idle.
  EXPECT_EQ(got.counters.shared_accesses, static_cast<std::uint64_t>((u / w) * e));
  EXPECT_EQ(got.counters.shared_accesses, active_rows(got.rows));
  expect_matches_reference(w, e, u, tile, u * e, descs);
}

TEST(SerialMergeReference, KeyValueTiesTakeA) {
  using KV = sort::KeyValue<int, int>;
  const int w = 8, e = 5, u = 16;
  std::mt19937_64 rng(12);
  std::vector<std::int64_t> a_sizes(static_cast<std::size_t>(u));
  for (auto& s : a_sizes) s = static_cast<std::int64_t>(rng() % (e + 1));
  const auto descs = splits_from_sizes(a_sizes, e);
  const std::int64_t la = std::accumulate(a_sizes.begin(), a_sizes.end(), std::int64_t{0});
  // Keys 0..3 in runs; values tag the list (A < 1000 <= B).
  const std::int64_t lb = u * e - la;
  const auto key = [](std::int64_t i, std::int64_t n) {
    return static_cast<int>(4 * i / std::max<std::int64_t>(n, 1));
  };
  std::vector<KV> tile(static_cast<std::size_t>(u * e));
  for (std::int64_t i = 0; i < la; ++i)
    tile[static_cast<std::size_t>(i)] = {key(i, la), static_cast<int>(i)};
  for (std::int64_t j = 0; j < lb; ++j)
    tile[static_cast<std::size_t>(la + j)] = {key(j, lb), 1000 + static_cast<int>(j)};
  const MergeRun<KV> got = run_merge(false, w, e, u, tile, la, descs);
  for (int i = 0; i < u; ++i) {
    for (int j = 1; j < e; ++j) {
      const KV& p = got.regs[static_cast<std::size_t>(i * e + j - 1)];
      const KV& q = got.regs[static_cast<std::size_t>(i * e + j)];
      EXPECT_LE(p.key, q.key);
      if (p.key == q.key) {
        EXPECT_FALSE(p.value >= 1000 && q.value < 1000) << "B before A on a tie";
      }
    }
  }
  expect_matches_reference(w, e, u, tile, la, descs);
}

TEST(SerialMergeReference, FloatExtremesMatchReference) {
  // NaN, +-inf and -0.0 in unsorted lists: no ordering assumption, the two
  // kernels must still agree bit for bit.
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -0.0f,
                            0.0f,
                            1.5f,
                            -2.25f};
  std::mt19937_64 rng(13);
  for (const auto& [w, e] : std::vector<std::pair<int, int>>{{4, 5}, {64, 3}}) {
    const int u = 2 * w;
    std::vector<std::int64_t> a_sizes(static_cast<std::size_t>(u));
    for (auto& s : a_sizes) s = static_cast<std::int64_t>(rng() % (e + 1));
    const auto descs = splits_from_sizes(a_sizes, e);
    const std::int64_t la = std::accumulate(a_sizes.begin(), a_sizes.end(), std::int64_t{0});
    std::vector<float> tile(static_cast<std::size_t>(u * e));
    for (auto& x : tile) x = specials[rng() % std::size(specials)];
    expect_matches_reference(w, e, u, tile, la, descs);
  }
}
