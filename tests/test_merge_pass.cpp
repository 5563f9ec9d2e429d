// Tests of the 2-way merge pass: merge_partition + merge_pass over the run
// pairs of one pass, for both variants, including the central conflict
// claims.
#include "sort/merge_pass.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <string>

using namespace cfmerge;
using namespace cfmerge::sort;

namespace {

struct PassResult {
  std::vector<int> out;
  std::vector<std::int64_t> boundaries;
  gpusim::PhaseCounters phases;
  std::uint64_t merge_conflicts = 0;
  std::uint64_t merge_accesses = 0;
};

// Runs one merge pass (merge_partition + merge_pass) over `data` whose runs
// of length `run` are each sorted.  The pass covers the first `len`
// elements of `data` (a tile multiple; all of it by default): its
// descriptors hold `len`, or, with `one_segment`, the padded length, which
// the kernels clamp with the kernel argument len as a sort plan's do.  The
// output buffer starts out as `out_init`.
PassResult run_pass(int w, const MergeConfig& cfg, const std::vector<int>& data,
                    std::int64_t run, std::int64_t len = -1, bool one_segment = false,
                    int out_init = 0) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(w));
  const std::int64_t n = static_cast<std::int64_t>(data.size());
  EXPECT_EQ(n % cfg.tile(), 0);
  if (len < 0) len = n;
  std::vector<detail::BatchTile> tiles;
  detail::add_run_group_tiles(tiles, 0, one_segment ? n : len, run, 2, cfg.tile());
  std::vector<std::int64_t> boundaries(tiles.size() + 1, -1);
  std::vector<int> out(data.size(), out_init);
  gpusim::KernelGraph graph;
  const TileFill fill{one_segment ? len : -1, {}};
  detail::enqueue_merge_pass(graph, data, out, tiles, 0, static_cast<int>(tiles.size()),
                             boundaries, cfg, w, fill);
  launcher.run(graph);
  PassResult r;
  r.out = std::move(out);
  r.boundaries = std::move(boundaries);
  r.phases = launcher.phase_counters();
  for (const auto& [name, c] : r.phases.phases()) {
    if (name == "merge.merge") {
      r.merge_conflicts = c.bank_conflicts;
      r.merge_accesses = c.shared_accesses;
    }
  }
  return r;
}

gpusim::Counters phase(const PassResult& r, const std::string& name) {
  for (const auto& [n, c] : r.phases.phases())
    if (n == name) return c;
  return {};
}

std::vector<int> make_runs(std::mt19937_64& rng, std::int64_t n, std::int64_t run) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<int>(rng() % 100000);
  for (std::int64_t base = 0; base < n; base += run)
    std::sort(v.begin() + static_cast<std::ptrdiff_t>(base),
              v.begin() + static_cast<std::ptrdiff_t>(std::min(base + run, n)));
  return v;
}

std::vector<int> merged_reference(const std::vector<int>& data, std::int64_t run) {
  std::vector<int> expect(data.size());
  const auto n = static_cast<std::int64_t>(data.size());
  for (std::int64_t base = 0; base < n; base += 2 * run) {
    const std::int64_t mid = std::min(base + run, n);
    const std::int64_t end = std::min(base + 2 * run, n);
    std::merge(data.begin() + base, data.begin() + mid, data.begin() + mid,
               data.begin() + end, expect.begin() + base);
  }
  return expect;
}

}  // namespace

class MergePassBothVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(MergePassBothVariants, MergesRunsCorrectly) {
  std::mt19937_64 rng(1);
  for (const auto& [w, e, u, tiles] : std::vector<std::tuple<int, int, int, int>>{
           {8, 5, 16, 2}, {8, 6, 16, 4}, {16, 7, 32, 2}, {8, 8, 16, 4}}) {
    MergeConfig cfg;
    cfg.e = e;
    cfg.u = u;
    cfg.variant = GetParam();
    const std::int64_t tile = cfg.tile();
    const std::int64_t n = tile * tiles;
    const std::vector<int> data = make_runs(rng, n, tile);
    const auto result = run_pass(w, cfg, data, tile);
    EXPECT_EQ(result.out, merged_reference(data, tile))
        << "w=" << w << " e=" << e << " u=" << u << " variant=" << static_cast<int>(GetParam());
  }
}

TEST_P(MergePassBothVariants, HandlesLoneRunAtEnd) {
  // 3 tiles: one pair + a lone run (empty B).
  std::mt19937_64 rng(2);
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = GetParam();
  const std::int64_t tile = cfg.tile();
  const std::vector<int> data = make_runs(rng, 3 * tile, tile);
  const auto result = run_pass(8, cfg, data, tile);
  EXPECT_EQ(result.out, merged_reference(data, tile));
}

TEST_P(MergePassBothVariants, SecondLevelRuns) {
  // Merging runs longer than one tile (run = 2 tiles).
  std::mt19937_64 rng(3);
  MergeConfig cfg;
  cfg.e = 6;
  cfg.u = 16;
  cfg.variant = GetParam();
  const std::int64_t tile = cfg.tile();
  const std::vector<int> data = make_runs(rng, 8 * tile, 2 * tile);
  const auto result = run_pass(8, cfg, data, 2 * tile);
  EXPECT_EQ(result.out, merged_reference(data, 2 * tile));
}

TEST_P(MergePassBothVariants, DuplicateKeys) {
  std::mt19937_64 rng(4);
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = GetParam();
  const std::int64_t tile = cfg.tile();
  std::vector<int> data(static_cast<std::size_t>(2 * tile));
  for (auto& x : data) x = static_cast<int>(rng() % 3);
  for (std::int64_t base = 0; base < 2 * tile; base += tile)
    std::sort(data.begin() + base, data.begin() + base + tile);
  const auto result = run_pass(8, cfg, data, tile);
  EXPECT_TRUE(std::is_sorted(result.out.begin(), result.out.end()));
}

INSTANTIATE_TEST_SUITE_P(Variants, MergePassBothVariants,
                         ::testing::Values(Variant::Baseline, Variant::CFMerge),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return info.param == Variant::Baseline ? "Baseline" : "CFMerge";
                         });

TEST(MergePassConflicts, CFMergeHasZeroMergeConflicts) {
  // The paper's nvprof validation: no bank conflicts during merging, for
  // coprime and non-coprime E alike.
  std::mt19937_64 rng(5);
  for (const auto& [w, e, u] :
       std::vector<std::tuple<int, int, int>>{{8, 5, 16}, {8, 6, 16}, {8, 8, 16},
                                              {16, 12, 32}, {32, 15, 64}, {32, 16, 64}}) {
    MergeConfig cfg;
    cfg.e = e;
    cfg.u = u;
    cfg.variant = Variant::CFMerge;
    const std::int64_t tile = cfg.tile();
    const std::vector<int> data = make_runs(rng, 4 * tile, tile);
    const auto result = run_pass(w, cfg, data, tile);
    EXPECT_EQ(result.merge_conflicts, 0u) << "w=" << w << " e=" << e;
    EXPECT_GT(result.merge_accesses, 0u);
  }
}

TEST(MergePassConflicts, DisablingRhoBringsConflictsBack) {
  // Ablation of Section 3.2: with gcd(w, E) > 1 and rho disabled, the
  // gather conflicts again; with rho it is conflict free.
  std::mt19937_64 rng(6);
  MergeConfig cfg;
  cfg.e = 6;  // gcd(8, 6) = 2
  cfg.u = 16;
  cfg.variant = Variant::CFMerge;
  const std::int64_t tile = cfg.tile();
  const std::vector<int> data = make_runs(rng, 4 * tile, tile);

  cfg.disable_rho = true;
  const auto broken = run_pass(8, cfg, data, tile);
  EXPECT_GT(broken.merge_conflicts, 0u);
  EXPECT_EQ(broken.out, merged_reference(data, tile));  // still correct

  cfg.disable_rho = false;
  const auto fixed = run_pass(8, cfg, data, tile);
  EXPECT_EQ(fixed.merge_conflicts, 0u);
}

TEST(MergePassConflicts, BaselineConflictsAreSmallOnRandomInputs) {
  // Karsin et al.: random inputs cause a small constant number of conflicts
  // per access in the baseline (2-3 on real sizes).
  std::mt19937_64 rng(7);
  MergeConfig cfg;
  cfg.e = 15;
  cfg.u = 64;
  cfg.variant = Variant::Baseline;
  const std::int64_t tile = cfg.tile();
  const std::vector<int> data = make_runs(rng, 4 * tile, tile);
  const auto result = run_pass(32, cfg, data, tile);
  ASSERT_GT(result.merge_accesses, 0u);
  const double per_access = static_cast<double>(result.merge_conflicts) /
                            static_cast<double>(result.merge_accesses);
  EXPECT_GT(per_access, 0.1);  // conflicts do occur...
  EXPECT_LT(per_access, 8.0);  // ...but far from the w-fold worst case
}

TEST(MergePass, PartitionBoundariesMatchHostMergePath) {
  std::mt19937_64 rng(8);
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  const std::int64_t tile = cfg.tile();
  const std::int64_t n = 8 * tile;
  const std::int64_t run = 2 * tile;
  const std::vector<int> data = make_runs(rng, n, run);
  const auto result = run_pass(8, cfg, data, run);
  ASSERT_EQ(result.boundaries.size(), static_cast<std::size_t>(n / tile) + 1);
  // Tile t starts at output position t*tile of the pass; its co-rank is
  // taken within the pair of runs that position falls in.
  for (std::int64_t t = 0; t * tile < n; ++t) {
    const std::int64_t pos = t * tile;
    const std::int64_t base = pos / (2 * run) * (2 * run);
    const std::int64_t la = std::min(run, n - base);
    const std::int64_t lb = std::clamp<std::int64_t>(n - base - run, 0, run);
    const std::span<const int> a(data.data() + base, static_cast<std::size_t>(la));
    const std::span<const int> b(data.data() + base + la, static_cast<std::size_t>(lb));
    EXPECT_EQ(result.boundaries[static_cast<std::size_t>(t)],
              mergepath::merge_path<int>(pos - base, a, b))
        << "boundary " << t;
  }
}

TEST(MergePass, CfOutputScatterKeepsStoreConflictFreeForNonCoprimeE) {
  // With gcd(w,E) > 1 the baseline's stride-E output scatter conflicts;
  // CF-Merge's rho-permuted output write (inverse dual scatter) does not.
  std::mt19937_64 rng(9);
  const int w = 8;
  MergeConfig cfg;
  cfg.e = 6;
  cfg.u = 16;
  const std::int64_t tile = cfg.tile();
  const std::vector<int> data = make_runs(rng, 2 * tile, tile);

  cfg.variant = Variant::Baseline;
  const auto base = run_pass(w, cfg, data, tile);
  cfg.variant = Variant::CFMerge;
  cfg.cf_output_scatter = true;
  const auto cf = run_pass(w, cfg, data, tile);

  auto store_conflicts = [](const PassResult& r) {
    for (const auto& [name, c] : r.phases.phases())
      if (name == "merge.store") return c.bank_conflicts;
    return std::uint64_t{0};
  };
  EXPECT_GT(store_conflicts(base), 0u);
  EXPECT_EQ(store_conflicts(cf), 0u);
  EXPECT_EQ(cf.out, base.out);
}

// ---------------------------------------------------------------------------
// Ragged passes: the real length is not a tile multiple.  The kernels read
// and write only the real elements; the windows, splits and merge are those
// of the same lists padded with sentinels.
// ---------------------------------------------------------------------------

TEST(MergePassRagged, ReadsAndWritesOnlyTheRealElements) {
  std::mt19937_64 rng(10);
  constexpr int kPoison = std::numeric_limits<int>::min();
  struct Case {
    int w, e, u;
    std::int64_t tiles, run_tiles, real_off;  // real = n - real_off
  };
  // A lone last run holding the padding (its A list) and a last pair
  // whose B holds it, at coprime and non-coprime E.
  for (const Case c : std::vector<Case>{{8, 5, 16, 3, 1, 73},
                                        {8, 5, 16, 4, 1, 79},
                                        {8, 6, 16, 4, 1, 1},
                                        {8, 6, 16, 6, 2, 50},
                                        {16, 7, 32, 4, 1, 100}}) {
    for (const Variant v : {Variant::Baseline, Variant::CFMerge}) {
      for (const bool one_segment : {false, true}) {
        MergeConfig cfg;
        cfg.e = c.e;
        cfg.u = c.u;
        cfg.variant = v;
        const std::int64_t tile = cfg.tile();
        const std::int64_t n = c.tiles * tile;
        const std::int64_t real = n - c.real_off;
        const std::int64_t run = c.run_tiles * tile;
        SCOPED_TRACE("w=" + std::to_string(c.w) + " E=" + std::to_string(c.e) +
                     " real=" + std::to_string(real) + " variant=" +
                     std::to_string(static_cast<int>(v)) +
                     " one_segment=" + std::to_string(one_segment));
        // The padded reference: sentinels past `real` (each run stays
        // sorted), descriptors over n.  The ragged run: poison there.
        std::vector<int> padded = make_runs(rng, n, run);
        std::fill(padded.begin() + real, padded.end(), padding_sentinel<int>::value());
        for (std::int64_t base = 0; base < n; base += run)
          std::sort(padded.begin() + base, padded.begin() + base + run);
        std::vector<int> ragged = padded;
        std::fill(ragged.begin() + real, ragged.end(), kPoison);
        const PassResult want = run_pass(c.w, cfg, padded, run);
        const PassResult got = run_pass(c.w, cfg, ragged, run, real, one_segment, kPoison);

        const std::vector<int> expect = merged_reference(
            std::vector<int>(ragged.begin(), ragged.begin() + real), run);
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), got.out.begin()));
        EXPECT_TRUE(std::all_of(got.out.begin() + real, got.out.end(),
                                [](int x) { return x == kPoison; }));
        EXPECT_EQ(got.boundaries, want.boundaries);
        for (const char* p : {"merge.search", "merge.merge"}) EXPECT_EQ(phase(got, p), phase(want, p)) << p;

        // Global bytes: the real elements, plus each tile's descriptor and
        // its boundary rows (one for a group's last tile, else two).
        std::int64_t meta = 0;
        for (std::int64_t d = 0; d < real; d += tile) {
          const std::int64_t group_end = std::min(d / (2 * run) * (2 * run) + 2 * run, real);
          meta += static_cast<std::int64_t>(sizeof(detail::BatchTile)) +
                  (d + tile >= group_end ? 1 : 2) * static_cast<std::int64_t>(sizeof(std::int64_t));
        }
        const auto real_bytes = static_cast<std::uint64_t>(real) * sizeof(int);
        EXPECT_EQ(phase(got, "merge.load").gmem_bytes, real_bytes + static_cast<std::uint64_t>(meta));
        EXPECT_EQ(phase(got, "merge.store").gmem_bytes, real_bytes);
        EXPECT_LT(phase(got, "merge.load").gmem_bytes, phase(want, "merge.load").gmem_bytes);
      }
    }
  }
}
