// Pass 1 extension — conflict-freedom of the k-way cascade merge.
//
// verify_multiway_cascade machine-checks that sort::cf_cascade_core is
// conflict free for a whole (w, E, k) family at once.  It re-derives no bank
// argument: both access patterns are registered primitives whose memoized
// certificates it cites, and what is left is their glue:
//
//   stage-gather-reduction  every cascade stage gathers through the 2-way
//                           cf_gather layout of its pair; the memoized
//                           (w, E) cf_gather certificate applies verbatim
//                           because pair bases are wE multiples (banks
//                           unchanged by the shift)
//   pad-alignment           CascadePlan only pads at level 0 and keeps every
//                           pair base and padded length a multiple of wE,
//                           within the static capacity bound
//   scatter-component:cf_rank_scatter
//                           cites the cf_rank_scatter certificate: given
//                           pad-alignment, the left child and root scatter
//                           base' + rho'(iE + j) is its round j, and the
//                           pi-reflected right-child stream
//                           la'+lb'-1-(iE + j) = i'E + (E-1-j) walks a
//                           w-aligned warp onto the banks of round E-1-j
//   plan-faithfulness       the closed forms above equal CascadePlan's
//                           scatter_pos on sampled plans, and the concrete
//                           gather/scatter rows of sampled tiles and the
//                           root's store-tail rows are conflict free under
//                           the dynamic cost model
//
// refute_multiway_direct is the impossibility half: a single-phase k-ary
// gather over a linear k-segment layout (the LoserTree baseline's head fill)
// admits no residue invariant, and a realizable merge-path split puts two
// lanes' sequence-0 heads in the same bank — a constructive witness the
// tests replay against shared_access_cost.
#include "verify/analyzer.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "gather/multiway_schedule.hpp"
#include "gather/schedule.hpp"
#include "gpusim/shared_memory.hpp"
#include "numtheory/numtheory.hpp"
#include "sort/multiway_pass.hpp"
#include "verify/certificate.hpp"

namespace cfmerge::verify {

namespace {

/// Structured + seeded-random k-way segment windows summing to at most
/// `tile` (the merge-path splits a tile can present to CascadePlan).
std::vector<std::vector<std::int64_t>> sample_seglens(std::int64_t tile, int k,
                                                      int random_trials,
                                                      std::uint64_t seed) {
  const auto kn = static_cast<std::size_t>(k);
  std::vector<std::vector<std::int64_t>> out;
  std::vector<std::int64_t> balanced(kn, tile / k);
  balanced[kn - 1] += tile % k;
  out.push_back(std::move(balanced));
  std::vector<std::int64_t> front(kn, 0);
  front[0] = tile;
  out.push_back(std::move(front));
  std::vector<std::int64_t> back(kn, 0);
  back[kn - 1] = tile;
  out.push_back(std::move(back));
  std::vector<std::int64_t> skew(kn, 0);  // one element per odd segment
  skew[0] = tile - k / 2;
  for (std::size_t s = 1; s < kn; s += 2) skew[s] = 1;
  out.push_back(std::move(skew));
  std::vector<std::int64_t> ragged(kn, 0);  // short final tile: sum == tile/2
  for (std::size_t s = 0; s < kn; ++s) {
    const auto i = static_cast<std::int64_t>(s);
    ragged[s] = (tile / 2) * (i + 1) / k - (tile / 2) * i / k;
  }
  out.push_back(std::move(ragged));
  Lcg rng(seed);
  for (int t = 0; t < random_trials; ++t) {
    std::vector<std::int64_t> cuts(kn - 1);
    for (auto& c : cuts) c = rng.below_eq(tile);
    std::sort(cuts.begin(), cuts.end());
    std::vector<std::int64_t> v(kn);
    std::int64_t prev = 0;
    for (std::size_t s = 0; s + 1 < kn; ++s) {
      v[s] = cuts[s] - prev;
      prev = cuts[s];
    }
    v[kn - 1] = tile - prev;
    out.push_back(std::move(v));
  }
  return out;
}

void validate_multiway_family(int w, int e, int k) {
  validate_family("verify_multiway", w, e);
  if (k < 2 || k > sort::kMaxMultiwayK ||
      !std::has_single_bit(static_cast<std::uint64_t>(k)))
    throw std::invalid_argument("verify_multiway: k must be a power of two in [2, " +
                                std::to_string(sort::kMaxMultiwayK) + "]");
}

/// True iff the warp row of addresses serializes (degree > 1).
bool row_conflicted(const std::vector<std::int64_t>& addrs, int w) {
  return gpusim::shared_access_cost(addrs, w).cycles > 1;
}

// ---------------------------------------------------------------------------
// verify_multiway_cascade steps
// ---------------------------------------------------------------------------

void check_pad_alignment(ProofStep& st, int w, int e, int k,
                         const std::vector<std::vector<std::int64_t>>& samples,
                         std::int64_t tile_cap) {
  const std::int64_t we = static_cast<std::int64_t>(w) * e;
  const std::int64_t cap = gather::CascadePlan::capacity(tile_cap, w, e, k);
  std::int64_t checked = 0;
  for (const auto& segs : samples) {
    const gather::CascadePlan plan(w, e, segs);
    std::int64_t sum = 0;
    for (const auto s : segs) sum += s;
    if (plan.total_len() != sum) {
      fail(st, "total_len != sum of segment windows");
      return;
    }
    if (plan.padded_len() % we != 0 || plan.padded_len() > cap) {
      fail(st, "root padded length " + std::to_string(plan.padded_len()) +
                   " not a wE multiple within capacity " + std::to_string(cap));
      return;
    }
    for (int l = 0; l < plan.levels(); ++l) {
      std::int64_t base = 0;
      for (std::size_t p = 0; p < plan.pairs(l).size(); ++p) {
        const gather::CascadePair& pr = plan.pairs(l)[p];
        const bool aligned = pr.base == base && pr.base % we == 0 &&
                             pr.layout.size() % we == 0 &&
                             (l == 0 ||
                              (pr.layout.la() % we == 0 && pr.layout.lb() % we == 0));
        if (!aligned) {
          std::ostringstream os;
          os << "level " << l << " pair " << p << " misaligned: base=" << pr.base
             << " la=" << pr.layout.la() << " lb=" << pr.layout.lb() << " (wE=" << we
             << ")";
          fail(st, os.str());
          return;
        }
        // Run bookkeeping: the pair output is the next level's padded run.
        const gather::CascadeRun& out = plan.runs(l + 1)[p];
        const gather::CascadeRun& lc = plan.runs(l)[2 * p];
        const gather::CascadeRun& rc = plan.runs(l)[2 * p + 1];
        if (out.pad_len != pr.layout.size() || out.len != lc.len + rc.len) {
          fail(st, "run bookkeeping broken at level " + std::to_string(l));
          return;
        }
        base += pr.layout.size();
        ++checked;
      }
      if (base > cap) {
        fail(st, "level " + std::to_string(l) + " storage " + std::to_string(base) +
                     " exceeds static capacity " + std::to_string(cap));
        return;
      }
    }
  }
  std::ostringstream os;
  os << checked << " pairs over " << samples.size()
     << " sampled splits: bases contiguous and ≡ 0 (mod " << we
     << "), padded lengths ≡ 0 (mod " << we
     << "), level >= 1 adds no sentinels, all within capacity " << cap;
  st.detail = os.str();
}

/// Concrete cross-check of the symbolic model against CascadePlan plus a
/// dynamic-cost screening of sampled gather/scatter rows and the root's
/// store rows over a block tile of `tile` elements.  `thorough` sweeps every
/// virtual warp and round of the sampled tiles; otherwise a boundary subset
/// keeps the full (w, E, k) sweep affordable.
void check_plan_faithfulness(ProofStep& st, int w, int e, std::int64_t tile,
                             const std::vector<std::vector<std::int64_t>>& samples,
                             bool thorough) {
  std::int64_t closed_checked = 0;
  std::int64_t rows_checked = 0;
  std::vector<std::int64_t> addrs(static_cast<std::size_t>(w));

  for (const auto& segs : samples) {
    const gather::CascadePlan plan(w, e, segs);
    for (int l = 0; l < plan.levels(); ++l) {
      for (std::size_t p = 0; p < plan.pairs(l).size(); ++p) {
        const gather::CascadePair& pr = plan.pairs(l)[p];
        if (pr.layout.size() == 0) continue;
        const std::int64_t u_pair = pr.layout.size() / e;  // a multiple of w
        const std::int64_t vwarps = u_pair / w;

        // Below the root: the closed form used by the symbolic steps ==
        // CascadePlan::scatter_pos, and the scatter rows the kernel issues
        // through it, rank r = (vw*w + lane)*E + j per virtual warp.  The
        // root writes back through the store tail, checked below.
        if (l + 1 < plan.levels()) {
          const gather::CascadePair& parent = plan.pairs(l + 1)[p / 2];
          for (std::int64_t r = 0; r < pr.layout.size(); r += thorough ? 1 : 7) {
            const std::int64_t want =
                parent.base +
                parent.layout.rho()(p % 2 == 0 ? r : parent.layout.size() - 1 - r);
            if (plan.scatter_pos(l, static_cast<int>(p), r) != want) {
              fail(st, "scatter_pos != closed form at level " + std::to_string(l) +
                           " pair " + std::to_string(p) + " rank " + std::to_string(r));
              return;
            }
            ++closed_checked;
          }
          for (std::int64_t vw = 0; vw < vwarps; thorough ? ++vw : vw += std::max<std::int64_t>(1, vwarps - 1)) {
            for (int j = 0; j < e; ++j) {
              for (int lane = 0; lane < w; ++lane) {
                const std::int64_t r = (vw * w + lane) * e + j;
                addrs[static_cast<std::size_t>(lane)] =
                    plan.scatter_pos(l, static_cast<int>(p), r);
              }
              if (row_conflicted(addrs, w)) {
                fail(st, "conflicted scatter row at level " + std::to_string(l) +
                             " pair " + std::to_string(p) + " vw " + std::to_string(vw) +
                             " round " + std::to_string(j));
                return;
              }
              ++rows_checked;
            }
            if (!thorough && vwarps <= 1) break;
          }
        }

        // Stage-gather rows through the pair's 2-way schedule, all-A and a
        // seeded-random merge-path split.
        const auto un = static_cast<std::size_t>(u_pair);
        std::vector<std::int64_t> random(un);
        Lcg rng(0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(l * 131 + p));
        for (auto& x : random) x = rng.below_eq(e);
        for (const Split& sp : {make_split(std::vector<std::int64_t>(un, e)),
                                make_split(std::move(random))}) {
          // The schedule only needs a_off/a_size consistent with *some* split
          // of [0, la+lb): use the sampled sizes verbatim with la = their sum.
          const gather::GatherShape shape{w, e, static_cast<int>(u_pair), sp.la,
                                          pr.layout.size() - sp.la};
          const gather::RoundSchedule sched(shape, sp.a_off, sp.a_size);
          for (std::int64_t vw = 0; vw < vwarps; thorough ? ++vw : vw += std::max<std::int64_t>(1, vwarps - 1)) {
            for (int j = 0; j < e; ++j) {
              for (int lane = 0; lane < w; ++lane) {
                const auto i = static_cast<int>(vw * w + lane);
                addrs[static_cast<std::size_t>(lane)] =
                    pr.base + sched.read(i, j).phys;
              }
              if (row_conflicted(addrs, w)) {
                fail(st, "conflicted stage-gather row at level " + std::to_string(l) +
                             " pair " + std::to_string(p) + " vw " +
                             std::to_string(vw) + " round " + std::to_string(j));
                return;
              }
              ++rows_checked;
            }
            if (!thorough && vwarps <= 1) break;
          }
        }
      }
    }
  }

  // The root's store tail (sort::store_merged_tile), whatever the split:
  // the first u = tile / E threads write ranks iE + j through the tile's
  // output shift, then the coalesced store reads them back in w-lane rows.
  const gather::CircularShift out_shift(w, e, tile);
  for (std::int64_t i0 = 0; i0 < tile / e; i0 += w) {
    for (int j = 0; j < e; ++j) {
      for (int lane = 0; lane < w; ++lane)
        addrs[static_cast<std::size_t>(lane)] = out_shift((i0 + lane) * e + j);
      if (row_conflicted(addrs, w)) {
        fail(st, "conflicted root scatter row at thread " + std::to_string(i0) + " round " +
                     std::to_string(j));
        return;
      }
      ++rows_checked;
    }
  }
  for (std::int64_t t0 = 0; t0 < tile; t0 += w) {
    for (int lane = 0; lane < w; ++lane)
      addrs[static_cast<std::size_t>(lane)] =
          t0 + lane < tile ? out_shift(t0 + lane) : gpusim::kInactiveLane;
    if (row_conflicted(addrs, w)) {
      fail(st, "conflicted root store row at t0=" + std::to_string(t0));
      return;
    }
    ++rows_checked;
  }
  std::ostringstream os;
  os << "scatter_pos == base' + rho'(±r + C) on " << closed_checked
     << " ranks and " << rows_checked
     << " concrete gather/scatter/store rows are conflict free under the "
        "dynamic cost model ("
     << (thorough ? "full" : "boundary") << " sweep of " << samples.size()
     << " sampled splits)";
  st.detail = os.str();
}

}  // namespace

ProofObject verify_multiway_cascade(int w, int e, int k) {
  validate_multiway_family(w, e, k);
  ProofObject po;
  po.schedule = "multiway_cascade";
  po.w = w;
  po.e = e;
  po.k = k;
  po.d = numtheory::gcd(w, e);
  po.scope =
      "all tiles u = m*w, all k-way merge-path splits, all log2(k) cascade "
      "stages and inter-stage scatters";

  // Every stage gather is the proven 2-way schedule.
  cite(po.add_step("stage-gather-reduction"), certify("cf_gather", w, e) != nullptr,
       "cf_gather", w, e,
       ": each of the " + std::to_string(std::bit_width(static_cast<unsigned>(k)) - 1) +
           " cascade stages gathers through the 2-way cf_gather layout of its "
           "pair, and pair bases are wE multiples (banks unchanged by the shift)");

  const std::int64_t tile_cap = static_cast<std::int64_t>(w) * e;  // u = w
  const auto samples = sample_seglens(tile_cap, k, 4, 0xcafef00dULL);
  check_pad_alignment(po.add_step("pad-alignment"), w, e, k, samples, tile_cap);
  // Every inter-stage scatter is the certified stride-E rank scatter.
  cite(po.add_step("scatter-component:cf_rank_scatter"),
       certify("cf_rank_scatter", w, e) != nullptr, "cf_rank_scatter", w, e,
       ": with wE | base' and wE | la'+lb' (pad-alignment), the left-child and "
       "root scatter base' + rho'(iE + j) is round j of the certified stream; "
       "the pi-reflected right-child stream la'+lb'-1-(iE + j) = i'E + (E-1-j) "
       "with i' = (la'+lb')/E - 1 - i maps a w-aligned warp onto a w-aligned "
       "warp, so it hits the banks of round E-1-j");
  const bool thorough = e == std::max(2, w / 2);
  check_plan_faithfulness(po.add_step("plan-faithfulness"), w, e, tile_cap, samples,
                          thorough);

  po.settle_verdict();
  return po;
}

ProofObject refute_multiway_direct(int w, int e, int k) {
  validate_family("refute_multiway_direct", w, e);
  if (k < 2) throw std::invalid_argument("refute_multiway_direct: k >= 2");
  ProofObject po;
  po.schedule = "multiway_direct_cf_claim";
  po.w = w;
  po.e = e;
  po.k = k;
  po.d = numtheory::gcd(w, e);
  po.scope =
      "claim: a single-phase k-ary gather over a linear k-segment shared "
      "layout (the LoserTree head fill) is conflict free for every "
      "merge-path split";

  // A realizable split: sequence 0 holds the w globally smallest values,
  // sequence 1 the next ceil(w/E)*E - w, then sequence 0 the next E.  Lane 0
  // (diagonal 0) and lane j0 = ceil(w/E) (diagonal j0*E) then read their
  // sequence-0 heads at shared offsets 0 and w — distinct addresses, same
  // bank.  Needs only E >= 2 and k >= 2.
  const int j0 = (w + e - 1) / e;
  std::vector<std::int64_t> addrs(static_cast<std::size_t>(w), gpusim::kInactiveLane);
  addrs[0] = 0;
  addrs[static_cast<std::size_t>(j0)] = w;

  bool refuted = false;
  {
    auto& st = po.add_step("head-fill-banks");
    if (gpusim::shared_access_cost(addrs, w).cycles > 1) {
      std::ostringstream os;
      os << "lanes 0 and " << j0 << " read sequence-0 heads at offsets 0 and "
         << w << " — same bank 0, realized by the split {|S_0 ∩ prefix| = w "
         << "at diagonal " << j0 * e << "}";
      fail(st, os.str());
      refuted = true;
    } else {
      st.detail = "witness row unexpectedly conflict free";
    }
  }
  {
    auto& st = po.add_step("no-residue-invariant");
    fail(st,
         "the k per-lane heads are independent co-ranks: raw - j is "
         "lane-dependent, so no fixed permutation of the linear layout can "
         "restore a per-round complete residue system (contrast Lemma 2's "
         "raw ≡ j (mod E) for the pairwise schedule)");
  }

  if (refuted) {
    Counterexample ce;
    ce.w = w;
    ce.e = e;
    ce.u = w;
    ce.la = static_cast<std::int64_t>(w) + e;  // sequence-0 window length
    ce.round = 0;
    ce.lane1 = 0;
    ce.lane2 = j0;
    ce.addr1 = 0;
    ce.addr2 = w;
    ce.bank = 0;
    po.counterexample = ce;
    po.verdict = Verdict::kCounterexample;
  } else {
    po.verdict = Verdict::kRefutedNoWitness;
  }
  return po;
}

}  // namespace cfmerge::verify
