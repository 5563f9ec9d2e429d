// One global k-way merge pass of the multiway mergesort.
//
// Runs of length `run` are merged k at a time, cutting the global pass count
// from ceil(log2(n/tile)) to ceil(log_k(n/tile)) (Casanova et al.).  Stage 1
// (partition kernel) computes, for every output tile boundary, the k-vector
// of co-ranks inside its group of k runs — multisequence selection, the
// k-dimensional generalization of merge path (mergepath/multiway_path.hpp).
// Stage 2 (merge kernel) produces one output tile of u*E elements per block
// from its k segment windows, in one of two variants:
//
//  * CFCascade — the conflict-free schedule.  The tile's k windows are
//    merged by a cascade of log2(k) in-shared pairwise stages, each an
//    instance of the proven 2-way dual-subsequence-gather schedule; stage
//    outputs are scattered straight into the parent pair's rho(A ∪ pi(B))
//    layout through a data-independent rank map (gather/multiway_schedule.hpp),
//    so every gather *and* scatter round is conflict free — machine-checked
//    by cfverify (verify/multiway.cpp) and screened at runtime by the
//    bank-conflict model.  Requires k to be a power of two.
//  * LoserTree — the natural single-phase design: segments linear in shared,
//    per-thread k-way replacement selection from a register loser tree.
//    Every replacement read is data dependent across lanes, so the merge
//    phase bank-conflicts freely (cfverify refutes the variant with a
//    concrete lane-pair witness).  Kept as the measured baseline; any k >= 2.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/multiway_schedule.hpp"
#include "gather/schedule.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/kernels.hpp"
#include "sort/key_value.hpp"
#include "sort/merge_pass.hpp"
#include "sort/odd_even.hpp"

namespace cfmerge::sort {

enum class MultiwayVariant {
  CFCascade,  ///< cascade of 2-way CF stages in shared memory (k = 2^m)
  LoserTree,  ///< per-thread k-way replacement selection (conflicts; any k)
};

/// Tuning knobs of a k-way sort configuration.
struct MultiwayConfig {
  int e = 15;   ///< elements per thread (paper's E)
  int u = 512;  ///< threads per block
  int k = 4;    ///< merge arity per global pass
  MultiwayVariant variant = MultiwayVariant::CFCascade;
  bool cf_blocksort = false;  ///< forwarded to the (2-way) block-sort stage
  /// Conflict-freedom certificates (see MergeConfig::certs); resolved by
  /// the engine, all-null default keeps the lane-accurate path.
  TileCerts certs{};

  [[nodiscard]] std::int64_t tile() const { return static_cast<std::int64_t>(u) * e; }
  /// Shared elements per block of the k-way merge kernel on a `w`-lane
  /// device: the cascade's two ping-pong buffers, or one tile.
  [[nodiscard]] std::int64_t merge_shared_elems(int w) const {
    return variant == MultiwayVariant::CFCascade
               ? 2 * gather::CascadePlan::capacity(tile(), w, e, k)
               : tile();
  }
};

/// Largest supported merge arity (bounds the per-lane head/pointer arrays).
inline constexpr int kMaxMultiwayK = 16;

/// Validates the MultiwayConfig invariants shared by every multiway entry
/// point.  As in validate_merge_config, every block the config launches
/// must fit on an SM (`elem_bytes` is the element size).  Throws
/// std::invalid_argument naming the first violated constraint.
inline void validate_multiway_config(const gpusim::DeviceSpec& dev,
                                     const MultiwayConfig& cfg, std::size_t elem_bytes) {
  if (cfg.e <= 0) throw std::invalid_argument("MultiwayConfig: E must be positive");
  if (cfg.u <= 0) throw std::invalid_argument("MultiwayConfig: u must be positive");
  if (cfg.u % dev.warp_size != 0)
    throw std::invalid_argument("MultiwayConfig: u must be a multiple of the warp size");
  if (cfg.k < 2 || cfg.k > kMaxMultiwayK)
    throw std::invalid_argument("MultiwayConfig: k must be in [2, 16]");
  if (cfg.variant == MultiwayVariant::CFCascade && (cfg.k & (cfg.k - 1)) != 0)
    throw std::invalid_argument("MultiwayConfig: CFCascade requires a power-of-two k");
  const std::int64_t bsort_elems = cfg.tile() * (cfg.cf_blocksort ? 2 : 1);
  const auto shared_elems =
      static_cast<std::size_t>(std::max(bsort_elems, cfg.merge_shared_elems(dev.warp_size)));
  if (cfg.e > dev.registers_per_sm ||
      !block_fits(dev, cfg.u, shared_elems * elem_bytes,
                  cost::multiway_regs_per_thread(cfg.e, cfg.k)) ||
      !block_fits(dev, cfg.u, 0, cost::kPartitionRegsPerThread))
    throw std::invalid_argument("MultiwayConfig: block does not fit on an SM");
}

/// Geometry of one k-way pass: which group of k runs an output position
/// belongs to, and the (possibly short or empty) segment lengths inside it.
struct PassGeometryK {
  std::int64_t n = 0;    ///< total elements (multiple of tile)
  std::int64_t run = 0;  ///< input run length (multiple of tile)
  int k = 2;

  [[nodiscard]] std::int64_t group_base(std::int64_t pos) const {
    return pos / (k * run) * (k * run);
  }
  /// Length of segment s of the group at `base` (short/empty at the end).
  [[nodiscard]] std::int64_t seg_len(std::int64_t base, int s) const {
    return std::clamp<std::int64_t>(n - base - s * run, 0, run);
  }
  [[nodiscard]] std::int64_t group_len(std::int64_t base) const {
    return std::min<std::int64_t>(static_cast<std::int64_t>(k) * run, n - base);
  }
};

namespace detail {

/// Warp-lockstep multisequence selection: resolves, for every lane l, the
/// co-rank vector of diagonal diag[l] across its k sequences.  seg_len and
/// out_co are lane-major (lane*k + s); diag[l] < 0 masks the lane.  `probe`
/// issues one charged warp-wide read: probe(s, idx, vals) loads element
/// idx[lane] of lane's sequence s (kInactiveLane masks idle lanes).
///
/// Per outer iteration of sequence s the lockstep loop reads the probed
/// element and runs k-1 nested lockstep bound searches — the classical
/// O(k^2 log^2) multisequence-selection pattern, every access charged.
template <typename T, typename Probe, typename Cmp>
void warp_multiway_corank(gpusim::BlockContext& ctx, int warp, int k,
                          std::span<const std::int64_t> seg_len,
                          std::span<const std::int64_t> diag, Probe&& probe, Cmp cmp,
                          std::span<std::int64_t> out_co) {
  const int w = ctx.lanes();
  assert(w <= gpusim::kMaxLanes);
  std::vector<std::int64_t> total(static_cast<std::size_t>(w), 0);
  for (int l = 0; l < w; ++l)
    for (int s = 0; s < k; ++s) total[static_cast<std::size_t>(l)] += seg_len[static_cast<std::size_t>(l * k + s)];

  std::array<std::int64_t, gpusim::kMaxLanes> lo, hi, mid, idx, rank, lo2, hi2;
  std::array<T, gpusim::kMaxLanes> v{}, pv{};
  std::array<bool, gpusim::kMaxLanes> act{}, act2{};
  const std::span<std::int64_t> idxspan(idx.data(), static_cast<std::size_t>(w));
  const std::span<T> vspan(v.data(), static_cast<std::size_t>(w));
  const std::span<T> pvspan(pv.data(), static_cast<std::size_t>(w));

  for (int s = 0; s < k; ++s) {
    for (int l = 0; l < w; ++l) {
      const auto ll = static_cast<std::size_t>(l);
      if (diag[ll] < 0) {
        lo[ll] = hi[ll] = 0;
        continue;
      }
      const std::int64_t ns = seg_len[static_cast<std::size_t>(l * k + s)];
      lo[ll] = std::max<std::int64_t>(0, diag[ll] - (total[ll] - ns));
      hi[ll] = std::min(diag[ll], ns);
    }
    while (true) {
      bool any = false;
      for (int l = 0; l < w; ++l) {
        const auto ll = static_cast<std::size_t>(l);
        act[ll] = diag[ll] >= 0 && lo[ll] < hi[ll];
        any = any || act[ll];
        mid[ll] = act[ll] ? lo[ll] + (hi[ll] - lo[ll]) / 2 : 0;
        idx[ll] = act[ll] ? mid[ll] : gpusim::kInactiveLane;
      }
      if (!any) break;
      ctx.charge_compute(warp, cost::kSearchIterInstrs);
      probe(s, std::span<const std::int64_t>(idxspan), vspan);

      // rank(s, mid) = mid + Σ_{t<s} ub_t(v) + Σ_{t>s} lb_t(v).
      for (int l = 0; l < w; ++l) rank[static_cast<std::size_t>(l)] = mid[static_cast<std::size_t>(l)];
      for (int t = 0; t < k; ++t) {
        if (t == s) continue;
        for (int l = 0; l < w; ++l) {
          const auto ll = static_cast<std::size_t>(l);
          lo2[ll] = 0;
          hi2[ll] = act[ll] ? seg_len[static_cast<std::size_t>(l * k + t)] : 0;
        }
        while (true) {
          bool any2 = false;
          for (int l = 0; l < w; ++l) {
            const auto ll = static_cast<std::size_t>(l);
            act2[ll] = act[ll] && lo2[ll] < hi2[ll];
            any2 = any2 || act2[ll];
            idx[ll] = act2[ll] ? lo2[ll] + (hi2[ll] - lo2[ll]) / 2 : gpusim::kInactiveLane;
          }
          if (!any2) break;
          ctx.charge_compute(warp, cost::kSearchIterInstrs);
          probe(t, std::span<const std::int64_t>(idxspan), pvspan);
          for (int l = 0; l < w; ++l) {
            const auto ll = static_cast<std::size_t>(l);
            if (!act2[ll]) continue;
            const std::int64_t m2 = lo2[ll] + (hi2[ll] - lo2[ll]) / 2;
            const bool take = t < s ? !cmp(v[ll], pv[ll]) : cmp(pv[ll], v[ll]);
            if (take)
              lo2[ll] = m2 + 1;
            else
              hi2[ll] = m2;
          }
        }
        for (int l = 0; l < w; ++l) {
          const auto ll = static_cast<std::size_t>(l);
          if (act[ll]) rank[ll] += lo2[ll];
        }
      }
      for (int l = 0; l < w; ++l) {
        const auto ll = static_cast<std::size_t>(l);
        if (!act[ll]) continue;
        if (rank[ll] < diag[ll])
          lo[ll] = mid[ll] + 1;
        else
          hi[ll] = mid[ll];
      }
    }
    for (int l = 0; l < w; ++l)
      out_co[static_cast<std::size_t>(l * k + s)] =
          diag[static_cast<std::size_t>(l)] < 0 ? 0 : lo[static_cast<std::size_t>(l)];
  }
}

}  // namespace detail

/// Stage 1: k-way partition kernel.  boundaries is a flat (num_tiles+1) x k
/// table; row t receives the co-rank vector of output diagonal t*tile within
/// its group of k runs.  One simulated thread per boundary row.
template <typename T, typename Cmp = std::less<T>>
void multiway_partition_body(gpusim::BlockContext& ctx, std::span<const T> input,
                             const PassGeometryK& geom, std::int64_t tile,
                             std::span<std::int64_t> boundaries, Cmp cmp = Cmp{}) {
  const int u = ctx.threads();
  const int w = ctx.lanes();
  const int k = geom.k;
  const auto nb = static_cast<std::int64_t>(boundaries.size()) / k;
  gpusim::GlobalView<const T> global(ctx, input, 0);

  ctx.phase("partition.search");
  assert(w <= gpusim::kMaxLanes);
  std::vector<std::int64_t> seg_len(static_cast<std::size_t>(w * k), 0);
  std::vector<std::int64_t> out_co(static_cast<std::size_t>(w * k), 0);
  std::array<std::int64_t, gpusim::kMaxLanes> gbase;
  std::array<std::int64_t, gpusim::kMaxLanes> diag;
  std::array<std::int64_t, gpusim::kMaxLanes> pa;
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    bool any = false;
    for (int lane = 0; lane < w; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      diag[l] = -1;
      gbase[l] = 0;
      const std::int64_t t =
          static_cast<std::int64_t>(ctx.block_id()) * u + warp * w + lane;
      if (t >= nb) continue;
      const std::int64_t pos = t * tile;
      const std::int64_t base = pos >= geom.n ? geom.n : geom.group_base(pos);
      gbase[l] = base;
      diag[l] = std::min(pos - base, geom.group_len(base));
      for (int s = 0; s < k; ++s)
        seg_len[static_cast<std::size_t>(lane * k + s)] = geom.seg_len(base, s);
      any = true;
    }
    if (!any) continue;
    auto probe = [&](int s, std::span<const std::int64_t> idx, std::span<T> vals) {
      for (int lane = 0; lane < w; ++lane) {
        const auto l = static_cast<std::size_t>(lane);
        pa[l] = idx[l] == gpusim::kInactiveLane
                    ? gpusim::kInactiveLane
                    : gbase[l] + static_cast<std::int64_t>(s) * geom.run + idx[l];
      }
      global.gather(warp,
                    std::span<const std::int64_t>(pa.data(), static_cast<std::size_t>(w)),
                    vals, /*dependent=*/true);
    };
    detail::warp_multiway_corank<T>(
        ctx, warp, k, seg_len,
        std::span<const std::int64_t>(diag.data(), static_cast<std::size_t>(w)), probe,
        cmp, std::span<std::int64_t>(out_co));
    for (int lane = 0; lane < w; ++lane) {
      const std::int64_t t =
          static_cast<std::int64_t>(ctx.block_id()) * u + warp * w + lane;
      if (t >= nb) continue;
      for (int s = 0; s < k; ++s)
        boundaries[static_cast<std::size_t>(t * k + s)] =
            out_co[static_cast<std::size_t>(lane * k + s)];
    }
  }
}

/// CFCascade merge core: merges the block's k segment windows (global
/// element offsets seg_src, lengths seg_len, Σ = tile) into `gout` through
/// the cascade of 2-way CF stages.  Every gather/scatter round goes through
/// the bank-conflict screener with the conflict-free claim intact.
template <typename T, typename GIn, typename Cmp>
void multiway_cascade_core(gpusim::BlockContext& ctx, GIn& gin, gpusim::GlobalView<T>& gout,
                           std::span<const std::int64_t> seg_src,
                           std::span<const std::int64_t> seg_len,
                           const MultiwayConfig& cfg, Cmp cmp) {
  const int w = ctx.lanes();
  const int e = cfg.e;
  const std::int64_t tile = cfg.tile();
  const gather::CascadePlan plan(w, e, seg_len);
  const std::int64_t cap = gather::CascadePlan::capacity(tile, w, e, cfg.k);
  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(2 * cap));

  // Level-0 load: pair p stages segments 2p (as A) and 2p+1 (as B) into its
  // rho(A ∪ pi(B)) region of buffer 0, sentinel tail included.
  {
    const std::int64_t rb = gather::CascadePlan::read_buffer(0) * cap;
    const auto& prs = plan.pairs(0);
    const auto& leaves = plan.runs(0);
    for (std::size_t p = 0; p < prs.size(); ++p) {
      const gather::CascadePair& pr = prs[p];
      if (pr.size() == 0) continue;
      const std::int64_t na = leaves[2 * p].len;
      const std::int64_t nbr = leaves[2 * p + 1].len;
      cfprims::exec_staged_copy(ctx, gin, shmem, na, /*cert=*/nullptr,
                                cfprims::UnitStep{seg_src[2 * p]},
                                [&](std::int64_t t) { return rb + pr.pos_a(t); });
      cfprims::exec_staged_copy(ctx, gin, shmem, nbr, /*cert=*/nullptr,
                                cfprims::UnitStep{seg_src[2 * p + 1]},
                                [&](std::int64_t t) { return rb + pr.pos_b(t); });
      cfprims::exec_staged_copy(ctx, cfprims::Fill<T>{padding_sentinel<T>::value()}, shmem,
                                pr.lb - nbr, /*cert=*/nullptr, cfprims::UnitStep{},
                                [&](std::int64_t t) { return rb + pr.pos_b(nbr + t); });
    }
  }
  ctx.barrier();

  // The cascade: each level runs the 2-way CF merge for every pair, with
  // virtual warps (u_pair = pad/E simulated threads per pair) mapped
  // round-robin onto the block's physical warps for charging.
  for (int level = 0; level < plan.levels(); ++level) {
    const std::int64_t rb = gather::CascadePlan::read_buffer(level) * cap;
    const std::int64_t wb = gather::CascadePlan::write_buffer(level) * cap;
    const auto& prs = plan.pairs(level);
    std::int64_t vglobal = 0;
    for (std::size_t p = 0; p < prs.size(); ++p) {
      const gather::CascadePair& pr = prs[p];
      const std::int64_t pad = pr.size();
      if (pad == 0) continue;
      const auto u_pair = static_cast<int>(pad / e);
      const int vwarps = u_pair / w;

      // Per-virtual-thread merge-path splits within the pair.
      ctx.phase("merge.search");
      std::vector<ThreadSplit> splits(static_cast<std::size_t>(u_pair));
      {
        const auto pos_a = [&](int, std::int64_t x) { return rb + pr.pos_a(x); };
        const auto pos_b = [&](int, std::int64_t y) { return rb + pr.pos_b(y); };
        std::array<LanePair, gpusim::kMaxLanes + 1> pairs;
        for (int vw = 0; vw < vwarps; ++vw) {
          const int pw = static_cast<int>((vglobal + vw) % ctx.warps());
          for (int lane = 0; lane <= w; ++lane)
            pairs[static_cast<std::size_t>(lane)] = {
                pr.la, pr.lb, static_cast<std::int64_t>(vw * w + lane) * e};
          warp_split_search(
              ctx, pw, shmem,
              std::span<const LanePair>(pairs.data(), static_cast<std::size_t>(w) + 1), pos_a,
              pos_b, cmp,
              std::span<ThreadSplit>(splits).subspan(static_cast<std::size_t>(vw * w),
                                                     static_cast<std::size_t>(w)));
        }
      }
      std::vector<std::int64_t> a_off(static_cast<std::size_t>(u_pair));
      std::vector<std::int64_t> a_size(static_cast<std::size_t>(u_pair));
      for (std::size_t i = 0; i < splits.size(); ++i) {
        a_off[i] = splits[i].a_off;
        a_size[i] = splits[i].a_size;
      }

      // Dual subsequence gather + register network (the proven 2-way core).
      ctx.phase("merge.merge");
      const gather::GatherShape shape{w, e, u_pair, pr.la, pr.lb};
      const gather::RoundSchedule sched(shape, std::move(a_off), std::move(a_size));
      std::vector<T> regs(static_cast<std::size_t>(pad));
      const auto pair_warp = [&](int vw) {
        return static_cast<int>((vglobal + vw) % ctx.warps());
      };
      // Each pair is an instance of the proven 2-way schedule at a constant
      // buffer offset (a uniform shift preserves bank distinctness), so the
      // cf_gather certificate applies per pair.
      cfprims::exec_cf_gather(ctx, shmem, sched, rb + pr.base, cfg.certs.gather, pair_warp,
                              std::span<T>(regs));
      for (int vw = 0; vw < vwarps; ++vw) {
        for (int lane = 0; lane < w; ++lane) {
          std::span<T> r(regs.data() + static_cast<std::size_t>(vw * w + lane) *
                                           static_cast<std::size_t>(e),
                         static_cast<std::size_t>(e));
          network_sort_result(r, cmp);
        }
        ctx.charge_compute(pair_warp(vw),
                           static_cast<std::uint64_t>(odd_even_network_size(e)) *
                               cost::kCompareExchangeInstrs);
      }

      // Inter-stage rank scatter: rank r = iE + j of this pair lands at the
      // parent's pos_a/pos_b(r) (root: rho_out(r)) — data independent, so
      // each round is a stride-E progression through rho' and conflict free.
      ctx.phase("merge.store");
      // The cf_rank_scatter primitive at gather cadence: the per-thread
      // setup computes the parent's pos_a/pos_b bounds.  The piecewise
      // parent map is machine-checked CF by verify/multiway.cpp; the
      // cf_rank_scatter certificate stands in for the family.
      cfprims::exec_crs_scatter(
          ctx, shmem, w, e, vwarps, cfprims::kGatherCharge, cfg.certs.rank_scatter,
          pair_warp,
          [&](int vw, int lane, int j) {
            const std::int64_t r = static_cast<std::int64_t>(vw * w + lane) * e + j;
            return wb + plan.scatter_pos(level, static_cast<int>(p), r);
          },
          [&](int vw, int lane, int j) {
            return regs[static_cast<std::size_t>(
                static_cast<std::int64_t>(vw * w + lane) * e + j)];
          });
      vglobal += vwarps;
    }
    ctx.barrier();
  }

  // Coalesced store of the real ranks (sentinels sit at ranks >= tile).
  ctx.phase("merge.store");
  const std::int64_t ob = (plan.levels() % 2) * cap;
  cfprims::exec_staged_copy(ctx, shmem, gout, tile, /*cert=*/nullptr,
                            [&](std::int64_t t) { return ob + plan.out_pos(t); },
                            cfprims::UnitStep{});
}

/// LoserTree merge core: linear shared layout, per-thread k-way replacement
/// selection.  The head gathers and every replacement read are data
/// dependent across lanes — the merge phase is *not* conflict free (that is
/// the point of the variant; cfverify refutes it with a witness).
template <typename T, typename GIn, typename Cmp>
void multiway_losertree_core(gpusim::BlockContext& ctx, GIn& gin,
                             gpusim::GlobalView<T>& gout,
                             std::span<const std::int64_t> seg_src,
                             std::span<const std::int64_t> seg_len,
                             const MultiwayConfig& cfg, Cmp cmp) {
  const int w = ctx.lanes();
  const int u = ctx.threads();
  const int e = cfg.e;
  const int k = cfg.k;
  const std::int64_t tile = cfg.tile();
  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(tile));

  // Linear layout: segment s occupies [seg_off[s], seg_off[s] + len_s).
  std::vector<std::int64_t> seg_off(static_cast<std::size_t>(k), 0);
  for (int s = 1; s < k; ++s)
    seg_off[static_cast<std::size_t>(s)] =
        seg_off[static_cast<std::size_t>(s - 1)] + seg_len[static_cast<std::size_t>(s - 1)];
  for (int s = 0; s < k; ++s)
    cfprims::exec_staged_copy(ctx, gin, shmem, seg_len[static_cast<std::size_t>(s)],
                              /*cert=*/nullptr,
                              cfprims::UnitStep{seg_src[static_cast<std::size_t>(s)]},
                              cfprims::UnitStep{seg_off[static_cast<std::size_t>(s)]});
  ctx.barrier();

  // Per-thread k-vector co-ranks at every thread's start diagonal.
  ctx.phase("merge.search");
  std::vector<std::int64_t> co(static_cast<std::size_t>(u * k), 0);
  {
    std::vector<std::int64_t> lane_lens(static_cast<std::size_t>(w * k));
    std::vector<std::int64_t> out_co(static_cast<std::size_t>(w * k));
    std::array<std::int64_t, gpusim::kMaxLanes> diag;
    std::array<std::int64_t, gpusim::kMaxLanes> pa;
    for (int lane = 0; lane < w; ++lane)
      for (int s = 0; s < k; ++s)
        lane_lens[static_cast<std::size_t>(lane * k + s)] =
            seg_len[static_cast<std::size_t>(s)];
    for (int warp = 0; warp < ctx.warps(); ++warp) {
      for (int lane = 0; lane < w; ++lane)
        diag[static_cast<std::size_t>(lane)] =
            static_cast<std::int64_t>(warp * w + lane) * e;
      auto probe = [&](int s, std::span<const std::int64_t> idx, std::span<T> pvals) {
        for (int lane = 0; lane < w; ++lane) {
          const auto l = static_cast<std::size_t>(lane);
          pa[l] = idx[l] == gpusim::kInactiveLane
                      ? gpusim::kInactiveLane
                      : seg_off[static_cast<std::size_t>(s)] + idx[l];
        }
        shmem.gather(warp,
                     std::span<const std::int64_t>(pa.data(), static_cast<std::size_t>(w)),
                     pvals, /*dependent=*/true, /*scattered=*/true);
      };
      detail::warp_multiway_corank<T>(
          ctx, warp, k, lane_lens,
          std::span<const std::int64_t>(diag.data(), static_cast<std::size_t>(w)), probe,
          cmp, std::span<std::int64_t>(out_co));
      for (int lane = 0; lane < w; ++lane)
        for (int s = 0; s < k; ++s)
          co[static_cast<std::size_t>((warp * w + lane) * k + s)] =
              out_co[static_cast<std::size_t>(lane * k + s)];
    }
  }

  // Replacement selection: k head gathers, then one data-dependent
  // replacement gather per emitted element.
  ctx.phase("merge.merge");
  std::vector<T> regs(static_cast<std::size_t>(tile));
  {
    const int sel =
        std::max(1, static_cast<int>(std::bit_width(static_cast<unsigned>(k))) - 1);
    std::vector<std::int64_t> ptr(static_cast<std::size_t>(w * k));
    std::vector<std::int64_t> end(static_cast<std::size_t>(w * k));
    std::vector<T> head(static_cast<std::size_t>(w * k), padding_sentinel<T>::value());
    std::array<std::int64_t, gpusim::kMaxLanes> addr;
    std::array<T, gpusim::kMaxLanes> vals{};
    for (int warp = 0; warp < ctx.warps(); ++warp) {
      ctx.charge_compute(warp, cost::kThreadSetupInstrs);
      for (int lane = 0; lane < w; ++lane) {
        const int i = warp * w + lane;
        for (int s = 0; s < k; ++s) {
          const auto ls = static_cast<std::size_t>(lane * k + s);
          ptr[ls] = co[static_cast<std::size_t>(i * k + s)];
          end[ls] = i + 1 < u ? co[static_cast<std::size_t>((i + 1) * k + s)]
                              : seg_len[static_cast<std::size_t>(s)];
          head[ls] = padding_sentinel<T>::value();
        }
      }
      // Initial fill: one warp-wide gather per sequence.
      for (int s = 0; s < k; ++s) {
        for (int lane = 0; lane < w; ++lane) {
          const auto ls = static_cast<std::size_t>(lane * k + s);
          addr[static_cast<std::size_t>(lane)] =
              ptr[ls] < end[ls] ? seg_off[static_cast<std::size_t>(s)] + ptr[ls]
                                : gpusim::kInactiveLane;
        }
        ctx.charge_compute(warp, cost::kGatherRoundInstrs);
        shmem.gather(warp,
                     std::span<const std::int64_t>(addr.data(),
                                                   static_cast<std::size_t>(w)),
                     std::span<T>(vals.data(), static_cast<std::size_t>(w)),
                     /*dependent=*/true, /*scattered=*/true);
        for (int lane = 0; lane < w; ++lane) {
          const auto ls = static_cast<std::size_t>(lane * k + s);
          if (ptr[ls] < end[ls]) head[ls] = vals[static_cast<std::size_t>(lane)];
        }
      }
      // E replacement rounds.
      for (int j = 0; j < e; ++j) {
        std::array<int, gpusim::kMaxLanes> smin;
        for (int lane = 0; lane < w; ++lane) {
          const auto l = static_cast<std::size_t>(lane);
          int best = -1;
          for (int s = 0; s < k; ++s) {
            const auto ls = static_cast<std::size_t>(lane * k + s);
            if (ptr[ls] >= end[ls]) continue;
            if (best < 0 ||
                cmp(head[ls], head[static_cast<std::size_t>(lane * k + best)]))
              best = s;
          }
          smin[l] = best;
          const int i = warp * w + lane;
          regs[static_cast<std::size_t>(i) * static_cast<std::size_t>(e) +
               static_cast<std::size_t>(j)] =
              best >= 0 ? head[static_cast<std::size_t>(lane * k + best)]
                        : padding_sentinel<T>::value();
          if (best >= 0) ++ptr[static_cast<std::size_t>(lane * k + best)];
        }
        ctx.charge_compute(warp, static_cast<std::uint64_t>(sel) * cost::kMergeStepInstrs);
        // Replacement read: each lane refills from *its own* winning
        // sequence — the data-dependent access this variant pays for.
        for (int lane = 0; lane < w; ++lane) {
          const auto l = static_cast<std::size_t>(lane);
          const int s = smin[l];
          addr[l] = gpusim::kInactiveLane;
          if (s >= 0) {
            const auto ls = static_cast<std::size_t>(lane * k + s);
            if (ptr[ls] < end[ls])
              addr[l] = seg_off[static_cast<std::size_t>(s)] + ptr[ls];
          }
        }
        ctx.charge_compute(warp, cost::kGatherRoundInstrs);
        shmem.gather(warp,
                     std::span<const std::int64_t>(addr.data(),
                                                   static_cast<std::size_t>(w)),
                     std::span<T>(vals.data(), static_cast<std::size_t>(w)),
                     /*dependent=*/true, /*scattered=*/true);
        for (int lane = 0; lane < w; ++lane) {
          const auto l = static_cast<std::size_t>(lane);
          if (addr[l] != gpusim::kInactiveLane)
            head[static_cast<std::size_t>(lane * k + smin[l])] = vals[l];
        }
      }
    }
  }
  ctx.barrier();

  // Stride-E write-back (linear, like the 2-way baseline, but on the lane
  // path: the loser tree is the uncertified baseline), coalesced store.
  ctx.phase("merge.store");
  cfprims::exec_stride_scatter(ctx, shmem, w, e, ctx.warps(), cfprims::kCopyCharge,
                               /*cert=*/nullptr, std::span<const T>(regs));
  ctx.barrier();
  cfprims::exec_staged_copy(ctx, shmem, gout, tile, /*cert=*/nullptr, cfprims::UnitStep{},
                            cfprims::UnitStep{});
}

/// Stage 2: k-way merge kernel body for one output tile.
template <typename T, typename Cmp = std::less<T>>
void multiway_tile_body(gpusim::BlockContext& ctx, std::span<const T> input,
                        std::span<T> output, const PassGeometryK& geom,
                        const MultiwayConfig& cfg,
                        std::span<const std::int64_t> boundaries, Cmp cmp = Cmp{}) {
  const int w = ctx.lanes();
  const int k = cfg.k;
  const std::int64_t tile = cfg.tile();
  const std::int64_t out0 = static_cast<std::int64_t>(ctx.block_id()) * tile;
  const std::int64_t base = geom.group_base(out0);

  // Both boundary rows of this tile (2k co-ranks; a cheap global read).
  ctx.phase("merge.load");
  {
    gpusim::GlobalView<const std::int64_t> bview(ctx, boundaries, 0);
    std::array<std::int64_t, gpusim::kMaxLanes> addr;
    std::array<std::int64_t, gpusim::kMaxLanes> vals;
    for (std::int64_t c = 0; c < 2 * k; c += w) {
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t i = c + lane;
        addr[static_cast<std::size_t>(lane)] =
            i < 2 * k ? static_cast<std::int64_t>(ctx.block_id()) * k + i
                      : gpusim::kInactiveLane;
      }
      bview.gather(0,
                   std::span<const std::int64_t>(addr.data(), static_cast<std::size_t>(w)),
                   std::span<std::int64_t>(vals.data(), static_cast<std::size_t>(w)));
    }
  }
  const std::int64_t diag1 = out0 + tile - base;
  const std::int64_t group_total = geom.group_len(base);
  std::vector<std::int64_t> seg_src(static_cast<std::size_t>(k));
  std::vector<std::int64_t> seg_win(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    const std::int64_t len = geom.seg_len(base, s);
    const std::int64_t r0 =
        boundaries[static_cast<std::size_t>(static_cast<std::int64_t>(ctx.block_id()) * k + s)];
    // A boundary coinciding with the *end* of this group was computed
    // relative to the next group (as diagonal 0); its co-ranks here are the
    // full segment lengths.
    const std::int64_t r1 =
        diag1 >= group_total
            ? len
            : boundaries[static_cast<std::size_t>(
                  (static_cast<std::int64_t>(ctx.block_id()) + 1) * k + s)];
    seg_src[static_cast<std::size_t>(s)] = base + static_cast<std::int64_t>(s) * geom.run + r0;
    seg_win[static_cast<std::size_t>(s)] = r1 - r0;
  }

  gpusim::GlobalView<const T> gin(ctx, input, 0);
  gpusim::GlobalView<T> gout(ctx, output.subspan(static_cast<std::size_t>(out0),
                                                 static_cast<std::size_t>(tile)),
                             out0);
  if (cfg.variant == MultiwayVariant::CFCascade)
    multiway_cascade_core<T>(ctx, gin, gout, seg_src, seg_win, cfg, cmp);
  else
    multiway_losertree_core<T>(ctx, gin, gout, seg_src, seg_win, cfg, cmp);
}

}  // namespace cfmerge::sort
