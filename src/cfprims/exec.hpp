// Shared executors for the CF primitives: every certified access family in
// the sort and permute kernels runs through one of them.
//
//  * exec_crs_gather / exec_crs_scatter — CRS-style register gathers and
//    scatters: per (virtual) warp, charge.setup warp instructions (0 =
//    skip), then per round charge.round warp instructions followed by ONE
//    warp-wide dependent shared access.
//  * exec_stride_gather / exec_stride_scatter — the stride-E register
//    staging instance of the CRS loops, moved as per-warp block copies.
//  * exec_staged_copy — tile staging between two endpoints (shared tile,
//    global view, or a constant Fill): warp k takes lanes [k*w, k*w + w) of
//    each u-element chunk; one kCopyChunkInstrs, one read row and one write
//    row per chunk.  The first chunk's read is dependent iff an endpoint is
//    global.
//  * exec_cf_gather — the dual subsequence gather (cf_gather, paper §3) at
//    gather cadence, moved as two raw runs per thread on the bulk path.
//
// The accounting contract is frozen: the per-lane loops are bit-identical to
// the kernels they replaced (pinned by tests/test_cfprims_golden.cpp and
// tests/test_access_stream.cpp).  Any change here shifts every counter in
// every report.
//
// This header depends only on gpusim, the cost constants and the gather
// schedule, so both the gather layer and the sort kernels can include it
// without cycles.
//
// Bulk fast path: each executor takes a nullable CfCertificate
// (verify/certificate.hpp).  When the pattern is certified and no observer
// needs per-lane addresses (bulk_path), the executor charges the whole
// progression in closed form through charge_certified — the only caller of
// BlockContext::charge_shared_crs and GlobalView::charge_run — and moves the
// data in one fused loop: the exact counters and chains of the lane path,
// without materializing address buffers or re-screening what the verifier
// already proved.  A null certificate always takes the lane path.
//
// Certified-skip audit mode: with an auditor attached, the lane path
// normally runs so every access is shadow-checked.  When the context is in
// audit-skip mode (BlockContext::set_audit_skip) AND the certificate also
// carries a Pass 3 safety token (cert->safety), the bulk path runs anyway —
// the static bounds/init/race proof stands in for the per-lane replay — and
// the executor reports the elided progression through
// SharedTile::notify_certified_skip.  Counters and chains are bit-identical
// to the fully-audited run (charge_shared_crs is exact); only the audit
// granularity changes.  Global accesses are never elided: a global endpoint
// adds bulk_global() to the gate, which no auditor passes.  Data-dependent
// accesses (merge-path probes, serial merge) never carry certificates and
// always stay on the audited lane path.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "gather/schedule.hpp"
#include "gpusim/block_context.hpp"
#include "gpusim/memory_views.hpp"
#include "sort/cost_model.hpp"
#include "verify/certificate.hpp"

namespace cfmerge::cfprims {

/// Warp-instruction charges of one primitive execution (see header comment).
struct CrsCharge {
  std::uint64_t setup = 0;  ///< once per virtual warp; 0 = no setup charge
  std::uint64_t round = 0;  ///< before each warp-wide shared access
};

/// The dual-gather / cascade-merge cadence: per-thread setup (computing k,
/// offsets, bounds) then the mod-E bookkeeping of each Algorithm 1 round.
inline constexpr CrsCharge kGatherCharge{sort::cost::kThreadSetupInstrs,
                                         sort::cost::kGatherRoundInstrs};
/// The plain copy cadence (stride-E register write-back, output scatter):
/// address arithmetic only, no per-thread setup.
inline constexpr CrsCharge kCopyCharge{0, sort::cost::kCopyChunkInstrs};

/// A unit-step address map t -> first + step*t (step in {+1, -1}): the
/// staging copies whose layout is affine.  A staged copy with UnitStep maps
/// on both sides moves its data as one std::copy / reverse_copy, and only a
/// UnitStep map lets a global endpoint charge in closed form (each chunk is
/// then one contiguous run).
struct UnitStep {
  std::int64_t first = 0;
  int step = 1;
  [[nodiscard]] std::int64_t operator()(std::int64_t t) const { return first + step * t; }
};

/// Staged-copy source that reads nothing: every lane supplies `value` (the
/// cascade's sentinel fill).  Its rows are not memory accesses and charge
/// nothing.
template <typename T>
struct Fill {
  T value;
  void gather(int, std::span<const std::int64_t>, std::span<T> out, bool) const {
    std::fill(out.begin(), out.end(), value);
  }
};

namespace detail {
template <typename E>
inline constexpr bool kIsGlobal = false;
template <typename T>
inline constexpr bool kIsGlobal<gpusim::GlobalView<T>> = true;
template <typename E>
inline constexpr bool kIsShared = false;
template <typename T>
inline constexpr bool kIsShared<gpusim::SharedTile<T>> = true;
template <typename M>
inline constexpr bool kIsUnitStep = std::is_same_v<std::remove_cvref_t<M>, UnitStep>;

/// Uncharged destination span of a certified staged copy.
template <typename T>
std::span<T> writable(gpusim::SharedTile<T>& tile) {
  return tile.certified_raw();
}
template <typename T>
std::span<T> writable(gpusim::GlobalView<T>& view) {
  return view.raw();
}

/// Lowest address and one past the highest `map` takes on [0, count).
template <typename Map>
std::pair<std::int64_t, std::int64_t> span_of(const Map& map, std::int64_t count) {
  if constexpr (kIsUnitStep<Map>) {
    const std::int64_t last = map(count - 1);
    return {std::min(map.first, last), std::max(map.first, last) + 1};
  } else {
    std::int64_t lo = map(0);
    std::int64_t hi = lo;
    for (std::int64_t t = 1; t < count; ++t) {
      lo = std::min(lo, map(t));
      hi = std::max(hi, map(t));
    }
    return {lo, hi + 1};
  }
}
}  // namespace detail

/// Whether this execution may take the closed-form bulk path: certified,
/// and either no observer needs per-lane addresses or certified-skip audit
/// mode applies (the certificate must then carry the Pass 3 safety token).
/// A global endpoint among `Endpoints` also needs bulk_global(), so
/// certified-skip audit never elides a global access.
template <typename... Endpoints>
bool bulk_path(const gpusim::BlockContext& ctx, const verify::CfCertificate* cert) {
  if (cert == nullptr || !ctx.bulk_shared_skip(cert->safety != nullptr)) return false;
  return !(detail::kIsGlobal<Endpoints> || ...) || ctx.bulk_global();
}

/// One warp's certified progression on one endpoint: `rounds` warp-wide
/// accesses, the leading `dependent` of them on the warp chain.  A global
/// endpoint's rounds are staging chunks: round r moves the logical elements
/// [first + r*pitch, min(first + r*pitch + w, count)) through a UnitStep map.
struct Progression {
  int rounds = 0;
  int dependent = 0;
  std::int64_t first = 0;
  std::int64_t pitch = 0;
  std::int64_t count = 0;
};

/// The closed-form charging path of every certified executor.  Shared
/// rounds are certified conflict-free, so their charge needs only the
/// counts; each global round is one contiguous run (ascending or
/// descending: the same transactions); a Fill charges nothing.
template <typename End, typename Map = UnitStep>
void charge_certified(gpusim::BlockContext& ctx, int warp, End& end, const Progression& p,
                      const Map& map = {}) {
  using E = std::remove_cv_t<End>;
  if constexpr (detail::kIsShared<E>) {
    ctx.charge_shared_crs(warp, gpusim::CrsAccessDesc{.rounds = p.rounds,
                                                      .dependent_rounds = p.dependent,
                                                      .active_lanes = ctx.lanes()});
  } else if constexpr (detail::kIsGlobal<E>) {
    static_assert(detail::kIsUnitStep<Map>, "global closed form needs a UnitStep map");
    for (int r = 0; r < p.rounds; ++r) {
      const std::int64_t t = p.first + r * p.pitch;
      const std::int64_t n = std::min<std::int64_t>(ctx.lanes(), p.count - t);
      end.charge_run(warp, std::min(map(t), map(t + n - 1)), n, r < p.dependent);
    }
  }
}

/// Executes one CRS-style gather: `vwarps` virtual warps each perform
/// `rounds` warp-wide reads of `shmem`.  `warp_of(vw)` maps the virtual
/// warp to the physical warp that issues (and is charged for) its
/// accesses; `addr_of(vw, lane, j)` gives the shared slot; `sink(vw, lane,
/// j, value)` receives each element read.  All w lanes must be active.
/// `cert` enables the closed-form bulk path (see header comment).
template <typename T, typename WarpOf, typename AddrOf, typename Sink>
void exec_crs_gather(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem, int w,
                     int rounds, int vwarps, const CrsCharge& charge,
                     const verify::CfCertificate* cert, WarpOf&& warp_of,
                     AddrOf&& addr_of, Sink&& sink) {
  assert(w <= gpusim::kMaxLanes);
  if (bulk_path(ctx, cert) && rounds > 0) {
    const std::span<const T> data = std::as_const(shmem).raw();
    for (int vw = 0; vw < vwarps; ++vw) {
      const int pw = warp_of(vw);
      ctx.charge_compute(pw,
                         charge.setup + static_cast<std::uint64_t>(rounds) * charge.round);
      for (int j = 0; j < rounds; ++j) {
        for (int lane = 0; lane < w; ++lane) {
          const std::int64_t a = addr_of(vw, lane, j);
          assert(a >= 0 && static_cast<std::size_t>(a) < data.size());
          sink(vw, lane, j, data[static_cast<std::size_t>(a)]);
        }
      }
      charge_certified(ctx, pw, shmem, {.rounds = rounds, .dependent = rounds});
    }
    if (ctx.audit_skipping())
      shmem.notify_certified_skip(0, static_cast<std::int64_t>(data.size()),
                                  static_cast<std::uint64_t>(vwarps) *
                                      static_cast<std::uint64_t>(rounds),
                                  w, /*is_write=*/false);
    return;
  }
  std::array<std::int64_t, gpusim::kMaxLanes> addr;
  std::array<T, gpusim::kMaxLanes> vals{};
  const std::span<const std::int64_t> aspan(addr.data(), static_cast<std::size_t>(w));
  const std::span<T> vspan(vals.data(), static_cast<std::size_t>(w));
  for (int vw = 0; vw < vwarps; ++vw) {
    const int pw = warp_of(vw);
    if (charge.setup != 0) ctx.charge_compute(pw, charge.setup);
    for (int j = 0; j < rounds; ++j) {
      for (int lane = 0; lane < w; ++lane)
        addr[static_cast<std::size_t>(lane)] = addr_of(vw, lane, j);
      ctx.charge_compute(pw, charge.round);
      shmem.gather(pw, aspan, vspan);
      for (int lane = 0; lane < w; ++lane)
        sink(vw, lane, j, vals[static_cast<std::size_t>(lane)]);
    }
  }
}

/// Mirror image of exec_crs_gather for warp-wide writes: `source(vw, lane,
/// j)` supplies the element each lane stores to `addr_of(vw, lane, j)`.
template <typename T, typename WarpOf, typename AddrOf, typename Source>
void exec_crs_scatter(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem, int w,
                      int rounds, int vwarps, const CrsCharge& charge,
                      const verify::CfCertificate* cert, WarpOf&& warp_of,
                      AddrOf&& addr_of, Source&& source) {
  assert(w <= gpusim::kMaxLanes);
  if (bulk_path(ctx, cert) && rounds > 0) {
    const std::span<T> data = shmem.certified_raw();
    const bool note = ctx.audit_skipping();
    std::int64_t lo = static_cast<std::int64_t>(data.size());
    std::int64_t hi = -1;
    for (int vw = 0; vw < vwarps; ++vw) {
      const int pw = warp_of(vw);
      ctx.charge_compute(pw,
                         charge.setup + static_cast<std::uint64_t>(rounds) * charge.round);
      for (int j = 0; j < rounds; ++j) {
        for (int lane = 0; lane < w; ++lane) {
          const std::int64_t a = addr_of(vw, lane, j);
          assert(a >= 0 && static_cast<std::size_t>(a) < data.size());
          data[static_cast<std::size_t>(a)] = source(vw, lane, j);
          if (note) {
            lo = std::min(lo, a);
            hi = std::max(hi, a);
          }
        }
      }
      charge_certified(ctx, pw, shmem, {.rounds = rounds, .dependent = rounds});
    }
    if (note && hi >= lo)
      shmem.notify_certified_skip(lo, hi + 1,
                                  static_cast<std::uint64_t>(vwarps) *
                                      static_cast<std::uint64_t>(rounds),
                                  w, /*is_write=*/true);
    return;
  }
  std::array<std::int64_t, gpusim::kMaxLanes> addr;
  std::array<T, gpusim::kMaxLanes> vals{};
  const std::span<const std::int64_t> aspan(addr.data(), static_cast<std::size_t>(w));
  const std::span<const T> vspan(vals.data(), static_cast<std::size_t>(w));
  for (int vw = 0; vw < vwarps; ++vw) {
    const int pw = warp_of(vw);
    if (charge.setup != 0) ctx.charge_compute(pw, charge.setup);
    for (int j = 0; j < rounds; ++j) {
      for (int lane = 0; lane < w; ++lane) {
        addr[static_cast<std::size_t>(lane)] = addr_of(vw, lane, j);
        vals[static_cast<std::size_t>(lane)] = source(vw, lane, j);
      }
      ctx.charge_compute(pw, charge.round);
      shmem.scatter(pw, aspan, vspan);
    }
  }
}

/// exec_crs_gather specialised for the stride-E register staging pattern:
/// addr(vw, lane, j) = (vw*w + lane)*rounds + j, sink = regs[same index].
/// One virtual warp's addresses cover exactly the contiguous range
/// [vw*w*rounds, (vw+1)*w*rounds), so the certified bulk path moves the
/// whole warp block with one std::copy; charges are identical to the
/// generic executor on the same pattern.
template <typename T>
void exec_stride_gather(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem, int w,
                        int rounds, int vwarps, const CrsCharge& charge,
                        const verify::CfCertificate* cert, std::span<T> regs) {
  if (bulk_path(ctx, cert) && rounds > 0) {
    const std::span<const T> data = std::as_const(shmem).raw();
    const auto per_warp = static_cast<std::size_t>(w) * static_cast<std::size_t>(rounds);
    for (int vw = 0; vw < vwarps; ++vw) {
      ctx.charge_compute(vw,
                         charge.setup + static_cast<std::uint64_t>(rounds) * charge.round);
      const std::size_t first = static_cast<std::size_t>(vw) * per_warp;
      assert(first + per_warp <= data.size() && first + per_warp <= regs.size());
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(first),
                data.begin() + static_cast<std::ptrdiff_t>(first + per_warp),
                regs.begin() + static_cast<std::ptrdiff_t>(first));
      charge_certified(ctx, vw, shmem, {.rounds = rounds, .dependent = rounds});
    }
    if (ctx.audit_skipping())
      shmem.notify_certified_skip(
          0, static_cast<std::int64_t>(static_cast<std::size_t>(vwarps) * per_warp),
          static_cast<std::uint64_t>(vwarps) * static_cast<std::uint64_t>(rounds), w,
          /*is_write=*/false);
    return;
  }
  exec_crs_gather(
      ctx, shmem, w, rounds, vwarps, charge, cert, [](int vw) { return vw; },
      [w, rounds](int vw, int lane, int j) {
        return static_cast<std::int64_t>(vw * w + lane) * rounds + j;
      },
      [regs, rounds, w](int vw, int lane, int j, const T& v) {
        regs[static_cast<std::size_t>(vw * w + lane) * static_cast<std::size_t>(rounds) +
             static_cast<std::size_t>(j)] = v;
      });
}

/// Mirror image of exec_stride_gather: regs -> shared, same index map.
template <typename T>
void exec_stride_scatter(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem, int w,
                         int rounds, int vwarps, const CrsCharge& charge,
                         const verify::CfCertificate* cert, std::span<const T> regs) {
  if (bulk_path(ctx, cert) && rounds > 0) {
    const std::span<T> data = shmem.certified_raw();
    const auto per_warp = static_cast<std::size_t>(w) * static_cast<std::size_t>(rounds);
    for (int vw = 0; vw < vwarps; ++vw) {
      ctx.charge_compute(vw,
                         charge.setup + static_cast<std::uint64_t>(rounds) * charge.round);
      const std::size_t first = static_cast<std::size_t>(vw) * per_warp;
      assert(first + per_warp <= data.size() && first + per_warp <= regs.size());
      std::copy(regs.begin() + static_cast<std::ptrdiff_t>(first),
                regs.begin() + static_cast<std::ptrdiff_t>(first + per_warp),
                data.begin() + static_cast<std::ptrdiff_t>(first));
      charge_certified(ctx, vw, shmem, {.rounds = rounds, .dependent = rounds});
    }
    if (ctx.audit_skipping())
      shmem.notify_certified_skip(
          0, static_cast<std::int64_t>(static_cast<std::size_t>(vwarps) * per_warp),
          static_cast<std::uint64_t>(vwarps) * static_cast<std::uint64_t>(rounds), w,
          /*is_write=*/true);
    return;
  }
  exec_crs_scatter(
      ctx, shmem, w, rounds, vwarps, charge, cert, [](int vw) { return vw; },
      [w, rounds](int vw, int lane, int j) {
        return static_cast<std::int64_t>(vw * w + lane) * rounds + j;
      },
      [regs, rounds, w](int vw, int lane, int j) {
        return regs[static_cast<std::size_t>(vw * w + lane) *
                        static_cast<std::size_t>(rounds) +
                    static_cast<std::size_t>(j)];
      });
}

/// Staged copy of `count` elements: logical element t moves from
/// `src_of(t)` of `src` to `dst_of(t)` of `dst`.  Endpoints are a
/// SharedTile, a GlobalView, or (source only) a Fill.  All warps take part:
/// warp k handles lanes [k*w, k*w + w) of each block-wide chunk of u
/// elements, charging kCopyChunkInstrs, one read row and one write row per
/// chunk.  The addresses are functions of the slot, not of loaded data, so
/// only the first read of each warp is dependent, and only when an endpoint
/// is global (a streaming tile load or store pays the latency once).
///
/// A certificate must cover both sides of every chunk (w-aligned warp
/// windows through src_of and dst_of each hit distinct banks: cf_stage for
/// UnitStep maps, the permute ops for their sigma stages).  A global
/// endpoint can only charge in closed form through a UnitStep map; with any
/// other map the copy stays on the lane path.  Shared endpoints must be
/// distinct tiles.
template <typename Src, typename Dst, typename SrcOf, typename DstOf>
void exec_staged_copy(gpusim::BlockContext& ctx, Src&& src, Dst&& dst, std::int64_t count,
                      const verify::CfCertificate* cert, SrcOf&& src_of, DstOf&& dst_of) {
  using S = std::remove_cvref_t<Src>;
  using D = std::remove_cvref_t<Dst>;
  using V = typename D::value_type;
  constexpr int kDependentReads = detail::kIsGlobal<S> || detail::kIsGlobal<D> ? 1 : 0;
  const int w = ctx.lanes();
  const int u = ctx.threads();
  assert(w <= gpusim::kMaxLanes);
  if constexpr ((!detail::kIsGlobal<S> || detail::kIsUnitStep<SrcOf>) &&
                (!detail::kIsGlobal<D> || detail::kIsUnitStep<DstOf>)) {
    if (count > 0 && bulk_path<S, D>(ctx, cert)) {
      std::uint64_t total_chunks = 0;
      for (int warp = 0; warp < ctx.warps(); ++warp) {
        const std::int64_t first = static_cast<std::int64_t>(warp) * w;
        if (first >= count) break;
        const auto chunks = static_cast<int>((count - first + u - 1) / u);
        total_chunks += static_cast<std::uint64_t>(chunks);
        ctx.charge_compute(warp, static_cast<std::uint64_t>(chunks) *
                                     sort::cost::kCopyChunkInstrs);
        charge_certified(ctx, warp, src,
                         {.rounds = chunks, .dependent = kDependentReads, .first = first,
                          .pitch = u, .count = count},
                         src_of);
        charge_certified(ctx, warp, dst,
                         {.rounds = chunks, .first = first, .pitch = u, .count = count},
                         dst_of);
      }
      const auto out = detail::writable(dst);
      if constexpr (!detail::kIsShared<S> && !detail::kIsGlobal<S>) {  // a Fill
        for (std::int64_t t = 0; t < count; ++t)
          out[static_cast<std::size_t>(dst_of(t))] = src.value;
      } else {
        const auto in = std::as_const(src).raw();
        if constexpr (detail::kIsUnitStep<SrcOf> && detail::kIsUnitStep<DstOf>) {
          const auto [slo, shi] = detail::span_of(src_of, count);
          const auto dlo = detail::span_of(dst_of, count).first;
          assert(slo >= 0 && static_cast<std::size_t>(shi) <= in.size());
          assert(dlo >= 0 && static_cast<std::size_t>(dlo + count) <= out.size());
          const auto from = in.begin() + static_cast<std::ptrdiff_t>(slo);
          const auto until = in.begin() + static_cast<std::ptrdiff_t>(shi);
          const auto to = out.begin() + static_cast<std::ptrdiff_t>(dlo);
          if (src_of.step == dst_of.step)
            std::copy(from, until, to);
          else
            std::reverse_copy(from, until, to);
        } else {
          for (std::int64_t t = 0; t < count; ++t) {
            const std::int64_t sa = src_of(t);
            const std::int64_t da = dst_of(t);
            assert(sa >= 0 && static_cast<std::size_t>(sa) < in.size());
            assert(da >= 0 && static_cast<std::size_t>(da) < out.size());
            out[static_cast<std::size_t>(da)] = in[static_cast<std::size_t>(sa)];
          }
        }
      }
      if (ctx.audit_skipping()) {
        if constexpr (detail::kIsShared<S>)
          src.notify_certified_skip(0, static_cast<std::int64_t>(src.size()), total_chunks,
                                    w, /*is_write=*/false);
        if constexpr (detail::kIsShared<D>) {
          const auto [lo, hi] = detail::span_of(dst_of, count);
          dst.notify_certified_skip(lo, hi, total_chunks, w, /*is_write=*/true);
        }
      }
      return;
    }
  }
  std::array<std::int64_t, gpusim::kMaxLanes> saddr;
  std::array<std::int64_t, gpusim::kMaxLanes> daddr;
  std::array<V, gpusim::kMaxLanes> vals{};
  const std::span<V> vspan(vals.data(), static_cast<std::size_t>(w));
  const std::span<const std::int64_t> sspan(saddr.data(), vspan.size());
  const std::span<const std::int64_t> dspan(daddr.data(), vspan.size());
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    bool first = true;
    for (std::int64_t base = static_cast<std::int64_t>(warp) * w; base < count;
         base += u) {
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t t = base + lane;
        const bool active = t < count;
        saddr[static_cast<std::size_t>(lane)] = active ? src_of(t) : gpusim::kInactiveLane;
        daddr[static_cast<std::size_t>(lane)] = active ? dst_of(t) : gpusim::kInactiveLane;
      }
      ctx.charge_compute(warp, sort::cost::kCopyChunkInstrs);
      src.gather(warp, sspan, vspan, first && kDependentReads != 0);
      dst.scatter(warp, dspan, std::span<const V>(vspan), /*dependent=*/false);
      first = false;
    }
  }
}

/// The cf_gather executor: the dual subsequence gather (paper §3,
/// Algorithm 1) of `sched`'s u threads from a CF-layout list pair at shared
/// offset `base`, into `regs` (regs[i*E + j] = round j of thread i).
/// Virtual warp vw of the schedule issues on physical warp warp_of(vw).
/// Charges kGatherCharge per virtual warp: E dependent shared reads, each
/// conflict-free.
///
/// Bulk path: thread i's round-j element is A_i[m] for m = (j - k) mod E <
/// |A_i| (raw index a_i + m, ascending in m), and otherwise the B element at
/// raw index (la + lb - E) - b_i + m — also ascending in m.  The register
/// slot of the m-th element is (k + m) mod E, a rotation, so the whole
/// per-thread gather is two run copies plus a rotating slot index — no
/// per-element mod-E arithmetic (sched.read computes the same function;
/// pinned by tests/test_dual_gather.cpp and tests/test_bulk_charge.cpp).
template <typename T, typename WarpOf>
void exec_cf_gather(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& shmem,
                    const gather::RoundSchedule& sched, std::int64_t base,
                    const verify::CfCertificate* cert, WarpOf&& warp_of, std::span<T> regs) {
  const gather::GatherShape& s = sched.shape();
  const int vwarps = s.u / s.w;
  assert(ctx.lanes() == s.w && s.u % s.w == 0);
  assert(regs.size() >= static_cast<std::size_t>(s.u) * static_cast<std::size_t>(s.e));
  const auto slot = [e = s.e](int i, int j) {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(e) +
           static_cast<std::size_t>(j);
  };
  if (!bulk_path(ctx, cert) || s.e <= 0) {
    exec_crs_gather(
        ctx, shmem, s.w, s.e, vwarps, kGatherCharge, cert, warp_of,
        [&](int vw, int lane, int j) { return base + sched.read(vw * s.w + lane, j).phys; },
        [&](int vw, int lane, int j, const T& v) { regs[slot(vw * s.w + lane, j)] = v; });
    return;
  }
  const std::span<const T> data = std::as_const(shmem).raw();
  const std::int64_t e = s.e;
  // `phys` maps a raw layout index to its shared slot; hoisting rho's
  // identity test out of the copy loops keeps the coprime case a plain run.
  const auto gather_runs = [&](const auto& phys) {
    for (int vw = 0; vw < vwarps; ++vw) {
      const int pw = warp_of(vw);
      ctx.charge_compute(pw, kGatherCharge.setup +
                                 static_cast<std::uint64_t>(e) * kGatherCharge.round);
      for (int lane = 0; lane < s.w; ++lane) {
        const int i = vw * s.w + lane;
        const std::int64_t aoff = sched.a_offset(i);
        const std::int64_t asz = sched.a_size(i);
        const std::int64_t b0 = s.la + s.lb - e - sched.b_offset(i);
        T* r = regs.data() + slot(i, 0);
        std::int64_t j = aoff % e;  // register slot of the m = 0 element
        for (std::int64_t m = 0; m < asz; ++m) {
          r[j] = data[static_cast<std::size_t>(base + phys(aoff + m))];
          if (++j == e) j = 0;
        }
        for (std::int64_t m = asz; m < e; ++m) {
          r[j] = data[static_cast<std::size_t>(base + phys(b0 + m))];
          if (++j == e) j = 0;
        }
      }
      charge_certified(ctx, pw, shmem, {.rounds = s.e, .dependent = s.e});
    }
  };
  if (sched.rho().identity())
    gather_runs([](std::int64_t m) { return m; });
  else
    gather_runs(sched.rho());
  if (ctx.audit_skipping())
    shmem.notify_certified_skip(0, static_cast<std::int64_t>(data.size()),
                                static_cast<std::uint64_t>(vwarps) *
                                    static_cast<std::uint64_t>(e),
                                s.w, /*is_write=*/false);
}

}  // namespace cfmerge::cfprims
