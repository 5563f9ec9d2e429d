// Shared executors for the CF primitives: the warp-loop skeletons every
// CRS-style gather/scatter and staged shared-to-shared copy in the sort
// kernels instantiate.
//
// The accounting contract is frozen: a primitive execution charges exactly
//
//   per (virtual) warp:  charge.setup warp instructions (0 = skip), then
//   per round:           charge.round warp instructions followed by ONE
//                        warp-wide shared access (gather or scatter),
//
// which is bit-identical to the loops these helpers replaced in
// sort/merge_pass.hpp, sort/multiway_pass.hpp, sort/block_sort.hpp and
// gather/dual_gather.hpp (pinned by tests/test_cfprims_golden.cpp).  Any
// change here shifts every counter in every report.
//
// This header deliberately depends only on gpusim + the cost constants so
// that both the gather layer and the sort kernels can include it without
// cycles.
//
// Bulk fast path: each executor takes an optional CfCertificate
// (verify/certificate.hpp).  When the pattern is certified and no observer
// needs per-lane addresses (BlockContext::bulk_shared()), the executor
// charges the whole progression in closed form via charge_shared_crs and
// moves the data in one fused loop — the exact counters and chains of the
// lane path, without materializing address buffers or re-screening what the
// verifier already proved.  A null certificate always takes the lane path.
//
// Certified-skip audit mode: with an auditor attached, the lane path
// normally runs so every access is shadow-checked.  When the context is in
// audit-skip mode (BlockContext::set_audit_skip) AND the certificate also
// carries a Pass 3 safety token (cert->safety), the bulk path runs anyway —
// the static bounds/init/race proof stands in for the per-lane replay — and
// the executor reports the elided progression through
// SharedTile::notify_certified_skip.  Counters and chains are bit-identical
// to the fully-audited run (charge_shared_crs is exact); only the audit
// granularity changes.  Data-dependent accesses (merge-path probes, serial
// merge) never carry certificates and always stay on the audited lane path.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

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

/// Whether this execution may take the closed-form bulk path: certified,
/// and either no observer needs per-lane addresses or certified-skip audit
/// mode applies (the certificate must then carry the Pass 3 safety token).
inline bool bulk_path(const gpusim::BlockContext& ctx,
                      const verify::CfCertificate* cert) {
  return cert != nullptr && ctx.bulk_shared_skip(cert->safety != nullptr);
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
      ctx.charge_shared_crs(pw, gpusim::CrsAccessDesc{.rounds = rounds,
                                                      .dependent_rounds = rounds,
                                                      .active_lanes = w,
                                                      .is_write = false});
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
      ctx.charge_shared_crs(pw, gpusim::CrsAccessDesc{.rounds = rounds,
                                                      .dependent_rounds = rounds,
                                                      .active_lanes = w,
                                                      .is_write = true});
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
      ctx.charge_shared_crs(vw, gpusim::CrsAccessDesc{.rounds = rounds,
                                                      .dependent_rounds = rounds,
                                                      .active_lanes = w,
                                                      .is_write = false});
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
      ctx.charge_shared_crs(vw, gpusim::CrsAccessDesc{.rounds = rounds,
                                                      .dependent_rounds = rounds,
                                                      .active_lanes = w,
                                                      .is_write = true});
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

/// Staged shared-to-shared copy (the block-sort cf_permute idiom): all
/// warps cooperatively move `count` elements from `src` to `dst`, warp k
/// handling lanes [k*w, k*w + w) of each block-wide chunk of u elements.
/// Each chunk charges kCopyChunkInstrs and issues one independent gather +
/// one independent scatter (the addresses are compile-time functions of the
/// slot, not of loaded data).  `src` and `dst` must be distinct tiles.
/// A certificate must cover *both* sides of every chunk (w-aligned warp
/// windows through src_of and dst_of each hit distinct banks).
template <typename T, typename SrcOf, typename DstOf>
void exec_shared_copy(gpusim::BlockContext& ctx, gpusim::SharedTile<T>& src,
                      gpusim::SharedTile<T>& dst, std::int64_t count,
                      const verify::CfCertificate* cert, SrcOf&& src_of,
                      DstOf&& dst_of) {
  const int w = ctx.lanes();
  const int u = ctx.threads();
  assert(w <= gpusim::kMaxLanes);
  if (bulk_path(ctx, cert) && count > 0) {
    const std::span<const T> s = std::as_const(src).raw();
    const std::span<T> d = dst.certified_raw();
    std::uint64_t total_chunks = 0;
    for (int warp = 0; warp < ctx.warps(); ++warp) {
      const std::int64_t first = static_cast<std::int64_t>(warp) * w;
      if (first >= count) continue;
      const auto chunks = static_cast<int>((count - first + u - 1) / u);
      total_chunks += static_cast<std::uint64_t>(chunks);
      ctx.charge_compute(warp, static_cast<std::uint64_t>(chunks) *
                                   sort::cost::kCopyChunkInstrs);
      ctx.charge_shared_crs(warp, gpusim::CrsAccessDesc{.rounds = chunks,
                                                        .active_lanes = w,
                                                        .is_write = false});
      ctx.charge_shared_crs(warp, gpusim::CrsAccessDesc{.rounds = chunks,
                                                        .active_lanes = w,
                                                        .is_write = true});
    }
    const bool note = ctx.audit_skipping();
    std::int64_t dlo = static_cast<std::int64_t>(d.size());
    std::int64_t dhi = -1;
    for (std::int64_t t = 0; t < count; ++t) {
      const std::int64_t sa = src_of(t);
      const std::int64_t da = dst_of(t);
      assert(sa >= 0 && static_cast<std::size_t>(sa) < s.size());
      assert(da >= 0 && static_cast<std::size_t>(da) < d.size());
      d[static_cast<std::size_t>(da)] = s[static_cast<std::size_t>(sa)];
      if (note) {
        dlo = std::min(dlo, da);
        dhi = std::max(dhi, da);
      }
    }
    if (note) {
      src.notify_certified_skip(0, static_cast<std::int64_t>(s.size()), total_chunks,
                                w, /*is_write=*/false);
      if (dhi >= dlo)
        dst.notify_certified_skip(dlo, dhi + 1, total_chunks, w, /*is_write=*/true);
    }
    return;
  }
  std::array<std::int64_t, gpusim::kMaxLanes> saddr;
  std::array<std::int64_t, gpusim::kMaxLanes> daddr;
  std::array<T, gpusim::kMaxLanes> vals{};
  const std::span<T> vspan(vals.data(), static_cast<std::size_t>(w));
  for (int warp = 0; warp < ctx.warps(); ++warp) {
    for (std::int64_t base = static_cast<std::int64_t>(warp) * w; base < count;
         base += u) {
      for (int lane = 0; lane < w; ++lane) {
        const std::int64_t t = base + lane;
        const bool active = t < count;
        saddr[static_cast<std::size_t>(lane)] =
            active ? src_of(t) : gpusim::kInactiveLane;
        daddr[static_cast<std::size_t>(lane)] =
            active ? dst_of(t) : gpusim::kInactiveLane;
      }
      ctx.charge_compute(warp, sort::cost::kCopyChunkInstrs);
      src.gather(warp, std::span<const std::int64_t>(saddr.data(), vspan.size()), vspan,
                 /*dependent=*/false);
      dst.scatter(warp, std::span<const std::int64_t>(daddr.data(), vspan.size()), vspan,
                  /*dependent=*/false);
    }
  }
}

}  // namespace cfmerge::cfprims
