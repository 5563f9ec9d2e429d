// Standalone conflict-free permutation / transposition kernels — the
// cf_permute and cf_transpose primitives of the Afshani–Sitchinava framing
// ("Sorting and Permuting without Bank Conflicts on GPUs"), executed on the
// simulated GPU with zero shared-memory bank conflicts for every w and
// every 1 < E <= w.
//
// Both ops move one tile of u*E elements per block and route every element
// through registers in rank order — thread i holds elements iE..iE+E-1 of
// the *logical* order between its gather and scatter phases, exactly like
// the CF merge — so per-thread work can later be fused in:
//
//   cf_permute  σ = rho (forward) or rho^-1 (inverse):
//     load      shmem[t]        = in[t]             contiguous
//     stage     staged[σ(t)]    = shmem[t]          CF copy through σ
//     gather    regs[i][j]      = staged[σ(iE+j)]   stride-E CRS (Cor. 3)
//     scatter   shmem[σ(iE+j)]  = regs[i][j]        stride-E CRS
//     store     out[t]          = shmem[t]          contiguous
//   net effect: out[σ(x)] = in[x]; forward then inverse is the identity.
//
//   cf_transpose  (u x E row-major -> E x u; inverse transposes back):
//     forward: stage through rho, CRS-gather regs[i][j] = in[iE+j], then a
//       contiguous scatter to shmem[j*u + i];
//     inverse: contiguous gather regs[i][j] = in[j*u + i], CRS-scatter
//       through rho into the staging tile, un-stage through rho.
//
// The rho trick is the same Corollary 3 argument as the merge gather: the
// stride-E addresses {iE + j : i in warp} form a CRS mod wE, and rho (or
// rho^-1 — see the cf_permute_inverse proof) maps them to distinct banks,
// while any w *contiguous* slots stay conflict-free through rho because
// banks repeat with period wE.  cfverify proves both claims per (w, E)
// via the generic primitive path (verify/primitive.cpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "cfprims/exec.hpp"
#include "gather/permutation.hpp"
#include "gpusim/launcher.hpp"
#include "sort/cost_model.hpp"
#include "verify/certificate.hpp"

namespace cfmerge::cfprims {

enum class PermuteOp { kPermute, kTranspose };

/// Configuration of a standalone permute/transpose run.  Defaults mirror
/// the paper's sort parameters (E = 15, u = 512).
struct PermuteConfig {
  PermuteOp op = PermuteOp::kPermute;
  int e = 15;
  int u = 512;
  bool inverse = false;
  [[nodiscard]] std::int64_t tile() const {
    return static_cast<std::int64_t>(u) * e;
  }
};

/// Outcome of one engine-routed permute/transpose execution: the cost
/// picture of the single cf_permute / cf_transpose kernel.
struct PermuteReport {
  PermuteOp op = PermuteOp::kPermute;
  bool inverse = false;
  int e = 0;
  int u = 0;
  std::int64_t n = 0;        ///< caller's element count
  std::int64_t n_padded = 0; ///< rounded up to a tile multiple
  double microseconds = 0.0;
  double makespan_microseconds = 0.0;
  int graph_levels = 0;
  gpusim::Counters totals;
  gpusim::PhaseCounters phases;
  std::vector<gpusim::KernelReport> kernels;

  [[nodiscard]] double throughput() const {
    return microseconds > 0.0 ? static_cast<double>(n) / microseconds : 0.0;
  }
  [[nodiscard]] const char* op_name() const {
    return op == PermuteOp::kTranspose ? "cf_transpose" : "cf_permute";
  }
};

inline void validate_permute_config(const gpusim::DeviceSpec& dev,
                                    const PermuteConfig& cfg) {
  if (cfg.e <= 1 || cfg.e > dev.warp_size)
    throw std::invalid_argument("permute: need 1 < E <= w");
  if (cfg.u <= 0 || cfg.u % dev.warp_size != 0)
    throw std::invalid_argument("permute: u must be a positive multiple of w");
}

/// Device body: permutes/transposes tile `ctx.block_id()` of `in` into the
/// same slots of `out` (both are full padded arrays).
template <typename T>
void permute_tile_body(gpusim::BlockContext& ctx, std::span<const T> in,
                       std::span<T> out, const PermuteConfig& cfg) {
  const int w = ctx.lanes();
  const int u = ctx.threads();
  const int e = cfg.e;
  const std::int64_t tile = cfg.tile();
  assert(u == cfg.u);
  const std::int64_t base = static_cast<std::int64_t>(ctx.block_id()) * tile;
  const bool transpose = cfg.op == PermuteOp::kTranspose;
  const char* tag = transpose ? "transpose" : "permute";
  auto phase = [&](const char* sub) {
    ctx.phase(std::string(tag) + "." + sub);
  };

  gpusim::GlobalView<const T> gin(ctx,
                                  in.subspan(static_cast<std::size_t>(base),
                                             static_cast<std::size_t>(tile)),
                                  base);
  gpusim::GlobalView<T> gout(ctx,
                             out.subspan(static_cast<std::size_t>(base),
                                         static_cast<std::size_t>(tile)),
                             base);
  gpusim::SharedTile<T> shmem(ctx, static_cast<std::size_t>(tile));
  gpusim::SharedTile<T> staged(ctx, static_cast<std::size_t>(tile));
  std::vector<T> regs(static_cast<std::size_t>(tile));

  const gather::CircularShift rho(w, e, tile);
  // cf_permute applies sigma = rho forward, rho^-1 inverse; cf_transpose
  // always stages through forward rho (its inverse direction un-stages).
  auto sigma = [&](std::int64_t x) {
    return !transpose && cfg.inverse ? rho.inverse(x) : rho(x);
  };
  const int vwarps = u / w;
  // Round j of thread i: the logical slot iE + j, and the transposed slot
  // j*u + i.
  auto logical = [&](int vw, int lane, int j) {
    return (static_cast<std::int64_t>(vw) * w + lane) * e + j;
  };
  auto transposed = [&](int vw, int lane, int j) {
    return static_cast<std::int64_t>(j) * u + vw * w + lane;
  };
  auto sigma_of = [&](int vw, int lane, int j) { return sigma(logical(vw, lane, j)); };
  const std::span<T> to_regs(regs);
  const std::span<const T> from_regs(regs);

  // Proof tokens for the bulk accounting path (memoized process-wide): the
  // op's own primitive proof covers the sigma stage copy and CRS rounds;
  // cf_stage covers the contiguous load/store staging.
  const char* prim_name = transpose
                              ? (cfg.inverse ? "cf_transpose_inverse" : "cf_transpose")
                              : (cfg.inverse ? "cf_permute_inverse" : "cf_permute");
  const verify::CfCertificate* op_cert = verify::certify(prim_name, w, e);
  const verify::CfCertificate* stage_cert = verify::certify("cf_stage", w, e);

  phase("load");
  exec_staged_copy(ctx, gin, shmem, tile, stage_cert, UnitStep{}, UnitStep{});
  ctx.barrier();

  if (!transpose || !cfg.inverse) {
    // Stage the tile into the sigma layout: contiguous reads, writes
    // conflict-free because banks of sigma are wE-periodic.
    phase("stage");
    exec_staged_copy(ctx, shmem, staged, tile, op_cert, UnitStep{},
                     [&](std::int64_t t) { return sigma(t); });
    ctx.barrier();
    // CRS gather: regs[i][j] = staged[sigma(iE+j)] = in[iE+j].
    phase("gather");
    exec_crs_gather(ctx, staged, w, e, vwarps, kGatherCharge, op_cert, same_warp, sigma_of,
                    to_regs);
    // cf_permute: CRS scatter back through sigma, shmem[sigma(iE+j)] =
    // regs[i][j].  cf_transpose: the transposed layout, shmem[j*u + i] =
    // regs[i][j] — lanes write w consecutive slots per round, conflict-free
    // by construction.
    phase("scatter");
    if (!transpose)
      exec_crs_scatter(ctx, shmem, w, e, vwarps, kCopyCharge, op_cert, same_warp, sigma_of,
                       from_regs);
    else
      exec_crs_scatter(ctx, shmem, w, e, vwarps, kCopyCharge, op_cert, same_warp,
                       transposed, from_regs);
    ctx.barrier();
  } else {
    // Inverse transpose: contiguous gather from the transposed layout...
    phase("gather");
    exec_crs_gather(ctx, shmem, w, e, vwarps, kGatherCharge, op_cert, same_warp, transposed,
                    to_regs);
    // ...CRS scatter into the rho layout, then un-stage contiguously.
    phase("scatter");
    exec_crs_scatter(ctx, staged, w, e, vwarps, kCopyCharge, op_cert, same_warp,
                     [&](int vw, int lane, int j) { return rho(logical(vw, lane, j)); },
                     from_regs);
    ctx.barrier();
    phase("unstage");
    exec_staged_copy(ctx, staged, shmem, tile, op_cert,
                     [&](std::int64_t t) { return rho(t); }, UnitStep{});
    ctx.barrier();
  }

  phase("store");
  exec_staged_copy(ctx, shmem, gout, tile, stage_cert, UnitStep{}, UnitStep{});
}

/// Enqueues the one-kernel permute pipeline for a padded buffer into
/// `graph` (SortEngine caches the resulting graph per shape).
template <typename T>
void enqueue_permute_pipeline(gpusim::KernelGraph& graph, std::vector<T>& buf,
                              std::vector<T>& out, std::int64_t n_padded,
                              const PermuteConfig& cfg) {
  const std::int64_t tile = cfg.tile();
  const int blocks = static_cast<int>(n_padded / tile);
  gpusim::LaunchShape shape{blocks, cfg.u,
                            2 * static_cast<std::size_t>(tile) * sizeof(T),
                            sort::cost::cfmerge_regs_per_thread(cfg.e)};
  const char* name = cfg.op == PermuteOp::kTranspose ? "cf_transpose" : "cf_permute";
  graph.enqueue(name, shape, [&buf, &out, cfg](gpusim::BlockContext& ctx) {
    permute_tile_body<T>(ctx, std::span<const T>(buf), std::span<T>(out), cfg);
  });
}

}  // namespace cfmerge::cfprims
