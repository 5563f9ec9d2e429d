// Typed data views that move data and charge simulation costs together.
//
//  * SharedTile<T>  — a block's shared memory allocation.  Warp-wide
//    gather/scatter go through the bank-conflict model; `raw()` provides
//    uncharged access for test setup and verification.  Data-dependent
//    kernels (merge-path search, serial merge) decide on uncharged `peek()`
//    reads and report each warp-wide row through `charge_row()` (or
//    `charge_row_costed()` when the row's cost was computed beforehand).
//  * GlobalView<T>  — a window onto a "global memory" host buffer.  Warp-wide
//    access goes through the coalescing model.
//
// All warp-wide operations take one element index per lane;
// gpusim::kInactiveLane marks idle lanes.
#pragma once

#include <cassert>
#include <type_traits>
#include <span>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/shared_memory.hpp"

namespace cfmerge::gpusim {

template <typename T>
class SharedTile {
 public:
  using value_type = T;

  SharedTile(BlockContext& ctx, std::size_t n)
      : ctx_(&ctx), data_(n), tile_id_(ctx.next_tile_id()) {
    ctx.add_shared_bytes(n * sizeof(T));
    if (auto* au = ctx.audit()) au->on_shared_alloc(ctx.block_id(), tile_id_, n);
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::span<T> raw() {
    // The raw escape hatch bypasses the access model; the shadow checker
    // must treat the whole tile as externally initialized from here on.
    if (auto* au = ctx_->audit()) au->on_shared_raw(ctx_->block_id(), tile_id_);
    return data_;
  }
  [[nodiscard]] std::span<const T> raw() const { return data_; }

  /// Uncharged mutable access for certified bulk paths.  Unlike raw(), does
  /// NOT mark the tile externally initialized: under certified-skip audit
  /// the Pass 3 safety certificate stands in for per-word bookkeeping, and
  /// callers report the elided progression via notify_certified_skip so the
  /// shadow init state stays consistent.
  [[nodiscard]] std::span<T> certified_raw() { return data_; }

  /// Reports one certified-skip progression to the attached auditor:
  /// `accesses` warp-wide accesses of `lanes` lanes each, all addresses in
  /// [lo, hi).  No-op without an auditor.
  void notify_certified_skip(std::int64_t lo, std::int64_t hi, std::uint64_t accesses,
                             int lanes, bool is_write) {
    if (auto* au = ctx_->audit())
      au->on_certified_skip(ctx_->block_id(), tile_id_, lo, hi, accesses, lanes,
                            is_write);
  }

  /// Charges and audits one warp-wide access without moving data: the
  /// accounting half of gather/scatter.  Kernels that decide their values
  /// through peek() report the rows the device issues here, so counters,
  /// chains, trace and audit see exactly what gather/scatter would show.
  /// `scattered` marks data-dependent address patterns (performance hint
  /// only; forwarded to the bank-conflict model).
  SharedAccessCost charge_row(int warp, std::span<const std::int64_t> addrs, bool is_write,
                              bool dependent = true, bool scattered = false) {
    return charge_row_costed(warp, addrs, shared_access_cost(addrs, ctx_->lanes(), scattered),
                             is_write, dependent);
  }
  /// charge_row with the access cost `c` already computed (see
  /// BlockContext::charge_shared_costed); returns `c`.
  SharedAccessCost charge_row_costed(int warp, std::span<const std::int64_t> addrs,
                                     SharedAccessCost c, bool is_write, bool dependent = true) {
    ctx_->charge_shared_costed(warp, addrs, c, dependent, is_write);
    if (auto* au = ctx_->audit())
      au->on_shared_access(ctx_->block_id(), tile_id_, warp, ctx_->current_phase(), addrs,
                           is_write, ctx_->lanes(), c.conflicts);
    return c;
  }

  /// Uncharged read of the word at `pos`.  The caller must report the
  /// device's access through charge_row.
  [[nodiscard]] const T& peek(std::int64_t pos) const {
    assert(pos >= 0 && static_cast<std::size_t>(pos) < data_.size());
    return data_[static_cast<std::size_t>(pos)];
  }

  /// Warp-wide load: out[lane] = shared[addrs[lane]] for active lanes.
  SharedAccessCost gather(int warp, std::span<const std::int64_t> addrs, std::span<T> out,
                          bool dependent = true, bool scattered = false) {
    assert(out.size() >= addrs.size());
    const SharedAccessCost c = charge_row(warp, addrs, /*is_write=*/false, dependent, scattered);
    for (std::size_t l = 0; l < addrs.size(); ++l) {
      if (addrs[l] == kInactiveLane) continue;
      out[l] = peek(addrs[l]);
    }
    return c;
  }

  /// Warp-wide store: shared[addrs[lane]] = in[lane] for active lanes.
  /// Active lanes must target distinct addresses (concurrent same-address
  /// writes are a data race on real hardware).
  SharedAccessCost scatter(int warp, std::span<const std::int64_t> addrs,
                           std::span<const T> in, bool dependent = true) {
    assert(in.size() >= addrs.size());
    const SharedAccessCost c = charge_row(warp, addrs, /*is_write=*/true, dependent);
    for (std::size_t l = 0; l < addrs.size(); ++l) {
      if (addrs[l] == kInactiveLane) continue;
      assert(addrs[l] >= 0 && static_cast<std::size_t>(addrs[l]) < data_.size());
      data_[static_cast<std::size_t>(addrs[l])] = in[l];
    }
    return c;
  }

 private:
  BlockContext* ctx_;
  std::vector<T> data_;
  std::uint64_t tile_id_;
};

template <typename T>
class GlobalView {
 public:
  using value_type = std::remove_const_t<T>;

  /// Wraps `data` (element index 0 of the view = `data[0]`); `base_elem` is
  /// the element offset of the view within the underlying allocation, used
  /// only to compute physical byte addresses for coalescing.
  GlobalView(BlockContext& ctx, std::span<T> data, std::int64_t base_elem = 0)
      : ctx_(&ctx), data_(data), base_(base_elem) {}

  [[nodiscard]] std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }

  /// Warp-wide load: out[lane] = view[idxs[lane]].
  GlobalAccessCost gather(int warp, std::span<const std::int64_t> idxs,
                          std::span<value_type> out, bool dependent = true) {
    const GlobalAccessCost c = charge(warp, idxs, dependent, /*is_write=*/false);
    for (std::size_t l = 0; l < idxs.size(); ++l) {
      if (idxs[l] == kInactiveLane) continue;
      assert(idxs[l] >= 0 && idxs[l] < size());
      out[l] = data_[static_cast<std::size_t>(idxs[l])];
    }
    return c;
  }

  /// Warp-wide store: view[idxs[lane]] = in[lane].
  GlobalAccessCost scatter(int warp, std::span<const std::int64_t> idxs,
                           std::span<const value_type> in, bool dependent = true)
    requires(!std::is_const_v<T>)
  {
    const GlobalAccessCost c = charge(warp, idxs, dependent, /*is_write=*/true);
    for (std::size_t l = 0; l < idxs.size(); ++l) {
      if (idxs[l] == kInactiveLane) continue;
      assert(idxs[l] >= 0 && idxs[l] < size());
      data_[static_cast<std::size_t>(idxs[l])] = in[l];
    }
    return c;
  }

  /// Uncharged element read, for probe bookkeeping done by the caller.
  [[nodiscard]] const T& peek(std::int64_t i) const {
    assert(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }

  /// Uncharged whole-view access for certified bulk paths; the caller must
  /// charge the movement itself (charge_run below, through
  /// cfprims::charge_certified).
  [[nodiscard]] std::span<T> raw() { return data_; }
  [[nodiscard]] std::span<const value_type> raw() const { return data_; }

  /// Charges one warp-wide access to `n` contiguous view elements starting
  /// at element `first` — the closed form of gather/scatter over an
  /// ascending (or descending: same transaction footprint) run, read or
  /// written alike.  Caller must have checked ctx.bulk_shared().
  void charge_run(int warp, std::int64_t first, std::int64_t n, bool dependent) {
    assert(first >= 0 && n > 0 && first + n <= size());
    ctx_->charge_gmem_run(warp, (base_ + first) * static_cast<std::int64_t>(sizeof(T)),
                          n, static_cast<int>(sizeof(T)), dependent);
  }

  [[nodiscard]] BlockContext& context() const { return *ctx_; }

 private:
  GlobalAccessCost charge(int warp, std::span<const std::int64_t> idxs, bool dependent,
                          bool is_write) {
    if (auto* au = ctx_->audit())
      au->on_global_access(ctx_->block_id(), warp, ctx_->current_phase(), idxs, size(),
                           is_write);
    std::int64_t bytes[64];
    assert(idxs.size() <= 64);
    for (std::size_t l = 0; l < idxs.size(); ++l)
      bytes[l] = idxs[l] == kInactiveLane
                     ? kInactiveLane
                     : (base_ + idxs[l]) * static_cast<std::int64_t>(sizeof(T));
    return ctx_->charge_gmem(warp, std::span<const std::int64_t>(bytes, idxs.size()),
                             static_cast<int>(sizeof(T)), dependent, is_write);
  }

  BlockContext* ctx_;
  std::span<T> data_;
  std::int64_t base_;
};

}  // namespace cfmerge::gpusim
