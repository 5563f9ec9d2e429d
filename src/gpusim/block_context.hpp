// Per-thread-block simulation context.
//
// Kernels are written warp-synchronously: device code is a C++ callable over
// a BlockContext that issues *warp-wide* operations (one address per lane).
// The context does the cost accounting:
//
//  * throughput counters (Counters, per named phase) — how many cycles each
//    SM resource (issue slots, shared unit, DRAM) is kept busy;
//  * per-warp dependency chains — the critical path of each warp, used by
//    the latency-bound term of the timing model.  A barrier synchronizes
//    all warp chains of the block to their maximum.
//
// Data itself lives in ordinary host containers; see SharedTile / GlobalView
// in memory_views.hpp for typed wrappers that move data and charge costs in
// one call.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <span>
#include <string_view>
#include <vector>

#include "gpusim/audit.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/trace.hpp"
#include "gpusim/global_memory.hpp"
#include "gpusim/l2_cache.hpp"
#include "gpusim/shared_memory.hpp"
#include "gpusim/stats.hpp"

namespace cfmerge::gpusim {

/// Closed-form description of a proven-conflict-free access progression:
/// `rounds` warp-wide shared accesses (reads or writes alike), each with
/// `active_lanes` active lanes hitting distinct banks (a certificate from
/// verify/certificate.hpp backs the claim).  The leading `dependent_rounds`
/// extend the warp chain by the full shared latency; the rest pipeline at
/// one cycle.
struct CrsAccessDesc {
  int rounds = 1;
  int dependent_rounds = 0;
  int active_lanes = 0;
};

class BlockContext {
 public:
  /// `threads` must be a positive multiple of the device warp size.
  BlockContext(const DeviceSpec& dev, int block_id, int num_blocks, int threads);

  [[nodiscard]] const DeviceSpec& device() const { return *dev_; }
  [[nodiscard]] int block_id() const { return block_id_; }
  [[nodiscard]] int num_blocks() const { return num_blocks_; }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] int lanes() const { return dev_->warp_size; }
  [[nodiscard]] int warps() const { return threads_ / dev_->warp_size; }

  /// Switches the phase that subsequent charges are attributed to.
  /// Switching to the already-current phase is a free no-op.
  void phase(std::string_view name);

  /// Cached phase switch for kernel hot loops.  Declare one PhaseRef per
  /// phase name in the block body; the counters slot is resolved on the
  /// first switch and every later switch through the same ref is O(1) —
  /// no string compares.  A PhaseRef binds to the BlockContext that first
  /// resolved it and must not be reused across blocks/contexts.
  struct PhaseRef {
    std::string_view name;
    int idx = -1;  ///< resolved counters slot, -1 until first use
  };
  void phase(PhaseRef& ref);

  [[nodiscard]] const PhaseCounters& counters() const { return counters_; }

  // --- charging primitives --------------------------------------------
  // The primitives are defined inline (in or below the class): they are called
  // once per simulated warp access and inlining them — together with the
  // inline cost models they call — collapses the whole accounting path
  // into the kernel loops.

  /// One warp-wide shared memory access (element addresses, kInactiveLane
  /// for idle lanes).  Returns the access cost.  `dependent` extends the
  /// warp's dependency chain by latency + replays.  `scattered_hint` is a
  /// pure performance hint for data-dependent address patterns (see
  /// shared_access_cost); it never changes the result.
  SharedAccessCost charge_shared(int warp, std::span<const std::int64_t> addrs,
                                 bool dependent = true, bool is_write = false,
                                 bool scattered_hint = false) {
    return charge_shared_costed(warp, addrs,
                                shared_access_cost(addrs, dev_->warp_size, scattered_hint),
                                dependent, is_write);
  }
  /// charge_shared with the access cost `c` already computed — by
  /// shared_access_cost or shared_access_cost_pair over these exact
  /// addresses on this device's bank count.  The one body that updates the
  /// shared counters, the warp chain and the trace; returns `c`.
  SharedAccessCost charge_shared_costed(int warp, std::span<const std::int64_t> addrs,
                                        SharedAccessCost c, bool dependent, bool is_write);
  /// One warp-wide global access (byte addresses).  `dependent` charges the
  /// full DRAM latency on the warp chain; pass false for accesses that
  /// pipeline behind a previous one (e.g. the tail of a streaming tile
  /// load, where only the first request pays the latency).
  GlobalAccessCost charge_gmem(int warp, std::span<const std::int64_t> byte_addrs,
                               int elem_bytes, bool dependent = true,
                               bool is_write = false);
  // --- proof-guided bulk charging --------------------------------------
  // The cfprims executors describe whole certified progressions and charge
  // them in closed form (through cfprims::charge_certified, their only
  // caller).  The charges are *exact*: every counter and chain increment is
  // the integer a lane-by-lane replay would produce (pinned by
  // tests/test_bulk_charge.cpp).

  /// True when closed-form shared charging may replace the lane path:
  /// enabled on the device and no observer needs per-lane addresses.
  [[nodiscard]] bool bulk_shared() const {
    return dev_->bulk_charge && trace_ == nullptr && audit_ == nullptr;
  }
  /// Same for global accesses; the L2 model additionally needs real
  /// per-transaction addresses.
  [[nodiscard]] bool bulk_global() const { return bulk_shared() && l2_ == nullptr; }

  /// Certified-skip extension of bulk_shared(): closed-form shared charging
  /// is also allowed with an auditor attached when audit-skip mode is on
  /// AND the pattern carries a static safety certificate — the Pass 3 proof
  /// (bounds + init-before-read + race-freedom) stands in for the per-lane
  /// shadow replay.  Pass `cert->safety != nullptr`.
  [[nodiscard]] bool bulk_shared_skip(bool safety_certified) const {
    if (bulk_shared()) return true;
    return safety_certified && audit_skip_ && audit_ != nullptr &&
           dev_->bulk_charge && trace_ == nullptr;
  }
  /// True when certified accesses are currently being elided from the
  /// per-lane audit (auditor attached + audit-skip mode on).
  [[nodiscard]] bool audit_skipping() const {
    return audit_ != nullptr && audit_skip_;
  }

  /// Charges `desc.rounds` conflict-free warp-wide shared accesses at once.
  /// Caller must hold a certificate for the pattern and have checked
  /// bulk_shared(); every round must have at least one active lane.
  void charge_shared_crs(int warp, const CrsAccessDesc& desc) {
    assert(desc.rounds > 0 && desc.active_lanes > 0);
    assert(desc.dependent_rounds >= 0 && desc.dependent_rounds <= desc.rounds);
    assert(bulk_shared() || audit_skipping());
    const auto rounds = static_cast<std::uint64_t>(desc.rounds);
    current_->shared_accesses += rounds;
    current_->shared_cycles += rounds;  // conflict-free: one cycle, no replays
    const std::int64_t on_chain =
        static_cast<std::int64_t>(desc.dependent_rounds) * dev_->shared_latency +
        (desc.rounds - desc.dependent_rounds);
    chains_[static_cast<std::size_t>(warp)] += static_cast<double>(on_chain);
    bulk_charges_ += rounds;
    if (audit_ != nullptr) audit_skipped_ += rounds;
  }

  /// Charges one warp-wide global access to `n` contiguous elements
  /// starting at byte address `byte0` (ascending or descending lane order —
  /// the transaction footprint is the same; reads and writes alike).
  /// Caller must have checked bulk_global(); n must be positive.
  void charge_gmem_run(int warp, std::int64_t byte0, std::int64_t n, int elem_bytes,
                       bool dependent) {
    assert(n > 0 && byte0 >= 0);
    assert(bulk_global());
    const std::int64_t tx = dev_->transaction_bytes;
    const std::int64_t last = byte0 + n * elem_bytes - 1;
    const std::int64_t transactions = last / tx - byte0 / tx + 1;
    current_->gmem_requests += 1;
    current_->gmem_transactions += static_cast<std::uint64_t>(transactions);
    current_->gmem_bytes += static_cast<std::uint64_t>(n) *
                            static_cast<std::uint64_t>(elem_bytes);
    auto& chain = chains_[static_cast<std::size_t>(warp)];
    if (dependent)
      chain += dev_->global_latency;
    else
      chain += static_cast<double>(transactions);
    bulk_charges_ += 1;
  }

  /// Fast-path coverage: warp-wide accesses charged in closed form vs
  /// through the lane-accurate path.  Their sum is invariant across modes.
  [[nodiscard]] std::uint64_t bulk_charges() const { return bulk_charges_; }
  [[nodiscard]] std::uint64_t lane_charges() const { return lane_charges_; }

  /// `instrs` warp-wide ALU/control instructions; `chain` of them are on the
  /// dependency chain (defaults to all).  Inline for the same reason as the
  /// memory primitives: several calls per simulated warp step.
  void charge_compute(int warp, std::uint64_t instrs, std::int64_t chain = -1) {
    current_->warp_instructions += instrs;
    const double on_chain =
        chain < 0 ? static_cast<double>(instrs) : static_cast<double>(chain);
    chains_[static_cast<std::size_t>(warp)] += on_chain;
  }
  /// Block-wide barrier: all warp chains advance to the block maximum.
  void barrier();

  /// Registers shared memory consumption (for the occupancy calculation).
  void add_shared_bytes(std::size_t bytes) { shared_bytes_ += bytes; }
  [[nodiscard]] std::size_t shared_bytes() const { return shared_bytes_; }

  /// Attaches a trace sink; every subsequent access is recorded.
  void set_trace(TraceSink* sink) {
    trace_ = sink;
    trace_phase_ = -1;
  }
  /// Attaches the device-level L2 cache (owned by the Launcher).
  void set_l2(L2Cache* l2) { l2_ = l2; }
  [[nodiscard]] TraceSink* trace() const { return trace_; }

  /// Attaches a memory auditor (opt-in shadow checking; see gpusim/audit.hpp).
  /// The auditor is shared across blocks and must be internally synchronized.
  void set_audit(MemoryAuditor* audit) { audit_ = audit; }
  [[nodiscard]] MemoryAuditor* audit() const { return audit_; }
  /// Enables certified-skip audit mode: accesses backed by a Pass 3 safety
  /// certificate may bypass the per-lane audit (see bulk_shared_skip).
  void set_audit_skip(bool on) { audit_skip_ = on; }
  [[nodiscard]] bool audit_skip() const { return audit_skip_; }
  /// Warp-wide accesses elided from the per-lane audit while an auditor was
  /// attached (certified-skip mode).
  [[nodiscard]] std::uint64_t audit_skipped() const { return audit_skipped_; }
  /// Name of the phase charges are currently attributed to (for auditors).
  [[nodiscard]] std::string_view current_phase() const { return current_phase_; }
  /// Allocation-ordered id for a new SharedTile of this block.
  [[nodiscard]] std::uint64_t next_tile_id() { return tile_counter_++; }

  /// Critical path of the block in cycles: max over warp chains.
  [[nodiscard]] double block_chain() const;
  [[nodiscard]] const std::vector<double>& warp_chains() const { return chains_; }

 private:
  /// The attached sink's id of the current phase, interned lazily on the
  /// first recorded access after a phase switch (so phase_names() keeps the
  /// historical first-record order) and reused for every access until the
  /// next switch.
  [[nodiscard]] std::int16_t trace_phase() {
    if (trace_phase_ < 0) trace_phase_ = trace_->intern_phase(current_phase_);
    return trace_phase_;
  }

  const DeviceSpec* dev_;
  int block_id_;
  int num_blocks_;
  int threads_;
  std::size_t shared_bytes_ = 0;
  PhaseCounters counters_;
  Counters* current_;
  int current_idx_ = 0;
  std::string current_phase_ = "main";
  TraceSink* trace_ = nullptr;
  std::int16_t trace_phase_ = -1;
  MemoryAuditor* audit_ = nullptr;
  bool audit_skip_ = false;
  std::uint64_t audit_skipped_ = 0;
  std::uint64_t tile_counter_ = 0;
  L2Cache* l2_ = nullptr;
  std::vector<std::int64_t> l2_scratch_;
  std::vector<double> chains_;
  std::uint64_t bulk_charges_ = 0;
  std::uint64_t lane_charges_ = 0;
};

inline SharedAccessCost BlockContext::charge_shared_costed(int warp,
                                                           std::span<const std::int64_t> addrs,
                                                           SharedAccessCost c,
                                                           bool dependent, bool is_write) {
  if (c.active_lanes == 0) return c;
  ++lane_charges_;
  if (trace_ != nullptr)
    trace_->record(block_id_, static_cast<std::int16_t>(warp),
                   is_write ? AccessKind::SharedWrite : AccessKind::SharedRead,
                   trace_phase(), addrs, c.conflicts);
  const int replay = dev_->shared_replay_cycles * c.conflicts;
  current_->shared_accesses += 1;
  current_->shared_cycles += static_cast<std::uint64_t>(1 + replay);
  current_->bank_conflicts += static_cast<std::uint64_t>(c.conflicts);
  auto& chain = chains_[static_cast<std::size_t>(warp)];
  if (dependent)
    chain += dev_->shared_latency + replay;
  else
    chain += 1 + replay;  // throughput-pipelined: replays still occupy the unit
  return c;
}

inline GlobalAccessCost BlockContext::charge_gmem(int warp,
                                                  std::span<const std::int64_t> byte_addrs,
                                                  int elem_bytes, bool dependent,
                                                  bool is_write) {
  const GlobalAccessCost c =
      global_access_cost(byte_addrs, elem_bytes, dev_->transaction_bytes);
  if (c.active_lanes == 0) return c;
  ++lane_charges_;
  if (trace_ != nullptr)
    trace_->record(block_id_, static_cast<std::int16_t>(warp),
                   is_write ? AccessKind::GlobalWrite : AccessKind::GlobalRead,
                   trace_phase(), byte_addrs, c.transactions);
  current_->gmem_requests += 1;
  current_->gmem_transactions += static_cast<std::uint64_t>(c.transactions);
  if (l2_ == nullptr) {
    current_->gmem_bytes += static_cast<std::uint64_t>(c.bytes);
  } else {
    // Route each transaction segment through the device L2: only misses
    // generate DRAM traffic.
    global_access_segments(byte_addrs, elem_bytes, dev_->transaction_bytes, l2_scratch_);
    for (const std::int64_t seg : l2_scratch_) {
      if (l2_->access(seg * dev_->transaction_bytes)) {
        current_->l2_hits += 1;
      } else {
        current_->l2_misses += 1;
        current_->gmem_bytes += static_cast<std::uint64_t>(dev_->transaction_bytes);
      }
    }
  }
  auto& chain = chains_[static_cast<std::size_t>(warp)];
  if (dependent)
    chain += dev_->global_latency;
  else
    chain += c.transactions;  // issue cost only; latency overlapped
  return c;
}

}  // namespace cfmerge::gpusim
