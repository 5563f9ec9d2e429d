// Simulated GPU device description.
//
// The simulator replaces the paper's NVIDIA RTX 2080 Ti.  Only the
// architectural features that the paper's analysis depends on are modeled:
// SIMT warps of `warp_size` lanes, shared memory organized into `warp_size`
// banks (element i lives in bank i mod warp_size), coalesced global memory
// transactions, and an SM-level throughput/latency/occupancy timing model
// (see timing.hpp for the model definition).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cfmerge::gpusim {

struct DeviceSpec {
  std::string name = "generic";

  // --- SIMT shape -----------------------------------------------------
  /// Lanes per warp == number of shared memory banks (the paper's `w`).
  int warp_size = 32;
  /// Streaming multiprocessors.
  int num_sms = 68;

  // --- Occupancy limits (per SM) ---------------------------------------
  int max_threads_per_sm = 1024;
  int max_blocks_per_sm = 16;
  std::size_t shared_bytes_per_sm = 64 * 1024;
  std::int64_t registers_per_sm = 65536;

  // --- Timing parameters (cycles) --------------------------------------
  /// Warp instructions the SM can issue per cycle (warp schedulers).
  int issue_width = 4;
  /// Pipeline latency of a conflict-free shared memory access.
  int shared_latency = 24;
  /// Cycles each bank-conflict replay occupies the LSU pipeline (the
  /// reissue interval; replays are not single-cycle on real SMs).
  int shared_replay_cycles = 4;
  /// Shared memory unit throughput: one warp access per cycle (plus one
  /// extra cycle per bank conflict replay).
  /// Latency of a global (DRAM) access round.
  int global_latency = 440;
  /// Size of one global memory transaction in bytes (coalescing granule).
  int transaction_bytes = 128;
  /// Sustained DRAM bandwidth for the whole device, bytes per core cycle.
  double dram_bytes_per_cycle = 400.0;
  /// Core clock, GHz (used only to convert cycles to microseconds).
  double clock_ghz = 1.545;
  /// Fixed cost per kernel launch in cycles (driver submission, grid setup,
  /// tail effects).  Dominates tiny grids and amortizes away at scale —
  /// this is what makes measured GPU sort throughput *rise* with n on the
  /// left side of the paper's Figure 5/6 curves.
  double launch_overhead_cycles = 3000.0;

  // --- Simulator execution (host-side; no effect on results) ------------
  /// Host worker threads the Launcher uses to simulate blocks.  Reports are
  /// bit-identical for every value (see launcher.hpp).  0 = resolve from
  /// the CFMERGE_SIM_THREADS environment variable, defaulting to 1
  /// (sequential); n >= 1 = exactly n workers.
  int sim_threads = 0;

  /// Proof-guided bulk charging: call sites holding a cfverify certificate
  /// (verify/certificate.hpp) may charge whole conflict-free rounds in
  /// closed form instead of per lane.  Counters and timing are bit-identical
  /// either way (pinned by tests/test_bulk_charge.cpp); disable to force
  /// the lane-accurate path (`cfsort --no-bulk-charge`).  Tracing or a
  /// runtime auditor disables bulk charging automatically — those observers
  /// need the per-lane addresses.
  bool bulk_charge = true;

  /// The device the paper evaluated on (RTX 2080 Ti, Turing TU102).
  static DeviceSpec rtx2080ti();
  /// A small device for exhaustive tests: `w` lanes/banks, `sms` SMs.
  static DeviceSpec tiny(int w, int sms = 2);
  /// The RTX 2080 Ti architecture with a reduced SM count.  Keeps the warp
  /// size, bank count, latencies and occupancy limits identical while
  /// letting small simulated inputs reach the throughput-bound regime that
  /// large inputs reach on the full device (the sequential simulator cannot
  /// afford paper-scale n).  DRAM bandwidth scales with the SM count.
  static DeviceSpec scaled_turing(int sms);

  /// Throws std::invalid_argument when a field is out of range.
  void validate() const;

  /// Stable content digest: FNV-1a over every field that affects planning,
  /// costing, or occupancy — the cross-process identity the persistent plan
  /// & autotune cache keys on (cache/store.hpp).  Deliberately excluded:
  /// `name` (two identically-configured devices are the same device),
  /// `sim_threads` (host-side; reports are bit-identical for every value),
  /// and `bulk_charge` (counters/timing are bit-identical either way).  Any
  /// field that *does* change planning and is hashed here invalidates every
  /// persisted entry, which is exactly the invalidation rule we want.
  [[nodiscard]] std::uint64_t digest() const;

  [[nodiscard]] int max_warps_per_sm() const { return max_threads_per_sm / warp_size; }
  [[nodiscard]] double cycles_to_us(double cycles) const {
    return cycles / (clock_ghz * 1e3);
  }
};

}  // namespace cfmerge::gpusim
