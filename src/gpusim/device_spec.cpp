#include "gpusim/device_spec.hpp"

#include <stdexcept>

#include "numtheory/hash.hpp"

namespace cfmerge::gpusim {

DeviceSpec DeviceSpec::rtx2080ti() {
  DeviceSpec d;
  d.name = "rtx2080ti";
  d.warp_size = 32;
  d.num_sms = 68;
  d.max_threads_per_sm = 1024;
  d.max_blocks_per_sm = 16;
  d.shared_bytes_per_sm = 64 * 1024;
  d.registers_per_sm = 65536;
  d.issue_width = 4;
  d.shared_latency = 24;
  d.shared_replay_cycles = 4;
  d.global_latency = 440;
  d.transaction_bytes = 128;
  // 616 GB/s peak; ~65% sustained for the mixed streaming/strided traffic of
  // a merge pass.
  d.dram_bytes_per_cycle = 616.0 * 0.65 / 1.545;
  d.clock_ghz = 1.545;
  return d;
}

DeviceSpec DeviceSpec::tiny(int w, int sms) {
  DeviceSpec d;
  d.name = "tiny-w" + std::to_string(w);
  d.warp_size = w;
  d.num_sms = sms;
  d.max_threads_per_sm = 8 * w;
  d.max_blocks_per_sm = 4;
  d.shared_bytes_per_sm = 16 * 1024;
  d.registers_per_sm = 8192;
  return d;
}

DeviceSpec DeviceSpec::scaled_turing(int sms) {
  DeviceSpec d = rtx2080ti();
  d.name = "turing-sm" + std::to_string(sms);
  d.dram_bytes_per_cycle = d.dram_bytes_per_cycle * sms / d.num_sms;
  d.num_sms = sms;
  return d;
}

std::uint64_t DeviceSpec::digest() const {
  using numtheory::fnv1a;
  // A leading format tag so a future field addition can bump the digest
  // domain explicitly instead of silently aliasing old values.
  std::uint64_t h = fnv1a(numtheory::kFnvOffset, std::uint64_t{1});
  h = fnv1a(h, static_cast<std::int64_t>(warp_size));
  h = fnv1a(h, static_cast<std::int64_t>(num_sms));
  h = fnv1a(h, static_cast<std::int64_t>(max_threads_per_sm));
  h = fnv1a(h, static_cast<std::int64_t>(max_blocks_per_sm));
  h = fnv1a(h, static_cast<std::uint64_t>(shared_bytes_per_sm));
  h = fnv1a(h, registers_per_sm);
  h = fnv1a(h, static_cast<std::int64_t>(issue_width));
  h = fnv1a(h, static_cast<std::int64_t>(shared_latency));
  h = fnv1a(h, static_cast<std::int64_t>(shared_replay_cycles));
  h = fnv1a(h, static_cast<std::int64_t>(global_latency));
  h = fnv1a(h, static_cast<std::int64_t>(transaction_bytes));
  h = fnv1a(h, dram_bytes_per_cycle);
  // Two retired slots (an L2 capacity of 0 and 16 ways), hashed as before
  // so every persisted digest stays valid.
  h = fnv1a(h, std::uint64_t{0});
  h = fnv1a(h, std::int64_t{16});
  h = fnv1a(h, clock_ghz);
  h = fnv1a(h, launch_overhead_cycles);
  return h;
}

void DeviceSpec::validate() const {
  if (warp_size <= 0) throw std::invalid_argument("DeviceSpec: warp_size must be positive");
  if (num_sms <= 0) throw std::invalid_argument("DeviceSpec: num_sms must be positive");
  if (max_threads_per_sm < warp_size || max_threads_per_sm % warp_size != 0)
    throw std::invalid_argument("DeviceSpec: max_threads_per_sm must be a positive multiple of warp_size");
  if (max_blocks_per_sm <= 0) throw std::invalid_argument("DeviceSpec: max_blocks_per_sm must be positive");
  if (issue_width <= 0) throw std::invalid_argument("DeviceSpec: issue_width must be positive");
  if (shared_latency < 0 || global_latency < 0)
    throw std::invalid_argument("DeviceSpec: latencies must be non-negative");
  if (shared_replay_cycles < 1)
    throw std::invalid_argument("DeviceSpec: shared_replay_cycles must be at least 1");
  if (transaction_bytes <= 0) throw std::invalid_argument("DeviceSpec: transaction_bytes must be positive");
  if (dram_bytes_per_cycle <= 0) throw std::invalid_argument("DeviceSpec: dram_bytes_per_cycle must be positive");
  if (clock_ghz <= 0) throw std::invalid_argument("DeviceSpec: clock_ghz must be positive");
  if (sim_threads < 0)
    throw std::invalid_argument("DeviceSpec: sim_threads must be non-negative");
}

}  // namespace cfmerge::gpusim
