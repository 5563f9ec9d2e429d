#include "analysis/json.hpp"

#include <array>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

namespace cfmerge::analysis {

namespace {

void write_counters(std::ostream& os, const gpusim::Counters& c) {
  os << "{\"warp_instructions\":" << c.warp_instructions
     << ",\"shared_accesses\":" << c.shared_accesses
     << ",\"shared_cycles\":" << c.shared_cycles
     << ",\"bank_conflicts\":" << c.bank_conflicts
     << ",\"gmem_requests\":" << c.gmem_requests
     << ",\"gmem_transactions\":" << c.gmem_transactions
     << ",\"gmem_bytes\":" << c.gmem_bytes << ",\"barriers\":" << c.barriers << "}";
}

void write_phases(std::ostream& os, const gpusim::PhaseCounters& phases) {
  os << "{";
  bool first = true;
  for (const auto& [name, c] : phases.phases()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":";
    write_counters(os, c);
  }
  os << "}";
}

void write_kernels(std::ostream& os, const std::vector<gpusim::KernelReport>& kernels) {
  os << "[";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const auto& k = kernels[i];
    if (i) os << ",";
    os << "{\"name\":\"" << json_escape(k.name) << "\",\"blocks\":" << k.shape.blocks
       << ",\"microseconds\":" << k.timing.microseconds << ",\"limiter\":\""
       << k.timing.limiter << "\",\"occupancy\":" << k.timing.occupancy.occupancy
       << ",\"waves\":" << k.timing.waves << "}";
  }
  os << "]";
}

const char* variant_name(sort::Variant v) {
  return v == sort::Variant::Baseline ? "baseline" : "cf-merge";
}

const char* multiway_variant_name(sort::MultiwayVariant v) {
  return v == sort::MultiwayVariant::CFCascade ? "cf-cascade" : "loser-tree";
}

// The opening fields of a sort-family report, up to the variant.
void write_header(std::ostream& os, const char* kind, const std::string& device,
                  const std::string& workload, const char* variant) {
  os << "{\"kind\":\"" << kind << "\",\"device\":\"" << json_escape(device)
     << "\",\"workload\":\"" << json_escape(workload) << "\",\"variant\":\"" << variant
     << "\"";
}

// The SortReport fields both sort writers emit after their config.
void write_sort_fields(std::ostream& os, const sort::SortReport& report) {
  os << ",\"n\":" << report.n << ",\"n_padded\":" << report.n_padded
     << ",\"passes\":" << report.passes << ",\"microseconds\":" << report.microseconds
     << ",\"makespan_microseconds\":" << report.makespan_microseconds
     << ",\"graph_levels\":" << report.graph_levels
     << ",\"throughput_elem_per_us\":" << report.throughput()
     << ",\"merge_conflicts\":" << report.merge_conflicts()
     << ",\"blocksort_conflicts\":" << report.blocksort_conflicts();
}

// The closing fields every launching report shares: totals, phases,
// kernels, and the engine stats when given.
template <typename Report>
void write_tail(std::ostream& os, const Report& report, const sort::EngineStats* engine) {
  os << ",\"totals\":";
  write_counters(os, report.totals);
  os << ",\"phases\":";
  write_phases(os, report.phases);
  os << ",\"kernels\":";
  write_kernels(os, report.kernels);
  if (engine != nullptr) {
    os << ",\"engine\":";
    write_json(os, *engine);
  }
  os << "}\n";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream esc;
          esc << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c);
          out += esc.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_json(std::ostream& os, const sort::SortReport& report,
                const sort::MergeConfig& cfg, const std::string& device,
                const std::string& workload, const sort::EngineStats* engine) {
  write_header(os, "sort", device, workload, variant_name(cfg.variant));
  os << ",\"e\":" << cfg.e << ",\"u\":" << cfg.u;
  write_sort_fields(os, report);
  write_tail(os, report, engine);
}

void write_json(std::ostream& os, const sort::SortReport& report,
                const sort::MultiwayConfig& cfg, const std::string& device,
                const std::string& workload, const sort::EngineStats* engine) {
  write_header(os, "multiway_sort", device, workload, multiway_variant_name(cfg.variant));
  os << ",\"e\":" << cfg.e << ",\"u\":" << cfg.u << ",\"k\":" << cfg.k;
  write_sort_fields(os, report);
  write_tail(os, report, engine);
}

void write_json(std::ostream& os, const sort::SegmentedSortReport& report,
                const sort::MergeConfig& cfg, const std::string& device,
                const std::string& workload, const sort::EngineStats* engine) {
  write_header(os, "segmented_sort", device, workload, variant_name(cfg.variant));
  os << ",\"e\":" << cfg.e << ",\"u\":" << cfg.u
     << ",\"segments\":" << report.segments << ",\"elements\":" << report.elements
     << ",\"serial_microseconds\":" << report.serial_microseconds
     << ",\"makespan_microseconds\":" << report.makespan_microseconds
     << ",\"overlap_speedup\":" << report.overlap_speedup()
     << ",\"graph_levels\":" << report.graph_levels
     << ",\"throughput_elem_per_us\":" << report.throughput()
     << ",\"merge_conflicts\":" << report.merge_conflicts() << ",\"per_segment\":[";
  for (std::size_t s = 0; s < report.per_segment.size(); ++s) {
    const auto& seg = report.per_segment[s];
    if (s) os << ",";
    os << "{\"n\":" << seg.n << ",\"passes\":" << seg.passes << "}";
  }
  os << "]";
  write_tail(os, report, engine);
}

void write_json(std::ostream& os, const sort::EngineStats& stats) {
  os << "{\"plan_hits\":" << stats.plan_hits << ",\"plan_misses\":" << stats.plan_misses
     << ",\"plan_evictions\":" << stats.plan_evictions
     << ",\"plan_hit_rate\":" << stats.hit_rate()
     << ",\"plans_cached\":" << stats.plans_cached
     << ",\"plan_bytes\":" << stats.plan_bytes
     << ",\"arena_bytes\":" << stats.arena_bytes
     << ",\"arena_allocs\":" << stats.arena_allocs
     << ",\"arena_reuses\":" << stats.arena_reuses
     << ",\"bulk_charges\":" << stats.bulk_charges
     << ",\"lane_charges\":" << stats.lane_charges
     << ",\"bulk_rate\":" << stats.bulk_rate()
     << ",\"audit_skipped_accesses\":" << stats.audit_skipped_accesses
     << ",\"cert_hits\":" << stats.cert_hits
     << ",\"cert_misses\":" << stats.cert_misses
     << ",\"certs_cached\":" << stats.certs_cached
     << ",\"disk_hits\":" << stats.disk_hits
     << ",\"disk_misses\":" << stats.disk_misses
     << ",\"disk_writes\":" << stats.disk_writes
     << ",\"disk_evictions\":" << stats.disk_evictions
     << ",\"disk_corrupt\":" << stats.disk_corrupt
     << ",\"disk_entries\":" << stats.disk_entries
     << ",\"disk_bytes\":" << stats.disk_bytes << "}";
}

namespace {

const char* verdict_name(verify::Verdict v) {
  switch (v) {
    case verify::Verdict::kProved: return "proved";
    case verify::Verdict::kCounterexample: return "counterexample";
    case verify::Verdict::kRefutedNoWitness: return "refuted-no-witness";
  }
  return "?";
}

const char* step_status_name(verify::StepStatus s) {
  switch (s) {
    case verify::StepStatus::kPassed: return "passed";
    case verify::StepStatus::kFailed: return "failed";
    case verify::StepStatus::kSkipped: return "skipped";
  }
  return "?";
}

void write_counterexample(std::ostream& os, const verify::Counterexample& cx) {
  os << "{\"w\":" << cx.w << ",\"e\":" << cx.e << ",\"u\":" << cx.u
     << ",\"la\":" << cx.la << ",\"a_sizes\":[";
  for (std::size_t i = 0; i < cx.a_sizes.size(); ++i) {
    if (i) os << ",";
    os << cx.a_sizes[i];
  }
  os << "],\"round\":" << cx.round << ",\"lane1\":" << cx.lane1
     << ",\"lane2\":" << cx.lane2 << ",\"addr1\":" << cx.addr1
     << ",\"addr2\":" << cx.addr2 << ",\"bank\":" << cx.bank
     << ",\"epoch\":" << cx.epoch << ",\"kind\":\"" << json_escape(cx.kind)
     << "\",\"text\":\"" << json_escape(cx.str()) << "\"}";
}

void write_proof(std::ostream& os, const verify::ProofObject& p) {
  os << "{\"schedule\":\"" << json_escape(p.schedule) << "\",\"w\":" << p.w
     << ",\"e\":" << p.e;
  if (p.k > 0) os << ",\"k\":" << p.k;
  os << ",\"d\":" << p.d << ",\"verdict\":\"" << verdict_name(p.verdict)
     << "\",\"scope\":\"" << json_escape(p.scope) << "\"";
  if (!p.family.empty()) os << ",\"family\":\"" << json_escape(p.family) << "\"";
  os << ",\"steps\":[";
  for (std::size_t i = 0; i < p.steps.size(); ++i) {
    const verify::ProofStep& s = p.steps[i];
    if (i) os << ",";
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"status\":\""
       << step_status_name(s.status) << "\",\"detail\":\"" << json_escape(s.detail)
       << "\"}";
  }
  os << "]";
  if (p.verdict == verify::Verdict::kCounterexample) {
    os << ",\"counterexample\":";
    write_counterexample(os, p.counterexample);
  }
  os << "}";
}

void write_proof_list(std::ostream& os, const std::vector<verify::ProofObject>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ",";
    write_proof(os, v[i]);
  }
  os << "]";
}

/// Per-arity rollup of the k-way proof objects: how many cascade schedules
/// were proved and how many direct-CF claims were refuted (with a concrete
/// lane-pair witness) at each k.
void write_multiway_summary(std::ostream& os, const verify::VerifyReport& report) {
  std::map<int, std::array<std::int64_t, 3>> per_k;  // proved, refuted, witnesses
  for (const auto& p : report.proofs)
    if (p.k > 0 && p.verdict == verify::Verdict::kProved) ++per_k[p.k][0];
  for (const auto& p : report.refutations)
    if (p.k > 0) {
      ++per_k[p.k][1];
      if (p.verdict == verify::Verdict::kCounterexample) ++per_k[p.k][2];
    }
  os << "[";
  bool first = true;
  for (const auto& [k, counts] : per_k) {
    if (!first) os << ",";
    first = false;
    os << "{\"k\":" << k << ",\"proved\":" << counts[0]
       << ",\"refuted\":" << counts[1] << ",\"witnesses\":" << counts[2] << "}";
  }
  os << "]";
}

/// Per-family rollup of the registered CFPrimitive sweep: for every family
/// that went through the generic lowering path, how many shapes were proved
/// and how many refuted (each refutation carrying a lane-pair witness).
void write_primitives_summary(std::ostream& os, const verify::VerifyReport& report) {
  std::map<std::string, std::array<std::int64_t, 3>> per_family;  // proved, refuted, witnesses
  for (const auto& p : report.proofs)
    if (!p.family.empty() && p.verdict == verify::Verdict::kProved)
      ++per_family[p.family][0];
  for (const auto& p : report.refutations)
    if (!p.family.empty()) {
      ++per_family[p.family][1];
      if (p.verdict == verify::Verdict::kCounterexample) ++per_family[p.family][2];
    }
  os << "[";
  bool first = true;
  for (const auto& [name, counts] : per_family) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(name) << "\",\"proved\":" << counts[0]
       << ",\"refuted\":" << counts[1] << ",\"witnesses\":" << counts[2] << "}";
  }
  os << "]";
}

/// Per-family rollup of the Pass 3 static-safety sweep: how many shapes of
/// each schedule family were safety-proved, how many ablation shapes were
/// refuted, and how many refutations carry a concrete lane/epoch witness.
void write_safety_summary(std::ostream& os, const verify::VerifyReport& report) {
  std::map<std::string, std::array<std::int64_t, 3>> per_family;  // proved, refuted, witnesses
  for (const auto& p : report.safety_proofs)
    if (p.verdict == verify::Verdict::kProved) ++per_family[p.family][0];
  for (const auto& p : report.safety_refutations) {
    ++per_family[p.family][1];
    if (p.verdict == verify::Verdict::kCounterexample) ++per_family[p.family][2];
  }
  os << "[";
  bool first = true;
  for (const auto& [name, counts] : per_family) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(name) << "\",\"proved\":" << counts[0]
       << ",\"refuted\":" << counts[1] << ",\"witnesses\":" << counts[2] << "}";
  }
  os << "]";
}

}  // namespace

void write_json(std::ostream& os, const verify::VerifyReport& report) {
  os << "{\"kind\":\"verify\",\"ok\":" << (report.ok() ? "true" : "false")
     << ",\"all_proved\":" << (report.all_proved() ? "true" : "false")
     << ",\"all_refuted\":" << (report.all_refuted() ? "true" : "false")
     << ",\"proofs\":";
  write_proof_list(os, report.proofs);
  os << ",\"refutations\":";
  write_proof_list(os, report.refutations);
  os << ",\"safety_proofs\":";
  write_proof_list(os, report.safety_proofs);
  os << ",\"safety_refutations\":";
  write_proof_list(os, report.safety_refutations);
  os << ",\"multiway\":";
  write_multiway_summary(os, report);
  os << ",\"primitives\":";
  write_primitives_summary(os, report);
  os << ",\"safety\":";
  write_safety_summary(os, report);
  os << ",\"worstcase\":[";
  for (std::size_t i = 0; i < report.worstcase.size(); ++i) {
    const verify::WorstCaseAnalysis& wc = report.worstcase[i];
    if (i) os << ",";
    os << "{\"w\":" << wc.w << ",\"e\":" << wc.e
       << ",\"exact_conflicts\":" << wc.exact_conflicts
       << ",\"closed_form\":" << wc.closed_form << ",\"min_bound\":" << wc.min_bound
       << ",\"max_bound\":" << wc.max_bound << ",\"accesses\":" << wc.accesses << "}";
  }
  os << "],\"shadow\":{\"enabled\":" << (report.shadow.enabled ? "true" : "false")
     << ",\"clean\":" << (report.shadow.clean() ? "true" : "false")
     << ",\"shared_accesses\":" << report.shadow.shared_accesses
     << ",\"checked_words\":" << report.shadow.checked_words
     << ",\"skipped_accesses\":" << report.shadow.skipped_accesses
     << ",\"dropped_violations\":" << report.shadow.dropped_violations
     << ",\"violations\":[";
  for (std::size_t i = 0; i < report.shadow.violations.size(); ++i) {
    const verify::ShadowViolation& v = report.shadow.violations[i];
    if (i) os << ",";
    os << "{\"kind\":\"" << json_escape(v.kind) << "\",\"block\":" << v.block
       << ",\"warp\":" << v.warp << ",\"phase\":\"" << json_escape(v.phase)
       << "\",\"addr\":" << v.addr << ",\"detail\":\"" << json_escape(v.detail)
       << "\"}";
  }
  os << "]}}\n";
}

void write_json(std::ostream& os, const sort::BitonicReport& report,
                const sort::BitonicConfig& cfg, const std::string& device,
                const std::string& workload) {
  os << "{\"kind\":\"bitonic\",\"device\":\"" << json_escape(device)
     << "\",\"workload\":\"" << json_escape(workload) << "\",\"u\":" << cfg.u
     << ",\"elems_per_thread\":" << cfg.elems_per_thread
     << ",\"padded\":" << (cfg.padded ? "true" : "false") << ",\"n\":" << report.n
     << ",\"n_padded\":" << report.n_padded
     << ",\"microseconds\":" << report.microseconds
     << ",\"throughput_elem_per_us\":" << report.throughput() << ",\"totals\":";
  write_counters(os, report.totals);
  os << ",\"phases\":";
  write_phases(os, report.phases);
  os << "}\n";
}

void write_json(std::ostream& os, const cfprims::PermuteReport& report,
                const std::string& device, const std::string& workload,
                const sort::EngineStats* engine) {
  os << "{\"kind\":\"" << report.op_name() << "\",\"device\":\""
     << json_escape(device) << "\",\"workload\":\"" << json_escape(workload)
     << "\",\"inverse\":" << (report.inverse ? "true" : "false")
     << ",\"e\":" << report.e << ",\"u\":" << report.u << ",\"n\":" << report.n
     << ",\"n_padded\":" << report.n_padded
     << ",\"microseconds\":" << report.microseconds
     << ",\"makespan_microseconds\":" << report.makespan_microseconds
     << ",\"graph_levels\":" << report.graph_levels
     << ",\"throughput_elem_per_us\":" << report.throughput();
  write_tail(os, report, engine);
}

}  // namespace cfmerge::analysis
