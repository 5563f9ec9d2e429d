// Minimal JSON serialization of simulation reports — for scripting around
// the CLI tool and the benchmark harnesses (no external dependency).
#pragma once

#include <iosfwd>
#include <string>

#include "cfprims/permute.hpp"
#include "sort/bitonic.hpp"
#include "sort/engine.hpp"
#include "sort/merge_sort.hpp"
#include "sort/multiway_pass.hpp"
#include "sort/segmented_sort.hpp"
#include "verify/proof.hpp"

namespace cfmerge::analysis {

/// Writes a JSON object describing a full sort run: configuration echo,
/// timing, totals, per-phase counters and per-kernel timings.  When
/// `engine` is given, an "engine" field carries the plan-cache / arena
/// counters of the SortEngine that served the run.
void write_json(std::ostream& os, const sort::SortReport& report,
                const sort::MergeConfig& cfg, const std::string& device,
                const std::string& workload, const sort::EngineStats* engine = nullptr);

/// Same for a k-way multiway sort run — emits `kind:"multiway_sort"` with
/// the merge arity `k`, the multiway variant name, and the global pass
/// count alongside the usual totals / phases / kernels sections.
void write_json(std::ostream& os, const sort::SortReport& report,
                const sort::MultiwayConfig& cfg, const std::string& device,
                const std::string& workload, const sort::EngineStats* engine = nullptr);

/// Same for a bitonic run.
void write_json(std::ostream& os, const sort::BitonicReport& report,
                const sort::BitonicConfig& cfg, const std::string& device,
                const std::string& workload);

/// Same for a segmented sort: kernel-chain timing (serial sum and makespan),
/// totals, phases, and each segment's length and pass count.  `engine` as
/// above.
void write_json(std::ostream& os, const sort::SegmentedSortReport& report,
                const sort::MergeConfig& cfg, const std::string& device,
                const std::string& workload, const sort::EngineStats* engine = nullptr);

/// Same for a standalone cf_permute / cf_transpose run — emits
/// `kind:"cf_permute"` or `kind:"cf_transpose"` with the direction flag,
/// shape echo, timing, and the usual totals / phases / kernels sections.
void write_json(std::ostream& os, const cfprims::PermuteReport& report,
                const std::string& device, const std::string& workload,
                const sort::EngineStats* engine = nullptr);

/// Writes the engine's plan-cache / scratch-arena counters as one JSON
/// object (no trailing newline) — an embeddable fragment, e.g. the
/// "engine" field of the cfsort and sim_hotpath reports.
void write_json(std::ostream& os, const sort::EngineStats& stats);

/// Writes a cfverify run: every proof object with its steps (and
/// counterexample, if refuted), a per-arity "multiway" rollup of the k-way
/// cascade proofs and direct-claim refutations, the Theorem 8 worst-case
/// analyses, and the shadow-checker summary.  Top-level "ok" mirrors
/// VerifyReport::ok().
void write_json(std::ostream& os, const verify::VerifyReport& report);

/// Escapes a string for embedding in JSON.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace cfmerge::analysis
