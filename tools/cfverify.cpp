// cfverify — static bank-conflict verifier + shared-memory shadow checker.
//
//   cfverify [options]
//     --all                        full sweep: every registered CF primitive
//                                  proved (broken variants refuted) for every
//                                  w in {4,8,16,32,64} x 1 < E <= w, k-way
//                                  cascades, Pass 3 safety proofs and
//                                  ablation refutations, Theorem 8 analyses
//                                  and bitonic profiles (the default when no
//                                  --w/--e is given)
//     --w=W --e=E                  verify one (w, E) family only: the same
//                                  per-family sweep body, plus the direct
//                                  k-ary refutations at (W, E) and the
//                                  bitonic profiles of width W
//     --widths=4,8,16              override the sweep widths
//     --ks=2,4,8                   override the multiway merge arities (each
//                                  must be a power of two in [2, 16])
//     --no-broken                  skip the deliberately-broken refutations
//     --no-worstcase               skip the Theorem 8 analyses
//     --no-bitonic                 skip the bitonic exchange profiles
//     --no-multiway                skip the k-way cascade proofs and the
//                                  direct k-ary CF-claim refutations
//     --no-safety                  skip Pass 3 (static memory safety: bounds,
//                                  init-before-read, race-freedom + the
//                                  safety-ablation refutations)
//     --shadow                     also run dynamic launches (a CF merge sort
//                                  and a Theorem 8 baseline warp merge) with
//                                  the shared-memory shadow checker attached,
//                                  and fold its summary into the report
//     --json                       emit the machine-readable report
//     --quiet                      suppress the per-proof text table
//
// Exit status: 0 when every required proof holds, every broken schedule is
// refuted and the shadow checker is clean; 1 otherwise; 2 on usage errors
// (unknown flags, malformed numbers, a (w, E) outside the verifier's range,
// a width past the simulator's 64 lanes, an arity outside [2, 16]).
//
// Examples:
//   cfverify --all --json | jq .ok
//   cfverify --w=32 --e=15
//   cfverify --all --shadow
#include <array>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfmerge.hpp"

using namespace cfmerge;

namespace {

struct Options {
  bool all = false;
  int w = 0;
  int e = 0;
  verify::VerifyOptions sweep;
  bool shadow = false;
  bool json = false;
  bool quiet = false;
};

[[noreturn]] void usage(const char* msg) {
  if (msg) std::fprintf(stderr, "cfverify: %s\n", msg);
  std::fprintf(stderr,
               "usage: cfverify [--all] [--w=W --e=E] [--widths=4,8,...] [--ks=2,4,...]\n"
               "                [--no-broken] [--no-worstcase] [--no-bitonic]\n"
               "                [--no-multiway] [--no-safety] [--shadow] [--json]\n"
               "                [--quiet]\n");
  std::exit(msg ? 2 : 0);
}

std::vector<int> parse_int_list(const std::string& csv, const char* flag) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(gpusim::parse_int<int>(item, flag));
  if (out.empty()) usage((std::string(flag) + ": empty list").c_str());
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* key) -> std::string {
      const std::size_t klen = std::strlen(key);
      if (a.rfind(key, 0) == 0 && a.size() > klen && a[klen] == '=')
        return a.substr(klen + 1);
      return {};
    };
    if (a == "--help" || a == "-h") usage(nullptr);
    else if (a == "--all") o.all = true;
    else if (auto v = val("--w"); !v.empty()) o.w = gpusim::parse_int<int>(v, "--w");
    else if (auto v = val("--e"); !v.empty()) o.e = gpusim::parse_int<int>(v, "--e");
    else if (auto v = val("--widths"); !v.empty()) o.sweep.widths = parse_int_list(v, "--widths");
    else if (auto v = val("--ks"); !v.empty()) o.sweep.ks = parse_int_list(v, "--ks");
    else if (a == "--no-broken") o.sweep.broken = false;
    else if (a == "--no-worstcase") o.sweep.worstcase = false;
    else if (a == "--no-bitonic") o.sweep.bitonic = false;
    else if (a == "--no-multiway") o.sweep.multiway = false;
    else if (a == "--no-safety") o.sweep.safety = false;
    else if (a == "--shadow") o.shadow = true;
    else if (a == "--json") o.json = true;
    else if (a == "--quiet") o.quiet = true;
    else usage(("unknown argument: " + a).c_str());
  }
  if ((o.w != 0) != (o.e != 0)) usage("--w and --e must be given together");
  if (o.w != 0 && o.all) usage("--all and --w/--e are mutually exclusive");
  for (const int k : o.sweep.ks)
    if (k < 2 || k > sort::kMaxMultiwayK || (k & (k - 1)) != 0)
      usage(("--ks: every arity must be a power of two in [2, " +
             std::to_string(sort::kMaxMultiwayK) + "]")
                .c_str());
  return o;
}

/// Dynamic shadow-checked launches: a small CF merge sort end to end plus a
/// Theorem 8 baseline warp merge, everything audited word by word.
verify::ShadowSummary run_shadow() {
  verify::ShadowChecker checker;

  {
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(32));
    launcher.set_audit(&checker);
    sort::MergeConfig cfg;
    cfg.e = 4;
    cfg.u = 64;
    std::vector<int> data(static_cast<std::size_t>(4 * cfg.tile()));
    std::uint64_t s = 0x5eedULL;
    for (int& x : data) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      x = static_cast<int>(s >> 40);
    }
    sort::merge_sort(launcher, data, cfg);
  }

  verify::measure_worstcase_warp({8, 6}, &checker);

  return checker.summary();
}

void print_text(const verify::VerifyReport& report) {
  auto line = [](const verify::ProofObject& p, bool want_proved) {
    const char* mark = (p.proved() == want_proved) ? "ok " : "FAIL";
    char arity[16] = "    ";
    if (p.k > 0) std::snprintf(arity, sizeof arity, "k=%-2d", p.k);
    std::printf("  [%s] %-22s w=%-3d E=%-3d %s d=%lld  %s\n", mark, p.schedule.c_str(),
                p.w, p.e, arity, static_cast<long long>(p.d),
                p.verdict == verify::Verdict::kProved          ? "proved"
                : p.verdict == verify::Verdict::kCounterexample ? "counterexample"
                                                                : "refuted (no witness)");
    if (p.verdict == verify::Verdict::kCounterexample && !want_proved)
      std::printf("         %s\n", p.counterexample.str().c_str());
    for (const verify::ProofStep& s : p.steps)
      if (s.status == verify::StepStatus::kFailed)
        std::printf("         step %s FAILED: %s\n", s.name.c_str(), s.detail.c_str());
  };

  std::printf("proofs (%zu, must all be proved):\n", report.proofs.size());
  for (const auto& p : report.proofs) line(p, true);
  std::printf("refutations (%zu, must all be refuted):\n", report.refutations.size());
  for (const auto& p : report.refutations) line(p, false);
  if (!report.safety_proofs.empty()) {
    std::printf("safety proofs (%zu, must all be proved):\n",
                report.safety_proofs.size());
    for (const auto& p : report.safety_proofs) line(p, true);
  }
  if (!report.safety_refutations.empty()) {
    std::printf("safety refutations (%zu, must all be refuted):\n",
                report.safety_refutations.size());
    for (const auto& p : report.safety_refutations) line(p, false);
  }

  // Per-arity rollup of the k-way results (mirrors the JSON "multiway" list).
  std::map<int, std::array<long long, 3>> per_k;  // proved, refuted, witnesses
  for (const auto& p : report.proofs)
    if (p.k > 0 && p.verdict == verify::Verdict::kProved) ++per_k[p.k][0];
  for (const auto& p : report.refutations)
    if (p.k > 0) {
      ++per_k[p.k][1];
      if (p.verdict == verify::Verdict::kCounterexample) ++per_k[p.k][2];
    }
  if (!per_k.empty()) {
    std::printf("multiway summary (per arity):\n");
    for (const auto& [k, c] : per_k)
      std::printf("  k=%-2d  %lld cascade schedules proved, %lld direct claims refuted"
                  " (%lld with lane-pair witness)\n",
                  k, c[0], c[1], c[2]);
  }

  // Per-family rollup of the registered-CFPrimitive sweep (mirrors the JSON
  // "primitives" list).
  std::map<std::string, std::array<long long, 3>> per_family;
  for (const auto& p : report.proofs)
    if (!p.family.empty() && p.verdict == verify::Verdict::kProved)
      ++per_family[p.family][0];
  for (const auto& p : report.refutations)
    if (!p.family.empty()) {
      ++per_family[p.family][1];
      if (p.verdict == verify::Verdict::kCounterexample) ++per_family[p.family][2];
    }
  if (!per_family.empty()) {
    std::printf("primitives summary (per family):\n");
    for (const auto& [name, c] : per_family)
      std::printf("  %-22s %lld shapes proved, %lld refuted (%lld with witness)\n",
                  name.c_str(), c[0], c[1], c[2]);
  }
  // Per-family rollup of the Pass 3 safety sweep (mirrors the JSON
  // "safety" list).
  std::map<std::string, std::array<long long, 3>> per_safety;
  for (const auto& p : report.safety_proofs)
    if (p.verdict == verify::Verdict::kProved) ++per_safety[p.family][0];
  for (const auto& p : report.safety_refutations) {
    ++per_safety[p.family][1];
    if (p.verdict == verify::Verdict::kCounterexample) ++per_safety[p.family][2];
  }
  if (!per_safety.empty()) {
    std::printf("safety summary (per family):\n");
    for (const auto& [name, c] : per_safety)
      std::printf("  %-28s %lld shapes safety-proved, %lld refuted (%lld with witness)\n",
                  name.c_str(), c[0], c[1], c[2]);
  }
  if (!report.worstcase.empty()) {
    std::printf("Theorem 8 worst-case analyses:\n");
    for (const auto& wc : report.worstcase)
      std::printf("  w=%-3d E=%-3d exact=%-6lld closed-form=%-6lld bounds=[%lld, %lld]"
                  " accesses=%lld\n",
                  wc.w, wc.e, static_cast<long long>(wc.exact_conflicts),
                  static_cast<long long>(wc.closed_form),
                  static_cast<long long>(wc.min_bound),
                  static_cast<long long>(wc.max_bound),
                  static_cast<long long>(wc.accesses));
  }
  if (report.shadow.enabled) {
    std::printf("shadow checker: %llu shared accesses over %llu words — %s\n",
                static_cast<unsigned long long>(report.shadow.shared_accesses),
                static_cast<unsigned long long>(report.shadow.checked_words),
                report.shadow.clean() ? "clean" : "VIOLATIONS");
    for (const auto& v : report.shadow.violations)
      std::printf("  [%s] block %d warp %d phase %s: %s\n", v.kind.c_str(), v.block,
                  v.warp, v.phase.c_str(), v.detail.c_str());
  }
  std::printf("verdict: %s\n", report.ok() ? "OK" : "FAIL");
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);

  verify::VerifyReport report;
  if (o.w != 0) {
    verify::verify_family(report, o.sweep, o.w, o.e);
    verify::verify_width(report, o.sweep, o.w, o.e);
  } else {
    report = verify_all(o.sweep);
  }
  if (o.shadow) report.shadow = run_shadow();

  if (o.json)
    analysis::write_json(std::cout, report);
  else if (!o.quiet)
    print_text(report);

  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Malformed numbers (gpusim::parse_int) and a (w, E) or width the verifier rejects
  // surface as std::logic_error subtypes: report them as usage errors
  // instead of aborting.
  try {
    return run(argc, argv);
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "cfverify: %s\n", e.what());
    return 2;
  }
}
