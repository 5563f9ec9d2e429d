// Tests of the JSON report serialization.
#include "analysis/json.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "gpusim/launcher.hpp"
#include "verify/analyzer.hpp"

using namespace cfmerge;
using namespace cfmerge::analysis;

namespace {
// A tiny structural JSON checker: balanced braces/brackets outside strings,
// and key presence.  (No external JSON dependency in the project.)
bool balanced(const std::string& s) {
  int depth = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    if (depth < 0 || brackets < 0) return false;
  }
  return depth == 0 && brackets == 0 && !in_string;
}
}  // namespace

TEST(JsonEscape, SpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Json, SortReportSerializes) {
  std::mt19937_64 rng(1);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  sort::MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = sort::Variant::CFMerge;
  std::vector<int> data(16 * 5 * 4);
  for (auto& x : data) x = static_cast<int>(rng());
  const auto report = sort::merge_sort(launcher, data, cfg);

  std::ostringstream os;
  write_json(os, report, cfg, launcher.device().name, "uniform-random");
  const std::string j = os.str();
  EXPECT_TRUE(balanced(j)) << j;
  for (const char* key :
       {"\"kind\":\"sort\"", "\"variant\":\"cf-merge\"", "\"merge_conflicts\":0",
        "\"phases\"", "\"kernels\"", "\"throughput_elem_per_us\"", "\"passes\":2"}) {
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing in " << j;
  }
}

TEST(Json, MultiwaySortReportSerializes) {
  std::mt19937_64 rng(7);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  sort::MultiwayConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.k = 4;
  cfg.variant = sort::MultiwayVariant::CFCascade;
  std::vector<int> data(16 * 5 * 8);
  for (auto& x : data) x = static_cast<int>(rng());
  const auto report = sort::merge_sort_multiway(launcher, data, cfg);

  std::ostringstream os;
  write_json(os, report, cfg, launcher.device().name, "uniform-random");
  const std::string j = os.str();
  EXPECT_TRUE(balanced(j)) << j;
  for (const char* key :
       {"\"kind\":\"multiway_sort\"", "\"variant\":\"cf-cascade\"", "\"k\":4",
        "\"passes\":", "\"phases\"", "\"kernels\"", "\"throughput_elem_per_us\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing in " << j;
  }
}

TEST(Json, VerifyReportCarriesMultiwaySummary) {
  verify::VerifyOptions opts;
  opts.widths = {8};
  opts.ks = {2, 4};
  opts.broken = true;
  opts.worstcase = false;
  opts.bitonic = false;
  const auto report = verify::verify_all(opts);
  std::ostringstream os;
  write_json(os, report);
  const std::string j = os.str();
  EXPECT_TRUE(balanced(j)) << j;
  // w = 8 sweeps e = 2..8, so each arity carries seven cascade proofs and
  // one refuted direct claim with a concrete witness.
  for (const char* key :
       {"\"multiway\":[", "\"k\":2", "\"k\":4", "\"proved\":7", "\"witnesses\":1",
        "\"schedule\":\"multiway_cascade\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing in " << j;
  }
}

TEST(Json, BitonicReportSerializes) {
  std::mt19937_64 rng(3);
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  sort::BitonicConfig cfg;
  cfg.u = 16;
  cfg.padded = true;
  std::vector<int> data(256);
  for (auto& x : data) x = static_cast<int>(rng());
  const auto report = sort::bitonic_sort(launcher, data, cfg);
  std::ostringstream os;
  write_json(os, report, cfg, launcher.device().name, "uniform-random");
  EXPECT_TRUE(balanced(os.str()));
  EXPECT_NE(os.str().find("\"padded\":true"), std::string::npos);
}
