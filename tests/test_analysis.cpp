// Tests of the analysis utilities: tables, plots, profiles, sweeps.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/experiment.hpp"
#include "analysis/plot.hpp"
#include "analysis/profile.hpp"
#include "analysis/table.hpp"

using namespace cfmerge;
using namespace cfmerge::analysis;

TEST(TableTest, AlignsAndPrints) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"longer-name", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::integer(123456), "123456");
}

TEST(PlotTest, RendersSeries) {
  AsciiPlot plot("throughput", "n", "elem/us", 40, 10);
  plot.set_log_x(true);
  plot.add_series({"thrust", 'T', {1024, 2048, 4096}, {10, 20, 30}});
  plot.add_series({"cf", 'C', {1024, 2048, 4096}, {12, 22, 33}});
  std::ostringstream os;
  plot.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find('T'), std::string::npos);
  EXPECT_NE(s.find('C'), std::string::npos);
  EXPECT_NE(s.find("thrust"), std::string::npos);
}

TEST(PlotTest, EmptyPlotDoesNotCrash) {
  AsciiPlot plot("empty", "x", "y");
  std::ostringstream os;
  plot.print(os);
  EXPECT_NE(os.str().find("no data"), std::string::npos);
}

TEST(SweepConfigTest, ParsesArgs) {
  const char* argv[] = {"prog", "--imin=5", "--imax=9", "--reps=2", "--seed=123",
                        "--unknown=1"};
  const auto cfg = SweepConfig::from_args(6, const_cast<char**>(argv));
  EXPECT_EQ(cfg.imin, 5);
  EXPECT_EQ(cfg.imax, 9);
  EXPECT_EQ(cfg.reps, 2);
  EXPECT_EQ(cfg.seed, 123u);
}

TEST(SweepConfigTest, SizesArePow2TimesE) {
  SweepConfig cfg;
  cfg.imin = 4;
  cfg.imax = 6;
  const auto sizes = cfg.sizes(15);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 16 * 15);
  EXPECT_EQ(sizes[2], 64 * 15);
}

TEST(SweepConfigTest, RejectsBadBounds) {
  const char* argv[] = {"prog", "--imin=9", "--imax=5"};
  EXPECT_THROW((void)SweepConfig::from_args(3, const_cast<char**>(argv)),
               std::invalid_argument);
}

TEST(SweepConfigTest, RejectsTrailingGarbage) {
  for (const char* arg : {"--threads=4x", "--reps=2x", "--imax=abc", "--seed=7 "}) {
    const char* argv[] = {"prog", arg};
    EXPECT_THROW((void)SweepConfig::from_args(2, const_cast<char**>(argv)),
                 std::invalid_argument)
        << arg;
  }
}

TEST(RunSortPoint, ProducesConsistentMetrics) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  workloads::WorkloadSpec spec;
  spec.dist = workloads::Distribution::UniformRandom;
  spec.n = 16 * 5 * 8;
  sort::MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = sort::Variant::CFMerge;
  const SortPoint point = run_sort_point(launcher, spec, cfg, 2);
  EXPECT_EQ(point.n, spec.n);
  EXPECT_GT(point.microseconds, 0.0);
  EXPECT_NEAR(point.throughput, point.n / point.microseconds, 1e-9);
  EXPECT_EQ(point.merge_conflicts, 0u);
  EXPECT_EQ(point.passes, 3);
}

TEST(RunSortPoint, WorstCaseCollapsesReps) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  workloads::WorkloadSpec spec;
  spec.dist = workloads::Distribution::WorstCase;
  spec.w = 8;
  spec.e = 5;
  spec.u = 16;
  spec.n = 16 * 5 * 4;
  sort::MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  cfg.variant = sort::Variant::Baseline;
  const SortPoint p1 = run_sort_point(launcher, spec, cfg, 1);
  const SortPoint p5 = run_sort_point(launcher, spec, cfg, 5);
  EXPECT_DOUBLE_EQ(p1.microseconds, p5.microseconds);
}

TEST(Profile, PhaseProfilePrints) {
  gpusim::PhaseCounters phases;
  auto& c = phases.phase("merge.merge");
  c.shared_accesses = 100;
  c.bank_conflicts = 50;
  c.shared_cycles = 150;
  std::ostringstream os;
  print_phase_profile(os, phases, 1000);
  EXPECT_NE(os.str().find("merge.merge"), std::string::npos);
  EXPECT_NE(os.str().find("0.500"), std::string::npos);
}

TEST(Profile, SummaryMentionsConflicts) {
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  sort::MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  std::vector<int> data(16 * 5 * 2);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<int>((i * 2654435761u) % 1000);
  const auto report = sort::merge_sort(launcher, data, cfg);
  const std::string s = summarize(report, "test");
  EXPECT_NE(s.find("test:"), std::string::npos);
  EXPECT_NE(s.find("throughput"), std::string::npos);
}
