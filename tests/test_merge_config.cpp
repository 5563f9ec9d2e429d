// Tests of validate_merge_config: one test per rejection message (verbatim)
// and a check that every sort entry point routes through the shared
// validator rather than carrying its own copy of the rules.
#include "sort/merge_pass.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "sort/batched_merge.hpp"
#include "sort/merge_sort.hpp"
#include "sort/multiway_pass.hpp"
#include "sort/segmented_sort.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;

namespace {

/// Runs `fn` and returns the invalid_argument message it throws (fails the
/// test if it does not throw).
template <typename Fn>
std::string rejection_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return {};
}

MergeConfig valid_cfg() {
  MergeConfig cfg;
  cfg.e = 5;
  cfg.u = 16;
  return cfg;
}

}  // namespace

TEST(MergeConfigValidation, AcceptsValidConfig) {
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::tiny(8);
  EXPECT_NO_THROW(validate_merge_config(dev, valid_cfg(), sizeof(int)));
}

TEST(MergeConfigValidation, RejectsNonPositiveE) {
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::tiny(8);
  MergeConfig cfg = valid_cfg();
  cfg.e = 0;
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, sizeof(int)); }),
            "MergeConfig: E must be positive");
  cfg.e = -3;
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, sizeof(int)); }),
            "MergeConfig: E must be positive");
}

TEST(MergeConfigValidation, RejectsNonPositiveU) {
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::tiny(8);
  MergeConfig cfg = valid_cfg();
  cfg.u = 0;
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, sizeof(int)); }),
            "MergeConfig: u must be positive");
  cfg.u = -16;
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, sizeof(int)); }),
            "MergeConfig: u must be positive");
}

TEST(MergeConfigValidation, RejectsUNotMultipleOfWarpSize) {
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::tiny(8);
  MergeConfig cfg = valid_cfg();
  cfg.u = 12;
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, sizeof(int)); }),
            "MergeConfig: u must be a multiple of the warp size");
}

TEST(MergeConfigValidation, EIsCheckedBeforeU) {
  // The validator names the FIRST violated constraint.
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::tiny(8);
  MergeConfig cfg = valid_cfg();
  cfg.e = 0;
  cfg.u = 0;
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, sizeof(int)); }),
            "MergeConfig: E must be positive");
}

TEST(MergeConfigValidation, RejectsBlockThatDoesNotFitOnAnSM) {
  // tiny(8): 64 threads, 16 KiB of shared memory and 8192 registers per SM.
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::tiny(8);
  const std::string expected = "MergeConfig: block does not fit on an SM";
  MergeConfig cfg = valid_cfg();
  cfg.u = 72;  // more threads than the SM holds
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, sizeof(int)); }),
            expected);
  cfg = valid_cfg();
  cfg.e = 300;  // 16 * 300 * 4 B = 18.75 KiB of shared memory
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, sizeof(int)); }),
            expected);
  // The same tile of 2-byte elements fits; the register estimate does not
  // once E grows further (16 * (E + 14) > 8192).
  EXPECT_NO_THROW(validate_merge_config(dev, cfg, sizeof(std::int16_t)));
  cfg.e = 600;
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, 1); }), expected);
  // An E at the top of int: rejected without overflowing the estimate.
  cfg.e = std::numeric_limits<int>::max();
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, 1); }), expected);
  // The CF block-sort staging buffer doubles the tile's shared footprint.
  cfg = valid_cfg();
  cfg.e = 200;  // 12.5 KiB fits, 25 KiB does not
  EXPECT_NO_THROW(validate_merge_config(dev, cfg, sizeof(int)));
  cfg.cf_blocksort = true;
  EXPECT_EQ(rejection_message([&] { validate_merge_config(dev, cfg, sizeof(int)); }),
            expected);
  cfg.variant = Variant::Baseline;  // the baseline never stages twice
  EXPECT_NO_THROW(validate_merge_config(dev, cfg, sizeof(int)));
}

TEST(MergeConfigValidation, OversizedBlockIsRejectedBeforeAnyKernelRuns) {
  // The default u = 512 on a 64-thread SM: rejected by the validator, so
  // the launcher records no kernel.
  gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
  std::vector<int> data(1000, 7);
  EXPECT_EQ(rejection_message([&] { merge_sort(launcher, data, MergeConfig{}); }),
            "MergeConfig: block does not fit on an SM");
  EXPECT_TRUE(launcher.history().empty());

  MultiwayConfig mcfg;
  mcfg.e = 5;
  mcfg.u = 64;
  mcfg.k = 16;  // the cascade's two buffers: 2 * (320 + 8 * 8 * 5) ints = 5 KiB
  EXPECT_NO_THROW(validate_multiway_config(launcher.device(), mcfg, sizeof(int)));
  mcfg.e = 40;  // 2 * (2560 + 8 * 8 * 40) ints = 40 KiB
  EXPECT_EQ(rejection_message([&] { merge_sort_multiway(launcher, data, mcfg); }),
            "MultiwayConfig: block does not fit on an SM");
  EXPECT_TRUE(launcher.history().empty());
}

TEST(MergeConfigValidation, EveryEntryPointRejectsWithTheSharedMessage) {
  MergeConfig cfg = valid_cfg();
  cfg.u = 12;  // warp size of tiny(8) is 8
  const std::string expected = "MergeConfig: u must be a multiple of the warp size";

  {
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
    std::vector<int> data{3, 1, 2};
    EXPECT_EQ(rejection_message([&] { merge_sort(launcher, data, cfg); }), expected);
  }
  {
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
    std::vector<std::vector<int>> outs;
    EXPECT_EQ(rejection_message([&] {
                batched_merge<int>(launcher, {{1, 2}}, {{3}}, outs, cfg);
              }),
              expected);
  }
  {
    gpusim::Launcher launcher(gpusim::DeviceSpec::tiny(8));
    std::vector<std::vector<int>> segments{{3, 1, 2}};
    EXPECT_EQ(rejection_message([&] { segmented_sort(launcher, segments, cfg); }), expected);
  }
}
