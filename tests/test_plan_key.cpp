// Tests of the content-addressed plan identity (sort/plan_key.hpp): type
// digests are distinct across the element types the engine plans for and
// never depend on type names; DeviceSpec::digest() hashes exactly the
// planning-relevant fields; config_digest folds every semantic knob; and a
// PlanKey sweep across all plan kinds serializes to unique store keys;
// one key per kind is pinned as literal bytes, and SortEngine must store
// its plan metadata under exactly those keys.
#include "sort/plan_key.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <set>
#include <vector>

#include "cache/serial.hpp"
#include "cache/store.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/launcher.hpp"
#include "numtheory/hash.hpp"
#include "sort/engine.hpp"
#include "sort/key_value.hpp"

using namespace cfmerge;
using namespace cfmerge::sort;

TEST(TypeDigest, DistinctAcrossPlannedTypes) {
  const std::vector<std::uint64_t> digests = {
      type_digest<std::int32_t>().bits,
      type_digest<std::uint32_t>().bits,
      type_digest<std::int64_t>().bits,
      type_digest<std::uint64_t>().bits,
      type_digest<float>().bits,
      type_digest<double>().bits,
      type_digest<KeyValue<std::int32_t, std::int32_t>>().bits,
      type_digest<KeyValue<std::int32_t, std::int64_t>>().bits,
      type_digest<KeyValue<std::int64_t, std::int32_t>>().bits,
      type_digest<KeyValue<float, std::int32_t>>().bits,
  };
  const std::set<std::uint64_t> unique(digests.begin(), digests.end());
  EXPECT_EQ(unique.size(), digests.size());
}

TEST(TypeDigest, PairDigestComposesComponentDigests) {
  // Swapping key and value types must change the digest even though the
  // pair's size and alignment stay the same.
  EXPECT_NE((type_digest<KeyValue<std::int32_t, std::int64_t>>()),
            (type_digest<KeyValue<std::int64_t, std::int32_t>>()));
  // A pair of two ints is not the same identity as a bare 8-byte scalar.
  EXPECT_NE((type_digest<KeyValue<std::int32_t, std::int32_t>>()),
            type_digest<std::int64_t>());
}

TEST(TypeDigest, StableAcrossEvaluations) {
  constexpr TypeDigest a = type_digest<std::int32_t>();
  const TypeDigest b = type_digest<std::int32_t>();
  EXPECT_EQ(a, b);
}

TEST(DeviceDigest, IgnoresNameAndHostSideFields) {
  const gpusim::DeviceSpec base = gpusim::DeviceSpec::rtx2080ti();
  gpusim::DeviceSpec renamed = base;
  renamed.name = "some-other-label";
  EXPECT_EQ(base.digest(), renamed.digest());

  gpusim::DeviceSpec host_tuned = base;
  host_tuned.sim_threads = 8;
  host_tuned.bulk_charge = false;  // counters/timing bit-identical either way
  EXPECT_EQ(base.digest(), host_tuned.digest());
}

TEST(DeviceDigest, ChangesWithEveryPlanningField) {
  const gpusim::DeviceSpec base = gpusim::DeviceSpec::rtx2080ti();
  std::set<std::uint64_t> digests = {base.digest()};
  auto expect_new = [&](gpusim::DeviceSpec d, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_TRUE(digests.insert(d.digest()).second);
  };
  {
    auto d = base;
    d.warp_size = 16;
    expect_new(d, "warp_size");
  }
  {
    auto d = base;
    d.num_sms = 4;
    expect_new(d, "num_sms");
  }
  {
    auto d = base;
    d.max_threads_per_sm = 512;
    expect_new(d, "max_threads_per_sm");
  }
  {
    auto d = base;
    d.shared_bytes_per_sm = 32 * 1024;
    expect_new(d, "shared_bytes_per_sm");
  }
  {
    auto d = base;
    d.shared_latency = 30;
    expect_new(d, "shared_latency");
  }
  {
    auto d = base;
    d.l2_bytes = 4 << 20;
    expect_new(d, "l2_bytes");
  }
  {
    auto d = base;
    d.clock_ghz = 1.0;
    expect_new(d, "clock_ghz");
  }
  {
    auto d = base;
    d.launch_overhead_cycles = 0.0;
    expect_new(d, "launch_overhead_cycles");
  }
  EXPECT_NE(gpusim::DeviceSpec::tiny(8).digest(), gpusim::DeviceSpec::tiny(16).digest());
}

namespace {

/// Collects `key` into `seen`, asserting both the struct and its canonical
/// serialization are new (the serialized form is the persistent store key,
/// so a struct-level collision AND a byte-level collision are each bugs).
void expect_unique(std::set<std::vector<std::byte>>& seen, const PlanKey& key) {
  EXPECT_TRUE(seen.insert(key.serialized()).second);
}

}  // namespace

TEST(PlanKey, UniqueAcrossKindsAndEveryConfigKnob) {
  std::set<std::vector<std::byte>> seen;
  const TypeDigest ti32 = type_digest<std::int32_t>();

  // Pairwise sort: every MergeConfig knob must reach the key.
  MergeConfig m;
  m.e = 5;
  m.u = 16;
  expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(m)});
  {
    auto c = m;
    c.e = 7;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.u = 32;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.variant = Variant::Baseline;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.disable_rho = true;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.cf_output_scatter = false;  // defaults to true
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = m;
    c.cf_blocksort = true;
    expect_unique(seen, {PlanKey::Kind::Sort, ti32, 320, 0, config_digest(c)});
  }
  // Other dimensions: padded length, element type, kind.
  expect_unique(seen, {PlanKey::Kind::Sort, ti32, 640, 0, config_digest(m)});
  expect_unique(seen, {PlanKey::Kind::Sort, type_digest<std::int64_t>(), 320, 0,
                       config_digest(m)});
  expect_unique(seen, {PlanKey::Kind::Batched, ti32, 320, 0, config_digest(m)});
  expect_unique(seen, {PlanKey::Kind::Batched, ti32, 320, 0x1234, config_digest(m)});

  // Multiway: its own tag, plus k and variant knobs.
  MultiwayConfig mw;
  mw.e = 5;
  mw.u = 16;
  mw.k = 4;
  expect_unique(seen, {PlanKey::Kind::Multiway, ti32, 320, 0, config_digest(mw)});
  {
    auto c = mw;
    c.k = 8;
    expect_unique(seen, {PlanKey::Kind::Multiway, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = mw;
    c.variant = MultiwayVariant::LoserTree;
    expect_unique(seen, {PlanKey::Kind::Multiway, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = mw;
    c.cf_blocksort = true;
    expect_unique(seen, {PlanKey::Kind::Multiway, ti32, 320, 0, config_digest(c)});
  }

  // Permute / transpose: direction is a key bit (the former ad hoc fold).
  cfprims::PermuteConfig p;
  p.e = 5;
  p.u = 16;
  expect_unique(seen, {PlanKey::Kind::Permute, ti32, 320, 0, config_digest(p)});
  {
    auto c = p;
    c.inverse = true;
    expect_unique(seen, {PlanKey::Kind::Permute, ti32, 320, 0, config_digest(c)});
  }
  {
    auto c = p;
    c.op = cfprims::PermuteOp::kTranspose;
    expect_unique(seen, {PlanKey::Kind::Transpose, ti32, 320, 0, config_digest(c)});
  }
}

TEST(PlanKey, ConfigDigestTagsKeepConfigTypesDisjoint) {
  // Same (e, u) and all-default flags across the three config types must
  // not alias: each digest starts from a distinct tag.
  MergeConfig m;
  m.e = 5;
  m.u = 16;
  MultiwayConfig mw;
  mw.e = 5;
  mw.u = 16;
  cfprims::PermuteConfig p;
  p.e = 5;
  p.u = 16;
  const std::set<std::uint64_t> digests = {config_digest(m), config_digest(mw),
                                           config_digest(p)};
  EXPECT_EQ(digests.size(), 3u);
}

TEST(PlanKey, SerializeDeserializeRoundTrips) {
  MergeConfig m;
  m.e = 15;
  m.u = 512;
  const PlanKey key{PlanKey::Kind::Batched, type_digest<float>(), 7680, 0xdeadbeef,
                    config_digest(m)};
  const std::vector<std::byte> bytes = key.serialized();

  cache::ByteReader r(bytes);
  PlanKey back;
  ASSERT_TRUE(back.deserialize(r));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back, key);
}

namespace {

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

/// One concrete int32 key per plan kind, built the way SortEngine keys its
/// plans, with the canonical bytes each must serialize to.
struct GoldenKey {
  const char* kind;
  PlanKey key;
  std::vector<std::byte> serialized;
};

// The golden configurations: the paper's (E, u) = (15, 512), and u = 256
// for the k = 4 cascade (its tile must fit on the device).
MergeConfig golden_merge() { return MergeConfig{}; }
MultiwayConfig golden_multiway() {
  MultiwayConfig mw;
  mw.u = 256;
  return mw;
}
cfprims::PermuteConfig golden_permute() { return cfprims::PermuteConfig{}; }
cfprims::PermuteConfig golden_transpose() {
  cfprims::PermuteConfig t;
  t.op = cfprims::PermuteOp::kTranspose;
  t.inverse = true;
  return t;
}

std::vector<GoldenKey> golden_keys() {
  const TypeDigest ti32 = type_digest<std::int32_t>();
  const MergeConfig m = golden_merge();
  std::uint64_t shape = numtheory::kFnvOffset;  // pairs (100, 37), (0, 8000)
  for (const std::uint64_t len : {100u, 37u, 0u, 8000u}) shape = numtheory::fnv1a(shape, len);
  return {
      {"sort", {PlanKey::Kind::Sort, ti32, 15360, 0, config_digest(m)},
       bytes({0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0xaa, 0xb4, 0xaf, 0xe3, 0x72, 0x7f, 0xb3,
              0x00, 0x3c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
              0x00, 0x00, 0x00, 0x61, 0xb0, 0xae, 0xf6, 0x0e, 0x5d, 0x64, 0x6f})},
      {"multiway", {PlanKey::Kind::Multiway, ti32, 15360, 0, config_digest(golden_multiway())},
       bytes({0x01, 0x00, 0x00, 0x00, 0x02, 0x01, 0xaa, 0xb4, 0xaf, 0xe3, 0x72, 0x7f, 0xb3,
              0x00, 0x3c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
              0x00, 0x00, 0x00, 0x87, 0x1f, 0x74, 0xf8, 0x84, 0xf3, 0xfe, 0x1f})},
      {"permute", {PlanKey::Kind::Permute, ti32, 15360, 0, config_digest(golden_permute())},
       bytes({0x01, 0x00, 0x00, 0x00, 0x03, 0x01, 0xaa, 0xb4, 0xaf, 0xe3, 0x72, 0x7f, 0xb3,
              0x00, 0x3c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
              0x00, 0x00, 0x00, 0x33, 0x95, 0xa3, 0xed, 0xb8, 0xd1, 0x73, 0xfd})},
      {"transpose",
       {PlanKey::Kind::Transpose, ti32, 15360, 0, config_digest(golden_transpose())},
       bytes({0x01, 0x00, 0x00, 0x00, 0x04, 0x01, 0xaa, 0xb4, 0xaf, 0xe3, 0x72, 0x7f, 0xb3,
              0x00, 0x3c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
              0x00, 0x00, 0x00, 0x13, 0xc7, 0x7d, 0xe5, 0xf9, 0x82, 0x70, 0xcd})},
      {"batched", {PlanKey::Kind::Batched, ti32, 2, shape, config_digest(m)},
       bytes({0x01, 0x00, 0x00, 0x00, 0x01, 0x01, 0xaa, 0xb4, 0xaf, 0xe3, 0x72, 0x7f, 0xb3,
              0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x81, 0xb2, 0x72, 0x2c, 0x73,
              0x14, 0xc7, 0xe7, 0x61, 0xb0, 0xae, 0xf6, 0x0e, 0x5d, 0x64, 0x6f})},
  };
}

}  // namespace

TEST(PlanKey, SerializedBytesArePinnedForEveryKind) {
  // The serialized key is the persistent store key: any byte change orphans
  // every plan cache on disk, so it may only change with a schema bump.
  for (const GoldenKey& g : golden_keys()) {
    SCOPED_TRACE(g.kind);
    EXPECT_EQ(g.key.serialized(), g.serialized);
  }
}

TEST(PlanKey, EngineStoresEachKindUnderItsGoldenKey) {
  // Every entry point must key its plan exactly as the golden keys do, and
  // write the metadata record (u8 1, i64 passes, i64 n_padded) under it.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "cfmerge_golden_plan_keys";
  std::filesystem::remove_all(dir);
  gpusim::Launcher launcher(gpusim::DeviceSpec::rtx2080ti());
  SortEngine engine(launcher);
  cache::PlanCacheStore store(dir);
  engine.set_store(&store);

  const std::vector<GoldenKey> golden = golden_keys();
  std::vector<std::int32_t> data(15000, 7);
  engine.sort(data, golden_merge());
  data.assign(15000, 7);
  engine.sort_multiway(data, golden_multiway());
  data.assign(15000, 7);
  engine.permute(data, golden_permute());
  data.assign(15000, 7);
  engine.permute(data, golden_transpose());
  const std::vector<std::vector<std::int32_t>> as = {std::vector<std::int32_t>(100), {}};
  const std::vector<std::vector<std::int32_t>> bs = {std::vector<std::int32_t>(37),
                                                     std::vector<std::int32_t>(8000)};
  std::vector<std::vector<std::int32_t>> outs;
  engine.batched_merge(as, bs, outs, golden_merge());

  const std::int64_t passes[] = {1, 1, 0, 0, 0};
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE(golden[i].kind);
    cache::ByteWriter meta;
    meta.u8(1);
    meta.i64(passes[i]);
    meta.i64(golden[i].key.n_padded);
    const auto stored =
        store.lookup(detail::plan_store_key(launcher.device().digest(), golden[i].key));
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, meta.take());
  }
  std::filesystem::remove_all(dir);
}

TEST(PlanKey, DeserializeRejectsSchemaVersionMismatch) {
  const PlanKey key{PlanKey::Kind::Sort, type_digest<std::int32_t>(), 320, 0, 1};
  cache::ByteWriter w;
  w.u32(kPlanKeySchemaVersion + 1);  // future schema
  w.u8(0);
  w.u64(key.type.bits);
  w.i64(key.n_padded);
  w.u64(key.shape_digest);
  w.u64(key.config_digest);
  const std::vector<std::byte> bytes = w.take();

  cache::ByteReader r(bytes);
  PlanKey back;
  EXPECT_FALSE(back.deserialize(r));

  // A truncated buffer is also rejected (reader latches not-ok).
  const std::vector<std::byte> full = key.serialized();
  cache::ByteReader short_r(std::span<const std::byte>(full.data(), 10));
  EXPECT_FALSE(back.deserialize(short_r));
}
