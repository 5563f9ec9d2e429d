// Content-addressed, process-independent plan identity.
//
// A plan's identity must answer one question the same way in every process:
// "would the engine build the same kernel graph for this request?"  The
// former PlanKey answered it with std::type_index(typeid(T)), which is a
// *process-local* token (an RTTI pointer) — meaningless on disk.  This
// header replaces it with content-addressed pieces:
//
//  * TypeDigest — a stable hash of the element type's *layout semantics*
//    (width, signedness, float flag, IEC-559 total-order flag; KeyValue
//    pairs compose their key and value digests).  The mangled name never
//    participates, so the digest is identical across compilers and runs.
//  * config_digest(cfg) — ONE uniform helper family folding every semantic
//    knob of a configuration (e, u, variant, ablation bits, k, direction)
//    into the key.  Previously the variant/direction bits were folded
//    ad hoc at each call site into the shape digest — a latent collision
//    risk whenever a new knob forgot the ritual; now adding a knob to a
//    config means extending exactly one function, and
//    tests/test_plan_key.cpp asserts key uniqueness across every plan kind.
//  * PlanKey::serialize — the canonical little-endian byte encoding
//    (kPlanKeySchemaVersion-prefixed) used verbatim as the persistent
//    store key (cache/store.hpp).  Bumping the schema version orphans all
//    previously persisted entries, which is the invalidation rule.
//
// shape_digest stays reserved for *shape* (the batched per-pair lengths,
// the segmented per-segment lengths); all configuration now lives in
// config_digest.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>

#include "cache/serial.hpp"
#include "cfprims/permute.hpp"
#include "numtheory/hash.hpp"
#include "sort/key_value.hpp"
#include "sort/merge_pass.hpp"
#include "sort/multiway_pass.hpp"

namespace cfmerge::sort {

/// Bump when the meaning of any serialized key field changes; persisted
/// entries written under another version are ignored (never misread).
inline constexpr std::uint32_t kPlanKeySchemaVersion = 1;

/// Stable cross-process identity of a plan's element type.
struct TypeDigest {
  std::uint64_t bits = 0;

  [[nodiscard]] bool operator==(const TypeDigest&) const = default;
};

namespace detail {

// Leading tags keep the digest domains of scalars, pairs, and opaque
// aggregates disjoint even when their folded field values coincide.
inline constexpr std::uint64_t kTypeTagVoid = 0;
inline constexpr std::uint64_t kTypeTagArithmetic = 1;
inline constexpr std::uint64_t kTypeTagKeyValue = 2;
inline constexpr std::uint64_t kTypeTagAggregate = 3;

template <typename T>
struct is_key_value : std::false_type {};
template <typename K, typename V>
struct is_key_value<KeyValue<K, V>> : std::true_type {};

}  // namespace detail

/// Computes the TypeDigest of T from layout semantics only (never the
/// name): arithmetic types hash (width, signedness, float flag, IEC-559
/// total-order flag); KeyValue<K, V> composes the digests of K and V;
/// any other trivially copyable type falls back to (size, alignment) under
/// a distinct tag.  Distinctness across the types the engine actually
/// plans for is pinned by tests/test_plan_key.cpp.
template <typename T>
[[nodiscard]] constexpr TypeDigest type_digest() {
  using numtheory::fnv1a;
  std::uint64_t h = numtheory::kFnvOffset;
  if constexpr (std::is_void_v<T>) {
    h = fnv1a(h, detail::kTypeTagVoid);
  } else if constexpr (std::is_arithmetic_v<T>) {
    h = fnv1a(h, detail::kTypeTagArithmetic);
    h = fnv1a(h, static_cast<std::uint64_t>(sizeof(T)));
    h = fnv1a(h, static_cast<std::uint64_t>(std::is_signed_v<T> ? 1 : 0));
    h = fnv1a(h, static_cast<std::uint64_t>(std::is_floating_point_v<T> ? 1 : 0));
    // Total-order flag: IEC-559 floats sort by the library's comparator
    // contract; a non-IEC float would plan identically but must not share
    // an identity with one that does.
    h = fnv1a(h, static_cast<std::uint64_t>(std::numeric_limits<T>::is_iec559 ? 1 : 0));
  } else if constexpr (detail::is_key_value<T>::value) {
    h = fnv1a(h, detail::kTypeTagKeyValue);
    h = fnv1a(h, type_digest<typename T::key_type>().bits);
    h = fnv1a(h, type_digest<typename T::value_type>().bits);
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "plan element types must be trivially copyable");
    h = fnv1a(h, detail::kTypeTagAggregate);
    h = fnv1a(h, static_cast<std::uint64_t>(sizeof(T)));
    h = fnv1a(h, static_cast<std::uint64_t>(alignof(T)));
  }
  return TypeDigest{h};
}

// ---------------------------------------------------------------------------
// Uniform config digests.  Every semantic knob of a configuration — and
// nothing else (certs are a pure function of (warp_size, e) and never part
// of identity) — is folded here, in one place per config type.

[[nodiscard]] constexpr std::uint64_t config_digest(const MergeConfig& cfg) {
  using numtheory::fnv1a;
  std::uint64_t h = fnv1a(numtheory::kFnvOffset, std::uint64_t{1});  // config tag
  h = fnv1a(h, static_cast<std::int64_t>(cfg.e));
  h = fnv1a(h, static_cast<std::int64_t>(cfg.u));
  h = fnv1a(h, static_cast<std::uint64_t>(cfg.variant));
  h = fnv1a(h, static_cast<std::uint64_t>(cfg.disable_rho ? 1 : 0));
  h = fnv1a(h, static_cast<std::uint64_t>(cfg.cf_output_scatter ? 1 : 0));
  h = fnv1a(h, static_cast<std::uint64_t>(cfg.cf_blocksort ? 1 : 0));
  return h;
}

[[nodiscard]] constexpr std::uint64_t config_digest(const MultiwayConfig& cfg) {
  using numtheory::fnv1a;
  std::uint64_t h = fnv1a(numtheory::kFnvOffset, std::uint64_t{2});  // config tag
  h = fnv1a(h, static_cast<std::int64_t>(cfg.e));
  h = fnv1a(h, static_cast<std::int64_t>(cfg.u));
  h = fnv1a(h, static_cast<std::int64_t>(cfg.k));
  h = fnv1a(h, static_cast<std::uint64_t>(cfg.variant));
  h = fnv1a(h, static_cast<std::uint64_t>(cfg.cf_blocksort ? 1 : 0));
  return h;
}

[[nodiscard]] constexpr std::uint64_t config_digest(const cfprims::PermuteConfig& cfg) {
  using numtheory::fnv1a;
  std::uint64_t h = fnv1a(numtheory::kFnvOffset, std::uint64_t{3});  // config tag
  h = fnv1a(h, static_cast<std::int64_t>(cfg.e));
  h = fnv1a(h, static_cast<std::int64_t>(cfg.u));
  h = fnv1a(h, static_cast<std::uint64_t>(cfg.op));
  h = fnv1a(h, static_cast<std::uint64_t>(cfg.inverse ? 1 : 0));
  return h;
}

/// Cache key: everything the kernel-graph structure depends on, in a form
/// that is equal across processes.  Two calls with equal keys produce
/// graphs with identical kernel names, shapes, enqueue order, and
/// pass/tile decisions — only buffer *contents* differ, which is exactly
/// what plan reuse rebinds.
struct PlanKey {
  enum class Kind : std::uint8_t {
    Sort = 0,
    Batched = 1,
    Multiway = 2,
    Permute = 3,
    Transpose = 4,
    Segmented = 5,
  };

  Kind kind = Kind::Sort;
  TypeDigest type{};
  /// Sort/Multiway/Permute: padded element count.  Batched: number of
  /// pairs; Segmented: number of segments (the lengths live in
  /// `shape_digest`).
  std::int64_t n_padded = 0;
  /// Batched: FNV-1a over every (|A|,|B|).  Segmented: over every length.
  std::uint64_t shape_digest = 0;
  std::uint64_t config_digest = 0;  ///< config_digest(cfg) of the plan's config

  [[nodiscard]] bool operator==(const PlanKey&) const = default;

  /// Canonical byte encoding (schema-versioned): the persistent store key.
  void serialize(cache::ByteWriter& w) const {
    w.u32(kPlanKeySchemaVersion);
    w.u8(static_cast<std::uint8_t>(kind));
    w.u64(type.bits);
    w.i64(n_padded);
    w.u64(shape_digest);
    w.u64(config_digest);
  }

  [[nodiscard]] std::vector<std::byte> serialized() const {
    cache::ByteWriter w;
    serialize(w);
    return w.take();
  }

  /// Inverse of serialize.  Returns false (leaving *this unspecified) on a
  /// short buffer or a schema-version mismatch.
  [[nodiscard]] bool deserialize(cache::ByteReader& r) {
    if (r.u32() != kPlanKeySchemaVersion) return false;
    kind = static_cast<Kind>(r.u8());
    type.bits = r.u64();
    n_padded = r.i64();
    shape_digest = r.u64();
    config_digest = r.u64();
    return r.ok();
  }
};

}  // namespace cfmerge::sort
