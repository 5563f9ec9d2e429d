// Plan/execute split for every sort entry point — the cuFFT/CUB two-phase
// shape, applied to the simulated mergesort library.
//
// A SortEngine is a long-lived object owning
//
//  * a **plan cache**: plans are keyed by (shape class, padded length /
//    batch shape digest, MergeConfig) — the kernel-graph structure is a
//    pure function of that key (merge-path partitioning fixes the pass and
//    tile decisions from n_padded and cfg alone), so a plan built once can
//    execute any input of the same shape.  Every kind — sort, multiway,
//    permute/transpose, batched, segmented — is one detail::Plan<T> made by
//    a small builder that calls the kind's enqueue_*_pipeline; sort and
//    multiway plans are the one-segment segmented pipeline, at arity 2 or k.
//    A plan owns BOTH its KernelGraph template and every buffer the graph's
//    bodies capture, which closes the latent lifetime footgun of the free
//    functions: the storage a body references can no longer die or move
//    while the graph is still runnable.  Executing a cached plan is "rebind
//    by refilling": copy the new input into the plan's buffers (a sort
//    plan also sets the real length its kernels clamp with; no sort kernel
//    reads past it, so stale tails need no refresh) and Launcher::run the
//    graph again — the KernelGraph replay contract (kernel_graph.hpp)
//    guarantees reports bit-identical to a freshly enqueued pipeline.
//
//  * a **scratch arena**: a pool of typed, reusable vectors for per-call
//    scratch that is not part of any plan (today: the *_by_key entry
//    points' KeyValue pair buffer).  acquire<T>(n) hands out an RAII Lease;
//    the backing allocation returns to the pool when the lease drops.
//
//  * optionally a **persistent store** (set_store): plan identity is
//    content-addressed (sort/plan_key.hpp), so a cache::PlanCacheStore can
//    carry plan metadata and autotune results across processes.  In-memory
//    misses consult it (disk_* counters in EngineStats) and builds write
//    back; see cache/store.hpp and docs/architecture.md.
//
// Cache semantics: the cache holds *idle* plan instances.  acquire removes
// an instance from the free list (a hit) and the call returns it when done,
// so one instance never serves two running graphs.  Instances beyond the
// configured capacity are evicted least-recently-released; disabling the
// cache (set_plan_cache_enabled(false)) drops all idle plans and makes
// every acquire a miss, which is what `cfsort --no-plan-cache` uses to
// show the un-amortized cost.
//
// The six free entry points (merge_sort, merge_sort_by_key,
// merge_sort_multiway, merge_sort_multiway_by_key, segmented_sort,
// batched_merge) are thin wrappers: one-shot engine use, reports
// bit-identical to the pre-engine implementations (asserted by
// test_sort_engine across thread counts).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <utility>
#include <vector>

#include "cache/store.hpp"
#include "cfprims/permute.hpp"
#include "gpusim/launcher.hpp"
#include "numtheory/hash.hpp"
#include "sort/batched_merge.hpp"
#include "sort/key_value.hpp"
#include "sort/merge_pass.hpp"
#include "sort/merge_sort.hpp"
#include "sort/plan_key.hpp"
#include "sort/segmented_sort.hpp"

namespace cfmerge::sort {

/// Engine counters: cumulative plan-cache traffic plus a snapshot of what
/// the cache and arena currently hold.  Emitted into the cfsort /
/// sim_hotpath JSON reports.
struct EngineStats {
  std::uint64_t plan_hits = 0;       ///< acquires served from the cache
  std::uint64_t plan_misses = 0;     ///< acquires that built a new plan
  std::uint64_t plan_evictions = 0;  ///< idle plans dropped over capacity
  std::uint64_t plans_cached = 0;    ///< idle plan instances held right now
  std::uint64_t plan_bytes = 0;      ///< storage owned by those idle plans
  std::uint64_t arena_bytes = 0;     ///< pooled scratch-arena storage
  std::uint64_t arena_allocs = 0;    ///< arena acquires that allocated
  std::uint64_t arena_reuses = 0;    ///< arena acquires served from the pool
  std::uint64_t bulk_charges = 0;    ///< warp accesses charged in closed form
  std::uint64_t lane_charges = 0;    ///< warp accesses charged per lane
  std::uint64_t audit_skipped_accesses = 0;  ///< audit replays elided by safety certs
  std::uint64_t cert_hits = 0;       ///< certify() calls served from the memo
  std::uint64_t cert_misses = 0;     ///< certify() calls that ran the prover
  std::uint64_t certs_cached = 0;    ///< distinct certificates held right now
  // Persistent (disk) plan & autotune cache, when one is attached — the
  // whole-process traffic of the cache::PlanCacheStore, which also counts
  // autotune lookups routed through the same store.
  std::uint64_t disk_hits = 0;       ///< store lookups that found an entry
  std::uint64_t disk_misses = 0;     ///< store lookups that found nothing
  std::uint64_t disk_writes = 0;     ///< entries written (plan metadata, tune results)
  std::uint64_t disk_evictions = 0;  ///< entries dropped by the LRU size cap
  std::uint64_t disk_corrupt = 0;    ///< unreadable store files ignored + rebuilt
  std::uint64_t disk_entries = 0;    ///< persisted entries held right now
  std::uint64_t disk_bytes = 0;      ///< serialized store size right now
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = plan_hits + plan_misses;
    return total > 0 ? static_cast<double>(plan_hits) / static_cast<double>(total) : 0.0;
  }
  /// Fraction of warp accesses charged by the bulk path.
  [[nodiscard]] double bulk_rate() const {
    const std::uint64_t total = bulk_charges + lane_charges;
    return total > 0 ? static_cast<double>(bulk_charges) / static_cast<double>(total) : 0.0;
  }
};

/// Typed pool of reusable scratch vectors.  acquire<T>(n) returns an RAII
/// lease on a std::vector<T> resized to n; dropping the lease returns the
/// allocation (capacity intact) to the pool for the next same-typed
/// acquire.  Not thread-safe — an engine, like a Launcher, serves one
/// caller at a time.
class ScratchArena {
 public:
  /// Returns a leased slot to the pool; the vector itself stays pooled.
  struct Release {
    ScratchArena* arena = nullptr;
    std::size_t slot = 0;
    void operator()(const void*) const { arena->release(slot); }
  };
  template <typename T>
  using Lease = std::unique_ptr<std::vector<T>, Release>;

  template <typename T>
  [[nodiscard]] Lease<T> acquire(std::size_t n) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.in_use && s.type == std::type_index(typeid(T))) {
        s.in_use = true;
        ++reuses_;
        auto* vec = static_cast<std::vector<T>*>(s.storage.get());
        vec->resize(n);
        return Lease<T>(vec, Release{this, i});
      }
    }
    ++allocs_;
    auto storage = std::make_shared<std::vector<T>>(n);
    auto* vec = storage.get();
    slots_.push_back(Slot{std::type_index(typeid(T)), true, std::move(storage),
                          [](const void* p) -> std::uint64_t {
                            const auto* v = static_cast<const std::vector<T>*>(p);
                            return v->capacity() * sizeof(T);
                          }});
    return Lease<T>(vec, Release{this, slots_.size() - 1});
  }

  /// Bytes currently held by the pool (leased or idle).
  [[nodiscard]] std::uint64_t pooled_bytes() const;
  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }

  /// Drops every idle slot.  Leased slots survive until their lease ends.
  void clear();

 private:
  struct Slot {
    std::type_index type;
    bool in_use = false;
    std::shared_ptr<void> storage;
    std::uint64_t (*measure)(const void*) = nullptr;
  };

  void release(std::size_t slot);

  std::vector<Slot> slots_;
  std::uint64_t allocs_ = 0;
  std::uint64_t reuses_ = 0;
};

namespace detail {

// PlanKey (the content-addressed cache key) and its digests live in
// sort/plan_key.hpp; the engine adds only the store-key framing here.

/// The persistent-store key for a plan's metadata: a record tag, the
/// device's content digest, then the schema-versioned PlanKey bytes.
inline std::vector<std::byte> plan_store_key(std::uint64_t device_digest,
                                             const PlanKey& key) {
  cache::ByteWriter w;
  w.str("plan");
  w.u64(device_digest);
  key.serialize(w);
  return w.take();
}

/// A cached plan of any kind: an enqueued KernelGraph plus every buffer its
/// bodies capture.  Plans are heap-allocated and pinned (no copy/move): the
/// graph's kernel bodies hold references into the buffers.  The builders
/// below fix what each buffer means:
///
///   permute                    buf = input, tmp = output
///   batched                    buf = staging, tmp = packed output, boundaries and batch
///   sort, multiway, segmented  buf = input, tmp = ping-pong partner, boundaries and batch
template <typename T>
struct Plan {
  std::vector<T> buf, tmp;
  std::vector<std::int64_t> boundaries;
  BatchLayout batch;                 ///< every kind but permute
  int passes = 0;                    ///< global merge passes (segmented: the most)
  std::vector<T>* result = nullptr;  ///< buf or tmp: holds the output after a run
  gpusim::KernelGraph graph;

  Plan() = default;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  /// Rebind a padded plan: load the next input.  A sort plan is keyed by
  /// the padded length, so its kernels' real length is set here, per input;
  /// they read nothing past it, so buf's tail may hold anything.
  void load(const std::vector<T>& data) {
    std::copy(data.begin(), data.end(), buf.begin());
    batch.fill.n = static_cast<std::int64_t>(data.size());
  }

  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return (buf.capacity() + tmp.capacity()) * sizeof(T) +
           batch.tiles.capacity() * sizeof(BatchTile) +
           (batch.offsets.capacity() + boundaries.capacity()) * sizeof(std::int64_t) +
           batch.fill.lens.capacity() * sizeof(std::int32_t);
  }
};

// One builder per plan kind; each calls that kind's enqueue_*_pipeline.

/// A sort plan — 2-way for a MergeConfig, k-way for a MultiwayConfig — is
/// the one-segment segmented pipeline.
template <typename T, typename Cfg>
std::shared_ptr<Plan<T>> build_sort_plan(const Cfg& cfg, std::int64_t n_padded, int warp_size) {
  auto plan = std::make_shared<Plan<T>>();
  enqueue_segmented_pipeline(plan->graph, {n_padded}, plan->buf, plan->tmp, plan->batch,
                             plan->boundaries, cfg, warp_size, plan->passes);
  plan->result = plan->passes % 2 ? &plan->tmp : &plan->buf;
  return plan;
}

template <typename T>
std::shared_ptr<Plan<T>> build_permute_plan(const cfprims::PermuteConfig& cfg,
                                            std::int64_t n_padded) {
  auto plan = std::make_shared<Plan<T>>();
  plan->buf.resize(static_cast<std::size_t>(n_padded));
  plan->tmp.assign(plan->buf.size(), padding_sentinel<T>::value());
  cfprims::enqueue_permute_pipeline(plan->graph, plan->buf, plan->tmp, n_padded, cfg);
  plan->result = &plan->tmp;
  return plan;
}

template <typename T>
std::shared_ptr<Plan<T>> build_batched_plan(const std::vector<std::vector<T>>& as,
                                            const std::vector<std::vector<T>>& bs,
                                            const MergeConfig& cfg, int warp_size) {
  auto plan = std::make_shared<Plan<T>>();
  enqueue_batched_pipeline(plan->graph, as, bs, plan->buf, plan->tmp, plan->batch,
                           plan->boundaries, cfg, warp_size);
  plan->result = &plan->tmp;
  return plan;
}

/// A segmented plan leaves each segment in buf or tmp by its own pass
/// parity, so `result` stays null; the engine unpacks per segment.
template <typename T>
std::shared_ptr<Plan<T>> build_segmented_plan(const std::vector<std::int64_t>& lens,
                                              const MergeConfig& cfg, int warp_size) {
  auto plan = std::make_shared<Plan<T>>();
  enqueue_segmented_pipeline(plan->graph, lens, plan->buf, plan->tmp, plan->batch,
                             plan->boundaries, cfg, warp_size, plan->passes);
  return plan;
}

}  // namespace detail

/// The engine.  Owns the plan cache and the scratch arena; executes
/// against one Launcher (whose history/trace it manages exactly like the
/// free entry points: cleared per call, then holding that call's kernels).
class SortEngine {
 public:
  static constexpr std::size_t kDefaultPlanCapacity = 64;

  explicit SortEngine(gpusim::Launcher& launcher,
                      std::size_t plan_capacity = kDefaultPlanCapacity)
      : launcher_(&launcher), capacity_(plan_capacity) {}
  SortEngine(const SortEngine&) = delete;
  SortEngine& operator=(const SortEngine&) = delete;

  /// merge_sort through the engine: bit-identical report, cached plan.
  template <typename T>
  SortReport sort(std::vector<T>& data, const MergeConfig& cfg) {
    validate_merge_config(launcher_->device(), cfg, sizeof(T));
    const MergeConfig certified = with_certs(cfg);
    const int warp_size = launcher_->device().warp_size;
    return sort_padded(data, PlanKey::Kind::Sort, certified, [&](std::int64_t np) {
      return detail::build_sort_plan<T>(certified, np, warp_size);
    });
  }

  /// merge_sort_multiway through the engine: the k-way pipeline under the
  /// same plan cache.  The (k, variant) pair is digested into the key.
  template <typename T>
  SortReport sort_multiway(std::vector<T>& data, const MultiwayConfig& cfg) {
    validate_multiway_config(launcher_->device(), cfg, sizeof(T));
    const MultiwayConfig certified = with_certs(cfg);
    const int warp_size = launcher_->device().warp_size;
    return sort_padded(data, PlanKey::Kind::Multiway, certified, [&](std::int64_t np) {
      return detail::build_sort_plan<T>(certified, np, warp_size);
    });
  }

  /// Standalone cf_permute / cf_transpose through the engine: one cached
  /// one-kernel plan per (op, direction, type, padded length, e, u).  The
  /// whole *padded* tile domain is permuted — a real element of a ragged
  /// final tile may land in the sentinel tail and come back only under the
  /// inverse op — so `data` is resized to the padded length and holds the
  /// full permuted array on return (truncate to report.n when done).
  template <typename T>
  cfprims::PermuteReport permute(std::vector<T>& data, const cfprims::PermuteConfig& cfg) {
    cfprims::validate_permute_config(launcher_->device(), cfg);

    cfprims::PermuteReport report;
    report.op = cfg.op;
    report.inverse = cfg.inverse;
    report.e = cfg.e;
    report.u = cfg.u;
    const auto kind = cfg.op == cfprims::PermuteOp::kTranspose ? PlanKey::Kind::Transpose
                                                               : PlanKey::Kind::Permute;
    execute_padded(
        report, data, kind, cfg,
        [&](std::int64_t np) { return detail::build_permute_plan<T>(cfg, np); },
        [&](detail::Plan<T>& plan) {
          // The permutation moves the padding too, so the sentinel tail is
          // part of the input (a previous input may have left data there).
          std::fill(std::copy(data.begin(), data.end(), plan.buf.begin()), plan.buf.end(),
                    padding_sentinel<T>::value());
        },
        [&](const detail::Plan<T>& plan) {
          data.assign(plan.result->begin(), plan.result->end());
        });
    return report;
  }

  /// sort_multiway for key-value pairs, arena-staged like sort_by_key.
  template <typename K, typename V>
  SortReport sort_multiway_by_key(std::vector<K>& keys, std::vector<V>& values,
                                  const MultiwayConfig& cfg) {
    return sort_key_value(keys, values, "merge_sort_multiway_by_key",
                          [&](auto& pairs) { return sort_multiway(pairs, cfg); });
  }

  /// merge_sort_by_key through the engine: the KeyValue pair buffer comes
  /// from the scratch arena instead of a per-call allocation.
  template <typename K, typename V>
  SortReport sort_by_key(std::vector<K>& keys, std::vector<V>& values,
                         const MergeConfig& cfg) {
    return sort_key_value(keys, values, "merge_sort_by_key",
                          [&](auto& pairs) { return sort(pairs, cfg); });
  }

  /// segmented_sort through the engine: one plan per batch, keyed by the
  /// full list of segment lengths.  A batch with no elements launches
  /// nothing and touches no plan.
  template <typename T>
  SegmentedSortReport segmented_sort(std::vector<std::vector<T>>& segments,
                                     const MergeConfig& cfg) {
    validate_merge_config(launcher_->device(), cfg, sizeof(T));
    const MergeConfig certified = with_certs(cfg);

    SegmentedSortReport report;
    report.segments = static_cast<int>(segments.size());
    std::vector<std::int64_t> lens;
    std::uint64_t digest = numtheory::kFnvOffset;
    for (const std::vector<T>& seg : segments) {
      const auto n = static_cast<std::int64_t>(seg.size());
      lens.push_back(n);
      report.elements += n;
      report.per_segment.push_back({n, merge_pass_count(n, certified.tile())});
      digest = numtheory::fnv1a(digest, static_cast<std::uint64_t>(n));
    }
    if (report.elements == 0) return report;

    const PlanKey key{PlanKey::Kind::Segmented, type_digest<T>(),
                      static_cast<std::int64_t>(segments.size()), digest,
                      config_digest(certified)};
    execute<T>(
        report, key,
        [&] {
          return detail::build_segmented_plan<T>(lens, certified,
                                                 launcher_->device().warp_size);
        },
        [&](detail::Plan<T>& plan) {
          for (std::size_t s = 0; s < segments.size(); ++s)
            std::copy(segments[s].begin(), segments[s].end(), plan.batch.at(plan.buf, s));
        },
        [&](const detail::Plan<T>& plan) {
          for (std::size_t s = 0; s < segments.size(); ++s) {
            const auto from =
                plan.batch.at(report.per_segment[s].passes % 2 ? plan.tmp : plan.buf, s);
            std::copy(from, from + static_cast<std::ptrdiff_t>(segments[s].size()),
                      segments[s].begin());
          }
        });
    return report;
  }

  /// batched_merge through the engine: the plan key digests every pair's
  /// (|A|, |B|), so a repeated batch shape reuses its staging layout,
  /// descriptors, and both kernel nodes.  A batch with no elements launches
  /// nothing and touches no plan.
  template <typename T>
  BatchedMergeReport batched_merge(const std::vector<std::vector<T>>& as,
                                   const std::vector<std::vector<T>>& bs,
                                   std::vector<std::vector<T>>& outs,
                                   const MergeConfig& cfg) {
    if (as.size() != bs.size())
      throw std::invalid_argument("batched_merge: pair count mismatch");
    validate_merge_config(launcher_->device(), cfg, sizeof(T), /*block_sort=*/false);
    const MergeConfig certified = with_certs(cfg);

    BatchedMergeReport report;
    report.pairs = static_cast<int>(as.size());
    outs.resize(as.size());
    std::uint64_t digest = numtheory::kFnvOffset;
    for (std::size_t p = 0; p < as.size(); ++p) {
      outs[p].resize(as[p].size() + bs[p].size());
      report.elements += static_cast<std::int64_t>(outs[p].size());
      digest = numtheory::fnv1a(digest, static_cast<std::uint64_t>(as[p].size()));
      digest = numtheory::fnv1a(digest, static_cast<std::uint64_t>(bs[p].size()));
    }
    if (report.elements == 0) return report;

    const PlanKey key{PlanKey::Kind::Batched, type_digest<T>(),
                      static_cast<std::int64_t>(as.size()), digest,
                      config_digest(certified)};
    execute<T>(
        report, key,
        [&] {
          return detail::build_batched_plan<T>(as, bs, certified,
                                               launcher_->device().warp_size);
        },
        [&](detail::Plan<T>& plan) {
          for (std::size_t p = 0; p < as.size(); ++p)
            std::copy(bs[p].begin(), bs[p].end(),
                      std::copy(as[p].begin(), as[p].end(), plan.batch.at(plan.buf, p)));
        },
        [&](const detail::Plan<T>& plan) {
          for (std::size_t p = 0; p < as.size(); ++p) {
            const auto from = plan.batch.at(*plan.result, p);
            std::copy(from, from + static_cast<std::ptrdiff_t>(outs[p].size()), outs[p].begin());
          }
        });
    return report;
  }

  [[nodiscard]] gpusim::Launcher& launcher() const { return *launcher_; }
  [[nodiscard]] ScratchArena& arena() { return arena_; }

  /// Cumulative counters plus a snapshot of current cache/arena contents.
  [[nodiscard]] EngineStats stats() const;

  /// Drops every idle plan (stats counters are kept).
  void clear_plans();

  /// Disabling also drops the idle plans; every subsequent acquire is a
  /// build (counted as a miss).  `cfsort --no-plan-cache`.
  void set_plan_cache_enabled(bool enabled);
  [[nodiscard]] bool plan_cache_enabled() const { return cache_enabled_; }

  /// Maximum idle plan instances kept; least-recently-released instances
  /// beyond it are evicted.
  void set_plan_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t plan_capacity() const { return capacity_; }

  /// Attaches a persistent cross-process store (nullptr detaches).  On an
  /// in-memory plan miss the engine consults the store for the key's
  /// persisted metadata (a disk hit proves a previous process planned the
  /// same request) and writes the metadata back after building; the
  /// store's traffic counters surface as the EngineStats disk_* fields.
  /// The engine does NOT own the store — the caller keeps it alive (and
  /// calls save()) for the engine's lifetime; one store may serve several
  /// engines and the autotuner at once.
  void set_store(cache::PlanCacheStore* store) { store_ = store; }
  [[nodiscard]] cache::PlanCacheStore* store() const { return store_; }

 private:
  struct CachedPlan {
    PlanKey key;
    std::shared_ptr<void> plan;
    std::uint64_t bytes = 0;
    std::uint64_t released_at = 0;
  };

  /// Copies `cfg` (a MergeConfig or MultiwayConfig) with the
  /// conflict-freedom certificate bundle for the launcher's warp width
  /// resolved in (memoized process-wide; a few symbolic proofs on the first
  /// call per (w, E)).  PlanKey equality ignores the bundle — it is a pure
  /// function of (warp_size, e).
  template <typename Cfg>
  [[nodiscard]] Cfg with_certs(const Cfg& cfg) const {
    Cfg out = cfg;
    out.certs = resolve_tile_certs(launcher_->device().warp_size, cfg.e);
    return out;
  }

  /// The key of a single-array plan: `n` padded to the config's tile.
  template <typename T, typename Cfg>
  [[nodiscard]] static PlanKey padded_key(PlanKey::Kind kind, std::int64_t n, const Cfg& cfg) {
    const std::int64_t tile = cfg.tile();
    return {kind, type_digest<T>(), (n + tile - 1) / tile * tile, 0, config_digest(cfg)};
  }

  /// Copies the first seg.size() elements of a sort plan's result over `seg`.
  template <typename T>
  static void unpack_sorted(const detail::Plan<T>& plan, std::vector<T>& seg) {
    std::copy(plan.result->begin(),
              plan.result->begin() + static_cast<std::ptrdiff_t>(seg.size()), seg.begin());
  }

  /// Runs `graph` on a cleared launcher and copies the graph timing and
  /// the launcher's counters into `report`.
  template <typename Report>
  void run(Report& report, const gpusim::KernelGraph& graph) {
    launcher_->clear_history();
    gpusim::GraphReport g = launcher_->run(graph);
    if constexpr (requires { report.serial_microseconds; }) {
      report.serial_microseconds = g.microseconds;
    } else {
      report.microseconds = g.microseconds;
    }
    report.makespan_microseconds = g.microseconds;
    report.graph_levels = graph.size();
    report.kernels = std::move(g.kernels);
    report.totals = launcher_->total_counters();
    report.phases = launcher_->phase_counters();
  }

  /// The one execute path: acquire the plan for `key` (building it on a
  /// miss), load the input, run the graph, unpack the output, and hand the
  /// plan back to the cache.
  template <typename T, typename Report, typename Build, typename Load, typename Unpack>
  void execute(Report& report, const PlanKey& key, Build&& build, Load&& load,
               Unpack&& unpack) {
    std::shared_ptr<detail::Plan<T>> plan = acquire_plan<T>(key, build);
    load(*plan);
    run(report, plan->graph);
    unpack(std::as_const(*plan));
    cache_plan(key, std::move(plan));
  }

  /// execute() for the single-array kinds: keys the plan by `data`'s
  /// length padded to the tile multiple, then loads `data` with `load`.
  /// Empty input returns with report.n = 0 and no plan traffic.
  template <typename T, typename Report, typename Cfg, typename Build, typename Load,
            typename Unpack>
  void execute_padded(Report& report, const std::vector<T>& data, PlanKey::Kind kind,
                      const Cfg& cfg, Build&& build, Load&& load, Unpack&& unpack) {
    report.n = static_cast<std::int64_t>(data.size());
    if (report.n == 0) return;
    const PlanKey key = padded_key<T>(kind, report.n, cfg);
    report.n_padded = key.n_padded;
    execute<T>(report, key, [&] { return build(key.n_padded); }, load, unpack);
  }

  /// sort / sort_multiway: execute_padded, then copy the sorted prefix back.
  template <typename T, typename Cfg, typename Build>
  SortReport sort_padded(std::vector<T>& data, PlanKey::Kind kind, const Cfg& cfg,
                         Build&& build) {
    SortReport report;
    execute_padded(
        report, data, kind, cfg, build, [&](detail::Plan<T>& plan) { plan.load(data); },
        [&](const detail::Plan<T>& plan) {
          report.passes = plan.passes;
          unpack_sorted(plan, data);
        });
    return report;
  }

  /// The *_by_key staging: pairs (keys, values) into an arena-leased
  /// KeyValue buffer, sorts it with `sort_pairs`, and splits it back.
  template <typename K, typename V, typename SortPairs>
  SortReport sort_key_value(std::vector<K>& keys, std::vector<V>& values, const char* entry,
                            SortPairs&& sort_pairs) {
    if (keys.size() != values.size())
      throw std::invalid_argument(std::string(entry) + ": keys/values size mismatch");
    auto lease = arena_.acquire<KeyValue<K, V>>(keys.size());
    std::vector<KeyValue<K, V>>& pairs = *lease;
    for (std::size_t i = 0; i < keys.size(); ++i) pairs[i] = {keys[i], values[i]};
    const SortReport report = sort_pairs(pairs);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = pairs[i].key;
      values[i] = pairs[i].value;
    }
    return report;
  }

  /// An idle plan for `key` (a hit), else a fresh build() (a miss).
  template <typename T, typename Build>
  std::shared_ptr<detail::Plan<T>> acquire_plan(const PlanKey& key, Build&& build) {
    if (std::shared_ptr<void> idle = take_idle(key))
      return std::static_pointer_cast<detail::Plan<T>>(std::move(idle));
    std::shared_ptr<detail::Plan<T>> plan = build();
    persist(key, plan->passes);
    return plan;
  }

  template <typename T>
  void cache_plan(const PlanKey& key, std::shared_ptr<detail::Plan<T>> plan) {
    const std::uint64_t bytes = plan->footprint_bytes();
    release_plan(key, std::move(plan), bytes);
  }

  /// Removes and returns an idle plan for `key` (a hit), or returns null
  /// after counting a miss.
  std::shared_ptr<void> take_idle(const PlanKey& key);
  /// Writes a freshly built plan's metadata to the attached store unless a
  /// previous process already persisted it.
  void persist(const PlanKey& key, int passes);
  void release_plan(const PlanKey& key, std::shared_ptr<void> plan,
                    std::uint64_t bytes);
  void evict_to_capacity(std::size_t capacity);

  gpusim::Launcher* launcher_;
  ScratchArena arena_;
  cache::PlanCacheStore* store_ = nullptr;  ///< optional, caller-owned
  std::vector<CachedPlan> free_plans_;  ///< idle instances, linear-scanned
  bool cache_enabled_ = true;
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  EngineStats stats_;  ///< cumulative fields only; snapshots added in stats()
};

// ---------------------------------------------------------------------------
// The classic free entry points: one-shot engine use.  A fresh engine per
// call means plan build + execute, which is exactly the pre-engine cost and
// produces bit-identical reports; callers with repeated shapes should hold
// a SortEngine instead.

/// Sorts `data` in place with the configured variant.  `launcher.history()`
/// is cleared and then holds one report per launched kernel.
template <typename T>
SortReport merge_sort(gpusim::Launcher& launcher, std::vector<T>& data,
                      const MergeConfig& cfg) {
  SortEngine engine(launcher);
  return engine.sort(data, cfg);
}

/// Sorts `keys` and applies the same permutation to `values` (Thrust's
/// sort_by_key).  Sizes must match.  See key_value.hpp for the stability
/// guarantees per variant.
template <typename K, typename V>
SortReport merge_sort_by_key(gpusim::Launcher& launcher, std::vector<K>& keys,
                             std::vector<V>& values, const MergeConfig& cfg) {
  SortEngine engine(launcher);
  return engine.sort_by_key(keys, values, cfg);
}

/// Sorts `data` in place with the k-way multiway pipeline: ceil(log_k)
/// global passes instead of ceil(log2).  See multiway_pass.hpp for the two
/// merge variants.  Results are bit-identical to merge_sort for plain keys.
template <typename T>
SortReport merge_sort_multiway(gpusim::Launcher& launcher, std::vector<T>& data,
                               const MultiwayConfig& cfg) {
  SortEngine engine(launcher);
  return engine.sort_multiway(data, cfg);
}

/// merge_sort_multiway for key-value pairs (sorted by key).
template <typename K, typename V>
SortReport merge_sort_multiway_by_key(gpusim::Launcher& launcher, std::vector<K>& keys,
                                      std::vector<V>& values, const MultiwayConfig& cfg) {
  SortEngine engine(launcher);
  return engine.sort_multiway_by_key(keys, values, cfg);
}

/// Sorts every segment in place with 1 + 2·(max segment passes) kernels
/// for the whole batch.  Zero-length segments are legal.
/// `launcher.history()` is cleared and then holds every kernel in enqueue
/// order.  Reports are bit-identical for any worker count.
template <typename T>
SegmentedSortReport segmented_sort(gpusim::Launcher& launcher,
                                   std::vector<std::vector<T>>& segments,
                                   const MergeConfig& cfg) {
  SortEngine engine(launcher);
  return engine.segmented_sort(segments, cfg);
}

/// Merges as[i] with bs[i] into outs[i] for every i, in one partition
/// launch + one merge launch.  Lists may have arbitrary (including zero and
/// mutually different) lengths; a one-pair batch is the standalone merge
/// of two sorted arrays.
template <typename T>
BatchedMergeReport batched_merge(gpusim::Launcher& launcher,
                                 const std::vector<std::vector<T>>& as,
                                 const std::vector<std::vector<T>>& bs,
                                 std::vector<std::vector<T>>& outs,
                                 const MergeConfig& cfg) {
  SortEngine engine(launcher);
  return engine.batched_merge(as, bs, outs, cfg);
}

}  // namespace cfmerge::sort
