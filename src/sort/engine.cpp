#include "sort/engine.hpp"

#include "verify/certificate.hpp"

namespace cfmerge::sort {

std::uint64_t ScratchArena::pooled_bytes() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.measure(s.storage.get());
  return total;
}

void ScratchArena::clear() {
  std::erase_if(slots_, [](const Slot& s) { return !s.in_use; });
}

void ScratchArena::release(std::size_t slot) { slots_[slot].in_use = false; }

EngineStats SortEngine::stats() const {
  EngineStats s = stats_;
  s.plans_cached = free_plans_.size();
  for (const CachedPlan& c : free_plans_) s.plan_bytes += c.bytes;
  s.arena_bytes = arena_.pooled_bytes();
  s.arena_allocs = arena_.allocs();
  s.arena_reuses = arena_.reuses();
  s.bulk_charges = launcher_->bulk_charges();
  s.lane_charges = launcher_->lane_charges();
  s.audit_skipped_accesses = launcher_->audit_skipped_accesses();
  const verify::CertificateStats cs = verify::certificate_stats();
  s.cert_hits = cs.hits;
  s.cert_misses = cs.misses;
  s.certs_cached = cs.cached;
  if (store_ != nullptr) {
    const cache::StoreStats ds = store_->stats();
    s.disk_hits = ds.hits;
    s.disk_misses = ds.misses;
    s.disk_writes = ds.writes;
    s.disk_evictions = ds.evictions;
    s.disk_corrupt = ds.corrupt;
    s.disk_entries = ds.entries;
    s.disk_bytes = ds.bytes;
  }
  return s;
}

void SortEngine::clear_plans() { free_plans_.clear(); }

void SortEngine::set_plan_cache_enabled(bool enabled) {
  cache_enabled_ = enabled;
  if (!enabled) free_plans_.clear();
}

void SortEngine::set_plan_capacity(std::size_t capacity) {
  capacity_ = capacity;
  evict_to_capacity(capacity_);
}

std::shared_ptr<void> SortEngine::take_idle(const PlanKey& key) {
  if (cache_enabled_) {
    for (std::size_t i = 0; i < free_plans_.size(); ++i) {
      if (free_plans_[i].key == key) {
        std::shared_ptr<void> plan = std::move(free_plans_[i].plan);
        free_plans_.erase(free_plans_.begin() + static_cast<std::ptrdiff_t>(i));
        ++stats_.plan_hits;
        return plan;
      }
    }
  }
  ++stats_.plan_misses;
  return nullptr;
}

void SortEngine::persist(const PlanKey& key, int passes) {
  // Warm-start: an attached store answers "has any process planned this
  // exact request on this exact device before?".  The kernel graph itself
  // cannot live on disk (its bodies capture live buffers), so a disk hit
  // warms the metadata and the counters, not the build; the expensive
  // persisted payload is the autotuner's (analysis/autotune.cpp), which
  // shares this store.
  if (store_ == nullptr) return;
  const std::vector<std::byte> skey = detail::plan_store_key(launcher_->device().digest(), key);
  if (store_->lookup(skey).has_value()) return;
  cache::ByteWriter meta;
  meta.u8(1);         // metadata record version
  meta.i64(passes);   // 0 for the kinds without merge passes
  meta.i64(key.n_padded);
  store_->insert(skey, meta.data());
}

void SortEngine::release_plan(const PlanKey& key, std::shared_ptr<void> plan,
                              std::uint64_t bytes) {
  if (!cache_enabled_ || capacity_ == 0) return;  // plan is dropped here
  free_plans_.push_back({key, std::move(plan), bytes, ++clock_});
  evict_to_capacity(capacity_);
}

void SortEngine::evict_to_capacity(std::size_t capacity) {
  while (free_plans_.size() > capacity) {
    std::size_t lru = 0;
    for (std::size_t i = 1; i < free_plans_.size(); ++i)
      if (free_plans_[i].released_at < free_plans_[lru].released_at) lru = i;
    free_plans_.erase(free_plans_.begin() + static_cast<std::ptrdiff_t>(lru));
    ++stats_.plan_evictions;
  }
}

}  // namespace cfmerge::sort
