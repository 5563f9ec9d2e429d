#include "sort/merge_sort.hpp"

#include "sort/batched_merge.hpp"
#include "sort/segmented_sort.hpp"

namespace cfmerge::sort {

namespace {
// Only the pairwise-merge kernel's merge phase: this is what the paper's
// gather replaces and what its nvprof check ("no bank conflicts during
// merging") measured.  The block-sort stage is identical in both variants
// and tracked separately.  Phase sums are computed on the launcher's
// reduced (block-order) counters, so they are independent of the worker
// pool size.
bool is_merge_phase(const std::string& name) { return name == "merge.merge"; }
}  // namespace

std::uint64_t SortReport::merge_conflicts() const {
  std::uint64_t c = 0;
  for (const auto& [name, counters] : phases.phases())
    if (is_merge_phase(name)) c += counters.bank_conflicts;
  return c;
}

std::uint64_t SortReport::merge_shared_accesses() const {
  std::uint64_t c = 0;
  for (const auto& [name, counters] : phases.phases())
    if (is_merge_phase(name)) c += counters.shared_accesses;
  return c;
}

std::uint64_t BatchedMergeReport::merge_conflicts() const {
  std::uint64_t c = 0;
  for (const auto& [name, counters] : phases.phases())
    if (is_merge_phase(name)) c += counters.bank_conflicts;
  return c;
}

std::uint64_t SegmentedSortReport::merge_conflicts() const {
  std::uint64_t c = 0;
  for (const auto& [name, counters] : phases.phases())
    if (is_merge_phase(name)) c += counters.bank_conflicts;
  return c;
}

std::uint64_t SortReport::blocksort_conflicts() const {
  std::uint64_t c = 0;
  for (const auto& [name, counters] : phases.phases())
    if (name == "bsort.merge" || name == "bsort.search" || name == "bsort.thread_sort")
      c += counters.bank_conflicts;
  return c;
}

}  // namespace cfmerge::sort
