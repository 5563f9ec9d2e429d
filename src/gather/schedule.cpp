#include "gather/schedule.hpp"

#include <stdexcept>

namespace cfmerge::gather {

using numtheory::mod;

void GatherShape::validate() const {
  if (w <= 0) throw std::invalid_argument("GatherShape: w must be positive");
  if (e <= 0) throw std::invalid_argument("GatherShape: E must be positive");
  if (u <= 0 || u % w != 0)
    throw std::invalid_argument("GatherShape: u must be a positive multiple of w");
  if (la < 0 || lb < 0) throw std::invalid_argument("GatherShape: negative list size");
  if (la + lb != static_cast<std::int64_t>(u) * e)
    throw std::invalid_argument("GatherShape: la + lb must equal u*E");
}

RoundSchedule::RoundSchedule(const GatherShape& shape, std::vector<std::int64_t> a_off,
                             std::vector<std::int64_t> a_size)
    : RoundSchedule(shape, PairLayout::cf(shape.la, shape.lb, shape.w, shape.e),
                    std::move(a_off), std::move(a_size)) {}

RoundSchedule::RoundSchedule(const GatherShape& shape, const PairLayout& layout,
                             std::vector<std::int64_t> a_off, std::vector<std::int64_t> a_size)
    : shape_(shape), layout_(layout), a_off_(std::move(a_off)), a_size_(std::move(a_size)) {
  shape_.validate();
  if (layout_.la() != shape_.la || layout_.lb() != shape_.lb)
    throw std::invalid_argument("RoundSchedule: layout does not hold the pair's lists");
  if (a_off_.size() != static_cast<std::size_t>(shape_.u) || a_size_.size() != a_off_.size())
    throw std::invalid_argument("RoundSchedule: split arrays must have u entries");
  std::int64_t running = 0;
  for (int i = 0; i < shape_.u; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (a_size_[idx] < 0 || a_size_[idx] > shape_.e)
      throw std::invalid_argument("RoundSchedule: |A_i| out of [0, E]");
    if (a_off_[idx] != running)
      throw std::invalid_argument("RoundSchedule: a_i must be the prefix sum of |A_i|");
    running += a_size_[idx];
  }
  if (running != shape_.la)
    throw std::invalid_argument("RoundSchedule: splits do not cover the A list");
}

int RoundSchedule::register_slot_of_a(int i, std::int64_t x) const {
  return static_cast<int>(mod(a_off_[static_cast<std::size_t>(i)] + x, shape_.e));
}

int RoundSchedule::register_slot_of_b(int i, std::int64_t y) const {
  return static_cast<int>(mod(a_off_[static_cast<std::size_t>(i)] - 1 - y, shape_.e));
}

}  // namespace cfmerge::gather
