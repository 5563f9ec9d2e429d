#include "gather/multiway_schedule.hpp"

#include <stdexcept>

namespace cfmerge::gather {

CascadePlan::CascadePlan(int w, int e, std::span<const std::int64_t> seg_lens)
    : w_(w), e_(e), k_(static_cast<int>(seg_lens.size())) {
  if (w <= 0 || e <= 0) throw std::invalid_argument("CascadePlan: w and E must be positive");
  if (k_ < 2 || (k_ & (k_ - 1)) != 0)
    throw std::invalid_argument("CascadePlan: k must be a power of two >= 2");
  levels_ = 0;
  for (int v = k_; v > 1; v /= 2) ++levels_;

  const std::int64_t we = static_cast<std::int64_t>(w) * e;
  runs_.resize(static_cast<std::size_t>(levels_) + 1);
  pairs_.resize(static_cast<std::size_t>(levels_));

  auto& leaves = runs_[0];
  leaves.resize(static_cast<std::size_t>(k_));
  for (int s = 0; s < k_; ++s) {
    const std::int64_t n = seg_lens[static_cast<std::size_t>(s)];
    if (n < 0) throw std::invalid_argument("CascadePlan: negative segment length");
    leaves[static_cast<std::size_t>(s)] = {n, n};
    total_len_ += n;
  }

  for (int l = 0; l < levels_; ++l) {
    const auto& in = runs_[static_cast<std::size_t>(l)];
    auto& out = runs_[static_cast<std::size_t>(l) + 1];
    auto& prs = pairs_[static_cast<std::size_t>(l)];
    const int np = static_cast<int>(in.size()) / 2;
    out.resize(static_cast<std::size_t>(np));
    prs.reserve(static_cast<std::size_t>(np));
    std::int64_t base = 0;
    for (int p = 0; p < np; ++p) {
      const CascadeRun& left = in[static_cast<std::size_t>(2 * p)];
      const CascadeRun& right = in[static_cast<std::size_t>(2 * p + 1)];
      const std::int64_t real = left.len + right.len;
      std::int64_t la, lb;
      if (l == 0) {
        // Sentinels enter here: pad the pair to the next wE multiple, all of
        // it accounted to the B side (sentinels are the largest B suffix).
        const std::int64_t padded = real == 0 ? 0 : (real + we - 1) / we * we;
        la = left.len;
        lb = padded - la;
      } else {
        // Children are already padded; no new sentinels.
        la = left.pad_len;
        lb = right.pad_len;
      }
      prs.push_back({base, PairLayout::cf(la, lb, w, e)});
      out[static_cast<std::size_t>(p)] = {real, la + lb};
      base += la + lb;
    }
  }
  padded_len_ = runs_[static_cast<std::size_t>(levels_)][0].pad_len;
}

}  // namespace cfmerge::gather
