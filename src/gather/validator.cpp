#include "gather/validator.hpp"

#include <sstream>

#include "cfprims/check.hpp"

namespace cfmerge::gather {

ValidationResult validate_schedule(const RoundSchedule& sched) {
  const GatherShape& s = sched.shape();
  ValidationResult res;

  // Bank conflicts: one shared scan (cfprims::scan_conflicts walks rounds x
  // warp windows with the simulator's own cost model), so the validator and
  // the generic primitive verifier can never disagree on a recount.
  const cfprims::ConflictScan scan = cfprims::scan_conflicts(
      s.w, s.e, s.u,
      [&](std::int64_t i, std::int64_t j) {
        return sched.read(static_cast<int>(i), static_cast<int>(j)).phys;
      });
  res.total_conflicts = scan.total_conflicts;
  res.max_conflicts = scan.max_conflicts;
  if (scan.found) {
    res.ok = false;
    std::ostringstream os;
    os << "bank conflict (degree " << scan.cycles << ") in round " << scan.round
       << ", warp " << scan.window_base / s.w << " (w=" << s.w << ", E=" << s.e
       << ", u=" << s.u << ", la=" << s.la << ")";
    res.error = os.str();
  }

  // Multiplicity: every raw index of A union pi(B) read exactly once.
  std::vector<int> touched(static_cast<std::size_t>(s.total()), 0);
  for (int j = 0; j < s.e; ++j)
    for (int i = 0; i < s.u; ++i) ++touched[static_cast<std::size_t>(sched.read(i, j).raw)];
  for (std::size_t m = 0; m < touched.size(); ++m) {
    if (touched[m] != 1) {
      res.ok = false;
      std::ostringstream os;
      os << "raw index " << m << " read " << touched[m] << " times (expected exactly once)";
      res.error = os.str();
      break;
    }
  }
  return res;
}

ValidationResult validate_sizes(int w, int e, int u, const std::vector<std::int64_t>& a_sizes) {
  std::vector<std::int64_t> off(a_sizes.size());
  std::int64_t run = 0;
  for (std::size_t i = 0; i < a_sizes.size(); ++i) {
    off[i] = run;
    run += a_sizes[i];
  }
  GatherShape shape{w, e, u, run, static_cast<std::int64_t>(u) * e - run};
  RoundSchedule sched(shape, std::move(off), a_sizes);
  return validate_schedule(sched);
}

}  // namespace cfmerge::gather
