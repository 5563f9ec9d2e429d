#include "verify/proof.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "gpusim/shared_memory.hpp"

namespace cfmerge::verify {

std::string Counterexample::str() const {
  std::ostringstream os;
  if (kind == "out-of-bounds") {
    os << "w=" << w << " E=" << e << " u=" << u << " epoch=" << epoch
       << " round=" << round << ": lane " << lane1 << " touches shared position "
       << addr1 << " outside [0, " << addr2 << ")";
    return os.str();
  }
  if (kind == "uninitialized-read") {
    os << "w=" << w << " E=" << e << " u=" << u << " epoch=" << epoch
       << " round=" << round << ": lane " << lane1 << " reads shared position "
       << addr1 << " with no covering write in any earlier epoch";
    return os.str();
  }
  if (kind == "write-write-race") {
    os << "w=" << w << " E=" << e << " u=" << u << " epoch=" << epoch
       << " round=" << round << ": lanes " << lane1 << " and " << lane2
       << " both write shared position " << addr1 << " within one epoch";
    return os.str();
  }
  os << "w=" << w << " E=" << e << " u=" << u << " la=" << la << " round=" << round
     << ": lanes " << lane1 << " and " << lane2 << " read shared positions " << addr1
     << " and " << addr2 << " — both in bank " << bank;
  return os.str();
}

void fail(ProofStep& step, std::string detail) {
  step.status = StepStatus::kFailed;
  step.detail = std::move(detail);
}

void cite(ProofStep& step, bool held, std::string_view cert, int w, int e,
          std::string_view argument) {
  std::ostringstream os;
  os << " " << cert << " certificate at (w=" << w << ", E=" << e << ")";
  if (!held) {
    fail(step, "no" + os.str());
    return;
  }
  os << argument;
  step.detail = "cites the memoized" + os.str();
}

void validate_width(std::string_view entry, int w) {
  if (w > gpusim::kMaxLanes)
    throw std::invalid_argument(std::string(entry) + ": w must be <= " +
                                std::to_string(gpusim::kMaxLanes));
}

void validate_family(std::string_view entry, int w, int e) {
  if (w <= 0 || e <= 1 || e > w)
    throw std::invalid_argument(std::string(entry) +
                                ": need w > 0 and 1 < E <= w");
  validate_width(entry, w);
}

Split make_split(std::vector<std::int64_t> a_size) {
  Split sp;
  sp.a_size = std::move(a_size);
  sp.a_off.resize(sp.a_size.size());
  for (std::size_t i = 0; i < sp.a_size.size(); ++i) {
    sp.a_off[i] = sp.la;
    sp.la += sp.a_size[i];
  }
  return sp;
}

std::vector<Split> sample_splits(int u, int e, int random_trials, std::uint64_t seed) {
  const auto un = static_cast<std::size_t>(u);
  std::vector<std::vector<std::int64_t>> sizes(6, std::vector<std::int64_t>(un));
  for (std::size_t i = 0; i < un; ++i) {
    sizes[0][i] = e;                                       // all-A
    sizes[1][i] = 0;                                       // all-B
    sizes[2][i] = i % 2 == 0 ? e : 0;                      // alternating
    sizes[3][i] = static_cast<std::int64_t>(i) % (e + 1);  // ramp
    sizes[4][i] = i == 0 ? e / 2 : e;                      // one partial thread
    sizes[5][i] = e / 2;                                   // uniform half
  }
  Lcg rng(seed);
  for (int t = 0; t < random_trials; ++t) {
    std::vector<std::int64_t> v(un);
    for (auto& x : v) x = rng.below_eq(e);
    sizes.push_back(std::move(v));
  }
  std::vector<Split> out;
  for (auto& v : sizes) out.push_back(make_split(std::move(v)));
  return out;
}

ProofStep& ProofObject::add_step(std::string name) {
  steps.push_back(ProofStep{std::move(name), StepStatus::kPassed, {}});
  return steps.back();
}

bool ProofObject::any_step_failed() const {
  return std::any_of(steps.begin(), steps.end(), [](const ProofStep& st) {
    return st.status == StepStatus::kFailed;
  });
}

void ProofObject::settle_verdict(std::optional<Counterexample> witness) {
  if (!any_step_failed()) {
    verdict = Verdict::kProved;
  } else if (verdict != Verdict::kCounterexample) {
    verdict = witness ? Verdict::kCounterexample : Verdict::kRefutedNoWitness;
    if (witness) counterexample = *std::move(witness);
  }
}

void ProofObject::settle_safety_verdict() {
  settle_verdict();
  if (verdict == Verdict::kCounterexample && counterexample.kind.empty())
    verdict = Verdict::kRefutedNoWitness;
}

}  // namespace cfmerge::verify
