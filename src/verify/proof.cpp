#include "verify/proof.hpp"

#include <sstream>

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

ProofStep& ProofObject::add_step(std::string name) {
  steps.push_back(ProofStep{std::move(name), StepStatus::kPassed, {}});
  return steps.back();
}

void ProofObject::settle_safety_verdict() {
  if (verdict != Verdict::kProved && counterexample.kind.empty())
    verdict = Verdict::kRefutedNoWitness;
}

}  // namespace cfmerge::verify
