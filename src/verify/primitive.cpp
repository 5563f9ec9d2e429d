#include "verify/primitive.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include "numtheory/numtheory.hpp"
#include "verify/analyzer.hpp"

namespace cfmerge::verify {

namespace {

/// lower:<stream> — the affine IR evaluates to the primitive's concrete
/// address on every (thread, round) of the verification shape.
void check_stream_faithfulness(ProofObject& po, const cfprims::AccessStream& st) {
  ProofStep& step = po.add_step("lower:" + st.name);
  const FlatExpr phys(st.phys);
  std::int64_t checked = 0;
  for (std::int64_t i = 0; i < st.domain; ++i) {
    for (int j = 0; j < st.rounds; ++j) {
      Env env;
      env.set(kSymThread, i);
      env.set(kSymRound, j);
      const std::int64_t want = st.concrete(i, j);
      const std::int64_t got = phys.eval(env);
      if (got != want) {
        std::ostringstream os;
        os << "IR " << st.phys.str() << " = " << got << " but the kernel computes "
           << want << " at i=" << i << " j=" << j;
        fail(step, os.str());
        return;
      }
      ++checked;
    }
  }
  step.detail = std::to_string(checked) + " (thread, round) pairs match the IR";
}

/// residue:<stream> — raw ≡ j (mod m) derived symbolically for all
/// parameter values at once (the paper's residue invariant).
void check_stream_residue(ProofObject& po, const cfprims::AccessStream& st,
                          const SymbolFacts& facts) {
  ProofStep& step = po.add_step("residue:" + st.name);
  const auto residue = residue_mod(st.raw, st.residue_modulus, facts);
  const LinearResidue want{0, {{kSymRound, 1}}};
  if (!residue.has_value()) {
    fail(step, "raw index " + st.raw.str() + " escapes congruence rewriting");
    return;
  }
  if (!(*residue == want)) {
    fail(step, "raw ≡ " + residue->str(st.residue_modulus) + " (mod " +
                   std::to_string(st.residue_modulus) + "), expected ≡ j");
    return;
  }
  step.detail = "raw ≡ j (mod " + std::to_string(st.residue_modulus) +
                ") derived symbolically";
}

}  // namespace

void check_stream_periodicity(ProofObject& po, const cfprims::AccessStream& st,
                              int w) {
  ProofStep& step = po.add_step("periodicity:" + st.name);
  const std::int64_t period = st.bank_period > 0 ? st.bank_period : w;
  if (st.domain <= period) {
    step.status = StepStatus::kSkipped;
    step.detail = "domain " + std::to_string(st.domain) +
                  " covers a single period of " + std::to_string(period);
    return;
  }
  for (std::int64_t i = 0; i + period < st.domain; ++i) {
    for (int j = 0; j < st.rounds; ++j) {
      const std::int64_t b1 = numtheory::mod(st.concrete(i, j), w);
      const std::int64_t b2 = numtheory::mod(st.concrete(i + period, j), w);
      if (b1 != b2) {
        std::ostringstream os;
        os << "bank(phys(" << i << " + " << period << ", " << j << ")) = " << b2
           << " != " << b1;
        fail(step, os.str());
        return;
      }
    }
  }
  step.detail = "bank(phys) has period " + std::to_string(period) +
                " in the thread index";
}

Counterexample bank_witness(const cfprims::ConflictScan& scan, int w, int e, int u) {
  Counterexample cx;
  cx.w = w;
  cx.e = e;
  cx.u = u;
  cx.round = scan.round;
  cx.lane1 = static_cast<int>(scan.window_base) + scan.lane1;
  cx.lane2 = static_cast<int>(scan.window_base) + scan.lane2;
  cx.addr1 = scan.addr1;
  cx.addr2 = scan.addr2;
  cx.bank = scan.bank;
  return cx;
}

void check_stream_banks(ProofObject& po, const cfprims::AccessStream& st, int w,
                        int e, int u) {
  ProofStep& step = po.add_step("banks:" + st.name);
  const cfprims::ConflictScan scan =
      cfprims::scan_conflicts(w, st.rounds, st.domain, st.concrete);
  if (scan.total_conflicts == 0) {
    std::ostringstream os;
    os << scan.windows << " warp windows conflict-free ("
       << (st.is_write ? "write" : "read") << " stream)";
    step.detail = os.str();
    return;
  }
  std::ostringstream os;
  os << scan.total_conflicts << " replays over " << scan.windows
     << " windows; first in round " << scan.round << " at window base "
     << scan.window_base;
  fail(step, os.str());
  if (po.verdict != Verdict::kCounterexample) {
    po.verdict = Verdict::kCounterexample;
    po.counterexample = bank_witness(scan, w, e, u);
  }
}

ProofObject verify_primitive(const cfprims::CFPrimitive& prim, int w, int e) {
  if (!prim.supports(w, e))
    throw std::invalid_argument("verify_primitive: " + std::string(prim.name()) +
                                " does not support (w=" + std::to_string(w) +
                                ", E=" + std::to_string(e) + ")");
  validate_width("verify_primitive", w);

  // Verification shape: two warps of threads (u = 2w), i.e. a tile of two
  // full rho periods — small enough for the exhaustive walks, and the
  // periodicity step extends the verdict to every block size.
  const cfprims::PrimShape shape{w, e, 2 * w, 0};
  const cfprims::PrimitiveLowering lo = prim.lower(shape);

  if (lo.delegate_cf_gather) {
    ProofObject po = verify_cf_gather(w, e, lo.gather_variant);
    po.family = std::string(prim.name());
    return po;
  }

  ProofObject po;
  po.schedule = std::string(prim.name());
  po.family = po.schedule;
  po.w = w;
  po.e = e;
  po.d = numtheory::gcd(w, e);
  po.scope = "one block of u = 2w threads, every stream slot and round checked "
             "exhaustively; bank-periodicity extends to all u ≡ 0 (mod w)";

  for (const cfprims::AccessStream& st : lo.streams) {
    check_stream_faithfulness(po, st);
    if (st.residue_modulus > 0) check_stream_residue(po, st, lo.facts);
    check_stream_periodicity(po, st, w);
    check_stream_banks(po, st, w, e, shape.u);
  }

  po.settle_verdict();
  return po;
}

}  // namespace cfmerge::verify
