// Tests of the Pass 3 static memory-safety analyzer (verify/safety): every
// registered primitive and composite schedule proves bounds /
// init-before-read / race-freedom across the acceptance grid, the two
// safety-broken ablations are refuted with typed lane/epoch witnesses, and
// the safety certificates thread into verify::certify for the executors'
// certified-skip audit path.
#include "verify/safety.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfprims/primitive.hpp"
#include "verify/certificate.hpp"
#include "verify/proof.hpp"

using namespace cfmerge;
using namespace cfmerge::verify;

namespace {

/// First failed step name, or "" when the proof went through.
std::string failed_step(const ProofObject& po) {
  for (const ProofStep& s : po.steps)
    if (s.status == StepStatus::kFailed) return s.name;
  return {};
}

}  // namespace

TEST(Safety, EveryRegisteredPrimitiveProvesAcrossTheGrid) {
  // The acceptance grid: w in {4..64}, E <= w (ISSUE), restricted to each
  // primitive's own supports() envelope.
  for (const cfprims::CFPrimitive* prim : cfprims::registry()) {
    for (const int w : {4, 8, 16, 32, 64}) {
      for (const int e : {2, 3, 4, 7, 8, 15, 16, 32, 64}) {
        if (e > w || !prim->supports(w, e)) continue;
        const ProofObject po = verify_primitive_safety(*prim, w, e);
        EXPECT_TRUE(po.proved())
            << prim->name() << " w=" << w << " E=" << e << " failed at step '"
            << failed_step(po) << "': " << po.counterexample.str();
      }
    }
  }
}

TEST(Safety, BoundsAreSymbolicInTheBlockSize) {
  // The flagship property: for the uniform streams the bounds step closes
  // over ALL u = w*M via interval algebra, not an enumeration.  The proof
  // records that scope in its step details.
  const ProofObject po = verify_primitive_safety("cf_permute", 32, 8);
  ASSERT_TRUE(po.proved());
  bool symbolic = false;
  for (const ProofStep& s : po.steps)
    if (s.name.rfind("bounds:", 0) == 0 &&
        s.detail.find("for all u = w*M") != std::string::npos)
      symbolic = true;
  EXPECT_TRUE(symbolic)
      << "no bounds step certified the whole u = w*M family symbolically";
}

TEST(Safety, OffByWEScatterRefutedOutOfBounds) {
  const ProofObject po = verify_primitive_safety("cf_rank_scatter_off_by_we", 8, 4);
  ASSERT_EQ(po.verdict, Verdict::kCounterexample);
  const Counterexample& cx = po.counterexample;
  EXPECT_EQ(cx.kind, "out-of-bounds");
  EXPECT_EQ(cx.w, 8);
  EXPECT_EQ(cx.e, 4);
  // addr2 carries the tile extent; the witness address must sit past it.
  EXPECT_GE(cx.addr1, cx.addr2);
  EXPECT_EQ(cx.addr2, static_cast<std::int64_t>(cx.u) * cx.e);
}

TEST(Safety, ReadBeforeScatterRefutedUninitialized) {
  const ProofObject po =
      verify_primitive_safety("cf_permute_read_before_scatter", 8, 4);
  ASSERT_EQ(po.verdict, Verdict::kCounterexample);
  const Counterexample& cx = po.counterexample;
  EXPECT_EQ(cx.kind, "uninitialized-read");
  // The read happens in the epoch BEFORE the scatter has filled the tile.
  EXPECT_EQ(cx.epoch, 0);
  EXPECT_GE(cx.addr1, 0);
  EXPECT_LT(cx.addr1, static_cast<std::int64_t>(cx.u) * cx.e);
}

TEST(Safety, AblationsRefuteAcrossTheGrid) {
  for (const cfprims::CFPrimitive* prim : cfprims::safety_ablations()) {
    for (const int w : {4, 8, 16, 32}) {
      for (const int e : {2, 4, 8}) {
        if (e > w || !prim->supports(w, e)) continue;
        const ProofObject po = verify_primitive_safety(*prim, w, e);
        EXPECT_EQ(po.verdict, Verdict::kCounterexample)
            << prim->name() << " w=" << w << " E=" << e
            << " must be refuted with a concrete witness";
        EXPECT_FALSE(po.counterexample.kind.empty());
      }
    }
  }
}

TEST(Safety, CompositeSchedulesProve) {
  for (const CompositeKernel& kernel : composite_kernels()) {
    const std::vector<int> ks =
        kernel.per_arity ? std::vector<int>{2, 4, 8} : std::vector<int>{0};
    for (const int w : {8, 16, 32})
      for (const int e : {3, 4, 8})
        for (const int k : ks) {
          const ProofObject po = verify_composite_safety(kernel, w, e, k);
          EXPECT_TRUE(po.proved()) << kernel.name << " w=" << w << " E=" << e
                                   << " k=" << k << " step '" << failed_step(po)
                                   << "'";
        }
  }
}

TEST(Safety, CompositeProofsCiteComponentCertificates) {
  // A composite derivation is structured: it must cite the primitive
  // families it is built from, each through its memoized safety
  // certificate, so a future primitive refutation breaks the composite
  // proof too.  The merge pass's store is the registered cf_rank_scatter.
  const std::map<std::string, std::set<std::string>> want = {
      {"merge", {"cf_stage", "cf_gather", "cf_rank_scatter"}},
      {"blocksort", {"cf_stage", "cf_gather"}},
      {"multiway", {"cf_stage", "cf_gather", "cf_rank_scatter"}},
  };
  const std::string tag = "-component:";
  std::set<std::string> covered;
  for (const CompositeKernel& kernel : composite_kernels()) {
    const std::string name(kernel.name);
    ASSERT_TRUE(want.count(name)) << "no expectation for composite " << name;
    covered.insert(name);
    const ProofObject po =
        verify_composite_safety(kernel, 16, 4, kernel.per_arity ? 4 : 0);
    ASSERT_TRUE(po.proved()) << name << " step '" << failed_step(po) << "'";
    std::set<std::string> cited;
    for (const ProofStep& s : po.steps) {
      const std::size_t mark = s.name.find(tag);
      if (mark == std::string::npos) continue;
      const std::string prim = s.name.substr(mark + tag.size());
      cited.insert(prim);
      EXPECT_NE(s.detail.find("memoized " + prim + " safety certificate"),
                std::string::npos)
          << name << " step " << s.name << ": " << s.detail;
    }
    EXPECT_EQ(cited, want.at(name)) << name;
  }
  EXPECT_EQ(covered.size(), want.size()) << "a composite kernel is missing";
}

TEST(Safety, CompositeWithoutComponentCertificateIsRefuted) {
  // E > w is outside every component's domain: no certificate to cite, so
  // each component step fails and the proof is refuted without a witness.
  const CompositeKernel& merge = composite_kernels().front();
  ASSERT_EQ(merge.name, "merge");
  const ProofObject po = verify_composite_safety(merge, 8, 9);
  EXPECT_EQ(po.verdict, Verdict::kRefutedNoWitness);
  EXPECT_EQ(failed_step(po), "fill-component:cf_stage");
  EXPECT_THROW((void)verify_composite_safety(merge, 8, 4, 2), std::invalid_argument);
  EXPECT_THROW((void)verify_composite_safety(composite_kernels().back(), 8, 4),
               std::invalid_argument);
}

TEST(Safety, UnknownPrimitiveThrows) {
  EXPECT_THROW((void)verify_primitive_safety("no_such_primitive", 8, 4),
               std::invalid_argument);
}

TEST(Safety, CertificatesMintForProvedFamiliesOnly) {
  // Proved primitive -> a safety certificate, memoized across calls.
  const SafetyCertificate* a = certify_safety("cf_permute", 16, 4);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->primitive, "cf_permute");
  EXPECT_EQ(a->w, 16);
  EXPECT_EQ(a->e, 4);
  EXPECT_EQ(certify_safety("cf_permute", 16, 4), a) << "memo must return the "
                                                       "same certificate";
  // Refuted ablations and unknown names never mint.
  EXPECT_EQ(certify_safety("cf_rank_scatter_off_by_we", 16, 4), nullptr);
  EXPECT_EQ(certify_safety("no_such_primitive", 16, 4), nullptr);
}
