// Access-pattern IR of the static bank-conflict verifier (Pass 1).
//
// Every shared-memory index expression in the kernels is built from a small
// arithmetic grammar over per-lane parameters (thread id, round, merge-path
// offsets):
//
//   e ::= const c | sym s | e + e | e * c | e mod c | e div c
//       | (e < e ? e : e)                                   (piecewise guard)
//
// AffineExpr mirrors exactly that grammar.  The verifier lowers each kernel's
// access pattern into this IR (src/verify/lower.*) and then reasons about it
// two ways:
//
//  * concretely — FlatExpr::eval under an Env, used to cross-check the lowering
//    against the real RoundSchedule/kernel indexing and to materialize
//    counterexample addresses;
//  * symbolically — residue_mod() rewrites an expression into a linear
//    congruence  e ≡ c0 + Σ coeff_s · s (mod m)  using the standard rules
//    ((x mod km) mod m = x mod m, coefficients reduce mod m, a symbol known
//    to be a multiple of k drops when m | coeff·k).  This is how the
//    analyzer proves the paper's residue invariants (raw ≡ j mod E) for all
//    parameter values at once instead of per test case.
//
// LinearForm is the exact (modulus-free) companion used for interval
// endpoint algebra in the warp-coverage lemma.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cfmerge::verify {

/// Symbol identifier.  The lowerings use a fixed, documented set (see
/// lower.hpp); ids only need to be unique within one expression family.
using SymId = int;

/// Concrete values for the symbols of an expression: one flat slot per id
/// in [0, kSlots) (the lowering symbols), so evaluation never allocates.
class Env {
 public:
  static constexpr SymId kSlots = 8;
  void set(SymId s, std::int64_t v);
  [[nodiscard]] std::int64_t get(SymId s) const;

 private:
  std::array<std::int64_t, kSlots> values_{};
  unsigned bound_ = 0;  ///< bit s set iff slot s holds a value
};

/// e ≡ c0 + Σ coeffs[s] · s (mod m): the result of congruence rewriting.
/// An empty coeffs map means the residue is the constant c0 regardless of
/// any symbol value.
struct LinearResidue {
  std::int64_t c0 = 0;
  std::map<SymId, std::int64_t> coeffs;  // values in [1, m)

  [[nodiscard]] bool constant() const { return coeffs.empty(); }
  bool operator==(const LinearResidue&) const = default;
  [[nodiscard]] std::string str(std::int64_t m) const;
};

/// Facts handed to residue_mod: multiple_of[s] = k declares that symbol s is
/// known to be a (non-negative) multiple of k.  Used to cancel terms like
/// u·E (mod wE) once u ≡ 0 (mod w) is declared.
using SymbolFacts = std::map<SymId, std::int64_t>;

struct SymInterval;  // defined below (needs LinearForm)
using SymRanges = std::map<SymId, SymInterval>;

/// Immutable expression tree.  Cheap to copy (shared nodes).
class AffineExpr {
 public:
  AffineExpr() = default;

  static AffineExpr constant(std::int64_t c);
  static AffineExpr sym(SymId id, std::string name);

  [[nodiscard]] AffineExpr operator+(const AffineExpr& o) const;
  [[nodiscard]] AffineExpr operator-(const AffineExpr& o) const;
  [[nodiscard]] AffineExpr times(std::int64_t c) const;
  /// Mathematical (non-negative) remainder; m > 0.
  [[nodiscard]] AffineExpr mod(std::int64_t m) const;
  /// Floor division; m > 0.
  [[nodiscard]] AffineExpr div(std::int64_t m) const;
  /// lhs < rhs ? then_e : else_e  — the piecewise guard of the grammar.
  static AffineExpr select(const AffineExpr& lhs, const AffineExpr& rhs,
                           const AffineExpr& then_e, const AffineExpr& else_e);

  /// Human-readable rendering, used in proof objects and counterexamples.
  [[nodiscard]] std::string str() const;

  [[nodiscard]] bool valid() const { return node_ != nullptr; }

  struct Node;  // exposed for the implementation only

 private:
  explicit AffineExpr(std::shared_ptr<const Node> n) : node_(std::move(n)) {}
  std::shared_ptr<const Node> node_;

  friend class FlatExpr;
  friend std::optional<LinearResidue> residue_mod(const AffineExpr&, std::int64_t,
                                                  const SymbolFacts&);
  friend std::optional<SymInterval> interval_hull(const AffineExpr&, const SymRanges&);
};

/// An AffineExpr flattened for repeated concrete evaluation: each distinct
/// node of the expression DAG once, operands first, so a subexpression the
/// lowering shares (rho reads its argument five times) is computed once per
/// call.  Every operation is total, so both arms of a select are computed.
/// Evaluation reuses one scratch buffer: keep one FlatExpr per thread.
class FlatExpr {
 public:
  explicit FlatExpr(const AffineExpr& e);

  /// Concrete evaluation; throws std::invalid_argument on an unbound symbol.
  [[nodiscard]] std::int64_t eval(const Env& env) const;

  /// Which branch the root select takes under env: true = then-branch (and
  /// for a non-select expression).  Used by the lowering cross-checks.
  [[nodiscard]] bool select_takes_then(const Env& env) const;

 private:
  struct Step {
    const AffineExpr::Node* node;
    int a, b, t, f;  ///< operand slots, -1 when absent
  };
  void run(const Env& env) const;

  AffineExpr expr_;  ///< keeps the nodes alive
  std::vector<Step> steps_;
  mutable std::vector<std::int64_t> values_;
};

/// Congruence rewriting: derives e ≡ c0 + Σ coeff·sym (mod m), or nullopt
/// when the expression escapes the rewrite rules (an irreducible div, or a
/// select whose branches disagree mod m — branches that agree are merged,
/// which is exactly how "raw ≡ j (mod E) on *both* gather branches" becomes
/// a single derivable fact).
[[nodiscard]] std::optional<LinearResidue> residue_mod(const AffineExpr& e,
                                                       std::int64_t m,
                                                       const SymbolFacts& facts = {});

/// Exact symbolic linear form c0 + Σ coeffs[s]·s over the integers — no
/// modulus, no mod/div nodes.  Used for interval-endpoint derivations where
/// the equality must be exact, not congruent.
struct LinearForm {
  std::int64_t c0 = 0;
  std::map<SymId, std::int64_t> coeffs;

  static LinearForm constant(std::int64_t c) { return {c, {}}; }
  static LinearForm sym(SymId s) { return {0, {{s, 1}}}; }
  [[nodiscard]] LinearForm operator+(const LinearForm& o) const;
  [[nodiscard]] LinearForm operator-(const LinearForm& o) const;
  [[nodiscard]] LinearForm times(std::int64_t c) const;
  bool operator==(const LinearForm&) const = default;

  /// The form reduced mod m under the given multiple-of facts; nullopt when
  /// a symbol's contribution cannot be reduced to a constant.
  [[nodiscard]] std::optional<std::int64_t> residue(std::int64_t m,
                                                    const SymbolFacts& facts) const;
  [[nodiscard]] std::string str() const;
};

/// Inclusive symbolic interval [lo, hi] with LinearForm endpoints — the
/// value type of the Pass 3 bounds derivations (verify/safety).
struct SymInterval {
  LinearForm lo;
  LinearForm hi;
};

// SymRanges (declared above): per-symbol inclusive ranges handed to
// interval_hull.  Every symbol is assumed non-negative; endpoint forms may
// reference *other* symbols (e.g. the thread id i ranges over [0, w·M − 1]
// with M the free block-size multiplier), which is what makes whole-family
// bounds proofs possible.

/// True when f ≤ g under every non-negative assignment of the symbols:
/// (g − f) has a non-negative constant and non-negative coefficients.
[[nodiscard]] bool definitely_le(const LinearForm& f, const LinearForm& g);

/// Sound symbolic interval hull of `e` under the given symbol ranges, or
/// nullopt when the expression escapes the exact rules.  The propagation is
/// exact for const/sym/+/×c; `mod m` collapses to [0, m−1] unless the inner
/// interval provably sits inside the first window; `div m` requires every
/// endpoint coefficient to be divisible by m (floor distributes exactly);
/// selects are guard-refined when a branch is the guard's left-hand side
/// plus a constant (the ρ / ρ⁻¹ shape), then hulled with provable min/max.
[[nodiscard]] std::optional<SymInterval> interval_hull(const AffineExpr& e,
                                                       const SymRanges& ranges);

}  // namespace cfmerge::verify
