#include "verify/affine.hpp"

#include <sstream>
#include <stdexcept>

#include "numtheory/numtheory.hpp"

namespace cfmerge::verify {

using numtheory::mod;

void Env::set(SymId s, std::int64_t v) {
  if (s < 0 || s >= kSlots)
    throw std::invalid_argument("verify::Env: symbol id out of range " + std::to_string(s));
  values_[static_cast<std::size_t>(s)] = v;
  bound_ |= 1U << s;
}

std::int64_t Env::get(SymId s) const {
  if (s < 0 || s >= kSlots || ((bound_ >> s) & 1U) == 0)
    throw std::invalid_argument("verify::Env: unbound symbol id " + std::to_string(s));
  return values_[static_cast<std::size_t>(s)];
}

struct AffineExpr::Node {
  enum class Op { kConst, kSym, kAdd, kMulC, kModC, kDivC, kSelect };
  Op op;
  std::int64_t c = 0;     // kConst value; kMulC/kModC/kDivC constant
  SymId sym = -1;         // kSym
  std::string name;       // kSym display name
  std::shared_ptr<const Node> a, b, t, f;  // operands (select: a<b ? t : f)
};

namespace {

using Node = AffineExpr::Node;
using Op = Node::Op;

std::shared_ptr<const Node> make(Node n) {
  return std::make_shared<const Node>(std::move(n));
}

void str_node(const Node& n, std::ostream& os) {
  switch (n.op) {
    case Op::kConst: os << n.c; return;
    case Op::kSym: os << n.name; return;
    case Op::kAdd:
      os << '(';
      str_node(*n.a, os);
      os << " + ";
      str_node(*n.b, os);
      os << ')';
      return;
    case Op::kMulC:
      str_node(*n.a, os);
      os << '*' << n.c;
      return;
    case Op::kModC:
      os << '(';
      str_node(*n.a, os);
      os << " mod " << n.c << ')';
      return;
    case Op::kDivC:
      os << '(';
      str_node(*n.a, os);
      os << " div " << n.c << ')';
      return;
    case Op::kSelect:
      os << '[';
      str_node(*n.a, os);
      os << " < ";
      str_node(*n.b, os);
      os << " ? ";
      str_node(*n.t, os);
      os << " : ";
      str_node(*n.f, os);
      os << ']';
      return;
  }
}

std::optional<LinearResidue> residue_node(const Node& n, std::int64_t m,
                                          const SymbolFacts& facts);

/// Reduce a residue's coefficients mod m, dropping symbols whose multiple-of
/// fact makes their whole contribution vanish (s = k·t ⟹ coeff·s ≡ 0 (mod m)
/// whenever m | coeff·k).
LinearResidue normalize(LinearResidue r, std::int64_t m, const SymbolFacts& facts) {
  r.c0 = mod(r.c0, m);
  for (auto it = r.coeffs.begin(); it != r.coeffs.end();) {
    std::int64_t c = mod(it->second, m);
    const auto fact = facts.find(it->first);
    if (c != 0 && fact != facts.end() && mod(c * fact->second, m) == 0) c = 0;
    if (c == 0) {
      it = r.coeffs.erase(it);
    } else {
      it->second = c;
      ++it;
    }
  }
  return r;
}

std::optional<LinearResidue> residue_node(const Node& n, std::int64_t m,
                                          const SymbolFacts& facts) {
  switch (n.op) {
    case Op::kConst: return normalize({n.c, {}}, m, facts);
    case Op::kSym: return normalize({0, {{n.sym, 1}}}, m, facts);
    case Op::kAdd: {
      auto ra = residue_node(*n.a, m, facts);
      auto rb = residue_node(*n.b, m, facts);
      if (!ra || !rb) return std::nullopt;
      LinearResidue out = *ra;
      out.c0 += rb->c0;
      for (const auto& [s, c] : rb->coeffs) out.coeffs[s] += c;
      return normalize(std::move(out), m, facts);
    }
    case Op::kMulC: {
      auto ra = residue_node(*n.a, m, facts);
      if (!ra) return std::nullopt;
      LinearResidue out;
      out.c0 = ra->c0 * n.c;
      for (const auto& [s, c] : ra->coeffs) out.coeffs[s] = c * n.c;
      return normalize(std::move(out), m, facts);
    }
    case Op::kModC: {
      // (x mod c): if the inner residue mod c is a known constant r, the
      // node's value *is* r (mathematical mod), so its residue mod m is
      // r mod m.  Otherwise, when m | c, (x mod c) ≡ x (mod m).
      if (auto rc = residue_node(*n.a, n.c, facts); rc && rc->constant())
        return normalize({rc->c0, {}}, m, facts);
      if (mod(n.c, m) == 0) return residue_node(*n.a, m, facts);
      return std::nullopt;
    }
    case Op::kDivC: return std::nullopt;
    case Op::kSelect: {
      // Branches that agree mod m make the guard irrelevant.
      auto rt = residue_node(*n.t, m, facts);
      auto rf = residue_node(*n.f, m, facts);
      if (rt && rf && *rt == *rf) return rt;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

// ---- Symbolic interval propagation (Pass 3 bounds machinery) ------------

/// The node's value when it is a pure constant expression (kConst, or
/// kAdd/kMulC over constants); nullopt otherwise.
std::optional<std::int64_t> const_value(const Node& n) {
  switch (n.op) {
    case Op::kConst: return n.c;
    case Op::kAdd: {
      const auto a = const_value(*n.a);
      const auto b = const_value(*n.b);
      if (a && b) return *a + *b;
      return std::nullopt;
    }
    case Op::kMulC: {
      const auto a = const_value(*n.a);
      if (a) return *a * n.c;
      return std::nullopt;
    }
    default: return std::nullopt;
  }
}

/// When `n` computes base + c for a constant c (structurally: the base node
/// itself, or kAdd of the base node and a constant expression), returns c.
/// Pointer identity suffices: the lowerings build selects by reusing the
/// guard's shared subtree (select(x, P, x, x − P)).
std::optional<std::int64_t> offset_of(const Node& n, const Node* base) {
  if (&n == base) return 0;
  if (n.op != Op::kAdd) return std::nullopt;
  if (n.a.get() == base)
    if (const auto c = const_value(*n.b)) return *c;
  if (n.b.get() == base)
    if (const auto c = const_value(*n.a)) return *c;
  return std::nullopt;
}

/// Provable pointwise minimum of two endpoint forms; nullopt if incomparable.
std::optional<LinearForm> provable_min(const LinearForm& a, const LinearForm& b) {
  if (definitely_le(a, b)) return a;
  if (definitely_le(b, a)) return b;
  return std::nullopt;
}

std::optional<LinearForm> provable_max(const LinearForm& a, const LinearForm& b) {
  if (definitely_le(a, b)) return b;
  if (definitely_le(b, a)) return a;
  return std::nullopt;
}

/// Floor-divides a form by m when exact: every coefficient divisible by m
/// (then floor distributes over the sum, with the constant floor-divided).
std::optional<LinearForm> floor_div_form(const LinearForm& f, std::int64_t m) {
  LinearForm out;
  for (const auto& [s, c] : f.coeffs) {
    if (c % m != 0) return std::nullopt;
    out.coeffs[s] = c / m;
  }
  out.c0 = numtheory::euclid_div(f.c0, m).q;
  return out;
}

std::optional<SymInterval> interval_node(const Node& n, const SymRanges& ranges) {
  switch (n.op) {
    case Op::kConst:
      return SymInterval{LinearForm::constant(n.c), LinearForm::constant(n.c)};
    case Op::kSym: {
      const auto it = ranges.find(n.sym);
      if (it == ranges.end()) return std::nullopt;
      return it->second;
    }
    case Op::kAdd: {
      const auto a = interval_node(*n.a, ranges);
      const auto b = interval_node(*n.b, ranges);
      if (!a || !b) return std::nullopt;
      return SymInterval{a->lo + b->lo, a->hi + b->hi};
    }
    case Op::kMulC: {
      const auto a = interval_node(*n.a, ranges);
      if (!a) return std::nullopt;
      if (n.c >= 0) return SymInterval{a->lo.times(n.c), a->hi.times(n.c)};
      return SymInterval{a->hi.times(n.c), a->lo.times(n.c)};
    }
    case Op::kModC: {
      const auto a = interval_node(*n.a, ranges);
      // Exact when the inner value provably sits in the first window;
      // otherwise the mathematical mod is still confined to [0, m−1].
      if (a && definitely_le(LinearForm::constant(0), a->lo) &&
          definitely_le(a->hi, LinearForm::constant(n.c - 1)))
        return a;
      return SymInterval{LinearForm::constant(0), LinearForm::constant(n.c - 1)};
    }
    case Op::kDivC: {
      const auto a = interval_node(*n.a, ranges);
      if (!a) return std::nullopt;
      // floor is monotone, so floor-divided endpoints bound the image; both
      // must be exactly divisible for the endpoints to stay linear forms.
      const auto lo = floor_div_form(a->lo, n.c);
      const auto hi = floor_div_form(a->hi, n.c);
      if (!lo || !hi) return std::nullopt;
      return SymInterval{*lo, *hi};
    }
    case Op::kSelect: {
      // Guard a < b with b a constant B: branches equal to a + c (pointer-
      // structurally) are refined by the guard — then-branch a ∈ [lo, B−1],
      // else-branch a ∈ [B, hi] — before hulling with provable min/max.
      const auto ia = interval_node(*n.a, ranges);
      const auto cb = const_value(*n.b);
      auto branch = [&](const Node& br, bool is_then) -> std::optional<SymInterval> {
        if (ia && cb) {
          if (const auto off = offset_of(br, n.a.get())) {
            const LinearForm shift = LinearForm::constant(*off);
            if (is_then) {
              const auto hi =
                  provable_min(ia->hi, LinearForm::constant(*cb - 1));
              if (hi) return SymInterval{ia->lo + shift, *hi + shift};
            } else {
              const auto lo = provable_max(ia->lo, LinearForm::constant(*cb));
              if (lo) return SymInterval{*lo + shift, ia->hi + shift};
            }
          }
        }
        return interval_node(br, ranges);
      };
      const auto t = branch(*n.t, /*is_then=*/true);
      const auto f = branch(*n.f, /*is_then=*/false);
      if (!t || !f) return std::nullopt;
      const auto lo = provable_min(t->lo, f->lo);
      const auto hi = provable_max(t->hi, f->hi);
      if (!lo || !hi) return std::nullopt;
      return SymInterval{*lo, *hi};
    }
  }
  return std::nullopt;
}

}  // namespace

AffineExpr AffineExpr::constant(std::int64_t c) {
  Node n;
  n.op = Op::kConst;
  n.c = c;
  return AffineExpr(make(std::move(n)));
}

AffineExpr AffineExpr::sym(SymId id, std::string name) {
  Node n;
  n.op = Op::kSym;
  n.sym = id;
  n.name = std::move(name);
  return AffineExpr(make(std::move(n)));
}

AffineExpr AffineExpr::operator+(const AffineExpr& o) const {
  Node n;
  n.op = Op::kAdd;
  n.a = node_;
  n.b = o.node_;
  return AffineExpr(make(std::move(n)));
}

AffineExpr AffineExpr::operator-(const AffineExpr& o) const {
  return *this + o.times(-1);
}

AffineExpr AffineExpr::times(std::int64_t c) const {
  Node n;
  n.op = Op::kMulC;
  n.a = node_;
  n.c = c;
  return AffineExpr(make(std::move(n)));
}

AffineExpr AffineExpr::mod(std::int64_t m) const {
  if (m <= 0) throw std::invalid_argument("AffineExpr::mod: modulus must be positive");
  Node n;
  n.op = Op::kModC;
  n.a = node_;
  n.c = m;
  return AffineExpr(make(std::move(n)));
}

AffineExpr AffineExpr::div(std::int64_t m) const {
  if (m <= 0) throw std::invalid_argument("AffineExpr::div: divisor must be positive");
  Node n;
  n.op = Op::kDivC;
  n.a = node_;
  n.c = m;
  return AffineExpr(make(std::move(n)));
}

AffineExpr AffineExpr::select(const AffineExpr& lhs, const AffineExpr& rhs,
                              const AffineExpr& then_e, const AffineExpr& else_e) {
  Node n;
  n.op = Op::kSelect;
  n.a = lhs.node_;
  n.b = rhs.node_;
  n.t = then_e.node_;
  n.f = else_e.node_;
  return AffineExpr(make(std::move(n)));
}

FlatExpr::FlatExpr(const AffineExpr& e) : expr_(e) {
  if (!e.node_) throw std::logic_error("AffineExpr: empty expression");
  std::map<const Node*, int> slot;
  const auto visit = [&](const auto& self, const Node* n) -> int {
    if (n == nullptr) return -1;
    if (const auto it = slot.find(n); it != slot.end()) return it->second;
    const Step st{n, self(self, n->a.get()), self(self, n->b.get()),
                  self(self, n->t.get()), self(self, n->f.get())};
    steps_.push_back(st);
    return slot[n] = static_cast<int>(steps_.size()) - 1;
  };
  visit(visit, e.node_.get());
  values_.resize(steps_.size());
}

void FlatExpr::run(const Env& env) const {
  const auto at = [&](int i) { return values_[static_cast<std::size_t>(i)]; };
  for (std::size_t k = 0; k < steps_.size(); ++k) {
    const Step& s = steps_[k];
    const Node& n = *s.node;
    std::int64_t& v = values_[k];
    switch (n.op) {
      case Op::kConst: v = n.c; break;
      case Op::kSym: v = env.get(n.sym); break;
      case Op::kAdd: v = at(s.a) + at(s.b); break;
      case Op::kMulC: v = at(s.a) * n.c; break;
      case Op::kModC: v = mod(at(s.a), n.c); break;
      case Op::kDivC: v = numtheory::euclid_div(at(s.a), n.c).q; break;
      case Op::kSelect: v = at(s.a) < at(s.b) ? at(s.t) : at(s.f); break;
    }
  }
}

std::int64_t FlatExpr::eval(const Env& env) const {
  run(env);
  return values_.back();
}

bool FlatExpr::select_takes_then(const Env& env) const {
  run(env);
  const Step& root = steps_.back();
  return root.node->op != Op::kSelect ||
         values_[static_cast<std::size_t>(root.a)] < values_[static_cast<std::size_t>(root.b)];
}

std::string AffineExpr::str() const {
  if (!node_) return "<empty>";
  std::ostringstream os;
  str_node(*node_, os);
  return os.str();
}

std::optional<LinearResidue> residue_mod(const AffineExpr& e, std::int64_t m,
                                         const SymbolFacts& facts) {
  if (m <= 0) throw std::invalid_argument("residue_mod: modulus must be positive");
  if (!e.node_) return std::nullopt;
  return residue_node(*e.node_, m, facts);
}

std::string LinearResidue::str(std::int64_t m) const {
  std::ostringstream os;
  os << c0;
  for (const auto& [s, c] : coeffs) os << " + " << c << "*sym" << s;
  os << " (mod " << m << ")";
  return os.str();
}

LinearForm LinearForm::operator+(const LinearForm& o) const {
  LinearForm out = *this;
  out.c0 += o.c0;
  for (const auto& [s, c] : o.coeffs) {
    out.coeffs[s] += c;
    if (out.coeffs[s] == 0) out.coeffs.erase(s);
  }
  return out;
}

LinearForm LinearForm::operator-(const LinearForm& o) const {
  return *this + o.times(-1);
}

LinearForm LinearForm::times(std::int64_t c) const {
  if (c == 0) return constant(0);
  LinearForm out;
  out.c0 = c0 * c;
  for (const auto& [s, k] : coeffs) out.coeffs[s] = k * c;
  return out;
}

std::optional<std::int64_t> LinearForm::residue(std::int64_t m,
                                                const SymbolFacts& facts) const {
  const std::int64_t r = mod(c0, m);
  for (const auto& [s, c] : coeffs) {
    if (mod(c, m) == 0) continue;  // coefficient itself vanishes mod m
    const auto fact = facts.find(s);
    if (fact == facts.end() || mod(c * fact->second, m) != 0) return std::nullopt;
  }
  return r;
}

bool definitely_le(const LinearForm& f, const LinearForm& g) {
  const LinearForm diff = g - f;
  if (diff.c0 < 0) return false;
  for (const auto& [s, c] : diff.coeffs)
    if (c < 0) return false;
  return true;
}

std::optional<SymInterval> interval_hull(const AffineExpr& e, const SymRanges& ranges) {
  if (!e.node_) return std::nullopt;
  return interval_node(*e.node_, ranges);
}

std::string LinearForm::str() const {
  std::ostringstream os;
  os << c0;
  for (const auto& [s, c] : coeffs) os << (c >= 0 ? " + " : " - ") << (c >= 0 ? c : -c)
                                       << "*sym" << s;
  return os.str();
}

}  // namespace cfmerge::verify
