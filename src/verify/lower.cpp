#include "verify/lower.hpp"

#include <stdexcept>

#include "numtheory/numtheory.hpp"
#include "verify/proof.hpp"

namespace cfmerge::verify {

const char* variant_name(ScheduleVariant v) {
  switch (v) {
    case ScheduleVariant::kFull: return "cf_gather";
    case ScheduleVariant::kNoBReversal: return "cf_gather_no_pi";
    case ScheduleVariant::kNoRhoShift: return "cf_gather_no_rho";
  }
  return "?";
}

AffineExpr lower_rho(const AffineExpr& raw, int w, int e) {
  const std::int64_t d = numtheory::gcd(w, e);
  if (d == 1) return raw;
  const std::int64_t p = static_cast<std::int64_t>(w) * e / d;
  // l = raw div P; x = raw mod P + l mod d; phys = l*P + (x < P ? x : x - P).
  const AffineExpr l = raw.div(p);
  const AffineExpr x = raw.mod(p) + l.mod(d);
  const AffineExpr cp = AffineExpr::constant(p);
  return l.times(p) + AffineExpr::select(x, cp, x, x - cp);
}

AffineExpr lower_rho_inverse(const AffineExpr& raw, int w, int e) {
  const std::int64_t d = numtheory::gcd(w, e);
  if (d == 1) return raw;
  const std::int64_t p = static_cast<std::int64_t>(w) * e / d;
  // l = raw div P; x = raw mod P - l mod d; raw' = l*P + (x >= 0 ? x : x + P).
  const AffineExpr l = raw.div(p);
  const AffineExpr x = raw.mod(p) - l.mod(d);
  const AffineExpr zero = AffineExpr::constant(0);
  const AffineExpr cp = AffineExpr::constant(p);
  return l.times(p) + AffineExpr::select(x, zero, x + cp, x);
}

CfGatherLowering lower_cf_gather(int w, int e, ScheduleVariant variant) {
  validate_family("lower_cf_gather", w, e);

  CfGatherLowering lo;
  lo.w = w;
  lo.e = e;
  lo.variant = variant;
  lo.facts = {{kSymU, w}};  // u is a multiple of w (GatherShape::validate)

  const AffineExpr i = AffineExpr::sym(kSymThread, "i");
  const AffineExpr j = AffineExpr::sym(kSymRound, "j");
  const AffineExpr a = AffineExpr::sym(kSymAOff, "a");
  const AffineExpr asz = AffineExpr::sym(kSymASize, "asz");
  const AffineExpr u = AffineExpr::sym(kSymU, "u");

  // RoundSchedule::read: k = a mod E; m = (j - k) mod E == (j - a) mod E.
  lo.m = (j - a).mod(e);
  // B element index e = (k - j - 1) mod E == (a - j - 1) mod E.
  lo.e_idx = (a - j - AffineExpr::constant(1)).mod(e);

  // A branch: raw = pi.raw_of_a(a + m) = a + m.
  lo.raw_a = a + lo.m;

  // B branch: list offset y = b_offset(i) + e_idx = iE - a + e_idx.
  const AffineExpr b_off = i.times(e) - a + lo.e_idx;
  if (variant == ScheduleVariant::kNoBReversal) {
    // Broken layout [ A | B ] without the reversal: raw = la + y.
    lo.raw_b = AffineExpr::sym(kSymLa, "la") + b_off;
  } else {
    // pi.raw_of_b(y) = la + (lb - 1 - y) = uE - 1 - y  (la + lb = uE).
    lo.raw_b = u.times(e) - AffineExpr::constant(1) - b_off;
  }

  lo.raw = AffineExpr::select(lo.m, asz, lo.raw_a, lo.raw_b);
  lo.phys = variant == ScheduleVariant::kNoRhoShift ? lo.raw : lower_rho(lo.raw, w, e);
  return lo;
}

Env cf_gather_env(std::int64_t i, std::int64_t j, std::int64_t a, std::int64_t asz,
                  std::int64_t u, std::int64_t la) {
  Env env;
  env.set(kSymThread, i);
  env.set(kSymRound, j);
  env.set(kSymAOff, a);
  env.set(kSymASize, asz);
  env.set(kSymU, u);
  env.set(kSymLa, la);
  return env;
}

AffineExpr lower_bitonic_pad(const AffineExpr& x, int w, bool padded) {
  return padded ? x + x.div(w) : x;
}

BitonicPairLowering lower_bitonic_pair(std::int64_t j, int w, bool padded) {
  if (j <= 0 || w <= 0)
    throw std::invalid_argument("lower_bitonic_pair: need j >= 1 and w > 0");
  BitonicPairLowering out;
  out.j = j;
  out.padded = padded;
  const AffineExpr p = AffineExpr::sym(kSymThread, "p");
  // i = (p div j) * 2j + p mod j  — insert a 0 bit at position log2(j).
  const AffineExpr i = p.div(j).times(2 * j) + p.mod(j);
  out.lo = lower_bitonic_pad(i, w, padded);
  out.hi = lower_bitonic_pad(i + AffineExpr::constant(j), w, padded);
  return out;
}

}  // namespace cfmerge::verify
