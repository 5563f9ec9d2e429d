// Proof tokens for the simulator's bulk-charging fast path.
//
// A CfCertificate is the process-wide memo of one successful
// verify_primitive run: "primitive `name` at family (w, E) is proven
// conflict-free".  Call sites that execute a certified access pattern may
// hand the token to the cfprims executors, which then charge whole
// progressions in closed form (cfprims::charge_certified) instead of
// materializing per-lane addresses — see
// docs/architecture.md, "Accounting fast paths".
//
// certify() is memoized (positive AND negative) behind a mutex: the first
// request for a (name, w, E) triple runs the full symbolic proof; every
// later request is a map lookup.  Unknown primitives, unsupported shapes,
// deliberately-broken ablation variants and refuted proofs all cache a
// nullptr, so uncertified call sites permanently fall back to the
// lane-accurate path.  Certificates live for the whole process, so the
// returned pointer may be cached on sort plans.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cfmerge::verify {

/// One minted Pass 3 proof token: "primitive `primitive` at family (w, E)
/// is statically memory-safe" (bounds + init-before-read + race-freedom,
/// verify/safety.hpp).  Consumers only test the pointer for null.
struct SafetyCertificate {
  std::string primitive;
  int w = 0;
  int e = 0;
};

/// One minted proof token.  The fields identify the proof that backs it;
/// consumers only test the pointer for null.  `safety` is the matching
/// Pass 3 token when the static safety proof also closed (nullptr
/// otherwise): executors may elide per-access shadow audits for the
/// pattern only when it is set (Launcher audit=certified-skip mode).
struct CfCertificate {
  std::string primitive;
  int w = 0;
  int e = 0;
  const SafetyCertificate* safety = nullptr;
};

/// Counters over every certify() call in the process (for EngineStats).
struct CertificateStats {
  std::uint64_t hits = 0;    ///< memoized lookups (positive or negative)
  std::uint64_t misses = 0;  ///< first-time proofs actually run
  std::uint64_t cached = 0;  ///< distinct (name, w, E) entries held
};

/// Returns the certificate for `primitive` at family (w, E), running the
/// symbolic verifier on first use; nullptr when the primitive is unknown,
/// does not support the shape, or the proof is refuted.  Thread-safe.
[[nodiscard]] const CfCertificate* certify(std::string_view primitive, int w, int e);

/// Returns the Pass 3 safety certificate for `primitive` at family (w, E),
/// running verify_primitive_safety on first use; nullptr when the primitive
/// is unknown, does not support the shape, is a declared safety ablation,
/// or the proof is refuted.  Memoized like certify(); thread-safe.
[[nodiscard]] const SafetyCertificate* certify_safety(std::string_view primitive,
                                                      int w, int e);

/// Snapshot of the process-wide memo statistics.  Thread-safe.
[[nodiscard]] CertificateStats certificate_stats();

}  // namespace cfmerge::verify
