#include "x509/verify.h"

namespace mbtls::x509 {

const char* to_string(VerifyStatus s) {
  switch (s) {
    case VerifyStatus::kOk: return "ok";
    case VerifyStatus::kEmptyChain: return "empty chain";
    case VerifyStatus::kExpired: return "certificate expired";
    case VerifyStatus::kNotYetValid: return "certificate not yet valid";
    case VerifyStatus::kBadSignature: return "bad signature";
    case VerifyStatus::kUnknownIssuer: return "unknown issuer";
    case VerifyStatus::kIssuerNotCa: return "issuer is not a CA";
    case VerifyStatus::kHostnameMismatch: return "hostname mismatch";
  }
  return "unknown";
}

VerifyStatus verify_chain(std::span<const Certificate> chain,
                          std::span<const Certificate> trust_anchors,
                          const VerifyOptions& options, const SignatureCheck& check) {
  std::vector<const Certificate*> ptrs;
  ptrs.reserve(chain.size());
  for (const auto& cert : chain) ptrs.push_back(&cert);
  return verify_chain(ptrs, trust_anchors, options, check);
}

VerifyStatus verify_chain(std::span<const Certificate* const> chain,
                          std::span<const Certificate> trust_anchors,
                          const VerifyOptions& options, const SignatureCheck& check) {
  if (chain.empty()) return VerifyStatus::kEmptyChain;
  const auto signed_by = [&check](const Certificate& cert, const PublicKey& issuer_key) {
    return check ? check(cert, issuer_key) : cert.verify_signature(issuer_key);
  };

  for (const auto* cert : chain) {
    if (options.now < cert->info().not_before) return VerifyStatus::kNotYetValid;
    if (options.now > cert->info().not_after) return VerifyStatus::kExpired;
  }

  if (!options.hostname.empty() && !chain[0]->matches_hostname(options.hostname))
    return VerifyStatus::kHostnameMismatch;

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Certificate& cert = *chain[i];
    if (i + 1 < chain.size()) {
      const Certificate& issuer = *chain[i + 1];
      if (!issuer.info().is_ca) return VerifyStatus::kIssuerNotCa;
      if (issuer.info().subject_cn != cert.info().issuer_cn) return VerifyStatus::kUnknownIssuer;
      if (!signed_by(cert, issuer.info().key)) return VerifyStatus::kBadSignature;
      continue;
    }
    // Last element: must be signed by (or be) a trust anchor.
    bool anchored = false;
    for (const auto& anchor : trust_anchors) {
      if (anchor.info().subject_cn != cert.info().issuer_cn) continue;
      if (!anchor.info().is_ca) continue;
      if (signed_by(cert, anchor.info().key)) {
        anchored = true;
        break;
      }
      return VerifyStatus::kBadSignature;
    }
    if (!anchored) return VerifyStatus::kUnknownIssuer;
  }
  return VerifyStatus::kOk;
}

}  // namespace mbtls::x509
