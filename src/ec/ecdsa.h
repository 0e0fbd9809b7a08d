// ECDSA over P-256 (FIPS 186-4). Signatures are encoded as raw r || s
// (64 bytes); the x509 layer wraps them in DER when placing them in
// certificates.
#pragma once

#include "crypto/drbg.h"
#include "crypto/sha2.h"
#include "ec/p256.h"
#include "util/bytes.h"

namespace mbtls::ec {

struct EcdsaKeyPair {
  U256 private_key;   // d in [1, n-1]
  AffinePoint public_key;  // Q = d*G

  Bytes public_bytes() const { return P256::instance().encode_point(public_key); }
};

/// Generate a fresh key pair from `rng`.
EcdsaKeyPair ecdsa_generate(crypto::Drbg& rng);

/// Sign `message` (hashed with `algo` internally). Returns r || s (64 bytes).
/// The nonce is RFC 6979's (HMAC-DRBG over the private key and the message
/// hash) hedged with 32 bytes drawn from `rng` as the section 3.6 extra
/// input: two signatures share a nonce only if they share the message, and
/// then they are the same signature, whatever state `rng` is in.
Bytes ecdsa_sign(const EcdsaKeyPair& key, crypto::HashAlgo algo, ByteView message,
                 crypto::Drbg& rng);

/// The same with an explicit extra input; an empty one gives plain RFC 6979
/// deterministic signatures (its A.2.5 vectors for SHA-256).
Bytes ecdsa_sign(const EcdsaKeyPair& key, crypto::HashAlgo algo, ByteView message,
                 ByteView extra_input);

/// Verify an r || s signature over `message`.
bool ecdsa_verify(const AffinePoint& public_key, crypto::HashAlgo algo, ByteView message,
                  ByteView signature);

}  // namespace mbtls::ec
