#include "ec/ecdsa.h"

#include "crypto/hmac.h"

namespace mbtls::ec {

namespace {
// Hash-to-scalar: leftmost 256 bits of the digest, reduced once mod n.
U256 hash_to_scalar(crypto::HashAlgo algo, ByteView message) {
  Bytes digest = crypto::hash(algo, message);
  digest.resize(32);  // truncate to the group size (SHA-384/512 -> 32 bytes)
  const U256 z = U256::from_bytes(digest);
  return P256::instance().scalar_field().reduce_once(z);
}

/// RFC 6979 section 3.2 nonces: HMAC-DRBG over HMAC-SHA-256, seeded with the
/// private key, the message scalar (bits2octets(H(m))) and the section 3.6
/// extra input. next() returns successive candidates k in [1, n).
class NonceGenerator {
 public:
  NonceGenerator(const U256& d, const U256& z, ByteView extra)
      : k_(32, 0x00), v_(32, 0x01) {
    Bytes d_octets = d.to_bytes();
    const Bytes z_octets = z.to_bytes();
    for (const std::uint8_t sep : {std::uint8_t{0x00}, std::uint8_t{0x01}}) {
      crypto::Hmac h(crypto::HashAlgo::kSha256, k_);
      h.update(v_);
      h.update(ByteView(&sep, 1));
      h.update(d_octets);
      h.update(z_octets);
      h.update(extra);
      replace(k_, h.finish());
      replace(v_, crypto::hmac(crypto::HashAlgo::kSha256, k_, v_));
    }
    secure_wipe(d_octets);
  }
  ~NonceGenerator() {
    secure_wipe(k_);
    secure_wipe(v_);
  }
  NonceGenerator(const NonceGenerator&) = delete;
  NonceGenerator& operator=(const NonceGenerator&) = delete;

  U256 next() {
    const Mont& fn = P256::instance().scalar_field();
    for (;;) {
      if (drawn_) {  // step h.3: move on past the previous candidate
        const std::uint8_t zero = 0x00;
        crypto::Hmac h(crypto::HashAlgo::kSha256, k_);
        h.update(v_);
        h.update(ByteView(&zero, 1));
        replace(k_, h.finish());
        replace(v_, crypto::hmac(crypto::HashAlgo::kSha256, k_, v_));
      }
      drawn_ = true;
      replace(v_, crypto::hmac(crypto::HashAlgo::kSha256, k_, v_));
      const U256 k = U256::from_bytes(v_);
      if (!k.is_zero() && fn.reduce_once(k) == k) return k;  // k in [1, n)
    }
  }

 private:
  /// K and V are nonce material: wipe the old value before dropping it.
  static void replace(Bytes& slot, Bytes next) {
    secure_wipe(slot);
    slot = std::move(next);
  }

  Bytes k_;  // HMAC-DRBG key K
  Bytes v_;  // HMAC-DRBG value V
  bool drawn_ = false;
};
}  // namespace

EcdsaKeyPair ecdsa_generate(crypto::Drbg& rng) {
  const auto& curve = P256::instance();
  EcdsaKeyPair kp;
  kp.private_key = curve.random_scalar(rng);
  kp.public_key = curve.mul_base(kp.private_key);
  return kp;
}

Bytes ecdsa_sign(const EcdsaKeyPair& key, crypto::HashAlgo algo, ByteView message,
                 ByteView extra_input) {
  const auto& curve = P256::instance();
  const auto& fn = curve.scalar_field();
  const U256 z = hash_to_scalar(algo, message);
  NonceGenerator nonces(key.private_key, z, extra_input);
  for (;;) {
    const U256 k = nonces.next();
    const AffinePoint r_point = curve.mul_base(k);
    const U256 r = fn.reduce_once(r_point.x);
    if (r.is_zero()) continue;
    // s = k^-1 (z + r d) mod n, computed in the Montgomery domain of n.
    const U256 km = fn.to_mont(k);
    const U256 rm = fn.to_mont(r);
    const U256 dm = fn.to_mont(key.private_key);
    const U256 zm = fn.to_mont(z);
    const U256 kinv = fn.inv(km);
    const U256 sm = fn.mul(kinv, fn.add(zm, fn.mul(rm, dm)));
    const U256 s = fn.from_mont(sm);
    if (s.is_zero()) continue;
    return concat({r.to_bytes(), s.to_bytes()});
  }
}

Bytes ecdsa_sign(const EcdsaKeyPair& key, crypto::HashAlgo algo, ByteView message,
                 crypto::Drbg& rng) {
  return ecdsa_sign(key, algo, message, rng.bytes(32));
}

bool ecdsa_verify(const AffinePoint& public_key, crypto::HashAlgo algo, ByteView message,
                  ByteView signature) {
  if (signature.size() != 64) return false;
  const auto& curve = P256::instance();
  const auto& fn = curve.scalar_field();
  if (!curve.on_curve(public_key)) return false;

  const U256 r = U256::from_bytes(signature.first(32));
  const U256 s = U256::from_bytes(signature.subspan(32));
  if (r.is_zero() || s.is_zero()) return false;
  // r, s must be < n.
  if (fn.reduce_once(r) != r || fn.reduce_once(s) != s) return false;

  const U256 z = hash_to_scalar(algo, message);
  // s, r and z are public: a variable-time inverse, and x compared in
  // Jacobian coordinates rather than after an inversion of Z.
  const U256 w = fn.to_mont(fn.inv_vartime(s));  // s^-1, Montgomery form
  const U256 u1 = fn.mul(z, w);  // plain times Montgomery: plain z * s^-1
  const U256 u2 = fn.mul(r, w);
  return curve.mul_add_x_equals(u1, u2, public_key, r);
}

}  // namespace mbtls::ec
