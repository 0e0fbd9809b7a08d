// P-256 group law, ECDH, and ECDSA tests. Correctness is established through
// algebraic invariants (curve membership, commutativity, n*G = infinity), the
// standard generator coordinates, the RFC 6979 known answer, and the field
// arithmetic checked against the BigInt oracle. The `*_reference` ladders
// share the field with the fast paths, so the differential suite alone
// cannot catch a field bug; the oracle tests here can.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bignum/bignum.h"
#include "ec/ecdh.h"
#include "ec/ecdsa.h"
#include "ec/p256.h"
#include "util/hex.h"

namespace mbtls::ec {
namespace {

const P256& curve() { return P256::instance(); }

U256 scalar(std::uint64_t v) {
  U256 k{};
  k.w[0] = v;
  return k;
}

TEST(P256, GeneratorOnCurve) {
  EXPECT_TRUE(curve().on_curve(curve().generator()));
}

TEST(P256, GeneratorCoordinatesMatchStandard) {
  const Bytes enc = curve().encode_point(curve().generator());
  EXPECT_EQ(hex_encode(enc),
            "04"
            "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
            "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
}

TEST(P256, SmallMultiplesOnCurve) {
  for (std::uint64_t k = 1; k <= 20; ++k) {
    const AffinePoint p = curve().mul_base(scalar(k));
    EXPECT_TRUE(curve().on_curve(p)) << "k=" << k;
  }
}

TEST(P256, AdditionConsistency) {
  // (k+1)G == kG + G, exercised via 2G + 3G == 5G through scalar arithmetic.
  const AffinePoint p2 = curve().mul_base(scalar(2));
  const AffinePoint p3 = curve().mul_base(scalar(3));
  const AffinePoint p5 = curve().mul_base(scalar(5));
  // mul_add computes u1*G + u2*Q; with Q = 2G and u2 = 1, u1 = 3: 3G + 2G.
  const AffinePoint sum = curve().mul_add(scalar(3), scalar(1), p2);
  EXPECT_EQ(sum.x, p5.x);
  EXPECT_EQ(sum.y, p5.y);
  EXPECT_TRUE(curve().on_curve(p3));
}

TEST(P256, OrderTimesGeneratorIsInfinity) {
  const AffinePoint p = curve().mul_base(curve().order());
  EXPECT_TRUE(p.infinity);
}

TEST(P256, ScalarMulCommutes) {
  crypto::Drbg rng("ec-commute", 0);
  const U256 a = curve().random_scalar(rng);
  const U256 b = curve().random_scalar(rng);
  const AffinePoint ag = curve().mul_base(a);
  const AffinePoint bg = curve().mul_base(b);
  const AffinePoint abg = curve().mul(b, ag);
  const AffinePoint bag = curve().mul(a, bg);
  EXPECT_EQ(abg.x, bag.x);
  EXPECT_EQ(abg.y, bag.y);
}

TEST(P256, PointCodecRoundTrip) {
  crypto::Drbg rng("ec-codec", 0);
  const AffinePoint p = curve().mul_base(curve().random_scalar(rng));
  const Bytes enc = curve().encode_point(p);
  const auto dec = curve().decode_point(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->x, p.x);
  EXPECT_EQ(dec->y, p.y);
}

TEST(P256, DecodeRejectsInvalid) {
  Bytes enc = curve().encode_point(curve().generator());
  enc[40] ^= 1;  // corrupt a coordinate byte -> off curve
  EXPECT_FALSE(curve().decode_point(enc).has_value());
  EXPECT_FALSE(curve().decode_point(Bytes(64, 0)).has_value());   // wrong length
  Bytes compressed = enc;
  compressed[0] = 0x02;
  EXPECT_FALSE(curve().decode_point(compressed).has_value());     // unsupported form
}

TEST(Ecdh, SharedSecretAgrees) {
  crypto::Drbg rng_a("ecdh-a", 0);
  crypto::Drbg rng_b("ecdh-b", 0);
  const EcdhKeyPair a = ecdh_generate(rng_a);
  const EcdhKeyPair b = ecdh_generate(rng_b);
  const Bytes s1 = ecdh_shared_secret(a, b.public_point);
  const Bytes s2 = ecdh_shared_secret(b, a.public_point);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 32u);
}

TEST(Ecdh, DistinctPeersDistinctSecrets) {
  crypto::Drbg rng("ecdh-multi", 0);
  const EcdhKeyPair a = ecdh_generate(rng);
  const EcdhKeyPair b = ecdh_generate(rng);
  const EcdhKeyPair c = ecdh_generate(rng);
  EXPECT_NE(ecdh_shared_secret(a, b.public_point), ecdh_shared_secret(a, c.public_point));
}

TEST(Ecdh, RejectsInvalidPeerPoint) {
  crypto::Drbg rng("ecdh-bad", 0);
  const EcdhKeyPair a = ecdh_generate(rng);
  Bytes bogus(65, 0);
  bogus[0] = 0x04;
  EXPECT_THROW(ecdh_shared_secret(a, bogus), std::invalid_argument);
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  crypto::Drbg rng("ecdsa-rt", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("attested handshake transcript"));
  const Bytes sig = ecdsa_sign(key, crypto::HashAlgo::kSha256, msg, rng);
  EXPECT_EQ(sig.size(), 64u);
  EXPECT_TRUE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, sig));
}

TEST(Ecdsa, VerifyRejectsWrongMessage) {
  crypto::Drbg rng("ecdsa-msg", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const Bytes sig =
      ecdsa_sign(key, crypto::HashAlgo::kSha256, to_bytes(std::string_view("m1")), rng);
  EXPECT_FALSE(
      ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, to_bytes(std::string_view("m2")), sig));
}

TEST(Ecdsa, VerifyRejectsTamperedSignature) {
  crypto::Drbg rng("ecdsa-tamper", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("msg"));
  Bytes sig = ecdsa_sign(key, crypto::HashAlgo::kSha256, msg, rng);
  for (std::size_t i = 0; i < sig.size(); i += 7) {
    Bytes bad = sig;
    bad[i] ^= 1;
    EXPECT_FALSE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, bad));
  }
}

TEST(Ecdsa, VerifyRejectsWrongKey) {
  crypto::Drbg rng("ecdsa-key", 0);
  const EcdsaKeyPair key1 = ecdsa_generate(rng);
  const EcdsaKeyPair key2 = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("msg"));
  const Bytes sig = ecdsa_sign(key1, crypto::HashAlgo::kSha256, msg, rng);
  EXPECT_FALSE(ecdsa_verify(key2.public_key, crypto::HashAlgo::kSha256, msg, sig));
}

TEST(Ecdsa, Sha384MessagesWork) {
  crypto::Drbg rng("ecdsa-384", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("sha-384 signed"));
  const Bytes sig = ecdsa_sign(key, crypto::HashAlgo::kSha384, msg, rng);
  EXPECT_TRUE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha384, msg, sig));
  // Cross-algorithm verification must fail.
  EXPECT_FALSE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, sig));
}

TEST(Ecdsa, RejectsMalformedSignatures) {
  crypto::Drbg rng("ecdsa-malformed", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("msg"));
  EXPECT_FALSE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, Bytes(63, 1)));
  EXPECT_FALSE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, Bytes(64, 0)));  // r=s=0
}

TEST(P256, MulAddMatchesCombinedScalar) {
  // u1*G + u2*(q*G) == (u1 + u2*q)*G, the right side through the scalar
  // field and the comb: an algebraic check independent of the reference
  // ladder.
  crypto::Drbg rng("ec-muladd", 0);
  const Mont& fn = curve().scalar_field();
  for (int trial = 0; trial < 10; ++trial) {
    const U256 u1 = curve().random_scalar(rng);
    const U256 u2 = curve().random_scalar(rng);
    const U256 q = curve().random_scalar(rng);
    const U256 combined =
        fn.add(u1, fn.from_mont(fn.mul(fn.to_mont(u2), fn.to_mont(q))));
    const AffinePoint got = curve().mul_add(u1, u2, curve().mul_base(q));
    const AffinePoint want = curve().mul_base(combined);
    EXPECT_EQ(got.x, want.x) << "trial " << trial;
    EXPECT_EQ(got.y, want.y) << "trial " << trial;
  }
}

TEST(Ecdsa, Rfc6979P256Sha256KnownAnswer) {
  // RFC 6979 A.2.5: the P-256 key pair and the SHA-256 signature of "sample".
  const U256 d = U256::from_bytes(
      hex_decode("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721"));
  const AffinePoint q = curve().mul_base(d);
  EXPECT_EQ(hex_encode(q.x.to_bytes()),
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6");
  EXPECT_EQ(hex_encode(q.y.to_bytes()),
            "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299");
  const AffinePoint q_ladder = curve().mul(d, curve().generator());
  EXPECT_EQ(q_ladder.x, q.x);
  EXPECT_EQ(q_ladder.y, q.y);

  const Bytes sig = hex_decode(
      "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716"
      "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
  const auto msg = to_bytes(std::string_view("sample"));
  EXPECT_TRUE(ecdsa_verify(q, crypto::HashAlgo::kSha256, msg, sig));
  // With an empty extra input the nonce is RFC 6979's deterministic k, so
  // the signature is the RFC's, byte for byte.
  const EcdsaKeyPair key{d, q};
  EXPECT_EQ(hex_encode(ecdsa_sign(key, crypto::HashAlgo::kSha256, msg, ByteView{})),
            hex_encode(sig));
  // A hedged signature differs from it but still verifies.
  crypto::Drbg rng("ec-rfc6979-hedged", 0);
  const Bytes hedged = ecdsa_sign(key, crypto::HashAlgo::kSha256, msg, rng);
  EXPECT_NE(hedged, sig);
  EXPECT_TRUE(ecdsa_verify(q, crypto::HashAlgo::kSha256, msg, hedged));
  for (std::size_t bit = 0; bit < sig.size() * 8; ++bit) {
    Bytes bad = sig;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(ecdsa_verify(q, crypto::HashAlgo::kSha256, msg, bad)) << "bit " << bit;
  }
}

// ------------------------------------------- field arithmetic vs BigInt

bn::BigInt big(const U256& a) { return bn::BigInt::from_bytes(a.to_bytes()); }

U256 u256(const bn::BigInt& a) { return U256::from_bytes(a.to_bytes(32)); }

/// Edge operands below modulus m, pairs whose sum lands just below, on and
/// just above m, then `random` seeded residues.
std::vector<U256> field_operands(const bn::BigInt& m, const std::string& label, int random) {
  const bn::BigInt one(1);
  const bn::BigInt n = big(curve().order());
  std::vector<bn::BigInt> v = {bn::BigInt(0), one, bn::BigInt(2), m - one, m - bn::BigInt(2),
                               n - one, m >> 1, (m >> 1) + one};
  const U256 limb_patterns[] = {
      U256{{~0ull, ~0ull, ~0ull, 0}}, U256{{~0ull, 0, ~0ull, 0}},
      U256{{0, ~0ull, 0, 0}},         U256{{~0ull, ~0ull, 0, 0x7fffffffffffffff}},
      U256{{0, 0, 0, 0x8000000000000000}}};
  for (const U256& w : limb_patterns) v.push_back(big(w) % m);
  crypto::Drbg rng(label, 0);
  for (int i = 0; i < 8; ++i) {
    const bn::BigInt x = bn::BigInt::from_bytes(rng.bytes(32)) % m;
    v.push_back(x);
    v.push_back((m - one - x) % m);            // x + this = m - 1
    v.push_back((m - x) % m);                  // x + this = m
    v.push_back((m + one - x) % m);            // x + this = m + 1
  }
  for (int i = 0; i < random; ++i) v.push_back(bn::BigInt::from_bytes(rng.bytes(32)) % m);
  std::vector<U256> out;
  out.reserve(v.size());
  for (const auto& x : v) out.push_back(u256(x));
  return out;
}

/// R = 2^256: the Montgomery radix, and its square and inverse mod m.
struct Radix {
  bn::BigInt r, r2, r_inv;
  explicit Radix(const bn::BigInt& m)
      : r((bn::BigInt(1) << 256) % m), r2(r * r % m), r_inv(r.mod_inverse(m)) {}
};

constexpr int kRandomOperands = 10'000;

TEST(Fp, MatchesBigIntOracle) {
  const bn::BigInt p = big(Fp::kP);
  const Radix rad(p);
  EXPECT_EQ(u256(rad.r), Fp::kOne);
  const std::vector<U256> ops = field_operands(p, "fp-oracle", kRandomOperands);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    // Every operand meets its neighbour and, among the edge values, each
    // edge value meets the ones that follow it.
    const U256& a = ops[i];
    const U256& b = ops[(i + 1) % ops.size()];
    const bn::BigInt x = big(a);
    const bn::BigInt y = big(b);
    ASSERT_EQ(Fp::add(a, b), u256((x + y) % p)) << "add #" << i;
    ASSERT_EQ(Fp::sub(a, b), u256((x + p - y) % p)) << "sub #" << i;
    ASSERT_EQ(Fp::neg(a), u256((p - x) % p)) << "neg #" << i;
    ASSERT_EQ(Fp::mul(a, b), u256(x * y * rad.r_inv % p)) << "mul #" << i;
    ASSERT_EQ(Fp::sqr(a), u256(x * x * rad.r_inv % p)) << "sqr #" << i;
    ASSERT_EQ(Fp::to_mont(a), u256(x * rad.r % p)) << "to_mont #" << i;
    ASSERT_EQ(Fp::from_mont(a), u256(x * rad.r_inv % p)) << "from_mont #" << i;
    // a is the Montgomery form of x/R; its inverse's form is R^2/x.
    if (!x.is_zero()) {
      ASSERT_EQ(Fp::inv(a), u256(x.mod_inverse(p) * rad.r2 % p)) << "inv #" << i;
    }
  }
  EXPECT_EQ(Fp::inv(U256{}), U256{});
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 40; ++j) {
      const bn::BigInt x = big(ops[i]);
      const bn::BigInt y = big(ops[j]);
      ASSERT_EQ(Fp::add(ops[i], ops[j]), u256((x + y) % p)) << i << "+" << j;
      ASSERT_EQ(Fp::sub(ops[i], ops[j]), u256((x + p - y) % p)) << i << "-" << j;
      ASSERT_EQ(Fp::mul(ops[i], ops[j]), u256(x * y * rad.r_inv % p)) << i << "*" << j;
    }
  }
}

TEST(Fp, KernelMatchesPortable) {
  if (!FpAdx::available()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  const bn::BigInt p = big(Fp::kP);
  // 0, 1, p - 1, R mod p (Montgomery 1), 2^256 - 1 mod p, then the oracle
  // test's edge and random operands.
  std::vector<U256> ops = {U256{}, U256{{1, 0, 0, 0}}, u256(p - bn::BigInt(1)), Fp::kOne,
                           u256(big(U256{{~0ull, ~0ull, ~0ull, ~0ull}}) % p)};
  const std::vector<U256> more = field_operands(p, "fp-kernel", 20'000);
  ops.insert(ops.end(), more.begin(), more.end());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const U256& a = ops[i];
    ASSERT_EQ(FpAdx::sqr(a), Fp::sqr(a)) << "sqr #" << i;
    for (std::size_t j : {i, (i + 1) % ops.size(), (i * 7 + 3) % ops.size()}) {
      ASSERT_EQ(FpAdx::mul(a, ops[j]), Fp::mul(a, ops[j])) << "mul #" << i << "*" << j;
    }
  }
  for (std::size_t i = 0; i < 40; ++i)
    for (std::size_t j = 0; j < 40; ++j)
      ASSERT_EQ(FpAdx::mul(ops[i], ops[j]), Fp::mul(ops[i], ops[j])) << i << "*" << j;
  for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(FpAdx::inv(ops[i]), Fp::inv(ops[i])) << i;
}

TEST(P256, KernelMatchesPortable) {
  if (!FpAdx::available()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  crypto::Drbg rng("ec-kernel", 0);
  const auto kPortable = FieldKernel::kPortable;
  const auto kAdx = FieldKernel::kAdx;
  std::vector<U256> scalars = {scalar(1), scalar(2), scalar(15), scalar(16)};
  U256 n_minus_1 = curve().order();
  n_minus_1.w[0] -= 1;
  scalars.push_back(n_minus_1);
  for (int i = 0; i < 12; ++i) scalars.push_back(curve().random_scalar(rng));
  const AffinePoint q = curve().mul_base(curve().random_scalar(rng), kPortable);
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const U256& k = scalars[i];
    const AffinePoint b0 = curve().mul_base(k, kPortable);
    const AffinePoint b1 = curve().mul_base(k, kAdx);
    EXPECT_EQ(b1.x, b0.x) << "mul_base #" << i;
    EXPECT_EQ(b1.y, b0.y) << "mul_base #" << i;
    const AffinePoint m0 = curve().mul(k, q, kPortable);
    const AffinePoint m1 = curve().mul(k, q, kAdx);
    EXPECT_EQ(m1.x, m0.x) << "mul #" << i;
    EXPECT_EQ(m1.y, m0.y) << "mul #" << i;
    const U256& k2 = scalars[(i + 5) % scalars.size()];
    const AffinePoint a0 = curve().mul_add(k, k2, q, kPortable);
    const AffinePoint a1 = curve().mul_add(k, k2, q, kAdx);
    EXPECT_EQ(a1.x, a0.x) << "mul_add #" << i;
    EXPECT_EQ(a1.y, a0.y) << "mul_add #" << i;
    EXPECT_EQ(a0.x, curve().mul_add_reference(k, k2, q).x) << "mul_add #" << i;
  }
}

TEST(P256, JacobianXComparisonCoversRPlusN) {
  // X = x * Z^2 for an affine x in [n, p): such an x reduces to r = x - n,
  // which only the (r + n) * Z^2 comparison can match. Z is random, so the
  // Jacobian form is not the affine one.
  const bn::BigInt p = big(Fp::kP);
  const bn::BigInt n = big(curve().order());
  crypto::Drbg rng("ec-jacobian-x", 0);
  for (int trial = 0; trial < 8; ++trial) {
    const bn::BigInt x = n + bn::BigInt::from_bytes(rng.bytes(32)) % (p - n);
    const U256 r = u256(x - n);
    const U256 z = Fp::to_mont(u256(bn::BigInt::from_bytes(rng.bytes(32)) % p));
    const U256 xj = Fp::mul(Fp::to_mont(u256(x)), Fp::sqr(z));
    EXPECT_TRUE(curve().jacobian_x_equals(xj, z, r)) << "trial " << trial;
    U256 r1 = r;
    r1.w[0] ^= 1;
    EXPECT_FALSE(curve().jacobian_x_equals(xj, z, r1)) << "trial " << trial;
    // x below n: only x itself matches, and x + n (>= p) is never tried.
    const bn::BigInt small = bn::BigInt::from_bytes(rng.bytes(32)) % n;
    const U256 xs = Fp::mul(Fp::to_mont(u256(small)), Fp::sqr(z));
    EXPECT_TRUE(curve().jacobian_x_equals(xs, z, u256(small))) << "trial " << trial;
    EXPECT_FALSE(curve().jacobian_x_equals(xs, z, u256((small + bn::BigInt(1)) % n)));
  }
  EXPECT_FALSE(curve().jacobian_x_equals(U256{}, U256{}, U256{}));  // infinity
}

TEST(Mont, InvVartimeMatchesFermat) {
  const Mont& fn = curve().scalar_field();
  const bn::BigInt n = big(fn.modulus());
  std::vector<U256> ops = field_operands(n, "fn-inv", 200);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const U256& a = ops[i];
    if (a.is_zero()) continue;
    ASSERT_EQ(fn.inv_vartime(a), u256(big(a).mod_inverse(n))) << "#" << i;
    ASSERT_EQ(fn.to_mont(fn.inv_vartime(a)), fn.inv(fn.to_mont(a))) << "#" << i;
  }
}

TEST(Mont, ScalarFieldMatchesBigIntOracle) {
  const Mont& fn = curve().scalar_field();
  const bn::BigInt n = big(fn.modulus());
  const Radix rad(n);
  EXPECT_EQ(fn.one_mont(), u256(rad.r));
  const std::vector<U256> ops = field_operands(n, "fn-oracle", kRandomOperands);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const U256& a = ops[i];
    const U256& b = ops[(i + 1) % ops.size()];
    const bn::BigInt x = big(a);
    const bn::BigInt y = big(b);
    ASSERT_EQ(fn.add(a, b), u256((x + y) % n)) << "add #" << i;
    ASSERT_EQ(fn.sub(a, b), u256((x + n - y) % n)) << "sub #" << i;
    ASSERT_EQ(fn.mul(a, b), u256(x * y * rad.r_inv % n)) << "mul #" << i;
    ASSERT_EQ(fn.to_mont(a), u256(x * rad.r % n)) << "to_mont #" << i;
    ASSERT_EQ(fn.from_mont(a), u256(x * rad.r_inv % n)) << "from_mont #" << i;
    if (!x.is_zero() && i % 10 == 0) {
      ASSERT_EQ(fn.inv(a), u256(x.mod_inverse(n) * rad.r2 % n)) << "inv #" << i;
    }
  }
  // reduce_once takes any 256-bit value (all of them are below 2n).
  const U256 wide[] = {U256{{~0ull, ~0ull, ~0ull, ~0ull}}, fn.modulus(),
                       U256{{fn.modulus().w[0] + 1, fn.modulus().w[1], fn.modulus().w[2],
                             fn.modulus().w[3]}},
                       ops[3], ops[100]};
  for (const U256& a : wide) EXPECT_EQ(fn.reduce_once(a), u256(big(a) % n));
}

TEST(U256, BytesRoundTrip) {
  crypto::Drbg rng("u256", 0);
  const Bytes b = rng.bytes(32);
  EXPECT_EQ(U256::from_bytes(b).to_bytes(), b);
  EXPECT_THROW(U256::from_bytes(Bytes(31, 0)), std::invalid_argument);
}

}  // namespace
}  // namespace mbtls::ec
