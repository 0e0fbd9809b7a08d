// Robustness / property hardening across modules: parser fuzzing (no
// crashes on arbitrary input), algebraic cross-checks of the arithmetic
// fast paths, and adversarial reordering across two middleboxes.
#include <gtest/gtest.h>

#include "bignum/bignum.h"
#include "bignum/prime.h"
#include "http/http.h"
#include "mbtls/cache.h"
#include "tests/mbtls_test_util.h"
#include "x509/certificate.h"

namespace mbtls {
namespace {

TEST(Hardening, CertificateParserSurvivesRandomDer) {
  crypto::Drbg rng("x509-fuzz", 0);
  int parsed = 0;
  for (int i = 0; i < 500; ++i) {
    Bytes junk = rng.bytes(rng.uniform(200) + 1);
    if (i % 3 == 0) junk[0] = 0x30;  // make it look like a SEQUENCE
    try {
      (void)x509::Certificate::parse(junk);
      ++parsed;  // vanishingly unlikely, but not an error per se
    } catch (const DecodeError&) {
    } catch (const std::out_of_range&) {
    }
  }
  EXPECT_EQ(parsed, 0);
}

TEST(Hardening, MutatedCertificateNeverVerifies) {
  // Take a real certificate, mutate one byte at every offset: either the
  // parse fails or the signature check fails. No mutation may verify.
  crypto::Drbg rng("x509-mut", 0);
  const auto ca = x509::CertificateAuthority::create("Mut CA", x509::KeyType::kEcdsaP256, rng);
  const auto key = x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, rng);
  x509::CertRequest req;
  req.subject_cn = "victim.example";
  req.not_after = 2524607999;
  req.key = key.public_key();
  const auto cert = ca.issue(req, rng);
  const Bytes der = to_bytes(cert.der());
  int verified_mutants = 0;
  for (std::size_t at = 0; at < der.size(); ++at) {
    Bytes mutated = der;
    mutated[at] ^= 0x01;
    try {
      const auto parsed = x509::Certificate::parse(mutated);
      if (parsed.verify_signature(ca.root().info().key)) ++verified_mutants;
    } catch (const DecodeError&) {
    } catch (const std::out_of_range&) {
    } catch (const std::invalid_argument&) {
    }
  }
  EXPECT_EQ(verified_mutants, 0);
}

TEST(Hardening, MontgomeryModexpMatchesNaiveOnRandomInputs) {
  crypto::Drbg rng("mont-cross", 0);
  for (int trial = 0; trial < 20; ++trial) {
    // Odd modulus (Montgomery path) vs naive square-and-multiply.
    bn::BigInt m = bn::random_bits(192, rng);
    if (!m.is_odd()) m = m + bn::BigInt(1);
    const bn::BigInt base = bn::random_bits(150, rng);
    const std::uint64_t e = rng.uniform(64) + 1;
    bn::BigInt naive(1);
    for (std::uint64_t i = 0; i < e; ++i) naive = (naive * base) % m;
    EXPECT_EQ(base.mod_exp(bn::BigInt(e), m), naive) << "trial " << trial;
  }
}

TEST(Hardening, EcScalarMulMatchesAdditionChains) {
  // k*G computed by double-and-add must equal (k-1)*G + G for random k.
  const auto& curve = ec::P256::instance();
  crypto::Drbg rng("ec-chain", 0);
  for (int trial = 0; trial < 5; ++trial) {
    ec::U256 k = curve.random_scalar(rng);
    // Derive k-1 (k is nonzero).
    ec::U256 k_minus_1 = k;
    for (int i = 0; i < 4; ++i) {
      if (k_minus_1.w[static_cast<std::size_t>(i)]-- != 0) break;
    }
    const auto kg = curve.mul_base(k);
    const auto sum = curve.mul_add(k_minus_1, ec::U256{{1, 0, 0, 0}}, curve.generator());
    EXPECT_EQ(sum.x, kg.x) << "trial " << trial;
    EXPECT_EQ(sum.y, kg.y);
  }
}

TEST(Hardening, HttpParserSurvivesRandomBytes) {
  crypto::Drbg rng("http-fuzz", 0);
  http::RequestParser rp;
  http::ResponseParser sp;
  for (int i = 0; i < 200; ++i) {
    const Bytes junk = rng.bytes(rng.uniform(400));
    (void)rp.feed(junk);
    (void)sp.feed(junk);
  }
  SUCCEED();
}

TEST(Hardening, QuoteDecoderSurvivesRandomBytes) {
  crypto::Drbg rng("quote-fuzz", 0);
  for (int i = 0; i < 300; ++i) {
    (void)sgx::Enclave::QuoteData::decode(rng.bytes(rng.uniform(150)));
  }
  SUCCEED();
}

TEST(Hardening, ReorderedMiddleboxesDetected) {
  // P4 again, but the *reorder* variant: with two client-side middleboxes
  // A (adjacent to client) and B, an attacker delivers the client's record
  // directly to B (as if A had already processed it). B must reject it —
  // its inbound hop key is the A-B key, not the client-A key.
  using namespace mb::testing;
  const auto id = make_identity("reorder.example");
  mb::ClientSession client(client_options("reorder.example"));
  mb::ServerSession server(server_options(id));
  mb::Middlebox a(middlebox_options("a.example", mb::Middlebox::Side::kClientSide));
  mb::Middlebox b(middlebox_options("b.example", mb::Middlebox::Side::kClientSide));
  Chain chain{.client = &client, .middleboxes = {&a, &b}, .server = &server};
  client.start();
  chain.pump(400);
  ASSERT_TRUE(client.established()) << client.error_message();

  client.send(to_bytes(std::string_view("must visit A first")));
  const Bytes record = client.take_output();
  const auto before = b.auth_failures();
  b.feed_from_client(record);  // skipping A
  EXPECT_EQ(b.auth_failures(), before + 1);
  EXPECT_TRUE(b.take_to_server().empty());
}

TEST(Hardening, SessionCacheClearAndSize) {
  mb::ShardedSessionCache cache;
  tls::SessionState s;
  s.session_id = Bytes(32, 1);
  cache.store_by_id(s);
  cache.store_by_peer("host", s);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup_by_id(s.session_id).has_value());
}

}  // namespace
}  // namespace mbtls
