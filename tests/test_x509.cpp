// X.509 issuance, parsing, signature verification, hostname matching, and
// chain validation — including the failure modes the legacy-interop
// experiment (§5.1) relies on (expired / invalid certificates).
#include <gtest/gtest.h>

#include "util/reader.h"
#include "x509/certificate.h"
#include "x509/verify.h"

namespace mbtls::x509 {
namespace {

crypto::Drbg& rng() {
  static crypto::Drbg r("x509-tests", 0);
  return r;
}

// Shared CAs (RSA keygen is slow; build once).
const CertificateAuthority& ecdsa_ca() {
  static const CertificateAuthority ca =
      CertificateAuthority::create("Test ECDSA Root", KeyType::kEcdsaP256, rng());
  return ca;
}

const CertificateAuthority& rsa_ca() {
  static const CertificateAuthority ca =
      CertificateAuthority::create("Test RSA Root", KeyType::kRsa, rng());
  return ca;
}

CertRequest leaf_request(const std::string& cn, const PublicKey& key) {
  CertRequest req;
  req.subject_cn = cn;
  req.san_dns = {cn};
  req.not_before = 0;
  req.not_after = 2524607999;  // 2049-12-31, the UTCTime limit
  req.key = key;
  return req;
}

TEST(X509, RootIsSelfSignedCa) {
  const Certificate& root = ecdsa_ca().root();
  EXPECT_TRUE(root.info().is_ca);
  EXPECT_EQ(root.info().subject_cn, "Test ECDSA Root");
  EXPECT_EQ(root.info().issuer_cn, "Test ECDSA Root");
  EXPECT_TRUE(root.verify_signature(root.info().key));
}

TEST(X509, ParseRoundTripPreservesFields) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  CertRequest req = leaf_request("server.example.com", key.public_key());
  req.san_dns = {"server.example.com", "*.alt.example.com"};
  const Certificate cert = ecdsa_ca().issue(req, rng());

  const Certificate reparsed = Certificate::parse(cert.der());
  EXPECT_EQ(reparsed.info().subject_cn, "server.example.com");
  EXPECT_EQ(reparsed.info().issuer_cn, "Test ECDSA Root");
  EXPECT_EQ(reparsed.info().san_dns,
            (std::vector<std::string>{"server.example.com", "*.alt.example.com"}));
  EXPECT_FALSE(reparsed.info().is_ca);
  EXPECT_EQ(reparsed.info().not_after, 2524607999);
}

TEST(X509, EcdsaLeafSignatureVerifies) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  const Certificate cert = ecdsa_ca().issue(leaf_request("a.example", key.public_key()), rng());
  EXPECT_TRUE(cert.verify_signature(ecdsa_ca().root().info().key));
  // Wrong issuer key fails.
  EXPECT_FALSE(cert.verify_signature(key.public_key()));
}

TEST(X509, RsaLeafSignatureVerifies) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  const Certificate cert = rsa_ca().issue(leaf_request("b.example", key.public_key()), rng());
  EXPECT_TRUE(cert.verify_signature(rsa_ca().root().info().key));
}

TEST(X509, TamperedCertificateFailsVerification) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  const Certificate cert = ecdsa_ca().issue(leaf_request("t.example", key.public_key()), rng());
  Bytes der = to_bytes(cert.der());
  // Flip a byte inside the subject name region; the parse may still succeed
  // but the signature must not verify.
  for (std::size_t at = 40; at < 80; at += 13) {
    Bytes mutated = der;
    mutated[at] ^= 0x01;
    try {
      const Certificate bad = Certificate::parse(mutated);
      EXPECT_FALSE(bad.verify_signature(ecdsa_ca().root().info().key)) << "offset " << at;
    } catch (const DecodeError&) {
      // Also an acceptable outcome.
    }
  }
}

TEST(X509, HostnameMatching) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  CertRequest req = leaf_request("www.example.com", key.public_key());
  req.san_dns = {"www.example.com", "*.cdn.example.com"};
  const Certificate cert = ecdsa_ca().issue(req, rng());
  EXPECT_TRUE(cert.matches_hostname("www.example.com"));
  EXPECT_TRUE(cert.matches_hostname("edge1.cdn.example.com"));
  EXPECT_FALSE(cert.matches_hostname("example.com"));
  EXPECT_FALSE(cert.matches_hostname("a.b.cdn.example.com"));  // wildcard is single-label
  EXPECT_FALSE(cert.matches_hostname("evil.com"));
}

TEST(X509, HostnameFallsBackToCnWithoutSans) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  CertRequest req = leaf_request("cn-only.example", key.public_key());
  req.san_dns.clear();
  const Certificate cert = ecdsa_ca().issue(req, rng());
  EXPECT_TRUE(cert.matches_hostname("cn-only.example"));
  EXPECT_FALSE(cert.matches_hostname("other.example"));
}

TEST(X509, ChainVerifyOk) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  const Certificate leaf = ecdsa_ca().issue(leaf_request("ok.example", key.public_key()), rng());
  const Certificate anchors[] = {ecdsa_ca().root()};
  const Certificate chain[] = {leaf};
  VerifyOptions opts{.now = 1500000000, .hostname = "ok.example"};
  EXPECT_EQ(verify_chain(chain, anchors, opts), VerifyStatus::kOk);
}

TEST(X509, ChainVerifyWithIntermediate) {
  // Root -> intermediate CA -> leaf.
  const PrivateKey inter_key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  CertRequest inter_req = leaf_request("Intermediate CA", inter_key.public_key());
  inter_req.is_ca = true;
  const Certificate inter = ecdsa_ca().issue(inter_req, rng());

  const PrivateKey leaf_key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  const Certificate leaf =
      issue_certificate(leaf_request("deep.example", leaf_key.public_key()), "Intermediate CA",
                        inter_key, crypto::HashAlgo::kSha256, bn::BigInt(99), rng());

  const Certificate anchors[] = {ecdsa_ca().root()};
  const Certificate chain[] = {leaf, inter};
  VerifyOptions opts{.now = 1500000000, .hostname = "deep.example"};
  EXPECT_EQ(verify_chain(chain, anchors, opts), VerifyStatus::kOk);
}

TEST(X509, ChainSignatureChecksGoThroughTheHook) {
  // verify_chain hands each signature check (leaf under intermediate,
  // intermediate under anchor) to the caller's check, and its verdict is
  // final; dates and names are still checked first.
  const PrivateKey inter_key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  CertRequest inter_req = leaf_request("Hook Intermediate", inter_key.public_key());
  inter_req.is_ca = true;
  const Certificate inter = ecdsa_ca().issue(inter_req, rng());
  const PrivateKey leaf_key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  const Certificate leaf =
      issue_certificate(leaf_request("hook.example", leaf_key.public_key()), "Hook Intermediate",
                        inter_key, crypto::HashAlgo::kSha256, bn::BigInt(98), rng());
  const Certificate anchors[] = {ecdsa_ca().root()};
  const Certificate chain[] = {leaf, inter};
  const VerifyOptions opts{.now = 1500000000, .hostname = "hook.example"};

  std::vector<std::string> checked;
  const SignatureCheck counting = [&checked](const Certificate& cert, const PublicKey& key) {
    checked.push_back(cert.info().subject_cn);
    return cert.verify_signature(key);
  };
  EXPECT_EQ(verify_chain(chain, anchors, opts, counting), VerifyStatus::kOk);
  EXPECT_EQ(checked, (std::vector<std::string>{"hook.example", "Hook Intermediate"}));

  const SignatureCheck refuse = [](const Certificate&, const PublicKey&) { return false; };
  EXPECT_EQ(verify_chain(chain, anchors, opts, refuse), VerifyStatus::kBadSignature);
  const VerifyOptions expired{.now = 2524608000, .hostname = "hook.example"};
  checked.clear();
  EXPECT_EQ(verify_chain(chain, anchors, expired, counting), VerifyStatus::kExpired);
  EXPECT_TRUE(checked.empty());
}

TEST(X509, ChainVerifyFailures) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());

  CertRequest expired = leaf_request("expired.example", key.public_key());
  expired.not_after = 1000;  // long past
  const Certificate expired_cert = ecdsa_ca().issue(expired, rng());

  CertRequest future = leaf_request("future.example", key.public_key());
  future.not_before = 2524600000;
  const Certificate future_cert = ecdsa_ca().issue(future, rng());

  const Certificate ok_cert = ecdsa_ca().issue(leaf_request("ok.example", key.public_key()), rng());

  const Certificate anchors[] = {ecdsa_ca().root()};
  VerifyOptions opts{.now = 1500000000, .hostname = ""};

  {
    const Certificate chain[] = {expired_cert};
    EXPECT_EQ(verify_chain(chain, anchors, opts), VerifyStatus::kExpired);
  }
  {
    const Certificate chain[] = {future_cert};
    EXPECT_EQ(verify_chain(chain, anchors, opts), VerifyStatus::kNotYetValid);
  }
  {
    const Certificate chain[] = {ok_cert};
    VerifyOptions host_opts{.now = 1500000000, .hostname = "wrong.example"};
    EXPECT_EQ(verify_chain(chain, anchors, host_opts), VerifyStatus::kHostnameMismatch);
  }
  {
    // No anchors -> unknown issuer.
    EXPECT_EQ(verify_chain(std::span<const Certificate>(&ok_cert, 1), {}, opts),
              VerifyStatus::kUnknownIssuer);
  }
  {
    EXPECT_EQ(verify_chain(std::span<const Certificate>{}, anchors, opts), VerifyStatus::kEmptyChain);
  }
  {
    // Anchor with matching name but wrong key -> bad signature.
    crypto::Drbg other_rng("other-ca", 0);
    const CertificateAuthority impostor =
        CertificateAuthority::create("Test ECDSA Root", KeyType::kEcdsaP256, other_rng);
    const Certificate bad_anchors[] = {impostor.root()};
    const Certificate chain[] = {ok_cert};
    EXPECT_EQ(verify_chain(chain, bad_anchors, opts), VerifyStatus::kBadSignature);
  }
}

TEST(X509, NonCaCannotAnchor) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  const Certificate leaf = ecdsa_ca().issue(leaf_request("x.example", key.public_key()), rng());
  // A leaf pretending to be an anchor with the right name but is_ca=false.
  CertRequest fake = leaf_request("Test ECDSA Root", key.public_key());
  const Certificate fake_anchor = ecdsa_ca().issue(fake, rng());
  const Certificate anchors[] = {fake_anchor};
  const Certificate chain[] = {leaf};
  VerifyOptions opts;
  opts.now = 1500000000;
  EXPECT_EQ(verify_chain(chain, anchors, opts), VerifyStatus::kUnknownIssuer);
}

TEST(X509, SpkiRoundTrip) {
  const PrivateKey ec_key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  const auto ec_back = PublicKey::from_spki(ec_key.public_key().spki_der());
  ASSERT_TRUE(ec_back.has_value());
  EXPECT_EQ(ec_back->type(), KeyType::kEcdsaP256);

  const auto& rsa_pub = rsa_ca().key().public_key();
  const auto rsa_back = PublicKey::from_spki(rsa_pub.spki_der());
  ASSERT_TRUE(rsa_back.has_value());
  EXPECT_EQ(rsa_back->type(), KeyType::kRsa);
  EXPECT_EQ(rsa_back->rsa().n, rsa_pub.rsa().n);
}

TEST(X509, EcdsaDerSignatureCodec) {
  const Bytes raw(64, 0x42);
  const Bytes der = ecdsa_sig_to_der(raw);
  const auto back = ecdsa_sig_from_der(der);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, raw);
  EXPECT_FALSE(ecdsa_sig_from_der(Bytes{0x30, 0x00}).has_value());
}

TEST(X509, SerialNumbersIncrement) {
  const PrivateKey key = PrivateKey::generate(KeyType::kEcdsaP256, rng());
  const Certificate c1 = ecdsa_ca().issue(leaf_request("s1.example", key.public_key()), rng());
  const Certificate c2 = ecdsa_ca().issue(leaf_request("s2.example", key.public_key()), rng());
  EXPECT_NE(c1.info().serial, c2.info().serial);
}

}  // namespace
}  // namespace mbtls::x509
