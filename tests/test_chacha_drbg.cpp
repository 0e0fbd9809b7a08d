// ChaCha20 known answer from RFC 8439 §2.4.2 and DRBG determinism /
// distribution properties.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "util/hex.h"

namespace mbtls::crypto {
namespace {

TEST(ChaCha20, Rfc8439Example) {
  const Bytes key = hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = hex_decode("000000000000004a00000000");
  const auto pt = to_bytes(std::string_view(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it."));
  ChaCha20 cipher(key, nonce, 1);
  Bytes ct = pt;
  cipher.crypt(ct);
  EXPECT_EQ(hex_encode(ByteView(ct).first(32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  const Bytes key(32, 7);
  const Bytes nonce(12, 9);
  const Bytes pt = to_bytes(std::string_view("round trip message"));
  ChaCha20 enc(key, nonce);
  Bytes ct = pt;
  enc.crypt(ct);
  EXPECT_NE(ct, pt);
  ChaCha20 dec(key, nonce);
  dec.crypt(ct);
  EXPECT_EQ(ct, pt);
}

TEST(ChaCha20, RejectsBadParams) {
  EXPECT_THROW(ChaCha20(Bytes(31, 0), Bytes(12, 0)), std::invalid_argument);
  EXPECT_THROW(ChaCha20(Bytes(32, 0), Bytes(11, 0)), std::invalid_argument);
}

TEST(Drbg, DeterministicFromSeed) {
  Drbg a("seed", 1);
  Drbg b("seed", 1);
  EXPECT_EQ(a.bytes(64), b.bytes(64));
}

TEST(Drbg, FillIgnoresPriorBufferContents) {
  // Regression: fill() once XORed keystream into whatever the caller's
  // buffer held, so u32()/real() — which pass an uninitialized stack
  // array — were garbage-dependent on their first draw. fill() must
  // deliver raw keystream, equal to bytes(), for any prior contents.
  Drbg a("fill", 3);
  Drbg b("fill", 3);
  Bytes zeroed(16, 0x00), dirty(16, 0xff);
  a.fill(zeroed);
  b.fill(dirty);
  EXPECT_EQ(zeroed, dirty);
  EXPECT_EQ(zeroed, Drbg("fill", 3).bytes(16));

  // Hence derived draws are seed-deterministic from the very first call.
  Drbg c("fill", 4);
  Drbg d("fill", 4);
  EXPECT_EQ(c.u32(), d.u32());
  EXPECT_EQ(c.real(), d.real());
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a("seed", 1);
  Drbg b("seed", 2);
  EXPECT_NE(a.bytes(64), b.bytes(64));
}

TEST(Drbg, UniformBoundsRespected) {
  Drbg rng("uniform", 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  // All residues should appear over enough draws.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Drbg, RealInUnitInterval) {
  Drbg rng("real", 0);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 2000, 0.5, 0.05);  // crude mean check
}

TEST(Drbg, ForkProducesIndependentStreams) {
  Drbg parent("fork", 0);
  Drbg child1 = parent.fork("a");
  Drbg child2 = parent.fork("a");  // same label, later fork point
  EXPECT_NE(child1.bytes(32), child2.bytes(32));

  // Forks are reproducible given identical parent history.
  Drbg parent2("fork", 0);
  Drbg child1b = parent2.fork("a");
  EXPECT_EQ(Drbg("fork", 0).fork("a").bytes(32), child1b.bytes(32));
}

TEST(DrbgThreading, ForkPerWorkerMatchesSingleThreadedDraws) {
  // The sanctioned multi-threaded discipline: fork() a child per worker,
  // rebind it on the worker thread, draw there. The sequence must equal the
  // same child drawn on one thread.
  Drbg parent_a(ByteView(reinterpret_cast<const std::uint8_t*>("seed"), 4));
  Drbg parent_b(ByteView(reinterpret_cast<const std::uint8_t*>("seed"), 4));
  Drbg child_ref = parent_a.fork("worker-0");
  const Bytes expected = child_ref.bytes(32);

  Drbg child = parent_b.fork("worker-0");
  Bytes got;
  std::thread worker([&] {
    child.rebind_owner_thread();
    got = child.bytes(32);
  });
  worker.join();
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace mbtls::crypto
