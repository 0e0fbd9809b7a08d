// Ablations and crypto microbenchmarks (google-benchmark).
//
// Design choices DESIGN.md calls out, measured in isolation:
//  * per-hop re-protection (open + seal) vs plain forwarding per record
//  * Encapsulated-record overhead (bytes and CPU)
//  * the cost of adding an SGX attestation to a handshake
//  * session resumption vs full handshake
//  * enclave transition cost
// plus throughput baselines for the primitives (AES-GCM, SHA-256, P-256,
// RSA-2048, the TLS PRF).
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "mbtls/cache.h"
#include "mbtls/client.h"
#include "mbtls/middlebox.h"
#include "mbtls/server.h"
#include "tls/prf.h"

namespace mbtls::bench {
namespace {

// ------------------------------------------------------------- primitives

void BM_Sha256(benchmark::State& state) {
  crypto::Drbg r("bm-sha", 0);
  const Bytes data = r.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesGcmSeal(benchmark::State& state) {
  crypto::Drbg r("bm-gcm", 0);
  const crypto::AesGcm gcm(r.bytes(32));
  const Bytes iv = r.bytes(12);
  const Bytes data = r.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.seal(iv, {}, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(512)->Arg(4096)->Arg(16384);

void BM_EcdhP256(benchmark::State& state) {
  crypto::Drbg r("bm-ecdh", 0);
  const auto a = ec::ecdh_generate(r);
  const auto b = ec::ecdh_generate(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::ecdh_shared_secret(a, b.public_point));
  }
}
BENCHMARK(BM_EcdhP256);

void BM_EcdsaSign(benchmark::State& state) {
  crypto::Drbg r("bm-ecdsa", 0);
  const auto key = ec::ecdsa_generate(r);
  const Bytes msg = r.bytes(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::ecdsa_sign(key, crypto::HashAlgo::kSha256, msg, r));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_Rsa2048Sign(benchmark::State& state) {
  static const rsa::RsaKeyPair key = [] {
    crypto::Drbg r("bm-rsa", 0);
    return rsa::rsa_generate(2048, r);
  }();
  crypto::Drbg r("bm-rsa-msg", 0);
  const Bytes msg = r.bytes(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa::rsa_sign(key, crypto::HashAlgo::kSha256, msg));
  }
}
BENCHMARK(BM_Rsa2048Sign);

void BM_TlsPrf(benchmark::State& state) {
  crypto::Drbg r("bm-prf", 0);
  const Bytes secret = r.bytes(48);
  const Bytes seed = r.bytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tls::prf(crypto::HashAlgo::kSha384, secret, "key expansion", seed, 72));
  }
}
BENCHMARK(BM_TlsPrf);

// -------------------------------------------------------------- ablations

void BM_HopReprotect(benchmark::State& state) {
  // Ablation: the cost a middlebox pays per record for unique per-hop keys
  // (open with hop A, seal with hop B) vs forwarding opaque bytes.
  crypto::Drbg r("bm-hop", 0);
  const auto in_keys = mb::generate_hop_keys(32, r);
  const auto out_keys = mb::generate_hop_keys(32, r);
  const Bytes payload = r.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    tls::HopChannel sender({in_keys.client_to_server_key, in_keys.client_to_server_iv}, 0);
    mb::HopDuplex in(in_keys, 32), out(out_keys, 32);
    Bytes rec = sender.seal(tls::ContentType::kApplicationData, payload);
    const MutableByteView body = MutableByteView(rec).subspan(tls::kRecordHeaderSize);
    Bytes wire;
    wire.reserve(rec.size());  // a middlebox's output buffer keeps its capacity
    state.ResumeTiming();
    auto opened = in.c2s().open_in_place(tls::ContentType::kApplicationData, body);
    out.c2s().seal_into(tls::ContentType::kApplicationData, *opened, wire);
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HopReprotect)->Arg(1024)->Arg(8192)->Arg(16384);

void BM_ForwardOnly(benchmark::State& state) {
  crypto::Drbg r("bm-fwd", 0);
  const Bytes record = r.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes copy(record.begin(), record.end());
    benchmark::DoNotOptimize(copy);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ForwardOnly)->Arg(1024)->Arg(8192)->Arg(16384);

void BM_EncapsulationOverhead(benchmark::State& state) {
  // Wrapping a record in an Encapsulated record: 1 subchannel byte + a new
  // 5-byte outer header.
  crypto::Drbg r("bm-encap", 0);
  const Bytes inner = tls::frame_plaintext_record(tls::ContentType::kHandshake, r.bytes(512));
  for (auto _ : state) {
    tls::EncapsulatedRecord enc;
    enc.subchannel = 3;
    enc.inner_record = inner;
    benchmark::DoNotOptimize(
        tls::frame_plaintext_record(tls::ContentType::kMbtlsEncapsulated, enc.encode()));
  }
}
BENCHMARK(BM_EncapsulationOverhead);

void BM_EnclaveTransition(benchmark::State& state) {
  sgx::Platform platform;
  platform.set_transition_cost(static_cast<std::uint64_t>(state.range(0)));
  sgx::Enclave& enclave = platform.launch("bm");
  for (auto _ : state) {
    enclave.ecall([] {});
  }
}
BENCHMARK(BM_EnclaveTransition)->Arg(0)->Arg(8000);

void BM_Quote(benchmark::State& state) {
  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("bm-quote");
  crypto::Drbg r("bm-quote", 0);
  const Bytes rd = r.bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enclave.quote(rd));
  }
}
BENCHMARK(BM_Quote);

// Full-handshake vs resumption vs attested handshake (end to end, both
// parties' work, over in-memory pipes).
struct HandshakeFixtures {
  Identity id = make_identity("bm.example", x509::KeyType::kEcdsaP256);
  mb::ShardedSessionCache client_cache, server_cache;
  sgx::Platform platform;
  sgx::Enclave* enclave = &platform.launch("bm-attested-server");
};

HandshakeFixtures& fixtures() {
  static HandshakeFixtures f;
  return f;
}

void pump_pair(tls::Engine& client, tls::Engine& server) {
  client.start();
  for (int i = 0; i < 20; ++i) {
    const Bytes a = client.take_output();
    const Bytes b = server.take_output();
    if (a.empty() && b.empty()) break;
    if (!a.empty()) server.feed(a);
    if (!b.empty()) client.feed(b);
  }
  if (!client.handshake_done()) std::abort();
}

void BM_HandshakeFull(benchmark::State& state) {
  auto& f = fixtures();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    tls::Config ccfg;
    ccfg.trust_anchors = {ca().root()};
    ccfg.server_name = "bm.example";
    ccfg.rng_seed = seed++;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = f.id.key;
    scfg.certificate_chain = f.id.chain;
    scfg.rng_seed = seed++;
    tls::Engine client(ccfg), server(scfg);
    pump_pair(client, server);
  }
}
BENCHMARK(BM_HandshakeFull);

void BM_HandshakeResumed(benchmark::State& state) {
  auto& f = fixtures();
  // Seed the caches once.
  {
    tls::Config ccfg;
    ccfg.trust_anchors = {ca().root()};
    ccfg.server_name = "bm.example";
    ccfg.session_cache = &f.client_cache;
    ccfg.offer_resumption = true;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = f.id.key;
    scfg.certificate_chain = f.id.chain;
    scfg.session_cache = &f.server_cache;
    tls::Engine client(ccfg), server(scfg);
    pump_pair(client, server);
  }
  std::uint64_t seed = 100;
  for (auto _ : state) {
    tls::Config ccfg;
    ccfg.trust_anchors = {ca().root()};
    ccfg.server_name = "bm.example";
    ccfg.session_cache = &f.client_cache;
    ccfg.offer_resumption = true;
    ccfg.rng_seed = seed++;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = f.id.key;
    scfg.certificate_chain = f.id.chain;
    scfg.session_cache = &f.server_cache;
    scfg.rng_seed = seed++;
    tls::Engine client(ccfg), server(scfg);
    pump_pair(client, server);
    if (!client.resumed()) std::abort();
  }
}
BENCHMARK(BM_HandshakeResumed);

void BM_HandshakeAttested(benchmark::State& state) {
  auto& f = fixtures();
  std::uint64_t seed = 10'000;
  for (auto _ : state) {
    tls::Config ccfg;
    ccfg.trust_anchors = {ca().root()};
    ccfg.server_name = "bm.example";
    ccfg.request_attestation = true;
    ccfg.rng_seed = seed++;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = f.id.key;
    scfg.certificate_chain = f.id.chain;
    scfg.enclave = f.enclave;
    scfg.rng_seed = seed++;
    tls::Engine client(ccfg), server(scfg);
    pump_pair(client, server);
    if (!client.peer_attested()) std::abort();
  }
}
BENCHMARK(BM_HandshakeAttested);

// Full mbTLS session setup (client + one middlebox + server, all parties'
// work) — full handshakes vs all-abbreviated resumption (§3.5).
struct MbtlsRig {
  Identity server_id = make_identity("bm-mb.example", x509::KeyType::kEcdsaP256);
  Identity mbox_id = make_identity("bm-mbox.example", x509::KeyType::kEcdsaP256);
  mb::ShardedSessionCache client_cache, server_cache, mbox_cache;

  bool run(std::uint64_t seed, bool offer_resumption) {
    mb::ClientSession::Options copts;
    copts.tls.trust_anchors = {ca().root()};
    copts.tls.server_name = "bm-mb.example";
    copts.tls.rng_seed = seed;
    copts.tls.session_cache = &client_cache;
    copts.tls.offer_resumption = offer_resumption;
    mb::ClientSession client(std::move(copts));
    mb::ServerSession::Options sopts;
    sopts.tls.private_key = server_id.key;
    sopts.tls.certificate_chain = server_id.chain;
    sopts.tls.rng_seed = seed + 1;
    sopts.tls.session_cache = &server_cache;
    mb::ServerSession server(std::move(sopts));
    mb::Middlebox::Options mopts;
    mopts.name = "bm-mbox.example";
    mopts.private_key = mbox_id.key;
    mopts.certificate_chain = mbox_id.chain;
    mopts.session_cache = &mbox_cache;
    mb::Middlebox mbox(std::move(mopts));
    client.start();
    for (int i = 0; i < 100; ++i) {
      bool moved = false;
      Bytes a = client.take_output();
      if (!a.empty()) {
        moved = true;
        mbox.feed_from_client(a);
      }
      Bytes b = mbox.take_to_server();
      if (!b.empty()) {
        moved = true;
        server.feed(b);
      }
      Bytes sv = server.take_output();
      if (!sv.empty()) {
        moved = true;
        mbox.feed_from_server(sv);
      }
      Bytes d = mbox.take_to_client();
      if (!d.empty()) {
        moved = true;
        client.feed(d);
      }
      if (!moved) break;
    }
    if (!client.established() || !server.established()) std::abort();
    return mbox.resumed();
  }
};

MbtlsRig& mbtls_rig() {
  static MbtlsRig rig;
  return rig;
}

void BM_MbtlsSessionSetupFull(benchmark::State& state) {
  auto& rig = mbtls_rig();
  std::uint64_t seed = 50'000;
  for (auto _ : state) {
    rig.client_cache.clear();
    rig.server_cache.clear();
    rig.mbox_cache.clear();
    rig.run(seed += 3, false);
  }
}
BENCHMARK(BM_MbtlsSessionSetupFull);

void BM_MbtlsSessionSetupResumed(benchmark::State& state) {
  auto& rig = mbtls_rig();
  rig.client_cache.clear();
  rig.server_cache.clear();
  rig.mbox_cache.clear();
  rig.run(60'000, true);  // populate caches
  std::uint64_t seed = 60'100;
  for (auto _ : state) {
    if (!rig.run(seed += 3, true)) std::abort();  // must actually resume
  }
}
BENCHMARK(BM_MbtlsSessionSetupResumed);

}  // namespace
}  // namespace mbtls::bench

BENCHMARK_MAIN();
