// Hot-path crypto microbenchmarks: fast vs reference implementations.
//
// Every optimized primitive ships alongside the reference implementation it
// was differentially tested against (see MBTLS_REFERENCE_CRYPTO), so this
// binary can measure both in one process and report the speedup directly:
//   * P-256 scalar multiplication — fixed-window comb (mul_base), fixed
//     window with per-point table (mul), Shamir interleaving (mul_add) vs
//     the plain double-and-add ladder,
//   * AES-GCM seal/open — 4-block interleaved CTR + word XOR + table GHASH
//     vs block-at-a-time CTR with bit-serial GHASH, and each hardware width
//     (`_aesni`, `_vaes` rows, 64 B to 16 KiB) vs that scalar fast path,
//   * BigInt::mod_exp — sliding-window vs bit-at-a-time Montgomery ladder,
//   * the record layer — allocation-free seal_into vs the allocating seal.
//
// `--json PATH` writes the numbers machine-readably (BENCH_micro.json is the
// committed perf-regression baseline; scripts/bench.sh refreshes it);
// `--quick` shrinks the measurement budget for the bench_smoke ctest.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bignum/bignum.h"
#include "crypto/backend.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "ec/p256.h"
#include "tls/record.h"

namespace mbtls::bench {
namespace {

/// Seconds of measurement per primitive (after one warmup call).
double g_budget = 0.2;

/// Mean thread CPU time per call in microseconds, growing the iteration
/// count until the budget is filled (so fast and slow primitives are measured
/// with comparable noise). CPU time, not wall time, so a loaded host does not
/// skew the fast/reference speedups the smoke test gates on.
template <typename F>
double us_per_op(F&& f) {
  f();  // warmup
  long iters = 1;
  for (;;) {
    const std::int64_t t0 = thread_cpu_ns();
    for (long i = 0; i < iters; ++i) f();
    const double dt = static_cast<double>(thread_cpu_ns() - t0) / 1e9;
    if (dt >= g_budget || iters >= (1L << 30)) {
      return dt / static_cast<double>(iters) * 1e6;
    }
    const double target = dt > 0 ? g_budget / dt * 1.2 : 16.0;
    iters = static_cast<long>(static_cast<double>(iters) * std::min(target, 16.0)) + 1;
  }
}

struct Metric {
  std::string name;
  std::string unit;    // "us_per_op"/"ns_per_op" (lower better) or "mb_per_s" (higher better)
  double fast = 0;
  double reference = 0;
  double speedup = 0;  // always >1 means the fast path wins
};

void p256_metrics(std::vector<Metric>& out) {
  const auto& curve = ec::P256::instance();
  crypto::Drbg rng_local("bench-micro-p256", 1);
  const ec::U256 k1 = curve.random_scalar(rng_local);
  const ec::U256 k2 = curve.random_scalar(rng_local);
  const ec::AffinePoint q = curve.mul_base_reference(k2);

  Metric base{"p256_mul_base", "us_per_op", 0, 0, 0};
  base.fast = us_per_op([&] { (void)curve.mul_base(k1); });
  base.reference = us_per_op([&] { (void)curve.mul_base_reference(k1); });
  base.speedup = base.reference / base.fast;
  out.push_back(base);

  Metric mul{"p256_mul", "us_per_op", 0, 0, 0};
  mul.fast = us_per_op([&] { (void)curve.mul(k1, q); });
  mul.reference = us_per_op([&] { (void)curve.mul_reference(k1, q); });
  mul.speedup = mul.reference / mul.fast;
  out.push_back(mul);

  Metric ma{"p256_mul_add", "us_per_op", 0, 0, 0};
  ma.fast = us_per_op([&] { (void)curve.mul_add(k1, k2, q); });
  ma.reference = us_per_op([&] { (void)curve.mul_add_reference(k1, k2, q); });
  ma.speedup = ma.reference / ma.fast;
  out.push_back(ma);
}

/// One field multiply and square per kernel: `fast` is the MULX/ADX kernel
/// (the portable one again on CPUs without BMI2/ADX), `reference` the
/// portable Fp. A chain of dependent calls keeps each result live, so this
/// is latency, as in the point formulas' critical paths.
void p256_field_metrics(std::vector<Metric>& out) {
  constexpr int kChain = 256;
  crypto::Drbg rng_local("bench-micro-fp", 1);
  const ec::U256 y = ec::Fp::to_mont(ec::P256::instance().random_scalar(rng_local));
  const bool adx = ec::FpAdx::available();
  const auto ns = [&](auto&& op) {
    ec::U256 x = y;
    const double us = us_per_op([&] {
      for (int i = 0; i < kChain; ++i) x = op(x);
    });
    volatile std::uint64_t sink = x.w[0];
    (void)sink;
    return us * 1000.0 / kChain;
  };
  Metric mul{"p256_fp_mul", "ns_per_op", 0, 0, 0};
  mul.reference = ns([&](const ec::U256& x) { return ec::Fp::mul(x, y); });
  mul.fast = adx ? ns([&](const ec::U256& x) { return ec::FpAdx::mul(x, y); }) : mul.reference;
  mul.speedup = mul.reference / mul.fast;
  out.push_back(mul);
  Metric sqr{"p256_fp_sqr", "ns_per_op", 0, 0, 0};
  sqr.reference = ns([](const ec::U256& x) { return ec::Fp::sqr(x); });
  sqr.fast = adx ? ns([](const ec::U256& x) { return ec::FpAdx::sqr(x); }) : sqr.reference;
  sqr.speedup = sqr.reference / sqr.fast;
  out.push_back(sqr);
}

/// Forces a crypto backend for the enclosing scope (bench-local copy of the
/// test guard; backend choice is captured per AesGcm at construction).
class BackendGuard {
 public:
  explicit BackendGuard(crypto::Backend b) : saved_(crypto::active_backend()) {
    crypto::force_backend_for_testing(b);
  }
  ~BackendGuard() { crypto::force_backend_for_testing(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  crypto::Backend saved_;
};

void gcm_metrics(std::vector<Metric>& out) {
  // The committed aes_gcm_* floors predate the dispatch layer: they gauge
  // the scalar fast path (4-block CTR + table GHASH) against the bit-serial
  // reference. Pin the scalar backend here so those numbers keep meaning the
  // same thing on AES-NI hosts; gcm_accel_metrics covers the new backend.
  BackendGuard guard(crypto::Backend::kScalar);
  crypto::Drbg rng_local("bench-micro-gcm", 2);
  const crypto::AesGcm aead(rng_local.bytes(32));
  const Bytes iv = rng_local.bytes(12);
  const Bytes aad = rng_local.bytes(13);

  for (const std::size_t size : {std::size_t{1500}, std::size_t{8192}}) {
    const Bytes plaintext = rng_local.bytes(size);
    Bytes scratch(size + crypto::AesGcm::kTagSize);

    Metric seal{"aes_gcm_seal_" + std::to_string(size), "mb_per_s", 0, 0, 0};
    const double fast_us = us_per_op([&] { aead.seal_into(iv, aad, plaintext, scratch); });
    const double ref_us = us_per_op([&] { (void)aead.seal_reference(iv, aad, plaintext); });
    seal.fast = static_cast<double>(size) / fast_us;  // bytes/us == MB/s
    seal.reference = static_cast<double>(size) / ref_us;
    seal.speedup = seal.fast / seal.reference;
    out.push_back(seal);

    if (size == 8192) {
      const Bytes sealed = aead.seal(iv, aad, plaintext);
      Bytes open_scratch(size);
      Metric open{"aes_gcm_open_" + std::to_string(size), "mb_per_s", 0, 0, 0};
      const double fo_us = us_per_op([&] {
        if (!aead.open_into(iv, aad, sealed, open_scratch)) std::abort();
      });
      const double ro_us = us_per_op([&] {
        if (!aead.open_reference(iv, aad, sealed)) std::abort();
      });
      open.fast = static_cast<double>(size) / fo_us;
      open.reference = static_cast<double>(size) / ro_us;
      open.speedup = open.fast / open.reference;
      out.push_back(open);
    }
  }
}

/// Each accelerated width vs the *scalar fast path* (not the bit-serial
/// reference): `fast` is an AesGcm built under the width (`_aesni` rows:
/// 128-bit AES-NI/PCLMUL, `_vaes` rows: 512-bit VAES/VPCLMULQDQ),
/// `reference` the same key forced scalar. Rows appear for every width up to
/// the resolved backend (Backend values are ordered by width), so under
/// MBTLS_CRYPTO_BACKEND=scalar, or on hosts without AES-NI, there are none.
/// 64 B and 1 KiB keep the small-record cost visible next to bulk sizes.
void gcm_accel_metrics(std::vector<Metric>& out) {
  const crypto::Backend resolved = crypto::active_backend();
  crypto::Drbg rng_local("bench-micro-gcm-accel", 6);
  const Bytes key = rng_local.bytes(32);
  const Bytes iv = rng_local.bytes(12);
  const Bytes aad = rng_local.bytes(13);
  BackendGuard scalar_guard(crypto::Backend::kScalar);
  const crypto::AesGcm scalar(key);

  for (const crypto::Backend width : {crypto::Backend::kAesni, crypto::Backend::kVaes}) {
    if (static_cast<int>(width) > static_cast<int>(resolved)) continue;
    BackendGuard width_guard(width);
    const crypto::AesGcm accel(key);
    const std::string suffix = std::string("_") + crypto::backend_name(width);
    for (const std::size_t size : {64, 1024, 1500, 8192, 16384}) {
      const Bytes plaintext = rng_local.bytes(size);
      Bytes scratch(size + crypto::AesGcm::kTagSize);

      Metric seal{"aes_gcm_seal_" + std::to_string(size) + suffix, "mb_per_s", 0, 0, 0};
      const double fast_us = us_per_op([&] { accel.seal_into(iv, aad, plaintext, scratch); });
      const double ref_us = us_per_op([&] { scalar.seal_into(iv, aad, plaintext, scratch); });
      seal.fast = static_cast<double>(size) / fast_us;
      seal.reference = static_cast<double>(size) / ref_us;
      seal.speedup = seal.fast / seal.reference;
      out.push_back(seal);

      const Bytes sealed = accel.seal(iv, aad, plaintext);
      Bytes open_scratch(size);
      Metric open{"aes_gcm_open_" + std::to_string(size) + suffix, "mb_per_s", 0, 0, 0};
      const double fo_us = us_per_op([&] {
        if (!accel.open_into(iv, aad, sealed, open_scratch)) std::abort();
      });
      const double ro_us = us_per_op([&] {
        if (!scalar.open_into(iv, aad, sealed, open_scratch)) std::abort();
      });
      open.fast = static_cast<double>(size) / fo_us;
      open.reference = static_cast<double>(size) / ro_us;
      open.speedup = open.fast / open.reference;
      out.push_back(open);
    }
  }
}

void mod_exp_metric(std::vector<Metric>& out) {
  crypto::Drbg rng_local("bench-micro-rsa", 3);
  Bytes mod_bytes = rng_local.bytes(256);  // RSA-2048-sized operands
  mod_bytes[0] |= 0x80;
  mod_bytes[255] |= 1;
  const bn::BigInt modulus = bn::BigInt::from_bytes(mod_bytes);
  const bn::BigInt base = bn::BigInt::from_bytes(rng_local.bytes(256)) % modulus;
  const bn::BigInt exponent = bn::BigInt::from_bytes(rng_local.bytes(256));

  Metric m{"mod_exp_2048", "us_per_op", 0, 0, 0};
  m.fast = us_per_op([&] { (void)base.mod_exp(exponent, modulus); });
  m.reference = us_per_op([&] { (void)base.mod_exp_reference(exponent, modulus); });
  m.speedup = m.reference / m.fast;
  out.push_back(m);
}

void record_metric(std::vector<Metric>& out) {
  crypto::Drbg rng_local("bench-micro-record", 4);
  const tls::DirectionKeys keys{rng_local.bytes(32), rng_local.bytes(4)};
  const std::size_t size = 8192;
  const Bytes payload = rng_local.bytes(size);

  Metric m{"record_seal_8192", "mb_per_s", 0, 0, 0};
  {
    tls::HopChannel channel(keys);
    Bytes wire;
    const double us = us_per_op([&] {
      wire.clear();  // capacity is reused — steady state allocates nothing
      channel.seal_into(tls::ContentType::kApplicationData, payload, wire);
    });
    m.fast = static_cast<double>(size) / us;
  }
  {
    tls::HopChannel channel(keys);
    const double us = us_per_op(
        [&] { (void)channel.seal(tls::ContentType::kApplicationData, payload); });
    m.reference = static_cast<double>(size) / us;
  }
  m.speedup = m.fast / m.reference;
  out.push_back(m);
}

void record_trace_metric(std::vector<Metric>& out) {
  crypto::Drbg rng_local("bench-micro-trace", 5);
  const tls::DirectionKeys keys{rng_local.bytes(32), rng_local.bytes(4)};
  const std::size_t size = 8192;
  const Bytes payload = rng_local.bytes(size);

  // Zero-cost-when-disabled guard: the record path now carries its trace
  // branch unconditionally. With no sink attached, seal_into must stay
  // within noise of the raw AEAD data plane — the branch plus record
  // framing is all that separates them at 8 KB.
  Metric m{"record_seal_trace_off_8192", "mb_per_s", 0, 0, 0};
  {
    tls::HopChannel channel(keys);  // tracing compiled in, no sink attached
    Bytes wire;
    const double us = us_per_op([&] {
      wire.clear();
      channel.seal_into(tls::ContentType::kApplicationData, payload, wire);
    });
    m.fast = static_cast<double>(size) / us;
  }
  {
    const crypto::AesGcm aead(keys.key);
    const Bytes iv = rng_local.bytes(12);
    const Bytes aad = rng_local.bytes(13);
    Bytes scratch(size + crypto::AesGcm::kTagSize);
    const double us = us_per_op([&] { aead.seal_into(iv, aad, payload, scratch); });
    m.reference = static_cast<double>(size) / us;
  }
  m.speedup = m.fast / m.reference;
  out.push_back(m);
}

}  // namespace
}  // namespace mbtls::bench

int main(int argc, char** argv) {
  using namespace mbtls::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") g_budget = 0.01;
  }
  const std::string json_path = json_arg(argc, argv);

  std::printf("=== Microcrypto: fast vs reference (budget %.2fs per primitive) ===\n", g_budget);
  std::printf("crypto backend: %s (features: %s), P-256 field: %s\n",
              mbtls::crypto::active_backend_name(), mbtls::crypto::cpu_feature_string().c_str(),
              mbtls::ec::P256::instance().kernel() == mbtls::ec::FieldKernel::kAdx ? "adx"
                                                                                : "portable");
  std::vector<Metric> metrics;
  p256_metrics(metrics);
  p256_field_metrics(metrics);
  gcm_metrics(metrics);
  gcm_accel_metrics(metrics);
  mod_exp_metric(metrics);
  record_metric(metrics);
  record_trace_metric(metrics);

  std::printf("%-26s %12s %12s %9s  %s\n", "primitive", "fast", "reference", "speedup",
              "unit");
  for (const auto& m : metrics) {
    std::printf("%-26s %12.2f %12.2f %8.2fx  %s\n", m.name.c_str(), m.fast, m.reference,
                m.speedup, m.unit.c_str());
  }

  if (!json_path.empty()) {
    Json rows = Json::array();
    for (const auto& m : metrics) {
      rows.push(Json::object()
                    .add("name", m.name)
                    .add("unit", m.unit)
                    .add("fast", m.fast)
                    .add("reference", m.reference)
                    .add("speedup", m.speedup));
    }
    Json doc = Json::object().add("bench", std::string("microcrypto"));
    const bool adx = mbtls::ec::P256::instance().kernel() == mbtls::ec::FieldKernel::kAdx;
    add_backend_fields(doc)
        .add("p256_field", std::string(adx ? "adx" : "portable"))
        .add("metrics", rows);
    if (!doc.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Regression gate mirrored by the acceptance criteria: the windowed
  // ladder must beat the reference ladder 3x on the fixed base, and the
  // fast GCM data plane must beat the reference seal 1.5x. Sanitizer
  // instrumentation skews the two paths differently, so only uninstrumented
  // builds enforce the floor.
#ifdef MBTLS_SANITIZER_BUILD
  std::printf("sanitizer build: speedup floors not enforced\n");
  return 0;
#endif
  for (const auto& m : metrics) {
    if (m.name == "p256_mul_base" && m.speedup < 3.0) {
      std::fprintf(stderr, "FAIL: p256_mul_base speedup %.2fx < 3x\n", m.speedup);
      return 1;
    }
    if (m.name == "aes_gcm_seal_8192" && m.speedup < 1.5) {
      std::fprintf(stderr, "FAIL: aes_gcm_seal_8192 speedup %.2fx < 1.5x\n", m.speedup);
      return 1;
    }
    // Tracing must be free when disabled: the record path with its (never
    // taken) trace branch keeps at least 70% of raw AEAD throughput. The
    // generous floor absorbs single-core scheduling noise; a forgotten
    // unconditional argument render would cut this far below it.
    if (m.name == "record_seal_trace_off_8192" && m.speedup < 0.7) {
      std::fprintf(stderr, "FAIL: record_seal_trace_off_8192 ratio %.2fx < 0.7x\n", m.speedup);
      return 1;
    }
    // Accelerated-width floors (rows present only for widths that
    // resolved): each must beat the scalar fast path 3x at 8 KB. In practice
    // they land far higher; 3x catches a dispatch regression (e.g. the
    // per-object capture silently resolving scalar).
    if (m.name.rfind("aes_gcm_seal_8192_", 0) == 0 && m.speedup < 3.0) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx < 3x\n", m.name.c_str(), m.speedup);
      return 1;
    }
  }
  return 0;
}
