// Statistical (dudect-style) timing tests for the constant-time primitives:
// constant_time_equal() and AES-GCM tag verification must not leak *where*
// two buffers differ through their running time, and the P-256 field and
// secret-scalar multiplications must not leak their operands.
//
// Method: both input classes share one probe buffer — the differing byte is
// XOR-flipped in place outside the timed region, so the classes differ only
// in data, never in allocation or alignment. Samples are interleaved A/B,
// the slowest tail is dropped (scheduler noise is one-sided), and Welch's
// t-statistic decides: |t| below the threshold means the classes are
// statistically indistinguishable at this sample size. As a positive
// control, the variable-time equal() must show a very large |t| for the same
// classes — proving the harness can actually detect an early-exit leak.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "ec/p256.h"
#include "util/bytes.h"
#include "util/ct.h"

namespace mbtls {
namespace {

using Clock = std::chrono::steady_clock;

// A sampler prepares its input class, runs the operation `batch` times, and
// returns the elapsed nanoseconds for the batch.
using Sampler = std::function<double()>;

// Sentinel for "no fault injected" (the equal-inputs class).
constexpr std::size_t kNoFlip = static_cast<std::size_t>(-1);

double time_batch(const std::function<void()>& op, int batch) {
  const auto t0 = Clock::now();
  for (int i = 0; i < batch; ++i) op();
  const auto t1 = Clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Interleaved A/B measurement -> Welch's t-statistic on trimmed samples.
double welch_t(const Sampler& sample_a, const Sampler& sample_b, int samples,
               double keep_fraction = 0.8) {
  std::vector<double> a, b;
  a.reserve(static_cast<std::size_t>(samples));
  b.reserve(static_cast<std::size_t>(samples));
  // Warm caches and branch predictors before measuring.
  sample_a();
  sample_b();
  for (int i = 0; i < samples; ++i) {
    a.push_back(sample_a());
    b.push_back(sample_b());
  }
  auto trim = [&](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    v.resize(static_cast<std::size_t>(static_cast<double>(v.size()) * keep_fraction));
  };
  trim(a);
  trim(b);
  auto mean_var = [](const std::vector<double>& v) {
    double mean = 0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    double var = 0;
    for (double x : v) var += (x - mean) * (x - mean);
    var /= static_cast<double>(v.size() - 1);
    return std::pair<double, double>(mean, var);
  };
  const auto [ma, va] = mean_var(a);
  const auto [mb, vb] = mean_var(b);
  const double denom =
      std::sqrt(va / static_cast<double>(a.size()) + vb / static_cast<double>(b.size()));
  if (denom == 0) return 0;
  return (ma - mb) / denom;
}

/// Builds a sampler for comparing `base` against the shared `probe` buffer
/// with a fault injected at `flip_pos` (or no fault when flip_pos is npos).
/// The flip is undone after timing, so both classes reuse identical memory.
template <typename Compare>
Sampler flip_sampler(const Bytes& base, Bytes& probe, std::size_t flip_pos,
                     Compare compare, volatile bool& sink, int batch) {
  return [&base, &probe, flip_pos, compare, &sink, batch] {
    if (flip_pos != kNoFlip) probe.at(flip_pos) ^= 0x5a;
    const double ns = time_batch([&] { sink = compare(base, probe); }, batch);
    if (flip_pos != kNoFlip) probe.at(flip_pos) ^= 0x5a;
    return ns;
  };
}

// dudect uses |t| > 4.5 as "leak detected"; we leave margin for shared-CI
// noise. The positive control below shows a real leak lands far above this.
constexpr double kLeakThreshold = 20.0;

// Sanitizer instrumentation adds data-dependent overhead (shadow-memory
// checks, interceptors), so timing comparisons under it measure the
// instrumentation, not the code. MBTLS_SANITIZER_BUILD comes from CMake.
#if defined(MBTLS_SANITIZER_BUILD)
#define MBTLS_SKIP_IF_INSTRUMENTED() \
  GTEST_SKIP() << "timing statistics are not meaningful under sanitizers"
#else
#define MBTLS_SKIP_IF_INSTRUMENTED() (void)0
#endif

TEST(ConstTime, EqualDoesNotLeakMismatchPosition) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  crypto::Drbg rng("consttime-eq", 1);
  const Bytes base = rng.bytes(4096);
  Bytes probe = base;

  const auto ct = [](const Bytes& x, const Bytes& y) { return constant_time_equal(x, y); };
  volatile bool sink = false;
  const double t = welch_t(flip_sampler(base, probe, 0, ct, sink, 8),
                           flip_sampler(base, probe, base.size() - 1, ct, sink, 8),
                           /*samples=*/1500);
  (void)sink;
  EXPECT_LT(std::fabs(t), kLeakThreshold)
      << "constant_time_equal timing depends on mismatch position, t=" << t;
}

TEST(ConstTime, EqualDoesNotLeakMatchVsMismatch) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  crypto::Drbg rng("consttime-eq2", 2);
  const Bytes base = rng.bytes(4096);
  Bytes probe = base;

  const auto ct = [](const Bytes& x, const Bytes& y) { return constant_time_equal(x, y); };
  volatile bool sink = false;
  const double t = welch_t(flip_sampler(base, probe, kNoFlip, ct, sink, 8),
                           flip_sampler(base, probe, 0, ct, sink, 8),
                           /*samples=*/1500);
  (void)sink;
  EXPECT_LT(std::fabs(t), kLeakThreshold)
      << "constant_time_equal timing distinguishes equal from unequal, t=" << t;
}

TEST(ConstTime, PositiveControlVariableTimeEqualLeaks) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  // Proves the harness detects leaks: the early-exit equal() must show a
  // massive timing difference between first-byte and last-byte mismatches.
  crypto::Drbg rng("consttime-ctrl", 3);
  const Bytes base = rng.bytes(4096);
  Bytes probe = base;

  const auto vt = [](const Bytes& x, const Bytes& y) { return equal(x, y); };
  volatile bool sink = false;
  const double t = welch_t(flip_sampler(base, probe, 0, vt, sink, 8),
                           flip_sampler(base, probe, base.size() - 1, vt, sink, 8),
                           /*samples=*/1500);
  (void)sink;
  EXPECT_GT(std::fabs(t), kLeakThreshold)
      << "harness failed to detect a deliberate early-exit leak, t=" << t;
}

// Deliberately variable-time window lookup: scans (and copies) entries until
// it reaches the requested one, so its running time is proportional to the
// index — the classic secret-indexed table leak ct_select_window exists to
// prevent. A plain `return table[idx - 1]` would NOT serve as a positive
// control here: with a 15-entry L1-resident table the indexed load itself is
// timing-flat, so the harness would have nothing to detect.
ec::AffinePoint vt_select_window(std::span<const ec::AffinePoint> table, std::uint32_t idx) {
  ec::AffinePoint out;
  out.infinity = true;
  for (std::uint32_t i = 0; i < table.size(); ++i) {
    out = table[i];
    if (i + 1 == idx) break;  // early exit: work done depends on idx
  }
  if (idx == 0) out.infinity = true;
  return out;
}

/// Sampler timing `batch` window selections at a fixed index. The table is
/// shared between both classes (it is public precomputation either way); only
/// the index — the secret in the real scalar-multiplication loop — differs.
template <typename Select>
Sampler select_sampler(std::span<const ec::AffinePoint> table, std::uint32_t idx,
                       Select select, volatile std::uint64_t& sink, int batch) {
  return [table, idx, select, &sink, batch] {
    return time_batch([&] { sink = sink + select(table, idx).x.w[0]; }, batch);
  };
}

TEST(ConstTime, WindowSelectDoesNotLeakIndex) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  // The fixed-window P-256 ladder selects one of 15 precomputed points per
  // 4-bit window of the secret scalar. The selection must cost the same for
  // the first and the last index, or the scalar leaks window by window.
  crypto::Drbg rng("consttime-sel", 5);
  const auto& curve = ec::P256::instance();
  std::vector<ec::AffinePoint> table;
  for (int i = 0; i < 15; ++i) table.push_back(curve.mul_base(curve.random_scalar(rng)));

  volatile std::uint64_t sink = 0;
  const auto ct = [](std::span<const ec::AffinePoint> t, std::uint32_t idx) {
    return ec::ct_select_window(t, idx);
  };
  const double t = welch_t(select_sampler(table, 1, ct, sink, 64),
                           select_sampler(table, 15, ct, sink, 64),
                           /*samples=*/1500);
  (void)sink;
  EXPECT_LT(std::fabs(t), kLeakThreshold)
      << "ct_select_window timing depends on the selected index, t=" << t;
}

TEST(ConstTime, PositiveControlVariableTimeWindowSelectLeaks) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  // Same harness, same classes, early-exit lookup: must show a massive |t|,
  // proving the negative result above is the code's property, not the
  // harness's insensitivity.
  crypto::Drbg rng("consttime-sel-ctrl", 6);
  const auto& curve = ec::P256::instance();
  std::vector<ec::AffinePoint> table;
  for (int i = 0; i < 15; ++i) table.push_back(curve.mul_base(curve.random_scalar(rng)));

  volatile std::uint64_t sink = 0;
  const double t = welch_t(select_sampler(table, 1, vt_select_window, sink, 64),
                           select_sampler(table, 15, vt_select_window, sink, 64),
                           /*samples=*/1500);
  (void)sink;
  EXPECT_GT(std::fabs(t), kLeakThreshold)
      << "harness failed to detect the early-exit window lookup, t=" << t;
}

/// Fixed-vs-random sampler over one shared scalar slot: the class only
/// decides what is copied into the slot, outside the timed region.
template <typename Op>
Sampler scalar_sampler(ec::U256& slot, const std::vector<ec::U256>& pool, std::size_t& next,
                       Op op, volatile std::uint64_t& sink) {
  return [&slot, &pool, &next, op, &sink] {
    slot = pool[next++ % pool.size()];
    return time_batch([&] { sink = sink + op(slot).x.w[0]; }, 1);
  };
}

/// Runs the dudect fixed-vs-random test of a full scalar multiplication.
/// The fixed class is k = 1: every window but the lowest is zero, so the
/// ladder carries the point at infinity through almost every step, which is
/// where a data-dependent shortcut would show.
template <typename Op>
double scalar_fixed_vs_random_t(const char* label, Op op, int samples) {
  crypto::Drbg rng(label, 7);
  const auto& curve = ec::P256::instance();
  std::vector<ec::U256> random_pool;
  for (int i = 0; i < 64; ++i) random_pool.push_back(curve.random_scalar(rng));
  const std::vector<ec::U256> fixed_pool(random_pool.size(), ec::U256{{1, 0, 0, 0}});
  ec::U256 slot{};
  std::size_t next_fixed = 0;
  std::size_t next_random = 0;
  volatile std::uint64_t sink = 0;
  const double t = welch_t(scalar_sampler(slot, fixed_pool, next_fixed, op, sink),
                           scalar_sampler(slot, random_pool, next_random, op, sink), samples);
  (void)sink;
  return t;
}

// The rows below pin a field kernel: MulBase/Mul run the portable Fp, the
// *OnAdxKernel rows the MULX/ADX kernel (skipped on CPUs without it).
#define MBTLS_SKIP_WITHOUT_ADX() \
  if (!ec::FpAdx::available()) GTEST_SKIP() << "CPU lacks BMI2/ADX"

void expect_mul_base_constant_time(ec::FieldKernel kernel) {
  const auto& curve = ec::P256::instance();
  const double t = scalar_fixed_vs_random_t(
      "consttime-mulbase", [&](const ec::U256& k) { return curve.mul_base(k, kernel); }, 1500);
  EXPECT_LT(std::fabs(t), kLeakThreshold)
      << "mul_base timing distinguishes a fixed from a random scalar, t=" << t;
}

void expect_mul_constant_time(ec::FieldKernel kernel) {
  const auto& curve = ec::P256::instance();
  crypto::Drbg rng("consttime-mul-point", 8);
  const ec::AffinePoint point = curve.mul_base(curve.random_scalar(rng));
  const double t = scalar_fixed_vs_random_t(
      "consttime-mul", [&](const ec::U256& k) { return curve.mul(k, point, kernel); }, 600);
  EXPECT_LT(std::fabs(t), kLeakThreshold)
      << "mul timing distinguishes a fixed from a random scalar, t=" << t;
}

TEST(ConstTime, MulBaseDoesNotLeakScalar) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  expect_mul_base_constant_time(ec::FieldKernel::kPortable);
}

TEST(ConstTime, MulDoesNotLeakScalar) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  expect_mul_constant_time(ec::FieldKernel::kPortable);
}

TEST(ConstTime, MulBaseOnAdxKernelDoesNotLeakScalar) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  MBTLS_SKIP_WITHOUT_ADX();
  expect_mul_base_constant_time(ec::FieldKernel::kAdx);
}

TEST(ConstTime, MulOnAdxKernelDoesNotLeakScalar) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  MBTLS_SKIP_WITHOUT_ADX();
  expect_mul_constant_time(ec::FieldKernel::kAdx);
}

/// Fixed-vs-random dudect row for one field operation: the fixed class is
/// all-zero operands (every limb product zero, no carries anywhere), the
/// random class uniform residues; both are copied into one operand buffer.
template <typename Op>
double field_op_fixed_vs_random_t(const char* label, Op op) {
  constexpr std::size_t kOps = 64;
  crypto::Drbg rng(label, 10);
  std::vector<ec::U256> zeros(2 * kOps);
  std::vector<ec::U256> random(2 * kOps);
  for (auto& v : random) {
    do {
      v = ec::U256::from_bytes(rng.bytes(32));
    } while (v.w[3] >= ec::Fp::kP.w[3]);
  }
  std::vector<ec::U256> operands(2 * kOps);
  volatile std::uint64_t sink = 0;
  const auto sampler = [&](const std::vector<ec::U256>& cls) -> Sampler {
    return [&operands, &cls, &sink, op] {
      operands = cls;
      return time_batch(
          [&] {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < kOps; ++i)
              acc += op(operands[2 * i], operands[2 * i + 1]).w[0];
            sink = sink + acc;
          },
          4);
    };
  };
  const double t = welch_t(sampler(zeros), sampler(random), /*samples=*/1500);
  (void)sink;
  return t;
}

TEST(ConstTime, AdxKernelMulSqrDoNotLeakOperands) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  MBTLS_SKIP_WITHOUT_ADX();
  const double t_mul = field_op_fixed_vs_random_t(
      "consttime-fpadx-mul",
      [](const ec::U256& a, const ec::U256& b) { return ec::FpAdx::mul(a, b); });
  EXPECT_LT(std::fabs(t_mul), kLeakThreshold)
      << "FpAdx::mul timing depends on its operands, t=" << t_mul;
  const double t_sqr = field_op_fixed_vs_random_t(
      "consttime-fpadx-sqr",
      [](const ec::U256& a, const ec::U256&) { return ec::FpAdx::sqr(a); });
  EXPECT_LT(std::fabs(t_sqr), kLeakThreshold)
      << "FpAdx::sqr timing depends on its operand, t=" << t_sqr;
}

TEST(ConstTime, FieldAddSubDoNotLeakReduction) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  // Near-p operands make every add reduce (a + b > p) and every sub borrow
  // (a < b); random operands do either about half the time. A reduction
  // that branches runs predictably on the first class and mispredicts on
  // the second. Both classes are copied into one shared operand buffer.
  using ec::Fp;
  using ec::U256;
  constexpr std::size_t kPairs = 64;
  crypto::Drbg rng("consttime-fp", 9);
  auto random_below_p = [&] {
    for (;;) {
      const U256 v = U256::from_bytes(rng.bytes(32));
      if (v.w[3] < Fp::kP.w[3]) return v;
    }
  };
  std::vector<U256> near_p(2 * kPairs);
  std::vector<U256> random(2 * kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const std::uint64_t small = rng.uniform(1u << 30);
    U256 a = Fp::kP;
    a.w[0] -= 2 * small + 2;  // p - 2 - 2*small
    U256 b = Fp::kP;
    b.w[0] -= small + 1;  // p - 1 - small: above a, and a + b > p
    near_p[2 * i] = a;
    near_p[2 * i + 1] = b;
    random[2 * i] = random_below_p();
    random[2 * i + 1] = random_below_p();
  }
  std::vector<U256> operands(2 * kPairs);
  volatile std::uint64_t sink = 0;
  const auto sampler = [&](const std::vector<U256>& cls) -> Sampler {
    return [&operands, &cls, &sink] {
      operands = cls;
      return time_batch(
          [&] {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < kPairs; ++i) {
              acc += Fp::add(operands[2 * i], operands[2 * i + 1]).w[0];
              acc += Fp::sub(operands[2 * i], operands[2 * i + 1]).w[0];
            }
            sink = sink + acc;
          },
          4);
    };
  };
  const double t = welch_t(sampler(near_p), sampler(random), /*samples=*/1500);
  (void)sink;
  EXPECT_LT(std::fabs(t), kLeakThreshold)
      << "Fp::add/sub timing depends on whether the reduction is needed, t=" << t;
}

TEST(ConstTime, GcmTagVerifyDoesNotLeakMismatchPosition) {
  MBTLS_SKIP_IF_INSTRUMENTED();
  crypto::Drbg rng("consttime-gcm", 4);
  const Bytes key = rng.bytes(32);
  const Bytes iv = rng.bytes(12);
  const Bytes aad = rng.bytes(13);
  const Bytes plaintext = rng.bytes(1024);
  const crypto::AesGcm gcm(key);
  const Bytes sealed = gcm.seal(iv, aad, plaintext);
  ASSERT_GE(sealed.size(), 16u);

  // Corrupt the first vs the last byte of the 16-byte trailing tag in a
  // single shared buffer; both classes must fail after identical work (full
  // GHASH + constant-time compare).
  Bytes probe = sealed;
  const auto open_fails = [&](std::size_t flip_pos, int batch) -> Sampler {
    return [&gcm, &iv, &aad, &probe, flip_pos, batch] {
      probe.at(flip_pos) ^= 0x5a;
      volatile bool sink = false;
      const double ns = time_batch(
          [&] { sink = gcm.open(iv, aad, probe).has_value(); }, batch);
      (void)sink;
      probe.at(flip_pos) ^= 0x5a;
      return ns;
    };
  };
  {
    probe.at(sealed.size() - 16) ^= 0x5a;
    ASSERT_FALSE(gcm.open(iv, aad, probe).has_value());
    probe.at(sealed.size() - 16) ^= 0x5a;
  }

  const double t = welch_t(open_fails(sealed.size() - 16, 4),
                           open_fails(sealed.size() - 1, 4),
                           /*samples=*/1000);
  EXPECT_LT(std::fabs(t), kLeakThreshold)
      << "GCM tag verification timing depends on tag mismatch position, t=" << t;
}

}  // namespace
}  // namespace mbtls
