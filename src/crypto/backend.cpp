#include "crypto/backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define MBTLS_BACKEND_X86 1
#endif

namespace mbtls::crypto {

namespace {

#ifdef MBTLS_BACKEND_X86
// XCR0 (XGETBV 0): the register state the OS saves across context switches.
// Inline asm, so this TU needs no -mxsave.
std::uint64_t read_xcr0() {
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}
#endif

CpuFeatures detect_cpu() {
  CpuFeatures f;
#ifdef MBTLS_BACKEND_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  bool osxsave = false;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.pclmul = (ecx & (1u << 1)) != 0;
    f.ssse3 = (ecx & (1u << 9)) != 0;
    f.sse41 = (ecx & (1u << 19)) != 0;
    f.aesni = (ecx & (1u << 25)) != 0;
    osxsave = (ecx & (1u << 27)) != 0;
  }
  // A CPU feature on wider registers is usable only if the OS saves those
  // registers: XCR0 bits 1-2 (XMM, YMM) for AVX, plus bits 5-7 (opmask,
  // upper ZMM0-15, ZMM16-31) for AVX-512.
  const std::uint64_t xcr0 = osxsave ? read_xcr0() : 0;
  const bool ymm_saved = (xcr0 & 0x06) == 0x06;
  const bool zmm_saved = ymm_saved && (xcr0 & 0xe0) == 0xe0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.sha_ni = (ebx & (1u << 29)) != 0;
    f.bmi2 = (ebx & (1u << 8)) != 0;
    f.adx = (ebx & (1u << 19)) != 0;
    f.avx2 = ymm_saved && (ebx & (1u << 5)) != 0;
    f.avx512f = zmm_saved && (ebx & (1u << 16)) != 0;
    f.avx512bw = zmm_saved && (ebx & (1u << 30)) != 0;
    f.avx512vl = zmm_saved && (ebx & (1u << 31)) != 0;
    f.vaes = ymm_saved && (ecx & (1u << 9)) != 0;
    f.vpclmulqdq = ymm_saved && (ecx & (1u << 10)) != 0;
  }
#endif
  return f;
}

constexpr bool aesni_compiled() {
#ifdef MBTLS_HAVE_AESNI_BUILD
  return true;
#else
  return false;
#endif
}

constexpr bool vaes_compiled() {
#ifdef MBTLS_HAVE_VAES_BUILD
  return true;
#else
  return false;
#endif
}

constexpr bool sha_ni_compiled() {
#ifdef MBTLS_HAVE_SHANI_BUILD
  return true;
#else
  return false;
#endif
}

/// The widest backend no wider than `b` that this binary and CPU can run.
Backend clamp_to_available(Backend b) {
  if (b == Backend::kVaes && !vaes_available()) b = Backend::kAesni;
  if (b == Backend::kAesni && !aesni_available()) b = Backend::kScalar;
  return b;
}

Backend resolve_from_env() {
  const char* env = std::getenv("MBTLS_CRYPTO_BACKEND");
  const std::string v = env ? env : "auto";
  Backend requested = Backend::kVaes;  // auto: the widest available
  if (v == "scalar") {
    requested = Backend::kScalar;
  } else if (v == "aesni") {
    requested = Backend::kAesni;
  } else if (v != "auto" && v != "vaes" && !v.empty()) {
    std::fprintf(stderr, "mbtls: unknown MBTLS_CRYPTO_BACKEND '%s'; using auto\n", v.c_str());
  }
  const Backend resolved = clamp_to_available(requested);
  if (resolved != requested && v == backend_name(requested)) {
    std::fprintf(stderr,
                 "mbtls: MBTLS_CRYPTO_BACKEND=%s but that backend is unavailable "
                 "(compiled aesni=%d vaes=%d, cpu: %s); using %s\n",
                 v.c_str(), aesni_compiled() ? 1 : 0, vaes_compiled() ? 1 : 0,
                 cpu_feature_string().c_str(), backend_name(resolved));
  }
  return resolved;
}

// -1 = no override; otherwise a Backend value forced by tests/benches.
std::atomic<int> g_forced{-1};

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect_cpu();
  return f;
}

bool aesni_available() {
  const CpuFeatures& f = cpu_features();
  return aesni_compiled() && f.aesni && f.pclmul && f.ssse3 && f.sse41;
}

bool vaes_available() {
  const CpuFeatures& f = cpu_features();
  return vaes_compiled() && aesni_available() && f.vaes && f.vpclmulqdq && f.avx512f &&
         f.avx512bw && f.avx512vl;
}

bool sha_ni_available() {
  const CpuFeatures& f = cpu_features();
  return sha_ni_compiled() && f.sha_ni && f.ssse3 && f.sse41;
}

Backend configured_backend() {
  static const Backend resolved = resolve_from_env();
  return resolved;
}

Backend active_backend() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Backend>(forced);
  return configured_backend();
}

void force_backend_for_testing(Backend b) {
  g_forced.store(static_cast<int>(clamp_to_available(b)), std::memory_order_relaxed);
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kAesni: return "aesni";
    case Backend::kVaes: return "vaes";
  }
  return "unknown";
}

const char* active_backend_name() { return backend_name(active_backend()); }

std::string cpu_feature_string() {
  const CpuFeatures& f = cpu_features();
  std::string out;
  auto add = [&](bool present, const char* name) {
    if (!present) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(f.aesni, "aesni");
  add(f.pclmul, "pclmul");
  add(f.ssse3, "ssse3");
  add(f.sse41, "sse4.1");
  add(f.sha_ni, "sha_ni");
  add(f.bmi2, "bmi2");
  add(f.adx, "adx");
  add(f.avx2, "avx2");
  add(f.avx512f, "avx512f");
  add(f.avx512bw, "avx512bw");
  add(f.avx512vl, "avx512vl");
  add(f.vaes, "vaes");
  add(f.vpclmulqdq, "vpclmulqdq");
  if (out.empty()) out = "none";
  return out;
}

// Link-time stubs for builds whose toolchain cannot compile the intrinsics.
// The matching *_available() is false in those builds, so reaching one of
// these means a caller skipped the gate — fail loudly.
namespace accel {

namespace {
[[noreturn, maybe_unused]] void missing() {
  std::fprintf(stderr, "mbtls: accelerated crypto called but not compiled in\n");
  std::abort();
}
}  // namespace

#ifndef MBTLS_HAVE_AESNI_BUILD
void aes_key_expand(const std::uint8_t*, std::size_t, std::uint8_t*) { missing(); }
void aes_encrypt_block(const std::uint8_t*, int, const std::uint8_t*, std::uint8_t*) { missing(); }
void aes_encrypt4(const std::uint8_t*, int, const std::uint8_t*, std::uint8_t*) { missing(); }
void aes_ctr_xor(const std::uint8_t*, int, const std::uint8_t*, const std::uint8_t*, std::size_t,
                 std::uint8_t*) {
  missing();
}
void ghash_init(const std::uint8_t*, std::uint8_t*) { missing(); }
void ghash(const std::uint8_t*, ByteView, ByteView, std::uint8_t*) { missing(); }
#endif  // !MBTLS_HAVE_AESNI_BUILD

#ifndef MBTLS_HAVE_VAES_BUILD
void aes_ctr_xor_vaes(const std::uint8_t*, int, const std::uint8_t*, const std::uint8_t*,
                      std::size_t, std::uint8_t*) {
  missing();
}
void ghash_vaes(const std::uint8_t*, ByteView, ByteView, std::uint8_t*) { missing(); }
void gcm_seal_vaes(const std::uint8_t*, int, const std::uint8_t*, const std::uint8_t*, ByteView,
                   ByteView, std::uint8_t*, std::uint8_t*) {
  missing();
}
void gcm_reprotect_vaes(const GcmSide&, const GcmSide&, ByteView, std::uint8_t*, std::uint8_t*,
                        std::uint8_t*) {
  missing();
}
#endif  // !MBTLS_HAVE_VAES_BUILD

#ifndef MBTLS_HAVE_SHANI_BUILD
void sha256_compress(std::uint32_t*, const std::uint8_t*, std::size_t) { missing(); }
#endif  // !MBTLS_HAVE_SHANI_BUILD

}  // namespace accel

}  // namespace mbtls::crypto
