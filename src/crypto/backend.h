// Runtime-dispatched crypto backends.
//
// The scalar implementations in aes.cpp / gcm.cpp / sha2.cpp are the portable
// baseline. Two x86-64 backends sit above them: backend_aesni.cpp (AES-NI,
// PCLMULQDQ and, where the toolchain supports it, SHA-NI, one 128-bit block
// per instruction) and backend_vaes.cpp (AES-GCM on VAES/VPCLMULQDQ with
// AVX-512, four blocks per instruction). Which one runs is decided once per
// process: CPUID feature detection picks the widest available, overridable
// with
//
//   MBTLS_CRYPTO_BACKEND=auto|scalar|aesni|vaes
//
// so benchmarks and CI can pin a backend for reproducibility (`aesni` pins the
// 128-bit path even on a VAES host). Call sites outside src/crypto never see
// the dispatch — Aes / AesGcm / Sha256 capture the active backend at
// construction, so the record layer and middlebox reprotect accelerate with
// zero call-site changes. MBTLS_REFERENCE_CRYPTO remains a separate,
// compile-time oracle: reference paths never dispatch to an accelerated
// backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace mbtls::crypto {

/// Ordered by width: a request for a backend the host cannot run falls back
/// to the next narrower one.
enum class Backend : int {
  kScalar = 0,  // portable C++ (T-table AES, Shoup-table GHASH, plain SHA-2)
  kAesni = 1,   // AES-NI + PCLMULQDQ (+ SHA-NI when compiled in)
  kVaes = 2,    // kAesni, with AES-GCM bulk on 512-bit VAES + VPCLMULQDQ
};

/// CPUID-reported features relevant to the accelerated backends. `sse41` and
/// `ssse3` gate the byte-shuffle helpers the AES-NI paths lean on; `bmi2`
/// (MULX) and `adx` (ADCX/ADOX) gate the P-256 field kernel (ec::FpAdx). The AVX
/// entries (`avx2`, `avx512*`, `vaes`, `vpclmulqdq`) are set only when the
/// OS also saves the wider register state (OSXSAVE and XCR0).
struct CpuFeatures {
  bool aesni = false;
  bool pclmul = false;
  bool ssse3 = false;
  bool sse41 = false;
  bool sha_ni = false;
  bool bmi2 = false;
  bool adx = false;
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;
  bool vaes = false;
  bool vpclmulqdq = false;
};

/// Host CPU features, detected once via CPUID (all-false off x86-64).
const CpuFeatures& cpu_features();

/// True when the AES-NI/PCLMUL backend is both compiled into this binary and
/// usable on this CPU.
bool aesni_available();

/// True when the 512-bit VAES/VPCLMULQDQ AES-GCM kernel is compiled in and
/// usable on this CPU (which implies aesni_available()).
bool vaes_available();

/// True when the SHA-NI SHA-256 path is compiled in and usable on this CPU.
bool sha_ni_available();

/// The backend in effect, resolved once from MBTLS_CRYPTO_BACKEND and CPU
/// features. A requested backend the host cannot run falls back to the
/// widest narrower one (with a one-line stderr note); unknown values behave
/// like `auto`.
Backend active_backend();

/// The backend MBTLS_CRYPTO_BACKEND and the CPU resolve to, ignoring
/// force_backend_for_testing(): what the process was configured to run. The
/// P-256 field kernel reads it once, so `scalar` also pins the portable field.
Backend configured_backend();

/// Test/bench hook: override the resolved backend for objects constructed
/// from now on. A request the host cannot run is clamped to the widest
/// narrower backend (kVaes -> kAesni -> kScalar), so forced runs degrade to a
/// narrower re-run on hosts without the hardware.
void force_backend_for_testing(Backend b);

const char* backend_name(Backend b);
const char* active_backend_name();

/// Space-separated detected-feature list ("aesni pclmul ..."), "none" when
/// nothing relevant is present. Recorded in bench JSON for attribution.
std::string cpu_feature_string();

// Accelerated entry points (backend_aesni.cpp, backend_vaes.cpp). Callers
// must check aesni_available() / vaes_available() / sha_ni_available() first:
// without hardware (or when the toolchain could not compile the intrinsics)
// these abort. Round keys are the byte-identical FIPS-197 schedule from
// Aes::round_keys_ — the accelerated paths load them directly, no separate
// schedule storage.
namespace accel {

/// Entries in the GHASH key-power table: H^1..H^16, 16 bytes each.
inline constexpr std::size_t kGhashPowers = 16;

/// AESKEYGENASSIST-based key expansion for 16/32-byte keys; byte-identical to
/// the scalar FIPS-197 expansion. `round_keys` receives 16*(rounds+1) bytes.
void aes_key_expand(const std::uint8_t* key, std::size_t key_len, std::uint8_t* round_keys);

void aes_encrypt_block(const std::uint8_t* round_keys, int rounds, const std::uint8_t in[16],
                       std::uint8_t out[16]);
void aes_encrypt4(const std::uint8_t* round_keys, int rounds, const std::uint8_t in[64],
                  std::uint8_t out[64]);

/// GCM CTR keystream XOR: 8 counter blocks in flight per AESENC round. The
/// 32-bit counter starts at j0's low word and pre-increments per block,
/// matching AesGcm::ctr_xor. In-place (out == in) is fine.
void aes_ctr_xor(const std::uint8_t* round_keys, int rounds, const std::uint8_t j0[16],
                 const std::uint8_t* in, std::size_t len, std::uint8_t* out);

/// Precompute H^1..H^16 (bit-reflected form, ascending) from the GHASH key
/// H = E_K(0^128) into the table both widths read: the 128-bit ghash() uses
/// the first four entries, the 512-bit kernel all sixteen. Key-equivalent
/// material — owners wipe it on teardown.
void ghash_init(const std::uint8_t h[16], std::uint8_t h_powers[16 * kGhashPowers]);

/// Full GHASH (AAD, then ciphertext, then the length block) with 4-way
/// aggregated PCLMUL reduction. Writes the 16-byte S block in standard
/// (big-endian) byte order.
void ghash(const std::uint8_t* h_powers, ByteView aad, ByteView ciphertext,
           std::uint8_t out[16]);

/// 512-bit forms of aes_ctr_xor and ghash: 16 blocks per step, one GHASH
/// reduction per 16 blocks, byte-masked tails. Same results and contracts.
void aes_ctr_xor_vaes(const std::uint8_t* round_keys, int rounds, const std::uint8_t j0[16],
                      const std::uint8_t* in, std::size_t len, std::uint8_t* out);
void ghash_vaes(const std::uint8_t* h_powers, ByteView aad, ByteView ciphertext,
                std::uint8_t out[16]);

/// Stitched 512-bit seal: CTR-encrypts `plaintext` into `out` (which may be
/// the plaintext's own storage) while hashing the ciphertext, and writes
/// GHASH(aad, ciphertext) as the S block. The caller masks S into the tag.
void gcm_seal_vaes(const std::uint8_t* round_keys, int rounds, const std::uint8_t* h_powers,
                   const std::uint8_t j0[16], ByteView aad, ByteView plaintext,
                   std::uint8_t* out, std::uint8_t s[16]);

/// One side of a fused reprotect: an AesGcm's round keys and H-power table,
/// as the entry points above take them, plus the record's J0 block and AAD.
struct GcmSide {
  const std::uint8_t* round_keys;
  int rounds;
  const std::uint8_t* h_powers;
  const std::uint8_t* j0;
  ByteView aad;
};

/// Fused 512-bit reprotect: moves `ciphertext` from the `from` key to the
/// `to` key in one pass. Each 16-block group is hashed under `from`, written
/// to `out` as ciphertext ^ KS_from ^ KS_to (the plaintext never reaches
/// memory) and hashed again under `to`. Writes both S blocks; the caller
/// checks the inbound tag before it treats `out` as written. `out` must not
/// overlap `ciphertext`.
void gcm_reprotect_vaes(const GcmSide& from, const GcmSide& to, ByteView ciphertext,
                        std::uint8_t* out, std::uint8_t s_from[16], std::uint8_t s_to[16]);

/// SHA-NI compression over `nblocks` contiguous 64-byte blocks.
void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks, std::size_t nblocks);

}  // namespace accel

}  // namespace mbtls::crypto
