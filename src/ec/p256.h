// NIST P-256 (secp256r1) group arithmetic.
//
// The prime field has its own fixed-modulus type, `Fp`: 4x64-limb Montgomery
// arithmetic with the modulus limbs as compile-time constants, using
// -p^-1 == 1 mod 2^64 and p's zero limb, and an addition-chain inverse.
// The generic `Mont` (any odd 256-bit modulus) serves only the scalar field
// mod n, where ECDSA signing works with the secret k and d. Points are held
// in Jacobian projective coordinates in the Montgomery domain.
//
// This backs both ECDHE key exchange and ECDSA certificate signatures — the
// dominant asymmetric cost in the Figure-5 handshake CPU experiment, which is
// why it gets a dedicated implementation instead of the generic BigInt.
//
// Two field kernels, one result. `Fp` is portable C++ (unsigned __int128
// limb products) and the oracle. `FpAdx` computes the same values with an
// x86-64 MULX/ADCX/ADOX kernel: a CIOS multiply whose reduction is shifts
// plus one MULX by p's top limb, and a squaring of six doubled cross
// products plus four squares. P256 picks one at construction, once per
// process (`kernel()`): FpAdx when the CPU reports BMI2 and ADX and
// MBTLS_CRYPTO_BACKEND does not pin `scalar`, else Fp. The point code is
// instantiated once per field, so no indirect call sits under a field
// operation; the `FieldKernel` overloads run either one on demand.
//
// Constant-time contract: field and scalar-field add/sub/mul and their final
// reductions select with masks and never branch on values. Secret-scalar
// multiplications (`mul_base`, `mul`) use fixed 4-bit windows whose entries
// are selected with a constant-time scan over the whole table (see
// `ct_select_window`), never by secret index. ECDSA verification works on
// public values only and may branch on them (`mul_add`, `Mont::inv_vartime`).
//
// Two implementations of the group operations coexist:
//  * the fast path. `mul_base` uses a precomputed 64x15 comb table of
//    generator multiples (public constants); `mul` builds a per-call 15-entry
//    table of the input point. `mul_add` (ECDSA verify — public scalars)
//    interleaves a width-7 wNAF of u1 over 32 precomputed odd multiples of G
//    with a width-5 wNAF of u2 over 8 odd multiples of Q, over shared
//    doublings with plain indexed lookups. `mul_add_x_equals` compares the
//    result's x with r in Jacobian coordinates, skipping the inversion.
//  * the reference path — the original double-and-add ladder over the
//    portable field, kept as the differential-test oracle (`*_reference`).
//    Building with -DMBTLS_REFERENCE_CRYPTO routes the public API back to it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/drbg.h"
#include "util/bytes.h"

namespace mbtls::ec {

/// 256-bit value, 4 little-endian 64-bit limbs.
struct U256 {
  std::array<std::uint64_t, 4> w{};

  static U256 from_bytes(ByteView be32);  // exactly 32 big-endian bytes
  Bytes to_bytes() const;                 // 32 big-endian bytes

  bool operator==(const U256&) const = default;
  bool is_zero() const { return w[0] == 0 && w[1] == 0 && w[2] == 0 && w[3] == 0; }
  bool bit(std::size_t i) const { return (w[i / 64] >> (i % 64)) & 1; }
};

/// The P-256 prime field GF(p), p = 2^256 - 2^224 + 2^192 + 2^96 - 1, in the
/// Montgomery domain (R = 2^256). Inputs and results are reduced, in [0, p).
/// Every operation runs in time independent of the operand values.
class Fp {
 public:
  static constexpr U256 kP{{0xffffffffffffffff, 0x00000000ffffffff, 0, 0xffffffff00000001}};
  /// R mod p: 1 in the Montgomery domain.
  static constexpr U256 kOne{{1, 0xffffffff00000000, 0xffffffffffffffff, 0x00000000fffffffe}};

  static U256 to_mont(const U256& a);    // a < p
  static U256 from_mont(const U256& a);

  // add/sub/neg are residue arithmetic, valid in either domain.
  static U256 add(const U256& a, const U256& b);
  static U256 sub(const U256& a, const U256& b);
  static U256 neg(const U256& a) { return sub(U256{}, a); }
  static U256 mul(const U256& a, const U256& b);  // Montgomery product a*b/R
  static U256 sqr(const U256& a);
  /// a^(p-2): the inverse of a non-zero a (0 maps to 0). A fixed addition
  /// chain of 255 squarings and 12 multiplications.
  static U256 inv(const U256& a);
};

/// GF(p) on the x86-64 MULX/ADCX/ADOX kernel: every result equals Fp's, bit
/// for bit, and like Fp's it is computed without value-dependent branches or
/// memory accesses. add/sub/neg are Fp's. Call mul/sqr (and what uses them)
/// only when available(); elsewhere they fall back to Fp.
class FpAdx : public Fp {
 public:
  /// Compiled for x86-64 and the CPU reports BMI2 and ADX.
  static bool available();

  static U256 to_mont(const U256& a);
  static U256 from_mont(const U256& a);
  static U256 mul(const U256& a, const U256& b);
  static U256 sqr(const U256& a);
  static U256 inv(const U256& a);
};

/// Which field kernel a point operation runs on.
enum class FieldKernel : std::uint8_t { kPortable, kAdx };

/// Montgomery arithmetic modulo any odd 256-bit modulus; P-256 uses it for
/// the scalar field mod n. Like Fp, it never branches on operand values.
class Mont {
 public:
  explicit Mont(const U256& modulus);

  const U256& modulus() const { return n_; }

  U256 to_mont(const U256& a) const { return mul(a, r2_); }
  U256 from_mont(const U256& a) const;

  // All of these operate on Montgomery-domain values (except add/sub, which
  // are domain-agnostic residue arithmetic).
  U256 add(const U256& a, const U256& b) const;
  U256 sub(const U256& a, const U256& b) const;
  U256 mul(const U256& a, const U256& b) const;  // Montgomery product
  U256 sqr(const U256& a) const { return mul(a, a); }
  /// Square-and-multiply; branches on the bits of the (public) exponent.
  U256 exp(const U256& base_mont, const U256& e) const;
  U256 inv(const U256& a_mont) const;  // via Fermat (modulus must be prime)
  /// a^-1 mod n for a plain (not Montgomery) a in [1, n) coprime to n, by
  /// the binary extended Euclidean algorithm. Branches on a: public values
  /// only (ECDSA verification's s).
  U256 inv_vartime(const U256& a) const;
  U256 one_mont() const { return one_; }

  /// Reduce an arbitrary 256-bit value into [0, n) (at most one subtraction —
  /// callers guarantee a < 2n).
  U256 reduce_once(const U256& a) const;

 private:
  U256 n_;
  std::uint64_t n0inv_;
  U256 r2_;
  U256 one_;
};

/// Affine point; infinity encoded by `infinity == true`.
struct AffinePoint {
  U256 x, y;
  bool infinity = false;
};

/// Constant-time window-table selection: returns table[idx - 1] for idx in
/// [1, table.size()], or a zero point for idx == 0. Every entry is scanned and
/// mask-combined regardless of idx, so neither the branch predictor nor the
/// data cache observes which entry was chosen. This is the primitive all
/// secret-scalar window lookups go through; test_consttime pits it against a
/// deliberately variable-time early-exit lookup as the positive control.
AffinePoint ct_select_window(std::span<const AffinePoint> table, std::uint32_t idx);

class P256 {
 public:
  static const P256& instance();

  const Mont& scalar_field() const { return fn_; }
  const U256& order() const { return fn_.modulus(); }

  /// The field kernel the entry points below run on (see the file comment).
  FieldKernel kernel() const { return kernel_; }

  /// Scalar multiplication k*G.
  AffinePoint mul_base(const U256& k) const;
  /// Scalar multiplication k*P.
  AffinePoint mul(const U256& k, const AffinePoint& p) const;
  /// u1*G + u2*Q (for ECDSA verification; u1/u2 are public).
  AffinePoint mul_add(const U256& u1, const U256& u2, const AffinePoint& q) const;
  /// ECDSA's final check, x(u1*G + u2*Q) mod n == r for r in [1, n), on
  /// public inputs. The sum stays in Jacobian coordinates (see below).
  bool mul_add_x_equals(const U256& u1, const U256& u2, const AffinePoint& q,
                        const U256& r) const;
  /// Does the Jacobian point with Montgomery-domain X and Z have an affine x
  /// congruent to r (< n) mod n? x = X/Z^2, and x < p < 2n, so x is r or,
  /// when r + n < p, r + n: compares r*Z^2 and (r+n)*Z^2 against X instead
  /// of inverting Z. False for Z = 0 (infinity). Variable time.
  bool jacobian_x_equals(const U256& x, const U256& z, const U256& r) const;

  // The fast paths on a named kernel, whatever kernel() is (differential
  // tests and benches). kAdx requires FpAdx::available().
  AffinePoint mul_base(const U256& k, FieldKernel f) const;
  AffinePoint mul(const U256& k, const AffinePoint& p, FieldKernel f) const;
  AffinePoint mul_add(const U256& u1, const U256& u2, const AffinePoint& q, FieldKernel f) const;

  // Reference (double-and-add ladder) implementations: the differential-test
  // oracle and the bench baseline. Always compiled; `mul_base` etc. dispatch
  // here when MBTLS_REFERENCE_CRYPTO is defined.
  AffinePoint mul_base_reference(const U256& k) const;
  AffinePoint mul_reference(const U256& k, const AffinePoint& p) const;
  AffinePoint mul_add_reference(const U256& u1, const U256& u2, const AffinePoint& q) const;

  /// Is `p` a valid point on the curve (and not infinity)?
  bool on_curve(const AffinePoint& p) const;

  /// SEC1 uncompressed encoding: 0x04 || X || Y (65 bytes).
  Bytes encode_point(const AffinePoint& p) const;
  std::optional<AffinePoint> decode_point(ByteView data) const;

  /// Random scalar in [1, n-1].
  U256 random_scalar(crypto::Drbg& rng) const;

  const AffinePoint& generator() const { return g_; }

 private:
  P256();

  struct Jacobian {
    U256 x, y, z;  // Montgomery domain; infinity iff z == 0
  };

  /// Montgomery-domain affine point (z == 1 implied); the window-table entry
  /// format. Mixed addition against these saves ~4 field muls per add.
  struct AffineMont {
    U256 x, y;
  };

  static constexpr int kWindowBits = 4;
  static constexpr int kWindows = 256 / kWindowBits;       // 64
  static constexpr int kTableSize = (1 << kWindowBits) - 1;  // 15 (idx 0 = skip)

  // mul_add's wNAF widths: a width-w table holds the 2^(w-2) odd multiples
  // 1P, 3P, ..., (2^(w-1) - 1)P.
  static constexpr int kWnafG = 7;
  static constexpr int kWnafQ = 5;
  static constexpr int kOddG = 1 << (kWnafG - 2);  // 32
  static constexpr int kOddQ = 1 << (kWnafQ - 2);  // 8

  /// The point formulas and multiplication algorithms over one field type
  /// (Fp or FpAdx); defined and instantiated in p256.cpp.
  template <class F>
  struct On;

  Mont fn_;
  FieldKernel kernel_;
  U256 b_mont_;  // curve b in Montgomery form
  AffinePoint g_;
  // Comb table of generator multiples: base_table_[i][j-1] = j * 16^i * G for
  // i in [0,64), j in [1,16). Public curve constants only (derived from G), so
  // no wiping is required; secret scalars never enter the precomputation.
  std::array<std::array<AffineMont, kTableSize>, kWindows> base_table_;  // lint: not-secret
  // Odd multiples for mul_add's wNAF: g_odd_[j] = (2j + 1) * G. Public.
  std::array<AffineMont, kOddG> g_odd_;  // lint: not-secret
};

}  // namespace mbtls::ec
