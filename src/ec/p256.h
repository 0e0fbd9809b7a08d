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
// Constant-time contract: field and scalar-field add/sub/mul and their final
// reductions select with masks and never branch on values. Secret-scalar
// multiplications (`mul_base`, `mul`) use fixed 4-bit windows whose entries
// are selected with a constant-time scan over the whole table (see
// `ct_select_window`), never by secret index.
//
// Two implementations coexist:
//  * the fast path. `mul_base` uses a precomputed 64x15 comb table of
//    generator multiples (public constants); `mul` builds a per-call 15-entry
//    table of the input point. `mul_add` (ECDSA verify — public scalars)
//    interleaves a width-7 wNAF of u1 over 32 precomputed odd multiples of G
//    with a width-5 wNAF of u2 over 8 odd multiples of Q, over shared
//    doublings with plain indexed lookups.
//  * the reference path — the original double-and-add ladder over the same
//    field, kept as the differential-test oracle (`*_reference`). Building
//    with -DMBTLS_REFERENCE_CRYPTO routes the public API back to it.
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

  /// Scalar multiplication k*G.
  AffinePoint mul_base(const U256& k) const;
  /// Scalar multiplication k*P.
  AffinePoint mul(const U256& k, const AffinePoint& p) const;
  /// u1*G + u2*Q (for ECDSA verification; u1/u2 are public).
  AffinePoint mul_add(const U256& u1, const U256& u2, const AffinePoint& q) const;

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

  Jacobian to_jacobian(const AffinePoint& p) const;
  AffinePoint to_affine(const Jacobian& p) const;
  Jacobian dbl(const Jacobian& p) const;
  Jacobian add(const Jacobian& p, const Jacobian& q) const;
  Jacobian add_mixed(const Jacobian& p, const AffineMont& q) const;
  Jacobian add_mixed_ct(const Jacobian& p, const AffineMont& q, std::uint64_t valid_mask) const;
  Jacobian mul_impl(const U256& k, const Jacobian& p) const;
  void build_window_table(const AffinePoint& p, AffineMont out[kTableSize]) const;
  void build_odd_table(const AffinePoint& p, AffineMont* out, int count) const;
  void batch_to_affine_mont(const Jacobian* in, AffineMont* out, std::size_t count) const;

  Mont fn_;
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
