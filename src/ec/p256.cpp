#include "ec/p256.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "crypto/backend.h"
#include "util/ct.h"

namespace mbtls::ec {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

U256 U256::from_bytes(ByteView be32) {
  if (be32.size() != 32) throw std::invalid_argument("U256::from_bytes wants 32 bytes");
  U256 r;
  for (int limb = 0; limb < 4; ++limb)
    r.w[static_cast<std::size_t>(limb)] =
        load_be64(be32.data() + static_cast<std::size_t>((3 - limb) * 8));
  return r;
}

Bytes U256::to_bytes() const {
  Bytes out(32);
  for (int limb = 0; limb < 4; ++limb)
    store_be64(out.data() + static_cast<std::size_t>((3 - limb) * 8),
               w[static_cast<std::size_t>(limb)]);
  return out;
}

namespace {

/// a + b + carry; carry (0 or 1) is updated to the carry out.
inline u64 addc(u64 a, u64 b, u64& carry) {
  const u128 s = static_cast<u128>(a) + b + carry;
  carry = static_cast<u64>(s >> 64);
  return static_cast<u64>(s);
}

/// a - b - borrow; borrow (0 or 1) is updated to the borrow out.
inline u64 subb(u64 a, u64 b, u64& borrow) {
  const u128 d = static_cast<u128>(a) - b - borrow;
  borrow = static_cast<u64>(d >> 64) & 1;
  return static_cast<u64>(d);
}

// raw sub: r = a - b, returns borrow
inline u64 raw_sub(U256& r, const U256& a, const U256& b) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) r.w[i] = subb(a.w[i], b.w[i], borrow);
  return borrow;
}

inline int raw_cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] != b.w[i]) return a.w[i] < b.w[i] ? -1 : 1;
  }
  return 0;
}

// ------------------------------------------------- constant-time primitives
//
// Thin U256 adapters over the shared branch-free mask arithmetic in
// util/ct.h. Every helper returns / consumes an all-ones (0xff..ff) or
// all-zeros 64-bit mask so the compiler emits plain ALU ops, never a
// conditional jump.

/// All-ones when a == b, all-zeros otherwise.
inline u64 ct_eq_mask(u64 a, u64 b) { return ct::eq_mask(a, b); }

/// All-ones when the 256-bit value is zero.
inline u64 ct_u256_is_zero_mask(const U256& a) { return ct::all_zero_mask(a.w.data(), 4); }

/// r = mask ? a : r (mask must be all-ones or all-zeros).
inline void ct_cmov(U256& r, const U256& a, u64 mask) { ct::cmov(r.w.data(), a.w.data(), 4, mask); }

/// The final reduction shared by every modular operation: given a value
/// hi*2^256 + a < 2m (hi is 0 or 1), return it mod m. m is subtracted and
/// the difference kept unless the subtraction borrowed past hi; the choice
/// is a mask, not a branch.
inline U256 sub_mod_once(const U256& a, u64 hi, const U256& m) {
  u64 borrow = 0;
  const u64 d0 = subb(a.w[0], m.w[0], borrow);
  const u64 d1 = subb(a.w[1], m.w[1], borrow);
  const u64 d2 = subb(a.w[2], m.w[2], borrow);
  const u64 d3 = subb(a.w[3], m.w[3], borrow);
  const u64 keep = 0 - (borrow & (hi ^ 1));
  return U256{{ct::select(keep, a.w[0], d0), ct::select(keep, a.w[1], d1),
               ct::select(keep, a.w[2], d2), ct::select(keep, a.w[3], d3)}};
}

/// (a + b) mod m for a, b < m.
inline U256 add_mod(const U256& a, const U256& b, const U256& m) {
  u64 carry = 0;
  const u64 s0 = addc(a.w[0], b.w[0], carry);
  const u64 s1 = addc(a.w[1], b.w[1], carry);
  const u64 s2 = addc(a.w[2], b.w[2], carry);
  const u64 s3 = addc(a.w[3], b.w[3], carry);
  return sub_mod_once(U256{{s0, s1, s2, s3}}, carry, m);
}

/// (a - b) mod m for a, b < m: add m back under the borrow mask.
inline U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  u64 borrow = 0;
  const u64 d0 = subb(a.w[0], b.w[0], borrow);
  const u64 d1 = subb(a.w[1], b.w[1], borrow);
  const u64 d2 = subb(a.w[2], b.w[2], borrow);
  const u64 d3 = subb(a.w[3], b.w[3], borrow);
  const u64 mask = 0 - borrow;
  u64 carry = 0;
  const u64 r0 = addc(d0, m.w[0] & mask, carry);
  const u64 r1 = addc(d1, m.w[1] & mask, carry);
  const u64 r2 = addc(d2, m.w[2] & mask, carry);
  const u64 r3 = addc(d3, m.w[3] & mask, carry);
  return U256{{r0, r1, r2, r3}};
}

/// `count` (<= 8) bits of k from bit `pos` on; bits past 255 read as zero.
inline int bits_at(const U256& k, int pos, int count) {
  if (pos >= 256) return 0;
  const auto limb = static_cast<std::size_t>(pos / 64);
  const int off = pos % 64;
  u64 v = k.w[limb] >> off;
  if (off + count > 64 && limb + 1 < 4) v |= k.w[limb + 1] << (64 - off);
  return static_cast<int>(v & ((u64{1} << count) - 1));
}

/// Width-w NAF of a public scalar: k = sum of out[i] * 2^i, each digit zero
/// or odd in (-2^(w-1), 2^(w-1)), any two non-zero digits at least w apart.
/// The 257th digit takes the final carry. Returns the index of the highest
/// non-zero digit plus one.
constexpr int kWnafLen = 257;
inline int wnaf(const U256& k, int w, std::int8_t out[kWnafLen]) {
  std::fill(out, out + kWnafLen, std::int8_t{0});
  int carry = 0;
  int len = 0;
  for (int bit = 0; bit < kWnafLen;) {
    if (bits_at(k, bit, 1) == carry) {  // even digit: 0, carry unchanged
      ++bit;
      continue;
    }
    const int now = std::min(w, kWnafLen - bit);
    int word = bits_at(k, bit, now) + carry;
    carry = (word >> (w - 1)) & 1;
    word -= carry << w;
    out[bit] = static_cast<std::int8_t>(word);
    len = bit + 1;
    bit += now;
  }
  return len;
}

/// Window i (bits [4i, 4i+4)) of a scalar.
inline std::uint32_t window4(const U256& k, int i) {
  return static_cast<std::uint32_t>((k.w[static_cast<std::size_t>(i / 16)] >>
                                     (4 * (i % 16))) &
                                    0xf);
}

// ------------------------------------------------------------ P-256 field

constexpr U256 kR2{{3, 0xfffffffbffffffff, 0xfffffffffffffffe, 0x00000004fffffffd}};  // R^2 mod p

/// Montgomery reduction of the 512-bit t[0..8) into [0, p): t / R mod p.
/// p = 2^64 - 1 in its low limb, so -p^-1 == 1 mod 2^64: each round's
/// multiplier is the limb itself, that limb's product cancels it exactly and
/// carries the multiplier out, and p's zero limb 2 costs no multiplication.
inline U256 fp_reduce(u64 t[8]) {
  constexpr u64 p1 = Fp::kP.w[1];
  constexpr u64 p3 = Fp::kP.w[3];
  u64 hi = 0;  // carry out of the top limb, into t[i + 5]
  for (int i = 0; i < 4; ++i) {
    const u64 m = t[i];
    u128 acc = static_cast<u128>(m) * p1 + t[i + 1] + m;
    t[i + 1] = static_cast<u64>(acc);
    acc = static_cast<u128>(t[i + 2]) + static_cast<u64>(acc >> 64);
    t[i + 2] = static_cast<u64>(acc);
    acc = static_cast<u128>(m) * p3 + t[i + 3] + static_cast<u64>(acc >> 64);
    t[i + 3] = static_cast<u64>(acc);
    acc = static_cast<u128>(t[i + 4]) + static_cast<u64>(acc >> 64) + hi;
    t[i + 4] = static_cast<u64>(acc);
    hi = static_cast<u64>(acc >> 64);
  }
  return sub_mod_once(U256{{t[4], t[5], t[6], t[7]}}, hi, Fp::kP);
}

/// a^(p-2) over field F: the inverse of a non-zero a (0 maps to 0).
/// p - 2 = ffffffff 00000001 00000000 00000000 00000000 ffffffff ffffffff
///         fffffffd (32-bit groups, high to low). xN = a^(2^N - 1).
template <class F>
[[gnu::flatten]] U256 fp_inv(const U256& a) {
  auto sqr_n = [](U256 x, int n) {
    for (int i = 0; i < n; ++i) x = F::sqr(x);
    return x;
  };
  const U256 x2 = F::mul(F::sqr(a), a);
  const U256 x3 = F::mul(F::sqr(x2), a);
  const U256 x6 = F::mul(sqr_n(x3, 3), x3);
  const U256 x12 = F::mul(sqr_n(x6, 6), x6);
  const U256 x15 = F::mul(sqr_n(x12, 3), x3);
  const U256 x30 = F::mul(sqr_n(x15, 15), x15);
  const U256 x32 = F::mul(sqr_n(x30, 2), x2);
  U256 r = F::mul(sqr_n(x32, 32), a);  // bits 255..192: 32 ones, 31 zeros, 1
  r = F::mul(sqr_n(r, 128), x32);      // 191..64: 96 zeros, 32 ones
  r = F::mul(sqr_n(r, 32), x32);       // 63..32: 32 ones
  r = F::mul(sqr_n(r, 30), x30);       // 31..2: 30 ones
  return F::mul(sqr_n(r, 2), a);       // 1..0: 01
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MBTLS_FP_ADX 1

// The MULX/ADCX/ADOX kernel. MULX multiplies by RDX without touching the
// flags, and ADCX/ADOX add through CF and OF alone, so a row of limb
// products runs as two independent carry chains (low halves on CF, high
// halves on OF). The reduction uses the shape of p: with m the lowest limb,
// (t + m*p) / 2^64 = t/2^64 + m*2^32 + m*p3*2^128, where p3 = 2^64 - 2^32 + 1
// is p's top limb: a shift pair and one MULX per round.
//
// The asm reads its operands' limbs as memory operands the compiler names
// and returns registers; it is neither volatile nor memory-clobbering, so
// the compiler may schedule the independent multiplications of one point
// formula around each other. Register names rotate from round to round
// instead of moving values between them.

/// p's limbs 1 and 3 as memory operands: neither fits a sign-extended
/// 32-bit immediate, and MULX takes no immediate at all.
constexpr u64 kP1 = Fp::kP.w[1];
constexpr u64 kP3 = Fp::kP.w[3];

/// One Montgomery round on the accumulator t0..t5: m = t0, t += m*p, and the
/// zeroed t0 drops out (the caller renames t1..t5 to t0..t4).
#define MBTLS_FP_RED(t0, t1, t2, t3, t4, t5) \
  "movq %[" #t0 "], %%rdx\n\t"             \
  "shlq $32, %[" #t0 "]\n\t"               \
  "mulxq %[p3], %[lo], %[hi]\n\t"          \
  "shrq $32, %%rdx\n\t"                    \
  "addq %[" #t0 "], %[" #t1 "]\n\t"        \
  "adcq %%rdx, %[" #t2 "]\n\t"             \
  "adcq %[lo], %[" #t3 "]\n\t"             \
  "adcq %[hi], %[" #t4 "]\n\t"             \
  "adcq $0, %[" #t5 "]\n\t"

/// t0..t4 += ai * b, the carry out landing in z (zeroed here).
#define MBTLS_FP_ROW(ai, t0, t1, t2, t3, t4, z) \
  "movq %[" #ai "], %%rdx\n\t"                \
  "xorl %k[" #z "], %k[" #z "]\n\t"           \
  "mulxq %[b0], %[lo], %[hi]\n\t"             \
  "adcxq %[lo], %[" #t0 "]\n\t"               \
  "adoxq %[hi], %[" #t1 "]\n\t"               \
  "mulxq %[b1], %[lo], %[hi]\n\t"             \
  "adcxq %[lo], %[" #t1 "]\n\t"               \
  "adoxq %[hi], %[" #t2 "]\n\t"               \
  "mulxq %[b2], %[lo], %[hi]\n\t"             \
  "adcxq %[lo], %[" #t2 "]\n\t"               \
  "adoxq %[hi], %[" #t3 "]\n\t"               \
  "mulxq %[b3], %[lo], %[hi]\n\t"             \
  "adcxq %[lo], %[" #t3 "]\n\t"               \
  "adoxq %[hi], %[" #t4 "]\n\t"               \
  "adcxq %[" #z "], %[" #t4 "]\n\t"           \
  "adoxq %[" #z "], %[" #z "]\n\t"            \
  "adcq $0, %[" #z "]\n\t"

/// A Montgomery round on a 4-limb value t0..t3 (< 2^256 stays < 2^256):
/// the result is t1, t2, t3, h, and t0 is free for the next round's h.
#define MBTLS_FP_RED4(t0, t1, t2, t3, h) \
  "movq %[" #t0 "], %%rdx\n\t"          \
  "shlq $32, %[" #t0 "]\n\t"            \
  "mulxq %[p3], %[lo], %[" #h "]\n\t"   \
  "shrq $32, %%rdx\n\t"                 \
  "addq %[" #t0 "], %[" #t1 "]\n\t"     \
  "adcq %%rdx, %[" #t2 "]\n\t"          \
  "adcq %[lo], %[" #t3 "]\n\t"          \
  "adcq $0, %[" #h "]\n\t"

/// r0..r3 plus the carry c is below 2p: subtract p into s0..s3 and keep the
/// difference unless it borrowed past c (a conditional move, not a branch).
#define MBTLS_FP_FINAL(r0, r1, r2, r3, c, s0, s1, s2, s3) \
  "movq %[" #r0 "], %[" #s0 "]\n\t"                        \
  "subq $-1, %[" #s0 "]\n\t"                               \
  "movq %[" #r1 "], %[" #s1 "]\n\t"                        \
  "sbbq %[p1], %[" #s1 "]\n\t"                             \
  "movq %[" #r2 "], %[" #s2 "]\n\t"                        \
  "sbbq $0, %[" #s2 "]\n\t"                                \
  "movq %[" #r3 "], %[" #s3 "]\n\t"                        \
  "sbbq %[p3], %[" #s3 "]\n\t"                             \
  "sbbq $0, %[" #c "]\n\t"                                 \
  "cmovncq %[" #s0 "], %[" #r0 "]\n\t"                     \
  "cmovncq %[" #s1 "], %[" #r1 "]\n\t"                     \
  "cmovncq %[" #s2 "], %[" #r2 "]\n\t"                     \
  "cmovncq %[" #s3 "], %[" #r3 "]\n\t"

/// CIOS: four rows of a_i * b, each followed by a reduction round.
inline U256 adx_mul(const U256& a, const U256& b) {
  u64 r0 = 0, r1 = 0, r2 = 0, r3 = 0, r4 = 0, r5 = 0, lo = 0, hi = 0, dx = 0;
  __asm__(
      // Row 0 (plain carries): r0..r4 = a0 * b.
      "xorl %k[r5], %k[r5]\n\t"
      "movq %[a0], %%rdx\n\t"
      "mulxq %[b0], %[r0], %[r1]\n\t"
      "mulxq %[b1], %[lo], %[r2]\n\t"
      "addq %[lo], %[r1]\n\t"
      "mulxq %[b2], %[lo], %[r3]\n\t"
      "adcq %[lo], %[r2]\n\t"
      "mulxq %[b3], %[lo], %[r4]\n\t"
      "adcq %[lo], %[r3]\n\t"
      "adcq $0, %[r4]\n\t"
      MBTLS_FP_RED(r0, r1, r2, r3, r4, r5)
      MBTLS_FP_ROW(a1, r1, r2, r3, r4, r5, r0)
      MBTLS_FP_RED(r1, r2, r3, r4, r5, r0)
      MBTLS_FP_ROW(a2, r2, r3, r4, r5, r0, r1)
      MBTLS_FP_RED(r2, r3, r4, r5, r0, r1)
      MBTLS_FP_ROW(a3, r3, r4, r5, r0, r1, r2)
      MBTLS_FP_RED(r3, r4, r5, r0, r1, r2)
      MBTLS_FP_FINAL(r4, r5, r0, r1, r2, lo, hi, r3, dx)
      : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2), [r3] "=&r"(r3), [r4] "=&r"(r4),
        [r5] "=&r"(r5), [lo] "=&r"(lo), [hi] "=&r"(hi), [dx] "=&d"(dx)
      : [a0] "m"(a.w[0]), [a1] "m"(a.w[1]), [a2] "m"(a.w[2]), [a3] "m"(a.w[3]),
        [b0] "m"(b.w[0]), [b1] "m"(b.w[1]), [b2] "m"(b.w[2]), [b3] "m"(b.w[3]),
        [p1] "m"(kP1), [p3] "m"(kP3)
      : "cc");
  return U256{{r4, r5, r0, r1}};
}

/// The six cross products once, doubled, plus the four squares (10 MULX
/// instead of 16); then four rounds reduce the low half, and the high half
/// is added on top.
inline U256 adx_sqr(const U256& a) {
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0, t6 = 0, t7 = 0, lo = 0, hi = 0;
  __asm__(
      // t1..t6 = sum of a_i * a_j * 2^(64(i+j)), i < j.
      "movq %[a0], %%rdx\n\t"
      "mulxq %[a1], %[t1], %[t2]\n\t"
      "mulxq %[a2], %[lo], %[t3]\n\t"
      "mulxq %[a3], %[hi], %[t4]\n\t"
      "addq %[lo], %[t2]\n\t"
      "adcq %[hi], %[t3]\n\t"
      "movq %[a1], %%rdx\n\t"
      "mulxq %[a2], %[lo], %[hi]\n\t"
      "adcq $0, %[t4]\n\t"
      "mulxq %[a3], %[t6], %[t5]\n\t"
      "addq %[lo], %[t3]\n\t"
      "adcq %[hi], %[t4]\n\t"
      "adcq $0, %[t5]\n\t"
      "addq %[t6], %[t4]\n\t"
      "adcq $0, %[t5]\n\t"
      "movq %[a2], %%rdx\n\t"
      "mulxq %[a3], %[lo], %[t6]\n\t"
      "addq %[lo], %[t5]\n\t"
      "adcq $0, %[t6]\n\t"
      // Doubling on CF, the squares a_i^2 * 2^(128i) on OF.
      "xorl %k[t7], %k[t7]\n\t"
      "movq %[a0], %%rdx\n\t"
      "mulxq %%rdx, %[t0], %[hi]\n\t"
      "adcxq %[t1], %[t1]\n\t"
      "adoxq %[hi], %[t1]\n\t"
      "movq %[a1], %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[t2], %[t2]\n\t"
      "adoxq %[lo], %[t2]\n\t"
      "adcxq %[t3], %[t3]\n\t"
      "adoxq %[hi], %[t3]\n\t"
      "movq %[a2], %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[t4], %[t4]\n\t"
      "adoxq %[lo], %[t4]\n\t"
      "adcxq %[t5], %[t5]\n\t"
      "adoxq %[hi], %[t5]\n\t"
      "movq %[a3], %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[t6], %[t6]\n\t"
      "adoxq %[lo], %[t6]\n\t"
      "adcxq %[t7], %[t7]\n\t"
      "adoxq %[hi], %[t7]\n\t"
      // Reduce t0..t3 to (hi, t0, t1, t2), then add t4..t7; carry in t3.
      MBTLS_FP_RED4(t0, t1, t2, t3, hi)
      MBTLS_FP_RED4(t1, t2, t3, hi, t0)
      MBTLS_FP_RED4(t2, t3, hi, t0, t1)
      MBTLS_FP_RED4(t3, hi, t0, t1, t2)
      "xorl %k[t3], %k[t3]\n\t"
      "addq %[t4], %[hi]\n\t"
      "adcq %[t5], %[t0]\n\t"
      "adcq %[t6], %[t1]\n\t"
      "adcq %[t7], %[t2]\n\t"
      "adcq $0, %[t3]\n\t"
      MBTLS_FP_FINAL(hi, t0, t1, t2, t3, t4, t5, t6, t7)
      : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3), [t4] "=&r"(t4),
        [t5] "=&r"(t5), [t6] "=&r"(t6), [t7] "=&r"(t7), [lo] "=&r"(lo), [hi] "=&r"(hi)
      : [a0] "m"(a.w[0]), [a1] "m"(a.w[1]), [a2] "m"(a.w[2]), [a3] "m"(a.w[3]),
        [p1] "m"(kP1), [p3] "m"(kP3)
      : "rdx", "cc");
  return U256{{hi, t0, t1, t2}};
}

#undef MBTLS_FP_RED
#undef MBTLS_FP_ROW
#undef MBTLS_FP_RED4
#undef MBTLS_FP_FINAL
#endif  // x86-64

}  // namespace

U256 Fp::add(const U256& a, const U256& b) { return add_mod(a, b, kP); }

U256 Fp::sub(const U256& a, const U256& b) { return sub_mod(a, b, kP); }

U256 Fp::mul(const U256& a, const U256& b) {
  u64 t[8] = {0};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 acc = static_cast<u128>(a.w[i]) * b.w[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(acc);
      carry = static_cast<u64>(acc >> 64);
    }
    t[i + 4] = carry;
  }
  return fp_reduce(t);
}

U256 Fp::sqr(const U256& a) {
  // The six cross products once, doubled by a shift, then the four squares:
  // 10 limb multiplications instead of 16.
  const u64 a0 = a.w[0], a1 = a.w[1], a2 = a.w[2], a3 = a.w[3];
  u128 acc = static_cast<u128>(a0) * a1;
  u64 t1 = static_cast<u64>(acc);
  acc = static_cast<u128>(a0) * a2 + static_cast<u64>(acc >> 64);
  u64 t2 = static_cast<u64>(acc);
  acc = static_cast<u128>(a0) * a3 + static_cast<u64>(acc >> 64);
  u64 t3 = static_cast<u64>(acc);
  u64 t4 = static_cast<u64>(acc >> 64);
  acc = static_cast<u128>(a1) * a2 + t3;
  t3 = static_cast<u64>(acc);
  acc = static_cast<u128>(a1) * a3 + t4 + static_cast<u64>(acc >> 64);
  t4 = static_cast<u64>(acc);
  u64 t5 = static_cast<u64>(acc >> 64);
  acc = static_cast<u128>(a2) * a3 + t5;
  t5 = static_cast<u64>(acc);
  u64 t6 = static_cast<u64>(acc >> 64);

  const u64 t7 = t6 >> 63;
  t6 = (t6 << 1) | (t5 >> 63);
  t5 = (t5 << 1) | (t4 >> 63);
  t4 = (t4 << 1) | (t3 >> 63);
  t3 = (t3 << 1) | (t2 >> 63);
  t2 = (t2 << 1) | (t1 >> 63);
  t1 <<= 1;

  u64 t[8];
  u64 carry = 0;
  u128 sq = static_cast<u128>(a0) * a0;
  t[0] = static_cast<u64>(sq);
  t[1] = addc(t1, static_cast<u64>(sq >> 64), carry);
  sq = static_cast<u128>(a1) * a1;
  t[2] = addc(t2, static_cast<u64>(sq), carry);
  t[3] = addc(t3, static_cast<u64>(sq >> 64), carry);
  sq = static_cast<u128>(a2) * a2;
  t[4] = addc(t4, static_cast<u64>(sq), carry);
  t[5] = addc(t5, static_cast<u64>(sq >> 64), carry);
  sq = static_cast<u128>(a3) * a3;
  t[6] = addc(t6, static_cast<u64>(sq), carry);
  t[7] = addc(t7, static_cast<u64>(sq >> 64), carry);
  return fp_reduce(t);
}

U256 Fp::to_mont(const U256& a) { return mul(a, kR2); }

U256 Fp::from_mont(const U256& a) { return mul(a, U256{{1, 0, 0, 0}}); }

U256 Fp::inv(const U256& a) { return fp_inv<Fp>(a); }

// ------------------------------------------------------------ ADX kernel

bool FpAdx::available() {
#ifdef MBTLS_FP_ADX
  static const bool ok = crypto::cpu_features().bmi2 && crypto::cpu_features().adx;
  return ok;
#else
  return false;
#endif
}

U256 FpAdx::mul(const U256& a, const U256& b) {
#ifdef MBTLS_FP_ADX
  return adx_mul(a, b);
#else
  return Fp::mul(a, b);
#endif
}

U256 FpAdx::sqr(const U256& a) {
#ifdef MBTLS_FP_ADX
  return adx_sqr(a);
#else
  return Fp::sqr(a);
#endif
}

U256 FpAdx::to_mont(const U256& a) { return mul(a, kR2); }

U256 FpAdx::from_mont(const U256& a) { return mul(a, U256{{1, 0, 0, 0}}); }

U256 FpAdx::inv(const U256& a) { return fp_inv<FpAdx>(a); }

// ------------------------------------------------------ generic Montgomery

Mont::Mont(const U256& modulus) : n_(modulus) {
  if ((n_.w[0] & 1) == 0) throw std::invalid_argument("Mont: modulus must be odd");
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n_.w[0] * inv;
  n0inv_ = ~inv + 1;

  // r2_ = 2^512 mod n, by doubling 1 modulo n 512 times.
  U256 r{};
  r.w[0] = 1;
  for (int i = 0; i < 512; ++i) r = add(r, r);
  r2_ = r;
  one_ = mul(U256{{1, 0, 0, 0}}, r2_);
}

U256 Mont::add(const U256& a, const U256& b) const { return add_mod(a, b, n_); }

U256 Mont::sub(const U256& a, const U256& b) const { return sub_mod(a, b, n_); }

U256 Mont::mul(const U256& a, const U256& b) const {
  // CIOS Montgomery multiplication, fixed 4 limbs.
  u64 t[6] = {0};
  for (int i = 0; i < 4; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a.w[i]) * b.w[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[4]) + carry;
    t[4] = static_cast<u64>(cur);
    t[5] = static_cast<u64>(cur >> 64);

    const u64 m = t[0] * n0inv_;
    // t += m * n; t >>= 64
    u128 c0 = static_cast<u128>(m) * n_.w[0] + t[0];
    carry = static_cast<u64>(c0 >> 64);
    for (int j = 1; j < 4; ++j) {
      const u128 cur2 = static_cast<u128>(m) * n_.w[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur2);
      carry = static_cast<u64>(cur2 >> 64);
    }
    cur = static_cast<u128>(t[4]) + carry;
    t[3] = static_cast<u64>(cur);
    t[4] = t[5] + static_cast<u64>(cur >> 64);
    t[5] = 0;
  }
  return sub_mod_once(U256{{t[0], t[1], t[2], t[3]}}, t[4], n_);
}

U256 Mont::from_mont(const U256& a) const { return mul(a, U256{{1, 0, 0, 0}}); }

U256 Mont::exp(const U256& base_mont, const U256& e) const {
  U256 acc = one_;
  bool started = false;
  for (int i = 255; i >= 0; --i) {
    if (started) acc = sqr(acc);
    if (e.bit(static_cast<std::size_t>(i))) {
      acc = started ? mul(acc, base_mont) : base_mont;
      started = true;
    }
  }
  return started ? acc : one_;
}

U256 Mont::inv(const U256& a_mont) const {
  // Fermat: a^(n-2) mod n.
  U256 nm2;
  raw_sub(nm2, n_, U256{{2, 0, 0, 0}});
  return exp(a_mont, nm2);
}

U256 Mont::inv_vartime(const U256& a) const {
  if (a.is_zero()) return U256{};
  // Invariants: x1 * a == u and x2 * a == v (mod n). Halving an even u or v
  // halves its x mod n; subtracting the smaller odd value from the larger
  // subtracts the x's. Ends when u or v reaches gcd(a, n) = 1.
  const U256 one{{1, 0, 0, 0}};
  U256 u = a, v = n_, x1 = one, x2{};
  const auto halve = [this](U256& value, U256& x) {
    for (int i = 0; i < 3; ++i) value.w[i] = (value.w[i] >> 1) | (value.w[i + 1] << 63);
    value.w[3] >>= 1;
    u64 carry = 0;
    if (x.w[0] & 1) {  // x + n is even; its 257th bit comes back on the shift
      for (int i = 0; i < 4; ++i) x.w[i] = addc(x.w[i], n_.w[i], carry);
    }
    for (int i = 0; i < 3; ++i) x.w[i] = (x.w[i] >> 1) | (x.w[i + 1] << 63);
    x.w[3] = (x.w[3] >> 1) | (carry << 63);
  };
  while (u != one && v != one) {
    while ((u.w[0] & 1) == 0) halve(u, x1);
    while ((v.w[0] & 1) == 0) halve(v, x2);
    if (raw_cmp(u, v) >= 0) {
      raw_sub(u, u, v);
      x1 = sub(x1, x2);
    } else {
      raw_sub(v, v, u);
      x2 = sub(x2, x1);
    }
  }
  return u == one ? x1 : x2;
}

U256 Mont::reduce_once(const U256& a) const { return sub_mod_once(a, 0, n_); }

// ---------------------------------------------------- ct window selection

AffinePoint ct_select_window(std::span<const AffinePoint> table, std::uint32_t idx) {
  AffinePoint out;
  u64 matched = 0;
  for (std::size_t j = 0; j < table.size(); ++j) {
    const u64 m = ct_eq_mask(idx, static_cast<u64>(j + 1));
    ct_cmov(out.x, table[j].x, m);
    ct_cmov(out.y, table[j].y, m);
    matched |= m;
  }
  out.infinity = matched == 0;
  return out;
}

// ------------------------------------------------------------------ curve

namespace {
U256 from_hex64(const char* hex) {
  // 64 hex chars -> U256
  Bytes b(32);
  auto nib = [](char c) -> u64 {
    if (c >= '0' && c <= '9') return static_cast<u64>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<u64>(c - 'a' + 10);
    return static_cast<u64>(c - 'A' + 10);
  };
  for (int i = 0; i < 32; ++i)
    b[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((nib(hex[2 * i]) << 4) | nib(hex[2 * i + 1]));
  return U256::from_bytes(b);
}

/// Constant-time scan over a window table of Montgomery-affine entries.
/// Returns the all-ones mask when idx selected a real entry (idx in [1, n]).
template <typename Entry>
u64 ct_select_entry(const Entry* table, int n, std::uint32_t idx, Entry& out) {
  u64 matched = 0;
  for (int j = 0; j < n; ++j) {
    const u64 m = ct_eq_mask(idx, static_cast<u64>(j + 1));
    ct_cmov(out.x, table[j].x, m);
    ct_cmov(out.y, table[j].y, m);
    matched |= m;
  }
  return matched;
}
}  // namespace

// The point formulas and the field inverse are [[gnu::flatten]]: their field
// operations are inlined, so the independent multiplications of one formula
// interleave in registers instead of passing through memory call by call
// (about a quarter off `mul` and `mul_add` on a 2 GHz Xeon, GCC 12).
template <class F>
struct P256::On {
  static Jacobian to_jacobian(const AffinePoint& p) {
    if (p.infinity) return Jacobian{};  // z == 0
    return Jacobian{F::to_mont(p.x), F::to_mont(p.y), Fp::kOne};
  }

  static AffinePoint to_affine(const Jacobian& p) {
    AffinePoint r;
    if (p.z.is_zero()) {
      r.infinity = true;
      return r;
    }
    const U256 zinv = F::inv(p.z);
    const U256 zinv2 = F::sqr(zinv);
    const U256 zinv3 = F::mul(zinv2, zinv);
    r.x = F::from_mont(F::mul(p.x, zinv2));
    r.y = F::from_mont(F::mul(p.y, zinv3));
    return r;
  }

  // Jacobian doubling for a = -3 (dbl-2001-b style, using
  // M = 3(X-Z^2)(X+Z^2), the factor 3 formed by two additions). Branch-free:
  // with Z = 0 the formulas yield Z3 = 0, so infinity stays infinity without a
  // secret-dependent early exit (the windowed ladders double an accumulator
  // that is infinity while the secret scalar's leading windows are zero).
  [[gnu::flatten]] static Jacobian dbl(const Jacobian& p) {
    const U256 z2 = F::sqr(p.z);
    const U256 m1 = F::mul(F::sub(p.x, z2), F::add(p.x, z2));
    const U256 m = F::add(F::add(m1, m1), m1);
    const U256 y2 = F::sqr(p.y);
    const U256 x2 = F::add(p.x, p.x);
    const U256 s = F::mul(F::add(x2, x2), y2);  // 4*X*Y^2
    const U256 x3 = F::sub(F::sqr(m), F::add(s, s));
    const U256 y4 = F::sqr(y2);
    const U256 y4x2 = F::add(y4, y4);
    const U256 y4x4 = F::add(y4x2, y4x2);
    const U256 y3 = F::sub(F::mul(m, F::sub(s, x3)), F::add(y4x4, y4x4));
    const U256 z3 = F::mul(F::add(p.y, p.y), p.z);
    return Jacobian{x3, y3, z3};
  }

  // General Jacobian addition (add-2007-bl style simplifications omitted;
  // straightforward formulas are fine at our scale). Used on public data only
  // (reference ladder, table precomputation) — branches are acceptable here.
  [[gnu::flatten]] static Jacobian add(const Jacobian& p, const Jacobian& q) {
    if (p.z.is_zero()) return q;
    if (q.z.is_zero()) return p;
    const U256 z1z1 = F::sqr(p.z);
    const U256 z2z2 = F::sqr(q.z);
    const U256 u1 = F::mul(p.x, z2z2);
    const U256 u2 = F::mul(q.x, z1z1);
    const U256 s1 = F::mul(p.y, F::mul(z2z2, q.z));
    const U256 s2 = F::mul(q.y, F::mul(z1z1, p.z));
    if (u1 == u2) {
      if (s1 == s2) return dbl(p);
      return Jacobian{};  // P + (-P) = infinity
    }
    const U256 h = F::sub(u2, u1);
    const U256 r = F::sub(s2, s1);
    const U256 h2 = F::sqr(h);
    const U256 h3 = F::mul(h2, h);
    const U256 u1h2 = F::mul(u1, h2);
    U256 x3 = F::sub(F::sub(F::sqr(r), h3), F::add(u1h2, u1h2));
    U256 y3 = F::sub(F::mul(r, F::sub(u1h2, x3)), F::mul(s1, h3));
    U256 z3 = F::mul(h, F::mul(p.z, q.z));
    return Jacobian{x3, y3, z3};
  }

  // Mixed addition p + q with q affine (Z2 = 1): madd-2007-bl, ~3 field muls
  // cheaper than the general add. Variable-time (public scalars only).
  [[gnu::flatten]] static Jacobian add_mixed(const Jacobian& p, const AffineMont& q) {
    if (p.z.is_zero()) return Jacobian{q.x, q.y, Fp::kOne};
    const U256 z1z1 = F::sqr(p.z);
    const U256 u2 = F::mul(q.x, z1z1);
    const U256 s2 = F::mul(q.y, F::mul(z1z1, p.z));
    const U256 h = F::sub(u2, p.x);
    const U256 r = F::sub(s2, p.y);
    if (h.is_zero()) {
      if (r.is_zero()) return dbl(p);
      return Jacobian{};  // p + (-p)
    }
    const U256 h2 = F::sqr(h);
    const U256 h3 = F::mul(h2, h);
    const U256 v = F::mul(p.x, h2);
    U256 x3 = F::sub(F::sub(F::sqr(r), h3), F::add(v, v));
    U256 y3 = F::sub(F::mul(r, F::sub(v, x3)), F::mul(p.y, h3));
    U256 z3 = F::mul(p.z, h);
    return Jacobian{x3, y3, z3};
  }

  // Constant-time mixed addition for secret-scalar ladders. The general-case
  // formulas run unconditionally; the two degenerate cases (accumulator at
  // infinity, window digit 0) are resolved afterwards with masked moves, so
  // control flow never depends on the secret window value.
  //
  // The p == ±q cases cannot arise when the scalar is in [0, n): the
  // accumulator always holds (prefix of k) * P with the prefix strictly
  // smaller than the table entry's multiple, so their multiples of P can only
  // collide mod n for k >= n. A plain branch guards that unreachable case to
  // keep out-of-range inputs well-defined (the differential tests exercise it).
  [[gnu::flatten]] static Jacobian add_mixed_ct(const Jacobian& p, const AffineMont& q,
                                                u64 valid_mask) {
    const U256 z1z1 = F::sqr(p.z);
    const U256 u2 = F::mul(q.x, z1z1);
    const U256 s2 = F::mul(q.y, F::mul(z1z1, p.z));
    const U256 h = F::sub(u2, p.x);
    const U256 r = F::sub(s2, p.y);
    const U256 h2 = F::sqr(h);
    const U256 h3 = F::mul(h2, h);
    const U256 v = F::mul(p.x, h2);
    Jacobian out;
    out.x = F::sub(F::sub(F::sqr(r), h3), F::add(v, v));
    out.y = F::sub(F::mul(r, F::sub(v, out.x)), F::mul(p.y, h3));
    out.z = F::mul(p.z, h);

    const u64 p_inf = ct_u256_is_zero_mask(p.z);
    // p at infinity: the sum is q lifted to Jacobian.
    const Jacobian lifted{q.x, q.y, Fp::kOne};
    ct_cmov(out.x, lifted.x, p_inf & valid_mask);
    ct_cmov(out.y, lifted.y, p_inf & valid_mask);
    ct_cmov(out.z, lifted.z, p_inf & valid_mask);
    // q absent (window digit 0): keep p.
    ct_cmov(out.x, p.x, ~valid_mask);
    ct_cmov(out.y, p.y, ~valid_mask);
    ct_cmov(out.z, p.z, ~valid_mask);

    if ((ct_u256_is_zero_mask(h) & ct_u256_is_zero_mask(r) & ~p_inf & valid_mask) != 0) {
      return dbl(p);  // unreachable for scalars < n; see comment above
    }
    return out;
  }

  static void batch_to_affine_mont(const Jacobian* in, AffineMont* out, std::size_t count) {
    // Montgomery's trick: one field inversion for the whole batch. Callers
    // guarantee no input is at infinity (window tables never contain it).
    std::vector<U256> prefix(count);
    U256 acc = Fp::kOne;
    for (std::size_t i = 0; i < count; ++i) {
      acc = F::mul(acc, in[i].z);
      prefix[i] = acc;
    }
    U256 inv_tail = F::inv(acc);  // (z0*...*z_{n-1})^-1
    for (std::size_t i = count; i-- > 0;) {
      const U256 zinv = i == 0 ? inv_tail : F::mul(inv_tail, prefix[i - 1]);
      inv_tail = F::mul(inv_tail, in[i].z);
      const U256 zinv2 = F::sqr(zinv);
      out[i].x = F::mul(in[i].x, zinv2);
      out[i].y = F::mul(in[i].y, F::mul(zinv2, zinv));
    }
  }

  static void build_odd_table(const AffinePoint& p, AffineMont* out, int count) {
    // out[j] = (2j + 1) * p: stepping by 2p, then one batched inversion.
    std::array<Jacobian, kOddG> jt;
    jt[0] = to_jacobian(p);
    const Jacobian twice = dbl(jt[0]);
    for (int j = 1; j < count; ++j) jt[j] = add(jt[j - 1], twice);
    batch_to_affine_mont(jt.data(), out, static_cast<std::size_t>(count));
  }

  static void build_window_table(const AffinePoint& p, AffineMont out[kTableSize]) {
    Jacobian jt[kTableSize];
    jt[0] = to_jacobian(p);
    for (int j = 1; j < kTableSize; ++j) jt[j] = add(jt[j - 1], jt[0]);
    batch_to_affine_mont(jt, out, kTableSize);
  }

  /// The reference double-and-add ladder.
  static Jacobian ladder(const U256& k, const Jacobian& p) {
    Jacobian acc{};  // infinity
    for (int i = 255; i >= 0; --i) {
      acc = dbl(acc);
      if (k.bit(static_cast<std::size_t>(i))) acc = add(acc, p);
    }
    return acc;
  }

  // Fixed-base comb: one constant-time-selected mixed addition per 4-bit
  // window, no doublings at all (the table rows absorb the 16^i factors).
  static Jacobian mul_base(const P256& c, const U256& k) {
    Jacobian acc{};  // infinity
    for (int i = 0; i < kWindows; ++i) {
      const std::uint32_t d = window4(k, i);
      AffineMont sel{};
      const u64 valid =
          ct_select_entry(c.base_table_[static_cast<std::size_t>(i)].data(), kTableSize, d, sel);
      acc = add_mixed_ct(acc, sel, valid);
    }
    return acc;
  }

  // Fixed-window (w=4) left-to-right ladder: 4 doublings + one
  // constant-time-selected mixed addition per window. The per-call table is
  // derived from the (public) input point; only the selection index is
  // secret, and it never steers a branch or a memory address.
  static Jacobian mul(const U256& k, const AffinePoint& p) {
    AffineMont table[kTableSize];
    build_window_table(p, table);
    Jacobian acc{};  // infinity
    for (int i = kWindows - 1; i >= 0; --i) {
      if (i != kWindows - 1) {
        for (int d = 0; d < kWindowBits; ++d) acc = dbl(acc);
      }
      const std::uint32_t d = window4(k, i);
      AffineMont sel{};
      const u64 valid = ct_select_entry(table, kTableSize, d, sel);
      acc = add_mixed_ct(acc, sel, valid);
    }
    return acc;
  }

  // Strauss interleaving of two wNAFs over one chain of doublings: digits
  // of u1 index the precomputed odd multiples of G, digits of u2 a per-call
  // table of odd multiples of Q, and a negative digit adds the entry with y
  // negated. ECDSA verification inputs are public, so the digits may steer
  // branches and table indices.
  static Jacobian mul_add(const P256& c, const U256& u1, const U256& u2, const AffinePoint& q) {
    std::int8_t naf_g[kWnafLen];
    std::int8_t naf_q[kWnafLen];
    const int len = std::max(wnaf(u1, kWnafG, naf_g), wnaf(u2, kWnafQ, naf_q));
    AffineMont table_q[kOddQ];
    build_odd_table(q, table_q, kOddQ);
    Jacobian acc{};  // infinity
    const auto add_digit = [&](const AffineMont* table, int d) {
      if (d > 0) {
        acc = add_mixed(acc, table[(d - 1) / 2]);
      } else if (d < 0) {
        const AffineMont& e = table[(-d - 1) / 2];
        acc = add_mixed(acc, AffineMont{e.x, F::neg(e.y)});
      }
    };
    for (int i = len - 1; i >= 0; --i) {
      acc = dbl(acc);
      add_digit(c.g_odd_.data(), naf_g[i]);
      add_digit(table_q, naf_q[i]);
    }
    return acc;
  }

  // See P256::jacobian_x_equals: X/Z^2 in {r, r + n} without inverting Z.
  static bool x_equals(const P256& c, const U256& x, const U256& z, const U256& r) {
    if (z.is_zero()) return false;
    const U256 z2 = F::sqr(z);
    if (F::mul(F::to_mont(r), z2) == x) return true;
    U256 r_plus_n;
    u64 carry = 0;
    for (int i = 0; i < 4; ++i) r_plus_n.w[i] = addc(r.w[i], c.order().w[i], carry);
    return carry == 0 && raw_cmp(r_plus_n, Fp::kP) < 0 && F::mul(F::to_mont(r_plus_n), z2) == x;
  }
};

const P256& P256::instance() {
  static const P256 curve;
  return curve;
}

P256::P256()
    : fn_(from_hex64("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")),
      kernel_(FpAdx::available() && crypto::configured_backend() != crypto::Backend::kScalar
                  ? FieldKernel::kAdx
                  : FieldKernel::kPortable) {
  using Ops = On<Fp>;
  const U256 b = from_hex64("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
  const U256 gx = from_hex64("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
  const U256 gy = from_hex64("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
  b_mont_ = Fp::to_mont(b);
  g_.x = gx;
  g_.y = gy;

  // Precompute the fixed-base comb table: row i holds {1..15} * 16^i * G.
  // With it, mul_base needs zero doublings — one mixed addition per window.
  // All entries derive from the public generator; one-time cost at first
  // P256::instance() is ~1.2k Jacobian ops plus a single batched inversion.
  std::vector<Jacobian> rows(static_cast<std::size_t>(kWindows) * kTableSize);
  Jacobian cur = Ops::to_jacobian(g_);
  for (int i = 0; i < kWindows; ++i) {
    Jacobian* row = rows.data() + static_cast<std::size_t>(i) * kTableSize;
    row[0] = cur;
    for (int j = 1; j < kTableSize; ++j) row[j] = Ops::add(row[j - 1], cur);
    if (i + 1 < kWindows) {
      for (int d = 0; d < kWindowBits; ++d) cur = Ops::dbl(cur);
    }
  }
  std::vector<AffineMont> flat(rows.size());
  Ops::batch_to_affine_mont(rows.data(), flat.data(), rows.size());
  for (int i = 0; i < kWindows; ++i)
    for (int j = 0; j < kTableSize; ++j)
      base_table_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          flat[static_cast<std::size_t>(i) * kTableSize + static_cast<std::size_t>(j)];
  Ops::build_odd_table(g_, g_odd_.data(), kOddG);
}

AffinePoint P256::mul_base_reference(const U256& k) const { return mul_reference(k, g_); }

AffinePoint P256::mul_reference(const U256& k, const AffinePoint& p) const {
  return On<Fp>::to_affine(On<Fp>::ladder(k, On<Fp>::to_jacobian(p)));
}

AffinePoint P256::mul_add_reference(const U256& u1, const U256& u2, const AffinePoint& q) const {
  using Ops = On<Fp>;
  const Jacobian a = Ops::ladder(u1, Ops::to_jacobian(g_));
  const Jacobian b = Ops::ladder(u2, Ops::to_jacobian(q));
  return Ops::to_affine(Ops::add(a, b));
}

AffinePoint P256::mul_base(const U256& k, FieldKernel f) const {
  if (f == FieldKernel::kAdx) return On<FpAdx>::to_affine(On<FpAdx>::mul_base(*this, k));
  return On<Fp>::to_affine(On<Fp>::mul_base(*this, k));
}

AffinePoint P256::mul(const U256& k, const AffinePoint& p, FieldKernel f) const {
  if (f == FieldKernel::kAdx) return On<FpAdx>::to_affine(On<FpAdx>::mul(k, p));
  return On<Fp>::to_affine(On<Fp>::mul(k, p));
}

AffinePoint P256::mul_add(const U256& u1, const U256& u2, const AffinePoint& q,
                          FieldKernel f) const {
  if (f == FieldKernel::kAdx) return On<FpAdx>::to_affine(On<FpAdx>::mul_add(*this, u1, u2, q));
  return On<Fp>::to_affine(On<Fp>::mul_add(*this, u1, u2, q));
}

AffinePoint P256::mul_base(const U256& k) const {
#ifdef MBTLS_REFERENCE_CRYPTO
  return mul_base_reference(k);
#else
  return mul_base(k, kernel_);
#endif
}

AffinePoint P256::mul(const U256& k, const AffinePoint& p) const {
#ifdef MBTLS_REFERENCE_CRYPTO
  return mul_reference(k, p);
#else
  return mul(k, p, kernel_);
#endif
}

AffinePoint P256::mul_add(const U256& u1, const U256& u2, const AffinePoint& q) const {
#ifdef MBTLS_REFERENCE_CRYPTO
  return mul_add_reference(u1, u2, q);
#else
  return mul_add(u1, u2, q, kernel_);
#endif
}

bool P256::jacobian_x_equals(const U256& x, const U256& z, const U256& r) const {
  if (kernel_ == FieldKernel::kAdx) return On<FpAdx>::x_equals(*this, x, z, r);
  return On<Fp>::x_equals(*this, x, z, r);
}

bool P256::mul_add_x_equals(const U256& u1, const U256& u2, const AffinePoint& q,
                            const U256& r) const {
#ifdef MBTLS_REFERENCE_CRYPTO
  const AffinePoint p = mul_add_reference(u1, u2, q);
  return !p.infinity && fn_.reduce_once(p.x) == r;
#else
  if (kernel_ == FieldKernel::kAdx) {
    const Jacobian p = On<FpAdx>::mul_add(*this, u1, u2, q);
    return On<FpAdx>::x_equals(*this, p.x, p.z, r);
  }
  const Jacobian p = On<Fp>::mul_add(*this, u1, u2, q);
  return On<Fp>::x_equals(*this, p.x, p.z, r);
#endif
}

bool P256::on_curve(const AffinePoint& p) const {
  if (p.infinity) return false;
  // y^2 == x^3 - 3x + b (in the Montgomery domain).
  const U256 x = Fp::to_mont(p.x);
  const U256 y = Fp::to_mont(p.y);
  const U256 y2 = Fp::sqr(y);
  const U256 x3 = Fp::mul(Fp::sqr(x), x);
  const U256 x_times3 = Fp::add(Fp::add(x, x), x);
  const U256 rhs = Fp::add(Fp::sub(x3, x_times3), b_mont_);
  return y2 == rhs;
}

Bytes P256::encode_point(const AffinePoint& p) const {
  if (p.infinity) throw std::invalid_argument("cannot encode point at infinity");
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  append(out, p.x.to_bytes());
  append(out, p.y.to_bytes());
  return out;
}

std::optional<AffinePoint> P256::decode_point(ByteView data) const {
  if (data.size() != 65 || data[0] != 0x04) return std::nullopt;
  AffinePoint p;
  p.x = U256::from_bytes(data.subspan(1, 32));
  p.y = U256::from_bytes(data.subspan(33, 32));
  if (raw_cmp(p.x, Fp::kP) >= 0 || raw_cmp(p.y, Fp::kP) >= 0) return std::nullopt;
  if (!on_curve(p)) return std::nullopt;
  return p;
}

U256 P256::random_scalar(crypto::Drbg& rng) const {
  for (;;) {
    const Bytes b = rng.bytes(32);
    const U256 k = U256::from_bytes(b);
    if (!k.is_zero() && raw_cmp(k, order()) < 0) return k;
  }
}

}  // namespace mbtls::ec
