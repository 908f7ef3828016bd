// Field arithmetic modulo p = 2^255 - 19 with five 51-bit limbs
// (unsigned __int128 products). Internal header shared by the X25519 and
// Ed25519 implementations; not part of the public crypto API.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace agrarsec::crypto::detail {

/// Field element: f[0] + f[1]*2^51 + ... + f[4]*2^204, limbs < 2^52-ish
/// between reductions.
struct Fe {
  std::uint64_t v[5];
};

inline constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

inline Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
inline Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

inline void fe_copy(Fe& h, const Fe& f) { h = f; }

inline void fe_add(Fe& h, const Fe& f, const Fe& g) {
  for (int i = 0; i < 5; ++i) h.v[i] = f.v[i] + g.v[i];
}

/// h = f - g, with bias 2*p added so limbs stay non-negative.
inline void fe_sub(Fe& h, const Fe& f, const Fe& g) {
  // 2*p in 51-bit limbs: (2^255-19)*2 = limbs {2^52-38, 2^52-2, ...}
  static constexpr std::uint64_t kTwoP0 = 0xFFFFFFFFFFFDAULL;  // 2*(2^51-19)
  static constexpr std::uint64_t kTwoP1234 = 0xFFFFFFFFFFFFEULL;  // 2*(2^51-1)
  h.v[0] = f.v[0] + kTwoP0 - g.v[0];
  h.v[1] = f.v[1] + kTwoP1234 - g.v[1];
  h.v[2] = f.v[2] + kTwoP1234 - g.v[2];
  h.v[3] = f.v[3] + kTwoP1234 - g.v[3];
  h.v[4] = f.v[4] + kTwoP1234 - g.v[4];
}

/// Weak reduction: brings limbs below ~2^52.
inline void fe_carry(Fe& h) {
  std::uint64_t c;
  c = h.v[0] >> 51; h.v[0] &= kMask51; h.v[1] += c;
  c = h.v[1] >> 51; h.v[1] &= kMask51; h.v[2] += c;
  c = h.v[2] >> 51; h.v[2] &= kMask51; h.v[3] += c;
  c = h.v[3] >> 51; h.v[3] &= kMask51; h.v[4] += c;
  c = h.v[4] >> 51; h.v[4] &= kMask51; h.v[0] += c * 19;
  c = h.v[0] >> 51; h.v[0] &= kMask51; h.v[1] += c;
}

/// Carries the five 128-bit column sums of a product into 51-bit limbs.
inline void fe_carry_wide(Fe& h, unsigned __int128 h0, unsigned __int128 h1,
                          unsigned __int128 h2, unsigned __int128 h3, unsigned __int128 h4) {
  std::uint64_t c;
  std::uint64_t r0 = (std::uint64_t)h0 & kMask51; c = (std::uint64_t)(h0 >> 51);
  h1 += c;
  std::uint64_t r1 = (std::uint64_t)h1 & kMask51; c = (std::uint64_t)(h1 >> 51);
  h2 += c;
  std::uint64_t r2 = (std::uint64_t)h2 & kMask51; c = (std::uint64_t)(h2 >> 51);
  h3 += c;
  std::uint64_t r3 = (std::uint64_t)h3 & kMask51; c = (std::uint64_t)(h3 >> 51);
  h4 += c;
  std::uint64_t r4 = (std::uint64_t)h4 & kMask51; c = (std::uint64_t)(h4 >> 51);
  r0 += c * 19; c = r0 >> 51; r0 &= kMask51;
  r1 += c;

  h.v[0] = r0; h.v[1] = r1; h.v[2] = r2; h.v[3] = r3; h.v[4] = r4;
}

inline void fe_mul(Fe& h, const Fe& f, const Fe& g) {
  using u128 = unsigned __int128;
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const std::uint64_t g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3], g4 = g.v[4];
  const std::uint64_t g1_19 = g1 * 19, g2_19 = g2 * 19, g3_19 = g3 * 19, g4_19 = g4 * 19;

  u128 h0 = (u128)f0 * g0 + (u128)f1 * g4_19 + (u128)f2 * g3_19 + (u128)f3 * g2_19 + (u128)f4 * g1_19;
  u128 h1 = (u128)f0 * g1 + (u128)f1 * g0 + (u128)f2 * g4_19 + (u128)f3 * g3_19 + (u128)f4 * g2_19;
  u128 h2 = (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 + (u128)f3 * g4_19 + (u128)f4 * g3_19;
  u128 h3 = (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 + (u128)f3 * g0 + (u128)f4 * g4_19;
  u128 h4 = (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 + (u128)f3 * g1 + (u128)f4 * g0;
  fe_carry_wide(h, h0, h1, h2, h3, h4);
}

/// h = f^2. The same five sums as fe_mul(h, f, f) with each symmetric pair
/// of products folded into one (2 f_i f_j, and 38 = 2 * 19 for the wrapped
/// pairs): 15 products instead of 25. The u128 sums are exact, so every
/// limb matches fe_mul(h, f, f).
inline void fe_sq(Fe& h, const Fe& f) {
  using u128 = unsigned __int128;
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const std::uint64_t f0_2 = f0 * 2, f1_2 = f1 * 2;
  const std::uint64_t f1_38 = f1 * 38, f2_38 = f2 * 38, f3_38 = f3 * 38;
  const std::uint64_t f3_19 = f3 * 19, f4_19 = f4 * 19;

  const u128 h0 = (u128)f0 * f0 + (u128)f1_38 * f4 + (u128)f2_38 * f3;
  const u128 h1 = (u128)f0_2 * f1 + (u128)f2_38 * f4 + (u128)f3_19 * f3;
  const u128 h2 = (u128)f0_2 * f2 + (u128)f1 * f1 + (u128)f3_38 * f4;
  const u128 h3 = (u128)f0_2 * f3 + (u128)f1_2 * f2 + (u128)f4_19 * f4;
  const u128 h4 = (u128)f0_2 * f4 + (u128)f1_2 * f3 + (u128)f2 * f2;
  fe_carry_wide(h, h0, h1, h2, h3, h4);
}

inline void fe_mul_small(Fe& h, const Fe& f, std::uint64_t s) {
  using u128 = unsigned __int128;
  u128 a0 = (u128)f.v[0] * s;
  u128 a1 = (u128)f.v[1] * s;
  u128 a2 = (u128)f.v[2] * s;
  u128 a3 = (u128)f.v[3] * s;
  u128 a4 = (u128)f.v[4] * s;
  fe_carry_wide(h, a0, a1, a2, a3, a4);
}

/// Full reduction to canonical form (< p) and serialization.
inline void fe_tobytes(std::uint8_t out[32], const Fe& f) {
  Fe t = f;
  fe_carry(t);
  fe_carry(t);

  // Freeze: add 19, propagate, then drop the top bit and subtract.
  std::uint64_t q = (t.v[0] + 19) >> 51;
  q = (t.v[1] + q) >> 51;
  q = (t.v[2] + q) >> 51;
  q = (t.v[3] + q) >> 51;
  q = (t.v[4] + q) >> 51;

  t.v[0] += 19 * q;
  std::uint64_t c;
  c = t.v[0] >> 51; t.v[0] &= kMask51; t.v[1] += c;
  c = t.v[1] >> 51; t.v[1] &= kMask51; t.v[2] += c;
  c = t.v[2] >> 51; t.v[2] &= kMask51; t.v[3] += c;
  c = t.v[3] >> 51; t.v[3] &= kMask51; t.v[4] += c;
  t.v[4] &= kMask51;

  const std::uint64_t w0 = t.v[0] | (t.v[1] << 51);
  const std::uint64_t w1 = (t.v[1] >> 13) | (t.v[2] << 38);
  const std::uint64_t w2 = (t.v[2] >> 26) | (t.v[3] << 25);
  const std::uint64_t w3 = (t.v[3] >> 39) | (t.v[4] << 12);
  std::memcpy(out + 0, &w0, 8);
  std::memcpy(out + 8, &w1, 8);
  std::memcpy(out + 16, &w2, 8);
  std::memcpy(out + 24, &w3, 8);
}

inline void fe_frombytes(Fe& h, const std::uint8_t in[32]) {
  std::uint64_t w0, w1, w2, w3;
  std::memcpy(&w0, in + 0, 8);
  std::memcpy(&w1, in + 8, 8);
  std::memcpy(&w2, in + 16, 8);
  std::memcpy(&w3, in + 24, 8);
  h.v[0] = w0 & kMask51;
  h.v[1] = ((w0 >> 51) | (w1 << 13)) & kMask51;
  h.v[2] = ((w1 >> 38) | (w2 << 26)) & kMask51;
  h.v[3] = ((w2 >> 25) | (w3 << 39)) & kMask51;
  h.v[4] = (w3 >> 12) & kMask51;  // top bit ignored per both RFCs
}

/// Constant-time conditional swap on bit `b`.
inline void fe_cswap(Fe& f, Fe& g, std::uint64_t b) {
  const std::uint64_t mask = 0 - b;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t x = mask & (f.v[i] ^ g.v[i]);
    f.v[i] ^= x;
    g.v[i] ^= x;
  }
}

/// Constant-time conditional move: f = g when `b` is 1, unchanged when 0.
inline void fe_cmov(Fe& f, const Fe& g, std::uint64_t b) {
  const std::uint64_t mask = 0 - b;
  for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
}

/// h = f^(p-2) = f^-1 (Fermat), fixed addition chain.
inline void fe_invert(Fe& out, const Fe& z) {
  Fe z2, z9, z11, z2_5_0, z2_10_0, z2_20_0, z2_50_0, z2_100_0, t;
  fe_sq(z2, z);                    // 2
  fe_sq(t, z2); fe_sq(t, t);       // 8
  fe_mul(z9, t, z);                // 9
  fe_mul(z11, z9, z2);             // 11
  fe_sq(t, z11);                   // 22
  fe_mul(z2_5_0, t, z9);           // 2^5 - 1
  fe_sq(t, z2_5_0);
  for (int i = 1; i < 5; ++i) fe_sq(t, t);
  fe_mul(z2_10_0, t, z2_5_0);      // 2^10 - 1
  fe_sq(t, z2_10_0);
  for (int i = 1; i < 10; ++i) fe_sq(t, t);
  fe_mul(z2_20_0, t, z2_10_0);     // 2^20 - 1
  fe_sq(t, z2_20_0);
  for (int i = 1; i < 20; ++i) fe_sq(t, t);
  fe_mul(t, t, z2_20_0);           // 2^40 - 1
  fe_sq(t, t);
  for (int i = 1; i < 10; ++i) fe_sq(t, t);
  fe_mul(z2_50_0, t, z2_10_0);     // 2^50 - 1
  fe_sq(t, z2_50_0);
  for (int i = 1; i < 50; ++i) fe_sq(t, t);
  fe_mul(z2_100_0, t, z2_50_0);    // 2^100 - 1
  fe_sq(t, z2_100_0);
  for (int i = 1; i < 100; ++i) fe_sq(t, t);
  fe_mul(t, t, z2_100_0);          // 2^200 - 1
  fe_sq(t, t);
  for (int i = 1; i < 50; ++i) fe_sq(t, t);
  fe_mul(t, t, z2_50_0);           // 2^250 - 1
  fe_sq(t, t); fe_sq(t, t); fe_sq(t, t); fe_sq(t, t); fe_sq(t, t);
  fe_mul(out, t, z11);             // 2^255 - 21 = p - 2
}

/// h = f^((p-5)/8) = f^(2^252 - 3); used for square roots in Ed25519
/// decompression.
inline void fe_pow22523(Fe& out, const Fe& z) {
  Fe z2, z9, z2_5_0, z2_10_0, z2_20_0, z2_50_0, z2_100_0, t;
  fe_sq(z2, z);
  fe_sq(t, z2); fe_sq(t, t);
  fe_mul(z9, t, z);
  fe_mul(t, z9, z2);               // z11
  fe_sq(t, t);
  fe_mul(z2_5_0, t, z9);
  fe_sq(t, z2_5_0);
  for (int i = 1; i < 5; ++i) fe_sq(t, t);
  fe_mul(z2_10_0, t, z2_5_0);
  fe_sq(t, z2_10_0);
  for (int i = 1; i < 10; ++i) fe_sq(t, t);
  fe_mul(z2_20_0, t, z2_10_0);
  fe_sq(t, z2_20_0);
  for (int i = 1; i < 20; ++i) fe_sq(t, t);
  fe_mul(t, t, z2_20_0);
  fe_sq(t, t);
  for (int i = 1; i < 10; ++i) fe_sq(t, t);
  fe_mul(z2_50_0, t, z2_10_0);
  fe_sq(t, z2_50_0);
  for (int i = 1; i < 50; ++i) fe_sq(t, t);
  fe_mul(z2_100_0, t, z2_50_0);
  fe_sq(t, z2_100_0);
  for (int i = 1; i < 100; ++i) fe_sq(t, t);
  fe_mul(t, t, z2_100_0);
  fe_sq(t, t);
  for (int i = 1; i < 50; ++i) fe_sq(t, t);
  fe_mul(t, t, z2_50_0);           // 2^250 - 1
  fe_sq(t, t); fe_sq(t, t);
  fe_mul(out, t, z);               // 2^252 - 3
}

inline bool fe_is_zero(const Fe& f) {
  std::uint8_t bytes[32];
  fe_tobytes(bytes, f);
  std::uint8_t acc = 0;
  for (std::uint8_t b : bytes) acc |= b;
  return acc == 0;
}

inline bool fe_is_negative(const Fe& f) {
  std::uint8_t bytes[32];
  fe_tobytes(bytes, f);
  return (bytes[0] & 1) != 0;
}

inline void fe_neg(Fe& h, const Fe& f) {
  const Fe zero = fe_zero();
  fe_sub(h, zero, f);
  fe_carry(h);
}

/// The Montgomery u-coordinate of [e]B for an X25519-clamped scalar `e`
/// (e[31] <= 127), in constant time: Ed25519's base-point multiplication
/// and the birational map u = (1 + y)/(1 - y). Defined in ed25519.cpp,
/// next to the base-point table; x25519_base's implementation.
void x25519_base_u(std::uint8_t out[32], const std::uint8_t e[32]);

}  // namespace agrarsec::crypto::detail
