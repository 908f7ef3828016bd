#include "crypto/ed25519.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "crypto/field25519.h"
#include "crypto/sha512.h"

namespace agrarsec::crypto {

namespace detail {
thread_local PointOpCount ed25519_point_ops;
}  // namespace detail

namespace {

using detail::Fe;

// --- Edwards curve points. ---

/// Extended coordinates (X:Y:Z:T): x = X/Z, y = Y/Z, x*y = T/Z. What an
/// addition reads.
struct GePoint {
  Fe x, y, z, t;
};

/// Projective coordinates (X:Y:Z): all a doubling reads. A doubling or
/// addition whose result only feeds a doubling (or an encoding) finishes
/// here and skips T's multiplication.
struct GeProjective {
  Fe x, y, z;
};

/// An addition's or a doubling's E, F, G, H before the last products:
/// X = EF, Y = GH, Z = FG and T = EH.
struct GeCompleted {
  Fe e, f, g, h;
};

/// Affine point prepared for mixed addition: (y+x, y-x, 2dxy). The
/// base-point tables hold these.
struct GePrecomp {
  Fe yplusx, yminusx, xy2d;
};

/// Projective point prepared for addition: (Y+X, Y-X, Z, 2dT).
struct GeCached {
  Fe yplusx, yminusx, z, t2d;
};

// d = -121665/121666 mod p.
const Fe kD = {{0x34dca135978a3ULL, 0x1a8283b156ebdULL, 0x5e7a26001c029ULL,
                0x739c663a03cbbULL, 0x52036cee2b6ffULL}};
// 2*d
const Fe kD2 = {{0x69b9426b2f159ULL, 0x35050762add7aULL, 0x3cf44c0038052ULL,
                 0x6738cc7407977ULL, 0x2406d9dc56dffULL}};
// sqrt(-1) = 2^((p-1)/4)
const Fe kSqrtM1 = {{0x61b274a0ea0b0ULL, 0xd5a5fc8f189dULL, 0x7ef5e9cbd0c60ULL,
                     0x78595a6804c9eULL, 0x2b8324804fc1dULL}};

GePoint ge_identity() {
  return GePoint{detail::fe_zero(), detail::fe_one(), detail::fe_one(), detail::fe_zero()};
}

/// Base point B (x, 4/5) with x positive.
GePoint ge_base() {
  // Canonical encoding of B's y = 4/5; x recovered sign-positive.
  static const Fe bx = {{0x62d608f25d51aULL, 0x412a4b4f6592aULL, 0x75b7171a4b31dULL,
                         0x1ff60527118feULL, 0x216936d3cd6e5ULL}};
  static const Fe by = {{0x6666666666658ULL, 0x4ccccccccccccULL, 0x1999999999999ULL,
                         0x3333333333333ULL, 0x6666666666666ULL}};
  GePoint p;
  p.x = bx;
  p.y = by;
  p.z = detail::fe_one();
  detail::fe_mul(p.t, bx, by);
  return p;
}

GePoint to_extended(const GeCompleted& c) {
  GePoint r;
  detail::fe_mul(r.x, c.e, c.f);
  detail::fe_mul(r.y, c.g, c.h);
  detail::fe_mul(r.t, c.e, c.h);
  detail::fe_mul(r.z, c.f, c.g);
  return r;
}

GeProjective to_projective(const GeCompleted& c) {
  GeProjective r;
  detail::fe_mul(r.x, c.e, c.f);
  detail::fe_mul(r.y, c.g, c.h);
  detail::fe_mul(r.z, c.f, c.g);
  return r;
}

GeProjective to_projective(const GePoint& p) { return {p.x, p.y, p.z}; }

/// Shared tail of the unified addition (RFC 8032 §5.1.4, extended coords),
/// given A = (Y1-X1)(Y2-X2), B = (Y1+X1)(Y2+X2), C = 2d T1 T2, D = 2 Z1 Z2.
GeCompleted ge_add_finish(const Fe& a, const Fe& b, const Fe& c, const Fe& d) {
  GeCompleted r;
  detail::fe_sub(r.e, b, a);                   // E = B - A
  detail::fe_carry(r.e);
  detail::fe_sub(r.f, d, c);                   // F = D - C
  detail::fe_carry(r.f);
  detail::fe_add(r.g, d, c);                   // G = D + C
  detail::fe_carry(r.g);
  detail::fe_add(r.h, b, a);                   // H = B + A
  detail::fe_carry(r.h);
  ++detail::ed25519_point_ops.adds;
  return r;
}

/// Y1 + X1 and Y1 - X1, the first step of both additions.
void ge_sum_diff(Fe& ypx, Fe& ymx, const GePoint& p) {
  detail::fe_add(ypx, p.y, p.x);
  detail::fe_carry(ypx);
  detail::fe_sub(ymx, p.y, p.x);
  detail::fe_carry(ymx);
}

/// p + q.
GeCompleted ge_add(const GePoint& p, const GeCached& q) {
  Fe ypx, ymx, a, b, c, d;
  ge_sum_diff(ypx, ymx, p);
  detail::fe_mul(a, ymx, q.yminusx);
  detail::fe_mul(b, ypx, q.yplusx);
  detail::fe_mul(c, p.t, q.t2d);
  detail::fe_mul(d, p.z, q.z);
  detail::fe_add(d, d, d);
  detail::fe_carry(d);
  return ge_add_finish(a, b, c, d);
}

/// p + q for an affine q (Z2 = 1): one multiplication fewer.
GeCompleted ge_madd(const GePoint& p, const GePrecomp& q) {
  Fe ypx, ymx, a, b, c, d;
  ge_sum_diff(ypx, ymx, p);
  detail::fe_mul(a, ymx, q.yminusx);
  detail::fe_mul(b, ypx, q.yplusx);
  detail::fe_mul(c, p.t, q.xy2d);
  detail::fe_add(d, p.z, p.z);
  detail::fe_carry(d);
  return ge_add_finish(a, b, c, d);
}

/// 2p with the dedicated doubling: 4 squarings where the addition has 4
/// multiplications before its last products. T is not read.
GeCompleted ge_double(const GeProjective& p) {
  Fe xx, yy, zz2, s, ss, e, f, g, h;
  detail::fe_sq(xx, p.x);
  detail::fe_sq(yy, p.y);
  detail::fe_sq(zz2, p.z);
  detail::fe_add(zz2, zz2, zz2);               // 2 Z^2
  detail::fe_carry(zz2);
  detail::fe_add(s, p.x, p.y);
  detail::fe_carry(s);
  detail::fe_sq(ss, s);                        // (X + Y)^2
  detail::fe_add(g, yy, xx);                   // G = YY + XX
  detail::fe_carry(g);
  detail::fe_sub(h, yy, xx);                   // H = YY - XX
  detail::fe_carry(h);
  detail::fe_sub(e, ss, g);                    // E = 2XY
  detail::fe_carry(e);
  detail::fe_sub(f, zz2, h);                   // F = 2Z^2 - H
  detail::fe_carry(f);
  ++detail::ed25519_point_ops.doubles;
  // The doubling's X = EF, Y = GH, Z = HF, T = EG: the addition's finish
  // with G and H trading places.
  return GeCompleted{e, f, h, g};
}

GeCached ge_to_cached(const GePoint& p) {
  GeCached r;
  ge_sum_diff(r.yplusx, r.yminusx, p);
  r.z = p.z;
  detail::fe_mul(r.t2d, p.t, kD2);
  return r;
}

/// -q: swaps y+x with y-x and negates 2dxy.
GePrecomp ge_neg(const GePrecomp& q) {
  GePrecomp r{q.yminusx, q.yplusx, {}};
  detail::fe_neg(r.xy2d, q.xy2d);
  return r;
}

GeCached ge_neg(const GeCached& q) {
  GeCached r{q.yminusx, q.yplusx, q.z, {}};
  detail::fe_neg(r.t2d, q.t2d);
  return r;
}

void ge_tobytes(std::uint8_t out[32], const GeProjective& p) {
  Fe recip, x, y;
  detail::fe_invert(recip, p.z);
  detail::fe_mul(x, p.x, recip);
  detail::fe_mul(y, p.y, recip);
  detail::fe_tobytes(out, y);
  out[31] ^= static_cast<std::uint8_t>(detail::fe_is_negative(x) ? 0x80 : 0x00);
}

/// Decompresses a point; returns false when no square root exists.
bool ge_frombytes(GePoint& p, const std::uint8_t in[32]) {
  Fe y;
  detail::fe_frombytes(y, in);
  const bool x_sign = (in[31] & 0x80) != 0;

  // x^2 = (y^2 - 1) / (d y^2 + 1)
  Fe y2, u, v;
  detail::fe_sq(y2, y);
  detail::fe_sub(u, y2, detail::fe_one());
  detail::fe_carry(u);
  detail::fe_mul(v, y2, kD);
  detail::fe_add(v, v, detail::fe_one());
  detail::fe_carry(v);

  // Candidate root: x = u v^3 (u v^7)^((p-5)/8)
  Fe v3, v7, t, x;
  detail::fe_sq(v3, v);
  detail::fe_mul(v3, v3, v);
  detail::fe_sq(v7, v3);
  detail::fe_mul(v7, v7, v);
  detail::fe_mul(t, u, v7);
  detail::fe_pow22523(t, t);
  detail::fe_mul(x, t, v3);
  detail::fe_mul(x, x, u);

  // Check v x^2 == u or v x^2 == -u.
  Fe vx2, diff, sum;
  detail::fe_sq(vx2, x);
  detail::fe_mul(vx2, vx2, v);
  detail::fe_sub(diff, vx2, u);
  detail::fe_carry(diff);
  detail::fe_add(sum, vx2, u);
  detail::fe_carry(sum);

  if (!detail::fe_is_zero(diff)) {
    if (!detail::fe_is_zero(sum)) return false;
    detail::fe_mul(x, x, kSqrtM1);
  }

  if (detail::fe_is_zero(x) && x_sign) return false;  // x = 0 with sign bit: invalid
  if (detail::fe_is_negative(x) != x_sign) {
    detail::fe_neg(x, x);
  }

  p.x = x;
  p.y = y;
  p.z = detail::fe_one();
  detail::fe_mul(p.t, x, y);
  return true;
}

// --- Precomputed multiples of B. ---

/// The affine (y+x, y-x, 2dxy) forms of `points`, with one field inversion
/// for all their Z coordinates (Montgomery's trick): prefix[i] = Z_0 ... Z_i,
/// so 1/Z_i = prefix[i-1] / prefix[i].
template <std::size_t N>
std::array<GePrecomp, N> to_precomp(const std::array<GePoint, N>& points) {
  std::array<Fe, N> prefix;
  prefix[0] = points[0].z;
  for (std::size_t i = 1; i < N; ++i) detail::fe_mul(prefix[i], prefix[i - 1], points[i].z);
  Fe inv;  // 1 / prefix[i] for the current i
  detail::fe_invert(inv, prefix[N - 1]);

  std::array<GePrecomp, N> out;
  for (std::size_t i = N; i-- > 0;) {
    Fe zinv = inv;
    if (i > 0) {
      detail::fe_mul(zinv, inv, prefix[i - 1]);
      detail::fe_mul(inv, inv, points[i].z);
    }
    Fe x, y;
    detail::fe_mul(x, points[i].x, zinv);
    detail::fe_mul(y, points[i].y, zinv);
    GePrecomp& entry = out[i];
    detail::fe_add(entry.yplusx, y, x);
    detail::fe_carry(entry.yplusx);
    detail::fe_sub(entry.yminusx, y, x);
    detail::fe_carry(entry.yminusx);
    detail::fe_mul(entry.xy2d, x, y);
    detail::fe_mul(entry.xy2d, entry.xy2d, kD2);
  }
  return out;
}

/// Entry 8j + k is (k+1) * 16^(2j) * B for k = 0..7: 32 rows of 8, 256
/// affine entries, 30 KB.
using BaseTable = std::array<GePrecomp, 256>;

BaseTable build_base_table() {
  std::array<GePoint, 256> points;
  GePoint row_base = ge_base();
  for (std::size_t j = 0; j < 32; ++j) {
    const GeCached q = ge_to_cached(row_base);
    points[8 * j] = row_base;
    for (std::size_t k = 1; k < 8; ++k) {
      points[8 * j + k] = to_extended(ge_add(points[8 * j + k - 1], q));
    }
    GeProjective p = to_projective(row_base);
    for (int i = 0; i < 7; ++i) p = to_projective(ge_double(p));
    row_base = to_extended(ge_double(p));  // * 16^2
  }
  return to_precomp(points);
}

const BaseTable& base_table() {
  static const BaseTable table = build_base_table();
  return table;
}

/// Entry i is (2i + 1) * B: the odd multiples 1B..63B that verification's
/// width-7 digits of S index, 32 affine entries, 3.75 KB.
using OddTable = std::array<GePrecomp, 32>;

OddTable build_odd_table() {
  std::array<GePoint, 32> points;
  points[0] = ge_base();
  const GeCached twice = ge_to_cached(to_extended(ge_double(to_projective(points[0]))));
  for (std::size_t i = 1; i < 32; ++i) points[i] = to_extended(ge_add(points[i - 1], twice));
  return to_precomp(points);
}

const OddTable& odd_table() {
  static const OddTable table = build_odd_table();
  return table;
}

// --- Fixed-window base-point multiplication. ---

/// Signed radix-16 digits of a 32-byte little-endian scalar whose top byte
/// is at most 127: a = sum e[i] 16^i with every e[i] in [-8, 8].
/// Branch-free.
void recode_radix16(std::int8_t e[64], const std::uint8_t a[32]) {
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(a[i] >> 4);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int v = e[i] + carry;  // 0..16
    carry = (v + 8) >> 4;
    e[i] = static_cast<std::int8_t>(v - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);
}

/// b times the first entry of table row `row`, for b in [-8, 8], in
/// constant time: every entry of the row is read and masked in, and the
/// negation is a masked select too.
GePrecomp select(const BaseTable& table, int row, std::int8_t b) {
  const auto ub = static_cast<std::uint8_t>(b);
  const std::uint64_t negative = ub >> 7;
  const std::uint64_t babs = static_cast<std::uint8_t>((ub ^ (0 - negative)) + negative);

  GePrecomp t{detail::fe_one(), detail::fe_one(), detail::fe_zero()};
  for (std::uint64_t k = 0; k < 8; ++k) {
    const GePrecomp& entry = table[8 * static_cast<std::size_t>(row) + k];
    const std::uint64_t match = ((babs ^ (k + 1)) - 1) >> 63;  // babs == k + 1
    detail::fe_cmov(t.yplusx, entry.yplusx, match);
    detail::fe_cmov(t.yminusx, entry.yminusx, match);
    detail::fe_cmov(t.xy2d, entry.xy2d, match);
  }
  const GePrecomp minus_t = ge_neg(t);
  detail::fe_cmov(t.yplusx, minus_t.yplusx, negative);
  detail::fe_cmov(t.yminusx, minus_t.yminusx, negative);
  detail::fe_cmov(t.xy2d, minus_t.xy2d, negative);
  return t;
}

/// h plus the selected multiples for digits e[first], e[first + 2], ...,
/// e[first + 62], left completed for the caller to finish.
GeCompleted ge_madd_digits(const GePoint& h, const std::int8_t e[64], int first) {
  const BaseTable& table = base_table();
  GeCompleted sum = ge_madd(h, select(table, 0, e[first]));
  for (int i = first + 2; i < 64; i += 2) {
    sum = ge_madd(to_extended(sum), select(table, i / 2, e[i]));
  }
  return sum;
}

/// [a]B for a[31] <= 127 in constant time: 64 selects, 64 mixed additions
/// and 4 doublings for every a. Odd digits go first and are scaled by 16,
/// so 32 table rows cover all 64 digit positions.
GeProjective ge_scalarmult_base(const std::uint8_t a[32]) {
  std::int8_t e[64];
  recode_radix16(e, a);
  GeProjective h = to_projective(ge_madd_digits(ge_identity(), e, 1));
  for (int i = 0; i < 3; ++i) h = to_projective(ge_double(h));
  return to_projective(ge_madd_digits(to_extended(ge_double(h)), e, 0));
}

// --- Scalar arithmetic modulo the group order L. ---
// L = 2^252 + 27742317777372353535851937790883648493.

using Scalar = std::array<std::uint8_t, 32>;

/// L little-endian.
constexpr std::uint8_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                 0,    0,    0,    0,    0,    0,    0,    0,
                                 0,    0,    0,    0,    0,    0,    0,    0x10};

/// Reduces x = sum x[i] 2^(8i) (limbs below 2^22) modulo L into canonical
/// bytes, on fixed-width stack limbs with no data-dependent branch
/// (TweetNaCl's modL). Each top limb folds down through
/// 2^256 = 16 * 2^252 = -16 (L - 2^252) mod L; a final pass subtracts the
/// multiple of L left above 2^252 and adds L back if that went negative.
Scalar mod_l(std::int64_t x[64]) {
  for (int i = 63; i >= 32; --i) {
    std::int64_t carry = 0;
    int j = i - 32;
    for (; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * kL[j - (i - 32)];
      carry = (x[j] + 128) >> 8;
      x[j] -= carry * 256;
    }
    x[j] += carry;
    x[i] = 0;
  }
  std::int64_t carry = 0;
  for (int j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * kL[j];
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) x[j] -= carry * kL[j];
  Scalar out;
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x[i] & 255);
  }
  return out;
}

/// A 512-bit little-endian value (a SHA-512 digest) mod L.
Scalar sc_reduce(const Sha512::Digest& in) {
  std::int64_t x[64];
  for (std::size_t i = 0; i < 64; ++i) x[i] = in[i];
  return mod_l(x);
}

/// (a * b + c) mod L.
Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c) {
  std::int64_t x[64] = {};
  for (std::size_t i = 0; i < 32; ++i) x[i] = c[i];
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 32; ++j) x[i + j] += std::int64_t{a[i]} * b[j];
  }
  return mod_l(x);
}

/// s < L, comparing little-endian bytes from the top. S is public, so this
/// may exit early.
bool scalar_is_canonical(std::span<const std::uint8_t> s) {
  for (std::size_t i = 32; i-- > 0;) {
    if (s[i] != kL[i]) return s[i] < kL[i];
  }
  return false;
}

/// Sliding-window signed digits of a little-endian scalar below 2^253
/// (ref10's slide, at window width w): a = sum r[i] 2^i, where every
/// non-zero r[i] is odd with |r[i]| < 2^(w-1).
void slide(std::int8_t r[256], const std::uint8_t a[32], int w) {
  const int bound = (1 << (w - 1)) - 1;
  for (int i = 0; i < 256; ++i) r[i] = static_cast<std::int8_t>((a[i >> 3] >> (i & 7)) & 1);
  for (int i = 0; i < 256; ++i) {
    if (r[i] == 0) continue;
    for (int b = 1; b < w && i + b < 256; ++b) {
      if (r[i + b] == 0) continue;
      const int step = r[i + b] << b;
      if (r[i] + step <= bound) {
        r[i] = static_cast<std::int8_t>(r[i] + step);
        r[i + b] = 0;
      } else if (r[i] - step >= -bound) {
        r[i] = static_cast<std::int8_t>(r[i] - step);
        for (int k = i + b; k < 256; ++k) {  // add 2^(i+b) to the bits above
          if (r[k] == 0) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
}

/// [s]B - [k]A in one pass over the bits, one shared doubling per bit:
/// width-5 sliding-window digits of k index 8 cached odd multiples of -A
/// built per call, and width-7 digits of s index the static odd multiples
/// of B. Variable-time (zero digits are skipped, tables are indexed by
/// digit), which is fine because s, k and A are all public in verification.
GeProjective ge_double_scalarmult_vartime(const Scalar& s, const Scalar& k, const GePoint& a) {
  GePoint minus_a = a;
  detail::fe_neg(minus_a.x, a.x);
  detail::fe_neg(minus_a.t, a.t);
  std::array<GeCached, 8> a_odd;  // (2j + 1) * -A
  a_odd[0] = ge_to_cached(minus_a);
  const GePoint twice = to_extended(ge_double(to_projective(minus_a)));
  for (std::size_t j = 1; j < 8; ++j) {
    a_odd[j] = ge_to_cached(to_extended(ge_add(twice, a_odd[j - 1])));
  }
  const OddTable& b_odd = odd_table();

  std::int8_t ds[256], dk[256];
  slide(ds, s.data(), 7);
  slide(dk, k.data(), 5);
  int i = 255;
  while (i >= 0 && ds[i] == 0 && dk[i] == 0) --i;

  GeProjective h = to_projective(ge_identity());
  for (; i >= 0; --i) {
    GeCompleted t = ge_double(h);
    if (dk[i] > 0) t = ge_add(to_extended(t), a_odd[dk[i] / 2]);
    if (dk[i] < 0) t = ge_add(to_extended(t), ge_neg(a_odd[-dk[i] / 2]));
    if (ds[i] > 0) t = ge_madd(to_extended(t), b_odd[ds[i] / 2]);
    if (ds[i] < 0) t = ge_madd(to_extended(t), ge_neg(b_odd[-ds[i] / 2]));
    h = to_projective(t);
  }
  return h;
}

struct ExpandedKey {
  Scalar a;                         // clamped scalar
  std::array<std::uint8_t, 32> prefix;
};

ExpandedKey expand_seed(std::span<const std::uint8_t> seed) {
  const auto h = Sha512::hash(seed);
  ExpandedKey out{};
  std::memcpy(out.a.data(), h.data(), 32);
  std::memcpy(out.prefix.data(), h.data() + 32, 32);
  out.a[0] &= 248;
  out.a[31] &= 63;
  out.a[31] |= 64;
  return out;
}

}  // namespace

namespace detail {

void x25519_base_u(std::uint8_t out[32], const std::uint8_t e[32]) {
  // u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y) (RFC 7748 §4.1).
  const GeProjective p = ge_scalarmult_base(e);
  Fe num, den, inv, u;
  fe_add(num, p.z, p.y);
  fe_carry(num);
  fe_sub(den, p.z, p.y);
  fe_carry(den);
  fe_invert(inv, den);
  fe_mul(u, num, inv);
  fe_tobytes(out, u);
}

}  // namespace detail

Ed25519PublicKey ed25519_public_key(std::span<const std::uint8_t> seed) {
  if (seed.size() != kEd25519SeedSize) {
    throw std::invalid_argument("ed25519: seed must be 32 bytes");
  }
  const ExpandedKey key = expand_seed(seed);
  Ed25519PublicKey out{};
  ge_tobytes(out.data(), ge_scalarmult_base(key.a.data()));
  return out;
}

Ed25519KeyPair ed25519_keypair(std::span<const std::uint8_t> seed) {
  Ed25519KeyPair kp{};
  kp.public_key = ed25519_public_key(seed);  // validates the size before the copy
  std::memcpy(kp.seed.data(), seed.data(), kEd25519SeedSize);
  return kp;
}

Ed25519Signature ed25519_sign(const Ed25519KeyPair& keypair,
                              std::span<const std::uint8_t> message) {
  const ExpandedKey key = expand_seed(keypair.seed);

  // r = SHA512(prefix || M) mod L
  Sha512 h;
  h.update(key.prefix);
  h.update(message);
  const Scalar r = sc_reduce(h.finish());

  // R = r * B
  std::uint8_t r_bytes[32];
  ge_tobytes(r_bytes, ge_scalarmult_base(r.data()));

  // k = SHA512(R || A || M) mod L
  h.reset();
  h.update({r_bytes, 32});
  h.update(keypair.public_key);
  h.update(message);
  const Scalar k = sc_reduce(h.finish());

  // S = (r + k * a) mod L
  const Scalar s = sc_muladd(k, key.a, r);

  Ed25519Signature sig{};
  std::memcpy(sig.data(), r_bytes, 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

bool ed25519_verify(std::span<const std::uint8_t> public_key,
                    std::span<const std::uint8_t> message,
                    std::span<const std::uint8_t> signature) {
  if (public_key.size() != kEd25519PublicKeySize ||
      signature.size() != kEd25519SignatureSize) {
    return false;
  }
  const std::span<const std::uint8_t> r_bytes = signature.subspan(0, 32);
  const std::span<const std::uint8_t> s_bytes = signature.subspan(32, 32);
  if (!scalar_is_canonical(s_bytes)) return false;

  GePoint a_point;
  if (!ge_frombytes(a_point, public_key.data())) return false;

  // k = SHA512(R || A || M) mod L
  Sha512 h;
  h.update(r_bytes);
  h.update(public_key);
  h.update(message);
  const Scalar k = sc_reduce(h.finish());

  // Check [S]B = R + [k]A  <=>  [S]B - [k]A = R.
  Scalar s{};
  std::memcpy(s.data(), s_bytes.data(), 32);
  std::uint8_t check_bytes[32];
  ge_tobytes(check_bytes, ge_double_scalarmult_vartime(s, k, a_point));
  return std::memcmp(check_bytes, r_bytes.data(), 32) == 0;
}

}  // namespace agrarsec::crypto
