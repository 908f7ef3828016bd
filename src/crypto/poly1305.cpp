#include "crypto/poly1305.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/bytes.h"

namespace agrarsec::crypto {

namespace {
using u128 = unsigned __int128;

constexpr std::uint64_t kMask44 = 0xfffffffffff;
constexpr std::uint64_t kMask42 = 0x3ffffffffff;
/// 2^128 in the top limb, which starts at bit 88.
constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;

/// Low 64 bits of a 128-bit product sum.
inline std::uint64_t lo(u128 v) { return static_cast<std::uint64_t>(v); }
}  // namespace

Poly1305::Poly1305(std::span<const std::uint8_t> key) {
  if (key.size() != kKeySize) throw std::invalid_argument("Poly1305: key must be 32 bytes");
  // r with clamping (RFC 8439 §2.5.1), split into 44/44/42-bit limbs.
  const std::uint64_t t0 = core::load_le64(key.data());
  const std::uint64_t t1 = core::load_le64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;

  h_[0] = h_[1] = h_[2] = 0;
  pad_[0] = core::load_le64(key.data() + 16);
  pad_[1] = core::load_le64(key.data() + 24);
}

void Poly1305::blocks(const std::uint8_t* m, std::size_t n, std::uint64_t hibit) {
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // A product term at bit 132 or above comes back 132 bits lower times
  // 20: 2^132 = 4 * 2^130 and 2^130 = 5 (mod p). With limbs below 2^45
  // and r * 20 below 2^49, each sum of three products stays under 2^96.
  const std::uint64_t s1 = r1 * 20, s2 = r2 * 20;
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  for (; n >= 16; m += 16, n -= 16) {
    const std::uint64_t t0 = core::load_le64(m);
    const std::uint64_t t1 = core::load_le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    const u128 d0 = u128{h0} * r0 + u128{h1} * s2 + u128{h2} * s1;
    u128 d1 = u128{h0} * r1 + u128{h1} * r0 + u128{h2} * s2;
    u128 d2 = u128{h0} * r2 + u128{h1} * r1 + u128{h2} * r0;

    // Partial reduction: carry limb to limb and fold the bits above 2^130
    // back into the bottom limb times 5.
    std::uint64_t c = static_cast<std::uint64_t>(d0 >> 44);
    h0 = lo(d0) & kMask44;
    d1 += c; c = static_cast<std::uint64_t>(d1 >> 44); h1 = lo(d1) & kMask44;
    d2 += c; c = static_cast<std::uint64_t>(d2 >> 42); h2 = lo(d2) & kMask42;
    h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
    h1 += c;
  }

  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  const std::uint8_t* m = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min<std::size_t>(16 - buffered_, n);
    std::memcpy(buffer_.data() + buffered_, m, take);
    buffered_ += take;
    m += take;
    n -= take;
    if (buffered_ < 16) return;
    blocks(buffer_.data(), 16, kHibit);
    buffered_ = 0;
  }
  const std::size_t whole = n & ~std::size_t{15};
  if (whole > 0) {
    blocks(m, whole, kHibit);
    m += whole;
    n -= whole;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), m, n);
    buffered_ = n;
  }
}

Poly1305::Tag Poly1305::finish() {
  if (buffered_ > 0) {
    buffer_[buffered_] = 1;
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_) + 1,
              buffer_.end(), std::uint8_t{0});
    blocks(buffer_.data(), 16, 0);
    buffered_ = 0;
  }

  // Full carry propagation, twice round the 2^130 fold.
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  std::uint64_t c = h1 >> 44; h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c; c = h1 >> 44; h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c;

  // g = h + 5 - 2^130 = h - p. Select g when it did not go negative.
  std::uint64_t g0 = h0 + 5; c = g0 >> 44; g0 &= kMask44;
  std::uint64_t g1 = h1 + c; c = g1 >> 44; g1 &= kMask44;
  const std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);
  const std::uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // tag = (h + s) mod 2^128.
  const std::uint64_t s0 = pad_[0], s1 = pad_[1];
  h0 += s0 & kMask44; c = h0 >> 44; h0 &= kMask44;
  h1 += (((s0 >> 44) | (s1 << 20)) & kMask44) + c; c = h1 >> 44; h1 &= kMask44;
  h2 += ((s1 >> 24) & kMask42) + c;

  Tag tag{};
  core::store_le64(tag.data(), h0 | (h1 << 44));
  core::store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

Poly1305::Tag Poly1305::mac(std::span<const std::uint8_t> key,
                            std::span<const std::uint8_t> data) {
  Poly1305 p{key};
  p.update(data);
  return p.finish();
}

}  // namespace agrarsec::crypto
