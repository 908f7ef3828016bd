#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace agrarsec::crypto {

namespace {
using Words = std::array<std::uint32_t, 16>;

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

/// The 20-round block function with its feed-forward. The keystream block
/// is the 16 words serialized little-endian.
Words core_block(const Words& input) {
  Words x = input;
  for (int i = 0; i < 10; ++i) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += input[i];
  return x;
}

/// p[0, n) ^= ks[0, n), eight bytes at a time while it can.
void xor_bytes(std::uint8_t* p, const std::uint8_t* ks, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, p + i, 8);
    std::memcpy(&b, ks + i, 8);
    a ^= b;
    std::memcpy(p + i, &a, 8);
  }
  for (; i < n; ++i) p[i] ^= ks[i];
}
}  // namespace

ChaCha20::ChaCha20(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
                   std::uint32_t initial_counter) {
  if (key.size() != kKeySize) throw std::invalid_argument("ChaCha20: key must be 32 bytes");
  if (nonce.size() != kNonceSize) throw std::invalid_argument("ChaCha20: nonce must be 12 bytes");
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = core::load_le32(key.data() + 4 * i);
  state_[12] = initial_counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = core::load_le32(nonce.data() + 4 * i);
}

void ChaCha20::refill() {
  const Words w = core_block(state_);
  ++state_[12];
  for (int i = 0; i < 16; ++i) core::store_le32(keystream_.data() + 4 * i, w[i]);
}

void ChaCha20::apply(std::span<std::uint8_t> data) {
  if (data.empty()) return;
  std::uint8_t* p = data.data();
  std::size_t n = data.size();

  // Finish the block an earlier call left part-used.
  const std::size_t carried = std::min(n, kBlockSize - keystream_used_);
  xor_bytes(p, keystream_.data() + keystream_used_, carried);
  keystream_used_ += carried;
  p += carried;
  n -= carried;

  for (; n >= kBlockSize; p += kBlockSize, n -= kBlockSize) {
    const Words w = core_block(state_);
    ++state_[12];
    for (int i = 0; i < 16; ++i) {
      core::store_le32(p + 4 * i, core::load_le32(p + 4 * i) ^ w[i]);
    }
  }

  if (n > 0) {
    refill();
    xor_bytes(p, keystream_.data(), n);
    keystream_used_ = n;
  }
}

core::Bytes ChaCha20::crypt(std::span<const std::uint8_t> key,
                            std::span<const std::uint8_t> nonce, std::uint32_t counter,
                            std::span<const std::uint8_t> data) {
  core::Bytes out(data.begin(), data.end());
  ChaCha20 c{key, nonce, counter};
  c.apply(out);
  return out;
}

}  // namespace agrarsec::crypto
