#include "crypto/chacha20.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace agrarsec::crypto {

namespace {

/// One row of the 4x4 state: four 32-bit words in a 128-bit vector.
using Row = std::uint32_t __attribute__((vector_size(16)));

/// A block's four rows.
struct Rows {
  Row a, b, c, d;
};

template <int N>
Row rotl(Row v) {
  return (v << N) | (v >> (32 - N));
}

/// Lane i takes lane (i + N) mod 4.
template <int N>
Row rotate_lanes(Row v) {
  return __builtin_shufflevector(v, v, N % 4, (N + 1) % 4, (N + 2) % 4, (N + 3) % 4);
}

/// The four column (or, diagonalized, diagonal) quarter rounds at once.
void quarter_rounds(Rows& x) {
  x.a += x.b; x.d ^= x.a; x.d = rotl<16>(x.d);
  x.c += x.d; x.b ^= x.c; x.b = rotl<12>(x.b);
  x.a += x.b; x.d ^= x.a; x.d = rotl<8>(x.d);
  x.c += x.d; x.b ^= x.c; x.b = rotl<7>(x.b);
}

/// A column round then a diagonal round. Rotating rows b, c and d by one,
/// two and three lanes lines the diagonals up as columns.
void double_round(Rows& x) {
  quarter_rounds(x);
  x.b = rotate_lanes<1>(x.b);
  x.c = rotate_lanes<2>(x.c);
  x.d = rotate_lanes<3>(x.d);
  quarter_rounds(x);
  x.b = rotate_lanes<3>(x.b);
  x.c = rotate_lanes<2>(x.c);
  x.d = rotate_lanes<1>(x.d);
}

/// The block's 16 words, serialized little-endian. Kept a loop over the
/// lanes: unrolled, GCC 12 assembles each word's bytes with shifts.
void store_rows(std::uint8_t* out, const Rows& x) {
  for (int i = 0; i < 4; ++i) {
    core::store_le32(out + 4 * i, x.a[i]);
    core::store_le32(out + 16 + 4 * i, x.b[i]);
    core::store_le32(out + 32 + 4 * i, x.c[i]);
    core::store_le32(out + 48 + 4 * i, x.d[i]);
  }
}

/// The 20-round block function with its feed-forward, for the blocks at
/// the state's counter and the next one (the counter wraps within its
/// word), two 64-byte keystream blocks serialized little-endian.
void two_blocks(const std::array<std::uint32_t, 16>& state, std::uint8_t out[128]) {
  const Rows in0{{state[0], state[1], state[2], state[3]},
                 {state[4], state[5], state[6], state[7]},
                 {state[8], state[9], state[10], state[11]},
                 {state[12], state[13], state[14], state[15]}};
  Rows in1 = in0;
  in1.d += Row{1, 0, 0, 0};
  Rows x0 = in0;
  Rows x1 = in1;
  for (int i = 0; i < 10; ++i) {
    double_round(x0);
    double_round(x1);
  }
  x0.a += in0.a; x0.b += in0.b; x0.c += in0.c; x0.d += in0.d;
  x1.a += in1.a; x1.b += in1.b; x1.c += in1.c; x1.d += in1.d;
  store_rows(out, x0);
  store_rows(out + 64, x1);
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
  two_blocks(state_, keystream_.data());
  state_[12] += 2;
  keystream_used_ = 0;
}

void ChaCha20::apply(std::span<std::uint8_t> data) {
  std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n > 0) {
    if (keystream_used_ == keystream_.size()) refill();
    const std::size_t take = std::min(n, keystream_.size() - keystream_used_);
    xor_bytes(p, keystream_.data() + keystream_used_, take);
    keystream_used_ += take;
    p += take;
    n -= take;
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
